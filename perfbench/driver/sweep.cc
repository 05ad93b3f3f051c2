/**
 * @file
 * stm_sweep: the Fig. 6 sweep (six microbenchmarks at fig6_summary's
 * quick sizes x 8 STM kinds x MRAM/WRAM metadata x tasklets
 * {1,2,4,8,11,16}), closed loop, one simulated DPU per point, run
 * through runtime::runWorkload on one host thread.
 */

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "runtime/dpu_pool.hh"
#include "runtime/driver.hh"
#include "util/logging.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/linkedlist.hh"

namespace perfbench
{

using namespace pimstm;

namespace
{

struct NamedFactory
{
    std::string name;
    runtime::WorkloadFactory make;
};

/** fig6_summary's workloads at its --quick sizes. */
std::vector<NamedFactory>
fig6Workloads()
{
    using namespace pimstm::workloads;
    return {
        {"ArrayBench A",
         [] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(6));
         }},
        {"ArrayBench B",
         [] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(80));
         }},
        {"Linked-List LC",
         [] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::lowContention(30));
         }},
        {"Linked-List HC",
         [] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::highContention(30));
         }},
        {"KMeans LC",
         [] {
             return std::make_unique<KMeans>(
                 KMeansParams::lowContention(6));
         }},
        {"KMeans HC",
         [] {
             return std::make_unique<KMeans>(
                 KMeansParams::highContention(6));
         }},
    };
}

const unsigned kTasklets[] = {1, 2, 4, 8, 11, 16};

/**
 * Times a workload's setup and verify from outside the driver, and
 * tells a failed verify apart from an infeasible configuration (both
 * surface from runWorkload as FatalError).
 */
class TimedWorkload : public runtime::Workload
{
  public:
    TimedWorkload(runtime::Workload &inner, Tracer &t, int setup_span,
                  int verify_span)
        : inner_(inner), tracer_(t), setup_span_(setup_span),
          verify_span_(verify_span)
    {}

    const char *name() const override { return inner_.name(); }

    void
    configure(core::StmConfig &cfg) const override
    {
        inner_.configure(cfg);
    }

    void
    setup(sim::Dpu &dpu, core::Stm &stm) override
    {
        const double t0 = nowSeconds();
        {
            Tracer::Scope span(tracer_, setup_span_);
            inner_.setup(dpu, stm);
        }
        setup_s += nowSeconds() - t0;
    }

    void
    tasklet(sim::DpuContext &ctx, core::Stm &stm) override
    {
        inner_.tasklet(ctx, stm);
    }

    void
    verify(sim::Dpu &dpu, core::Stm &stm) override
    {
        Tracer::Scope span(tracer_, verify_span_);
        try {
            inner_.verify(dpu, stm);
        } catch (const FatalError &) {
            verify_failed = true;
            throw;
        }
    }

    u64 appOps() const override { return inner_.appOps(); }

    std::map<std::string, double>
    extraMetrics() const override
    {
        return inner_.extraMetrics();
    }

    double setup_s = 0;
    bool verify_failed = false;

  private:
    runtime::Workload &inner_;
    Tracer &tracer_;
    int setup_span_;
    int verify_span_;
};

struct Point
{
    size_t wl = 0;
    core::StmKind kind{};
    core::MetadataTier tier{};
    unsigned tasklets = 0;
};

struct PointResult
{
    bool runnable = false;
    bool verify_failed = false;
    std::string error;
    u64 fingerprint = 0;
    runtime::RunResult r;
    double host_s = 0;  ///< runWorkload, set-up included
    double setup_s = 0; ///< Workload::setup
};

struct PassResult
{
    std::vector<PointResult> points;
    double wall_s = 0;
    runtime::DpuPool::Stats pool{};
    Tracer tracer;
};

/** Per-point host seconds of @p passes, set-up excluded or alone. */
std::vector<std::vector<double>>
pointTimes(const std::vector<PassResult> &passes, bool setup)
{
    std::vector<std::vector<double>> t;
    for (const PassResult &p : passes) {
        t.emplace_back();
        for (const PointResult &pr : p.points)
            t.back().push_back(setup ? pr.setup_s : pr.host_s - pr.setup_s);
    }
    return t;
}

u64
fingerprintOf(const runtime::RunResult &r)
{
    static_assert(std::has_unique_object_representations_v<core::StmStats>);
    static_assert(std::has_unique_object_representations_v<sim::DpuStats>);
    Fingerprint f;
    f.mix(r.stm, r.dpu, r.seconds, r.throughput, r.app_ops_per_sec,
          r.abort_rate, r.phase_share);
    for (const auto &[k, v] : r.extra) {
        for (char c : k)
            f.add(c);
        f.add(v);
    }
    return f.value();
}

std::string
label(const std::vector<NamedFactory> &wls, const Point &p)
{
    std::ostringstream o;
    o << wls[p.wl].name << "/" << core::stmKindName(p.kind) << "/"
      << core::metadataTierName(p.tier) << "/t" << p.tasklets;
    return o.str();
}

PassResult
runPass(const std::vector<NamedFactory> &wls,
        const std::vector<Point> &sweep, u64 seed, bool traced)
{
    PassResult pass;
    pass.tracer = Tracer(traced);
    Tracer &tr = pass.tracer;
    const int span_run = tr.nameId("runtime.runWorkload");
    const int span_setup = tr.nameId("workloads.setup");
    const int span_verify = tr.nameId("workloads.verify");

    const auto pool0 = runtime::DpuPool::global().stats();
    const double t0 = nowSeconds();
    pass.points.resize(sweep.size());
    for (size_t i = 0; i < sweep.size(); ++i) {
        const Point &p = sweep[i];
        PointResult &pr = pass.points[i];
        auto wl = wls[p.wl].make();
        TimedWorkload timed(*wl, tr, span_setup, span_verify);
        runtime::RunSpec spec;
        spec.kind = p.kind;
        spec.tier = p.tier;
        spec.tasklets = p.tasklets;
        spec.seed = seed;
        spec.mram_bytes = 8 * 1024 * 1024; // as fig6_summary
        const double p0 = nowSeconds();
        try {
            Tracer::Scope span(tr, span_run);
            pr.r = runtime::runWorkload(timed, spec);
            pr.runnable = true;
            pr.fingerprint = fingerprintOf(pr.r);
        } catch (const FatalError &e) {
            // Infeasible placement is the paper's "not runnable";
            // a failed verify is a wrong result.
            pr.verify_failed = timed.verify_failed;
            pr.error = e.what();
        }
        pr.host_s = nowSeconds() - p0;
        pr.setup_s = timed.setup_s;
    }
    pass.wall_s = nowSeconds() - t0;
    const auto pool1 = runtime::DpuPool::global().stats();
    pass.pool.hits = pool1.hits - pool0.hits;
    pass.pool.misses = pool1.misses - pool0.misses;
    return pass;
}

} // namespace

Result
runSweep(const Args &a)
{
    const auto wls = fig6Workloads();
    std::vector<Point> sweep;
    for (const auto tier :
         {core::MetadataTier::Mram, core::MetadataTier::Wram})
        for (size_t w = 0; w < wls.size(); ++w)
            for (core::StmKind kind : core::allStmKindsExtended())
                for (unsigned t : kTasklets)
                    sweep.push_back({w, kind, tier, t});

    std::cout << "== stm_sweep: " << wls.size() << " workloads x "
              << core::allStmKindsExtended().size()
              << " kinds x 2 tiers x 6 tasklet counts = " << sweep.size()
              << " points, closed loop, one DPU each, seed " << a.seed
              << " ==\n";

    // Untraced passes, alternating with traced ones under --trace 1,
    // until --seconds have elapsed; at least one of each.
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    const double start = nowSeconds();
    while (untraced.empty() || (a.trace && traced.empty()) ||
           nowSeconds() - start < a.seconds) {
        const bool t = a.trace && traced.size() < untraced.size();
        (t ? traced : untraced)
            .push_back(runPass(wls, sweep, a.seed, t));
    }

    Result res;
    // Determinism: every pass, traced or not, must reproduce the first
    // pass's simulated results bit for bit.
    const PassResult &ref = untraced.front();
    u64 mismatches = 0;
    for (const auto *set : {&untraced, &traced})
        for (const PassResult &p : *set)
            for (size_t i = 0; i < sweep.size(); ++i)
                if (p.points[i].runnable != ref.points[i].runnable ||
                    p.points[i].fingerprint != ref.points[i].fingerprint)
                    ++mismatches;
    u64 runnable = 0;
    for (const PassResult &p : untraced) {
        for (size_t i = 0; i < sweep.size(); ++i) {
            const PointResult &pr = p.points[i];
            if (pr.runnable || pr.verify_failed)
                ++res.attempted;
            if (pr.verify_failed) {
                ++res.failed;
                std::cout << "VERIFY FAILED " << label(wls, sweep[i])
                          << ": " << pr.error << "\n";
            }
        }
    }
    for (const PointResult &pr : ref.points)
        runnable += pr.runnable ? 1 : 0;
    if (mismatches) {
        std::cout << "DETERMINISM FAILED: " << mismatches
                  << " point results differ between passes\n";
        res.correct = false;
    }
    if (res.failed)
        res.correct = false;

    // Simulated totals of one pass (identical in every pass).
    sim::DpuStats dpu;
    core::StmStats stm;
    std::vector<double> tputs;
    std::map<core::StmKind, std::vector<double>> kind_tputs;
    for (size_t i = 0; i < sweep.size(); ++i) {
        const PointResult &pr = ref.points[i];
        if (!pr.runnable)
            continue;
        dpu += pr.r.dpu;
        stm += pr.r.stm;
        tputs.push_back(pr.r.throughput);
        kind_tputs[sweep[i].kind].push_back(pr.r.throughput);
    }

    const double host_s = sumOfMins(pointTimes(untraced, false));
    const double instr = static_cast<double>(dpu.instructions);
    double cycles = 0;
    for (const PointResult &pr : ref.points)
        if (pr.runnable)
            cycles += static_cast<double>(pr.r.dpu.total_cycles);

    res.e2e["setup_s"] = sumOfMins(pointTimes(untraced, true));
    res.e2e["peak_rss_mb"] = peakRssMb();
    res.e2e["sim_tput_per_s"] = geomean(tputs);
    res.e2e["sim_mcycles"] = cycles / 1e6;
    res.layer["host_s"] = host_s;
    res.layer["sim_mcycles_per_s"] = cycles / 1e6 / host_s;

    std::cout << std::setprecision(6);
    std::cout << "passes: " << untraced.size() << " untraced, "
              << traced.size() << " traced; untraced pass walls:";
    for (const PassResult &p : untraced)
        std::cout << " " << p.wall_s;
    std::cout << "\nend-to-end (host times: each point at its fastest "
                 "untraced pass; host_s and sim_mcycles_per_s are "
                 "per-layer metrics, not gated)\n"
              << "  host_s            " << host_s
              << " s (runWorkload calls of one sweep, set-up excluded)\n"
              << "  setup_s           " << res.e2e["setup_s"]
              << " s (Workload::setup calls of one sweep)\n"
              << "  peak_rss_mb       " << res.e2e["peak_rss_mb"] << " MB\n"
              << "  sim_mips          " << instr / 1e6 / host_s
              << " M simulated instructions per host s\n"
              << "  sim_mcycles_per_s " << res.layer["sim_mcycles_per_s"]
              << " M simulated DPU cycles per host s\n"
              << "  sim_mcycles       " << res.e2e["sim_mcycles"]
              << " M simulated DPU cycles, summed over the runnable "
                 "points\n"
              << "  failed_frac       "
              << (res.attempted ? static_cast<double>(res.failed) /
                                      static_cast<double>(res.attempted)
                                : 0.0)
              << " (verify failures / runs)\n"
              << "  tput_tx_per_s     " << res.e2e["sim_tput_per_s"]
              << " simulated committed tx/s, geomean over " << runnable
              << " runnable points (reported as sim_tput_per_s)\n"
              << "  capacity_rps, p50_ms.lo, p99_ms.lo, p99_ms.hi, "
                 "mean_ms.hi: n/a (closed loop, no arrival rate)\n";

    if (!a.trace)
        return res;

    // Per-layer metrics from the traced passes (first one) and the
    // simulated totals.
    const PassResult &tp = traced.front();
    const auto &names = tp.tracer.names();
    const auto &spans = tp.tracer.spans();
    const auto self = selfTimes(spans);
    std::map<std::string, double> self_by, total_by;
    double roots = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        self_by[names[spans[i].name]] += self[i];
        total_by[names[spans[i].name]] += spans[i].end - spans[i].start;
        if (spans[i].parent < 0)
            roots += spans[i].end - spans[i].start;
    }
    auto &L = res.layer;

    L["sim.instructions"] = instr;
    L["sim.cycles"] = cycles;
    L["sim.sched_switches"] = static_cast<double>(dpu.sched_switches);
    L["sim.sched_elisions"] = static_cast<double>(dpu.sched_elisions);
    L["sim.elision_share"] =
        static_cast<double>(dpu.sched_elisions) /
        static_cast<double>(dpu.sched_elisions + dpu.sched_switches);
    L["sim.mram_bytes"] =
        static_cast<double>(dpu.mram_bytes_read + dpu.mram_bytes_written);
    L["sim.atomic_stall_cycles"] =
        static_cast<double>(dpu.atomic_stall_cycles);
    L["sim.host_ns_per_kinstr"] = host_s * 1e9 / (instr / 1e3);
    L["sim.host_ns_per_kcycle"] = host_s * 1e9 / (cycles / 1e3);

    L["core.commits"] = static_cast<double>(stm.commits);
    L["core.aborts"] = static_cast<double>(stm.aborts);
    L["core.commit_share"] = static_cast<double>(stm.commits) /
        static_cast<double>(stm.starts);
    for (size_t r = 0; r < core::kNumAbortReasons; ++r)
        L["core.aborts." + std::string(core::abortReasonName(
                               static_cast<core::AbortReason>(r)))] =
            static_cast<double>(stm.abort_reasons[r]);
    const double busy = static_cast<double>(dpu.busyCycles());
    for (size_t p = 0; p < sim::kNumPhases; ++p)
        L["core.phase." +
          std::string(sim::phaseName(static_cast<sim::Phase>(p)))] =
            static_cast<double>(dpu.phase_cycles[p]) / busy;
    for (core::StmKind k : core::allStmKindsExtended()) {
        const std::string s = slug(core::stmKindName(k));
        L["core.tput." + s] = geomean(kind_tputs[k]);
        L["core.host_s." + s] = 0;
    }
    for (const auto &w : wls)
        L["workloads.host_s." + slug(w.name)] = 0;
    for (size_t i = 0; i < sweep.size(); ++i) {
        const double h = tp.points[i].host_s;
        L["core.host_s." + slug(core::stmKindName(sweep[i].kind))] += h;
        L["workloads.host_s." + slug(wls[sweep[i].wl].name)] += h;
    }
    L["workloads.setup_s"] = total_by["workloads.setup"];
    L["workloads.verify_s"] = total_by["workloads.verify"];

    L["driver.runs"] = static_cast<double>(runnable);
    L["driver.host_s"] = self_by["runtime.runWorkload"];
    L["driver.not_runnable"] = static_cast<double>(sweep.size() - runnable);
    L["driver.pool_hits"] = static_cast<double>(tp.pool.hits);
    L["driver.pool_misses"] = static_cast<double>(tp.pool.misses);

    const double traced_host_s = sumOfMins(pointTimes(traced, false));
    L["trace.host_s"] = traced_host_s;
    L["trace.overhead_s"] = traced_host_s - host_s;
    L["trace.slack_s"] = tp.wall_s - roots;
    L["trace.spans"] = static_cast<double>(spans.size());

    std::cout << "layer self times (traced pass, host s):\n"
              << "  runtime.runWorkload (sim core + STM + tasklet code + "
                 "driver) "
              << self_by["runtime.runWorkload"] << "\n"
              << "  workloads.setup " << self_by["workloads.setup"]
              << "\n  workloads.verify " << self_by["workloads.verify"]
              << "\n  outside any span (slack) " << L["trace.slack_s"]
              << "\n  sum " << self_by["runtime.runWorkload"] +
                        self_by["workloads.setup"] +
                        self_by["workloads.verify"] + L["trace.slack_s"]
              << " = traced pass wall " << tp.wall_s
              << "\n"
              << "tracing overhead: traced host_s " << traced_host_s
              << " - untraced host_s " << host_s << " = "
              << L["trace.overhead_s"] << " s\n";

    // Per-point records, labelled workload/kind/tier/tasklets, and the
    // ten most expensive points of the traced pass.
    std::vector<size_t> order(sweep.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return tp.points[x].host_s > tp.points[y].host_s;
    });
    std::cout << "hottest points (host s, share of traced pass):\n";
    for (size_t k = 0; k < 10 && k < order.size(); ++k)
        std::cout << "  " << label(wls, sweep[order[k]]) << "  "
                  << tp.points[order[k]].host_s << "  "
                  << tp.points[order[k]].host_s / tp.wall_s << "\n";
    std::cout << "points (label, host_s, committed tx/s, commits, aborts, "
                 "instructions):\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const PointResult &pr = tp.points[i];
        std::cout << "  point " << label(wls, sweep[i]) << "  ";
        if (!pr.runnable) {
            std::cout << "not-runnable\n";
            continue;
        }
        std::cout << pr.host_s << "  " << pr.r.throughput << "  "
                  << pr.r.stm.commits << "  " << pr.r.stm.aborts << "  "
                  << pr.r.dpu.instructions << "\n";
    }
    return res;
}

} // namespace perfbench
