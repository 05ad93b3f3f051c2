/**
 * @file
 * kv_read_mostly and kv_cross_shard: open-loop serving of the
 * DistributedKv fleet through runtime::runServing, on simulated time.
 * Every pass runs the workload's fixed low and high rates; the first
 * also runs a steady-state capacity search. Every run builds a fresh
 * fleet and stream from the same seed.
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <memory>

#include "bench.hh"
#include "kv_backend.hh"
#include "util/logging.hh"

namespace perfbench
{

using namespace pimstm;

namespace
{

/**
 * One KV serving workload. The fixed rates are absolute, about 50% and
 * 90% of the capacity first measured on the workload, and never move,
 * so later changes are compared at the same offered load.
 */
struct KvWorkload
{
    const char *name;
    unsigned shards;
    std::vector<double> mix; ///< get / put / movek weights
    runtime::ArrivalKind arrival;
    double lo_rate;
    double hi_rate;
    /** Simulated time of arrivals per run: at least 20x the SLO, so a
     * probe is judged at steady state, not on its start-up. */
    double horizon_s;
};

/**
 * The bursty workload's MMPP-2 keeps the repo defaults (x8, 10% of the
 * time bursting) with 0.5 ms mean bursts: with 2 ms bursts a run of
 * affordable length sees only a handful of them, and where the knee
 * falls depends on the seed more than on the program. Its runs are
 * 600 ms long for the same reason.
 */
const KvWorkload kKvWorkloads[] = {
    {"kv_read_mostly", 64, {0.90, 0.08, 0.02},
     runtime::ArrivalKind::Poisson, 260e3, 460e3, 80e-3},
    {"kv_cross_shard", 16, {0.20, 0.40, 0.40},
     runtime::ArrivalKind::Bursty, 35e3, 60e3, 600e-3},
};

constexpr double kBurstDwell = 0.5e-3;
/** Admission bound per shard: deep enough that shedding marks overload
 * rather than one burst's spike. */
constexpr u32 kQueueCap = 256;
constexpr double kSloP99 = 2e-3;
constexpr double kWindow = 4e-3;
constexpr unsigned kRanksPerShard = 32;
/** Capacity search: x1.125 steps up from the low rate, then three
 * bisections of the failing step (1.5% resolution). */
constexpr double kSearchStep = 1.125;
constexpr unsigned kSearchIters = 3;

/** Everything one serving run measured. */
struct RunOut
{
    double rate = 0;
    runtime::ServingReport rep;
    SteadyVerdict verdict;
    KvBackendCounters counters;
    hostapp::TwoPcStats twopc;
    core::StmStats stm;
    double last_arrival_s = 0;
    u64 violations = 0; ///< end-state check failures
    /** The replayed latencies reproduce runServing's histogram. */
    bool replay_ok = false;
    u64 cycles = 0;
    u64 switches = 0;
    u64 elisions = 0;
    u64 fingerprint = 0;
    double setup_s = 0;
    double host_s = 0;
};

u64
fingerprintOf(const RunOut &r)
{
    Fingerprint f;
    const auto hist = [&](const core::LogHistogram &h) {
        f.mix(h.buckets, h.count, h.sum, h.min, h.max);
    };
    const auto &p = r.rep;
    f.mix(p.offered, p.completed, p.shed, p.rounds, p.batches,
          p.makespan_s, p.busy_seconds, p.capacity_seconds);
    hist(p.e2e_ns);
    for (const auto &s : p.shards) {
        f.mix(s.offered, s.completed, s.shed, s.peak_queue,
              s.busy_seconds);
        hist(s.latency_ns);
    }
    for (const auto &t : p.timeline)
        f.mix(t.t_end_s, t.completed, t.shed, t.p99_ns);
    const auto &c = r.counters;
    f.mix(c.executes, c.launches, c.involved_shards, c.gets, c.puts,
          c.moves, c.moves_committed, c.errors, c.round_sim_s,
          c.link_sim_s, c.slowest_ratio_sum);
    const auto &t = r.twopc;
    f.mix(t.batches, t.prepare_rounds, t.commit_rounds, t.tx_commits,
          t.tx_predicate_fails, t.tx_conflict_retries, t.serial_fallbacks,
          t.deferred_ops, t.bytes_down, t.bytes_up, t.shard_busy_seconds,
          t.shard_capacity_seconds);
    f.mix(r.stm, r.violations, r.replay_ok, r.cycles, r.switches,
          r.elisions, r.verdict.p50_ns, r.verdict.p99_ns);
    return f.value();
}

struct Spans
{
    int fleet, stream, teardown, serve, verify;

    explicit Spans(Tracer &t)
        : fleet(t.nameId("setup.fleet")),
          stream(t.nameId("serving.makeStream")),
          teardown(t.nameId("setup.teardown")),
          serve(t.nameId("serving.runServing")),
          verify(t.nameId("verify.kv"))
    {}
};

RunOut
runAt(const KvWorkload &w, double rate, u64 seed, Tracer &tr,
      const Spans &sp)
{
    RunOut out;
    out.rate = rate;

    // Set-up: fleet construction + key preload, and the stream.
    const double t0 = nowSeconds();
    std::unique_ptr<RankKvBackend> backend;
    {
        Tracer::Scope span(tr, sp.fleet);
        RankKvBackend::Config c;
        c.shards = w.shards;
        c.ranks = w.shards * kRanksPerShard;
        c.seed = seed;
        backend = std::make_unique<RankKvBackend>(c, tr);
    }
    std::vector<runtime::ServingRequest> stream;
    {
        Tracer::Scope span(tr, sp.stream);
        runtime::StreamConfig s;
        s.arrival.kind = w.arrival;
        s.arrival.rate_per_s = rate;
        s.arrival.burst_dwell_s = kBurstDwell;
        s.keys = w.shards * kRanksPerShard;
        s.zipf_theta = 0.99;
        s.op_weights = w.mix;
        s.seed = deriveSeed(seed, 0x73747265 /* "stre" */);
        // Sized in simulated time: draw until the horizon is covered,
        // then cut there (each axis of the stream has its own RNG, so
        // the cut leaves the kept requests unchanged).
        u64 n = static_cast<u64>(std::ceil(rate * w.horizon_s * 1.25)) + 64;
        for (;; n *= 2) {
            stream = runtime::makeStream(s, n);
            if (stream.back().arrival_s >= w.horizon_s)
                break;
        }
        while (stream.back().arrival_s >= w.horizon_s)
            stream.pop_back();
    }
    const double t1 = nowSeconds();

    // Measured work: serve the stream, then check the store.
    runtime::ServingConfig sc;
    sc.timeline_window_s = kWindow;
    sc.max_timeline_points = 1u << 20; // one point per window
    sc.queue_cap_per_shard = kQueueCap;
    ClockReplay replay(*backend, sc);
    {
        Tracer::Scope span(tr, sp.serve);
        out.rep = runtime::runServing(replay, stream, sc);
    }
    {
        Tracer::Scope span(tr, sp.verify);
        out.violations = backend->verifyEndState();
        out.replay_ok = replay.matches(out.rep.e2e_ns);
        if (!out.replay_ok)
            ++out.violations;
        if (out.rep.offered != out.rep.completed + out.rep.shed ||
            out.rep.offered != stream.size())
            ++out.violations;
        out.last_arrival_s = stream.back().arrival_s;
        SteadySpec spec;
        spec.window_s = kWindow;
        spec.slo_p99_s = kSloP99;
        out.verdict =
            judgeSteady(out.rep, arrivalsPerWindow(stream, kWindow),
                        replay.completions(), out.last_arrival_s, spec);
        out.counters = backend->counters();
        out.twopc = backend->twoPcDelta();
        out.stm = backend->stmDelta();
        out.cycles = backend->kv().simCycles();
        out.switches = backend->kv().schedSwitches();
        out.elisions = backend->kv().schedElisions();
    }
    const double t2 = nowSeconds();
    {
        Tracer::Scope span(tr, sp.teardown);
        backend.reset();
        stream = {};
    }
    out.host_s = t2 - t1;
    out.setup_s = (t1 - t0) + (nowSeconds() - t2);
    out.fingerprint = fingerprintOf(out);
    return out;
}

/**
 * One pass: the fixed low and high rates, and in the first pass of a
 * run also the capacity search. Host time is taken from the fixed-rate
 * runs only, whose work does not depend on where the seed puts the
 * knee.
 */
struct PassOut
{
    Tracer tracer;
    bool traced = false;
    RunOut lo, hi, at_cap;
    CapacitySearch search;
    double search_host_s = 0; ///< every probe's runServing + checks
    double wall_s = 0;
    // Pass-wide sums over every run.
    u64 cycles = 0, switches = 0, elisions = 0;
    u64 rounds = 0, batches = 0, completed = 0, shed = 0, violations = 0;
    u32 peak_queue = 0;
    double busy_s = 0, capacity_s = 0;
    KvBackendCounters c;
    hostapp::TwoPcStats twopc;
    core::StmStats stm;

    void
    absorb(const RunOut &r)
    {
        cycles += r.cycles;
        switches += r.switches;
        elisions += r.elisions;
        rounds += r.rep.rounds;
        batches += r.rep.batches;
        completed += r.rep.completed;
        shed += r.rep.shed;
        violations += r.violations;
        for (const auto &s : r.rep.shards)
            peak_queue = std::max(peak_queue, s.peak_queue);
        busy_s += r.rep.busy_seconds;
        capacity_s += r.rep.capacity_seconds;
        c.executes += r.counters.executes;
        c.launches += r.counters.launches;
        c.involved_shards += r.counters.involved_shards;
        c.gets += r.counters.gets;
        c.puts += r.counters.puts;
        c.moves += r.counters.moves;
        c.moves_committed += r.counters.moves_committed;
        c.errors += r.counters.errors;
        c.round_sim_s += r.counters.round_sim_s;
        c.link_sim_s += r.counters.link_sim_s;
        c.slowest_ratio_sum += r.counters.slowest_ratio_sum;
        const auto &t = r.twopc;
        twopc.prepare_rounds += t.prepare_rounds;
        twopc.commit_rounds += t.commit_rounds;
        twopc.tx_commits += t.tx_commits;
        twopc.tx_predicate_fails += t.tx_predicate_fails;
        twopc.tx_conflict_retries += t.tx_conflict_retries;
        twopc.serial_fallbacks += t.serial_fallbacks;
        twopc.deferred_ops += t.deferred_ops;
        twopc.bytes_down += t.bytes_down;
        twopc.bytes_up += t.bytes_up;
        stm += r.stm;
    }
};

PassOut
runPass(const KvWorkload &w, u64 seed, bool traced, bool search)
{
    PassOut p;
    p.tracer = Tracer(traced);
    p.traced = traced;
    const Spans sp(p.tracer);
    const double t0 = nowSeconds();
    p.lo = runAt(w, w.lo_rate, seed, p.tracer, sp);
    p.absorb(p.lo);
    p.hi = runAt(w, w.hi_rate, seed, p.tracer, sp);
    p.absorb(p.hi);
    if (search) {
        p.search = searchCapacity(
            [&](double rate) {
                RunOut r = runAt(w, rate, seed, p.tracer, sp);
                p.absorb(r);
                p.search_host_s += r.host_s;
                const bool ok = r.verdict.ok;
                if (ok && rate >= p.at_cap.rate)
                    p.at_cap = std::move(r);
                return ok;
            },
            w.lo_rate, w.lo_rate / 64, w.lo_rate * 64, kSearchStep,
            kSearchIters);
    }
    p.wall_s = nowSeconds() - t0;
    return p;
}

/** Host seconds of the fixed-rate runs of @p passes (set-up alone or
 * excluded), each run at its fastest pass. */
double
fixedRunSeconds(const std::vector<const PassOut *> &passes, bool setup)
{
    std::vector<std::vector<double>> t;
    for (const PassOut *p : passes)
        t.push_back(setup ? std::vector<double>{p->lo.setup_s, p->hi.setup_s}
                          : std::vector<double>{p->lo.host_s, p->hi.host_s});
    return sumOfMins(t);
}

double
ms(u64 ns)
{
    return static_cast<double>(ns) * 1e-6;
}

double
ms(double ns)
{
    return ns * 1e-6;
}

void
printRun(const char *what, const RunOut &r)
{
    const auto &h = r.rep.e2e_ns;
    const auto &v = r.verdict;
    std::cout << "  " << what << " " << r.rate << " req/s: offered "
              << r.rep.offered << ", completed " << r.rep.completed
              << ", shed " << r.rep.shed << "; " << v.windows
              << " steady windows, " << v.completed << " completions, "
              << v.tput_per_s << " req/s\n"
              << "    steady p50 " << ms(v.p50_ns) << " ms, p99 "
              << ms(v.p99_ns) << " ms (exact, nearest rank over "
              << v.completed << " samples, " << v.completed / 100
              << " beyond p99); whole-run mean " << ms(h.mean())
              << " ms (histogram sum/count); runServing's log2 bounds "
                 "(at most 2x over): p50 "
              << ms(runtime::histogramPercentile(h, 0.50)) << " ms, p99 "
              << ms(runtime::histogramPercentile(h, 0.99)) << " ms\n";
}

} // namespace

Result
runKv(const Args &a)
{
    const KvWorkload *wp = nullptr;
    for (const auto &w : kKvWorkloads)
        if (a.workload == w.name)
            wp = &w;
    fatalIf(!wp, "unknown KV workload ", a.workload);
    const KvWorkload &w = *wp;

    std::cout << "== " << w.name << ": open loop, "
              << (w.arrival == runtime::ArrivalKind::Poisson
                      ? "Poisson"
                      : "bursty MMPP-2 (x8, 10% of time bursting, 0.5 ms "
                        "mean bursts)")
              << " arrivals, " << w.shards << " shards x 4 tasklets, "
              << w.shards * kRanksPerShard
              << " ranks, Zipf 0.99, get/put/movek " << w.mix[0] << "/"
              << w.mix[1] << "/" << w.mix[2] << ", fixed rates " << w.lo_rate
              << " and " << w.hi_rate << " req/s, " << w.horizon_s * 1e3
              << " ms of arrivals per run, seed " << a.seed << " ==\n"
              << "arrivals run on simulated time: generator lateness is 0 "
                 "by construction\n";

    // The first pass, with the capacity search, is the reference (and
    // under --trace 1 the traced pass the per-layer metrics come from).
    // Fixed-rate passes follow, alternating untraced and traced under
    // --trace 1, until --seconds have elapsed; then the probe at
    // capacity runs once more to check that it repeats.
    std::vector<PassOut> passes;
    const double start = nowSeconds();
    passes.push_back(runPass(w, a.seed, a.trace, true));
    unsigned n_untraced = 0, n_traced = a.trace ? 1 : 0;
    while (n_untraced == 0 || nowSeconds() - start < a.seconds) {
        const bool t = a.trace && n_traced < n_untraced;
        passes.push_back(runPass(w, a.seed, t, false));
        ++(t ? n_traced : n_untraced);
    }

    Result res;
    const PassOut &ref = passes.front();
    std::vector<const PassOut *> untraced, traced;
    u64 mismatches = 0;
    for (const PassOut &p : passes) {
        (p.traced ? traced : untraced).push_back(&p);
        if (p.lo.fingerprint != ref.lo.fingerprint ||
            p.hi.fingerprint != ref.hi.fingerprint)
            ++mismatches;
        // The fixed-rate runs are the user-facing operating points; a
        // store error or broken end state anywhere is a failure.
        res.attempted += p.lo.rep.offered + p.hi.rep.offered;
        res.failed += p.lo.rep.shed + p.hi.rep.shed + p.c.errors +
            p.violations;
    }
    if (ref.search.capacity_per_s > 0) {
        Tracer off;
        const RunOut again =
            runAt(w, ref.at_cap.rate, a.seed, off, Spans(off));
        if (again.fingerprint != ref.at_cap.fingerprint)
            ++mismatches;
    }
    if (mismatches) {
        std::cout << "DETERMINISM FAILED: " << mismatches
                  << " passes differ from the first\n";
        res.correct = false;
    }
    if (ref.c.errors || ref.violations) {
        std::cout << "KV CHECK FAILED: " << ref.c.errors
                  << " store errors, " << ref.violations
                  << " end-state, conservation or latency-replay "
                     "violations\n";
        res.correct = false;
    }

    const double host_s = fixedRunSeconds(untraced, false);
    const u64 fixed_cycles = ref.lo.cycles + ref.hi.cycles;
    res.e2e["setup_s"] = fixedRunSeconds(untraced, true);
    res.e2e["peak_rss_mb"] = peakRssMb();
    res.e2e["sim_tput_per_s"] = ref.search.capacity_per_s;
    res.e2e["sim_mcycles"] = static_cast<double>(fixed_cycles) / 1e6;
    res.layer["host_s"] = host_s;
    res.layer["sim_mcycles_per_s"] =
        static_cast<double>(fixed_cycles) / 1e6 / host_s;

    const double failed_frac = static_cast<double>(res.failed) /
        static_cast<double>(res.attempted);
    const double p50_lo = ms(ref.lo.verdict.p50_ns);
    const double p99_lo = ms(ref.lo.verdict.p99_ns);
    const double p99_hi = ms(ref.hi.verdict.p99_ns);
    const double mean_hi = ms(ref.hi.rep.e2e_ns.mean());
    std::cout << std::setprecision(6) << "passes: " << untraced.size()
              << " untraced, " << traced.size()
              << " traced (the first with the capacity search); "
                 "untraced lo+hi host s per pass:";
    for (const PassOut *p : untraced)
        std::cout << " " << p->lo.host_s + p->hi.host_s;
    std::cout << "\ncapacity probes (rate, verdict):";
    for (const auto &pr : ref.search.probes)
        std::cout << " " << pr.rate_per_s << (pr.ok ? ":ok" : ":fail");
    std::cout << "\nat capacity " << ref.search.capacity_per_s
              << " req/s: " << ref.at_cap.verdict.windows
              << " steady windows of " << kWindow * 1e3
              << " ms, steady p99 " << ms(ref.at_cap.verdict.p99_ns)
              << " ms, shed " << ref.at_cap.verdict.shed << "\n";
    printRun("lo", ref.lo);
    printRun("hi", ref.hi);
    printRun("at capacity", ref.at_cap);
    std::cout << "end-to-end (host_s and sim_mcycles_per_s are "
                 "per-layer metrics, not gated):\n"
              << "  host_s            " << host_s
              << " s (runServing + checks of the lo and hi runs, each at "
                 "its fastest untraced pass, set-up excluded)\n"
              << "  setup_s           " << res.e2e["setup_s"]
              << " s (fleet construction + key preload + makeStream + "
                 "teardown of the lo and hi runs)\n"
              << "  peak_rss_mb       " << res.e2e["peak_rss_mb"] << " MB\n"
              << "  sim_mips          n/a (DistributedKv does not expose "
                 "instruction counts)\n"
              << "  sim_mcycles_per_s " << res.layer["sim_mcycles_per_s"]
              << " M simulated shard cycles per host s (lo and hi runs)\n"
              << "  sim_mcycles       " << res.e2e["sim_mcycles"]
              << " M simulated shard cycles (lo and hi runs)\n"
              << "  failed_frac       " << failed_frac
              << " (shed + errors + end-state violations at the fixed "
                 "rates)\n"
              << "  tput_tx_per_s     n/a (open loop; see capacity_rps)\n"
              << "  capacity_rps      " << ref.search.capacity_per_s
              << " req/s offered (steady p99 <= 2 ms, zero shed, no "
                 "backlog; reported as sim_tput_per_s)\n"
              << "  p50_ms.lo         " << p50_lo << " simulated ms\n"
              << "  p99_ms.lo         " << p99_lo << " simulated ms\n"
              << "  p99_ms.hi         " << p99_hi << " simulated ms\n"
              << "  mean_ms.hi        " << mean_hi << " simulated ms\n";

    if (!a.trace)
        return res;

    const PassOut &tp = ref; // traced, with the search
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
    const auto d = [](u64 v) { return static_cast<double>(v); };

    L["sim.cycles"] = d(ref.cycles);
    L["sim.sched_switches"] = d(ref.switches);
    L["sim.sched_elisions"] = d(ref.elisions);
    L["sim.elision_share"] =
        d(ref.elisions) / d(ref.elisions + ref.switches);
    L["sim.host_ns_per_kcycle"] =
        host_s * 1e9 / (d(fixed_cycles) / 1e3);

    L["core.commits"] = d(ref.stm.commits);
    L["core.aborts"] = d(ref.stm.aborts);
    L["core.commit_share"] = d(ref.stm.commits) / d(ref.stm.starts);
    for (size_t r = 0; r < core::kNumAbortReasons; ++r)
        L["core.aborts." + std::string(core::abortReasonName(
                               static_cast<core::AbortReason>(r)))] =
            d(ref.stm.abort_reasons[r]);

    const double exec_s = total_by["hostapp.execute"];
    L["hostapp.execute_host_s"] = exec_s;
    L["hostapp.shard_launches"] = d(ref.c.launches);
    L["hostapp.host_us_per_launch"] = exec_s * 1e6 / d(ref.c.launches);
    L["hostapp.round_sim_us"] = ref.c.round_sim_s * 1e6 / d(ref.c.executes);
    L["hostapp.round_link_share"] = ref.c.link_sim_s / ref.c.round_sim_s;
    L["hostapp.slowest_shard_ratio"] =
        ref.c.slowest_ratio_sum / d(ref.c.executes);
    L["hostapp.involved_shards"] =
        d(ref.c.involved_shards) / d(ref.c.executes);
    L["hostapp.shard_occupancy"] = ref.busy_s / ref.capacity_s;
    L["hostapp.prepare_rounds"] = d(ref.twopc.prepare_rounds);
    L["hostapp.commit_rounds"] = d(ref.twopc.commit_rounds);
    L["hostapp.tx_commits"] = d(ref.twopc.tx_commits);
    L["hostapp.tx_predicate_fails"] = d(ref.twopc.tx_predicate_fails);
    L["hostapp.tx_conflict_retries"] = d(ref.twopc.tx_conflict_retries);
    L["hostapp.serial_fallbacks"] = d(ref.twopc.serial_fallbacks);
    L["hostapp.deferred_ops"] = d(ref.twopc.deferred_ops);
    L["hostapp.bytes_down"] = d(ref.twopc.bytes_down);
    L["hostapp.bytes_up"] = d(ref.twopc.bytes_up);
    L["hostapp.moves"] = d(ref.c.moves);
    L["hostapp.moves_committed"] = d(ref.c.moves_committed);

    L["backend.self_host_s"] = self_by["backend.executeRound"];
    L["serving.self_host_s"] = self_by["serving.runServing"];
    L["serving.stream_host_s"] = total_by["serving.makeStream"];
    L["serving.fleet_host_s"] = total_by["setup.fleet"];
    L["serving.search_host_s"] = tp.search_host_s;
    L["serving.rounds"] = d(ref.rounds);
    L["serving.mean_batch"] = d(ref.completed) / d(ref.batches);
    L["serving.peak_queue"] = d(ref.peak_queue);
    L["serving.shed"] = d(ref.shed);
    L["serving.drain_ms"] =
        (ref.hi.rep.makespan_s - ref.hi.last_arrival_s) * 1e3;
    L["serving.probes"] = d(ref.search.probes.size());
    L["serving.capacity_rps"] = ref.search.capacity_per_s;
    L["serving.p50_ms.lo"] = p50_lo;
    L["serving.p99_ms.lo"] = p99_lo;
    L["serving.p99_ms.hi"] = p99_hi;
    L["serving.mean_ms.hi"] = mean_hi;
    L["serving.failed_frac"] = failed_frac;

    const double traced_host_s = fixedRunSeconds(traced, false);
    L["trace.host_s"] = traced_host_s;
    L["trace.overhead_s"] = traced_host_s - host_s;
    L["trace.slack_s"] = tp.wall_s - roots;
    L["trace.spans"] = d(spans.size());

    std::cout << "layer self times (traced pass, host s):\n";
    for (const auto &[n, v] : self_by)
        std::cout << "  " << n << " " << v << "\n";
    double sum = L["trace.slack_s"];
    for (const auto &[n, v] : self_by)
        sum += v;
    std::cout << "  outside any span (slack) " << L["trace.slack_s"]
              << "\n  sum " << sum << " = traced pass wall " << tp.wall_s
              << "\n"
              << "tracing overhead: traced host_s " << traced_host_s
              << " - untraced host_s " << host_s << " = "
              << L["trace.overhead_s"] << " s\n";
    return res;
}

} // namespace perfbench
