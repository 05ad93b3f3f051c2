/**
 * @file
 * The repository benchmark's driver:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads: stm_sweep (closed-loop Fig. 6 sweep), kv_read_mostly and
 * kv_cross_shard (open-loop KV serving). Everything runs on one host
 * thread. A run repeats passes of its workload for --seconds and
 * checks that every pass reproduces the first one's simulated results
 * bit for bit. The last stdout line is one JSON object: with --trace 0
 * the end-to-end metrics of the untraced passes, with --trace 1 the
 * per-layer metrics of a traced pass. See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "core/stm.hh"
#include "sim/phase.hh"
#include "util/host_alloc.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace pimstm;

double
sumOfMins(const std::vector<std::vector<double>> &times)
{
    if (times.empty())
        return 0;
    double sum = 0;
    for (size_t u = 0; u < times.front().size(); ++u) {
        double best = times.front()[u];
        for (const auto &pass : times)
            best = std::min(best, pass[u]);
        sum += best;
    }
    return sum;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    size_t n = 0;
    for (double x : v) {
        if (x > 0) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
slug(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == ' ' || c == '-')
            out += '_';
        else
            out += static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
    }
    return out;
}

namespace
{

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The gated metrics: those that repeat within their bounds on a
 * shared host. Host time does not (see README.md) and is reported
 * with the per-layer metrics. */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_tput_per_s", "1/s"},
    {"sim_mcycles", "Mcycle"},
};

/** Every per-layer metric, in output order. Simulated durations carry
 * a sim_ unit; host durations a plain one. */
std::vector<MetricSpec>
layerMetrics()
{
    std::vector<MetricSpec> m = {
        {"host_s", "s"},
        {"sim_mcycles_per_s", "Mcycle/s"},
        {"sim.instructions", "count"},
        {"sim.cycles", "count"},
        {"sim.sched_switches", "count"},
        {"sim.sched_elisions", "count"},
        {"sim.elision_share", "ratio"},
        {"sim.mram_bytes", "bytes"},
        {"sim.atomic_stall_cycles", "count"},
        {"sim.host_ns_per_kinstr", "ns"},
        {"sim.host_ns_per_kcycle", "ns"},
        {"core.commits", "count"},
        {"core.aborts", "count"},
        {"core.commit_share", "ratio"},
    };
    for (size_t r = 0; r < core::kNumAbortReasons; ++r)
        m.push_back({"core.aborts." +
                         std::string(core::abortReasonName(
                             static_cast<core::AbortReason>(r))),
                     "count"});
    for (size_t p = 0; p < sim::kNumPhases; ++p)
        m.push_back({"core.phase." + std::string(sim::phaseName(
                                         static_cast<sim::Phase>(p))),
                     "ratio"});
    for (core::StmKind k : core::allStmKindsExtended())
        m.push_back({"core.tput." + slug(core::stmKindName(k)), "1/s"});
    for (core::StmKind k : core::allStmKindsExtended())
        m.push_back({"core.host_s." + slug(core::stmKindName(k)), "s"});
    for (const char *w : {"ArrayBench A", "ArrayBench B", "Linked-List LC",
                          "Linked-List HC", "KMeans LC", "KMeans HC"})
        m.push_back({"workloads.host_s." + slug(w), "s"});
    const std::vector<MetricSpec> rest = {
        {"workloads.setup_s", "s"},
        {"workloads.verify_s", "s"},
        {"driver.runs", "count"},
        {"driver.host_s", "s"},
        {"driver.not_runnable", "count"},
        {"driver.pool_hits", "count"},
        {"driver.pool_misses", "count"},
        {"hostapp.execute_host_s", "s"},
        {"hostapp.shard_launches", "count"},
        {"hostapp.host_us_per_launch", "us"},
        {"hostapp.round_sim_us", "sim_us"},
        {"hostapp.round_link_share", "ratio"},
        {"hostapp.slowest_shard_ratio", "ratio"},
        {"hostapp.involved_shards", "count"},
        {"hostapp.shard_occupancy", "ratio"},
        {"hostapp.prepare_rounds", "count"},
        {"hostapp.commit_rounds", "count"},
        {"hostapp.tx_commits", "count"},
        {"hostapp.tx_predicate_fails", "count"},
        {"hostapp.tx_conflict_retries", "count"},
        {"hostapp.serial_fallbacks", "count"},
        {"hostapp.deferred_ops", "count"},
        {"hostapp.bytes_down", "bytes"},
        {"hostapp.bytes_up", "bytes"},
        {"hostapp.moves", "count"},
        {"hostapp.moves_committed", "count"},
        {"backend.self_host_s", "s"},
        {"serving.self_host_s", "s"},
        {"serving.stream_host_s", "s"},
        {"serving.fleet_host_s", "s"},
        {"serving.search_host_s", "s"},
        {"serving.rounds", "count"},
        {"serving.mean_batch", "count"},
        {"serving.peak_queue", "count"},
        {"serving.shed", "count"},
        {"serving.drain_ms", "sim_ms"},
        {"serving.probes", "count"},
        {"serving.capacity_rps", "1/s"},
        {"serving.p50_ms.lo", "sim_ms"},
        {"serving.p99_ms.lo", "sim_ms"},
        {"serving.p99_ms.hi", "sim_ms"},
        {"serving.mean_ms.hi", "sim_ms"},
        {"serving.failed_frac", "ratio"},
        {"trace.host_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.slack_s", "s"},
        {"trace.spans", "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload stm_sweep|kv_read_mostly|"
                 "kv_cross_shard --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have[0] = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage("--seed expects a non-negative integer");
            have[1] = true;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0 && a.seconds <= 3600))
                usage("--seconds expects a number in (0, 3600]");
            have[2] = true;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            a.trace = v == "1";
            have[3] = true;
        } else {
            usage("unknown argument " + k);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("all four arguments are required");
    if (a.workload != "stm_sweep" && a.workload != "kv_read_mostly" &&
        a.workload != "kv_cross_shard")
        usage("unknown workload " + a.workload);
    return a;
}

void
printJson(const Result &r, const std::map<std::string, double> &values,
          const std::vector<MetricSpec> &specs)
{
    std::ostringstream o;
    o << std::setprecision(17);
    o << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &m : specs) {
        const auto it = values.find(m.name);
        // Layers a workload does not exercise report 0.
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0;
        o << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
          << v << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    o << "}}";
    std::cout << o.str() << std::endl;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args a = parseArgs(argc, argv);
    pimstm::util::ThreadPool::setGlobalJobs(1);
    // runWorkload applies the repo's allocator tuning on first use; the
    // KV workloads never call it. Apply it up front for every workload:
    // under glibc's dynamic mmap threshold, fleet set-up time depends on
    // the allocation history of the process.
    pimstm::util::tuneHostAllocator();
    try {
        const Result r =
            a.workload == "stm_sweep" ? runSweep(a) : runKv(a);
        if (a.trace)
            printJson(r, r.layer, layerMetrics());
        else
            printJson(r, r.e2e, kEndToEnd);
        return r.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
