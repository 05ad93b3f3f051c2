/**
 * @file
 * The benchmark's own measurement logic, kept free of fibers and
 * fleets so the self-tests can drive it directly:
 *  - steady-state judgement of one serving probe (warm-up and drain
 *    windows excluded, backlog detection),
 *  - the max-rate-under-SLO search built on that judgement,
 *  - span trees and per-span self time,
 *  - exact latencies replayed from runServing's dispatch clock.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <functional>
#include <string>
#include <vector>

#include "runtime/serving.hh"

namespace perfbench
{

using pimstm::u64;

//
// Steady-state serving judgement
//

/** How one probe is judged. */
struct SteadySpec
{
    double window_s = 4e-3;    ///< timeline window (ServingConfig)
    double slo_p99_s = 2e-3;   ///< p99 budget over the steady windows
    /** The backlog is growing when the last quarter of the steady
     * windows completes fewer than (1 - backlog_tolerance) x the
     * requests that arrived in it. */
    double backlog_tolerance = 0.10;
};

/** One served request as replayed by ClockReplay. */
struct Completion
{
    double done_s = 0;  ///< end of its round (simulated seconds)
    u64 latency_ns = 0; ///< arrival -> done, exactly as runServing
};

/** Verdict over the steady windows of one serving run. */
struct SteadyVerdict
{
    bool ok = false;      ///< SLO met, no shed, no growing backlog
    bool backlog = false; ///< last steady quarter fell behind
    unsigned windows = 0; ///< steady windows judged
    u64 arrived = 0;      ///< arrivals inside the steady windows
    u64 completed = 0;    ///< completions inside the steady windows
    u64 shed = 0;         ///< sheds inside the steady windows
    u64 p50_ns = 0;       ///< exact nearest-rank p50 of those completions
    u64 p99_ns = 0;       ///< exact nearest-rank p99 of those completions
    double tput_per_s = 0; ///< steady completions per simulated second
};

/** Arrivals per timeline window (index = floor(arrival / window)). */
std::vector<u64>
arrivalsPerWindow(const std::vector<pimstm::runtime::ServingRequest> &s,
                  double window_s);

/**
 * Judge @p rep over its steady windows: window 0 is warm-up, and every
 * window ending after @p last_arrival_s is drain. Shed and backlog come
 * from @p rep's timeline (one point per window: its ServingConfig used
 * spec.window_s and did not merge points); percentiles from the
 * @p done requests that completed inside the steady windows.
 */
SteadyVerdict judgeSteady(const pimstm::runtime::ServingReport &rep,
                          const std::vector<u64> &arrivals,
                          const std::vector<Completion> &done,
                          double last_arrival_s, const SteadySpec &spec);

/** Nearest-rank quantile of @p v (sorted in place); 0 when empty. */
u64 exactPercentile(std::vector<u64> &v, double q);

/**
 * Forwards to a ServingBackend and replays runServing's dispatch clock
 * from the rounds it is handed, recording each request's completion
 * time and exact end-to-end latency (runServing keeps only log2
 * buckets). A round is dispatched at max(end of the previous round,
 * T): T is the latest arrival in the round when a shard batch is full,
 * else the oldest arrival plus the batch budget. matches() checks the
 * replay against the harness's own histogram, bit for bit.
 */
class ClockReplay : public pimstm::runtime::ServingBackend
{
  public:
    ClockReplay(pimstm::runtime::ServingBackend &inner,
                const pimstm::runtime::ServingConfig &cfg);

    unsigned numShards() const override { return inner_.numShards(); }

    unsigned
    shardOf(const pimstm::runtime::ServingRequest &r) const override
    {
        return inner_.shardOf(r);
    }

    pimstm::runtime::RoundCost
    executeRound(const std::vector<std::vector<
                     pimstm::runtime::ServingRequest>> &batches) override;

    const std::vector<Completion> &completions() const { return done_; }

    /** True when the replayed latencies reproduce @p h exactly. */
    bool matches(const pimstm::core::LogHistogram &h) const;

  private:
    pimstm::runtime::ServingBackend &inner_;
    double budget_s_;
    size_t max_batch_;
    double clock_ = 0; ///< end of the previous round
    std::vector<Completion> done_;
};

//
// Capacity search
//

/** One probe of the search. */
struct ProbeRecord
{
    double rate_per_s = 0;
    bool ok = false;
};

struct CapacitySearch
{
    double capacity_per_s = 0; ///< highest passing rate (0: none)
    std::vector<ProbeRecord> probes;
};

/**
 * Highest rate at which @p ok holds, walking up from the first passing
 * rate at or below @p start (halving down from it while it fails, no
 * lower than @p min_rate) in steps of x @p ratio up to the first
 * failure (or @p max_rate), then bisecting that last step @p iters
 * times.
 */
CapacitySearch searchCapacity(const std::function<bool(double)> &ok,
                              double start, double min_rate,
                              double max_rate, double ratio,
                              unsigned iters);

//
// Spans
//

/** One timed call across a layer boundary (host seconds). */
struct Span
{
    int name = 0;     ///< index into the tracer's name table
    double start = 0;
    double end = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/** Self time of every span: its duration minus its children's. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Records spans around calls made on this thread. Disabled tracers
 * record nothing; Scope is then a no-op.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    int nameId(const std::string &name);
    const std::vector<std::string> &names() const { return names_; }
    const std::vector<Span> &spans() const { return spans_; }

    class Scope
    {
      public:
        Scope(Tracer &t, int name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_ = nullptr;
        int index_ = -1;
    };

  private:
    bool enabled_;
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    int open_ = -1; ///< innermost open span
};

/** Host seconds on a monotonic clock. */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
