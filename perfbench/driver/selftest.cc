/**
 * @file
 * Self-tests of the benchmark's own logic: span self-time arithmetic,
 * the steady-window judge and its backlog detector, exact
 * percentiles, the capacity search on a step function, and the search
 * plus the latency replay on a synthetic serving backend whose knee is
 * known in closed form.
 * Exit status 0 when every check holds.
 */

#include <cmath>
#include <iostream>

#include "probe.hh"

using namespace perfbench;
using namespace pimstm;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "selftest FAILED: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testSelfTimes()
{
    // root [0,10] > a [1,4], b [5,9] > c [6,7]
    const std::vector<Span> spans = {
        {0, 0, 10, -1}, {1, 1, 4, 0}, {1, 5, 9, 0}, {2, 6, 7, 2}};
    const auto self = selfTimes(spans);
    check(near(self[0], 3) && near(self[1], 3) && near(self[2], 3) &&
              near(self[3], 1),
          "span self time = duration minus direct children");
    double sum = 0;
    for (double s : self)
        sum += s;
    check(near(sum, 10), "self times add up to the root span");

    Tracer t(true);
    const int outer = t.nameId("outer");
    const int inner = t.nameId("inner");
    check(t.nameId("outer") == outer, "span names are interned");
    {
        Tracer::Scope o(t, outer);
        { Tracer::Scope i(t, inner); }
        { Tracer::Scope i(t, inner); }
    }
    { Tracer::Scope o(t, outer); }
    const auto &s = t.spans();
    check(s.size() == 4 && s[0].parent == -1 && s[1].parent == 0 &&
              s[2].parent == 0 && s[3].parent == -1,
          "nested scopes record their parent");
    check(s[1].start >= s[0].start && s[2].end <= s[0].end,
          "children lie inside their parent");

    Tracer off(false);
    { Tracer::Scope o(off, off.nameId("x")); }
    check(off.spans().empty(), "a disabled tracer records nothing");
}

/** A report whose window i (4 ms) completed done[i] and shed shed[i]. */
runtime::ServingReport
report(const std::vector<u64> &done, const std::vector<u64> &shed)
{
    runtime::ServingReport r;
    for (size_t i = 0; i < done.size(); ++i)
        r.timeline.push_back({(i + 1) * 4e-3, done[i], shed[i], 0});
    return r;
}

/** @p per_window completions in each of 11 windows, the first @p slow
 * of them (counted from window 0) taking 3 ms, the rest 0.5 ms. */
std::vector<Completion>
completions(u64 per_window, u64 slow)
{
    std::vector<Completion> c;
    for (u64 i = 0; i < 11 * per_window; ++i)
        c.push_back({(static_cast<double>(i / per_window) + 0.5) * 4e-3,
                     i < slow ? 3000000u : 500000u});
    return c;
}

void
testSteadyJudge()
{
    SteadySpec spec; // 4 ms windows, 2 ms SLO, 10% backlog tolerance
    const std::vector<u64> arrivals(10, 100);
    const double last = 39.9e-3; // windows 1..8 are steady
    const std::vector<u64> zero(11, 0);
    const std::vector<u64> even(11, 100);
    const auto fast = completions(100, 0);

    auto v = judgeSteady(report(even, zero), arrivals, fast, last, spec);
    check(v.ok && !v.backlog && v.windows == 8 && v.arrived == 800 &&
              v.completed == 800 && v.p99_ns == 500000,
          "keeping up over 8 steady windows passes");
    check(near(v.tput_per_s, 800 / (8 * 4e-3)),
          "steady throughput counts steady windows only");

    // The backlog test covers the last quarter of the 8 steady windows.
    std::vector<u64> behind = even;
    behind[7] = behind[8] = 85; // clearly behind: 170 of 200
    v = judgeSteady(report(behind, zero), arrivals, fast, last, spec);
    check(!v.ok && v.backlog, "a lagging last quarter is a backlog");

    behind[7] = 100;
    behind[8] = 75; // one lagging window inside a caught-up quarter
    v = judgeSteady(report(behind, zero), arrivals, fast, last, spec);
    check(!v.ok && v.backlog, "175 of 200 is still a backlog");

    behind[8] = 85; // 185 of 200: within the tolerance
    v = judgeSteady(report(behind, zero), arrivals, fast, last, spec);
    check(v.ok && !v.backlog, "a small lag is not a backlog");

    std::vector<u64> drain = even;
    drain[9] = 0; // the drain window is not judged
    drain[10] = 300;
    v = judgeSteady(report(drain, zero), arrivals, fast, last, spec);
    check(v.ok, "drain windows are excluded");

    std::vector<u64> shed = zero;
    shed[0] = 5; // warm-up shed is excluded
    v = judgeSteady(report(even, shed), arrivals, fast, last, spec);
    check(v.ok && v.shed == 0, "warm-up window is excluded");
    shed[4] = 1;
    v = judgeSteady(report(even, shed), arrivals, fast, last, spec);
    check(!v.ok && v.shed == 1, "a steady-window shed fails the probe");

    // Window 0 (warm-up) is all slow: excluded from the percentiles.
    v = judgeSteady(report(even, zero), arrivals, completions(100, 100),
                    last, spec);
    check(v.ok && v.p99_ns == 500000, "warm-up latencies are excluded");
    // 1% of the 800 steady completions slow: nearest rank 792 is fast.
    v = judgeSteady(report(even, zero), arrivals,
                    completions(100, 100 + 8), last, spec);
    check(v.ok && v.p99_ns == 500000, "p99 tolerates 1% slow requests");
    v = judgeSteady(report(even, zero), arrivals,
                    completions(100, 100 + 9), last, spec);
    check(!v.ok && v.p99_ns == 3000000, "p99 over the SLO fails the probe");

    v = judgeSteady(report({}, {}), arrivals, {}, 3e-3, spec);
    check(!v.ok && v.windows == 0, "a probe shorter than 2 windows fails");

    std::vector<u64> r = {5, 1, 4, 2, 3};
    check(exactPercentile(r, 0.5) == 3 && exactPercentile(r, 0.99) == 5 &&
              exactPercentile(r, 0.2) == 1,
          "nearest-rank percentiles");
}

void
testSearchStep()
{
    const double knee = 1234;
    auto step = [&](double r) { return r <= knee; };
    // From 1000: 1000 and 1125 pass, 1265.6 fails; three bisections of
    // that step leave 17.6 of uncertainty.
    auto res = searchCapacity(step, 1000, 1, 1e6, 1.125, 3);
    check(res.capacity_per_s <= knee && res.capacity_per_s > knee - 17.6,
          "search walks up, then bisects the failing step");
    check(res.probes.size() == 3 + 3, "probe count from below");
    res = searchCapacity(step, 5000, 1, 1e6, 1.125, 3);
    check(res.capacity_per_s <= knee && res.capacity_per_s > knee - 17.6,
          "search halves down first when the start fails");
    res = searchCapacity(step, 5000, 4000, 1e6, 1.125, 3);
    check(res.capacity_per_s == 0, "no passing rate above min_rate");
    res = searchCapacity(step, 1000, 1, 1100, 1.125, 3);
    check(res.capacity_per_s == 1000, "search stops at max_rate");
    // A passing pocket above the first failure is not the capacity.
    auto jagged = [](double r) { return r <= 1000 || (r > 1250 && r < 1300); };
    res = searchCapacity(jagged, 800, 1, 1e6, 1.125, 3);
    check(res.capacity_per_s <= 1000 && res.capacity_per_s > 980,
          "capacity is the top of the lowest passing stretch");
}

/**
 * Four shards; a round costs 50 us of launch plus 10 us per request
 * on its busiest shard. Full batches of 16 on every shard give the
 * saturation rate 64 / 210 us = 304.8k req/s; below it queues stay
 * short (p99 well under the 2 ms SLO), above it they fill and shed.
 */
class SyntheticBackend : public runtime::ServingBackend
{
  public:
    unsigned numShards() const override { return 4; }

    unsigned
    shardOf(const runtime::ServingRequest &r) const override
    {
        return r.key % 4;
    }

    runtime::RoundCost
    executeRound(const std::vector<std::vector<runtime::ServingRequest>>
                     &batches) override
    {
        runtime::RoundCost c;
        double worst = 0;
        for (const auto &b : batches) {
            c.shard_busy_seconds.push_back(10e-6 * b.size());
            worst = std::max(worst, c.shard_busy_seconds.back());
        }
        c.round_seconds = 50e-6 + worst;
        return c;
    }
};

void
testSearchSynthetic()
{
    const double knee = 64 / 210e-6;
    SteadySpec spec;
    auto probe = [&](double rate) {
        runtime::StreamConfig s;
        s.arrival.rate_per_s = rate;
        s.keys = 1024;
        s.zipf_theta = 0; // uniform: shards load evenly
        s.seed = 7;
        const auto stream = runtime::makeStream(
            s, static_cast<u64>(std::ceil(rate * 40e-3)));
        runtime::ServingConfig sc;
        sc.timeline_window_s = spec.window_s;
        sc.max_timeline_points = 1u << 20;
        SyntheticBackend b;
        ClockReplay replay(b, sc);
        const auto rep = runtime::runServing(replay, stream, sc);
        check(replay.matches(rep.e2e_ns),
              "replayed latencies reproduce runServing's histogram");
        return judgeSteady(rep, arrivalsPerWindow(stream, spec.window_s),
                           replay.completions(), stream.back().arrival_s,
                           spec)
            .ok;
    };
    const auto res = searchCapacity(probe, 150e3, 1e3, 1e7, 1.125, 3);
    check(res.capacity_per_s > 0.8 * knee && res.capacity_per_s <= knee,
          "synthetic knee found within 20% below saturation");
    check(probe(0.5 * knee) && !probe(1.2 * knee),
          "half the knee passes, 1.2x fails");
    std::cout << "synthetic knee " << knee << " req/s, found "
              << res.capacity_per_s << " in " << res.probes.size()
              << " probes\n";
}

} // namespace

int
main()
{
    testSelfTimes();
    testSteadyJudge();
    testSearchStep();
    testSearchSynthetic();
    if (failures) {
        std::cerr << failures << " selftest check(s) failed\n";
        return 1;
    }
    std::cout << "selftest: all checks passed\n";
    return 0;
}
