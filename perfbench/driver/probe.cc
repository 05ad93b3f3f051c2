#include "probe.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

namespace perfbench
{

std::vector<u64>
arrivalsPerWindow(const std::vector<pimstm::runtime::ServingRequest> &s,
                  double window_s)
{
    std::vector<u64> out;
    for (const auto &r : s) {
        const size_t w = static_cast<size_t>(r.arrival_s / window_s);
        if (w >= out.size())
            out.resize(w + 1, 0);
        ++out[w];
    }
    return out;
}

SteadyVerdict
judgeSteady(const pimstm::runtime::ServingReport &rep,
            const std::vector<u64> &arrivals,
            const std::vector<Completion> &done, double last_arrival_s,
            const SteadySpec &spec)
{
    // Timeline points are keyed by window end; windows without any
    // completion or shed are absent (zero).
    std::map<long long, const pimstm::runtime::TimelinePoint *> by_index;
    for (const auto &p : rep.timeline)
        by_index[std::llround(p.t_end_s / spec.window_s) - 1] = &p;

    SteadyVerdict v;
    const long long end =
        static_cast<long long>(last_arrival_s / spec.window_s);
    // The backlog test looks at the last quarter of the steady windows
    // (at least one): under bursty arrivals a single window can end
    // inside a burst and lag without any backlog building up.
    const long long tail_from = end - std::max(1LL, (end - 1) / 4);
    u64 last_arrived = 0;
    u64 last_completed = 0;
    for (long long i = 1; i < end; ++i) {
        const u64 arrived =
            static_cast<size_t>(i) < arrivals.size() ? arrivals[i] : 0;
        u64 completed = 0;
        const auto it = by_index.find(i);
        if (it != by_index.end()) {
            completed = it->second->completed;
            v.shed += it->second->shed;
        }
        ++v.windows;
        v.arrived += arrived;
        v.completed += completed;
        if (i >= tail_from) {
            last_arrived += arrived;
            last_completed += completed;
        }
    }
    if (v.windows == 0)
        return v;

    // The same window test as the timeline: floor(done / window).
    std::vector<u64> lat;
    for (const Completion &c : done) {
        const auto w = static_cast<long long>(c.done_s / spec.window_s);
        if (w >= 1 && w < end)
            lat.push_back(c.latency_ns);
    }
    v.p50_ns = exactPercentile(lat, 0.50);
    v.p99_ns = exactPercentile(lat, 0.99);
    v.backlog = static_cast<double>(last_completed) <
        (1.0 - spec.backlog_tolerance) * static_cast<double>(last_arrived);
    v.tput_per_s = static_cast<double>(v.completed) /
        (static_cast<double>(v.windows) * spec.window_s);
    v.ok = v.shed == 0 && !v.backlog &&
        static_cast<double>(v.p99_ns) <= spec.slo_p99_s * 1e9;
    return v;
}

u64
exactPercentile(std::vector<u64> &v, double q)
{
    if (v.empty())
        return 0;
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))));
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

ClockReplay::ClockReplay(pimstm::runtime::ServingBackend &inner,
                         const pimstm::runtime::ServingConfig &cfg)
    : inner_(inner), budget_s_(cfg.batch_budget_s),
      max_batch_(cfg.max_batch_per_shard)
{}

pimstm::runtime::RoundCost
ClockReplay::executeRound(
    const std::vector<std::vector<pimstm::runtime::ServingRequest>>
        &batches)
{
    bool full = false;
    double oldest = 1e300;
    double newest = 0;
    for (const auto &b : batches) {
        full = full || b.size() >= max_batch_;
        for (const auto &r : b) {
            oldest = std::min(oldest, r.arrival_s);
            newest = std::max(newest, r.arrival_s);
        }
    }
    const double dispatch =
        std::max(clock_, full ? newest : oldest + budget_s_);
    const auto cost = inner_.executeRound(batches);
    clock_ = dispatch + cost.round_seconds;
    for (const auto &b : batches) {
        for (const auto &r : b) {
            const double lat = clock_ - r.arrival_s;
            done_.push_back(
                {clock_, lat <= 0 ? 0
                                  : static_cast<u64>(std::llround(lat * 1e9))});
        }
    }
    return cost;
}

bool
ClockReplay::matches(const pimstm::core::LogHistogram &h) const
{
    pimstm::core::LogHistogram mine;
    for (const Completion &c : done_)
        mine.add(c.latency_ns);
    return mine.buckets == h.buckets && mine.count == h.count &&
        mine.sum == h.sum && mine.min == h.min && mine.max == h.max;
}

CapacitySearch
searchCapacity(const std::function<bool(double)> &ok, double start,
               double min_rate, double max_rate, double ratio,
               unsigned iters)
{
    CapacitySearch res;
    auto probe = [&](double rate) {
        const bool pass = ok(rate);
        res.probes.push_back({rate, pass});
        if (pass)
            res.capacity_per_s = std::max(res.capacity_per_s, rate);
        return pass;
    };

    // Find a passing rate at or below start.
    double good = start;
    while (!probe(good)) {
        good /= 2;
        if (good < min_rate)
            return res; // failed down to min_rate
    }
    // Walk up in small geometric steps to the first failure. Near the
    // knee pass/fail can be jagged in the rate (bursts line up
    // differently at each rate); walking up finds the top of the lowest
    // passing stretch, where a doubling bracket plus bisection would
    // land in whichever passing pocket it happened to hit.
    double bad = 0;
    for (double r = good * ratio; r <= max_rate; r *= ratio) {
        if (!probe(r)) {
            bad = r;
            break;
        }
        good = r;
    }
    if (bad == 0)
        return res; // held up to max_rate
    for (unsigned i = 0; i < iters; ++i) {
        const double mid = 0.5 * (good + bad);
        if (probe(mid))
            good = mid;
        else
            bad = mid;
    }
    return res;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    return self;
}

int
Tracer::nameId(const std::string &name)
{
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end())
        return static_cast<int>(it - names_.begin());
    names_.push_back(name);
    return static_cast<int>(names_.size() - 1);
}

Tracer::Scope::Scope(Tracer &t, int name)
{
    if (!t.enabled_)
        return;
    t_ = &t;
    index_ = static_cast<int>(t.spans_.size());
    t.spans_.push_back({name, nowSeconds(), 0.0, t.open_});
    t.open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    Span &s = t_->spans_[index_];
    s.end = nowSeconds();
    t_->open_ = s.parent;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
