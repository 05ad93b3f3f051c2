/**
 * @file
 * Shared pieces of the benchmark driver: command-line arguments, the
 * metric record every workload fills, simulated-state fingerprints for
 * the determinism check, and small statistics helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "probe.hh"
#include "util/types.hh"

namespace perfbench
{

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    /** name -> value; units come from the metric tables in main.cc. */
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
};

/** FNV-1a over the bytes of trivially copyable values. */
class Fingerprint
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename... T>
    void
    mix(const T &...v)
    {
        (add(v), ...);
    }

    u64 value() const { return h_; }

  private:
    u64 h_ = 0xcbf29ce484222325ULL;
};

/**
 * Sum over units of each unit's fastest time across passes
 * (times[pass][unit]). The work is identical in every pass and
 * interference from other processes only ever slows a unit down, so
 * the per-unit minimum is the steadiest estimate of its cost.
 */
double sumOfMins(const std::vector<std::vector<double>> &times);

/** Geometric mean of the positive entries of @p v (0 when none). */
double geomean(const std::vector<double> &v);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Lower-case metric-name form of a display name ("VR CTLWB" ->
 * "vr_ctlwb", "KMeans HC" -> "kmeans_hc"). */
std::string slug(const std::string &s);

Result runSweep(const Args &a);
Result runKv(const Args &a);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
