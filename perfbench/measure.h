/**
 * @file
 * Measurement helpers of the benchmark: percentile selection, process
 * CPU / context-switch / host-steal sampling around a timed phase, the
 * machine fingerprint, and the run-level metric record.
 */

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock (arbitrary origin). */
double nowSeconds();

/**
 * Nearest-rank percentile of @p samples (unsorted; copied), q in
 * (0, 1]. 0 for an empty input.
 */
double percentile(std::vector<double> samples, double q);

/** Samples strictly beyond the nearest-rank q-percentile of n. */
size_t samplesBeyond(size_t n, double q);

/**
 * The highest of p50 / p90 / p99 / p99.9 that has at least ten
 * samples beyond it among @p n; 0 when even the median has fewer.
 */
double highestSupportedPercentile(size_t n);

/** Median of @p samples (nearest rank). */
inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Process counters at one instant (all threads of this process). */
struct ProcessSample
{
    double wallS = 0;        ///< steady clock
    double cpuS = 0;         ///< user + sys CPU time
    uint64_t nivcsw = 0;     ///< involuntary context switches
    uint64_t stealTicks = 0; ///< host /proc/stat steal (all CPUs)
    uint64_t totalTicks = 0; ///< host /proc/stat total (all CPUs)

    static ProcessSample now();
};

/** Counter deltas over one timed phase. */
struct PhaseCost
{
    double wallS = 0;
    double cpuS = 0;
    uint64_t nivcsw = 0;
    uint64_t stealTicks = 0; ///< host steal, /proc/stat ticks (all CPUs)
    double stealPct = 0;     ///< host steal share of all CPU ticks

    static PhaseCost between(const ProcessSample &a,
                             const ProcessSample &b);
};

/** Peak resident set of this process so far, MiB. */
double peakRssMiB();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Run fingerprint: CPU model, online CPUs, the LPN kernel the engine
 * dispatches to, and the frequency governor when readable.
 */
std::vector<std::pair<std::string, std::string>> fingerprint();

/** JSON string literal of @p s (quotes and escapes). */
std::string jsonString(const std::string &s);

/** Shortest round-trip text of a finite double (JSON number). */
std::string jsonNumber(double v);

/** 64-bit FNV-1a over @p n bytes, continuing from @p h. */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 1469598103934665603ULL);

/** splitmix64: derives independent stream seeds from one seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
