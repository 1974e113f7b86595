/**
 * @file
 * Self-test of the benchmark's own helpers:
 *
 *   - percentile selection, including the ten-samples-beyond rule;
 *   - span self time (duration minus child coverage);
 *   - a corrupted output is counted as failed, not dropped, on every
 *     workload's real output path;
 *   - the workload seed reproduces identical inputs and an identical
 *     output hash, and another seed changes the inputs.
 *
 * Run: python3 perfbench/run.py --self-test   (exit 0 iff all pass)
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"
#include "ot/ferret_params.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(double(i));
    expect(percentile(v, 0.5) == 50, "p50 of 1..100 is 50 (nearest rank)");
    expect(percentile(v, 0.9) == 90, "p90 of 1..100 is 90");
    expect(percentile(v, 1.0) == 100, "p100 is the maximum");
    expect(percentile({}, 0.5) == 0, "empty input gives 0");
    expect(percentile({7}, 0.9) == 7, "one sample is every percentile");
    expect(samplesBeyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");
    expect(samplesBeyond(99, 0.9) == 9, "p90 of 99 has 9 beyond");
    expect(highestSupportedPercentile(19) == 0,
           "19 samples support no percentile");
    expect(highestSupportedPercentile(20) == 0.5, "20 samples support p50");
    expect(highestSupportedPercentile(99) == 0.5,
           "99 samples support p50 but not p90");
    expect(highestSupportedPercentile(100) == 0.9,
           "100 samples support p90");
    expect(highestSupportedPercentile(999) == 0.9,
           "999 samples do not support p99");
    expect(highestSupportedPercentile(1000) == 0.99,
           "1000 samples support p99");
    expect(highestSupportedPercentile(10000) == 0.999,
           "10000 samples support p99.9");
}

void
testSelfTime()
{
    // Root [0, 10] with children [1, 4] and [3, 6] (overlapping:
    // 5 s covered) and [8, 12] (clipped to [8, 10]: 2 s covered).
    const std::vector<SpanLog::Span> spans = {
        {"root", 0, 10, -1, 1},
        {"child", 1, 4, 0, 1},
        {"child", 3, 6, 0, 1},
        {"child", 8, 12, 0, 1},
    };
    const std::vector<double> self = SpanLog::selfTimesMs(spans);
    expect(std::abs(self[0] - 3000.0) < 1e-6,
           "self time = 10 s minus 7 s of merged, clipped child coverage");
    expect(std::abs(self[1] - 3000.0) < 1e-6,
           "a leaf's self time is its duration");

    SpanLog log;
    log.setEnabled(true);
    const int32_t root = log.begin("root", 1);
    log.add("child", 0, 0);
    const int32_t inner = log.begin("inner", 1);
    log.end(inner);
    log.end(root);
    const int32_t after = log.begin("after");
    log.end(after);
    expect(log.spans()[1].parent == root && log.spans()[2].parent == root,
           "spans parent to the innermost open span");
    expect(log.spans()[3].parent == -1, "a span after the root is a root");

    SpanLog off;
    expect(off.begin("x") == -1 && off.spans().empty(),
           "a disabled log records nothing");
}

void
testMismatchCounting()
{
    const std::vector<uint64_t> want = {digest({1, 2}), digest({3, 4}),
                                        digest({5})};
    expect(countMismatches(want, want) == 0, "identical outputs pass");
    auto bad = want;
    bad[1] = digest({3 ^ 1, 4});
    expect(countMismatches(bad, want) == 1, "a flipped bit is one failure");
    auto dropped = want;
    dropped.pop_back();
    expect(countMismatches(dropped, want) == 1,
           "a missing output counts as failed, not dropped");
}

RunConfig
smallRun(const std::string &workload, uint64_t seed, size_t calls)
{
    RunConfig c;
    c.workload = workload;
    c.seed = seed;
    c.fixedCalls = calls;
    c.bringUps = 1;
    c.smallParams = true;
    return c;
}

void
testWorkload(const std::string &workload, size_t calls,
             uint64_t ops_per_call)
{
    const RunResult a = runWorkload(smallRun(workload, 42, calls));
    expect(a.correct && a.failed == 0 &&
               a.attempted == calls * ops_per_call,
           workload + ": clean run is correct, every op attempted");
    const RunResult b = runWorkload(smallRun(workload, 42, calls));
    expect(a.inputHash == b.inputHash,
           workload + ": same seed gives identical inputs");
    expect(a.outputHash == b.outputHash && a.outputHash != 0,
           workload + ": same seed gives an identical output hash");
    const RunResult c = runWorkload(smallRun(workload, 43, calls));
    expect(c.inputHash != a.inputHash,
           workload + ": another seed gives other inputs");

    RunConfig corrupt = smallRun(workload, 42, calls);
    corrupt.corruptCall = 3;
    const RunResult d = runWorkload(corrupt);
    expect(!d.correct && d.failed == ops_per_call &&
               d.attempted == calls * ops_per_call,
           workload + ": a corrupted output is counted as failed");
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testMismatchCounting();
    // cot-bulk on the tiny set: one op per delivered correlation.
    testWorkload("cot-bulk", 6, ironman::ot::tinyTestParams().usableOts());
    testWorkload("infer-lan", 12, 1);
    testWorkload("infer-pipelined", 32, 1);
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures);
    return g_failures ? 1 : 0;
}
