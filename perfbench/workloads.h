/**
 * @file
 * The benchmark's three workloads, each a closed loop from one client
 * session in this process against loopback servers, driven through
 * the stack's public calls only:
 *
 *   cot-bulk         Receiver svc::CotClient, back-to-back extendRecv
 *                    on the Table-4 2^20 set, 2 engine threads per
 *                    party; every extension's sampled correlations are
 *                    checked against the server half (t = q ^ b*delta).
 *   infer-lan        mlp-16x8x4 @ width 32, batch-1 depth-1 requests,
 *                    Engine supply on the tiny set, 150 us simulated
 *                    one-way delay per turnaround (the repo's LAN model).
 *   infer-pipelined  the same model on plain loopback, streaming depth-8
 *                    window kept full, Reservoir supply from an attached
 *                    svc::CotServer + svc::OperatorStock.
 *
 * Inference outputs are checked bit for bit against
 * ppml::runLocalMlpInference over the same request sequence (grouped
 * per depth-8 commit for the pipelined window).
 *
 * Set-up (dial, handshake, engine/reservoir construction and a fixed
 * warm-up) is repeated several times per run on fresh servers and
 * reported as its median; the timed phase starts after the last
 * bring-up and excludes all of it.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 16;
    /**
     * Traced run: the timed phase is split into an untraced and a
     * traced half (their difference is the tracing overhead), then the
     * per-layer probes run. Reports the per-layer metrics.
     */
    bool trace = false;
    std::string outDir; ///< traced run's table and Chrome trace; "" = none

    // -- self-test knobs (not exposed on the command line) -------------
    size_t fixedCalls = 0;   ///< > 0: exactly this many timed calls
    size_t bringUps = 0;     ///< > 0: override the set-up repetitions
    bool smallParams = false; ///< cot-bulk on the tiny set
    int64_t corruptCall = -1; ///< corrupt this timed call's served output
};

struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd; ///< untraced timed phase
    std::vector<Metric> perLayer; ///< traced run only
    std::vector<std::pair<std::string, std::string>> diagnostics;
    uint64_t inputHash = 0;  ///< the generated inputs
    uint64_t outputHash = 0; ///< the checked outputs, in order
};

/** Names accepted by runWorkload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::invalid_argument on an unknown name. */
RunResult runWorkload(const RunConfig &cfg);

/** Digest of one request's outputs (what the checks compare). */
uint64_t digest(const std::vector<int64_t> &outputs);

/**
 * Requests whose served output digest differs from the expected one; a
 * missing or extra request counts as a mismatch, never as dropped.
 */
size_t countMismatches(const std::vector<uint64_t> &served,
                       const std::vector<uint64_t> &expected);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
