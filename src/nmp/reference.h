/**
 * @file
 * Reference platforms Ironman is compared against in Sec. 6:
 *
 *  - the CPU baseline (Ferret on a 24-core Xeon): measured by actually
 *    running this repository's software protocol on the host, plus
 *    the paper's published per-execution numbers for cross-checking;
 *  - the GPU implementation (NVIDIA A6000): an analytic model
 *    fitted to the paper's reported 5.88x-over-CPU throughput and
 *    44.1% / 50.2% SPCOT/LPN breakdown (we have no GPU — see the
 *    substitution table in DESIGN.md).
 */

#ifndef IRONMAN_NMP_REFERENCE_H
#define IRONMAN_NMP_REFERENCE_H

#include <cstdint>

#include "net/two_party.h"
#include "ot/ferret_params.h"

namespace ironman::nmp {

/** Measured software-OTE execution on the host CPU. */
struct CpuOteMeasurement
{
    double secondsPerExec = 0;   ///< wall time per extension
    double spcotSeconds = 0;     ///< sender-side SPCOT share
    double lpnSeconds = 0;       ///< sender-side LPN share
    double initSeconds = 0;      ///< base-COT setup (excluded, reported)
    uint64_t usableOts = 0;
    uint64_t wireBytes = 0;
    uint64_t spcotPrgOps = 0;    ///< sender PRG invocations (Fig. 7(a))

    double
    otsPerSecond() const
    {
        return secondsPerExec > 0 ? usableOts / secondsPerExec : 0;
    }
};

/**
 * Run @p executions real extensions of the software protocol (both
 * parties on this host) and return per-execution averages.
 *
 * @param threads Worker threads for each party's local LPN encode.
 */
CpuOteMeasurement measureCpuOte(const ot::FerretParams &params,
                                int threads, int executions = 1);

/**
 * The paper's Xeon-5220R per-execution latency (read off Fig. 1(b)),
 * for side-by-side reporting.
 */
double paperCpuSecondsPerExec(const ot::FerretParams &params);

/** Analytic A6000 model (Sec. 6.1). */
struct GpuReference
{
    static constexpr double speedupOverCpu = 5.88;
    static constexpr double spcotFraction = 0.441;
    static constexpr double lpnFraction = 0.502;

    /** GPU seconds per execution, given a CPU baseline. */
    static double
    secondsPerExec(double cpu_seconds)
    {
        return cpu_seconds / speedupOverCpu;
    }
};

} // namespace ironman::nmp

#endif // IRONMAN_NMP_REFERENCE_H
