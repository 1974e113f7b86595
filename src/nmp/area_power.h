/**
 * @file
 * Area, power and energy model of the Ironman-NMP processing unit.
 *
 * The primitive-core numbers are the paper's own synthesis results
 * (Table 2, 45 nm, Design Compiler): they are inputs to this model,
 * not measurements we can re-run without the ASIC flow. The SRAM
 * curve is a CACTI-flavoured linear fit anchored to the two
 * published full-PU points of Table 6 (1.482 mm^2 @ 256 KB,
 * 2.995 mm^2 @ 1 MB, with 4 ChaCha cores and 2 rank caches per PU).
 * DRAM access energies use typical DDR4 constants (CACTI-3DD class).
 */

#ifndef IRONMAN_NMP_AREA_POWER_H
#define IRONMAN_NMP_AREA_POWER_H

#include <cstdint>

namespace ironman::nmp {

/** Synthesized primitive core (Table 2). */
struct PrgCoreSpec
{
    const char *name;
    double areaMm2;
    double powerWatt;
    unsigned outputBits;   ///< per fully-pipelined invocation

    /** Blocks of 128 bits per invocation. */
    unsigned blocksPerOp() const { return outputBits / 128; }
};

/** ChaCha8: 512-bit output, 0.215 mm^2, 45.33 mW (Table 2/6). */
PrgCoreSpec chaCha8Core();

/** AES-128: 128-bit output, 0.233 mm^2, 35.05 mW (Table 2). */
PrgCoreSpec aes128Core();

/** SRAM macro area for a memory-side cache of @p bytes (mm^2). */
double sramAreaMm2(uint64_t bytes);

/** SRAM leakage+clock power for a cache of @p bytes (W). */
double sramPowerWatt(uint64_t bytes);

/** DRAM energy constants for the energy roll-up (J per event). */
struct DramEnergy
{
    double actEnergy = 1.7e-9;     ///< one ACT+PRE pair
    double readEnergy = 8.0e-9;    ///< one 64-byte read burst
    double writeEnergy = 9.0e-9;   ///< one 64-byte write burst
    double backgroundWatt = 0.35;  ///< per active rank
};

/** One Ironman-NMP PU (Fig. 9(a)): DIMM module + 2 rank modules. */
struct PuSpec
{
    unsigned chachaCores = 4;
    uint64_t cacheBytes = 256 * 1024; ///< per rank module
    unsigned rankModules = 2;

    /// Fixed DIMM-module logic (XOR tree, buffers, control).
    static constexpr double logicAreaMm2 = 0.10;
    static constexpr double logicPowerWatt = 1.0567;

    double areaMm2() const;
    double powerWatt() const;
};

/** Reference points for comparisons (Sec. 6.1 / Table 6). */
struct ReferencePlatforms
{
    static constexpr double gpuPowerWatt = 300.0;  ///< NVIDIA A6000
    static constexpr double cpuPowerWatt = 150.0;  ///< 24-core Xeon TDP
    static constexpr double dramChipAreaMm2 = 100.0;
    static constexpr double lrdimmPowerWatt = 10.0;
};

} // namespace ironman::nmp

#endif // IRONMAN_NMP_AREA_POWER_H
