/**
 * @file
 * Comparison-circuit mode of the GMW DReLU and its cost model.
 *
 * Both SecureCompute (the protocol) and MlpModelSpec (reservoir
 * sizing, the estimator) need the per-mode AND-gate and round counts,
 * so the enum and the closed-form cost helpers live in this tiny
 * header instead of dragging secure_compute.h into model_zoo.h. The
 * inference service always runs the ladder.
 *
 * The trade (DESIGN.md round-complexity table): the Kogge–Stone
 * ladder pays ~4x the AND-gate COTs (offline, reservoir-refillable)
 * to collapse the carry chain from width-1 sequential AND rounds to
 * ceil(log2(width-1)) — the difference between ~33 and ~7 dependent
 * round trips per width-32 ReLU layer group.
 */

#ifndef IRONMAN_PPML_CMP_MODE_H
#define IRONMAN_PPML_CMP_MODE_H

#include <cstdint>

namespace ironman::ppml {

/** How SecureCompute::drelu computes the carry into the sign bit. */
enum class CmpMode : uint8_t
{
    /**
     * Sequential ripple: one batched generate pre-round, then one
     * AND round per bit position. (width-1)+1 rounds, 2(width-1)
     * AND gates per element. The in-process reference.
     */
    Ripple = 0,
    /**
     * Kogge–Stone carry-prefix ladder: all (generate, propagate)
     * pairs in one batched AND round, then ceil(log2(width-1))
     * combine levels, each ONE batched AND over every position and
     * element. The default.
     */
    Ladder = 1,
};

inline const char *
cmpModeName(CmpMode m)
{
    return m == CmpMode::Ladder ? "ladder" : "ripple";
}

/**
 * AND gates one DReLU element consumes at @p width (each gate is one
 * COT per direction). Ripple: generate + carry AND per position.
 * Ladder: m generates, then per combine level both G' = G ^ (P & G_lo)
 * and P' = P & P_lo for the m-d updated positions — except the last
 * level, which only needs the final carry G_{m-1}.
 */
inline uint64_t
dreluAndGates(unsigned width, CmpMode mode)
{
    const uint64_t m = width - 1; // carry positions below the sign bit
    if (mode == CmpMode::Ripple)
        return 2 * m;
    uint64_t gates = m;
    for (uint64_t d = 1; d < m; d <<= 1)
        gates += (2 * d >= m) ? 1 : 2 * (m - d);
    return gates;
}

/** Sequential AND rounds (batched interactions) one DReLU costs. */
inline unsigned
dreluRounds(unsigned width, CmpMode mode)
{
    const unsigned m = width - 1;
    if (mode == CmpMode::Ripple)
        return 1 + m; // generate pre-round + one carry AND per position
    unsigned levels = 0;
    for (unsigned d = 1; d < m; d <<= 1)
        ++levels;
    return 1 + levels; // generate round + ceil(log2(m)) combine levels
}

/** DReLU + the MUX round: the per-ReLU-layer interaction count. */
inline unsigned
reluRounds(unsigned width, CmpMode mode)
{
    return dreluRounds(width, mode) + 1;
}

} // namespace ironman::ppml

#endif // IRONMAN_PPML_CMP_MODE_H
