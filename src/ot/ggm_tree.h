/**
 * @file
 * GGM puncturable-PRF trees with mixed-radix m-ary expansion.
 *
 * The sender expands a seed level by level; at every level it records,
 * for each child-slot residue c, the XOR of all nodes occupying slot c
 * (the K^i_c "keys" of Sec. 2.3.1 / Fig. 3(b), generalized from
 * even/odd to m residues). The receiver, holding for each level all
 * sums except the one at its punctured digit, reconstructs every leaf
 * except the one at index alpha.
 *
 * Tree shapes are mixed-radix: a leaf count of 8192 with target arity
 * 4 becomes level arities [2, 4, 4, 4, 4, 4, 4]. This is how the
 * paper's Table 4 trees (l = 8192, 4-ary) are realizable.
 *
 * The entry points are span-based and allocation-free: callers
 * provide the output leaf span, a flattened level-sum span described
 * by GgmSumLayout, and a reusable GgmScratch.
 */

#ifndef IRONMAN_OT_GGM_TREE_H
#define IRONMAN_OT_GGM_TREE_H

#include <cstdint>
#include <vector>

#include "common/block.h"
#include "crypto/prg.h"
#include "crypto/seed_expander.h"

namespace ironman::ot {

/**
 * Per-level arities for a tree with @p leaves leaves (power of two)
 * and target arity @p m (power of two, >= 2). Lower-arity levels, if
 * any, are placed at the top so the wide levels get the bulk of the
 * nodes.
 */
std::vector<unsigned> treeArities(size_t leaves, unsigned m);

/** Digits of @p alpha in the mixed radix of @p arities (MSD first). */
std::vector<unsigned> alphaDigits(size_t alpha,
                                  const std::vector<unsigned> &arities);

/** Same, writing into caller storage (arities.size() entries). */
void alphaDigitsInto(size_t alpha, const std::vector<unsigned> &arities,
                     unsigned *digits);

/**
 * Flattened storage layout of the per-level slot sums: level i's
 * arities[i] sums live at [offset[i], offset[i] + arities[i]).
 *
 * A layout may keep only a prefix [0, width) of the leaves (a
 * truncated tree, for a domain that is not a power of two). Level i
 * then expands only the kept[i-1] nodes whose subtrees reach a kept
 * leaf, keeps the first kept[i] = ceil(width / product of the arities
 * below level i) children, and its slot sums cover only those. Kept
 * nodes are the same GGM nodes as in the full tree, and every path to
 * a kept leaf stays inside the kept prefix, so a puncture at
 * alpha < width works unchanged. The default width is the full tree.
 */
struct GgmSumLayout
{
    std::vector<unsigned> arities; ///< per-level arities (MSD first)
    std::vector<uint32_t> offset;  ///< per-level start into the flat span
    std::vector<size_t> kept;      ///< per level: children kept per tree
    size_t leaves = 0;             ///< product of arities (full tree)
    size_t width = 0;              ///< kept leaves: the prefix [0, width)
    size_t total = 0;              ///< flat span length (sum of arities)

    /** Full tree: width == leaves. */
    static GgmSumLayout of(const std::vector<unsigned> &arities);

    /** Tree truncated to its first @p width leaves (1..leaves). */
    static GgmSumLayout of(const std::vector<unsigned> &arities,
                           size_t width);

    /** Parents level @p lvl expands per tree (kept nodes above it). */
    size_t parents(size_t lvl) const { return lvl ? kept[lvl - 1] : 1; }

    /** PRG children one tree's expansion produces over all levels. */
    size_t expandedNodes() const;
};

/**
 * Reusable scratch for allocation-free expansion/reconstruction.
 * Buffers grow on demand and are retained, so steady-state use
 * performs no heap allocation. One instance per thread.
 */
struct GgmScratch
{
    std::vector<Block> ping;     ///< level ping-pong buffer
    std::vector<Block> pong;     ///< level ping-pong buffer
    std::vector<Block> parents;  ///< reconstruction: packed known parents
    std::vector<Block> children; ///< reconstruction: their children
    std::vector<Block> acc;      ///< reconstruction: per-slot partial sums

    /** Pre-size every buffer for trees up to @p leaves leaves. */
    void reserve(size_t leaves, unsigned max_arity);
};

/**
 * Expand @p seed through the levels of @p layout (a full-width
 * layout; the per-tree reference of the batch paths).
 *
 * @param leaves Receives layout.leaves blocks (the tree leaves).
 * @param level_sums Receives layout.total blocks (the flattened K keys).
 * @param leaf_sum Receives the XOR of all leaves.
 */
void ggmExpandInto(crypto::SeedExpander &prg, const Block &seed,
                   const GgmSumLayout &layout, GgmScratch &scratch,
                   Block *leaves, Block *level_sums, Block *leaf_sum);

/**
 * Reconstruct all leaves except @p alpha into @p leaves
 * (layout.leaves blocks; the entry at alpha is set to zero). Full-width
 * layouts only, like ggmExpandInto().
 *
 * @param known_sums Flat span per @p layout; the entry at level i's
 *        punctured digit is ignored.
 */
void ggmReconstructInto(crypto::SeedExpander &prg, size_t alpha,
                        const GgmSumLayout &layout, const Block *known_sums,
                        GgmScratch &scratch, Block *leaves);

/**
 * Reusable scratch of the level-synchronous cross-tree batch path:
 * ping-pong matrices holding ALL trees' level-i nodes lane-contiguous
 * (tree-major), so each level of the whole batch is ONE SeedExpander
 * call. Grow-only; one instance per thread.
 */
struct GgmBatchScratch
{
    std::vector<Block> ping;      ///< cross-tree level matrix
    std::vector<Block> pong;      ///< cross-tree level matrix
    std::vector<Block> seeds;     ///< gathered/zero root seeds
    std::vector<Block> acc;       ///< per-slot partial sums (max arity)
    std::vector<Block> tail;      ///< one overshooting parent's children
    std::vector<unsigned> digits; ///< reconstruction: trees x levels
    std::vector<size_t> holes;    ///< reconstruction: per-tree hole path

    /**
     * Pre-size for @p trees trees of @p layout whose leaves are
     * written @p leaf_stride blocks apart (the stride decides whether
     * the last level is staged in the matrices; see
     * ggmExpandBatchInto()).
     */
    void reserve(size_t trees, const GgmSumLayout &layout,
                 size_t leaf_stride);
};

/**
 * Level-synchronous expansion of @p num_trees trees through @p layout:
 * every inner level of the whole batch is ONE prg.expand() call over
 * the lane-contiguous cross-tree node matrix (seed i's children land
 * at i*m..i*m+m-1, so tree-major stays tree-major; a truncated layout
 * then compacts each tree to its kept prefix). Tree tr's layout.width
 * kept leaves go to leaves + tr*leaf_stride (leaf_stride >= width),
 * and nothing is written outside that range. The last level is
 * written:
 *   - by one batched call straight into @p leaves when each tree's
 *     children exactly fill leaf_stride (full trees at stride leaves);
 *   - per tree straight into its range when each tree has at least a
 *     SIMD batch of parents, the one parent that overshoots the width
 *     going through a small stage (truncated engine trees);
 *   - otherwise staged in the matrices and copied (the m-leaf mini
 *     trees of the (m-1)-out-of-m OTs).
 * Leaves are bit-identical to the first width leaves of
 * ggmExpandInto() per tree.
 *
 * @param level_sums Tree tr's layout.total slot sums (over kept nodes)
 *        at level_sums + tr*sums_stride.
 * @param leaf_sums Receives each tree's XOR of kept leaves (num_trees
 *        entries); may be nullptr.
 */
void ggmExpandBatchInto(crypto::SeedExpander &prg, const Block *seeds,
                        size_t num_trees, const GgmSumLayout &layout,
                        GgmBatchScratch &scratch, Block *leaves,
                        size_t leaf_stride, Block *level_sums,
                        size_t sums_stride, Block *leaf_sums);

/**
 * Level-synchronous reconstruction of @p num_trees punctured trees
 * (alphas[tr] < layout.width): one prg.expand() call per inner level
 * over the cross-tree matrix (the punctured node of each tree rides
 * along as a zero seed whose children are discarded and recovered
 * from the known sums, so no parent packing/unpacking pass is
 * needed). Tree tr's known sums are read at known_sums +
 * tr*sums_stride and its kept leaves written at leaves +
 * tr*leaf_stride with the entry at alpha zero, through the same
 * last-level writers as ggmExpandBatchInto(). Bit-identical on the
 * kept leaves to ggmReconstructInto() per tree.
 */
void ggmReconstructBatchInto(crypto::SeedExpander &prg,
                             const size_t *alphas, size_t num_trees,
                             const GgmSumLayout &layout,
                             const Block *known_sums, size_t sums_stride,
                             GgmBatchScratch &scratch, Block *leaves,
                             size_t leaf_stride);

} // namespace ironman::ot

#endif // IRONMAN_OT_GGM_TREE_H
