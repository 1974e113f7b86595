#include "ot/ggm_tree.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace ironman::ot {

std::vector<unsigned>
treeArities(size_t leaves, unsigned m)
{
    IRONMAN_CHECK(leaves >= 2 && std::has_single_bit(leaves),
                  "leaf count must be a power of two");
    IRONMAN_CHECK(m >= 2 && std::has_single_bit(uint64_t(m)),
                  "arity must be a power of two");

    unsigned total_bits = std::countr_zero(leaves);
    unsigned m_bits = std::countr_zero(uint64_t(m));

    std::vector<unsigned> arities;
    unsigned rem = total_bits % m_bits;
    if (rem)
        arities.push_back(1u << rem);
    for (unsigned i = 0; i < total_bits / m_bits; ++i)
        arities.push_back(m);
    return arities;
}

void
alphaDigitsInto(size_t alpha, const std::vector<unsigned> &arities,
                unsigned *digits)
{
    size_t leaves = 1;
    for (unsigned a : arities)
        leaves *= a;
    IRONMAN_CHECK(alpha < leaves);

    for (size_t i = arities.size(); i-- > 0;) {
        digits[i] = unsigned(alpha % arities[i]);
        alpha /= arities[i];
    }
}

std::vector<unsigned>
alphaDigits(size_t alpha, const std::vector<unsigned> &arities)
{
    std::vector<unsigned> digits(arities.size());
    alphaDigitsInto(alpha, arities, digits.data());
    return digits;
}

GgmSumLayout
GgmSumLayout::of(const std::vector<unsigned> &arities)
{
    size_t leaves = 1;
    for (unsigned m : arities)
        leaves *= m;
    return of(arities, leaves);
}

GgmSumLayout
GgmSumLayout::of(const std::vector<unsigned> &arities, size_t width)
{
    GgmSumLayout layout;
    layout.arities = arities;
    layout.offset.reserve(arities.size());
    layout.leaves = 1;
    for (unsigned m : arities) {
        layout.offset.push_back(uint32_t(layout.total));
        layout.total += m;
        layout.leaves *= m;
    }
    IRONMAN_CHECK(width >= 1 && width <= layout.leaves,
                  "kept width must be in [1, leaves]");
    layout.width = width;

    // Level i keeps the nodes whose subtrees reach a kept leaf.
    layout.kept.resize(arities.size());
    size_t below = 1;
    for (size_t lvl = arities.size(); lvl-- > 0;) {
        layout.kept[lvl] = (width + below - 1) / below;
        below *= arities[lvl];
    }
    return layout;
}

size_t
GgmSumLayout::expandedNodes() const
{
    size_t nodes = 0;
    for (size_t lvl = 0; lvl < arities.size(); ++lvl)
        nodes += parents(lvl) * arities[lvl];
    return nodes;
}

void
GgmScratch::reserve(size_t leaves, unsigned max_arity)
{
    // Intermediate levels hold at most leaves/2 nodes (the last level
    // is written straight into the caller's span), but reconstruction
    // packs up to a full level of children.
    if (ping.size() < leaves)
        ping.resize(leaves);
    if (pong.size() < leaves)
        pong.resize(leaves);
    if (parents.size() < leaves)
        parents.resize(leaves);
    if (children.size() < leaves)
        children.resize(leaves);
    if (acc.size() < max_arity)
        acc.resize(max_arity);
}

void
ggmExpandInto(crypto::SeedExpander &prg, const Block &seed,
              const GgmSumLayout &layout, GgmScratch &scratch,
              Block *leaves, Block *level_sums, Block *leaf_sum)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && layout.width == layout.leaves,
                  "the single-tree path expands full trees");
    unsigned max_arity = *std::max_element(layout.arities.begin(),
                                           layout.arities.end());
    scratch.reserve(layout.leaves, max_arity);

    Block *cur = scratch.ping.data();
    cur[0] = seed;
    size_t count = 1;

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        Block *next = lvl + 1 == num_levels
                          ? leaves
                          : (cur == scratch.ping.data()
                                 ? scratch.pong.data()
                                 : scratch.ping.data());
        prg.expand(cur, next, count, m);

        Block *sums = level_sums + layout.offset[lvl];
        std::fill(sums, sums + m, Block::zero());
        for (size_t j = 0; j < count; ++j)
            for (unsigned c = 0; c < m; ++c)
                sums[c] ^= next[j * m + c];

        cur = next;
        count *= m;
    }

    Block total = Block::zero();
    for (size_t j = 0; j < layout.leaves; ++j)
        total ^= leaves[j];
    *leaf_sum = total;
}

namespace {

/**
 * Fewest parents per tree for which the last level is expanded per
 * tree: one AVX2 pass of the ChaCha core takes 8 seeds, so smaller
 * trees (the 2-parent mini levels) stay on one cross-tree call and
 * are staged instead.
 */
constexpr size_t kPerTreeMinParents = 8;

enum class LastLevel
{
    Direct,  ///< one batched call straight into the leaf span
    PerTree, ///< per-tree calls into the leaf span, overshoot staged
    Staged,  ///< one batched call into the matrix, then copied
};

LastLevel
lastLevelOf(const GgmSumLayout &layout, size_t leaf_stride)
{
    const size_t lvl = layout.arities.size() - 1;
    const size_t parents = layout.parents(lvl);
    if (leaf_stride == parents * layout.arities[lvl])
        return LastLevel::Direct;
    return parents >= kPerTreeMinParents ? LastLevel::PerTree
                                         : LastLevel::Staged;
}

/** sums[c] = XOR of nodes[j] over j < count with j % m == c. */
void
slotSums(const Block *nodes, size_t count, unsigned m, Block *sums)
{
    std::fill(sums, sums + m, Block::zero());
    size_t j = 0;
    for (; j + m <= count; j += m)
        for (unsigned c = 0; c < m; ++c)
            sums[c] ^= nodes[j + c];
    for (unsigned c = 0; j + c < count; ++c)
        sums[c] ^= nodes[j + c];
}

/** Kept children of a level: tree tr's at base + tr*stride. */
struct LevelNodes
{
    Block *base;
    size_t stride;
};

/**
 * Expand level @p lvl of every tree from the tree-major parents in
 * @p cur (layout.parents(lvl) per tree) and place each tree's
 * layout.kept[lvl] children: compacted tree-major into @p next for an
 * inner level, at leaves + tr*leaf_stride for the last one.
 */
LevelNodes
expandLevel(crypto::SeedExpander &prg, const GgmSumLayout &layout,
            size_t lvl, const Block *cur, size_t num_trees,
            GgmBatchScratch &scratch, Block *next, Block *leaves,
            size_t leaf_stride)
{
    const unsigned m = layout.arities[lvl];
    const size_t parents = layout.parents(lvl);
    const size_t kids = parents * m;
    const size_t keep = layout.kept[lvl];

    if (lvl + 1 < layout.arities.size()) {
        // ONE expander call covers this level of every tree: the
        // tree-major matrix is self-preserving under expansion.
        prg.expand(cur, next, num_trees * parents, m);
        // Drop each tree's children past its kept prefix, so the
        // matrix stays contiguous for the next level's single call.
        if (keep < kids)
            for (size_t tr = 1; tr < num_trees; ++tr)
                std::copy_n(next + tr * kids, keep, next + tr * keep);
        return {next, keep};
    }

    switch (lastLevelOf(layout, leaf_stride)) {
      case LastLevel::Direct:
        prg.expand(cur, leaves, num_trees * parents, m);
        break;
      case LastLevel::PerTree: {
        // Whole parents write straight into the tree's own range; the
        // one parent straddling the width writes to the stage, and
        // only its kept children are copied out.
        const size_t whole = keep / m;
        for (size_t tr = 0; tr < num_trees; ++tr) {
            Block *out = leaves + tr * leaf_stride;
            prg.expand(cur + tr * parents, out, whole, m);
            if (whole < parents) {
                prg.expand(cur + tr * parents + whole,
                           scratch.tail.data(), 1, m);
                std::copy_n(scratch.tail.data(), keep - whole * m,
                            out + whole * m);
            }
        }
        break;
      }
      case LastLevel::Staged:
        prg.expand(cur, next, num_trees * parents, m);
        for (size_t tr = 0; tr < num_trees; ++tr)
            std::copy_n(next + tr * kids, keep, leaves + tr * leaf_stride);
        break;
    }
    return {leaves, leaf_stride};
}

} // namespace

void
GgmBatchScratch::reserve(size_t trees, const GgmSumLayout &layout,
                         size_t leaf_stride)
{
    const size_t num_levels = layout.arities.size();
    // The matrices hold a level's uncompacted children: every inner
    // level, plus the last one when it is staged.
    size_t cap = 1;
    for (size_t lvl = 0; lvl + 1 < num_levels; ++lvl)
        cap = std::max(cap, layout.parents(lvl) * layout.arities[lvl]);
    if (lastLevelOf(layout, leaf_stride) == LastLevel::Staged)
        cap = std::max(cap, layout.parents(num_levels - 1) *
                                layout.arities.back());
    const unsigned max_arity = *std::max_element(layout.arities.begin(),
                                                 layout.arities.end());
    if (ping.size() < trees * cap)
        ping.resize(trees * cap);
    if (pong.size() < trees * cap)
        pong.resize(trees * cap);
    if (seeds.size() < trees)
        seeds.resize(trees);
    if (acc.size() < max_arity)
        acc.resize(max_arity);
    if (tail.size() < max_arity)
        tail.resize(max_arity);
    if (digits.size() < trees * num_levels)
        digits.resize(trees * num_levels);
    if (holes.size() < trees)
        holes.resize(trees);
}

void
ggmExpandBatchInto(crypto::SeedExpander &prg, const Block *seeds,
                   size_t num_trees, const GgmSumLayout &layout,
                   GgmBatchScratch &scratch, Block *leaves,
                   size_t leaf_stride, Block *level_sums,
                   size_t sums_stride, Block *leaf_sums)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && num_trees >= 1 &&
                  leaf_stride >= layout.width);
    scratch.reserve(num_trees, layout, leaf_stride);

    std::copy(seeds, seeds + num_trees, scratch.seeds.data());
    const Block *cur = scratch.seeds.data();
    Block *pa = scratch.ping.data();
    Block *pb = scratch.pong.data();

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const LevelNodes kids =
            expandLevel(prg, layout, lvl, cur, num_trees, scratch,
                        cur == pa ? pb : pa, leaves, leaf_stride);
        for (size_t tr = 0; tr < num_trees; ++tr)
            slotSums(kids.base + tr * kids.stride, layout.kept[lvl], m,
                     level_sums + tr * sums_stride + layout.offset[lvl]);
        cur = kids.base;
    }

    // XOR of a tree's kept leaves == XOR of its last-level slot sums.
    if (leaf_sums) {
        const size_t last = num_levels - 1;
        const unsigned m = layout.arities[last];
        for (size_t tr = 0; tr < num_trees; ++tr) {
            const Block *sums =
                level_sums + tr * sums_stride + layout.offset[last];
            Block total = Block::zero();
            for (unsigned c = 0; c < m; ++c)
                total ^= sums[c];
            leaf_sums[tr] = total;
        }
    }
}

void
ggmReconstructBatchInto(crypto::SeedExpander &prg, const size_t *alphas,
                        size_t num_trees, const GgmSumLayout &layout,
                        const Block *known_sums, size_t sums_stride,
                        GgmBatchScratch &scratch, Block *leaves,
                        size_t leaf_stride)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && num_trees >= 1 &&
                  leaf_stride >= layout.width);
    scratch.reserve(num_trees, layout, leaf_stride);

    for (size_t tr = 0; tr < num_trees; ++tr) {
        IRONMAN_CHECK(alphas[tr] < layout.width);
        alphaDigitsInto(alphas[tr], layout.arities,
                        scratch.digits.data() + tr * num_levels);
        scratch.holes[tr] = 0;
    }

    // The punctured node of every tree rides through the batched
    // expansion as a zero seed: its children are garbage, excluded
    // from the slot sums and overwritten by the recovery below — so
    // each level stays ONE expander call with no parent packing.
    std::fill(scratch.seeds.data(), scratch.seeds.data() + num_trees,
              Block::zero());
    const Block *cur = scratch.seeds.data();
    Block *pa = scratch.ping.data();
    Block *pb = scratch.pong.data();
    Block *acc = scratch.acc.data();

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const size_t keep = layout.kept[lvl];
        const LevelNodes level =
            expandLevel(prg, layout, lvl, cur, num_trees, scratch,
                        cur == pa ? pb : pa, leaves, leaf_stride);

        for (size_t tr = 0; tr < num_trees; ++tr) {
            const unsigned digit =
                scratch.digits[tr * num_levels + lvl];
            const size_t hole = scratch.holes[tr];
            Block *kids = level.base + tr * level.stride;
            // The path stays inside the kept prefix (alpha < width),
            // but the hole's last children may fall past it.
            const unsigned hole_kids =
                unsigned(std::min<size_t>(m, keep - hole * m));

            // Slot sums of the known children: all kept children,
            // minus the hole's garbage ones.
            slotSums(kids, keep, m, acc);
            for (unsigned c = 0; c < hole_kids; ++c)
                acc[c] ^= kids[hole * m + c];

            // Recover the punctured parent's kept children at every
            // slot except the path digit: child = K_c ^ (known sum).
            const Block *sums =
                known_sums + tr * sums_stride + layout.offset[lvl];
            for (unsigned c = 0; c < hole_kids; ++c)
                kids[hole * m + c] =
                    c == digit ? Block::zero() : sums[c] ^ acc[c];

            scratch.holes[tr] = hole * m + digit;
        }
        cur = level.base;
    }
}

void
ggmReconstructInto(crypto::SeedExpander &prg, size_t alpha,
                   const GgmSumLayout &layout, const Block *known_sums,
                   GgmScratch &scratch, Block *leaves)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && alpha < layout.leaves &&
                  layout.width == layout.leaves,
                  "the single-tree path reconstructs full trees");
    constexpr size_t kMaxLevels = 64;
    IRONMAN_CHECK(num_levels <= kMaxLevels);
    unsigned digits[kMaxLevels];
    alphaDigitsInto(alpha, layout.arities, digits);
    unsigned max_arity = *std::max_element(layout.arities.begin(),
                                           layout.arities.end());
    scratch.reserve(layout.leaves, max_arity);

    // cur holds all nodes of the current level; the entry at the path
    // index `hole` is unknown (kept zero and never read as a parent).
    Block *cur = scratch.ping.data();
    cur[0] = Block::zero();
    size_t count = 1;
    size_t hole = 0;

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const unsigned digit = digits[lvl];
        Block *next = lvl + 1 == num_levels
                          ? leaves
                          : (cur == scratch.ping.data()
                                 ? scratch.pong.data()
                                 : scratch.ping.data());

        // Expand every *known* parent (batched, skipping the hole);
        // accumulate per-slot sums over the children we just derived.
        Block *packed = scratch.parents.data();
        for (size_t j = 0; j < count; ++j)
            if (j != hole)
                *packed++ = cur[j];
        const size_t known = count - 1;
        prg.expand(scratch.parents.data(), scratch.children.data(),
                   known, m);

        Block *acc = scratch.acc.data();
        std::fill(acc, acc + m, Block::zero());
        size_t src = 0;
        for (size_t j = 0; j < count; ++j) {
            if (j == hole)
                continue;
            for (unsigned c = 0; c < m; ++c) {
                Block child = scratch.children[src * m + c];
                next[j * m + c] = child;
                acc[c] ^= child;
            }
            ++src;
        }

        // Recover the punctured parent's children at every slot except
        // the path digit: child = K_c ^ (sum of known slot-c children).
        const Block *sums = known_sums + layout.offset[lvl];
        for (unsigned c = 0; c < m; ++c)
            next[hole * m + c] =
                c == digit ? Block::zero() : sums[c] ^ acc[c];

        hole = hole * m + digit;
        cur = next;
        count *= m;
    }

    IRONMAN_CHECK(hole == alpha);
}

} // namespace ironman::ot
