/**
 * @file
 * GGM tree tests: the punctured reconstruction must agree with the
 * sender's expansion on every leaf except alpha, across arities, PRGs
 * and tree sizes (invariant 3 of DESIGN.md). Exercises the span-based
 * workspace API (ggmExpandInto / ggmReconstructInto) directly.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/ggm_tree.h"

namespace ironman::ot {
namespace {

using crypto::PrgKind;

/** Test-local expansion mirror of the deleted vector wrapper. */
struct Expansion
{
    std::vector<Block> leaves;
    std::vector<std::vector<Block>> levelSums;
    Block leafSum;
};

Expansion
expand(crypto::SeedExpander &prg, const Block &seed,
       const std::vector<unsigned> &arities)
{
    GgmSumLayout layout = GgmSumLayout::of(arities);
    GgmScratch scratch;
    std::vector<Block> flat(layout.total);

    Expansion out;
    out.leaves.resize(layout.leaves);
    ggmExpandInto(prg, seed, layout, scratch, out.leaves.data(),
                  flat.data(), &out.leafSum);

    out.levelSums.resize(arities.size());
    for (size_t lvl = 0; lvl < arities.size(); ++lvl)
        out.levelSums[lvl].assign(flat.begin() + layout.offset[lvl],
                                  flat.begin() + layout.offset[lvl] +
                                      arities[lvl]);
    return out;
}

std::vector<Block>
reconstruct(crypto::SeedExpander &prg, size_t alpha,
            const std::vector<unsigned> &arities,
            const std::vector<std::vector<Block>> &known_sums)
{
    GgmSumLayout layout = GgmSumLayout::of(arities);
    std::vector<Block> flat(layout.total);
    for (size_t lvl = 0; lvl < arities.size(); ++lvl)
        std::copy(known_sums[lvl].begin(), known_sums[lvl].end(),
                  flat.begin() + layout.offset[lvl]);

    GgmScratch scratch;
    std::vector<Block> leaves(layout.leaves);
    ggmReconstructInto(prg, alpha, layout, flat.data(), scratch,
                       leaves.data());
    return leaves;
}

TEST(TreeAritiesTest, UniformAndMixedRadix)
{
    EXPECT_EQ(treeArities(4096, 2), std::vector<unsigned>(12, 2));
    EXPECT_EQ(treeArities(4096, 4), std::vector<unsigned>(6, 4));
    // 8192 = 2 * 4^6: one binary level on top.
    std::vector<unsigned> expect8192{2, 4, 4, 4, 4, 4, 4};
    EXPECT_EQ(treeArities(8192, 4), expect8192);
    // 32-ary over 1024 leaves = 2 levels of 32.
    EXPECT_EQ(treeArities(1024, 32), std::vector<unsigned>(2, 32));
    // 2048 with 32-ary: 2048 = 2 * 32^2.
    std::vector<unsigned> expect2048{2, 32, 32};
    EXPECT_EQ(treeArities(2048, 32), expect2048);
}

TEST(TreeAritiesTest, ProductAlwaysMatchesLeafCount)
{
    for (unsigned m : {2u, 4u, 8u, 16u, 32u}) {
        for (size_t lg = 1; lg <= 14; ++lg) {
            size_t leaves = size_t(1) << lg;
            if (leaves < m && leaves < 2)
                continue;
            auto arities = treeArities(leaves, m);
            size_t prod = 1;
            for (unsigned a : arities)
                prod *= a;
            EXPECT_EQ(prod, leaves) << "m=" << m << " leaves=" << leaves;
        }
    }
}

TEST(AlphaDigitsTest, MixedRadixDecomposition)
{
    // arities [2, 4]: index = d0*4 + d1.
    std::vector<unsigned> arities{2, 4};
    auto d = alphaDigits(6, arities); // 6 = 1*4 + 2
    EXPECT_EQ(d[0], 1u);
    EXPECT_EQ(d[1], 2u);
    d = alphaDigits(0, arities);
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[1], 0u);
    d = alphaDigits(7, arities);
    EXPECT_EQ(d[0], 1u);
    EXPECT_EQ(d[1], 3u);
}

TEST(GgmExpandTest, SumsAndLeafSumConsistent)
{
    auto prg = crypto::makeTreeExpander(PrgKind::ChaCha8, 4);
    auto arities = treeArities(64, 4);
    Expansion exp = expand(*prg, Block::fromUint64(5), arities);

    ASSERT_EQ(exp.leaves.size(), 64u);
    ASSERT_EQ(exp.levelSums.size(), 3u);

    // Last level sums: XOR of leaves by child-slot residue.
    std::vector<Block> slot(4, Block::zero());
    Block total = Block::zero();
    for (size_t j = 0; j < exp.leaves.size(); ++j) {
        slot[j % 4] ^= exp.leaves[j];
        total ^= exp.leaves[j];
    }
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(exp.levelSums.back()[c], slot[c]);
    EXPECT_EQ(exp.leafSum, total);
}

struct GgmCase
{
    PrgKind kind;
    unsigned arity;
    size_t leaves;
};

class GgmParamTest : public ::testing::TestWithParam<GgmCase>
{};

TEST_P(GgmParamTest, ReconstructionMatchesExceptAlpha)
{
    const auto [kind, arity, leaves] = GetParam();
    auto arities = treeArities(leaves, arity);

    auto sender_prg = crypto::makeTreeExpander(kind, arity);
    auto receiver_prg = crypto::makeTreeExpander(kind, arity);
    Rng rng(1234);

    Block seed = rng.nextBlock();
    Expansion exp = expand(*sender_prg, seed, arities);

    // Exercise alphas at the edges and a few random interior points.
    std::vector<size_t> alphas{0, leaves - 1, leaves / 2};
    for (int i = 0; i < 3; ++i)
        alphas.push_back(rng.nextBelow(leaves));

    for (size_t alpha : alphas) {
        // The receiver knows every level sum except at its digit; the
        // punctured entries are zeroed to prove they are not read.
        auto digits = alphaDigits(alpha, arities);
        auto known = exp.levelSums;
        for (size_t lvl = 0; lvl < known.size(); ++lvl)
            known[lvl][digits[lvl]] = Block::zero();

        std::vector<Block> rec =
            reconstruct(*receiver_prg, alpha, arities, known);
        ASSERT_EQ(rec.size(), leaves);
        for (size_t j = 0; j < leaves; ++j) {
            if (j == alpha) {
                EXPECT_EQ(rec[j], Block::zero());
            } else {
                EXPECT_EQ(rec[j], exp.leaves[j])
                    << "alpha=" << alpha << " leaf=" << j;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GgmParamTest,
    ::testing::Values(GgmCase{PrgKind::Aes, 2, 64},
                      GgmCase{PrgKind::Aes, 4, 256},
                      GgmCase{PrgKind::Aes, 4, 512},
                      GgmCase{PrgKind::ChaCha8, 2, 64},
                      GgmCase{PrgKind::ChaCha8, 4, 256},
                      GgmCase{PrgKind::ChaCha8, 4, 8192},
                      GgmCase{PrgKind::ChaCha8, 8, 512},
                      GgmCase{PrgKind::ChaCha8, 16, 256},
                      GgmCase{PrgKind::ChaCha8, 32, 2048},
                      GgmCase{PrgKind::ChaCha20, 4, 64}),
    [](const auto &info) {
        return prgKindName(info.param.kind) + "_m" +
               std::to_string(info.param.arity) + "_l" +
               std::to_string(info.param.leaves);
    });

TEST(GgmOpsTest, OperationCountsMatchFig7Model)
{
    // To produce l leaves, an m-ary tree expands (l-1)/(m-1) internal
    // nodes; AES costs m per node, ChaCha ceil(m/4) per node.
    const size_t leaves = 4096;
    struct Row
    {
        PrgKind kind;
        unsigned m;
        uint64_t expect;
    };
    const Row rows[] = {
        {PrgKind::Aes, 2, 2 * (leaves - 1)},        // 8190
        {PrgKind::Aes, 4, 4 * (leaves - 1) / 3},    // 5460
        {PrgKind::ChaCha8, 2, leaves - 1},          // 4095
        {PrgKind::ChaCha8, 4, (leaves - 1) / 3},    // 1365
    };
    for (const Row &row : rows) {
        auto prg = crypto::makeTreeExpander(row.kind, row.m);
        expand(*prg, Block::fromUint64(1), treeArities(leaves, row.m));
        EXPECT_EQ(prg->ops(), row.expect)
            << prgKindName(row.kind) << " m=" << row.m;
    }
    // Headline claim of Sec. 4: 4-ary ChaCha vs 2-ary AES is ~6x.
    EXPECT_NEAR(double(rows[0].expect) / double(rows[3].expect), 6.0, 0.01);
}

// ---------------------------------------------------------------------------
// Kept-prefix (truncated) trees
// ---------------------------------------------------------------------------

/** Every node of the full tree: levels[i] = level i's children. */
std::vector<std::vector<Block>>
naiveLevels(crypto::SeedExpander &prg, const Block &seed,
            const std::vector<unsigned> &arities)
{
    std::vector<std::vector<Block>> levels;
    std::vector<Block> cur{seed};
    for (unsigned m : arities) {
        std::vector<Block> next(cur.size() * m);
        prg.expand(cur.data(), next.data(), cur.size(), m);
        levels.push_back(next);
        cur = std::move(next);
    }
    return levels;
}

/** Widths {1, m-1, m+1, l/2+1, l-1, l}, m the last level's arity. */
std::vector<size_t>
truncationWidths(const std::vector<unsigned> &arities)
{
    size_t leaves = 1;
    for (unsigned a : arities)
        leaves *= a;
    const size_t m = arities.back();
    return {1, m - 1, m + 1, leaves / 2 + 1, leaves - 1, leaves};
}

TEST(GgmTruncationTest, KeptCountsReachEveryKeptLeaf)
{
    // 2^20 engine tree: 4096 leaves, bucket 2545.
    const GgmSumLayout l = GgmSumLayout::of(treeArities(4096, 4), 2545);
    EXPECT_EQ(l.width, 2545u);
    EXPECT_EQ(l.leaves, 4096u);
    const std::vector<size_t> kept{3, 10, 40, 160, 637, 2545};
    EXPECT_EQ(l.kept, kept);
    EXPECT_EQ(l.expandedNodes(), 3404u);
    EXPECT_EQ(GgmSumLayout::of(treeArities(4096, 4)).expandedNodes(),
              5460u);
    // Tiny engine tree: 1024 leaves, bucket 640.
    EXPECT_EQ(GgmSumLayout::of(treeArities(1024, 4), 640).expandedNodes(),
              856u);

    // The default is the full tree, and a kept count is always the
    // parents needed one level below.
    const GgmSumLayout full = GgmSumLayout::of(treeArities(8192, 4));
    EXPECT_EQ(full.width, full.leaves);
    for (size_t lvl = 0; lvl + 1 < full.arities.size(); ++lvl)
        EXPECT_EQ(full.parents(lvl + 1), full.kept[lvl]);
}

TEST(GgmTruncationTest, SlotSumsCoverExactlyTheKeptNodes)
{
    const std::vector<std::vector<unsigned>> shapes{
        treeArities(64, 2),   treeArities(256, 4), treeArities(512, 8),
        treeArities(128, 4),  // mixed [2, 4, 4, 4]
        treeArities(1024, 8), // mixed [2, 8, 8, 8]
        {4, 8, 8},            // mixed, wide bottom
    };
    for (const auto &arities : shapes)
        for (size_t width : truncationWidths(arities)) {
            const GgmSumLayout layout = GgmSumLayout::of(arities, width);
            auto ref_prg = crypto::makeTreeExpander(PrgKind::ChaCha8, 8);
            const Block seed = Block::fromUint64(width * 131 + 7);
            const auto levels = naiveLevels(*ref_prg, seed, arities);

            auto prg = crypto::makeTreeExpander(PrgKind::ChaCha8, 8);
            GgmBatchScratch scratch;
            std::vector<Block> leaves(width);
            std::vector<Block> sums(layout.total);
            Block leaf_sum;
            ggmExpandBatchInto(*prg, &seed, 1, layout, scratch,
                               leaves.data(), width, sums.data(),
                               layout.total, &leaf_sum);

            size_t below = layout.leaves;
            Block kept_leaves = Block::zero();
            for (size_t lvl = 0; lvl < arities.size(); ++lvl) {
                const unsigned m = arities[lvl];
                below /= m;
                const size_t kept = (width + below - 1) / below;
                ASSERT_EQ(layout.kept[lvl], kept);
                std::vector<Block> expect(m, Block::zero());
                for (size_t j = 0; j < kept; ++j)
                    expect[j % m] ^= levels[lvl][j];
                for (unsigned c = 0; c < m; ++c)
                    EXPECT_EQ(sums[layout.offset[lvl] + c], expect[c])
                        << "width " << width << " level " << lvl
                        << " slot " << c;
            }
            for (size_t j = 0; j < width; ++j) {
                ASSERT_EQ(leaves[j], levels.back()[j]) << "leaf " << j;
                kept_leaves ^= levels.back()[j];
            }
            EXPECT_EQ(leaf_sum, kept_leaves);
        }
}

} // namespace
} // namespace ironman::ot
