/**
 * @file
 * Cross-tree level-synchronous GGM tests: ggmExpandBatchInto /
 * ggmReconstructBatchInto must be bit-identical to the per-tree
 * reference path (ggmExpandInto / ggmReconstructInto) across the
 * Table-4 tree shapes — including the mixed-radix ones — PRGs, batch
 * sizes, and both the direct (leaf_stride == leaves) and strided
 * final-level writes. Kept-prefix trees (GgmSumLayout width < leaves)
 * must reproduce the full tree's first width leaves, write nothing
 * outside each tree's range, reconstruct every kept leaf but alpha,
 * and stay bit-identical when trees are split over a pool.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ot/ggm_tree.h"

namespace ironman::ot {
namespace {

using crypto::PrgKind;

struct BatchCase
{
    PrgKind kind;
    unsigned arity;
    size_t leaves;
    size_t trees;
    const char *name;
};

class GgmBatchParamTest : public ::testing::TestWithParam<BatchCase>
{};

TEST_P(GgmBatchParamTest, BatchExpandMatchesPerTree)
{
    const auto c = GetParam();
    const auto arities = treeArities(c.leaves, c.arity);
    const GgmSumLayout layout = GgmSumLayout::of(arities);

    Rng rng(1000);
    std::vector<Block> seeds = rng.nextBlocks(c.trees);

    // Per-tree reference.
    auto ref_prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmScratch ref_scratch;
    std::vector<Block> ref_leaves(c.trees * layout.leaves);
    std::vector<Block> ref_sums(c.trees * layout.total);
    std::vector<Block> ref_leaf_sums(c.trees);
    for (size_t tr = 0; tr < c.trees; ++tr)
        ggmExpandInto(*ref_prg, seeds[tr], layout, ref_scratch,
                      ref_leaves.data() + tr * layout.leaves,
                      ref_sums.data() + tr * layout.total,
                      &ref_leaf_sums[tr]);

    // Cross-tree batch, direct final-level write.
    auto prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmBatchScratch scratch;
    std::vector<Block> leaves(c.trees * layout.leaves);
    std::vector<Block> sums(c.trees * layout.total);
    std::vector<Block> leaf_sums(c.trees);
    ggmExpandBatchInto(*prg, seeds.data(), c.trees, layout, scratch,
                       leaves.data(), layout.leaves, sums.data(),
                       layout.total, leaf_sums.data());

    EXPECT_EQ(leaves, ref_leaves);
    EXPECT_EQ(sums, ref_sums);
    EXPECT_EQ(leaf_sums, ref_leaf_sums);
    EXPECT_EQ(prg->ops(), ref_prg->ops())
        << "batching must not change the PRG operation count";

    // Write at a wider stride.
    const size_t stride = layout.leaves + 7;
    std::vector<Block> strided(c.trees * stride, Block::ones());
    GgmBatchScratch scratch2;
    auto prg2 = crypto::makeTreeExpander(c.kind, c.arity);
    ggmExpandBatchInto(*prg2, seeds.data(), c.trees, layout, scratch2,
                       strided.data(), stride, sums.data(), layout.total,
                       nullptr);
    for (size_t tr = 0; tr < c.trees; ++tr)
        for (size_t j = 0; j < layout.leaves; ++j)
            ASSERT_EQ(strided[tr * stride + j],
                      ref_leaves[tr * layout.leaves + j])
                << "tree " << tr << " leaf " << j;
}

TEST_P(GgmBatchParamTest, BatchReconstructMatchesPerTree)
{
    const auto c = GetParam();
    const auto arities = treeArities(c.leaves, c.arity);
    const GgmSumLayout layout = GgmSumLayout::of(arities);
    const size_t num_levels = arities.size();

    Rng rng(2000);
    std::vector<Block> seeds = rng.nextBlocks(c.trees);
    std::vector<size_t> alphas(c.trees);
    for (size_t tr = 0; tr < c.trees; ++tr)
        alphas[tr] = rng.nextBelow(layout.leaves);
    alphas[0] = 0;                                  // edges
    alphas[c.trees - 1] = layout.leaves - 1;

    // Sender expansion provides the known sums (punctured digit
    // zeroed to prove it is never read).
    auto send_prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmScratch send_scratch;
    std::vector<Block> w(c.trees * layout.leaves);
    std::vector<Block> sums(c.trees * layout.total);
    Block leaf_sum;
    for (size_t tr = 0; tr < c.trees; ++tr)
        ggmExpandInto(*send_prg, seeds[tr], layout, send_scratch,
                      w.data() + tr * layout.leaves,
                      sums.data() + tr * layout.total, &leaf_sum);
    for (size_t tr = 0; tr < c.trees; ++tr) {
        auto digits = alphaDigits(alphas[tr], arities);
        for (size_t lvl = 0; lvl < num_levels; ++lvl)
            sums[tr * layout.total + layout.offset[lvl] + digits[lvl]] =
                Block::zero();
    }

    // Per-tree reference reconstruction.
    auto ref_prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmScratch ref_scratch;
    std::vector<Block> ref_v(c.trees * layout.leaves);
    for (size_t tr = 0; tr < c.trees; ++tr)
        ggmReconstructInto(*ref_prg, alphas[tr], layout,
                           sums.data() + tr * layout.total, ref_scratch,
                           ref_v.data() + tr * layout.leaves);

    // Cross-tree batch, direct.
    auto prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmBatchScratch scratch;
    std::vector<Block> v(c.trees * layout.leaves);
    ggmReconstructBatchInto(*prg, alphas.data(), c.trees, layout,
                            sums.data(), layout.total, scratch, v.data(),
                            layout.leaves);
    EXPECT_EQ(v, ref_v);

    // And against the sender truth: equal everywhere except alpha.
    for (size_t tr = 0; tr < c.trees; ++tr)
        for (size_t j = 0; j < layout.leaves; ++j) {
            const Block expect = j == alphas[tr]
                                     ? Block::zero()
                                     : w[tr * layout.leaves + j];
            ASSERT_EQ(v[tr * layout.leaves + j], expect)
                << "tree " << tr << " leaf " << j;
        }

    // Write at a wider stride.
    const size_t stride = layout.leaves + 3;
    std::vector<Block> strided(c.trees * stride, Block::ones());
    GgmBatchScratch scratch2;
    auto prg2 = crypto::makeTreeExpander(c.kind, c.arity);
    ggmReconstructBatchInto(*prg2, alphas.data(), c.trees, layout,
                            sums.data(), layout.total, scratch2,
                            strided.data(), stride);
    for (size_t tr = 0; tr < c.trees; ++tr)
        for (size_t j = 0; j < layout.leaves; ++j)
            ASSERT_EQ(strided[tr * stride + j],
                      ref_v[tr * layout.leaves + j])
                << "tree " << tr << " leaf " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GgmBatchParamTest,
    ::testing::Values(
        // The four Table-4 tree shapes (l = bit_ceil(ceil(n/t))).
        BatchCase{PrgKind::ChaCha8, 4, 4096, 9, "t4_2e20"},   // 2^20/2^21
        BatchCase{PrgKind::ChaCha8, 4, 8192, 5, "t4_2e22"},   // mixed [2,4^6]
        BatchCase{PrgKind::ChaCha8, 4, 16384, 3, "t4_2e23"},  // 2^23/2^24
        BatchCase{PrgKind::ChaCha8, 4, 1024, 20, "t4_tiny"},  // tiny set
        // Mixed radix with wide levels + AES + single tree + odd batch.
        BatchCase{PrgKind::ChaCha8, 32, 2048, 7, "m32_mixed"}, // [2,32,32]
        BatchCase{PrgKind::Aes, 2, 64, 13, "aes_binary"},
        BatchCase{PrgKind::Aes, 4, 256, 1, "aes_single_tree"},
        BatchCase{PrgKind::ChaCha20, 8, 512, 6, "cc20_m8"}),
    [](const auto &info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Kept-prefix (truncated) trees
// ---------------------------------------------------------------------------

struct TruncShape
{
    PrgKind kind;
    std::vector<unsigned> arities;
    const char *name;
};

const TruncShape kTruncShapes[] = {
    {PrgKind::ChaCha8, treeArities(64, 2), "m2_l64"},
    {PrgKind::Aes, treeArities(256, 4), "aes_m4_l256"},
    {PrgKind::ChaCha8, treeArities(1024, 4), "m4_l1024"}, // tiny set
    {PrgKind::ChaCha8, treeArities(512, 8), "m8_l512"},
    {PrgKind::ChaCha8, treeArities(128, 4), "mixed_2_4_4_4"},
    {PrgKind::ChaCha8, treeArities(1024, 8), "mixed_2_8_8_8"},
    {PrgKind::ChaCha20, {4, 8, 8}, "mixed_4_8_8"},
};

size_t
leafCount(const std::vector<unsigned> &arities)
{
    size_t leaves = 1;
    for (unsigned a : arities)
        leaves *= a;
    return leaves;
}

/** Widths {1, m-1, m+1, l/2+1, l-1, l}, m the last level's arity. */
std::vector<size_t>
truncationWidths(const std::vector<unsigned> &arities)
{
    const size_t leaves = leafCount(arities);
    const size_t m = arities.back();
    return {1, m - 1, m + 1, leaves / 2 + 1, leaves - 1, leaves};
}

unsigned
maxArity(const std::vector<unsigned> &arities)
{
    return *std::max_element(arities.begin(), arities.end());
}

TEST(GgmTruncatedBatchTest, LeavesArePrefixesAndStayInTheirRange)
{
    constexpr size_t kTrees = 5;
    constexpr size_t kGuard = 16;
    for (const TruncShape &sh : kTruncShapes) {
        const GgmSumLayout full = GgmSumLayout::of(sh.arities);
        Rng rng(3000);
        const std::vector<Block> seeds = rng.nextBlocks(kTrees);
        auto ref_prg = crypto::makeTreeExpander(sh.kind, maxArity(sh.arities));
        GgmScratch ref_scratch;
        std::vector<Block> ref(kTrees * full.leaves);
        std::vector<Block> ref_sums(full.total);
        Block ref_leaf_sum;
        for (size_t tr = 0; tr < kTrees; ++tr)
            ggmExpandInto(*ref_prg, seeds[tr], full, ref_scratch,
                          ref.data() + tr * full.leaves, ref_sums.data(),
                          &ref_leaf_sum);

        for (size_t width : truncationWidths(sh.arities)) {
            const GgmSumLayout layout = GgmSumLayout::of(sh.arities, width);
            const size_t m = sh.arities.back();
            const size_t rounded = (width + m - 1) / m * m;
            // Engine stride, the last level's whole-parent stride, and
            // a wider one with a gap after every tree.
            for (size_t stride : {width, rounded, width + 5}) {
                std::vector<Block> out(kTrees * stride + kGuard,
                                       Block::ones());
                std::vector<Block> sums(kTrees * layout.total);
                std::vector<Block> leaf_sums(kTrees);
                auto prg =
                    crypto::makeTreeExpander(sh.kind, maxArity(sh.arities));
                GgmBatchScratch scratch;
                ggmExpandBatchInto(*prg, seeds.data(), kTrees, layout,
                                   scratch, out.data(), stride, sums.data(),
                                   layout.total, leaf_sums.data());
                for (size_t tr = 0; tr < kTrees; ++tr) {
                    Block kept = Block::zero();
                    for (size_t j = 0; j < width; ++j) {
                        ASSERT_EQ(out[tr * stride + j],
                                  ref[tr * full.leaves + j])
                            << sh.name << " width " << width << " stride "
                            << stride << " tree " << tr << " leaf " << j;
                        kept ^= out[tr * stride + j];
                    }
                    EXPECT_EQ(leaf_sums[tr], kept);
                    // Only whole-parent strides may hold the
                    // overshooting parent's extra children.
                    if (stride != rounded)
                        for (size_t j = width; j < stride; ++j)
                            ASSERT_EQ(out[tr * stride + j], Block::ones())
                                << sh.name << " gap write, width " << width;
                }
                for (size_t g = 0; g < kGuard; ++g)
                    ASSERT_EQ(out[kTrees * stride + g], Block::ones())
                        << sh.name << " wrote past the last tree";
            }
        }
    }
}

TEST(GgmTruncatedBatchTest, ReconstructsEveryKeptLeafForEveryAlpha)
{
    constexpr size_t kChunk = 32;
    for (const TruncShape &sh : kTruncShapes) {
        const unsigned max_m = maxArity(sh.arities);
        const size_t num_levels = sh.arities.size();
        for (size_t width : truncationWidths(sh.arities)) {
            const GgmSumLayout layout = GgmSumLayout::of(sh.arities, width);
            const Block seed = Block::fromUint64(width + 99);

            auto send_prg = crypto::makeTreeExpander(sh.kind, max_m);
            GgmBatchScratch send_scratch;
            std::vector<Block> w(width);
            std::vector<Block> sums(layout.total);
            ggmExpandBatchInto(*send_prg, &seed, 1, layout, send_scratch,
                               w.data(), width, sums.data(), layout.total,
                               nullptr);

            // One punctured copy of the tree per alpha, kChunk at a
            // time; the punctured digit's sums are zeroed to prove
            // they are never read.
            auto prg = crypto::makeTreeExpander(sh.kind, max_m);
            GgmBatchScratch scratch;
            std::vector<size_t> alphas(kChunk);
            std::vector<Block> known(kChunk * layout.total);
            std::vector<Block> v(kChunk * width);
            for (size_t a0 = 0; a0 < width; a0 += kChunk) {
                const size_t cnt = std::min(kChunk, width - a0);
                for (size_t i = 0; i < cnt; ++i) {
                    alphas[i] = a0 + i;
                    Block *ks = known.data() + i * layout.total;
                    std::copy(sums.begin(), sums.end(), ks);
                    const auto digits = alphaDigits(alphas[i], sh.arities);
                    for (size_t lvl = 0; lvl < num_levels; ++lvl)
                        ks[layout.offset[lvl] + digits[lvl]] = Block::zero();
                }
                ggmReconstructBatchInto(*prg, alphas.data(), cnt, layout,
                                        known.data(), layout.total,
                                        scratch, v.data(), width);
                for (size_t i = 0; i < cnt; ++i)
                    for (size_t j = 0; j < width; ++j)
                        ASSERT_EQ(v[i * width + j],
                                  j == alphas[i] ? Block::zero() : w[j])
                            << sh.name << " width " << width << " alpha "
                            << alphas[i] << " leaf " << j;
            }
        }
    }
}

TEST(GgmTruncatedBatchTest, PooledRunsMatchSerial)
{
    // Trees split over a pool the way the SPCOT driver splits them:
    // contiguous ranges, per-worker scratch and expander, chunks
    // writing straight into the shared leaf span.
    constexpr size_t kTrees = 37;
    constexpr size_t kChunk = 8;
    const std::vector<unsigned> arities = treeArities(1024, 4);
    const GgmSumLayout layout = GgmSumLayout::of(arities, 640);
    const size_t width = layout.width;
    Rng rng(4000);
    const std::vector<Block> seeds = rng.nextBlocks(kTrees);
    std::vector<size_t> alphas(kTrees);
    for (size_t tr = 0; tr < kTrees; ++tr)
        alphas[tr] = rng.nextBelow(width);

    struct Out
    {
        std::vector<Block> w, sums, v;
    };
    auto run = [&](int threads) {
        common::ThreadPool pool(threads);
        Out out;
        out.w.resize(kTrees * width);
        out.sums.resize(kTrees * layout.total);
        out.v.resize(kTrees * width);
        struct Worker
        {
            std::unique_ptr<crypto::SeedExpander> prg;
            GgmBatchScratch scratch;
        };
        std::vector<Worker> workers(size_t(pool.threads()));
        for (Worker &wk : workers)
            wk.prg = crypto::makeTreeExpander(PrgKind::ChaCha8, 4);
        pool.parallelFor(kTrees, [&](int worker, size_t lo, size_t hi) {
            Worker &wk = workers[size_t(worker)];
            for (size_t b = lo; b < hi; b += kChunk) {
                const size_t cnt = std::min(kChunk, hi - b);
                ggmExpandBatchInto(*wk.prg, seeds.data() + b, cnt, layout,
                                   wk.scratch, out.w.data() + b * width,
                                   width,
                                   out.sums.data() + b * layout.total,
                                   layout.total, nullptr);
            }
        });
        pool.parallelFor(kTrees, [&](int worker, size_t lo, size_t hi) {
            Worker &wk = workers[size_t(worker)];
            for (size_t b = lo; b < hi; b += kChunk) {
                const size_t cnt = std::min(kChunk, hi - b);
                ggmReconstructBatchInto(
                    *wk.prg, alphas.data() + b, cnt, layout,
                    out.sums.data() + b * layout.total, layout.total,
                    wk.scratch, out.v.data() + b * width, width);
            }
        });
        return out;
    };

    const Out serial = run(1);
    for (size_t tr = 0; tr < kTrees; ++tr)
        for (size_t j = 0; j < width; ++j)
            if (j != alphas[tr])
                ASSERT_EQ(serial.v[tr * width + j], serial.w[tr * width + j]);
    for (int threads = 2; threads <= 4; ++threads) {
        const Out pooled = run(threads);
        EXPECT_EQ(pooled.w, serial.w) << threads << " threads";
        EXPECT_EQ(pooled.sums, serial.sums) << threads << " threads";
        EXPECT_EQ(pooled.v, serial.v) << threads << " threads";
    }
}

} // namespace
} // namespace ironman::ot
