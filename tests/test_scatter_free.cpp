/**
 * @file
 * Aliased LPN feed tests (invariant 11 of DESIGN.md): every engine
 * keeps bucketSize() leaves of each GGM tree and writes them straight
 * into the bucket's LPN rows, so a row slot of t*bucket >= n blocks IS
 * the leaf matrix and no leaf -> row copy exists. The rows past n are
 * slack that nothing encodes or outputs, and the outputs are
 * bit-identical to the full-tree engine: the golden hashes below were
 * recorded from the full-tree engine with its copying feed.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/ot_workspace.h"

namespace ironman::ot {
namespace {

struct RunOutput
{
    std::vector<Block> q;
    std::vector<Block> t;
    BitVec choice;
    Block delta;
};

RunOutput
runPair(const FerretParams &p, bool pipelined, int threads,
        int iterations, uint64_t seed)
{
    Rng dealer(seed);
    RunOutput out;
    out.delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, out.delta, p.reservedCots());

    const size_t usable = p.usableOts();
    out.q.resize(usable * iterations);
    out.t.resize(usable * iterations);

    net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, p, out.delta, std::move(bs.q));
            sender.setPipelined(pipelined);
            sender.setThreads(threads);
            Rng rng(seed + 1);
            for (int it = 0; it < iterations; ++it)
                sender.extendInto(rng, out.q.data() + it * usable);
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, p, std::move(br.choice),
                                       std::move(br.t));
            receiver.setPipelined(pipelined);
            receiver.setThreads(threads);
            Rng rng(seed + 2);
            BitVec c;
            for (int it = 0; it < iterations; ++it) {
                receiver.extendInto(rng, c,
                                    out.t.data() + it * usable);
                for (size_t i = 0; i < c.size(); ++i)
                    out.choice.pushBack(c.get(i));
            }
        });
    return out;
}

void
expectValid(const RunOutput &r)
{
    ASSERT_EQ(r.q.size(), r.t.size());
    ASSERT_EQ(r.choice.size(), r.q.size());
    for (size_t i = 0; i < r.q.size(); ++i)
        ASSERT_EQ(r.t[i], r.q[i] ^ scalarMul(r.choice.get(i), r.delta))
            << "index " << i;
}

/** FNV-1a over the outputs of one run (q, t, then the choice bits). */
uint64_t
outputHash(const RunOutput &r)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](uint64_t w) {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Block &b : r.q) {
        mix(b.lo);
        mix(b.hi);
    }
    for (const Block &b : r.t) {
        mix(b.lo);
        mix(b.hi);
    }
    for (size_t i = 0; i < r.choice.size(); ++i)
        mix(r.choice.get(i));
    return h;
}

TEST(ScatterFreeTest, RowSlotsCoverEveryLpnRow)
{
    // Uniform width: every tree keeps one bucket, so the slack rows
    // [n, t*bucket) all sit in the last bucket.
    for (const FerretParams &p : allPaperParamSets()) {
        const size_t rows = p.t * p.bucketSize();
        EXPECT_GE(rows, p.n) << p.name;
        EXPECT_LT(rows - p.n, p.bucketSize()) << p.name;
    }
    EXPECT_EQ(paperParamSet(20).t * paperParamSet(20).bucketSize() -
                  paperParamSet(20).n,
              84u);
    EXPECT_EQ(tinyTestParams().t * tinyTestParams().bucketSize(),
              tinyTestParams().n);
    EXPECT_EQ(tinyAlignedParams().t * tinyAlignedParams().bucketSize(),
              tinyAlignedParams().n);
}

TEST(ScatterFreeTest, ArenaAliasesLeavesOntoRowSlots)
{
    for (const FerretParams &p : {tinyTestParams(), paperParamSet(20)}) {
        const size_t slot = p.t * p.bucketSize();

        // Pipelined sender: two row slots, back to back, and nothing
        // else — no separate leaf matrices, no staging rows.
        OtWorkspace two;
        two.prepare(p, 1, /*slots=*/2);
        EXPECT_EQ(two.arena.capacity(), OtWorkspace::requiredBlocks(p, 2));
        EXPECT_EQ(two.arena.capacity(), 2 * slot) << p.name;
        ASSERT_NE(two.rows[1], nullptr);
        EXPECT_EQ(size_t(two.rows[1] - two.rows[0]), slot) << p.name;

        // Receiver / unpipelined sender: one slot.
        OtWorkspace one;
        one.prepare(p, 1, 1);
        EXPECT_EQ(one.arena.capacity(), slot) << p.name;
        EXPECT_EQ(one.rows[1], nullptr);
    }
}

/**
 * Golden outputs of 3 extensions (1 at 2^20) per mode, recorded from
 * the full-tree engine with its leaf -> row copy. Pipelined and
 * unpipelined runs share a hash (invariant 10), and so do 1 and 2
 * worker threads (invariant 9), so the row-slot handoff of the
 * pipelined engine is covered too.
 */
TEST(ScatterFreeTest, GoldenOutputsOfTheFullTreeEngine)
{
    struct Case
    {
        FerretParams p;
        int iterations;
        uint64_t hash;
    };
    const Case cases[] = {
        {tinyTestParams(), 3, 0x98112e1bd1897646ULL},
        {tinyAlignedParams(), 3, 0xba598086f27f5badULL},
        {paperParamSet(20), 1, 0x89e784375714b636ULL},
    };
    for (const Case &c : cases)
        for (bool pipelined : {false, true}) {
            const RunOutput r = runPair(c.p, pipelined, pipelined ? 2 : 1,
                                        c.iterations, 9100);
            expectValid(r);
            EXPECT_EQ(outputHash(r), c.hash)
                << c.p.name << (pipelined ? " pipelined" : " unpipelined");
        }
}

} // namespace
} // namespace ironman::ot
