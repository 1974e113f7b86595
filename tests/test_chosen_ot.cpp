/**
 * @file
 * Chosen 1-of-2 OT from COT: the receiver always decodes m_c and the
 * untaken ciphertext never decodes to the other message under the
 * receiver's pad (invariant 6 of DESIGN.md); the width-packed codec
 * decodes the Block codec's messages truncated to the wire width
 * (invariant 14).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/crhf.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/chosen_ot.h"

namespace ironman::ot {
namespace {

TEST(ChosenOtTest, ReceiverGetsChosenMessage)
{
    const size_t n = 100;
    Rng rng(31);
    Block delta = rng.nextBlock();
    auto [cot_s, cot_r] = dealBaseCots(rng, delta, n);

    std::vector<Block> m0 = rng.nextBlocks(n);
    std::vector<Block> m1 = rng.nextBlocks(n);
    BitVec choices = rng.nextBits(n);
    std::vector<Block> got(n);

    crypto::Crhf crhf;
    net::runTwoParty(
        [&](net::Channel &ch) {
            ChosenOtScratch scratch;
            chosenOtSend(ch, crhf, m0.data(), m1.data(), n, delta,
                         cot_s.q.data(), 1000, scratch);
        },
        [&](net::Channel &ch) {
            ChosenOtScratch scratch;
            chosenOtRecv(ch, crhf, choices, cot_r.choice, 0,
                         cot_r.t.data(), n, got.data(), 1000, scratch);
        });

    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], choices.get(i) ? m1[i] : m0[i]) << "i=" << i;
}

TEST(ChosenOtTest, UntakenMessageStaysMasked)
{
    const size_t n = 64;
    Rng rng(32);
    Block delta = rng.nextBlock();
    auto [cot_s, cot_r] = dealBaseCots(rng, delta, n);

    std::vector<Block> m0 = rng.nextBlocks(n);
    std::vector<Block> m1 = rng.nextBlocks(n);
    BitVec choices = rng.nextBits(n);
    std::vector<Block> got(n);
    std::vector<Block> wrong(n);

    crypto::Crhf crhf;
    net::runTwoParty(
        [&](net::Channel &ch) {
            ChosenOtScratch scratch;
            chosenOtSend(ch, crhf, m0.data(), m1.data(), n, delta,
                         cot_s.q.data(), 0, scratch);
        },
        [&](net::Channel &ch) {
            ChosenOtScratch scratch;
            chosenOtRecv(ch, crhf, choices, cot_r.choice, 0,
                         cot_r.t.data(), n, got.data(), 0, scratch);
        });

    for (size_t i = 0; i < n; ++i) {
        // Sanity: the chosen message decodes.
        EXPECT_EQ(got[i], choices.get(i) ? m1[i] : m0[i]);
        // The unchosen ciphertext is padded with H(q ^ (1-b)*Delta),
        // which the receiver's pad H(t) = H(q ^ b*Delta) cannot strip.
        bool b = cot_r.choice.get(i);
        Block pad_recv = crhf.hash(cot_r.t[i], i);
        Block pad_other =
            crhf.hash(cot_s.q[i] ^ scalarMul(!b, delta), i);
        EXPECT_NE(pad_recv, pad_other) << "i=" << i;
    }
}

TEST(ChosenOtTest, PackedDecodesEqualBlockCodecLowBits)
{
    // Both codecs hash the same full-Block pads; the packed one ships
    // only wire_width bits of each masked message. n = 77 leaves a
    // partial last byte in both the lane and the derand encodings.
    const size_t n = 77;
    for (const unsigned w : {1u, 8u, 13u, 32u, 64u}) {
        Rng rng(40 + w);
        const Block delta = rng.nextBlock();
        auto [cot_s, cot_r] = dealBaseCots(rng, delta, n);
        const std::vector<Block> m0 = rng.nextBlocks(n);
        const std::vector<Block> m1 = rng.nextBlocks(n);
        const BitVec choices = rng.nextBits(n);

        crypto::Crhf crhf;
        auto decode = [&](bool packed) {
            std::vector<Block> out(n);
            net::runTwoParty(
                [&](net::Channel &ch) {
                    ChosenOtScratch scratch;
                    if (packed)
                        chosenOtSendPacked(ch, crhf, m0.data(), m1.data(),
                                           n, w, delta, cot_s.q.data(),
                                           500, scratch);
                    else
                        chosenOtSend(ch, crhf, m0.data(), m1.data(), n,
                                     delta, cot_s.q.data(), 500, scratch);
                },
                [&](net::Channel &ch) {
                    ChosenOtScratch scratch;
                    if (packed)
                        chosenOtRecvPacked(ch, crhf, choices,
                                           cot_r.choice, 0,
                                           cot_r.t.data(), n, w,
                                           out.data(), 500, scratch);
                    else
                        chosenOtRecv(ch, crhf, choices, cot_r.choice, 0,
                                     cot_r.t.data(), n, out.data(), 500,
                                     scratch);
                });
            return out;
        };
        const std::vector<Block> block_out = decode(false);
        const std::vector<Block> packed_out = decode(true);
        const uint64_t mask =
            w == 64 ? ~uint64_t(0) : (uint64_t(1) << w) - 1;
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(packed_out[i],
                      Block::fromUint64(block_out[i].lo & mask))
                << "w" << w << " i=" << i;
    }
}

TEST(ChosenOtTest, ConsumesCotsAtOffset)
{
    const size_t total = 50, used = 20, offset = 17;
    Rng rng(33);
    Block delta = rng.nextBlock();
    auto [cot_s, cot_r] = dealBaseCots(rng, delta, total);

    std::vector<Block> m0 = rng.nextBlocks(used);
    std::vector<Block> m1 = rng.nextBlocks(used);
    BitVec choices = rng.nextBits(used);
    std::vector<Block> got(used);

    crypto::Crhf crhf;
    net::runTwoParty(
        [&](net::Channel &ch) {
            ChosenOtScratch scratch;
            chosenOtSend(ch, crhf, m0.data(), m1.data(), used, delta,
                         cot_s.q.data() + offset, 7, scratch);
        },
        [&](net::Channel &ch) {
            ChosenOtScratch scratch;
            chosenOtRecv(ch, crhf, choices, cot_r.choice, offset,
                         cot_r.t.data() + offset, used, got.data(), 7,
                         scratch);
        });

    for (size_t i = 0; i < used; ++i)
        EXPECT_EQ(got[i], choices.get(i) ? m1[i] : m0[i]);
}

TEST(ChosenOtTest, CotCursorGuardsExhaustion)
{
    CotCursor cursor(10);
    EXPECT_EQ(cursor.take(4), 0u);
    EXPECT_EQ(cursor.take(6), 4u);
    EXPECT_EQ(cursor.remaining(), 0u);
    EXPECT_DEATH(cursor.take(1), "exhausted");
}

TEST(BaseCotTest, DealerCorrelationHolds)
{
    Rng rng(34);
    Block delta = rng.nextBlock();
    auto [s, r] = dealBaseCots(rng, delta, 1000);
    EXPECT_TRUE(verifyCotCorrelation(s, r));
    EXPECT_EQ(s.size(), 1000u);
    // Choice bits are balanced-ish.
    EXPECT_NEAR(double(r.choice.popcount()) / 1000.0, 0.5, 0.1);
}

} // namespace
} // namespace ironman::ot
