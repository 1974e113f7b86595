/**
 * @file
 * LPN encoder tests: determinism, agreement with a dense GF(2)
 * reference, parallel == serial, SIMD/tape == scalar streaming, and
 * preservation of the COT correlation through the encoding
 * (invariant 4 of DESIGN.md).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ot/base_cot.h"
#include "ot/lpn.h"

namespace ironman::ot {
namespace {

LpnParams
smallParams()
{
    LpnParams p;
    p.n = 4096;
    p.k = 512;
    p.d = 10;
    p.seed = 77;
    return p;
}

TEST(LpnTest, IndicesDeterministicAndInRange)
{
    LpnEncoder a(smallParams());
    LpnEncoder b(smallParams());
    std::vector<uint32_t> ia(10), ib(10);
    for (uint64_t row : {0ULL, 1ULL, 4095ULL}) {
        a.rowIndices(row, ia.data());
        b.rowIndices(row, ib.data());
        EXPECT_EQ(ia, ib);
        for (uint32_t idx : ia)
            EXPECT_LT(idx, 512u);
    }
}

TEST(LpnTest, SeedChangesMatrix)
{
    LpnParams p1 = smallParams();
    LpnParams p2 = smallParams();
    p2.seed = 78;
    LpnEncoder a(p1), b(p2);
    std::vector<uint32_t> ia(10), ib(10);
    int diffs = 0;
    for (uint64_t row = 0; row < 64; ++row) {
        a.rowIndices(row, ia.data());
        b.rowIndices(row, ib.data());
        diffs += (ia != ib);
    }
    EXPECT_GT(diffs, 60);
}

TEST(LpnTest, BatchIndicesMatchSingle)
{
    LpnEncoder enc(smallParams());
    const size_t rows = 300;
    std::vector<uint32_t> batch(rows * 10);
    LpnEncodeScratch scratch;
    enc.rowIndicesBatch(5, rows, batch.data(), scratch);
    std::vector<uint32_t> one(10);
    for (size_t r = 0; r < rows; ++r) {
        enc.rowIndices(5 + r, one.data());
        for (unsigned i = 0; i < 10; ++i)
            EXPECT_EQ(batch[r * 10 + i], one[i]) << "row " << r;
    }
}

TEST(LpnTest, IndicesRoughlyUniformOverColumns)
{
    LpnParams p = smallParams();
    LpnEncoder enc(p);
    std::vector<uint32_t> hist(p.k, 0);
    std::vector<uint32_t> idx(p.n * p.d);
    LpnEncodeScratch scratch;
    enc.rowIndicesBatch(0, p.n, idx.data(), scratch);
    for (uint32_t i : idx)
        hist[i]++;
    // n*d / k = 80 expected hits per column.
    double expect = double(p.n) * p.d / p.k;
    size_t extreme = 0;
    for (uint32_t h : hist)
        extreme += (h < expect / 3 || h > expect * 3);
    EXPECT_LT(extreme, p.k / 100); // <1% pathological columns
}

TEST(LpnTest, EncodeMatchesDenseReference)
{
    LpnParams p;
    p.n = 256;
    p.k = 64;
    p.d = 10;
    p.seed = 5;
    LpnEncoder enc(p);

    Rng rng(50);
    std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> base = rng.nextBlocks(p.n); // SPCOT contribution

    // Dense reference: build A explicitly (note duplicate indices in a
    // row cancel over GF(2) — the reference must reproduce that).
    std::vector<Block> expect = base;
    std::vector<uint32_t> idx(p.d);
    for (size_t j = 0; j < p.n; ++j) {
        enc.rowIndices(j, idx.data());
        std::vector<int> col_count(p.k, 0);
        for (uint32_t i : idx)
            col_count[i] ^= 1;
        for (size_t c = 0; c < p.k; ++c)
            if (col_count[c])
                expect[j] ^= in[c];
    }

    std::vector<Block> got = base;
    LpnEncodeScratch scratch;
    enc.encodeBlocks(in.data(), got.data(), 0, p.n, scratch);
    EXPECT_EQ(got, expect);
}

TEST(LpnTest, PoolParallelMatchesSerial)
{
    LpnParams p = smallParams();
    LpnEncoder enc(p);
    Rng rng(51);
    std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> serial = rng.nextBlocks(p.n);
    std::vector<Block> parallel = serial;

    LpnEncodeScratch scratch;
    enc.encodeBlocks(in.data(), serial.data(), 0, p.n, scratch);

    common::ThreadPool pool(4);
    std::vector<LpnEncodeScratch> scratches(pool.threads());
    enc.encodeBlocksPool(in.data(), parallel.data(), p.n, pool,
                         scratches.data());
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Tape + SIMD kernels
// ---------------------------------------------------------------------------

/**
 * Holds LpnEncoder::forceScalarKernel(@p force) for one scope, so a
 * failed ASSERT cannot leak the scalar route into later tests. Every
 * kernel test runs twice: CPU dispatch, then the portable kernels.
 */
struct KernelPass
{
    explicit KernelPass(bool force) { LpnEncoder::forceScalarKernel(force); }
    ~KernelPass() { LpnEncoder::forceScalarKernel(false); }
};

/**
 * The tape path (precomputed transposed indices + gather-XOR kernel)
 * must be bit-identical to the streaming scalar encoder under
 * randomized seeds, with the SIMD kernel dispatched and with it forced
 * off (scalar tape walk), at unaligned row offsets, and through the
 * pool.
 */
TEST(LpnTapeTest, TapeEncodeMatchesStreamingUnderRandomSeeds)
{
    Rng meta_rng(900);
    common::ThreadPool pool(3);
    for (int trial = 0; trial < 6; ++trial) {
        LpnParams p;
        p.n = 1000 + meta_rng.nextBelow(3000);
        p.k = 128 + meta_rng.nextBelow(900);
        p.d = 4 + unsigned(meta_rng.nextBelow(8));
        p.seed = meta_rng.nextUint64();
        LpnEncoder enc(p);

        Rng rng(901 + trial);
        std::vector<Block> in = rng.nextBlocks(p.k);
        std::vector<Block> base = rng.nextBlocks(p.n);

        std::vector<Block> expect = base;
        LpnEncodeScratch scratch;
        enc.encodeBlocks(in.data(), expect.data(), 0, p.n, scratch);

        std::vector<LpnEncodeScratch> scratches(pool.threads());
        LpnIndexTape tape;
        enc.buildTape(tape, p.n, pool, scratches.data());

        // Unaligned sub-range (exercises the head/tail handling).
        const size_t row0 = 1 + meta_rng.nextBelow(61);
        const size_t count = p.n - row0 - meta_rng.nextBelow(7);

        for (bool scalar : {false, true}) {
            KernelPass pass(scalar);

            std::vector<Block> full = base;
            enc.encodeBlocksTape(in.data(), full.data(), 0, p.n, tape);
            EXPECT_EQ(full, expect)
                << "trial " << trial << " scalar " << scalar;

            std::vector<Block> sub(base.begin() + row0,
                                   base.begin() + row0 + count);
            enc.encodeBlocksTape(in.data(), sub.data(), row0, count, tape);
            for (size_t j = 0; j < count; ++j)
                ASSERT_EQ(sub[j], expect[row0 + j])
                    << "trial " << trial << " scalar " << scalar
                    << " row " << row0 + j;

            std::vector<Block> pooled = base;
            enc.encodeBlocksTapePool(in.data(), pooled.data(), p.n, tape,
                                     pool);
            EXPECT_EQ(pooled, expect)
                << "trial " << trial << " scalar " << scalar;
        }
    }
}

/**
 * Kernel choice is fixed by the build target and CPUID, never by a
 * timing sample: the block kernel name is the same on every call and
 * from concurrent threads, and it is SSE2 on every x86 CPU (SSE2 is the
 * x86-64 baseline, so AVX2 support does not change it).
 */
TEST(LpnTapeTest, KernelChoiceIsFixedByBuildAndCpuid)
{
#if defined(__x86_64__) || defined(__i386__)
    const std::string expect = "sse2";
#else
    const std::string expect = "scalar";
#endif
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(LpnEncoder::activeKernelName(), expect);

    std::vector<std::string> seen(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&seen, t] {
            std::string name = LpnEncoder::activeKernelName();
            for (int i = 0; i < 100; ++i)
                if (name != LpnEncoder::activeKernelName())
                    name = "changed";
            seen[t] = name;
        });
    for (std::thread &th : threads)
        th.join();
    for (const std::string &name : seen)
        EXPECT_EQ(name, expect);

    {
        KernelPass pass(true);
        EXPECT_STREQ(LpnEncoder::activeKernelName(), "scalar");
    }
    EXPECT_EQ(LpnEncoder::activeKernelName(), expect);
}

TEST(LpnTapeTest, TapeBuildDeterministicAcrossThreadCounts)
{
    LpnParams p = smallParams();
    LpnEncoder enc(p);

    common::ThreadPool pool1(1), pool4(4);
    std::vector<LpnEncodeScratch> s1(pool1.threads());
    std::vector<LpnEncodeScratch> s4(pool4.threads());
    LpnIndexTape t1, t4;
    enc.buildTape(t1, p.n, pool1, s1.data());
    enc.buildTape(t4, p.n, pool4, s4.data());
    EXPECT_EQ(t1.idx, t4.idx);
}

TEST(LpnTapeTest, BitEncodeTapeMatchesStreaming)
{
    LpnParams p;
    p.n = 2048;
    p.k = 256;
    p.seed = 21;
    LpnEncoder enc(p);

    Rng rng(55);
    BitVec in = rng.nextBits(p.k);
    BitVec base = rng.nextBits(p.n);

    BitVec expect = base;
    LpnEncodeScratch scratch;
    enc.encodeBits(in, expect, scratch);

    common::ThreadPool pool(1);
    LpnIndexTape tape;
    enc.buildTape(tape, p.n, pool, &scratch);
    BitVec got = base;
    enc.encodeBitsTape(in, got, tape, pool);
    EXPECT_EQ(got, expect);
}

/**
 * The bit kernels (AVX2 vpgatherdd where dispatched, word-at-a-time
 * groups when forced scalar) must be bit-identical to the streaming
 * scalar bit encode under random seeds and sizes, including n % 8 != 0
 * tails.
 */
TEST(LpnTapeTest, BitEncodeSimdMatchesScalarUnderRandomSeeds)
{
    Rng meta_rng(910);
    common::ThreadPool pool(2);
    for (int trial = 0; trial < 6; ++trial) {
        LpnParams p;
        p.n = 500 + meta_rng.nextBelow(4000); // tails exercised
        p.k = 64 + meta_rng.nextBelow(700);
        p.d = 4 + unsigned(meta_rng.nextBelow(8));
        p.seed = meta_rng.nextUint64();
        LpnEncoder enc(p);

        Rng rng(911 + trial);
        BitVec in = rng.nextBits(p.k);
        BitVec base = rng.nextBits(p.n);

        BitVec expect = base;
        LpnEncodeScratch scratch;
        enc.encodeBits(in, expect, scratch);

        std::vector<LpnEncodeScratch> scratches(pool.threads());
        LpnIndexTape tape;
        enc.buildTape(tape, p.n, pool, scratches.data());

        for (bool scalar : {false, true}) {
            KernelPass pass(scalar);
            BitVec got = base;
            enc.encodeBitsTape(in, got, tape, pool);
            EXPECT_EQ(got, expect)
                << "trial " << trial << " scalar " << scalar;
        }
    }
}

/**
 * Pooled bit-LPN splits rows in 64-row (one output word) ranges: at
 * every thread count and through both kernel passes it must match
 * the one-thread encode, including an n % 64 != 0 tail and an n so
 * small that some threads get an empty range.
 */
TEST(LpnTapeTest, BitEncodePoolMatchesSerialAtAnyThreadCount)
{
    for (size_t n : {size_t(100), size_t(3001)}) {
        LpnParams p;
        p.n = n;
        p.k = 333;
        p.d = 7;
        p.seed = 4040 + n;
        LpnEncoder enc(p);

        Rng rng(77 + n);
        BitVec in = rng.nextBits(p.k);
        BitVec base = rng.nextBits(p.n);

        common::ThreadPool serial(1);
        LpnEncodeScratch scratch;
        LpnIndexTape tape;
        enc.buildTape(tape, p.n, serial, &scratch);

        BitVec reference = base;
        enc.encodeBits(in, reference, scratch);

        for (bool scalar : {false, true}) {
            KernelPass pass(scalar);
            BitVec expect = base;
            enc.encodeBitsTape(in, expect, tape, serial);
            EXPECT_EQ(expect, reference)
                << "n " << n << " scalar " << scalar;
            for (int threads : {2, 3, 4}) {
                common::ThreadPool pool(threads);
                BitVec pooled = base;
                enc.encodeBitsTape(in, pooled, tape, pool);
                EXPECT_EQ(pooled, expect) << "n " << n << " scalar "
                                          << scalar << " threads "
                                          << threads;
            }
        }
    }
}

TEST(LpnTest, BitEncodeMatchesBlockEncodeOnLsb)
{
    // Encoding bits must be the GF(2) projection of encoding blocks.
    LpnParams p;
    p.n = 512;
    p.k = 128;
    p.seed = 9;
    LpnEncoder enc(p);

    Rng rng(52);
    BitVec in_bits = rng.nextBits(p.k);
    BitVec base_bits = rng.nextBits(p.n);

    std::vector<Block> in_blocks(p.k), base_blocks(p.n);
    for (size_t i = 0; i < p.k; ++i)
        in_blocks[i] = Block::fromUint64(in_bits.get(i));
    for (size_t j = 0; j < p.n; ++j)
        base_blocks[j] = Block::fromUint64(base_bits.get(j));

    BitVec got_bits = base_bits;
    LpnEncodeScratch scratch;
    enc.encodeBits(in_bits, got_bits, scratch);
    enc.encodeBlocks(in_blocks.data(), base_blocks.data(), 0, p.n,
                     scratch);

    for (size_t j = 0; j < p.n; ++j)
        EXPECT_EQ(got_bits.get(j), base_blocks[j].lsb()) << "row " << j;
}

TEST(LpnTest, EncodingPreservesCotCorrelation)
{
    // r = s ^ e*Delta per entry  =>  r*A ^ w = (s*A ^ v) ^ (e*A ^ u)*Delta
    // when w = v ^ u*Delta: the linearity invariant Ferret relies on.
    LpnParams p;
    p.n = 2048;
    p.k = 256;
    p.seed = 13;
    LpnEncoder enc(p);

    Rng rng(53);
    Block delta = rng.nextBlock();

    // LPN inputs: k COTs.
    auto [in_s, in_r] = dealBaseCots(rng, delta, p.k);

    // SPCOT outputs: a synthetic one-hot-free correlation w = v ^ u*Delta.
    BitVec u = rng.nextBits(p.n);
    std::vector<Block> v = rng.nextBlocks(p.n);
    std::vector<Block> w(p.n);
    for (size_t j = 0; j < p.n; ++j)
        w[j] = v[j] ^ scalarMul(u.get(j), delta);

    // Sender: z = r*A ^ w.
    LpnEncodeScratch scratch;
    std::vector<Block> z = w;
    enc.encodeBlocks(in_s.q.data(), z.data(), 0, p.n, scratch);

    // Receiver: x = e*A ^ u, y = s*A ^ v.
    BitVec x = u;
    enc.encodeBits(in_r.choice, x, scratch);
    std::vector<Block> y = v;
    enc.encodeBlocks(in_r.t.data(), y.data(), 0, p.n, scratch);

    for (size_t j = 0; j < p.n; ++j)
        EXPECT_EQ(z[j] ^ scalarMul(x.get(j), delta), y[j]) << "row " << j;
}

} // namespace
} // namespace ironman::ot
