#include "ot/lpn.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#define IRONMAN_HAVE_SSE2 1
#endif

namespace ironman::ot {

namespace {

/** AES key binding the matrix to its public seed. */
Block
matrixKey(uint64_t seed)
{
    return Block(seed ^ 0xa5a5a5a5deadbeefULL, ~seed);
}

constexpr size_t kRowsPerChunk = 256;

// ---------------------------------------------------------------------------
// Gather-XOR kernels over the lane-transposed tape
// ---------------------------------------------------------------------------

constexpr size_t kLane = LpnIndexTape::kLane;

/**
 * Software prefetch of a whole lane group's taps: the k-vector
 * gathers are the one randomly addressed stream of the kernel (the
 * tape itself is sequential — hardware prefetchers cover it), so each
 * group's d*kLane input lines are requested one group ahead of use.
 * The next group's indices are a contiguous read of the transposed
 * tape, making the address computation nearly free.
 */
inline void
prefetchGroupTaps(const Block *in, const uint32_t *group_tape,
                  unsigned d)
{
    for (unsigned i = 0; i < d; ++i) {
        const uint32_t *gi = group_tape + i * kLane;
        for (size_t x = 0; x < kLane; ++x)
            __builtin_prefetch(in + gi[x], 0, 3);
    }
}

void
gatherXorScalar(const Block *in, Block *inout, const uint32_t *tape,
                size_t row0, size_t count, unsigned d)
{
    const bool pf = detail::lpnPrefetchEnabled();
    for (size_t j = 0; j < count; ++j) {
        const size_t r = row0 + j;
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        // One group ahead, issued once per group (at its first row).
        if (pf && r % kLane == 0 && j + 2 * kLane <= count)
            prefetchGroupTaps(in, g + size_t(d) * kLane, d);
        Block acc = inout[j];
        for (unsigned i = 0; i < d; ++i)
            acc ^= in[g[i * kLane]];
        inout[j] = acc;
    }
}

#ifdef IRONMAN_HAVE_SSE2

void
gatherXorSse2(const Block *in, Block *inout, const uint32_t *tape,
              size_t row0, size_t count, unsigned d)
{
    const bool pf = detail::lpnPrefetchEnabled();
    size_t j = 0;
    // Scalar head until the row index is lane-aligned.
    while (j < count && ((row0 + j) % kLane) != 0) {
        gatherXorScalar(in, inout + j, tape, row0 + j, 1, d);
        ++j;
    }

    // Full groups: kLane independent accumulators hide the latency of
    // the randomly addressed 16-byte gathers; each tap's kLane indices
    // are one contiguous 32-byte read of the transposed tape. The next
    // group's taps are prefetched while this group's XOR chains retire.
    for (; j + kLane <= count; j += kLane) {
        const size_t r = row0 + j;
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane;
        if (pf && j + 2 * kLane <= count)
            prefetchGroupTaps(in, g + size_t(d) * kLane, d);
        __m128i acc[kLane];
        for (size_t x = 0; x < kLane; ++x)
            acc[x] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(inout + j + x));
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t *gi = g + i * kLane;
            for (size_t x = 0; x < kLane; ++x)
                acc[x] = _mm_xor_si128(
                    acc[x], _mm_loadu_si128(
                                reinterpret_cast<const __m128i *>(
                                    in + gi[x])));
        }
        for (size_t x = 0; x < kLane; ++x)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(inout + j + x),
                             acc[x]);
    }

    if (j < count)
        gatherXorScalar(in, inout + j, tape, row0 + j, count - j, d);
}

#endif // IRONMAN_HAVE_SSE2

// ---------------------------------------------------------------------------
// Bit gather-XOR kernels (the tape path of encodeBits)
// ---------------------------------------------------------------------------

/** Scalar reference: one row at a time over the packed words. */
void
bitGatherScalar(const uint64_t *in, uint64_t *inout, const uint32_t *tape,
                size_t rows, unsigned d)
{
    for (size_t r = 0; r < rows; ++r) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        uint64_t bit = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t idx = g[i * kLane];
            bit ^= (in[idx >> 6] >> (idx & 63)) & 1;
        }
        inout[r >> 6] ^= bit << (r & 63);
    }
}

/**
 * Word-at-a-time kernel: each 8-row lane group accumulates its result
 * bits in a register and lands as ONE byte XOR — no per-bit get/set.
 */
void
bitGatherWords(const uint64_t *in, uint64_t *inout, const uint32_t *tape,
               size_t rows, unsigned d)
{
    static_assert(kLane == 8, "one lane group == one output byte");
    uint8_t *out_bytes = reinterpret_cast<uint8_t *>(inout);
    size_t r = 0;
    for (; r + kLane <= rows; r += kLane) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane;
        unsigned acc = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t *gi = g + i * kLane;
            for (size_t x = 0; x < kLane; ++x)
                acc ^= unsigned((in[gi[x] >> 6] >> (gi[x] & 63)) & 1)
                       << x;
        }
        out_bytes[r / 8] ^= uint8_t(acc);
    }
    for (; r < rows; ++r) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        uint64_t bit = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t idx = g[i * kLane];
            bit ^= (in[idx >> 6] >> (idx & 63)) & 1;
        }
        inout[r >> 6] ^= bit << (r & 63);
    }
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

using GatherFn = void (*)(const Block *, Block *, const uint32_t *,
                          size_t, size_t, unsigned);
using BitGatherFn = void (*)(const uint64_t *, uint64_t *,
                             const uint32_t *, size_t, unsigned);

std::atomic<LpnKernel> gatherKernelMode{LpnKernel::Auto};

/** Prefetch pinning: -1 = auto (calibrated), 0 = off, 1 = on. */
std::atomic<int> gatherPrefetchMode{-1};

#ifdef IRONMAN_HAVE_SSE2

/**
 * Measure the two AVX2 block kernels on a synthetic tape and keep the
 * faster: vpgatherqq beats the vinserti128 pair on some cores and
 * loses on others, so Auto decides per CPU, once per process (during
 * engine warm-up — the scratch buffers here are freed immediately).
 */
GatherFn
calibrateAvx2Kernel()
{
    constexpr size_t k = 2048, rows = 4096;
    constexpr unsigned d = 10;
    std::vector<Block> in(k), a(rows), b(rows);
    std::vector<uint32_t> tape((rows / kLane) * d * kLane);
    uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (Block &blk : in) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        blk = Block(s, ~s);
    }
    for (uint32_t &t : tape) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        t = uint32_t(s >> 33) % k;
    }
    auto time = [&](GatherFn fn, Block *rows_buf) {
        uint64_t best = ~0ULL;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            fn(in.data(), rows_buf, tape.data(), 0, rows, d);
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best, uint64_t(std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(t1 - t0)
                                   .count()));
        }
        return best;
    };
    const uint64_t insert = time(&detail::lpnGatherXorAvx2, a.data());
    const uint64_t gather =
        time(&detail::lpnGatherXorAvx2Gather, b.data());
    return gather < insert ? &detail::lpnGatherXorAvx2Gather
                           : &detail::lpnGatherXorAvx2;
}

#endif // IRONMAN_HAVE_SSE2

/** Auto-mode prefetch verdict: -1 = not yet measured, 0/1 = off/on. */
std::atomic<int> prefetchAutoResult{-1};

#ifdef IRONMAN_HAVE_SSE2

/**
 * Measure the chosen kernel with tap prefetch on vs off and keep the
 * winner, once per process. The synthetic k-vector is 2 MB — sized
 * like the paper sets' LPN input (past L1/L2 on most parts), unlike
 * the deliberately small kernel-calibration tape: prefetch only earns
 * its uops when the taps actually miss, so it must be judged at a
 * realistic working-set size.
 */
void
ensurePrefetchCalibrated(GatherFn fn)
{
    if (prefetchAutoResult.load(std::memory_order_relaxed) >= 0)
        return;
    static std::once_flag flag;
    std::call_once(flag, [fn] {
        constexpr size_t k = size_t(1) << 17, rows = size_t(1) << 13;
        constexpr unsigned d = 10;
        std::vector<Block> in(k), buf(rows);
        std::vector<uint32_t> tape((rows / kLane) * d * kLane);
        uint64_t s = 0x243f6a8885a308d3ULL;
        for (Block &blk : in) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            blk = Block(s, ~s);
        }
        for (uint32_t &t : tape) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            t = uint32_t(s >> 33) % k;
        }
        auto time_mode = [&](int mode) {
            gatherPrefetchMode.store(mode, std::memory_order_relaxed);
            uint64_t best = ~0ULL;
            for (int rep = 0; rep < 3; ++rep) {
                const auto t0 = std::chrono::steady_clock::now();
                fn(in.data(), buf.data(), tape.data(), 0, rows, d);
                const auto t1 = std::chrono::steady_clock::now();
                best = std::min(
                    best,
                    uint64_t(std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(t1 - t0)
                                 .count()));
            }
            return best;
        };
        // The timing loop pins the global mode; put back whatever was
        // there before (a caller's explicit setPrefetch pin survives
        // calibration — only the Auto verdict is updated).
        const int prior =
            gatherPrefetchMode.load(std::memory_order_relaxed);
        const uint64_t off = time_mode(0);
        const uint64_t on = time_mode(1);
        gatherPrefetchMode.store(prior, std::memory_order_relaxed);
        prefetchAutoResult.store(on < off ? 1 : 0,
                                 std::memory_order_relaxed);
    });
}

#endif // IRONMAN_HAVE_SSE2

GatherFn
pickAutoKernel()
{
#ifdef IRONMAN_HAVE_SSE2
    if (detail::lpnAvx2Supported()) {
        static const GatherFn best = calibrateAvx2Kernel();
        ensurePrefetchCalibrated(best);
        return best;
    }
    ensurePrefetchCalibrated(&gatherXorSse2);
    return &gatherXorSse2;
#else
    // Scalar-only platform: prefetch stays off until pinned.
    return &gatherXorScalar;
#endif
}

GatherFn
activeGatherKernel()
{
    switch (gatherKernelMode.load(std::memory_order_relaxed)) {
      case LpnKernel::Scalar:
        return &gatherXorScalar;
#ifdef IRONMAN_HAVE_SSE2
      case LpnKernel::Sse2:
        return &gatherXorSse2;
      case LpnKernel::Avx2:
        if (detail::lpnAvx2Supported())
            return &detail::lpnGatherXorAvx2;
        break;
      case LpnKernel::Avx2Gather:
        if (detail::lpnAvx2Supported())
            return &detail::lpnGatherXorAvx2Gather;
        break;
#endif
      default:
        break;
    }
    return pickAutoKernel();
}

BitGatherFn
activeBitKernel()
{
    switch (gatherKernelMode.load(std::memory_order_relaxed)) {
      case LpnKernel::Scalar:
        return &bitGatherScalar;
      case LpnKernel::Sse2:
        return &bitGatherWords;
      default:
        break;
    }
#ifdef IRONMAN_HAVE_SSE2
    if (detail::lpnAvx2Supported())
        return &detail::lpnBitGatherXorAvx2;
#endif
    return &bitGatherWords;
}

} // namespace

void
LpnEncoder::setKernel(LpnKernel kernel)
{
    gatherKernelMode.store(kernel, std::memory_order_relaxed);
}

void
LpnEncoder::setPrefetch(bool on)
{
    gatherPrefetchMode.store(on ? 1 : 0, std::memory_order_relaxed);
}

void
LpnEncoder::setPrefetchAuto()
{
    gatherPrefetchMode.store(-1, std::memory_order_relaxed);
}

bool
detail::lpnPrefetchEnabled()
{
    const int mode = gatherPrefetchMode.load(std::memory_order_relaxed);
    if (mode >= 0)
        return mode != 0;
    // Auto: the calibrated verdict; off while (or until) calibrating.
    return prefetchAutoResult.load(std::memory_order_relaxed) == 1;
}

void
LpnEncoder::forceScalarKernel(bool force)
{
    setKernel(force ? LpnKernel::Scalar : LpnKernel::Auto);
}

const char *
LpnEncoder::activeKernelName()
{
    const GatherFn fn = activeGatherKernel();
    if (fn == &gatherXorScalar)
        return "scalar";
#ifdef IRONMAN_HAVE_SSE2
    if (fn == &gatherXorSse2)
        return "sse2";
    if (fn == &detail::lpnGatherXorAvx2)
        return "avx2-insert";
    if (fn == &detail::lpnGatherXorAvx2Gather)
        return "avx2-vpgatherqq";
#endif
    return "?";
}

LpnEncoder::LpnEncoder(const LpnParams &params) : p(params)
{
    IRONMAN_CHECK(p.n > 0 && p.k > 1 && p.d >= 1);
    IRONMAN_CHECK(p.d <= 12, "3 AES calls supply at most 12 indices");
}

void
LpnEncoder::rowIndices(uint64_t row, uint32_t *out) const
{
    LpnEncodeScratch scratch;
    rowIndicesBatch(row, 1, out, scratch);
}

void
LpnEncoder::rowIndicesBatch(uint64_t row0, size_t count, uint32_t *out,
                            LpnEncodeScratch &scratch) const
{
    // The index tape is AES_key(row * 3 + c) for c < 3, expressed as a
    // counter expansion of the per-row seed block row * 3.
    if (!scratch.gen || scratch.genSeed != p.seed) {
        scratch.gen = crypto::makeCtrExpander(matrixKey(p.seed),
                                              aesCallsPerRow);
        scratch.genSeed = p.seed;
    }
    if (scratch.seeds.size() < count)
        scratch.seeds.resize(count);
    if (scratch.ks.size() < count * aesCallsPerRow)
        scratch.ks.resize(count * aesCallsPerRow);

    for (size_t r = 0; r < count; ++r)
        scratch.seeds[r] =
            Block::fromUint64((row0 + r) * aesCallsPerRow);
    scratch.gen->expand(scratch.seeds.data(), scratch.ks.data(), count,
                        aesCallsPerRow);

    for (size_t r = 0; r < count; ++r) {
        uint32_t words[aesCallsPerRow * 4];
        for (unsigned c = 0; c < aesCallsPerRow; ++c) {
            const Block &b = scratch.ks[r * aesCallsPerRow + c];
            words[4 * c + 0] = uint32_t(b.lo);
            words[4 * c + 1] = uint32_t(b.lo >> 32);
            words[4 * c + 2] = uint32_t(b.hi);
            words[4 * c + 3] = uint32_t(b.hi >> 32);
        }
        for (unsigned i = 0; i < p.d; ++i)
            out[r * p.d + i] = words[i] % uint32_t(p.k);
    }
}

void
LpnEncoder::encodeBlocks(const Block *in, Block *inout, uint64_t row0,
                         size_t count, LpnEncodeScratch &scratch) const
{
    if (scratch.idx.size() < kRowsPerChunk * p.d)
        scratch.idx.resize(kRowsPerChunk * p.d);
    uint32_t *idx = scratch.idx.data();
    for (size_t done = 0; done < count; done += kRowsPerChunk) {
        size_t chunk = std::min(kRowsPerChunk, count - done);
        rowIndicesBatch(row0 + done, chunk, idx, scratch);
        for (size_t r = 0; r < chunk; ++r) {
            Block acc = inout[done + r];
            const uint32_t *row_idx = &idx[r * p.d];
            for (unsigned i = 0; i < p.d; ++i)
                acc ^= in[row_idx[i]];
            inout[done + r] = acc;
        }
    }
}

void
LpnEncoder::encodeBlocksPool(const Block *in, Block *inout, size_t count,
                             common::ThreadPool &pool,
                             LpnEncodeScratch *scratch) const
{
    pool.parallelFor(count, [&](int worker, size_t lo, size_t hi) {
        encodeBlocks(in, inout + lo, lo, hi - lo, scratch[worker]);
    });
}

void
LpnEncoder::buildTape(LpnIndexTape &tape, size_t rows,
                      common::ThreadPool &pool,
                      LpnEncodeScratch *scratch) const
{
    if (tape.ready() && tape.builtFor == p && tape.rows >= rows)
        return;

    const size_t groups = (rows + kLane - 1) / kLane;
    tape.idx.assign(groups * p.d * kLane, 0);
    tape.rows = rows;
    tape.builtFor = p;
    uint32_t *out = tape.idx.data();

    // Unpack + `% k` reduce each row exactly once, transposing into
    // the lane layout as we go. Chunked so the row-major staging stays
    // in the per-worker scratch.
    constexpr size_t kChunkGroups = kRowsPerChunk / kLane;
    pool.parallelFor(groups, [&](int worker, size_t glo, size_t ghi) {
        LpnEncodeScratch &sc = scratch[worker];
        for (size_t g0 = glo; g0 < ghi; g0 += kChunkGroups) {
            const size_t gcnt = std::min(kChunkGroups, ghi - g0);
            const size_t row0 = g0 * kLane;
            const size_t cnt =
                std::min(gcnt * kLane, rows - std::min(rows, row0));
            if (cnt == 0)
                continue;
            if (sc.idx.size() < kRowsPerChunk * p.d)
                sc.idx.resize(kRowsPerChunk * p.d);
            rowIndicesBatch(row0, cnt, sc.idx.data(), sc);
            for (size_t r = 0; r < cnt; ++r) {
                const size_t gr = row0 + r;
                uint32_t *dst = out + (gr / kLane) * p.d * kLane +
                                (gr % kLane);
                for (unsigned i = 0; i < p.d; ++i)
                    dst[i * kLane] = sc.idx[r * p.d + i];
            }
        }
    });
}

void
LpnEncoder::encodeBlocksTape(const Block *in, Block *inout, uint64_t row0,
                             size_t count, const LpnIndexTape &tape) const
{
    IRONMAN_CHECK(tape.ready() && tape.builtFor == p,
                  "tape built for different LPN params");
    IRONMAN_CHECK(row0 + count <= tape.rows, "tape too short");
    activeGatherKernel()(in, inout, tape.idx.data(), row0, count, p.d);
}

void
LpnEncoder::encodeBlocksTapePool(const Block *in, Block *inout,
                                 size_t count, const LpnIndexTape &tape,
                                 common::ThreadPool &pool) const
{
    pool.parallelFor(count, [&](int, size_t lo, size_t hi) {
        encodeBlocksTape(in, inout + lo, lo, hi - lo, tape);
    });
}

void
LpnEncoder::encodeBits(const BitVec &in, BitVec &inout,
                       LpnEncodeScratch &scratch) const
{
    IRONMAN_CHECK(in.size() == p.k && inout.size() == p.n);
    if (scratch.idx.size() < kRowsPerChunk * p.d)
        scratch.idx.resize(kRowsPerChunk * p.d);
    uint32_t *idx = scratch.idx.data();
    for (size_t done = 0; done < p.n; done += kRowsPerChunk) {
        size_t chunk = std::min(kRowsPerChunk, p.n - done);
        rowIndicesBatch(done, chunk, idx, scratch);
        for (size_t r = 0; r < chunk; ++r) {
            bool acc = inout.get(done + r);
            for (unsigned i = 0; i < p.d; ++i)
                acc ^= in.get(idx[r * p.d + i]);
            inout.set(done + r, acc);
        }
    }
}

void
LpnEncoder::encodeBitsTape(const BitVec &in, BitVec &inout,
                           const LpnIndexTape &tape,
                           common::ThreadPool &pool) const
{
    IRONMAN_CHECK(in.size() == p.k && inout.size() == p.n);
    IRONMAN_CHECK(tape.ready() && tape.builtFor == p &&
                      tape.rows >= p.n,
                  "tape too short for bit encode");
    static_assert(64 % kLane == 0, "word ranges must be lane-aligned");
    const BitGatherFn kernel = activeBitKernel();
    const uint64_t *in_words = in.rawWords().data();
    uint64_t *out_words = inout.rawWords().data();
    const uint32_t *tape_idx = tape.idx.data();
    // Partition output WORDS, not rows: a range of whole 64-bit words
    // is also whole lane groups, so row lo's group starts at tape
    // offset lo * d and no two threads write the same word.
    pool.parallelFor((p.n + 63) / 64, [&](int, size_t wlo, size_t whi) {
        const size_t lo = wlo * 64;
        const size_t hi = std::min(p.n, whi * 64);
        kernel(in_words, out_words + wlo, tape_idx + lo * p.d, hi - lo,
               p.d);
    });
}

} // namespace ironman::ot
