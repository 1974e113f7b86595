/**
 * @file
 * Reusable per-engine workspace of the OT-extension hot path.
 *
 * The historical extension path allocated fresh vector<Block> buffers
 * on every extend() call and copied through nested vector<vector<>>
 * message structures — the software bottleneck the paper's Fig. 1
 * motivation measures. OtWorkspace replaces all of that with one
 * arena of Block buffers sized once from FerretParams plus grow-only
 * protocol scratch, so a warm FerretCotSender/Receiver::extendInto()
 * performs zero heap allocations (asserted by a counting allocator in
 * tests/test_workspace_engine.cpp).
 *
 * The workspace also owns the engine's fixed ThreadPool: batch-SPCOT
 * tree expansion and the LPN gather-XOR both fan out over it with
 * deterministic range partitions, so multi-threaded output is
 * bit-identical to single-threaded.
 *
 * The arena holds the LPN row vector itself: SPCOT writes tree tr's
 * bucketSize() kept GGM leaves straight into rows [tr*bucket,
 * (tr+1)*bucket), so a row slot of t*bucket >= n blocks IS the leaf
 * matrix (DESIGN.md invariant 11; rows >= n are slack, never read).
 * The pipelined sender carves TWO row slots: while iteration i's LPN
 * encode runs in place on slot (i mod 2), iteration i+1's SPCOT
 * transcript expands into slot (i+1 mod 2). The stage-handoff
 * invariant (DESIGN.md invariant 10): transcript slot N is never
 * written while the LPN stage of slot N-1 is still reading it.
 *
 * The workspace additionally holds the engine's precomputed LPN index
 * tape (the matrix is fixed by the public seed, so the index unpack
 * and `% k` reduction happen once per engine, not once per
 * extension). Tapes above kLpnTapeBytesCap fall back to the streaming
 * encoder to bound memory on the 2^23+ parameter sets.
 */

#ifndef IRONMAN_OT_OT_WORKSPACE_H
#define IRONMAN_OT_OT_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/thread_pool.h"
#include "ot/ferret_params.h"
#include "ot/lpn.h"
#include "ot/spcot.h"

namespace ironman::ot {

/** Bump allocator over one contiguous Block buffer. */
class BlockArena
{
  public:
    /** Size the arena (one allocation) and rewind the cursor. */
    void
    reserve(size_t blocks)
    {
        storage.resize(blocks);
        next = 0;
    }

    /** Carve @p n blocks; panics on overflow (sizing bug). */
    Block *alloc(size_t n);

    void rewind() { next = 0; }

    size_t capacity() const { return storage.size(); }
    size_t used() const { return next; }

  private:
    std::vector<Block> storage;
    size_t next = 0;
};

/** All per-engine mutable state of one OTE endpoint. */
struct OtWorkspace
{
    /** Index tapes above this size fall back to streaming encode. */
    static constexpr size_t kLpnTapeBytesCap = size_t(256) << 20;

    /**
     * Arena blocks one engine role needs for @p p: @p slots row
     * slots of t*bucketSize() blocks each. The pipelined sender keeps
     * two slots (iteration i's rows encode in place while iteration
     * i+1's transcript expands into the other); the receiver needs one.
     */
    static size_t requiredBlocks(const FerretParams &p,
                                 int slots = 1);

    /**
     * (Re)size everything for @p p and @p threads. Idempotent: a
     * second call with identical arguments does nothing, so the first
     * extend() is the only warm-up.
     */
    void prepare(const FerretParams &p, int threads, int slots = 1);

    common::ThreadPool pool{1};
    BlockArena arena;
    /// Row slots of t*bucketSize() blocks: the SPCOT leaves and the
    /// LPN rows (z / y) in place; rows[1] only on the pipelined sender.
    Block *rows[2] = {nullptr, nullptr};

    SpcotWorkspace spcot;
    std::vector<LpnEncodeScratch> lpn; ///< one per pool thread
    LpnIndexTape tape;                 ///< empty when above the cap

    // Receiver-side bit staging.
    BitVec e; ///< LPN input bits
    BitVec x; ///< LPN output bits
    std::vector<size_t> alphas;

  private:
    bool ready = false;
    FerretParams preparedFor;
    int preparedThreads = 0;
    int preparedSlots = 0;
};

} // namespace ironman::ot

#endif // IRONMAN_OT_OT_WORKSPACE_H
