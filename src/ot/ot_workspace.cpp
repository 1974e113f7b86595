#include "ot/ot_workspace.h"

#include <algorithm>

#include "common/logging.h"

namespace ironman::ot {

Block *
BlockArena::alloc(size_t n)
{
    IRONMAN_CHECK(next + n <= storage.size(), "arena overflow");
    Block *p = storage.data() + next;
    next += n;
    return p;
}

namespace {

/** The fields extension sizing depends on. */
bool
sameShape(const FerretParams &a, const FerretParams &b)
{
    return a.n == b.n && a.k == b.k && a.t == b.t &&
           a.arity == b.arity && a.prg == b.prg &&
           a.lpnWeight == b.lpnWeight && a.lpnSeed == b.lpnSeed;
}

} // namespace

size_t
OtWorkspace::requiredBlocks(const FerretParams &p, int slots)
{
    return size_t(slots) * p.t * p.bucketSize();
}

void
OtWorkspace::prepare(const FerretParams &p, int threads, int slots)
{
    threads = std::max(threads, 1);
    slots = std::clamp(slots, 1, 2);
    if (ready && sameShape(preparedFor, p) &&
        preparedThreads == threads && preparedSlots == slots)
        return;

    pool.resize(threads);

    // Every tree writes its kept leaves straight into its bucket's rows
    // (invariant 11: a slot's rows may be encoded in place only after
    // its transcript stage completed, and the other slot receives the
    // next transcript).
    arena.reserve(requiredBlocks(p, slots));
    rows[0] = arena.alloc(p.t * p.bucketSize());
    rows[1] = slots == 2 ? arena.alloc(p.t * p.bucketSize())
                              : nullptr;

    // The SPCOT workspace sizes itself per role on the first
    // spcotSend*/spcotRecv* call (still warm-up, and it avoids
    // allocating the other role's buffer set).
    lpn.resize(threads);
    alphas.resize(p.t);

    ready = true;
    preparedFor = p;
    preparedThreads = threads;
    preparedSlots = slots;
}

} // namespace ironman::ot
