/**
 * @file
 * Fixed-size worker pool for deterministic data-parallel loops.
 *
 * The OTE hot path (batch-SPCOT tree expansion, LPN gather-XOR) is
 * embarrassingly parallel over disjoint output ranges, but spawning
 * std::threads per call costs both latency and heap allocations. This
 * pool follows the stage/work-queue idiom of the pipelined-simulator
 * exemplar: N-1 persistent workers plus the calling thread. run()
 * hands each thread one contiguous range; runAsync() cuts the job into
 * a fixed number of chunks that the workers claim from an atomic
 * cursor while the caller does other work, and wait() makes the caller
 * claim whatever is left before it blocks.
 *
 * Properties the protocol code relies on:
 *  - the range/chunk partition depends only on (count, threads), never
 *    on scheduling, and every range is written by exactly one thread,
 *    so parallel output is bit-identical to serial;
 *  - run()/runAsync()/wait() perform no heap allocation (jobs are a
 *    function pointer + context, not a queue of std::functions);
 *  - with threads <= 1 the pool holds no workers and runs inline.
 *
 * Jobs must not throw (protocol invariants use IRONMAN_CHECK, which
 * aborts) and must not call run() reentrantly from a worker.
 */

#ifndef IRONMAN_COMMON_THREAD_POOL_H
#define IRONMAN_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace ironman::common {

/** Persistent worker pool over disjoint row ranges. */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads = 1);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Change the worker count (joins and respawns threads). Must not
     * race with run(). No-op when the count is unchanged.
     */
    void resize(int threads);

    /** Ranges a job is split into (workers + the calling thread). */
    int threads() const { return int(workers.size()) + 1; }

    using RangeFn = void (*)(void *ctx, int worker, size_t begin,
                             size_t end);

    /**
     * Split [0, count) into threads() contiguous ranges of
     * ceil(count/threads()) and invoke fn(ctx, worker, begin, end) on
     * each non-empty one; blocks until all complete. Worker 0 runs on
     * the calling thread.
     */
    void run(size_t count, RangeFn fn, void *ctx);

    /** Sugar: parallelFor(n, [&](int worker, size_t b, size_t e) {...}). */
    template <typename F>
    void
    parallelFor(size_t count, F &&f)
    {
        run(count,
            [](void *ctx, int worker, size_t begin, size_t end) {
                (*static_cast<std::remove_reference_t<F> *>(ctx))(
                    worker, begin, end);
            },
            &f);
    }

    /** Chunks per thread of an async job (load balance vs. claims). */
    static constexpr size_t kAsyncChunksPerThread = 8;

    /**
     * Launch a job and return immediately, leaving the calling thread
     * free for other work (e.g. wire I/O of the next pipeline stage).
     * [0, count) is cut into threads() * kAsyncChunksPerThread chunks
     * of equal width (the last one shorter); the background workers
     * (ids 1..threads()-1) start claiming them at once, and wait()
     * drains the rest on the calling thread as worker 0. With no
     * workers (threads() == 1) the job runs inline before returning.
     * @p ctx and the data it references must stay alive until wait().
     * run()/parallelFor() must not be called while an async job is
     * pending.
     */
    void runAsync(size_t count, RangeFn fn, void *ctx);

    /**
     * Claim and run the pending async job's unclaimed chunks on this
     * thread, then block until the workers' chunks have completed.
     */
    void wait();

    /** Async sugar; the callable must outlive the matching wait(). */
    template <typename F>
    void
    parallelForAsync(size_t count, F &f)
    {
        runAsync(count,
                 [](void *ctx, int worker, size_t begin, size_t end) {
                     (*static_cast<F *>(ctx))(worker, begin, end);
                 },
                 &f);
    }

  private:
    void workerMain(int id, uint64_t start_gen);
    void stopWorkers();
    /** Run unclaimed chunks of the current async job as @p worker. */
    void drainChunks(int worker);

    std::vector<std::thread> workers;

    std::mutex mutex;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    uint64_t jobGen = 0;   ///< incremented per job; workers watch it
    RangeFn jobFn = nullptr;
    void *jobCtx = nullptr;
    size_t jobCount = 0;
    size_t jobPer = 0;     ///< range / chunk width
    size_t jobChunks = 0;  ///< async: chunks in the job
    bool jobAsync = false; ///< chunked split, claimed from nextChunk
    std::atomic<size_t> nextChunk{0}; ///< async: next unclaimed chunk
    size_t pending = 0;    ///< workers still running the current job
    bool asyncPending = false; ///< a runAsync() awaits wait()
    bool stopping = false;
};

} // namespace ironman::common

#endif // IRONMAN_COMMON_THREAD_POOL_H
