#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace ironman::common {

ThreadPool::ThreadPool(int threads)
{
    resize(threads);
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &w : workers)
        w.join();
    workers.clear();
    stopping = false;
}

void
ThreadPool::resize(int threads)
{
    int want = std::max(threads, 1) - 1; // workers beside the caller
    if (want == int(workers.size()))
        return;
    stopWorkers();
    workers.reserve(want);
    // Capture the current generation at spawn time: a worker must
    // neither replay the job that ran before the resize (its ctx
    // frame is gone) nor read jobGen so late that it misses the next
    // one. resize() never races run(), so jobGen is stable here.
    for (int id = 1; id <= want; ++id)
        workers.emplace_back(
            [this, id, gen = jobGen] { workerMain(id, gen); });
}

void
ThreadPool::run(size_t count, RangeFn fn, void *ctx)
{
    if (count == 0)
        return;
    // asyncPending is only ever toggled by the owning thread (the one
    // allowed to call run/runAsync/wait), so this unlocked check is
    // safe — and it must cover the inline fast path too.
    IRONMAN_CHECK(!asyncPending,
                  "ThreadPool::run while an async job is pending");
    const int n = threads();
    if (n == 1 || count == 1) {
        fn(ctx, 0, 0, count);
        return;
    }

    const size_t per = (count + n - 1) / n;
    {
        std::lock_guard<std::mutex> lock(mutex);
        IRONMAN_CHECK(pending == 0, "reentrant ThreadPool::run");
        jobFn = fn;
        jobCtx = ctx;
        jobCount = count;
        jobPer = per;
        jobAsync = false;
        pending = workers.size();
        ++jobGen;
    }
    cvStart.notify_all();

    // Worker 0 is the calling thread.
    fn(ctx, 0, 0, std::min(per, count));

    std::unique_lock<std::mutex> lock(mutex);
    cvDone.wait(lock, [this] { return pending == 0; });
}

void
ThreadPool::runAsync(size_t count, RangeFn fn, void *ctx)
{
    if (count == 0)
        return;
    if (workers.empty()) {
        // Degenerate pipeline: no background workers, run inline so
        // the caller's subsequent wait() is a no-op.
        fn(ctx, 0, 0, count);
        return;
    }

    const size_t slices = size_t(threads()) * kAsyncChunksPerThread;
    const size_t per = (count + slices - 1) / slices;
    {
        std::lock_guard<std::mutex> lock(mutex);
        IRONMAN_CHECK(pending == 0 && !asyncPending,
                      "ThreadPool::runAsync while a job is pending");
        jobFn = fn;
        jobCtx = ctx;
        jobCount = count;
        jobPer = per;
        jobChunks = (count + per - 1) / per;
        jobAsync = true;
        nextChunk.store(0, std::memory_order_relaxed);
        pending = workers.size();
        asyncPending = true;
        ++jobGen;
    }
    cvStart.notify_all();
}

void
ThreadPool::drainChunks(int worker)
{
    // Each claimed index is one fixed row range, so which thread runs
    // it never changes what is written. The job fields were published
    // under the mutex before the generation bump the caller of this
    // function synchronized on, and stay fixed until pending drops to
    // zero.
    for (;;) {
        const size_t c = nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= jobChunks)
            return;
        const size_t begin = c * jobPer;
        jobFn(jobCtx, worker, begin, std::min(jobCount, begin + jobPer));
    }
}

void
ThreadPool::wait()
{
    if (!asyncPending)
        return;
    drainChunks(0);
    std::unique_lock<std::mutex> lock(mutex);
    cvDone.wait(lock, [this] { return pending == 0; });
    asyncPending = false;
}

void
ThreadPool::workerMain(int id, uint64_t seen)
{
    for (;;) {
        RangeFn fn;
        void *ctx;
        size_t count, per;
        bool async;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cvStart.wait(lock,
                         [&] { return stopping || jobGen != seen; });
            if (stopping)
                return;
            seen = jobGen;
            fn = jobFn;
            ctx = jobCtx;
            count = jobCount;
            per = jobPer;
            async = jobAsync;
        }

        if (async) {
            drainChunks(id);
        } else {
            size_t begin = std::min(count, size_t(id) * per);
            size_t end = std::min(count, begin + per);
            if (begin < end)
                fn(ctx, id, begin, end);
        }

        {
            std::lock_guard<std::mutex> lock(mutex);
            --pending;
        }
        cvDone.notify_all();
    }
}

} // namespace ironman::common
