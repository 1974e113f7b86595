/**
 * @file
 * common::ThreadPool tests: the async split (runAsync + a caller-drained
 * wait) covers every index exactly once at any thread count, the caller
 * really claims chunks, sync jobs and resize() still work between async
 * jobs, and a warm async job performs no heap allocation (asserted by a
 * counting global allocator).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

// ---------------------------------------------------------------------------
// Counting global allocator
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocCount{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ironman::common {
namespace {

/** Per-index hit counters plus the worker-id range check. */
struct Coverage
{
    explicit Coverage(size_t count, int threads)
        : hits(count), threads(threads)
    {
    }

    std::vector<std::atomic<uint32_t>> hits;
    int threads;
    std::atomic<uint32_t> badWorker{0};

    void
    operator()(int worker, size_t begin, size_t end)
    {
        if (worker < 0 || worker >= threads)
            badWorker.fetch_add(1, std::memory_order_relaxed);
        for (size_t i = begin; i < end; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    }

    size_t
    wrongIndices() const
    {
        size_t wrong = 0;
        for (const auto &h : hits)
            wrong += h.load(std::memory_order_relaxed) != 1;
        return wrong;
    }
};

TEST(ThreadPoolTest, AsyncCoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 3, 4}) {
        ThreadPool pool(threads);
        ASSERT_EQ(pool.threads(), threads);
        const size_t odd =
            size_t(threads) * ThreadPool::kAsyncChunksPerThread + 3;
        for (size_t count : {size_t(1), size_t(7), odd, size_t(1) << 20}) {
            Coverage cov(count, threads);
            pool.parallelForAsync(count, cov);
            pool.wait();
            EXPECT_EQ(cov.wrongIndices(), 0u)
                << "threads " << threads << " count " << count;
            EXPECT_EQ(cov.badWorker.load(), 0u);
        }
    }
}

/**
 * wait() must claim chunks on the calling thread: worker chunks stall
 * until the caller has run one, so a wait() that only blocked would
 * never release them (the stall is bounded so a regression fails
 * instead of hanging).
 */
TEST(ThreadPoolTest, WaitDrainsChunksOnTheCallingThread)
{
    ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> callerRan{false};
    std::atomic<uint32_t> wrongThread{0};
    std::atomic<uint32_t> timedOut{0};

    auto job = [&](int worker, size_t, size_t) {
        const bool on_caller = std::this_thread::get_id() == caller;
        if ((worker == 0) != on_caller)
            wrongThread.fetch_add(1);
        if (worker == 0) {
            callerRan.store(true);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (!callerRan.load()) {
            if (std::chrono::steady_clock::now() > deadline) {
                timedOut.fetch_add(1);
                return;
            }
            std::this_thread::yield();
        }
    };
    pool.parallelForAsync(64, job);
    pool.wait();
    EXPECT_TRUE(callerRan.load());
    EXPECT_EQ(timedOut.load(), 0u);
    EXPECT_EQ(wrongThread.load(), 0u);
}

TEST(ThreadPoolTest, SyncJobsAndResizeBetweenAsyncJobs)
{
    ThreadPool pool(3);
    const size_t count = 1000;
    for (int threads : {3, 1, 4, 2}) {
        pool.resize(threads);
        ASSERT_EQ(pool.threads(), threads);

        Coverage async_cov(count, threads);
        pool.parallelForAsync(count, async_cov);
        pool.wait();
        EXPECT_EQ(async_cov.wrongIndices(), 0u) << "threads " << threads;

        // wait() with nothing pending is a no-op.
        pool.wait();

        Coverage sync_cov(count, threads);
        pool.parallelFor(count, [&](int w, size_t b, size_t e) {
            sync_cov(w, b, e);
        });
        EXPECT_EQ(sync_cov.wrongIndices(), 0u) << "threads " << threads;
        EXPECT_EQ(sync_cov.badWorker.load() + async_cov.badWorker.load(),
                  0u);
    }
}

TEST(ThreadPoolTest, WarmAsyncJobDoesNotAllocate)
{
    for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        Coverage cov(4096, threads);
        pool.parallelForAsync(cov.hits.size(), cov);
        pool.wait();

        const uint64_t before = g_allocCount.load();
        for (int rep = 0; rep < 4; ++rep) {
            pool.parallelForAsync(cov.hits.size(), cov);
            pool.wait();
            pool.parallelFor(cov.hits.size(),
                             [&](int w, size_t b, size_t e) {
                                 cov(w, b, e);
                             });
        }
        EXPECT_EQ(g_allocCount.load(), before) << "threads " << threads;
        for (const auto &h : cov.hits)
            ASSERT_EQ(h.load(), 9u);
    }
}

} // namespace
} // namespace ironman::common
