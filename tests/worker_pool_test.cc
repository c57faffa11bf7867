// Concurrency battery for exec::WorkerPool: startup/shutdown across
// thread counts, exactly-once item execution under work stealing,
// schedule-independent failure selection (lowest item index, Status and
// exception alike), no-early-abort side-effect guarantees, and reuse of
// one pool across many batches. Runs under ThreadSanitizer in CI
// (DIGEST_SANITIZE=thread).
#include "exec/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace digest {
namespace exec {
namespace {

TEST(WorkerPoolTest, ConstructsAndDestructsIdleAcrossThreadCounts) {
  for (size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.num_threads(), std::max<size_t>(threads, 1));
    // Destructor joins with no batch ever submitted.
  }
}

TEST(WorkerPoolTest, EmptyRangeIsANoOp) {
  WorkerPool pool(4);
  size_t calls = 0;
  EXPECT_TRUE(pool.ParallelFor(0, [&](size_t, size_t) {
                    ++calls;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(calls, 0u);
}

TEST(WorkerPoolTest, RunsEveryItemExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    WorkerPool pool(threads);
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    ASSERT_TRUE(pool.ParallelFor(n, [&](size_t item, size_t worker) {
                      EXPECT_LT(worker, pool.num_threads());
                      hits[item].fetch_add(1, std::memory_order_relaxed);
                      return Status::OK();
                    })
                    .ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "item " << i;
    }
  }
}

TEST(WorkerPoolTest, StealingCoversImbalancedShards) {
  // Shard 0's items are much slower than the rest: workers that finish
  // their own shard must steal to terminate promptly. Correctness (every
  // item exactly once) is what we assert; the sleep just shapes load.
  WorkerPool pool(4);
  const size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  ASSERT_TRUE(pool.ParallelFor(n, [&](size_t item, size_t) {
                    if (item < n / 4) {
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(200));
                    }
                    hits[item].fetch_add(1, std::memory_order_relaxed);
                    return Status::OK();
                  })
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(WorkerPoolTest, ReportsLowestIndexStatusFailureOnAnySchedule) {
  for (size_t threads : {1u, 2u, 8u}) {
    WorkerPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      const Status s = pool.ParallelFor(100, [&](size_t item, size_t) {
        if (item == 17 || item == 83) {
          return Status::InvalidArgument("item " + std::to_string(item));
        }
        return Status::OK();
      });
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.message(), "item 17") << "threads=" << threads;
    }
  }
}

TEST(WorkerPoolTest, AllItemsStillRunWhenSomeFail) {
  // No early abort: a failure must not suppress later items' side
  // effects (the parallel sampler relies on this for deterministic
  // outcome slots). One thread runs the inline loop, four the shards.
  for (size_t threads : {1u, 4u}) {
    WorkerPool pool(threads);
    const size_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    const Status s = pool.ParallelFor(n, [&](size_t item, size_t) {
      hits[item].fetch_add(1, std::memory_order_relaxed);
      if (item % 3 == 0) return Status::Internal("fail");
      if (item % 7 == 0) throw std::runtime_error("thrown");
      return Status::OK();
    });
    EXPECT_EQ(s.code(), StatusCode::kInternal) << "threads=" << threads;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "item " << i << " threads=" << threads;
    }
  }
}

TEST(WorkerPoolTest, RethrowsLowestIndexException) {
  for (size_t threads : {1u, 4u}) {
    WorkerPool pool(threads);
    try {
      (void)pool.ParallelFor(50, [&](size_t item, size_t) -> Status {
        if (item == 7 || item == 31) {
          throw std::runtime_error("boom " + std::to_string(item));
        }
        return Status::OK();
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 7");
    }
  }
}

TEST(WorkerPoolTest, ExceptionBeatsLaterStatusAndViceVersa) {
  for (size_t threads : {1u, 2u}) {
    WorkerPool pool(threads);
    // Lowest failing index returned a Status: the Status wins even
    // though a later item threw.
    const Status s = pool.ParallelFor(20, [&](size_t item, size_t) -> Status {
      if (item == 3) return Status::Unavailable("status first");
      if (item == 11) throw std::runtime_error("exception later");
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message(), "status first") << "threads=" << threads;
    // And the mirror: the exception at the lower index is rethrown, after
    // every item ran.
    std::atomic<size_t> ran{0};
    EXPECT_THROW(
        (void)pool.ParallelFor(20,
                               [&](size_t item, size_t) -> Status {
                                 ran.fetch_add(1, std::memory_order_relaxed);
                                 if (item == 3) {
                                   throw std::runtime_error("exception first");
                                 }
                                 if (item == 11) {
                                   return Status::Unavailable("status later");
                                 }
                                 return Status::OK();
                               }),
        std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(ran.load(), 20u) << "threads=" << threads;
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossManyBatches) {
  WorkerPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    const size_t n = 1 + static_cast<size_t>(batch % 7) * 13;
    std::vector<std::atomic<int>> hits(n);
    ASSERT_TRUE(pool.ParallelFor(n, [&](size_t item, size_t) {
                      hits[item].fetch_add(1, std::memory_order_relaxed);
                      return Status::OK();
                    })
                    .ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " item " << i;
    }
  }
}

TEST(WorkerPoolTest, ResultsKeyedByItemAreScheduleIndependent) {
  // The canonical usage pattern: each item writes only its own slot, so
  // the gathered output is identical for any thread count.
  auto run = [](size_t threads) {
    WorkerPool pool(threads);
    std::vector<uint64_t> slots(257, 0);
    EXPECT_TRUE(pool.ParallelFor(slots.size(),
                                 [&](size_t item, size_t) {
                                   slots[item] = item * 2654435761u;
                                   return Status::OK();
                                 })
                    .ok());
    return slots;
  };
  const std::vector<uint64_t> reference = run(1);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(4), reference);
  EXPECT_EQ(run(8), reference);
}

}  // namespace
}  // namespace exec
}  // namespace digest
