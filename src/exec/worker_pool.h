#ifndef DIGEST_EXEC_WORKER_POOL_H_
#define DIGEST_EXEC_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace digest {
namespace exec {

/// A small persistent worker pool for deterministic fan-out over an
/// indexed item range (the execution substrate of the parallel sampling
/// tier; see DESIGN.md "Parallel execution & determinism model").
///
/// Design constraints, in order:
///
///   1. *Schedule independence.* ParallelFor(n, fn) runs fn exactly once
///      for every item in [0, n), and every observable outcome is keyed
///      by item index, never by worker or arrival order. Which worker
///      runs which item is a performance detail.
///   2. *No early abort.* A failing item does not stop the others: all n
///      items always run, so side effects (per-item output slots) are
///      identical whether or not some items fail, on any schedule. The
///      reported failure is the one with the LOWEST item index — the
///      same failure a serial loop would hit first.
///   3. *Exception safety.* An exception escaping fn is captured and
///      rethrown on the calling thread, again lowest-index-first, after
///      the batch barrier.
///
/// The pool spawns `num_threads - 1` persistent workers; the calling
/// thread itself acts as worker 0 during ParallelFor, so a pool built
/// with num_threads <= 1 spawns nothing and runs items inline, as a
/// plain loop in index order with no claim cursor, atomic or lock — the
/// serial reference schedule that the determinism tests compare against.
///
/// With workers, distribution is a sharded queue with stealing: the item
/// range is cut into one contiguous shard per worker, each with an atomic
/// claim cursor; a worker drains its own shard first, then steals from
/// the others in cyclic order. Claims use relaxed atomics (only
/// uniqueness matters); the end-of-batch barrier (mutex + condition
/// variable) publishes every item's writes to the caller.
///
/// ParallelFor is not reentrant and the pool is not itself thread-safe:
/// one batch at a time, driven from one thread (the engine's tick loop).
class WorkerPool {
 public:
  /// Item callback: (item index, worker index in [0, num_threads)).
  using ItemFn = std::function<Status(size_t item, size_t worker)>;

  /// Creates the pool; spawns max(num_threads, 1) - 1 worker threads.
  explicit WorkerPool(size_t num_threads);

  /// Joins all workers. Must not race a ParallelFor in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers, including the calling thread (>= 1).
  size_t num_threads() const { return num_threads_; }

  /// Runs fn(i, worker) exactly once for every i in [0, n), blocking
  /// until all items finish. Always runs all items (see class comment);
  /// returns the failure with the lowest item index, or OK. Exceptions
  /// from fn are rethrown here, lowest item index first.
  Status ParallelFor(size_t n, const ItemFn& fn);

 private:
  /// One in-flight batch: the shared claim state and failure collection.
  struct Batch {
    size_t n = 0;
    size_t shard_size = 0;  // ceil(n / num_threads)
    const ItemFn* fn = nullptr;
    std::unique_ptr<std::atomic<size_t>[]> cursors;  // one per shard

    /// Per-item failures, merged under mu_ as workers finish.
    struct Failure {
      size_t item;
      Status status;
      std::exception_ptr exception;
    };
    std::vector<Failure> failures;

    size_t workers_remaining = 0;  // spawned workers still running
  };

  void WorkerLoop(size_t worker);

  /// ParallelFor with no spawned worker: every item on the calling
  /// thread, in index order, under the same failure contract.
  Status RunInline(size_t n, const ItemFn& fn);

  /// Drains shards for `worker`, collecting failures locally; merges
  /// them into batch.failures under mu_ at the end.
  void RunBatchShare(Batch& batch, size_t worker);

  const size_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_done_;
  Batch* batch_ = nullptr;      // non-null while a batch is in flight
  uint64_t generation_ = 0;     // bumped per batch, guards spurious wakes
  bool stopping_ = false;
};

}  // namespace exec
}  // namespace digest

#endif  // DIGEST_EXEC_WORKER_POOL_H_
