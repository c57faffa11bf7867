#include "exec/worker_pool.h"

#include <algorithm>
#include <utility>

namespace digest {
namespace exec {

WorkerPool::WorkerPool(size_t num_threads)
    : num_threads_(std::max<size_t>(num_threads, 1)) {
  threads_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  batch_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::WorkerLoop(size_t worker) {
  uint64_t seen_generation = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_ready_.wait(lock, [&] {
        return stopping_ || (batch_ != nullptr && generation_ != seen_generation);
      });
      if (stopping_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    RunBatchShare(*batch, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--batch->workers_remaining == 0) batch_done_.notify_one();
    }
  }
}

Status WorkerPool::RunInline(size_t n, const ItemFn& fn) {
  // Items run in index order, so the first failure met is the lowest
  // index one; later items still run.
  Status first = Status::OK();
  std::exception_ptr first_exception;
  bool failed = false;
  for (size_t item = 0; item < n; ++item) {
    try {
      Status s = fn(item, 0);
      if (!s.ok() && !failed) {
        first = std::move(s);
        failed = true;
      }
    } catch (...) {
      if (!failed) {
        first_exception = std::current_exception();
        failed = true;
      }
    }
  }
  if (first_exception) std::rethrow_exception(first_exception);
  return first;
}

void WorkerPool::RunBatchShare(Batch& batch, size_t worker) {
  std::vector<Batch::Failure> local_failures;
  // Own shard first, then steal cyclically. fetch_add may overshoot a
  // shard's end by up to one claim per worker — harmless, the bounds
  // check rejects the overshoot and the cursor never feeds an item twice.
  for (size_t offset = 0; offset < num_threads_; ++offset) {
    const size_t shard = (worker + offset) % num_threads_;
    const size_t begin = shard * batch.shard_size;
    const size_t end = std::min(batch.n, begin + batch.shard_size);
    while (true) {
      const size_t item =
          begin + batch.cursors[shard].fetch_add(1, std::memory_order_relaxed);
      if (item >= end) break;
      try {
        Status s = (*batch.fn)(item, worker);
        if (!s.ok()) {
          local_failures.push_back({item, std::move(s), nullptr});
        }
      } catch (...) {
        local_failures.push_back(
            {item, Status::OK(), std::current_exception()});
      }
    }
  }
  if (!local_failures.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    batch.failures.insert(batch.failures.end(),
                          std::make_move_iterator(local_failures.begin()),
                          std::make_move_iterator(local_failures.end()));
  }
}

Status WorkerPool::ParallelFor(size_t n, const ItemFn& fn) {
  if (n == 0) return Status::OK();
  if (threads_.empty()) return RunInline(n, fn);

  Batch batch;
  batch.n = n;
  batch.shard_size = (n + num_threads_ - 1) / num_threads_;
  batch.fn = &fn;
  batch.cursors = std::make_unique<std::atomic<size_t>[]>(num_threads_);
  for (size_t s = 0; s < num_threads_; ++s) {
    batch.cursors[s].store(0, std::memory_order_relaxed);
  }
  batch.workers_remaining = threads_.size();

  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    ++generation_;
  }
  batch_ready_.notify_all();

  // The calling thread is worker 0.
  RunBatchShare(batch, 0);

  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_done_.wait(lock, [&] { return batch.workers_remaining == 0; });
    batch_ = nullptr;
  }

  if (batch.failures.empty()) return Status::OK();
  // Deterministic failure selection: the lowest item index — what a
  // serial loop would have reported first — regardless of schedule.
  const auto first = std::min_element(
      batch.failures.begin(), batch.failures.end(),
      [](const Batch::Failure& a, const Batch::Failure& b) {
        return a.item < b.item;
      });
  if (first->exception) std::rethrow_exception(first->exception);
  return first->status;
}

}  // namespace exec
}  // namespace digest
