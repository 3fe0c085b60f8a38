#include "common/hash_pool.h"

#include <sched.h>

#include <algorithm>

namespace stdchk {

int HashPool::ResolveThreads(int threads) {
  if (threads > 0) return threads;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    return std::max(1, CPU_COUNT(&allowed));
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

HashPool::HashPool(int threads) {
  if (threads < 0) threads = ResolveThreads(threads);
  // The caller participates in every batch, so a pool for N-way parallelism
  // needs N-1 workers (0 = a caller-only pool, always serial).
  int workers = std::max(0, threads - 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HashPool::~HashPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

HashPool& HashPool::Shared() {
  static HashPool pool(-1);  // the CPUs this process may run on
  return pool;
}

bool HashPool::RunShare(BatchState& batch) {
  bool finished_last = false;
  bool claimed_any = false;
  for (;;) {
    std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) break;
    if (!claimed_any) {
      claimed_any = true;
      batch.active.fetch_add(1, std::memory_order_relaxed);
    }
    batch.fn(i);
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.count) {
      finished_last = true;
    }
  }
  return finished_last;
}

std::shared_ptr<HashPool::BatchState> HashPool::JoinableLocked() {
  while (!batches_.empty() &&
         batches_.front()->next.load(std::memory_order_relaxed) >=
             batches_.front()->count) {
    batches_.pop_front();
  }
  for (const std::shared_ptr<BatchState>& c : batches_) {
    if (c->next.load(std::memory_order_relaxed) < c->count &&
        c->helpers.load(std::memory_order_relaxed) < c->max_helpers) {
      return c;
    }
  }
  return nullptr;
}

void HashPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<BatchState> batch;
    {
      MutexLock lock(mu_);
      while (!stop_ && (batch = JoinableLocked()) == nullptr) {
        work_cv_.Wait(mu_);
      }
      if (stop_) return;
      // Join under the lock: max_helpers is never overshot.
      batch->helpers.fetch_add(1, std::memory_order_relaxed);
    }
    if (RunShare(*batch)) {
      {
        MutexLock lock(mu_);  // pair with the caller's wait
      }
      done_cv_.NotifyAll();
    }
  }
}

HashPool::Batch HashPool::Spawn(std::size_t n, int max_helpers,
                                std::function<void(std::size_t)> fn) {
  auto state = std::make_shared<BatchState>();
  state->fn = std::move(fn);
  state->count = n;
  state->max_helpers = static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(std::max(0, max_helpers)), workers_.size(),
       n}));
  if (state->max_helpers > 0) {
    {
      MutexLock lock(mu_);
      batches_.push_back(state);
    }
    for (int i = 0; i < state->max_helpers; ++i) work_cv_.NotifyOne();
  }
  return Batch(std::move(state));
}

int HashPool::Join(Batch batch) {
  std::shared_ptr<BatchState> state = std::move(batch.state_);
  if (state == nullptr || state->count == 0) return 0;
  RunShare(*state);
  {
    MutexLock lock(mu_);
    while (state->done.load(std::memory_order_acquire) != state->count) {
      done_cv_.Wait(mu_);
    }
  }
  // Every fn call has returned: release its captures on this thread, not
  // on whichever thread drops the queue's reference later.
  state->fn = nullptr;
  // Threads that claimed at least one index — a joiner that raced to an
  // already-drained cursor worked nothing and is not counted. done==count
  // implies every claimer finished, so the read is final. At least the
  // caller or one worker claimed index 0.
  return std::max(1, state->active.load(std::memory_order_acquire));
}

int HashPool::ParallelFor(std::size_t n, int max_workers,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return 0;
  int helpers = std::min<int>(
      {max_workers - 1, static_cast<int>(workers_.size()),
       static_cast<int>(std::min<std::size_t>(n - 1, 1u << 30))});
  if (helpers <= 0) {
    // Serial path, bit for bit: the pool is never touched.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return 1;
  }
  // The caller joins at once, so the batch may borrow fn.
  return Join(Spawn(n, helpers, [&fn](std::size_t i) { fn(i); }));
}

}  // namespace stdchk
