// Work-stealing thread pool for CPU-bound fan-out, sized for the data
// path's parallel hashing (the paper's "offloading the computationally
// intensive hashing" future work): chunk naming, the CbCH gear scan's
// candidate marks, and content checks at admission and on read.
//
// The unit of work is a batch of n independent index-addressed tasks:
// workers and the joining caller steal indices one at a time from a shared
// cursor (so a straggler chunk never serializes the rest behind a static
// partition). Spawn queues a batch and returns at once; Join runs whatever
// no worker has claimed on the calling thread and returns once every index
// has run. ParallelFor is Join(Spawn(...)): a blocking parallel-for. Results
// are written to caller-preallocated slots, so output order is the index
// order no matter which thread ran what — the determinism the committed
// chunk map relies on.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace stdchk {

class HashPool {
  struct BatchState;

 public:
  // Pool for `threads`-way parallelism: spawns threads-1 persistent
  // workers, since the caller's thread always participates (0 = caller
  // only; values < 0 mean ResolveThreads' CPU count).
  explicit HashPool(int threads);
  ~HashPool();

  HashPool(const HashPool&) = delete;
  HashPool& operator=(const HashPool&) = delete;

  // Process-wide pool sized to the CPUs this process may run on, created on
  // first use. Sessions share it: hashing is CPU-bound, so one pool per
  // process is the right amount of parallelism regardless of how many
  // writes are open.
  static HashPool& Shared();

  // The shared "how many threads does N mean" rule: values <= 0 resolve to
  // the number of CPUs in the calling thread's affinity mask (min 1), or to
  // hardware concurrency if the mask cannot be read. So a process pinned to
  // one CPU runs serially instead of time-slicing workers on it. Used by
  // the pool's own sizing and by callers resolving a requested fan-out
  // (ClientOptions::hash_workers).
  static int ResolveThreads(int threads);

  int worker_threads() const { return static_cast<int>(workers_.size()); }

  // The caller's claim on a spawned batch (the pool queue holds the
  // other); Join consumes it.
  class Batch {
   public:
    Batch() = default;

   private:
    friend class HashPool;
    explicit Batch(std::shared_ptr<BatchState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<BatchState> state_;
  };

  // Queues fn(0) .. fn(n-1) for up to `max_helpers` pool workers and
  // returns at once. The batch owns `fn`, so a temporary is fine; fn must
  // be safe to call concurrently for distinct indices, and whatever it
  // borrows must outlive the Join. Takes the pool mutex only to queue, and
  // wakes no more workers than the batch has indices (none when the pool
  // is empty or max_helpers <= 0: Join then runs the whole batch).
  [[nodiscard]] Batch Spawn(std::size_t n, int max_helpers,
                            std::function<void(std::size_t)> fn)
      EXCLUDES(mu_);

  // Runs every index of `batch` that no worker has claimed on the calling
  // thread, then waits for the rest, so a busy or empty pool costs what a
  // serial loop would. Everything fn wrote is visible on return. Returns
  // the number of threads that ran at least one index (0 for an empty
  // batch).
  int Join(Batch batch) EXCLUDES(mu_);

  // Runs fn(0) .. fn(n-1) across up to `max_workers` threads (including the
  // calling thread) and returns when all have finished: Join(Spawn(...))
  // with max_workers - 1 helpers. fn must be safe to call concurrently for
  // distinct indices. max_workers <= 1, n <= 1, or an empty pool all
  // degrade to a plain serial loop on the caller's thread — bit-for-bit
  // the serial path, no pool machinery touched.
  //
  // Returns the number of threads that actually worked the batch (caller +
  // workers that joined before it drained) — a measurement, not the
  // requested fan-out; a busy or slow-waking pool can return 1 even when
  // more was allowed.
  int ParallelFor(std::size_t n, int max_workers,
                  const std::function<void(std::size_t)>& fn) EXCLUDES(mu_);

 private:
  // One spawned batch. Workers claim indices via next.fetch_add (the
  // stealing cursor); the last finisher signals the joiner.
  struct BatchState {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    int max_helpers = 0;          // workers allowed to join
    std::atomic<int> helpers{0};  // workers that joined
    std::atomic<int> active{0};   // threads that ran >= 1 index
  };

  void WorkerLoop() EXCLUDES(mu_);
  // Claims and runs indices until the batch is drained; returns whether this
  // thread ran the batch's final task.
  bool RunShare(BatchState& batch);
  // Pops drained batches off the queue's front and returns the first batch
  // with unclaimed indices and helper headroom (nullptr if none). Helpers
  // never leave a batch, so a non-joinable batch stays that way and wait
  // loops over this cannot busy-spin.
  std::shared_ptr<BatchState> JoinableLocked() REQUIRES(mu_);

  Mutex mu_{LockRank::kHashPool, 0, "hash_pool"};
  CondVar work_cv_;  // workers: a batch was queued / stop
  CondVar done_cv_;  // callers: a batch completed
  std::deque<std::shared_ptr<BatchState>> batches_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace stdchk
