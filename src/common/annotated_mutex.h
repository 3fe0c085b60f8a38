// Compile-time + debug-runtime concurrency contracts.
//
// Two enforcement layers share this header:
//
//  1. Clang Thread Safety Analysis macros (CAPABILITY / GUARDED_BY /
//     REQUIRES / ACQUIRE / RELEASE / EXCLUDES ...). Under Clang with
//     -Wthread-safety (CMake: -DSTDCHK_THREAD_SAFETY=ON) every guarded
//     member access and every lock contract is checked at compile time;
//     under GCC and other compilers the macros expand to nothing.
//
//  2. A debug-build lock-rank validator. Every stdchk::Mutex carries a
//     static LockRank (plus an intra-rank sequence number for shard
//     arrays); a thread acquiring locks in anything but strictly
//     ascending (rank, seq) order aborts immediately with a report of
//     the attempted lock, every lock the thread holds, the conflicting
//     lock's acquisition backtrace and the current backtrace. This turns
//     the documented lock hierarchy (folder -> chunk, manager ->
//     registry; see LockRank below) from a comment into executable law.
//     Compiled out when STDCHK_LOCK_RANK_CHECKS is 0 (CMake option;
//     default ON so the tier-1 suite always runs it).
//
// Rules for new code:
//  * give every mutex a LockRank from the table below (extend the table
//    when a new subsystem appears — never reuse a rank for a lock that
//    can nest with its rank-mate);
//  * annotate every member a mutex guards with GUARDED_BY(mu_) and every
//    private held-lock helper with REQUIRES(mu_);
//  * lock through MutexLock so Clang sees the acquisition; raw
//    lock()/unlock() only for lock-array patterns, under
//    a NO_THREAD_SAFETY_ANALYSIS function with a comment saying why.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// Default the runtime validator ON; the build system passes
// -DSTDCHK_LOCK_RANK_CHECKS=0 to compile it out (Release benches).
#ifndef STDCHK_LOCK_RANK_CHECKS
#define STDCHK_LOCK_RANK_CHECKS 1
#endif

// ---- Clang Thread Safety Analysis attribute macros -------------------------
// No-ops everywhere except Clang with the capability attribute available.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define STDCHK_TSA(x) __attribute__((x))
#endif
#endif
#ifndef STDCHK_TSA
#define STDCHK_TSA(x)
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) STDCHK_TSA(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY STDCHK_TSA(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) STDCHK_TSA(guarded_by(x))
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) STDCHK_TSA(pt_guarded_by(x))
#endif
#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) STDCHK_TSA(acquired_before(__VA_ARGS__))
#endif
#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) STDCHK_TSA(acquired_after(__VA_ARGS__))
#endif
#ifndef REQUIRES
#define REQUIRES(...) STDCHK_TSA(requires_capability(__VA_ARGS__))
#endif
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) STDCHK_TSA(requires_shared_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) STDCHK_TSA(acquire_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) STDCHK_TSA(acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) STDCHK_TSA(release_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) STDCHK_TSA(release_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_GENERIC
#define RELEASE_GENERIC(...) STDCHK_TSA(release_generic_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) STDCHK_TSA(try_acquire_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE_SHARED
#define TRY_ACQUIRE_SHARED(...) \
  STDCHK_TSA(try_acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef EXCLUDES
#define EXCLUDES(...) STDCHK_TSA(locks_excluded(__VA_ARGS__))
#endif
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) STDCHK_TSA(assert_capability(x))
#endif
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) STDCHK_TSA(lock_returned(x))
#endif
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS STDCHK_TSA(no_thread_safety_analysis)
#endif

namespace stdchk {

// ---- The system-wide lock hierarchy ----------------------------------------
// A thread may only acquire a mutex whose (rank, seq) is STRICTLY greater
// than every lock it already holds. Ranks are spaced by 10 so a new layer
// can slot in without renumbering. The order below is the acquisition
// order observed (and now enforced) across the whole system:
//
//   rank  lock                         may be held while taking...
//   ----  ---------------------------  -----------------------------------
//    10   BackgroundDriver::mu_        (nothing — released around Tick())
//    30   ReadSession::mu_             transport mu_, then the GETs' store
//                                      locks (pump/harvest RPCs)
//    40   MetadataManager::mu_         registry mu_, catalog shard locks
//    50   BenefactorRegistry::mu_      (leaf of the metadata plane)
//    60   FileCatalog folder shards    chunk shard locks (one at a time;
//                                      Export/Import: all, ascending seq)
//    70   FileCatalog chunk shards     (leaf of the catalog)
//    80   LocalTransport::mu_          (leaf — bookkeeping only; the
//                                      benefactor call runs without it)
//    85   Benefactor::mu_              chunk store mu_ (admission + put)
//    90   ChunkStore mu_ (mem + disk)  hash pool mu_ (verify fan-out)
//   100   HashPool::mu_                (leaf)
//   110   Logger::mu_                  (leaf — logging is legal anywhere)
//
// kUnranked mutexes are exempt from order checking (for locks that can
// never nest with the hierarchy, e.g. test scaffolding).
enum class LockRank : std::uint32_t {
  kUnranked = 0,
  kBackgroundDriver = 10,
  kClientReadSession = 30,
  kManager = 40,
  kRegistry = 50,
  kCatalogFolder = 60,
  kCatalogChunk = 70,
  kTransport = 80,
  kBenefactor = 85,
  kChunkStore = 90,
  kHashPool = 100,
  kLogger = 110,
};

namespace lockrank {
#if STDCHK_LOCK_RANK_CHECKS
// Validates ascending (rank, seq) order against this thread's held set and
// pushes the lock; aborts with a full report on violation. Called BEFORE
// the underlying lock blocks, so an inversion reports instead of
// deadlocking. Unranked locks are ignored.
void OnAcquire(const void* mu, std::uint32_t rank, std::uint32_t seq,
               const char* name);
// Pops the lock from this thread's held set (out-of-order release is fine).
void OnRelease(const void* mu);
// Number of ranked locks the calling thread currently holds (test hook).
std::size_t HeldDepth();
#else
inline void OnAcquire(const void*, std::uint32_t, std::uint32_t,
                      const char*) {}
inline void OnRelease(const void*) {}
inline std::size_t HeldDepth() { return 0; }
#endif
}  // namespace lockrank

// ---- Annotated mutexes -----------------------------------------------------

// std::mutex wrapper carrying a capability annotation and a lock rank.
class CAPABILITY("mutex") Mutex {
 public:
  // Unranked: capability-annotated but exempt from rank checking.
  Mutex() = default;
  explicit Mutex(LockRank rank, std::uint32_t seq = 0,
                 const char* name = "mutex")
      : rank_(static_cast<std::uint32_t>(rank)), seq_(seq), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    if (rank_ != 0) lockrank::OnAcquire(this, rank_, seq_, name_);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (rank_ != 0) lockrank::OnAcquire(this, rank_, seq_, name_);
    if (mu_.try_lock()) return true;
    if (rank_ != 0) lockrank::OnRelease(this);
    return false;
  }
  void unlock() RELEASE() {
    mu_.unlock();
    if (rank_ != 0) lockrank::OnRelease(this);
  }

 private:
  std::mutex mu_;
  std::uint32_t rank_ = 0;
  std::uint32_t seq_ = 0;
  const char* name_ = "mutex";
};

// ---- RAII guards -----------------------------------------------------------

class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// ---- Condition variable over the annotated Mutex ---------------------------
// Mirrors absl::CondVar's contract: Wait* REQUIRES the mutex held, releases
// it while blocked, and reacquires (rank-checked) before returning. Callers
// write the predicate loop themselves so Thread Safety Analysis sees every
// guarded access in a context where the mutex is known held:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<Mutex> lock(mu, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the re-acquired mutex
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<Mutex> lock(mu, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace stdchk
