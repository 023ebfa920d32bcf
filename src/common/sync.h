/// \file sync.h
/// \brief Synchronization primitives carrying Clang Thread Safety Analysis
/// annotations.
///
/// Every mutex, condition variable and lock guard in ISIS comes from this
/// header -- raw std::mutex / std::shared_mutex are banned outside it
/// (enforced by tools/lint/check_style.py). The wrappers cost nothing over
/// the std types they hold; what they add is the capability vocabulary that
/// lets `clang++ -Wthread-safety -Werror=thread-safety` prove the locking
/// discipline documented in each header:
///
///   * a field annotated `ISIS_GUARDED_BY(mu_)` cannot be touched unless
///     the analysis sees `mu_` held on every path to the access;
///   * a function annotated `ISIS_REQUIRES(mu_)` cannot be called without
///     the caller holding `mu_`;
///   * `MutexLock` / `ReaderLock` / `WriterLock` are scoped capabilities,
///     so an early return or exception cannot leak a lock.
///
/// The attributes are a Clang extension; under GCC (and any other compiler)
/// they compile to nothing and the wrappers degrade to plain forwarding
/// shims. The CI `static-analysis` job is the build where the annotations
/// are load-bearing.
///
/// Lambda caveat: the analysis treats a lambda body as a separate function
/// that holds no locks, even when the enclosing scope provably does. A
/// lambda that reads guarded state under a lock held by its caller (the
/// idiomatic condition-variable predicate) states the fact explicitly with
/// `mu_.AssertHeld()` as its first statement.

#ifndef ISIS_COMMON_SYNC_H_
#define ISIS_COMMON_SYNC_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

// --- Annotation macros (Clang Thread Safety Analysis). ---
//
// Names follow the capability spelling of the Clang documentation with an
// ISIS_ prefix. On non-Clang compilers every macro expands to nothing.

#if defined(__clang__)
#define ISIS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ISIS_THREAD_ANNOTATION_(x)
#endif

/// Declares a class to be a capability (lockable) type. The string names
/// the capability kind in diagnostics, e.g. ISIS_CAPABILITY("mutex").
#define ISIS_CAPABILITY(x) ISIS_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define ISIS_SCOPED_CAPABILITY ISIS_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define ISIS_GUARDED_BY(x) ISIS_THREAD_ANNOTATION_(guarded_by(x))

/// Declares that the data *pointed to* by a pointer member is protected by
/// the given capability (the pointer itself is not).
#define ISIS_PT_GUARDED_BY(x) ISIS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The calling thread must hold the capability exclusively.
#define ISIS_REQUIRES(...) \
  ISIS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The calling thread must hold the capability at least shared.
#define ISIS_REQUIRES_SHARED(...) \
  ISIS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability exclusively; the caller must not
/// already hold it.
#define ISIS_ACQUIRE(...) \
  ISIS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function acquires the capability shared.
#define ISIS_ACQUIRE_SHARED(...) \
  ISIS_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (held exclusively, or -- on a
/// scoped capability's destructor -- however it was acquired).
#define ISIS_RELEASE(...) \
  ISIS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function releases a capability held shared.
#define ISIS_RELEASE_SHARED(...) \
  ISIS_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function must be called *without* the capability held (deadlock
/// guard for non-reentrant mutexes).
#define ISIS_EXCLUDES(...) ISIS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held here (a fact the analysis
/// cannot derive, e.g. inside a condition-variable predicate lambda).
#define ISIS_ASSERT_CAPABILITY(x) ISIS_THREAD_ANNOTATION_(assert_capability(x))
#define ISIS_ASSERT_SHARED_CAPABILITY(x) \
  ISIS_THREAD_ANNOTATION_(assert_shared_capability(x))

/// Disables the analysis inside one function. Reserved for the lock
/// primitives themselves (whose bodies *implement* the capability protocol
/// and so cannot be checked against it) -- never for application code.
#define ISIS_NO_THREAD_SAFETY_ANALYSIS \
  ISIS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace isis {

class CondVar;
class MutexLock;

/// \brief Annotated std::mutex. Prefer MutexLock over manual Lock/Unlock.
class ISIS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ISIS_ACQUIRE() { mu_.lock(); }
  void Unlock() ISIS_RELEASE() { mu_.unlock(); }

  /// Analysis-only fact: no runtime check (std::mutex cannot name its
  /// holder), but downstream guarded-field accesses type-check. Use inside
  /// condition-variable predicate lambdas (see the header comment).
  void AssertHeld() const ISIS_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief Scoped holder of a Mutex; relockable for worker-loop code that
/// drops the lock around a unit of work.
class ISIS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ISIS_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }
  ~MutexLock() ISIS_RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drops the lock before scope end (must currently hold it).
  void Unlock() ISIS_RELEASE() {
    held_ = false;
    mu_.Unlock();
  }
  /// Reacquires after Unlock().
  void Lock() ISIS_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

/// \brief Condition variable paired with Mutex/MutexLock.
///
/// Wait() atomically releases and reacquires the underlying mutex, so from
/// the analysis's point of view the capability is held continuously across
/// the call -- which is exactly the guarantee the caller observes. A
/// predicate passed to Wait() runs with the mutex held but is analyzed as a
/// separate function: start it with `mu.AssertHeld()` if it reads guarded
/// state.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) ISIS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> ul(lock.mu_.mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();  // Ownership stays with `lock`; the mutex is held again.
  }

  template <typename Predicate>
  void Wait(MutexLock& lock, Predicate pred) {
    while (!pred()) Wait(lock);
  }

  /// Timed wait: blocks until notified or `timeout` elapses. Returns false
  /// on timeout. Same capability story as Wait() -- the mutex is held
  /// continuously from the caller's point of view.
  bool WaitFor(MutexLock& lock, std::chrono::milliseconds timeout)
      ISIS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> ul(lock.mu_.mu_, std::adopt_lock);
    bool notified =
        cv_.wait_for(ul, timeout) == std::cv_status::no_timeout;
    ul.release();  // Ownership stays with `lock`; the mutex is held again.
    return notified;
  }

  /// Deadline-bounded predicate wait: every transport wait in the server
  /// stack goes through this (or hand-rolls the same loop), so a lost
  /// response cannot hang the caller. Returns pred() at exit -- false means
  /// the deadline passed with the predicate still unsatisfied.
  template <typename Predicate>
  bool WaitFor(MutexLock& lock, std::chrono::milliseconds timeout,
               Predicate pred) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return pred();
      WaitFor(lock, std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now) +
                        std::chrono::milliseconds(1));
    }
    return true;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Bytes per cache line on the targets ISIS builds for. Per-thread state
/// that other threads must not write (RwMutex reader slots, counter shards)
/// is padded to it.
inline constexpr std::size_t kCacheLineBytes = 64;

/// A small dense number for the calling thread, fixed on its first call:
/// threads are numbered 0, 1, 2, ... in the order they first ask. Per-thread
/// sharded state indexes by it modulo its shard count, so each thread keeps
/// writing the same shard, and threads that start one after another write
/// different ones.
inline int ThreadShard() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

/// \brief Writer-preferring reader-writer mutex whose shared side writes
/// only the calling thread's own cache line (a big-reader lock, after
/// Linux's brlock and percpu_rw_semaphore).
///
/// A reader increments the count in its thread's slot -- one of
/// kReaderSlots cache-line-padded counters, picked by ThreadShard() -- and
/// then checks the writer flag. When no writer waits, that is the whole
/// acquisition: no mutex, and no cache line that another reader writes
/// (threads whose numbers collide modulo kReaderSlots share a slot, which
/// stays correct and merely contends). A writer raises the flag and waits
/// until every slot has drained. The two sides are a Dekker pair of
/// sequentially consistent operations (count then flag, flag then counts),
/// so either the writer sees the reader's count and waits for it, or the
/// reader sees the flag and backs out: it undoes its count and sleeps until
/// no writer waits. Writer preference is that back-out: new readers queue
/// behind a waiting writer, so a saturating read load cannot starve
/// mutations. The slow paths sleep on a Mutex and two CondVars, which
/// ThreadSanitizer fully understands, as it does the atomics.
///
/// A shared hold must be released by the thread that took it (the slot is
/// the thread's), and a thread must not take the shared side again while
/// it holds it. Prefer the scoped ReaderLock/WriterLock over the manual
/// methods.
class ISIS_CAPABILITY("rw_mutex") RwMutex {
 public:
  /// Reader-count slots; a writer reads each one, so this bounds the cost
  /// of an exclusive acquisition.
  static constexpr int kReaderSlots = 16;

  RwMutex() = default;
  RwMutex(const RwMutex&) = delete;
  RwMutex& operator=(const RwMutex&) = delete;

  // The bodies *implement* the capability protocol, so they are exempt
  // from the analysis; call sites see only the contracts.
  void LockShared() ISIS_ACQUIRE_SHARED() ISIS_NO_THREAD_SAFETY_ANALYSIS {
    std::atomic<int>& count = MySlot();
    count.fetch_add(1);
    if (writer_.load()) BackOffForWriter(count);
  }
  void UnlockShared() ISIS_RELEASE_SHARED() ISIS_NO_THREAD_SAFETY_ANALYSIS {
    // A drained slot may be the last one a waiting writer needs.
    if (MySlot().fetch_sub(1) == 1 && writer_.load()) WakeWriter();
  }
  void LockExclusive() ISIS_ACQUIRE() ISIS_NO_THREAD_SAFETY_ANALYSIS;
  void UnlockExclusive() ISIS_RELEASE() ISIS_NO_THREAD_SAFETY_ANALYSIS;

  /// Analysis-only facts, as Mutex::AssertHeld().
  void AssertHeld() const ISIS_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ISIS_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<int> readers{0};
  };

  std::atomic<int>& MySlot() {
    return slots_[static_cast<std::size_t>(ThreadShard() % kReaderSlots)]
        .readers;
  }
  /// LockShared's slow path: a writer is waiting or active. Undoes
  /// `count`'s increment, sleeps until no writer waits, and takes the
  /// shared side under mu_ (no writer can raise the flag meanwhile).
  void BackOffForWriter(std::atomic<int>& count) ISIS_EXCLUDES(mu_);
  void WakeWriter() ISIS_EXCLUDES(mu_);
  /// Whether every reader slot reads zero.
  bool ReadersDrained() const;

  std::array<Slot, kReaderSlots> slots_{};
  /// Raised while a writer waits or holds the lock; written only under
  /// mu_, read by every reader. On its own line: readers only read it.
  alignas(kCacheLineBytes) std::atomic<bool> writer_{false};

  alignas(kCacheLineBytes) Mutex mu_;
  CondVar readers_cv_;
  CondVar writers_cv_;
  int waiting_writers_ ISIS_GUARDED_BY(mu_) = 0;
  bool writer_active_ ISIS_GUARDED_BY(mu_) = false;
};

/// \brief Scoped shared (reader) hold of an RwMutex.
class ISIS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(RwMutex& mu) ISIS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() ISIS_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  RwMutex& mu_;
};

/// \brief Scoped exclusive (writer) hold of an RwMutex.
class ISIS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(RwMutex& mu) ISIS_ACQUIRE(mu) : mu_(mu) {
    mu_.LockExclusive();
  }
  ~WriterLock() ISIS_RELEASE() { mu_.UnlockExclusive(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  RwMutex& mu_;
};

/// \brief `N` event counters kept in per-thread shards and summed on read.
///
/// A counter bumped by every request is a cache line every request thread
/// writes; with microsecond requests that line's traffic alone serializes
/// the threads. Each thread here writes its own cache-line-aligned shard,
/// picked once by ThreadShard() (threads that collide modulo kShards share
/// one, so the adds stay atomic). A read sums the shards, so it is exact at
/// quiescence and may miss a few in-flight adds otherwise.
template <std::size_t N>
class ShardedCounters {
 public:
  static constexpr int kShards = 16;

  /// Adds `delta` to counter `i` in the calling thread's shard.
  void Add(std::size_t i, std::int64_t delta = 1) {
    Mine()[i].fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises counter `i` of the calling thread's shard to `v` if it is
  /// lower: a high-water mark, read back with Max().
  void Raise(std::size_t i, std::int64_t v) {
    std::atomic<std::int64_t>& c = Mine()[i];
    std::int64_t cur = c.load(std::memory_order_relaxed);
    while (v > cur &&
           !c.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  /// Counter `i` summed over the shards.
  std::int64_t Sum(std::size_t i) const {
    std::int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.c[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  /// The largest value counter `i` holds in any shard.
  std::int64_t Max(std::size_t i) const {
    std::int64_t best = 0;
    for (const Shard& s : shards_) {
      const std::int64_t v = s.c[i].load(std::memory_order_relaxed);
      if (v > best) best = v;
    }
    return best;
  }

 private:
  struct alignas(kCacheLineBytes) Shard {
    std::array<std::atomic<std::int64_t>, N> c{};
  };
  std::array<std::atomic<std::int64_t>, N>& Mine() {
    return shards_[static_cast<std::size_t>(ThreadShard() % kShards)].c;
  }

  std::array<Shard, kShards> shards_{};
};

}  // namespace isis

#endif  // ISIS_COMMON_SYNC_H_
