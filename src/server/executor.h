/// \file executor.h
/// \brief Thread pool with reader-writer dispatch and per-lane FIFO queues.
///
/// The executor is the server's concurrency layer. Work arrives as tasks on
/// *lanes* (one lane per client session); each task declares whether it
/// needs the database shared (reads: query, explain, render, stats) or
/// exclusive (mutations: events, assigns). These rules govern dispatch:
///
///   1. Lane order: tasks on one lane run in submission order, at most one
///      in flight -- a session is serial, the server is parallel.
///   2. Lock mode: before running a task the executor acquires the shared
///      RwMutex (common/sync.h) in the declared mode, so any number of
///      reads overlap but a mutation runs alone. On the shared side a read
///      writes only its own thread's reader slot, so reads from different
///      sessions share no written cache line. The RwMutex is
///      writer-preferring: arriving readers queue behind a waiting writer,
///      so a steady read load cannot starve mutations.
///   3. Bounded queues: each lane holds at most `queue_capacity` tasks.
///      Submitting to a full lane is *shed* -- the caller gets kShed and is
///      expected to answer the client with a retry hint rather than buffer
///      unboundedly.
///   4. Deadlines: a task submitted with a deadline that has passed by the
///      time a worker picks it up is *dropped before dispatch* -- its
///      `on_expired` callback runs instead of the task, without acquiring
///      the database lock. Serving a request nobody is waiting for anymore
///      would only lengthen the queue behind it.
///   5. Run to completion: a caller that blocks for the reply anyway may
///      offer its task to RunInline(). When the lane is idle -- nothing
///      running, nothing queued -- the task runs on the calling thread
///      under the declared lock, with no queue, no worker wake-up and no
///      reply handoff. A lane's running, queued and removed flags are one
///      atomic word: RunInline claims an idle lane with one
///      compare-and-swap and releases it with one atomic and, so an inline
///      run takes no executor mutex. Rule 1 holds because the lane is
///      marked running for the duration, so anything submitted meanwhile
///      queues behind it. A busy lane refuses, and the caller falls back to
///      Submit().
///   6. Post-lock continuations: a task body may return a continuation,
///      which runs only AFTER the database lock is released, on the same
///      thread and before the lane takes its next task. That is where a
///      durable write waits on its group-commit ticket
///      (store/group_commit.h): the fsync never blocks readers or the next
///      writer, and concurrent writers' waits share one fsync. Because the
///      lane is still running, the continuation may read state only its
///      own lane's tasks touch (the session's controller) without the
///      database lock: every write serializes its reply there.
///
/// Shutdown() closes submission, then waits until no lane is running or
/// queued -- workers and inline callers alike set a lane's running flag --
/// and joins the workers. Accepted work always runs exactly once (either
/// its body plus its continuation or, past its deadline, its on_expired
/// callback), and nothing runs after Shutdown() returns: an inline run
/// claims its lane before it reads the closed flag, and Shutdown() sets
/// that flag before it reads the lanes, so one of them sees the other.
///
/// Lock discipline (checked by -Wthread-safety): the lane map is guarded
/// by lanes_mu_, an RwMutex (lookups shared; adding, removing and erasing
/// lanes exclusive). The queues -- each lane's tasks and ready_ -- are
/// guarded by mu_, which only the queued path takes: Submit, the workers,
/// and a lane released with work queued behind it. mu_ is taken before
/// lanes_mu_ when both are held, never after. The database itself is
/// guarded by db_lock_, held in the task's declared mode around task.fn().
/// Neither executor lock is held while *acquiring* db_lock_. A task body
/// may take them under db_lock_ (a promoted read Submits its re-run from
/// inside the shared task), which cannot deadlock because the opposite
/// order never occurs.

#ifndef ISIS_SERVER_EXECUTOR_H_
#define ISIS_SERVER_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"

namespace isis::server {

class ServerStats;

/// Which database lock a task needs.
enum class TaskMode {
  kShared,     ///< Read-only; overlaps with other kShared tasks.
  kExclusive,  ///< Mutation; runs alone.
  kNone,       ///< Touches no shared state (e.g. a pure protocol reply).
};

/// Outcome of Executor::Submit.
enum class SubmitResult {
  kAccepted,  ///< Queued; will run exactly once.
  kShed,      ///< Lane full; answer the client with a retry hint.
  kClosed,    ///< Executor is shutting down.
};

/// Work a task defers to after the database lock is released (rule 6);
/// empty = nothing deferred.
using PostLockFn = std::function<void()>;
/// A task body: runs under the declared lock mode and may return the
/// deferred part. Waiting (on a commit ticket, a peer, anything slower than
/// memory) belongs in the returned continuation, never in the body.
using TaskFn = std::function<PostLockFn()>;

class Executor {
 public:
  struct Options {
    int threads = 4;
    int queue_capacity = 64;  ///< Per-lane task bound; beyond this, shed.
  };

  /// `stats` may be null (tests); if set, queue depth, lock-wait times and
  /// inline runs are recorded there.
  explicit Executor(const Options& options, ServerStats* stats = nullptr);
  ~Executor();  ///< Calls Shutdown() if the caller has not.

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers a lane. Submitting to an unknown lane is an error (kClosed).
  void AddLane(std::int64_t lane) ISIS_EXCLUDES(lanes_mu_);
  /// Unregisters a lane; queued tasks still drain.
  void RemoveLane(std::int64_t lane) ISIS_EXCLUDES(lanes_mu_);

  /// Enqueues `task` on `lane`. `important` bypasses the capacity bound --
  /// used for promoted retries and session teardown, which must not be shed.
  ///
  /// `deadline_ms` > 0 arms rule 4: if the task is still queued when its
  /// budget (measured from this call) runs out, a worker runs `on_expired`
  /// instead of `task`, with no database lock held. `on_expired` must be
  /// set whenever `deadline_ms` is (the response still has to be sent).
  SubmitResult Submit(std::int64_t lane, TaskMode mode, TaskFn task,
                      bool important = false, std::uint32_t deadline_ms = 0,
                      std::function<void()> on_expired = nullptr)
      ISIS_EXCLUDES(mu_, lanes_mu_);

  /// Rule 5: runs `task` and its continuation on the calling thread iff the
  /// executor is open and `lane` is registered and idle, then returns true.
  /// Otherwise returns false without touching `task`, which the caller may
  /// still Submit. The caller must not hold the database lock.
  bool RunInline(std::int64_t lane, TaskMode mode, const TaskFn& task)
      ISIS_EXCLUDES(mu_, lanes_mu_, db_lock_);

  /// Closes submission, waits for every queued and running task, joins
  /// the workers. Idempotent.
  void Shutdown() ISIS_EXCLUDES(mu_, lanes_mu_);

  /// The RW lock tasks run under. Exposed so the server can run its own
  /// work (recovery, checkpointing) under the same discipline.
  RwMutex& db_lock() { return db_lock_; }

  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    TaskMode mode;
    TaskFn fn;
    /// Validity gated by has_deadline (a default time_point is a real time).
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    std::function<void()> on_expired;  ///< Set iff has_deadline.
  };
  /// Bits of Lane::state.
  static constexpr std::uint32_t kRunning = 1;  ///< A thread runs a task.
  static constexpr std::uint32_t kQueued = 2;   ///< `queue` is not empty.
  static constexpr std::uint32_t kRemoved = 4;  ///< Erase once it drains.
  struct Lane {
    explicit Lane(std::int64_t lane_id) : id(lane_id) {}
    const std::int64_t id;
    /// kRunning | kQueued | kRemoved. kQueued changes only under mu_,
    /// kRemoved only under lanes_mu_ held exclusively; kRunning is set by
    /// the thread that claims the lane and cleared when it finishes. A lane
    /// is erased only while its state is exactly kRemoved.
    std::atomic<std::uint32_t> state{0};
    std::deque<Task> queue;  ///< Guarded by mu_.
  };

  void WorkerLoop() ISIS_EXCLUDES(mu_);
  /// Runs `fn` under db_lock_ in `mode`, recording the acquisition wait,
  /// then its continuation once the lock is released. One scoped hold per
  /// mode keeps the analysis's lock state balanced on every path.
  void RunTask(TaskMode mode, const TaskFn& fn) ISIS_EXCLUDES(mu_, db_lock_);
  /// Marks `lane_id` running iff it is registered and idle (state 0), and
  /// returns it; otherwise null. The claim keeps the lane from being erased
  /// until FinishLane.
  Lane* ClaimIdle(std::int64_t lane_id) ISIS_EXCLUDES(lanes_mu_);
  /// Releases a lane its caller claimed: hands work queued behind it to the
  /// workers, erases it if it was removed meanwhile, and tells a pending
  /// Shutdown(). Shared by WorkerLoop and RunInline.
  void FinishLane(Lane* lane) ISIS_EXCLUDES(mu_, lanes_mu_);
  /// Whether any lane is running or has queued work.
  bool AnyLaneBusy() ISIS_EXCLUDES(lanes_mu_);
  void RecordLockWait(bool exclusive,
                      std::chrono::steady_clock::time_point t0);

  const Options options_;
  ServerStats* const stats_;
  RwMutex db_lock_;

  /// Set once by Shutdown(); read without a lock by every inline run.
  std::atomic<bool> closed_{false};

  RwMutex lanes_mu_;
  std::unordered_map<std::int64_t, std::unique_ptr<Lane>> lanes_
      ISIS_GUARDED_BY(lanes_mu_);

  Mutex mu_;
  CondVar work_cv_;     ///< Workers: ready_ gained a lane, or stopping_.
  CondVar drained_cv_;  ///< Shutdown(): a lane was released after closing.
  /// Lanes with queued, not-running work. A lane is here at most once;
  /// while it is, its kQueued bit keeps it from being erased.
  std::deque<Lane*> ready_ ISIS_GUARDED_BY(mu_);
  /// Set by Shutdown() once every lane has drained: idle workers exit.
  bool stopping_ ISIS_GUARDED_BY(mu_) = false;
  /// Written by the constructor before any worker exists, joined by
  /// Shutdown() after submission closes; never touched concurrently.
  std::vector<std::thread> workers_;
};

}  // namespace isis::server

#endif  // ISIS_SERVER_EXECUTOR_H_
