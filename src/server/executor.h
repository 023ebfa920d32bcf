/// \file executor.h
/// \brief Thread pool with reader-writer dispatch and per-lane FIFO queues.
///
/// The executor is the server's concurrency layer. Work arrives as tasks on
/// *lanes* (one lane per client session); each task declares whether it
/// needs the database shared (reads: query, explain, render, stats) or
/// exclusive (mutations: events, assigns). Three rules govern dispatch:
///
///   1. Lane order: tasks on one lane run in submission order, at most one
///      in flight -- a session is serial, the server is parallel.
///   2. Lock mode: before running a task the worker acquires the shared
///      RwMutex (common/sync.h) in the declared mode, so any number of
///      reads overlap but a mutation runs alone. The RwMutex is
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
///   5. Shared batching: when a worker finishes a kShared task it keeps its
///      reader hold open and drains up to `kMaxBatch - 1` more kShared
///      head-of-lane tasks from *other* ready lanes before releasing
///      (`kMaxBatch` = 8, executor.cc). With the result cache a read is
///      microseconds, so the RwMutex acquire/release pair dominates;
///      batching amortizes it across several reads. Lane order (rule 1) is
///      preserved -- only head tasks are taken, one per lane at a time. A
///      waiting writer can be passed by at most `kMaxBatch - 1` reads per
///      hold, a bounded and deliberate trade; the RwMutex's writer
///      preference still blocks fresh reader *acquisitions* behind it.
///   6. Exclusive batching + post-lock continuations: symmetric to rule 5,
///      a worker holding the *writer* lock drains up to `kMaxBatch - 1`
///      more kExclusive head-of-lane tasks before releasing, so one
///      writer acquisition covers several sessions' mutations. A task body
///      may return a continuation, which the worker runs only AFTER the
///      database lock is released -- that is where a durable write waits on
///      its group-commit ticket (store/group_commit.h), so the fsync that
///      makes a whole exclusive batch durable happens outside the lock and
///      is paid once for the batch instead of once per mutation.
///
/// Shutdown() closes submission, drains every queued task, then joins the
/// workers -- accepted work always runs exactly once (either its body plus
/// its continuation or, past its deadline, its on_expired callback).
///
/// Lock discipline (checked by -Wthread-safety): all queue state -- lanes_,
/// ready_, closed_, in_flight_ -- is guarded by mu_; the database itself is
/// guarded by db_lock_, held in the task's declared mode around task.fn().
/// mu_ is never held while *acquiring* db_lock_; the shared-batch path does
/// acquire mu_ while db_lock_ is held (to pop the next task), which cannot
/// deadlock precisely because the opposite order never occurs.

#ifndef ISIS_SERVER_EXECUTOR_H_
#define ISIS_SERVER_EXECUTOR_H_

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

  /// `stats` may be null (tests); if set, queue depth and lock-wait times
  /// are recorded there.
  explicit Executor(const Options& options, ServerStats* stats = nullptr);
  ~Executor();  ///< Calls Shutdown() if the caller has not.

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers a lane. Submitting to an unknown lane is an error (kClosed).
  void AddLane(std::int64_t lane) ISIS_EXCLUDES(mu_);
  /// Unregisters a lane; queued tasks still drain.
  void RemoveLane(std::int64_t lane) ISIS_EXCLUDES(mu_);

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
      ISIS_EXCLUDES(mu_);

  /// Closes submission, runs every queued task, joins the workers.
  /// Idempotent.
  void Shutdown() ISIS_EXCLUDES(mu_);

  /// The RW lock workers take around tasks. Exposed so the server can run
  /// inline work (recovery, checkpointing) under the same discipline.
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
  struct Lane {
    std::deque<Task> queue;
    bool running = false;  ///< A worker is executing this lane's head task.
    bool removed = false;
  };

  void WorkerLoop() ISIS_EXCLUDES(mu_);
  /// Runs `task.fn` under db_lock_ in the task's declared mode, recording
  /// the acquisition wait. One scoped hold per mode keeps the analysis's
  /// lock state balanced on every path. kShared/kExclusive tasks continue
  /// into the same-mode batch drain (rules 5 and 6) before the hold is
  /// released; every collected continuation runs after it.
  void RunTask(Task& task) ISIS_EXCLUDES(mu_, db_lock_);
  /// The rule-5/6 drain: runs up to kMaxBatch - 1 more `mode` head-of-lane
  /// tasks while the caller's lock hold is still open, appending their
  /// continuations to `post`. The caller must hold db_lock_ in `mode`.
  void DrainBatchLocked(TaskMode mode, std::vector<PostLockFn>* post)
      ISIS_EXCLUDES(mu_);
  /// Claims the head task of some ready lane iff it declares `mode`,
  /// marking the lane running. Lanes whose head needs another mode are
  /// rotated to the back of ready_ untouched. False when no such head is
  /// ready.
  bool PopHeadTask(TaskMode mode, Task* task, std::shared_ptr<Lane>* lane,
                   std::int64_t* lane_id) ISIS_EXCLUDES(mu_);
  /// The post-task lane bookkeeping (requeue / erase / shutdown notify),
  /// shared by WorkerLoop and the batch drain.
  void FinishLane(const std::shared_ptr<Lane>& lane, std::int64_t lane_id)
      ISIS_EXCLUDES(mu_);
  void RecordLockWait(bool exclusive,
                      std::chrono::steady_clock::time_point t0);

  const Options options_;
  ServerStats* const stats_;
  RwMutex db_lock_;

  Mutex mu_;
  CondVar work_cv_;
  std::unordered_map<std::int64_t, std::shared_ptr<Lane>> lanes_
      ISIS_GUARDED_BY(mu_);
  /// Lanes with queued, not-running work.
  std::deque<std::int64_t> ready_ ISIS_GUARDED_BY(mu_);
  bool closed_ ISIS_GUARDED_BY(mu_) = false;
  int in_flight_ ISIS_GUARDED_BY(mu_) = 0;
  /// Written by the constructor before any worker exists, joined by
  /// Shutdown() after submission closes; never touched concurrently.
  std::vector<std::thread> workers_;
};

}  // namespace isis::server

#endif  // ISIS_SERVER_EXECUTOR_H_
