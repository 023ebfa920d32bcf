#include "server/executor.h"

#include <utility>

#include "server/stats.h"

namespace isis::server {

namespace {

/// Most tasks one database lock hold runs under rules 5 and 6: the task
/// that took the lock plus kMaxBatch - 1 same-mode head-of-lane tasks.
constexpr int kMaxBatch = 8;

}  // namespace

Executor::Executor(const Options& options, ServerStats* stats)
    : options_(options), stats_(stats) {
  int n = options_.threads > 0 ? options_.threads : 1;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() { Shutdown(); }

void Executor::AddLane(std::int64_t lane) {
  MutexLock lock(mu_);
  auto& slot = lanes_[lane];
  if (slot == nullptr) slot = std::make_shared<Lane>();
  slot->removed = false;
}

void Executor::RemoveLane(std::int64_t lane) {
  MutexLock lock(mu_);
  auto it = lanes_.find(lane);
  if (it == lanes_.end()) return;
  if (!it->second->running && it->second->queue.empty()) {
    lanes_.erase(it);
  } else {
    it->second->removed = true;  // Drains, then the worker erases it.
  }
}

SubmitResult Executor::Submit(std::int64_t lane, TaskMode mode, TaskFn task,
                              bool important, std::uint32_t deadline_ms,
                              std::function<void()> on_expired) {
  Task t{mode, std::move(task)};
  if (deadline_ms > 0) {
    t.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadline_ms);
    t.has_deadline = true;
    t.on_expired = std::move(on_expired);
  }
  MutexLock lock(mu_);
  if (closed_) return SubmitResult::kClosed;
  auto it = lanes_.find(lane);
  if (it == lanes_.end() || it->second->removed) return SubmitResult::kClosed;
  Lane& l = *it->second;
  if (!important &&
      l.queue.size() >= static_cast<std::size_t>(options_.queue_capacity)) {
    return SubmitResult::kShed;
  }
  l.queue.push_back(std::move(t));
  if (stats_) stats_->AdjustQueueDepth(+1);
  if (!l.running && l.queue.size() == 1) {
    ready_.push_back(lane);
    work_cv_.NotifyOne();
  }
  return SubmitResult::kAccepted;
}

void Executor::RecordLockWait(bool exclusive,
                              std::chrono::steady_clock::time_point t0) {
  if (stats_ == nullptr) return;
  auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  stats_->RecordDispatch(exclusive, waited);
}

bool Executor::PopHeadTask(TaskMode mode, Task* task,
                           std::shared_ptr<Lane>* lane,
                           std::int64_t* lane_id) {
  MutexLock lock(mu_);
  std::size_t probes = ready_.size();
  for (std::size_t i = 0; i < probes; ++i) {
    std::int64_t cand = ready_.front();
    ready_.pop_front();
    auto it = lanes_.find(cand);
    if (it == lanes_.end()) continue;  // Stale entry; drop it.
    if (it->second->running || it->second->queue.empty()) continue;
    if (it->second->queue.front().mode != mode) {
      // Not batchable under the current hold; leave it for a fresh
      // dispatch. The rotation to the back is bounded round-robin, not
      // starvation: a worker picks it up as soon as one is free.
      ready_.push_back(cand);
      continue;
    }
    *task = std::move(it->second->queue.front());
    it->second->queue.pop_front();
    it->second->running = true;
    ++in_flight_;
    *lane = it->second;
    *lane_id = cand;
    return true;
  }
  return false;
}

void Executor::FinishLane(const std::shared_ptr<Lane>& lane,
                          std::int64_t lane_id) {
  MutexLock lock(mu_);
  lane->running = false;
  --in_flight_;
  if (!lane->queue.empty()) {
    ready_.push_back(lane_id);
    work_cv_.NotifyOne();
  } else if (lane->removed) {
    lanes_.erase(lane_id);
  }
  if (closed_ && in_flight_ == 0 && ready_.empty()) work_cv_.NotifyAll();
}

void Executor::DrainBatchLocked(TaskMode mode,
                                std::vector<PostLockFn>* post) {
  // Rules 5 and 6: the hold is already paid for -- drain more same-mode
  // work under it before releasing. Continuations must NOT run here (the
  // lock is still held); they accumulate in `post` for the caller.
  for (int extra = 1; extra < kMaxBatch; ++extra) {
    Task next;
    std::shared_ptr<Lane> lane;
    std::int64_t lane_id = 0;
    if (!PopHeadTask(mode, &next, &lane, &lane_id)) break;
    if (stats_) stats_->AdjustQueueDepth(-1);
    if (next.has_deadline && next.on_expired != nullptr &&
        std::chrono::steady_clock::now() >= next.deadline) {
      // Rule 4 still applies mid-batch; on_expired acquires nothing.
      if (stats_) stats_->RecordDeadlineDrop();
      next.on_expired();
    } else {
      // A batched task waited zero time for the lock by construction.
      if (stats_) stats_->RecordDispatch(mode == TaskMode::kExclusive, 0);
      PostLockFn after = next.fn();
      if (after) post->push_back(std::move(after));
    }
    FinishLane(lane, lane_id);
  }
}

void Executor::RunTask(Task& task) {
  auto t0 = std::chrono::steady_clock::now();
  // Deferred work from the whole batch, run strictly after the lock hold
  // below closes. Enqueue order is preserved: for durable mutations that
  // means commit tickets are awaited in WAL order, though any order would
  // be correct -- each ticket waits only on its own record.
  std::vector<PostLockFn> post;
  switch (task.mode) {
    case TaskMode::kShared: {
      ReaderLock db(db_lock_);
      RecordLockWait(/*exclusive=*/false, t0);
      PostLockFn after = task.fn();
      if (after) post.push_back(std::move(after));
      DrainBatchLocked(TaskMode::kShared, &post);
      break;
    }
    case TaskMode::kExclusive: {
      WriterLock db(db_lock_);
      RecordLockWait(/*exclusive=*/true, t0);
      PostLockFn after = task.fn();
      if (after) post.push_back(std::move(after));
      DrainBatchLocked(TaskMode::kExclusive, &post);
      break;
    }
    case TaskMode::kNone: {
      PostLockFn after = task.fn();
      if (after) post.push_back(std::move(after));
      break;
    }
  }
  // The lock is released; now the batch's deferred work (group-commit
  // waits, replies that imply durability) may block without serializing
  // other workers' database access.
  for (PostLockFn& fn : post) fn();
}

void Executor::WorkerLoop() {
  MutexLock lock(mu_);
  for (;;) {
    work_cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return !ready_.empty() || (closed_ && in_flight_ == 0);
    });
    if (ready_.empty()) {
      if (closed_ && in_flight_ == 0) return;
      continue;
    }
    std::int64_t lane_id = ready_.front();
    ready_.pop_front();
    auto it = lanes_.find(lane_id);
    if (it == lanes_.end()) continue;
    std::shared_ptr<Lane> lane = it->second;
    if (lane->queue.empty() || lane->running) continue;
    Task task = std::move(lane->queue.front());
    lane->queue.pop_front();
    lane->running = true;
    ++in_flight_;
    lock.Unlock();

    if (stats_) stats_->AdjustQueueDepth(-1);
    if (task.has_deadline && task.on_expired != nullptr &&
        std::chrono::steady_clock::now() >= task.deadline) {
      // Rule 4: expired in the queue -- answer without dispatching (no
      // database lock; the expiry path must never add lock pressure).
      if (stats_) stats_->RecordDeadlineDrop();
      task.on_expired();
    } else {
      RunTask(task);
    }

    FinishLane(lane, lane_id);
    lock.Lock();
  }
}

void Executor::Shutdown() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace isis::server
