#include "server/executor.h"

#include <utility>

#include "server/stats.h"

namespace isis::server {

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
  Task t{mode, std::move(task), {}, false, {}};
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
  stats_->RecordDispatch(exclusive, std::chrono::steady_clock::now() - t0);
}

bool Executor::RunInline(std::int64_t lane_id, TaskMode mode,
                         const TaskFn& task) {
  std::shared_ptr<Lane> lane;
  {
    MutexLock lock(mu_);
    if (closed_) return false;
    auto it = lanes_.find(lane_id);
    if (it == lanes_.end()) return false;
    Lane& l = *it->second;
    if (l.removed || l.running || !l.queue.empty()) return false;
    // From here the lane looks exactly as if a worker had claimed it:
    // submissions queue behind this task and Shutdown() waits for it.
    l.running = true;
    ++in_flight_;
    lane = it->second;
  }
  if (stats_) stats_->RecordInlineRun();
  RunTask(mode, task);
  FinishLane(lane, lane_id);
  return true;
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

void Executor::RunTask(TaskMode mode, const TaskFn& fn) {
  auto t0 = std::chrono::steady_clock::now();
  PostLockFn after;
  switch (mode) {
    case TaskMode::kShared: {
      ReaderLock db(db_lock_);
      RecordLockWait(/*exclusive=*/false, t0);
      after = fn();
      break;
    }
    case TaskMode::kExclusive: {
      WriterLock db(db_lock_);
      RecordLockWait(/*exclusive=*/true, t0);
      after = fn();
      break;
    }
    case TaskMode::kNone:
      after = fn();
      break;
  }
  // The lock is released; now the deferred work (a group-commit wait, the
  // reply that implies durability) may block without serializing other
  // lanes' database access.
  if (after) after();
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
      RunTask(task.mode, task.fn);
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
