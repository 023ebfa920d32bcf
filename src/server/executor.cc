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
  WriterLock lock(lanes_mu_);
  std::unique_ptr<Lane>& slot = lanes_[lane];
  if (slot == nullptr) {
    slot = std::make_unique<Lane>(lane);
  } else {
    slot->state.fetch_and(~kRemoved);
  }
}

void Executor::RemoveLane(std::int64_t lane) {
  WriterLock lock(lanes_mu_);
  auto it = lanes_.find(lane);
  if (it == lanes_.end()) return;
  // A busy lane drains first; FinishLane erases it then.
  if (it->second->state.fetch_or(kRemoved) == 0) lanes_.erase(it);
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
  if (closed_.load()) return SubmitResult::kClosed;
  ReaderLock lanes(lanes_mu_);
  auto it = lanes_.find(lane);
  if (it == lanes_.end()) return SubmitResult::kClosed;
  Lane& l = *it->second;
  if ((l.state.load() & kRemoved) != 0) return SubmitResult::kClosed;
  if (!important &&
      l.queue.size() >= static_cast<std::size_t>(options_.queue_capacity)) {
    return SubmitResult::kShed;
  }
  l.queue.push_back(std::move(t));
  if (stats_) stats_->AdjustQueueDepth(+1);
  // A running lane is handed to the workers by FinishLane; an idle one
  // goes to them now.
  if ((l.state.fetch_or(kQueued) & (kRunning | kQueued)) == 0) {
    ready_.push_back(&l);
    work_cv_.NotifyOne();
  }
  return SubmitResult::kAccepted;
}

void Executor::RecordLockWait(bool exclusive,
                              std::chrono::steady_clock::time_point t0) {
  if (stats_ == nullptr) return;
  stats_->RecordDispatch(exclusive, std::chrono::steady_clock::now() - t0);
}

Executor::Lane* Executor::ClaimIdle(std::int64_t lane_id) {
  ReaderLock lock(lanes_mu_);
  auto it = lanes_.find(lane_id);
  if (it == lanes_.end()) return nullptr;
  std::uint32_t idle = 0;
  if (!it->second->state.compare_exchange_strong(idle, kRunning)) {
    return nullptr;  // Running, queued or removed.
  }
  return it->second.get();
}

bool Executor::RunInline(std::int64_t lane_id, TaskMode mode,
                         const TaskFn& task) {
  // From the claim on, the lane looks exactly as if a worker had taken it:
  // submissions queue behind this task and Shutdown() waits for it.
  Lane* lane = ClaimIdle(lane_id);
  if (lane == nullptr) return false;
  if (closed_.load()) {
    FinishLane(lane);
    return false;
  }
  if (stats_) stats_->RecordInlineRun();
  RunTask(mode, task);
  FinishLane(lane);
  return true;
}

void Executor::FinishLane(Lane* lane) {
  // Read before the release: once the lane is idle another thread may
  // remove and erase it.
  const std::int64_t id = lane->id;
  const std::uint32_t was = lane->state.fetch_and(~kRunning);
  if ((was & kQueued) != 0) {
    // Still queued, so not erasable, and no other thread hands it over:
    // Submit saw it running.
    MutexLock lock(mu_);
    ready_.push_back(lane);
    work_cv_.NotifyOne();
  } else if ((was & kRemoved) != 0) {
    WriterLock lock(lanes_mu_);
    auto it = lanes_.find(id);
    // AddLane may have revived the lane since; erase only a removed one.
    if (it != lanes_.end() && it->second->state.load() == kRemoved) {
      lanes_.erase(it);
    }
  }
  if (closed_.load()) {
    MutexLock lock(mu_);
    drained_cv_.NotifyAll();
  }
}

bool Executor::AnyLaneBusy() {
  ReaderLock lock(lanes_mu_);
  for (const auto& [id, lane] : lanes_) {
    if ((lane->state.load() & (kRunning | kQueued)) != 0) return true;
  }
  return false;
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
      return !ready_.empty() || stopping_;
    });
    if (ready_.empty()) return;  // Stopping, and every lane drained.
    Lane* lane = ready_.front();
    ready_.pop_front();
    Task task = std::move(lane->queue.front());
    lane->queue.pop_front();
    // Claim the lane and, with its last task taken, clear kQueued, in one
    // step: RemoveLane may set kRemoved concurrently.
    const std::uint32_t drop = lane->queue.empty() ? kQueued : 0;
    std::uint32_t state = lane->state.load();
    while (!lane->state.compare_exchange_weak(state,
                                              (state | kRunning) & ~drop)) {
    }
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

    FinishLane(lane);
    lock.Lock();
  }
}

void Executor::Shutdown() {
  closed_.store(true);
  {
    MutexLock lock(mu_);
    // Every accepted task runs before the workers stop. A lane released
    // after the closed flag was set wakes this wait.
    drained_cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return !AnyLaneBusy();
    });
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace isis::server
