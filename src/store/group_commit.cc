#include "store/group_commit.h"

#include <chrono>
#include <utility>

namespace isis::store {

namespace {

std::int64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Result<WalSyncPolicy> ParseWalSyncPolicy(const std::string& name) {
  if (name == "per_commit") return WalSyncPolicy::kPerCommit;
  if (name == "group") return WalSyncPolicy::kGroup;
  if (name == "none") return WalSyncPolicy::kNone;
  return Status::InvalidArgument(
      "unknown WAL sync policy '" + name +
      "' (expected per_commit, group or none)");
}

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kPerCommit:
      return "per_commit";
    case WalSyncPolicy::kGroup:
      return "group";
    case WalSyncPolicy::kNone:
      return "none";
  }
  return "?";
}

GroupCommitter::GroupCommitter(WalWriter* wal, const Options& options)
    : options_(options), wal_(wal) {}

GroupCommitter::Ticket GroupCommitter::Enqueue(std::string type,
                                               std::string payload) {
  MutexLock lock(mu_);
  if (pending_.size() >= static_cast<std::size_t>(options_.max_queue)) {
    // Backpressure, not rejection: it relies on a waiter coming for a
    // queued record, so the leader is (about to be) draining and space
    // frees within one batch. The caller guarantees that -- the server
    // lets at most max_batch records go unwaited before one reply waits
    // again (server/session.h, "Durability"), so the newest max_queue
    // records always include one with a waiter. The enqueuer may hold the
    // database writer lock, but the leader needs only mu_, so this wait
    // is fsync-bounded.
    ++counters_.queue_waits;
    cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return pending_.size() < static_cast<std::size_t>(options_.max_queue);
    });
  }
  const std::uint64_t seq = next_seq_++;
  PendingRecord p;
  p.seq = seq;
  p.record.type = std::move(type);
  p.record.payload = std::move(payload);
  pending_.push_back(std::move(p));
  ++counters_.records;
  // A parked waiter (e.g. Flush) may need to notice new work exists.
  cv_.NotifyAll();
  return Ticket{seq};
}

Status GroupCommitter::StatusForSeqLocked(std::uint64_t seq) const {
  if (failed_from_ != 0 && seq >= failed_from_) return fail_;
  return Status::OK();
}

Status GroupCommitter::WaitForSeq(std::uint64_t seq) {
  MutexLock lock(mu_);
  for (;;) {
    if (durable_seq_ >= seq) return StatusForSeqLocked(seq);
    if (leader_active_ || pending_.empty()) {
      // A leader is on it (or our record is mid-drain): follow.
      cv_.Wait(lock);
      continue;
    }

    // Become the leader: claim a batch, do everyone's I/O, wake them.
    leader_active_ = true;
    std::vector<WalRecord> batch;
    batch.reserve(pending_.size() < static_cast<std::size_t>(
                      options_.max_batch)
                      ? pending_.size()
                      : static_cast<std::size_t>(options_.max_batch));
    const std::uint64_t first = pending_.front().seq;
    while (!pending_.empty() &&
           batch.size() < static_cast<std::size_t>(options_.max_batch)) {
      batch.push_back(std::move(pending_.front().record));
      pending_.pop_front();
    }
    const std::uint64_t last = first + batch.size() - 1;
    const bool already_failed = failed_from_ != 0;
    WalWriter* wal = wal_;
    cv_.NotifyAll();  // Queue space freed: unblock bounded-queue enqueuers.
    lock.Unlock();

    Status st = Status::OK();
    std::uint64_t ok_records = 0;
    std::int64_t sync_us = 0;
    std::int64_t syncs = 0;
    if (already_failed) {
      // The WAL is suspect (possibly torn mid-frame); appending more could
      // bury the tear under fresh frames. Fail fast without touching it.
      st = Status::Unavailable("WAL writer has failed; commit not logged");
    } else {
      switch (options_.policy) {
        case WalSyncPolicy::kPerCommit:
          for (const WalRecord& r : batch) {
            auto t0 = std::chrono::steady_clock::now();
            st = wal->Append(r.type, r.payload);
            const std::int64_t us = MicrosSince(t0);
            if (!st.ok()) break;
            ++ok_records;
            ++syncs;
            sync_us += us;
            if (options_.batch_observer) options_.batch_observer(1, us, true);
          }
          break;
        case WalSyncPolicy::kGroup: {
          st = wal->AppendRecords(batch);
          if (st.ok()) {
            auto t0 = std::chrono::steady_clock::now();
            st = wal->Sync();
            sync_us = MicrosSince(t0);
            ++syncs;
          }
          if (st.ok()) ok_records = batch.size();
          if (options_.batch_observer) {
            options_.batch_observer(static_cast<int>(batch.size()), sync_us,
                                    true);
          }
          break;
        }
        case WalSyncPolicy::kNone:
          st = wal->AppendRecords(batch);
          if (st.ok()) ok_records = batch.size();
          if (options_.batch_observer) {
            options_.batch_observer(static_cast<int>(batch.size()), 0, false);
          }
          break;
      }
    }

    lock.Lock();
    durable_seq_ = last;
    if (!st.ok() && failed_from_ == 0) {
      // Records before the failure point in this batch made it; the rest —
      // and everything after — report the sticky error.
      fail_ = st;
      failed_from_ = first + ok_records;
    }
    ++counters_.batches;
    counters_.syncs += syncs;
    counters_.sync_us += sync_us;
    if (static_cast<std::int64_t>(batch.size()) > counters_.max_group) {
      counters_.max_group = static_cast<std::int64_t>(batch.size());
    }
    leader_active_ = false;
    cv_.NotifyAll();  // Followers of this batch + the next leader.
  }
}

Status GroupCommitter::Wait(Ticket ticket) { return WaitForSeq(ticket.seq); }

Status GroupCommitter::Flush() {
  std::uint64_t target;
  {
    MutexLock lock(mu_);
    if (next_seq_ == 1) return Status::OK();  // Nothing ever enqueued.
    target = next_seq_ - 1;
  }
  return WaitForSeq(target);
}

Status GroupCommitter::status() const {
  MutexLock lock(mu_);
  return fail_;
}

void GroupCommitter::set_writer(WalWriter* wal) {
  MutexLock lock(mu_);
  wal_ = wal;
}

GroupCommitter::Counters GroupCommitter::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace isis::store
