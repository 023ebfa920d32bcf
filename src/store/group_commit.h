/// \file group_commit.h
/// \brief Group commit: many concurrent WAL commits, one fsync.
///
/// A per-record Write+Sync makes every mutation pay a full disk flush
/// (~100µs-10ms), and when the append happens inside an exclusive database
/// section that flush serializes the whole server. The GroupCommitter
/// decouples the two halves of a commit:
///
///   Enqueue(record)  cheap, ordered — safe to call while holding the
///                    database lock, so WAL order always equals apply order;
///   Wait(ticket)     blocks until the record is durable per the sync
///                    policy — called AFTER the database lock is released,
///                    so the fsync never blocks other writers' mutations.
///
/// Durability uses the classic leader/follower shape (LevelDB's writer
/// group, InnoDB's group commit): the first waiter finding no leader
/// becomes one, drains the pending queue (up to `max_batch` records),
/// writes them as ONE buffer, fsyncs ONCE, then wakes every follower whose
/// record the batch covered. Arrivals during the leader's fsync pile up in
/// the queue and form the next group, so the steady-state sync rate is one
/// per disk rotation's worth of commits, not one per commit.
///
/// Sync policies:
///   kPerCommit  one fsync per record (the pre-group-commit behavior; the
///               baseline the bench sweeps against);
///   kGroup      one fsync per drained batch — replies still imply
///               durability, amortized across the group;
///   kNone       no fsync; the OS decides when bytes hit the platter.
///               Replies do NOT imply durability. For benching and bulk
///               loads only.
///
/// The queue is bounded (`max_queue`): an Enqueue into a full queue blocks
/// until the leader frees space. That is deliberate backpressure — the
/// blocked enqueuer may hold the database writer lock, but the leader needs
/// only the committer's own mutex to make progress, so the stall is bounded
/// by one fsync, never a deadlock.
///
/// Error model: the first failed write/sync is sticky. Records the failed
/// batch did not cover — and everything after them — fail with the same
/// status; commits acknowledged OK before the failure are on disk. A Wait
/// that returns OK is the durability receipt.

#ifndef ISIS_STORE_GROUP_COMMIT_H_
#define ISIS_STORE_GROUP_COMMIT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "store/wal.h"

namespace isis::store {

/// When a WAL commit is flushed to stable storage.
enum class WalSyncPolicy {
  kPerCommit,  ///< fsync every record (slow, maximally paranoid).
  kGroup,      ///< fsync once per drained group (the default).
  kNone,       ///< never fsync explicitly (fast, not crash-durable).
};

/// Flag-value parsing for `--wal_sync=`; accepts "per_commit", "group",
/// "none".
Result<WalSyncPolicy> ParseWalSyncPolicy(const std::string& name);
const char* WalSyncPolicyName(WalSyncPolicy policy);

class GroupCommitter {
 public:
  struct Options {
    WalSyncPolicy policy = WalSyncPolicy::kGroup;
    /// Max records one leader drains per batch (one Write + one Sync).
    int max_batch = 256;
    /// Pending-queue bound; a full queue blocks Enqueue (backpressure).
    int max_queue = 4096;
    /// Called after every drained batch, outside the committer's lock:
    /// (records in the batch, microseconds the fsync took, whether a sync
    /// happened). Under kPerCommit it fires once per record. The server
    /// feeds its stats histogram through this; may be empty.
    std::function<void(int records, std::int64_t sync_us, bool synced)>
        batch_observer;
  };

  /// A claim check for one enqueued record.
  struct Ticket {
    std::uint64_t seq = 0;
  };

  struct Counters {
    std::int64_t records = 0;      ///< Records enqueued.
    std::int64_t batches = 0;      ///< Leader drains.
    std::int64_t syncs = 0;        ///< fsyncs issued.
    std::int64_t sync_us = 0;      ///< Cumulative fsync time.
    std::int64_t max_group = 0;    ///< Largest batch drained.
    std::int64_t queue_waits = 0;  ///< Enqueues that blocked on a full queue.
  };

  /// `wal` must outlive the committer (or be swapped via set_writer while
  /// the committer is idle).
  GroupCommitter(WalWriter* wal, const Options& options);

  /// Queues one record, preserving call order. Cheap (no I/O); may block
  /// only when the queue is at max_queue. Thread-safe.
  Ticket Enqueue(std::string type, std::string payload) ISIS_EXCLUDES(mu_);

  /// Blocks until the ticket's record is durable per the policy (or its
  /// batch failed). The first waiter in becomes the leader and does the
  /// actual I/O for everyone. Thread-safe.
  [[nodiscard]] Status Wait(Ticket ticket) ISIS_EXCLUDES(mu_);

  /// Enqueue + Wait: the synchronous single-caller convenience.
  [[nodiscard]] Status Commit(std::string type, std::string payload) {
    return Wait(Enqueue(std::move(type), std::move(payload)));
  }

  /// Drains every record enqueued so far and returns the status of the
  /// last one. For shutdown and WAL rotation.
  [[nodiscard]] Status Flush() ISIS_EXCLUDES(mu_);

  /// OK until a write or sync fails; from then on that first failure, for
  /// good (see "Error model" above). A caller checks it to refuse a
  /// mutation that could never be logged before applying it. Thread-safe.
  [[nodiscard]] Status status() const ISIS_EXCLUDES(mu_);

  /// Swaps the underlying writer (after a rotation). The caller must
  /// guarantee the committer is idle: nothing queued, no Wait in flight.
  void set_writer(WalWriter* wal) ISIS_EXCLUDES(mu_);

  WalSyncPolicy policy() const { return options_.policy; }
  Counters counters() const ISIS_EXCLUDES(mu_);

 private:
  struct PendingRecord {
    std::uint64_t seq;
    WalRecord record;
  };

  /// The shared leader/follower loop: returns once `seq` is durable.
  Status WaitForSeq(std::uint64_t seq) ISIS_EXCLUDES(mu_);
  Status StatusForSeqLocked(std::uint64_t seq) const ISIS_REQUIRES(mu_);

  const Options options_;

  mutable Mutex mu_;
  CondVar cv_;
  WalWriter* wal_ ISIS_GUARDED_BY(mu_);
  std::deque<PendingRecord> pending_ ISIS_GUARDED_BY(mu_);
  std::uint64_t next_seq_ ISIS_GUARDED_BY(mu_) = 1;
  /// Every record with seq <= durable_seq_ has been resolved (durable per
  /// policy, or failed).
  std::uint64_t durable_seq_ ISIS_GUARDED_BY(mu_) = 0;
  bool leader_active_ ISIS_GUARDED_BY(mu_) = false;
  /// First seq that failed; 0 = no failure. Sticky: once the WAL errored,
  /// every later commit reports `fail_` (the file may be torn mid-frame).
  std::uint64_t failed_from_ ISIS_GUARDED_BY(mu_) = 0;
  Status fail_ ISIS_GUARDED_BY(mu_) = Status::OK();
  Counters counters_ ISIS_GUARDED_BY(mu_);
};

}  // namespace isis::store

#endif  // ISIS_STORE_GROUP_COMMIT_H_
