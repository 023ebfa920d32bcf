/// \file stats.h
/// \brief Server-side metrics: request counts, latency histogram, queue and
/// lock pressure.
///
/// One ServerStats instance is shared by every thread of a Server. What
/// every request records -- its count, type, latency, lock wait and inline
/// run -- goes into per-thread shards (common/sync.h, ShardedCounters): a
/// cache-hit read takes about a microsecond, and a counter line written by
/// every request thread would make two sessions run at half speed. The
/// rarer events (sheds, promotions, WAL batches, ...) are individual
/// relaxed atomics. Snapshot() sums the shards and reads the atomics
/// individually, so a snapshot taken mid-traffic may be torn across
/// counters by a few in-flight requests (each counter is itself consistent
/// and monotone), which is fine for the dashboards and benches reading it.
/// Snapshots taken at quiescence -- after joining the clients, as the tests
/// and benches do -- are exact.
///
/// Request latencies are kept in 64 log2 buckets of nanoseconds (bucket i
/// holds samples in [2^i, 2^(i+1)) ns), fsync latencies in 64 log2 buckets
/// of microseconds. Percentiles are estimated by linear interpolation
/// inside the winning bucket -- good to ~2x at the tails, exact for the max
/// which is tracked separately. That bound is plenty for the "did p95
/// explode when threads went 1 -> 8" questions the bench asks, and the
/// nanosecond buckets keep a sub-microsecond median visible.

#ifndef ISIS_SERVER_STATS_H_
#define ISIS_SERVER_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/sync.h"

namespace isis::server {

/// Point-in-time copy of the counters; what Snapshot() returns.
struct StatsSnapshot {
  std::int64_t requests = 0;        ///< Total requests completed.
  std::int64_t errors = 0;          ///< Requests answered with kError.
  std::int64_t sheds = 0;           ///< Requests rejected with kRetry.
  std::int64_t reads = 0;           ///< Completed under the shared lock.
  std::int64_t writes = 0;          ///< Completed under the exclusive lock.
  std::int64_t promotions = 0;      ///< Reads re-run exclusively (intern miss).
  std::int64_t inline_runs = 0;     ///< Tasks run on the caller's thread.
  std::int64_t notifications = 0;   ///< kNotify fan-out messages queued.
  std::int64_t deadline_drops = 0;  ///< Requests expired before dispatch.
  std::int64_t dedup_hits = 0;      ///< Resent writes answered from cache.
  std::int64_t heartbeats = 0;      ///< kPing requests answered.
  std::int64_t resumes = 0;         ///< kHello reattaches to a live session.
  std::int64_t idle_reaps = 0;      ///< Connections closed for inactivity.
  std::int64_t eof_clean = 0;       ///< Peer closes on a frame boundary.
  std::int64_t eof_truncated = 0;   ///< Peer closes mid-frame (torn stream).
  std::int64_t queue_depth = 0;     ///< Tasks queued across lanes, right now.
  std::int64_t queue_peak = 0;      ///< High-water mark of queue_depth.
  std::int64_t read_lock_wait_us = 0;   ///< Cumulative shared-lock wait.
  std::int64_t write_lock_wait_us = 0;  ///< Cumulative exclusive-lock wait.
  // Query-result cache (query/cache.h), synced by the owning Server.
  std::int64_t cache_hits = 0;          ///< Reads answered from the cache.
  std::int64_t cache_reply_hits = 0;    ///< Of those, from a stored reply.
  std::int64_t cache_misses = 0;        ///< Reads that had to evaluate.
  std::int64_t cache_evictions = 0;     ///< Entries dropped by the bound.
  std::int64_t cache_invalidations = 0; ///< Stale entries lookups dropped.
  std::int64_t cache_flushes = 0;       ///< Always 0: the cache never flushes.
  // Group commit (store/group_commit.h), fed through its batch observer.
  std::int64_t wal_batches = 0;    ///< Leader drains (write groups formed).
  std::int64_t wal_records = 0;    ///< WAL records committed.
  std::int64_t wal_syncs = 0;      ///< fsyncs issued; < wal_records = grouping.
  std::int64_t wal_sync_us = 0;    ///< Cumulative fsync time.
  std::int64_t wal_group_max = 0;  ///< Largest group committed by one fsync.
  /// Logged writes answered without waiting for their WAL commit: gestures
  /// that changed only their session's UI state (session.h, "Durability").
  /// Over wal_records, the share of durable writes that skipped the disk.
  std::int64_t unwaited_replies = 0;
  double fsync_p50_us = 0.0;       ///< Median fsync latency (interpolated).
  double fsync_p95_us = 0.0;       ///< 95th percentile fsync latency.
  std::int64_t fsync_max_us = 0;   ///< Exact slowest fsync.
  double p50_us = 0.0;  ///< Median request latency (interpolated from ns).
  double p95_us = 0.0;  ///< 95th percentile latency (interpolated from ns).
  std::int64_t max_us = 0;          ///< Slowest request, whole microseconds.
  /// Per-request-type completion counts, indexed by the wire MsgType value.
  std::array<std::int64_t, 32> by_type{};
};

class ServerStats {
 public:
  static constexpr int kBuckets = 64;

  /// Records one completed request of wire type `type` (< 32) that took
  /// `latency` end to end (enqueue to response).
  void RecordRequest(int type, std::chrono::nanoseconds latency, bool error) {
    const std::int64_t ns = latency.count();
    per_thread_.Add(kRequests);
    if (error) per_thread_.Add(kErrors);
    if (type >= 0 && type < kTypes) {
      per_thread_.Add(kByType + static_cast<std::size_t>(type));
    }
    per_thread_.Add(kLatency + static_cast<std::size_t>(BucketOf(ns)));
    per_thread_.Raise(kMaxNs, ns);
  }

  void RecordShed() { Add(&sheds_); }

  /// `exclusive` says which lock the task ran under; `lock_wait` is how
  /// long the running thread blocked acquiring it. Summed in nanoseconds:
  /// an uncontended acquisition takes well under a microsecond, and
  /// rounding each sample down would drop nearly all of them.
  void RecordDispatch(bool exclusive, std::chrono::nanoseconds lock_wait) {
    per_thread_.Add(exclusive ? kWrites : kReads);
    per_thread_.Add(exclusive ? kWriteLockWaitNs : kReadLockWaitNs,
                    lock_wait.count());
  }

  /// One task run on the thread that asked for it (executor.h, rule 5).
  void RecordInlineRun() { per_thread_.Add(kInlineRuns); }

  void RecordPromotion() { Add(&promotions_); }
  void RecordNotification() { Add(&notifications_); }
  void RecordDeadlineDrop() { Add(&deadline_drops_); }
  void RecordDedupHit() { Add(&dedup_hits_); }
  void RecordHeartbeat() { Add(&heartbeats_); }
  void RecordResume() { Add(&resumes_); }
  void RecordIdleReap() { Add(&idle_reaps_); }

  /// One peer-initiated close; `truncated` says whether it cut a frame (or
  /// header extension) in half rather than landing on a frame boundary.
  void RecordPeerClose(bool truncated) {
    Add(truncated ? &eof_truncated_ : &eof_clean_);
  }

  /// Tracks the global queued-task count; delta is +1 on enqueue, -1 on
  /// dequeue. Only the queued path calls it.
  void AdjustQueueDepth(int delta) {
    std::int64_t depth =
        queue_depth_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(&queue_peak_, depth);
  }

  /// One WAL commit group: `records` committed together, `sync_us` spent in
  /// the fsync (when `synced`; the `none` policy never syncs). Wired to
  /// store::GroupCommitter::Options::batch_observer. syncs-per-record
  /// falling below 1 is group commit working.
  void RecordWalBatch(int records, std::int64_t sync_us, bool synced) {
    Add(&wal_batches_);
    Add(&wal_records_, records);
    UpdateMax(&wal_group_max_, records);
    if (synced) {
      Add(&wal_syncs_);
      Add(&wal_sync_us_, sync_us);
      Add(&fsync_buckets_[static_cast<std::size_t>(BucketOf(sync_us))]);
      UpdateMax(&fsync_max_us_, sync_us);
    }
  }

  /// One logged write answered before its WAL record was durable.
  void RecordUnwaitedReply() { Add(&unwaited_replies_); }

  /// Absolute sync of the result-cache counters (the cache keeps its own;
  /// the Server copies them over before a snapshot is served). Stores, not
  /// adds: the cache's counters are the truth.
  void SetCacheCounters(std::int64_t hits, std::int64_t reply_hits,
                        std::int64_t misses, std::int64_t evictions,
                        std::int64_t invalidations, std::int64_t flushes) {
    cache_hits_.store(hits, std::memory_order_relaxed);
    cache_reply_hits_.store(reply_hits, std::memory_order_relaxed);
    cache_misses_.store(misses, std::memory_order_relaxed);
    cache_evictions_.store(evictions, std::memory_order_relaxed);
    cache_invalidations_.store(invalidations, std::memory_order_relaxed);
    cache_flushes_.store(flushes, std::memory_order_relaxed);
  }

  StatsSnapshot Snapshot() const;

  /// One JSON object on one line, the same shape bench_server emits, e.g.
  /// `{"requests": 1200, "p50_us": 0.768, ...}`. Dumped at shutdown and
  /// served by the kStats protocol request.
  std::string ToJsonLine() const;

 private:
  using Counter = std::atomic<std::int64_t>;
  using Histogram = std::array<std::int64_t, kBuckets>;

  static constexpr int kTypes = 32;
  /// Indices into per_thread_.
  enum : std::size_t {
    kRequests,
    kErrors,
    kReads,
    kWrites,
    kReadLockWaitNs,
    kWriteLockWaitNs,
    kInlineRuns,
    kMaxNs,  ///< Per-shard high-water mark, not a sum.
    kByType,  ///< kTypes counters, by wire MsgType value.
    kLatency = kByType + kTypes,  ///< kBuckets log2(ns) buckets.
    kPerThreadCounters = kLatency + kBuckets,
  };

  static void Add(Counter* c, std::int64_t delta = 1) {
    c->fetch_add(delta, std::memory_order_relaxed);
  }
  static std::int64_t Get(const Counter& c) {
    return c.load(std::memory_order_relaxed);
  }
  static void UpdateMax(Counter* c, std::int64_t v) {
    std::int64_t cur = c->load(std::memory_order_relaxed);
    while (v > cur &&
           !c->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  static int BucketOf(std::int64_t v) {
    int b = 0;
    while (v > 1 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Percentile of a log2-bucketed histogram, in the histogram's unit, by
  /// interpolating within the bucket that holds the q-th sample; `max`
  /// answers q past the last bucket boundary exactly.
  static double Percentile(const Histogram& buckets, std::int64_t max,
                           double q);

  ShardedCounters<kPerThreadCounters> per_thread_;

  Counter sheds_{0};
  Counter promotions_{0};
  Counter notifications_{0};
  Counter deadline_drops_{0};
  Counter dedup_hits_{0};
  Counter heartbeats_{0};
  Counter resumes_{0};
  Counter idle_reaps_{0};
  Counter eof_clean_{0};
  Counter eof_truncated_{0};
  Counter queue_depth_{0};
  Counter queue_peak_{0};
  Counter cache_hits_{0};
  Counter cache_reply_hits_{0};
  Counter cache_misses_{0};
  Counter cache_evictions_{0};
  Counter cache_invalidations_{0};
  Counter cache_flushes_{0};
  Counter wal_batches_{0};
  Counter wal_records_{0};
  Counter wal_syncs_{0};
  Counter wal_sync_us_{0};
  Counter wal_group_max_{0};
  Counter unwaited_replies_{0};
  Counter fsync_max_us_{0};
  std::array<Counter, kBuckets> fsync_buckets_{};
};

}  // namespace isis::server

#endif  // ISIS_SERVER_STATS_H_
