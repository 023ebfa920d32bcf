#include "server/stats.h"

#include <cstdio>

namespace isis::server {

double ServerStats::Percentile(const Histogram& buckets, std::int64_t max,
                               double q) {
  std::int64_t total = 0;
  for (std::int64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  // Rank of the q-th sample, 1-based.
  std::int64_t rank = static_cast<std::int64_t>(q * static_cast<double>(total));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    std::int64_t c = buckets[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (seen + c >= rank) {
      // Interpolate inside bucket b, which spans [lo, 2*lo).
      double lo = b == 0 ? 0.0 : static_cast<double>(std::int64_t{1} << b);
      double hi = static_cast<double>(std::int64_t{1} << (b + 1));
      double frac =
          static_cast<double>(rank - seen) / static_cast<double>(c);
      return lo + frac * (hi - lo);
    }
    seen += c;
  }
  return static_cast<double>(max);
}

StatsSnapshot ServerStats::Snapshot() const {
  StatsSnapshot s;
  s.requests = per_thread_.Sum(kRequests);
  s.errors = per_thread_.Sum(kErrors);
  s.sheds = Get(sheds_);
  s.reads = per_thread_.Sum(kReads);
  s.writes = per_thread_.Sum(kWrites);
  s.promotions = Get(promotions_);
  s.inline_runs = per_thread_.Sum(kInlineRuns);
  s.notifications = Get(notifications_);
  s.deadline_drops = Get(deadline_drops_);
  s.dedup_hits = Get(dedup_hits_);
  s.heartbeats = Get(heartbeats_);
  s.resumes = Get(resumes_);
  s.idle_reaps = Get(idle_reaps_);
  s.eof_clean = Get(eof_clean_);
  s.eof_truncated = Get(eof_truncated_);
  s.queue_depth = Get(queue_depth_);
  s.queue_peak = Get(queue_peak_);
  s.read_lock_wait_us = per_thread_.Sum(kReadLockWaitNs) / 1000;
  s.write_lock_wait_us = per_thread_.Sum(kWriteLockWaitNs) / 1000;
  s.cache_hits = Get(cache_hits_);
  s.cache_reply_hits = Get(cache_reply_hits_);
  s.cache_misses = Get(cache_misses_);
  s.cache_evictions = Get(cache_evictions_);
  s.cache_invalidations = Get(cache_invalidations_);
  s.cache_flushes = Get(cache_flushes_);
  s.wal_batches = Get(wal_batches_);
  s.wal_records = Get(wal_records_);
  s.wal_syncs = Get(wal_syncs_);
  s.wal_sync_us = Get(wal_sync_us_);
  s.wal_group_max = Get(wal_group_max_);
  s.unwaited_replies = Get(unwaited_replies_);
  Histogram fsync{};
  for (std::size_t b = 0; b < fsync.size(); ++b) {
    fsync[b] = Get(fsync_buckets_[b]);
  }
  s.fsync_max_us = Get(fsync_max_us_);
  s.fsync_p50_us = Percentile(fsync, s.fsync_max_us, 0.50);
  s.fsync_p95_us = Percentile(fsync, s.fsync_max_us, 0.95);
  Histogram latency{};
  for (std::size_t b = 0; b < latency.size(); ++b) {
    latency[b] = per_thread_.Sum(kLatency + b);
  }
  const std::int64_t max_ns = per_thread_.Max(kMaxNs);
  s.p50_us = Percentile(latency, max_ns, 0.50) / 1000.0;
  s.p95_us = Percentile(latency, max_ns, 0.95) / 1000.0;
  s.max_us = max_ns / 1000;
  for (std::size_t t = 0; t < s.by_type.size(); ++t) {
    s.by_type[t] = per_thread_.Sum(kByType + t);
  }
  return s;
}

std::string ServerStats::ToJsonLine() const {
  StatsSnapshot s = Snapshot();
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\": \"server_stats\", \"requests\": %lld, \"errors\": %lld, "
      "\"sheds\": %lld, \"reads\": %lld, \"writes\": %lld, "
      "\"promotions\": %lld, \"inline_runs\": %lld, "
      "\"notifications\": %lld, "
      "\"deadline_drops\": %lld, \"dedup_hits\": %lld, "
      "\"heartbeats\": %lld, \"resumes\": %lld, \"idle_reaps\": %lld, "
      "\"eof_clean\": %lld, \"eof_truncated\": %lld, "
      "\"queue_depth\": %lld, \"queue_peak\": %lld, "
      "\"read_lock_wait_us\": %lld, \"write_lock_wait_us\": %lld, "
      "\"cache_hits\": %lld, \"cache_reply_hits\": %lld, "
      "\"cache_misses\": %lld, "
      "\"cache_evictions\": %lld, \"cache_invalidations\": %lld, "
      "\"cache_flushes\": %lld, "
      "\"wal_batches\": %lld, \"wal_records\": %lld, \"wal_syncs\": %lld, "
      "\"wal_sync_us\": %lld, \"wal_group_max\": %lld, "
      "\"unwaited_replies\": %lld, "
      "\"fsync_p50_us\": %.1f, \"fsync_p95_us\": %.1f, "
      "\"fsync_max_us\": %lld, "
      "\"p50_us\": %.3f, \"p95_us\": %.3f, \"max_us\": %lld",
      static_cast<long long>(s.requests), static_cast<long long>(s.errors),
      static_cast<long long>(s.sheds), static_cast<long long>(s.reads),
      static_cast<long long>(s.writes), static_cast<long long>(s.promotions),
      static_cast<long long>(s.inline_runs),
      static_cast<long long>(s.notifications),
      static_cast<long long>(s.deadline_drops),
      static_cast<long long>(s.dedup_hits),
      static_cast<long long>(s.heartbeats),
      static_cast<long long>(s.resumes),
      static_cast<long long>(s.idle_reaps),
      static_cast<long long>(s.eof_clean),
      static_cast<long long>(s.eof_truncated),
      static_cast<long long>(s.queue_depth),
      static_cast<long long>(s.queue_peak),
      static_cast<long long>(s.read_lock_wait_us),
      static_cast<long long>(s.write_lock_wait_us),
      static_cast<long long>(s.cache_hits),
      static_cast<long long>(s.cache_reply_hits),
      static_cast<long long>(s.cache_misses),
      static_cast<long long>(s.cache_evictions),
      static_cast<long long>(s.cache_invalidations),
      static_cast<long long>(s.cache_flushes),
      static_cast<long long>(s.wal_batches),
      static_cast<long long>(s.wal_records),
      static_cast<long long>(s.wal_syncs),
      static_cast<long long>(s.wal_sync_us),
      static_cast<long long>(s.wal_group_max),
      static_cast<long long>(s.unwaited_replies), s.fsync_p50_us,
      s.fsync_p95_us, static_cast<long long>(s.fsync_max_us), s.p50_us,
      s.p95_us, static_cast<long long>(s.max_us));
  std::string out = buf;
  out += ", \"by_type\": [";
  bool first = true;
  for (std::size_t t = 0; t < s.by_type.size(); ++t) {
    if (s.by_type[t] == 0) continue;
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "[%d, %lld]", static_cast<int>(t),
                  static_cast<long long>(s.by_type[t]));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace isis::server
