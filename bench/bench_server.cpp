/// \file bench_server.cpp
/// \brief Multi-session durable-server throughput across read/write mixes,
/// WAL sync policies and worker-pool sizes.
///
/// K client threads each drive one session through the production client
/// stack -- RetryingClient over the in-process loopback transport (full
/// wire framing with deadline/write_seq extensions, no socket) -- against
/// one shared scaled_music database running DURABLE: every assign is in the
/// on-disk WAL before its reply. Three mixes are swept -- 0/100, 50/50 and
/// 95/5 query/assign -- each under three sync policies (per_commit, group,
/// none; store/group_commit.h) at 1, 4 and 8 worker threads. Writes are
/// disjoint by session and idempotent, so the final database state is
/// interleaving-independent and the run asserts byte-identical query
/// answers across every thread count of one (mix, policy) cell.
///
/// Each session is serial, so its lane is idle whenever its client calls:
/// the loopback transport's blocking Server::Call runs the request to
/// completion on the client's own thread (executor.h, rule 5), and the
/// worker pool sees only the rare request that finds its lane busy (a
/// promoted read's re-run). The pool size therefore barely changes how
/// these clients are served; `inline_runs` against `requests` on each line
/// shows it, and the CI bench job asserts inline_runs / requests >= 0.9 on
/// every cell. The concurrency that remains is the K client threads
/// themselves, under the shared/exclusive lock.
///
/// What the sweep does isolate is group commit: under per_commit every
/// write pays its own fsync; under group concurrent writers share one;
/// none is the no-durability ceiling. The group-size and fsync counters on
/// each line show the mechanism (syncs_per_write < 1 = groups formed).
///
/// One JSON line per (mix, policy, pool size):
///
///   {"name":"server_throughput","threads":4,"sessions":8,"ops":3200,
///    "read_frac":0.50,"wal_sync":"group","ops_per_sec":...,
///    "p50_us":...,"p95_us":...,"max_us":...,"requests":...,
///    "inline_runs":...,"sheds":...,
///    "promotions":...,"write_lock_wait_us":...,"cache_hits":...,
///    "cache_misses":...,"cache_hit_rate":...,"retries":...,
///    "retry_hints":...,"wal_records":...,"wal_syncs":...,
///    "syncs_per_write":...,"wal_group_max":...,"fsync_p50_us":...}
///
/// plus one summary line per (mix, policy):
///
///   {"name":"server_scaling","read_frac":0.50,"wal_sync":"group",
///    "speedup_4x":...,"speedup_8x":...,"final_state_identical":true}
///
/// speedup_4x is ops_per_sec(4 threads) / ops_per_sec(1 thread); with the
/// clients served inline it is expected to sit near 1.0 and is reported,
/// not asserted. A custom main (not Google Benchmark): the JSON-lines
/// contract is the point, and one process run doubles as the CI smoke
/// test.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/scaled_music.h"
#include "server/loopback.h"
#include "server/retry.h"
#include "server/session.h"
#include "store/file.h"
#include "store/group_commit.h"

namespace {

using Clock = std::chrono::steady_clock;
using isis::Result;
using isis::datasets::BuildScaledMusic;
using isis::server::Frame;
using isis::server::JoinFields;
using isis::server::LoopbackTransport;
using isis::server::MsgType;
using isis::server::RetryCounters;
using isis::server::RetryingClient;
using isis::server::RetryOptions;
using isis::server::Server;
using isis::server::ServerOptions;
using isis::server::StatsSnapshot;
using isis::store::WalSyncPolicy;
using isis::store::WalSyncPolicyName;

constexpr int kScale = 4;      // ~64 musicians, 8 instruments, 12 groups.
constexpr int kSessions = 8;
constexpr int kOpsPerSession = 400;
const char* const kDurableDir = "/tmp";

/// One assign per this many ops; {1, 2, 20} gives the 0/100, 50/50 and
/// 95/5 read/write mixes.
constexpr int kWriteEverySweep[] = {1, 2, 20};

constexpr WalSyncPolicy kPolicySweep[] = {
    WalSyncPolicy::kPerCommit, WalSyncPolicy::kGroup, WalSyncPolicy::kNone};

/// The canonical post-run probe: answers must be byte-identical across
/// every worker-pool size of one (mix, policy) cell.
const char* const kFinalQueries[][2] = {
    {"musicians", "e.plays ]= {inst0}"},
    {"musicians", "e.plays ]= {inst1}"},
    {"music_groups", "e.size = {3}"},
};

double ReadFrac(int write_every) { return 1.0 - 1.0 / write_every; }

/// Removes the durable files a run leaves in kDurableDir, so no run
/// recovers a predecessor's WAL.
void WipeDurable(const std::string& db_name) {
  isis::store::FileEnv* env = isis::store::FileEnv::Default();
  (void)env->Remove(std::string(kDurableDir) + "/" + db_name + ".server.wal");
  (void)env->Remove(std::string(kDurableDir) + "/" + db_name +
                    ".server.wal.tmp");
  (void)env->Remove(std::string(kDurableDir) + "/" + db_name + ".isis");
  (void)env->Remove(std::string(kDurableDir) + "/" + db_name + ".isis.tmp");
}

struct RunResult {
  double ops_per_sec = 0.0;
  StatsSnapshot stats;
  std::int64_t retries = 0;      ///< Client-side resends, summed.
  std::int64_t retry_hints = 0;  ///< kRetry sheds absorbed by backoff.
  std::vector<std::string> final_payloads;
};

/// One client session's script: queries, with every write_every-th op an
/// assign into this session's own slice of musicians (disjoint across
/// sessions, idempotent values). Driven through RetryingClient, so a
/// kRetry shed is retried after backoff rather than dropped.
void ClientScript(Server* srv, int session_index, int write_every, char* ok,
                  RetryCounters* counters) {
  RetryOptions retry_options;
  retry_options.max_attempts = 16;
  retry_options.timeout_ms = 30000;  // Generous: sheds, not deadlines.
  retry_options.jitter_seed = 100 + static_cast<std::uint64_t>(session_index);
  RetryingClient client(
      std::make_unique<LoopbackTransport>(
          srv, "bench" + std::to_string(session_index)),
      retry_options);
  if (!client.Connect().ok()) {
    *ok = false;
    return;
  }
  const int total_musicians = 16 * kScale;
  const int slice = total_musicians / kSessions;
  const int base = session_index * slice;
  int next_write = 0;
  for (int op = 0; op < kOpsPerSession; ++op) {
    if (op % write_every == write_every - 1) {
      // Deterministic target and value: musician (base + i) plays
      // inst(i % 2), regardless of interleaving.
      int i = next_write++ % slice;
      if (!client
               .Assign("musicians", "musician" + std::to_string(base + i),
                       "plays", "inst" + std::to_string(i % 2))
               .ok()) {
        *ok = false;
        return;
      }
    } else {
      const char* const* q = kFinalQueries[op % 3];
      Result<Frame> resp =
          client.Call(MsgType::kQuery, JoinFields({q[0], q[1]}));
      if (!resp.ok() || resp->type != MsgType::kQueryResult) {
        *ok = false;
        return;
      }
    }
  }
  *counters = client.counters();
}

RunResult RunConfig(int threads, int write_every, WalSyncPolicy policy) {
  const std::string db_name =
      "bench_srv_w" + std::to_string(write_every) + "_" +
      WalSyncPolicyName(policy) + "_t" + std::to_string(threads);
  WipeDurable(db_name);
  ServerOptions options;
  options.threads = threads;
  options.durable_dir = kDurableDir;
  options.wal_sync = policy;
  auto ws = BuildScaledMusic(kScale);
  ws->set_name(db_name);
  Result<std::unique_ptr<Server>> opened =
      Server::Open(std::move(ws), options);
  if (!opened.ok()) std::abort();
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();

  std::vector<std::thread> clients;
  std::vector<char> oks(kSessions, 1);
  std::vector<RetryCounters> counters(kSessions);
  auto t0 = Clock::now();
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back(ClientScript, srv.get(), s, write_every, &oks[s],
                         &counters[s]);
  }
  for (std::thread& t : clients) t.join();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                t0)
          .count();
  for (char ok : oks) {
    if (!ok) std::abort();
  }

  RunResult r;
  r.ops_per_sec = (kSessions * kOpsPerSession) / secs;
  for (const RetryCounters& c : counters) {
    r.retries += c.retries;
    r.retry_hints += c.retry_hints;
  }
  RetryingClient probe(std::make_unique<LoopbackTransport>(srv.get(), "probe"),
                       RetryOptions());
  if (!probe.Connect().ok()) std::abort();
  for (const auto& q : kFinalQueries) {
    Result<Frame> resp = probe.Call(MsgType::kQuery, JoinFields({q[0], q[1]}));
    if (!resp.ok() || resp->type != MsgType::kQueryResult) std::abort();
    r.final_payloads.push_back(resp->payload);
  }
  // Snapshot after Shutdown: it drains the pool, flushes the committer and
  // syncs the result-cache counters into the stats block.
  srv->Shutdown();
  r.stats = srv->stats().Snapshot();
  WipeDurable(db_name);
  return r;
}

}  // namespace

int main() {
  const int thread_counts[] = {1, 4, 8};
  bool all_identical = true;
  for (int write_every : kWriteEverySweep) {
    for (WalSyncPolicy policy : kPolicySweep) {
      std::vector<RunResult> results;
      for (int threads : thread_counts) {
        RunResult r = RunConfig(threads, write_every, policy);
        const double lookups =
            static_cast<double>(r.stats.cache_hits + r.stats.cache_misses);
        const double syncs_per_write =
            r.stats.wal_records > 0
                ? static_cast<double>(r.stats.wal_syncs) /
                      static_cast<double>(r.stats.wal_records)
                : 0.0;
        std::printf(
            "{\"name\":\"server_throughput\",\"threads\":%d,\"sessions\":%d,"
            "\"ops\":%d,\"read_frac\":%.2f,\"wal_sync\":\"%s\","
            "\"ops_per_sec\":%.0f,"
            "\"p50_us\":%.1f,\"p95_us\":%.1f,\"max_us\":%lld,"
            "\"requests\":%lld,\"inline_runs\":%lld,\"sheds\":%lld,"
            "\"promotions\":%lld,\"write_lock_wait_us\":%lld,"
            "\"cache_hits\":%lld,\"cache_misses\":%lld,"
            "\"cache_hit_rate\":%.3f,\"retries\":%lld,\"retry_hints\":%lld,"
            "\"wal_records\":%lld,\"wal_syncs\":%lld,"
            "\"syncs_per_write\":%.3f,\"wal_group_max\":%lld,"
            "\"fsync_p50_us\":%.1f}\n",
            threads, kSessions, kSessions * kOpsPerSession,
            ReadFrac(write_every), WalSyncPolicyName(policy), r.ops_per_sec,
            r.stats.p50_us, r.stats.p95_us,
            static_cast<long long>(r.stats.max_us),
            static_cast<long long>(r.stats.requests),
            static_cast<long long>(r.stats.inline_runs),
            static_cast<long long>(r.stats.sheds),
            static_cast<long long>(r.stats.promotions),
            static_cast<long long>(r.stats.write_lock_wait_us),
            static_cast<long long>(r.stats.cache_hits),
            static_cast<long long>(r.stats.cache_misses),
            lookups > 0 ? static_cast<double>(r.stats.cache_hits) / lookups
                        : 0.0,
            static_cast<long long>(r.retries),
            static_cast<long long>(r.retry_hints),
            static_cast<long long>(r.stats.wal_records),
            static_cast<long long>(r.stats.wal_syncs), syncs_per_write,
            static_cast<long long>(r.stats.wal_group_max),
            r.stats.fsync_p50_us);
        std::fflush(stdout);
        results.push_back(std::move(r));
      }

      bool identical = true;
      for (const RunResult& r : results) {
        if (r.final_payloads != results[0].final_payloads) identical = false;
      }
      all_identical = all_identical && identical;
      std::printf(
          "{\"name\":\"server_scaling\",\"read_frac\":%.2f,"
          "\"wal_sync\":\"%s\",\"speedup_4x\":%.2f,\"speedup_8x\":%.2f,"
          "\"final_state_identical\":%s}\n",
          ReadFrac(write_every), WalSyncPolicyName(policy),
          results[1].ops_per_sec / results[0].ops_per_sec,
          results[2].ops_per_sec / results[0].ops_per_sec,
          identical ? "true" : "false");
      std::fflush(stdout);
    }
  }
  return all_identical ? 0 : 1;
}
