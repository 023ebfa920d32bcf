/// \file chaos_test.cpp
/// \brief The network chaos harness: concurrent retrying clients over
/// fault-injecting transports must converge to the fault-free oracle state.
///
/// Each schedule wires 4 client threads through
/// RetryingClient -> FaultInjectingTransport -> LoopbackTransport and lets
/// a seeded fault mix drop, corrupt, delay and disconnect at will. Every
/// logical operation must still succeed (the retry budget is generous, the
/// fault probabilities are not certainties), no wait may hang (every wait
/// in the stack is deadline-bounded), and the surviving database state must
/// be *byte-identical* to a fault-free single-threaded run of the same
/// writes. Sessions write disjoint entities with deterministic values, so
/// the final state is independent of interleaving and the comparison is
/// exact, not statistical.
///
/// Runs under ThreadSanitizer in CI (label `chaos`) with ISIS_CHAOS_SEEDS
/// trimmed; the full default is 8 seeded schedules.
///
/// The durable variant replays the same discipline against a server with
/// `--wal_sync=group`: chaos traffic over a real on-disk WAL, then a crash
/// (no Shutdown) and recovery must land byte-identical to the oracle too --
/// group commit must not reorder or lose acknowledged writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datasets/scaled_music.h"
#include "server/faults.h"
#include "server/loopback.h"
#include "server/retry.h"
#include "server/session.h"
#include "store/file.h"

namespace isis::server {
namespace {

constexpr int kSessions = 4;
constexpr int kWritesPerSession = 24;
constexpr int kMusicians = 32;    // BuildScaledMusic(2).
constexpr int kInstruments = 4;

int ScheduleCount() {
  if (const char* env = std::getenv("ISIS_CHAOS_SEEDS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

/// The deterministic write list for one session: session `s` owns the
/// musicians with index % kSessions == s, so sessions never contend on an
/// entity and last-write-wins makes the final state a pure function of
/// each session's program order.
struct Write {
  std::string entity;
  std::string values;
};

std::vector<Write> SessionWrites(int session) {
  std::vector<Write> out;
  Rng rng(1000 + static_cast<std::uint64_t>(session));
  for (int i = 0; i < kWritesPerSession; ++i) {
    int m = session + kSessions * static_cast<int>(rng.Below(
                                      kMusicians / kSessions));
    std::string values = "inst" + std::to_string(rng.Below(kInstruments));
    if (rng.Chance(0.4)) {
      values += ",inst" + std::to_string(rng.Below(kInstruments));
    }
    out.push_back({"musician" + std::to_string(m), values});
  }
  return out;
}

FaultSchedule MakeSchedule(std::uint64_t seed) {
  // Every knob derived from the seed: a failing schedule is replayable
  // from its number alone.
  Rng rng(seed * 7919 + 1);
  FaultSchedule f;
  f.seed = seed;
  f.delay_prob = 0.04 + rng.Unit() * 0.04;
  f.max_delay_us = 300;
  f.drop_request_prob = 0.02 + rng.Unit() * 0.03;
  f.corrupt_prob = 0.02 + rng.Unit() * 0.03;
  f.partial_write_prob = 0.02 + rng.Unit() * 0.03;
  f.drop_response_prob = 0.04 + rng.Unit() * 0.06;
  f.disconnect_prob = 0.02 + rng.Unit() * 0.03;
  f.connect_fail_prob = 0.05 + rng.Unit() * 0.10;
  return f;
}

RetryOptions ChaosRetryOptions(std::uint64_t seed, int session) {
  RetryOptions o;
  // Generous budget: the fault probabilities make long streaks of failed
  // attempts rare but not impossible, and one exhausted op fails the test.
  o.max_attempts = 50;
  // Short per-attempt deadline so injected request drops cost ~nothing but
  // real work still finishes under TSan.
  o.timeout_ms = 2000;
  o.base_backoff_ms = 1;
  o.max_backoff_ms = 8;
  o.jitter_seed = seed * 131 + static_cast<std::uint64_t>(session);
  return o;
}

/// Queries whose payloads the chaos run must reproduce byte-identically.
std::vector<std::string> OracleQueries() {
  std::vector<std::string> preds;
  for (int i = 0; i < kInstruments; ++i) {
    preds.push_back("e.plays ]= {inst" + std::to_string(i) + "}");
  }
  return preds;
}

struct SessionTally {
  std::int64_t retries = 0;
  std::int64_t transport_errors = 0;
  std::int64_t resumed = 0;
  std::int64_t faults = 0;
  bool all_ok = true;
  std::string first_error;
};

TEST(ChaosTest, SeededSchedulesConvergeToTheFaultFreeOracle) {
  // The oracle: the same writes, one thread, no faults.
  std::unique_ptr<Server> oracle_srv;
  std::vector<std::string> oracle_payloads;
  {
    ServerOptions opts;
    opts.threads = 1;
    Result<std::unique_ptr<Server>> opened =
        Server::Open(datasets::BuildScaledMusic(2), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    oracle_srv = std::move(opened).ValueOrDie();
    RetryingClient client(
        std::make_unique<LoopbackTransport>(oracle_srv.get(), "oracle"),
        RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    for (int s = 0; s < kSessions; ++s) {
      for (const Write& w : SessionWrites(s)) {
        ASSERT_TRUE(
            client.Assign("musicians", w.entity, "plays", w.values).ok());
      }
    }
    for (const std::string& pred : OracleQueries()) {
      Result<Frame> resp = client.Call(
          MsgType::kQuery, JoinFields({"musicians", pred}));
      ASSERT_TRUE(resp.ok());
      ASSERT_EQ(resp->type, MsgType::kQueryResult);
      oracle_payloads.push_back(resp->payload);
    }
    oracle_srv->Shutdown();
  }

  const int schedules = ScheduleCount();
  std::int64_t total_retries = 0;
  std::int64_t total_faults = 0;
  std::int64_t total_dedup_hits = 0;
  std::int64_t total_resumes = 0;

  for (int round = 0; round < schedules; ++round) {
    const std::uint64_t seed = static_cast<std::uint64_t>(round + 1);
    const FaultSchedule schedule = MakeSchedule(seed);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));

    ServerOptions opts;
    opts.threads = 4;
    opts.queue_capacity = 16;
    Result<std::unique_ptr<Server>> opened =
        Server::Open(datasets::BuildScaledMusic(2), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();

    std::vector<SessionTally> tallies(kSessions);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        SessionTally& tally = tallies[s];
        auto record = [&tally](const Status& st) {
          if (!st.ok() && tally.all_ok) {
            tally.all_ok = false;
            tally.first_error = st.ToString();
          }
        };
        FaultSchedule mine = schedule;
        mine.seed = seed * 977 + static_cast<std::uint64_t>(s);
        auto faulty = std::make_unique<FaultInjectingTransport>(
            std::make_unique<LoopbackTransport>(
                srv.get(), "chaos" + std::to_string(s)),
            mine);
        const FaultInjectingTransport* faults = faulty.get();
        RetryingClient client(std::move(faulty),
                              ChaosRetryOptions(seed, s));
        record(client.Connect());
        // Writes interleaved with reads: reads both add shared-lock
        // traffic and are the always-safe resend case.
        for (const Write& w : SessionWrites(s)) {
          record(client.Assign("musicians", w.entity, "plays", w.values));
          Result<std::vector<std::string>> q = client.Query(
              "musicians", "e.plays ]= {" + w.values.substr(
                               0, w.values.find(',')) + "}");
          record(q.status());
        }
        tally.retries = client.counters().retries;
        tally.transport_errors = client.counters().transport_errors;
        tally.resumed = client.counters().resumed;
        tally.faults = faults->counts().faults();
      });
    }
    for (std::thread& t : threads) t.join();

    for (int s = 0; s < kSessions; ++s) {
      EXPECT_TRUE(tallies[s].all_ok)
          << "session " << s << ": " << tallies[s].first_error;
      total_retries += tallies[s].retries;
      total_faults += tallies[s].faults;
      total_resumes += tallies[s].resumed;
    }

    // The survivors' state must match the oracle byte for byte.
    RetryingClient verifier(
        std::make_unique<LoopbackTransport>(srv.get(), "verifier"),
        RetryOptions());
    ASSERT_TRUE(verifier.Connect().ok());
    const std::vector<std::string> preds = OracleQueries();
    for (std::size_t i = 0; i < preds.size(); ++i) {
      Result<Frame> resp = verifier.Call(
          MsgType::kQuery, JoinFields({"musicians", preds[i]}));
      ASSERT_TRUE(resp.ok());
      ASSERT_EQ(resp->type, MsgType::kQueryResult);
      EXPECT_EQ(resp->payload, oracle_payloads[i])
          << "diverged on: " << preds[i];
    }
    total_dedup_hits += srv->stats().Snapshot().dedup_hits;
    srv->Shutdown();
  }

  // Across the whole run the harness must actually have bitten: faults
  // fired, retries happened, and at least one lost write response was
  // served from the dedup window (the correctness-critical path).
  EXPECT_GT(total_faults, 0) << "the fault injector never fired";
  EXPECT_GT(total_retries, 0) << "no attempt was ever retried";
  EXPECT_GT(total_resumes, 0) << "no reconnect ever resumed a session";
  EXPECT_GT(total_dedup_hits, 0)
      << "no resent write was deduped -- the write-safety path went untested";
}

/// Removes every file a durable server named `name` can leave behind, so a
/// round never recovers a previous round's WAL.
void WipeDurable(const std::string& name) {
  store::FileEnv* env = store::FileEnv::Default();
  const std::string dir = ::testing::TempDir();
  (void)env->Remove(dir + "/" + name + ".server.wal");
  (void)env->Remove(dir + "/" + name + ".server.wal.tmp");
  (void)env->Remove(dir + "/" + name + ".isis");
  (void)env->Remove(dir + "/" + name + ".isis.tmp");
}

TEST(ChaosTest, DurableGroupCommitConvergesAndSurvivesACrash) {
  // Fewer rounds than the in-memory suite: every round pays real fsyncs.
  const int schedules = std::max(1, ScheduleCount() / 4);

  // The oracle: same writes, one thread, no faults, no disk.
  std::vector<std::string> oracle_payloads;
  {
    ServerOptions opts;
    opts.threads = 1;
    Result<std::unique_ptr<Server>> opened =
        Server::Open(datasets::BuildScaledMusic(2), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Server> oracle_srv = std::move(opened).ValueOrDie();
    RetryingClient client(
        std::make_unique<LoopbackTransport>(oracle_srv.get(), "oracle"),
        RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    for (int s = 0; s < kSessions; ++s) {
      for (const Write& w : SessionWrites(s)) {
        ASSERT_TRUE(
            client.Assign("musicians", w.entity, "plays", w.values).ok());
      }
    }
    for (const std::string& pred : OracleQueries()) {
      Result<Frame> resp = client.Call(
          MsgType::kQuery, JoinFields({"musicians", pred}));
      ASSERT_TRUE(resp.ok());
      oracle_payloads.push_back(resp->payload);
    }
    oracle_srv->Shutdown();
  }

  for (int round = 0; round < schedules; ++round) {
    const std::uint64_t seed = static_cast<std::uint64_t>(round + 1);
    const FaultSchedule schedule = MakeSchedule(seed);
    const std::string db_name = "chaos_dur" + std::to_string(round);
    SCOPED_TRACE("durable chaos seed " + std::to_string(seed));
    WipeDurable(db_name);

    ServerOptions opts;
    opts.threads = 4;
    opts.queue_capacity = 16;
    opts.durable_dir = ::testing::TempDir();
    opts.wal_sync = store::WalSyncPolicy::kGroup;
    auto fresh_ws = [&db_name] {
      auto ws = datasets::BuildScaledMusic(2);
      ws->set_name(db_name);
      return ws;
    };
    Result<std::unique_ptr<Server>> opened = Server::Open(fresh_ws(), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();

    std::vector<SessionTally> tallies(kSessions);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        SessionTally& tally = tallies[s];
        auto record = [&tally](const Status& st) {
          if (!st.ok() && tally.all_ok) {
            tally.all_ok = false;
            tally.first_error = st.ToString();
          }
        };
        FaultSchedule mine = schedule;
        mine.seed = seed * 977 + static_cast<std::uint64_t>(s);
        auto faulty = std::make_unique<FaultInjectingTransport>(
            std::make_unique<LoopbackTransport>(
                srv.get(), "chaos" + std::to_string(s)),
            mine);
        RetryingClient client(std::move(faulty),
                              ChaosRetryOptions(seed, s));
        record(client.Connect());
        for (const Write& w : SessionWrites(s)) {
          record(client.Assign("musicians", w.entity, "plays", w.values));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_TRUE(tallies[s].all_ok)
          << "session " << s << ": " << tallies[s].first_error;
    }

    // Group commit did its job: every logged record is on disk, and the
    // sync count never exceeds the record count.
    StatsSnapshot snap = srv->stats().Snapshot();
    EXPECT_GT(snap.wal_records, 0);
    EXPECT_LE(snap.wal_syncs, snap.wal_records);

    // The live survivors must match the oracle byte for byte.
    const std::vector<std::string> preds = OracleQueries();
    {
      RetryingClient verifier(
          std::make_unique<LoopbackTransport>(srv.get(), "verifier"),
          RetryOptions());
      ASSERT_TRUE(verifier.Connect().ok());
      for (std::size_t i = 0; i < preds.size(); ++i) {
        Result<Frame> resp = verifier.Call(
            MsgType::kQuery, JoinFields({"musicians", preds[i]}));
        ASSERT_TRUE(resp.ok());
        EXPECT_EQ(resp->payload, oracle_payloads[i])
            << "diverged live on: " << preds[i];
      }
    }

    // Crash: destroy without Shutdown. Recovery must replay the WAL to a
    // state that still matches the oracle -- an acked-but-lost or
    // reordered group-committed write would diverge here.
    srv.reset();
    Result<std::unique_ptr<Server>> reopened = Server::Open(fresh_ws(), opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<Server> recovered = std::move(reopened).ValueOrDie();
    {
      RetryingClient verifier(
          std::make_unique<LoopbackTransport>(recovered.get(), "verifier"),
          RetryOptions());
      ASSERT_TRUE(verifier.Connect().ok());
      for (std::size_t i = 0; i < preds.size(); ++i) {
        Result<Frame> resp = verifier.Call(
            MsgType::kQuery, JoinFields({"musicians", preds[i]}));
        ASSERT_TRUE(resp.ok());
        EXPECT_EQ(resp->payload, oracle_payloads[i])
            << "diverged after recovery on: " << preds[i];
      }
    }
    recovered->Shutdown();
    WipeDurable(db_name);
  }
}

}  // namespace
}  // namespace isis::server
