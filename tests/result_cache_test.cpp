/// \file result_cache_test.cpp
/// \brief The query-result cache (query/cache.h): key normalization,
/// selective read-set-stamp invalidation, LRU bounds, version-stamp safety,
/// and the server's cached read path against a cache-disabled oracle.
///
/// The oracle tests are the heart: a cached server and an uncached server
/// driven through identical randomized mutation/query interleavings must
/// answer every query with byte-identical payloads -- the cache is an
/// optimization, never an approximation. The concurrent variant runs under
/// ThreadSanitizer in CI (ISIS_SANITIZE=thread), alongside server_test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "datasets/scaled_music.h"
#include "live/deps.h"
#include "query/cache.h"
#include "query/eval.h"
#include "query/parser.h"
#include "sdm/value.h"
#include "server/loopback.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"

namespace isis::query {
namespace {

using datasets::BuildScaledMusic;
using datasets::ResolveScaledMusic;
using datasets::ScaledMusicHandles;
using server::Frame;
using server::JoinFields;
using server::LoopbackTransport;
using server::MsgType;
using server::RetryingClient;
using server::RetryOptions;
using server::Server;
using server::ServerOptions;

Predicate MustParse(const sdm::Database& db, ClassId cls,
                    const std::string& text) {
  Result<Predicate> p = ParsePredicate(db, cls, text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
  return *p;
}

std::string KeyOf(const sdm::Database& db, ClassId cls,
                  const std::string& text) {
  return ResultCache::NormalizeKey(MustParse(db, cls, text), cls);
}

/// The cache client protocol, as the server's DoQuery uses it: lookup,
/// else evaluate, stamp and insert.
std::shared_ptr<const sdm::EntitySet> CachedEval(ResultCache* rc,
                                                 sdm::Database& db,
                                                 ClassId cls,
                                                 const Predicate& pred) {
  const std::string key = ResultCache::NormalizeKey(pred, cls);
  std::shared_ptr<const sdm::EntitySet> hit = rc->Lookup(key);
  if (hit != nullptr) return hit;
  const std::uint64_t v0 = db.version();
  auto result = std::make_shared<const sdm::EntitySet>(
      Evaluator(db).EvaluateSubclass(pred, cls));
  rc->Insert(key,
             live::FlattenForCache(live::AnalyzeAdHoc(db.schema(), cls, pred)),
             result, v0);
  return result;
}

// --- Key normalization. ---

TEST(ResultCacheTest, KeyIgnoresAtomAndClauseOrderAndDuplicates) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);

  // AND clauses commute.
  EXPECT_EQ(
      KeyOf(db, h.musicians, "e.plays ]= {inst0} and e.union = {yes}"),
      KeyOf(db, h.musicians, "e.union = {yes} and e.plays ]= {inst0}"));
  // OR atoms commute and duplicates collapse.
  EXPECT_EQ(
      KeyOf(db, h.musicians, "e.plays ]= {inst0} or e.plays ]= {inst1}"),
      KeyOf(db, h.musicians,
            "e.plays ]= {inst1} or e.plays ]= {inst0} or e.plays ]= {inst1}"));
  // A duplicated AND clause collapses.
  EXPECT_EQ(KeyOf(db, h.musicians, "e.union = {yes} and e.union = {yes}"),
            KeyOf(db, h.musicians, "e.union = {yes}"));
}

TEST(ResultCacheTest, KeySeparatesFormClassAndPredicate) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);

  // AND vs OR of the same two atoms are different queries.
  EXPECT_NE(
      KeyOf(db, h.musicians, "e.plays ]= {inst0} and e.union = {yes}"),
      KeyOf(db, h.musicians, "e.plays ]= {inst0} or e.union = {yes}"));
  // Same predicate text against different candidate classes.
  Predicate p = MustParse(db, h.music_groups, "e.size = {3}");
  EXPECT_NE(ResultCache::NormalizeKey(p, h.music_groups),
            ResultCache::NormalizeKey(p, h.families));
  // Different constants.
  EXPECT_NE(KeyOf(db, h.music_groups, "e.size = {3}"),
            KeyOf(db, h.music_groups, "e.size = {4}"));
}

// --- Hit/miss protocol. ---

TEST(ResultCacheTest, RepeatLookupHitsWithIdenticalResult) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);

  Predicate p = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  auto first = CachedEval(&rc, db, h.musicians, p);
  auto second = CachedEval(&rc, db, h.musicians, p);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(second.get(), first.get());  // The same stored set, not a copy.

  ResultCache::Counters c = rc.counters();
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.insertions, 1);
}

// --- Selective invalidation. ---

TEST(ResultCacheTest, AttributeDeltaEvictsOnlyDependentEntries) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);

  Predicate plays_q = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  Predicate size_q = MustParse(db, h.music_groups, "e.size = {3}");
  CachedEval(&rc, db, h.musicians, plays_q);
  CachedEval(&rc, db, h.music_groups, size_q);
  const std::string plays_key =
      ResultCache::NormalizeKey(plays_q, h.musicians);
  const std::string size_key =
      ResultCache::NormalizeKey(size_q, h.music_groups);
  ASSERT_TRUE(rc.Peek(plays_key));
  ASSERT_TRUE(rc.Peek(size_key));

  // Mutate `plays` of one musician: the plays query must go, the size
  // query must survive.
  EntityId m = *db.Members(h.musicians).begin();
  ASSERT_TRUE(db.AddToMulti(m, h.plays, *db.Members(h.instruments).begin())
                  .ok());
  EXPECT_FALSE(rc.Peek(plays_key));
  EXPECT_TRUE(rc.Peek(size_key));
  EXPECT_EQ(rc.counters().schema_flushes, 0);
  EXPECT_EQ(rc.counters().version_flushes, 0);

  // The cached answer reflects the mutation after repopulating.
  auto fresh = CachedEval(&rc, db, h.musicians, plays_q);
  EXPECT_GE(rc.counters().invalidations, 1);
  sdm::EntitySet oracle =
      Evaluator(db).EvaluateSubclass(plays_q, h.musicians);
  EXPECT_EQ(*fresh, oracle);
}

TEST(ResultCacheTest, MembershipDeltaEvictsByCandidateClass) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);

  Predicate plays_q = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  Predicate size_q = MustParse(db, h.music_groups, "e.size = {3}");
  CachedEval(&rc, db, h.musicians, plays_q);
  CachedEval(&rc, db, h.music_groups, size_q);

  ASSERT_TRUE(db.CreateEntity(h.musicians, "brand_new_musician").ok());
  EXPECT_FALSE(rc.Peek(ResultCache::NormalizeKey(plays_q, h.musicians)));
  EXPECT_TRUE(rc.Peek(ResultCache::NormalizeKey(size_q, h.music_groups)));
}

TEST(ResultCacheTest, SchemaChangeFlushesEverything) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);

  Predicate plays_q = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  Predicate size_q = MustParse(db, h.music_groups, "e.size = {3}");
  CachedEval(&rc, db, h.musicians, plays_q);
  CachedEval(&rc, db, h.music_groups, size_q);

  // Deleting an attribute *neither query reads* still flushes: schema
  // changes rewrite the dependency universe, so the lattice's top applies.
  ASSERT_TRUE(db.DeleteAttribute(h.popular).ok());
  EXPECT_FALSE(rc.Peek(ResultCache::NormalizeKey(plays_q, h.musicians)));
  EXPECT_FALSE(rc.Peek(ResultCache::NormalizeKey(size_q, h.music_groups)));
  EXPECT_EQ(rc.Lookup(ResultCache::NormalizeKey(plays_q, h.musicians)),
            nullptr);
  EXPECT_EQ(rc.Lookup(ResultCache::NormalizeKey(size_q, h.music_groups)),
            nullptr);
  EXPECT_EQ(rc.counters().invalidations, 2);
  EXPECT_EQ(rc.size(), 0);
}

TEST(ResultCacheTest, InterningKeepsUnrelatedEntries) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);

  Predicate size_q = MustParse(db, h.music_groups, "e.size = {3}");
  CachedEval(&rc, db, h.music_groups, size_q);
  const std::string key = ResultCache::NormalizeKey(size_q, h.music_groups);

  // Interning a never-stored value grows only the integers extent, which
  // this query does not read: the entry survives and still hits.
  const std::uint64_t v0 = db.version();
  ASSERT_TRUE(db.InternValue(sdm::Value::Integer(123456789)).ok());
  ASSERT_NE(db.version(), v0);
  EXPECT_TRUE(rc.Peek(key));
  EXPECT_NE(rc.Lookup(key), nullptr);
  EXPECT_EQ(rc.counters().hits, 1);
  EXPECT_EQ(rc.counters().invalidations, 0);
  EXPECT_EQ(rc.counters().version_flushes, 0);
}

TEST(ResultCacheTest, RenameDropsEntriesThatReadTheName) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);  // Nothing observes this database.

  Predicate by_name =
      MustParse(db, h.musicians, "e.stage_name = {musician3}");
  Predicate plays_q = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  Result<EntityId> m3 = db.FindEntity(h.musicians, "musician3");
  ASSERT_TRUE(m3.ok());
  // The first evaluation interns every stage name, so the database moves
  // under it and the insert is refused; the second one is cached.
  CachedEval(&rc, db, h.musicians, by_name);
  EXPECT_EQ(*CachedEval(&rc, db, h.musicians, by_name), sdm::EntitySet{*m3});
  ASSERT_TRUE(rc.Peek(ResultCache::NormalizeKey(by_name, h.musicians)));
  CachedEval(&rc, db, h.musicians, plays_q);

  ASSERT_TRUE(db.RenameEntity(*m3, "renamed3").ok());
  EXPECT_EQ(rc.Lookup(ResultCache::NormalizeKey(by_name, h.musicians)),
            nullptr);
  EXPECT_EQ(rc.counters().invalidations, 1);
  EXPECT_TRUE(rc.Peek(ResultCache::NormalizeKey(plays_q, h.musicians)));
  EXPECT_TRUE(CachedEval(&rc, db, h.musicians, by_name)->empty());
}

// --- Capacity and stamps. ---

TEST(ResultCacheTest, LruEvictsTheColdestEntry) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache::Options opts;
  opts.capacity = 2;
  ResultCache rc(&db, opts);

  Predicate q1 = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  Predicate q2 = MustParse(db, h.musicians, "e.plays ]= {inst1}");
  Predicate q3 = MustParse(db, h.musicians, "e.union = {yes}");
  CachedEval(&rc, db, h.musicians, q1);
  CachedEval(&rc, db, h.musicians, q2);
  CachedEval(&rc, db, h.musicians, q1);  // Touch q1: q2 is now coldest.
  CachedEval(&rc, db, h.musicians, q3);  // Evicts q2.

  EXPECT_TRUE(rc.Peek(ResultCache::NormalizeKey(q1, h.musicians)));
  EXPECT_FALSE(rc.Peek(ResultCache::NormalizeKey(q2, h.musicians)));
  EXPECT_TRUE(rc.Peek(ResultCache::NormalizeKey(q3, h.musicians)));
  EXPECT_EQ(rc.counters().evictions, 1);
  EXPECT_EQ(rc.size(), 2);
}

TEST(ResultCacheTest, InsertRefusesAStaleVersionStamp) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);

  Predicate q = MustParse(db, h.music_groups, "e.size = {3}");
  const std::string key = ResultCache::NormalizeKey(q, h.music_groups);
  const std::uint64_t v0 = db.version();
  auto result = std::make_shared<const sdm::EntitySet>(
      Evaluator(db).EvaluateSubclass(q, h.music_groups));

  // The database moves between evaluation and insertion: the stamp is
  // stale and the insert must be refused (the result may be torn).
  EntityId g = *db.Members(h.music_groups).begin();
  Result<EntityId> four = db.InternValue(sdm::Value::Integer(4));
  ASSERT_TRUE(four.ok());
  ASSERT_TRUE(db.SetSingle(g, h.size, *four).ok());
  rc.Insert(key,
            live::FlattenForCache(
                live::AnalyzeAdHoc(db.schema(), h.music_groups, q)),
            result, v0);
  EXPECT_FALSE(rc.Peek(key));
}

TEST(ResultCacheTest, NonObservingCacheMayOutliveTheDatabase) {
  auto ws = BuildScaledMusic(1);
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache::Options opts;
  auto rc = std::make_unique<ResultCache>(&ws->db(), opts);

  Predicate q = MustParse(ws->db(), h.music_groups, "e.size = {3}");
  CachedEval(rc.get(), ws->db(), h.music_groups, q);
  EXPECT_TRUE(rc->Peek(ResultCache::NormalizeKey(q, h.music_groups)));

  // A mutation of what the query reads stales the entry.
  EntityId g = *ws->db().Members(h.music_groups).begin();
  Result<EntityId> nine = ws->db().InternValue(sdm::Value::Integer(9));
  ASSERT_TRUE(nine.ok());
  ASSERT_TRUE(ws->db().SetSingle(g, h.size, *nine).ok());
  EXPECT_FALSE(rc->Peek(ResultCache::NormalizeKey(q, h.music_groups)));

  // The REPL's undo/load path: the database dies first. Destroying the
  // cache afterwards must not touch it.
  ws.reset();
  rc.reset();
}

// --- Server-level oracle: cached vs uncached, randomized interleaving. ---

std::string StripCacheLine(std::string s) {
  std::size_t pos = s.rfind("\ncache: ");
  return pos == std::string::npos ? s : s.substr(0, pos);
}

TEST(ResultCacheOracleTest, RandomizedInterleavingMatchesUncachedServer) {
  constexpr int kScale = 2;  // 32 musicians, 4 instruments, 6 groups.
  constexpr int kSessions = 3;
  constexpr int kOps = 600;

  ServerOptions cached_opts;
  cached_opts.threads = 2;
  ServerOptions plain_opts;
  plain_opts.threads = 2;
  plain_opts.result_cache = false;

  auto cached_r = Server::Open(BuildScaledMusic(kScale), cached_opts);
  auto plain_r = Server::Open(BuildScaledMusic(kScale), plain_opts);
  ASSERT_TRUE(cached_r.ok());
  ASSERT_TRUE(plain_r.ok());
  std::unique_ptr<Server> cached = std::move(cached_r).ValueOrDie();
  std::unique_ptr<Server> plain = std::move(plain_r).ValueOrDie();

  std::vector<std::unique_ptr<RetryingClient>> cached_clients;
  std::vector<std::unique_ptr<RetryingClient>> plain_clients;
  for (int s = 0; s < kSessions; ++s) {
    cached_clients.push_back(std::make_unique<RetryingClient>(
        std::make_unique<LoopbackTransport>(cached.get(),
                                            "c" + std::to_string(s)),
        RetryOptions()));
    plain_clients.push_back(std::make_unique<RetryingClient>(
        std::make_unique<LoopbackTransport>(plain.get(),
                                            "p" + std::to_string(s)),
        RetryOptions()));
    ASSERT_TRUE(cached_clients.back()->Connect().ok());
    ASSERT_TRUE(plain_clients.back()->Connect().ok());
  }

  const std::vector<std::pair<std::string, std::string>> pool = {
      {"musicians", "e.plays ]= {inst0}"},
      {"musicians", "e.plays ]= {inst1}"},
      {"musicians", "e.plays ]= {inst0} and e.union = {yes}"},
      {"musicians", "e.plays ]= {inst2} or e.plays ]= {inst3}"},
      {"music_groups", "e.size = {3}"},
      {"music_groups", "e.size = {4} and e.members.plays ]= {inst1}"},
      {"instruments", "e.popular = {yes}"},
      {"music_groups", "e.includes ]= {family0}"},
  };

  std::mt19937 rng(20260808);
  for (int op = 0; op < kOps; ++op) {
    const int s = static_cast<int>(rng() % kSessions);
    const int kind = static_cast<int>(rng() % 10);
    if (kind == 0) {
      // Mutation, applied to both servers: random musician plays a random
      // instrument.
      const std::string musician =
          "musician" + std::to_string(rng() % (16 * kScale));
      const std::string inst = "inst" + std::to_string(rng() % (2 * kScale));
      Status cs =
          cached_clients[s]->Assign("musicians", musician, "plays", inst);
      Status ps =
          plain_clients[s]->Assign("musicians", musician, "plays", inst);
      ASSERT_EQ(cs.ok(), ps.ok()) << cs.ToString() << " vs " << ps.ToString();
    } else if (kind == 1) {
      // Explain: identical plans; only the trailing cache line may differ
      // (hit/miss vs bypass).
      const auto& q = pool[rng() % pool.size()];
      Result<Frame> cf = cached_clients[s]->Call(
          MsgType::kExplain, JoinFields({q.first, q.second}));
      Result<Frame> pf = plain_clients[s]->Call(
          MsgType::kExplain, JoinFields({q.first, q.second}));
      ASSERT_TRUE(cf.ok());
      ASSERT_TRUE(pf.ok());
      EXPECT_EQ(StripCacheLine(cf->payload), StripCacheLine(pf->payload));
      EXPECT_EQ(pf->payload.substr(StripCacheLine(pf->payload).size()),
                "\ncache: bypass")
          << "an uncached server's explain must report bypass";
    } else {
      // Query: byte-identical payloads, every time.
      const auto& q = pool[rng() % pool.size()];
      Result<Frame> cf = cached_clients[s]->Call(
          MsgType::kQuery, JoinFields({q.first, q.second}));
      Result<Frame> pf = plain_clients[s]->Call(
          MsgType::kQuery, JoinFields({q.first, q.second}));
      ASSERT_TRUE(cf.ok());
      ASSERT_TRUE(pf.ok());
      ASSERT_EQ(cf->type, MsgType::kQueryResult);
      ASSERT_EQ(pf->type, MsgType::kQueryResult);
      ASSERT_EQ(cf->payload, pf->payload)
          << "op " << op << " query " << q.first << " " << q.second;
    }
  }

  // The cache must have actually been exercised, or this test proves
  // nothing.
  ASSERT_NE(cached->result_cache(), nullptr);
  EXPECT_GT(cached->result_cache()->counters().hits, 0);
  EXPECT_GT(cached->result_cache()->counters().invalidations +
                cached->result_cache()->counters().version_flushes +
                cached->result_cache()->counters().schema_flushes,
            0);
  EXPECT_EQ(plain->result_cache(), nullptr);
  cached->Shutdown();
  plain->Shutdown();
}

// --- Concurrent convergence (the TSan target). ---

TEST(ResultCacheTest, ConcurrentCachedSessionsConvergeToOracle) {
  constexpr int kScale = 2;
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 150;
  const char* const probes[][2] = {
      {"musicians", "e.plays ]= {inst0}"},
      {"musicians", "e.plays ]= {inst1}"},
      {"music_groups", "e.size = {3}"},
  };

  ServerOptions opts;
  opts.threads = 4;
  auto opened = Server::Open(BuildScaledMusic(kScale), opts);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();

  // Disjoint idempotent writes (thread t owns musicians [t*slice,
  // (t+1)*slice) and always writes musician m plays inst(m%2)), so the
  // final state is interleaving-independent.
  const int total = 16 * kScale;
  const int slice = total / kThreads;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RetryingClient client(
          std::make_unique<LoopbackTransport>(srv.get(),
                                              "w" + std::to_string(t)),
          RetryOptions());
      if (!client.Connect().ok()) {
        ++failures;
        return;
      }
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (op % 5 == 4 && slice > 0) {
          const int m = t * slice + (op / 5) % slice;
          if (!client
                   .Assign("musicians", "musician" + std::to_string(m),
                           "plays", "inst" + std::to_string(m % 2))
                   .ok()) {
            ++failures;
            return;
          }
        } else {
          const char* const* q = probes[op % 3];
          Result<Frame> resp =
              client.Call(MsgType::kQuery, JoinFields({q[0], q[1]}));
          if (!resp.ok() || resp->type != MsgType::kQueryResult) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0);

  // Oracle: a fresh uncached single-threaded server with the same final
  // writes applied once. Every probe answer must match byte-for-byte.
  ServerOptions oracle_opts;
  oracle_opts.threads = 1;
  oracle_opts.result_cache = false;
  auto oracle_r = Server::Open(BuildScaledMusic(kScale), oracle_opts);
  ASSERT_TRUE(oracle_r.ok());
  std::unique_ptr<Server> oracle = std::move(oracle_r).ValueOrDie();
  RetryingClient oracle_client(
      std::make_unique<LoopbackTransport>(oracle.get(), "oracle"),
      RetryOptions());
  ASSERT_TRUE(oracle_client.Connect().ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < slice; ++i) {
      const int m = t * slice + i;
      ASSERT_TRUE(oracle_client
                      .Assign("musicians", "musician" + std::to_string(m),
                              "plays", "inst" + std::to_string(m % 2))
                      .ok());
    }
  }
  RetryingClient probe(std::make_unique<LoopbackTransport>(srv.get(), "probe"),
                       RetryOptions());
  ASSERT_TRUE(probe.Connect().ok());
  for (const auto& q : probes) {
    Result<Frame> got = probe.Call(MsgType::kQuery, JoinFields({q[0], q[1]}));
    Result<Frame> want =
        oracle_client.Call(MsgType::kQuery, JoinFields({q[0], q[1]}));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->payload, want->payload) << q[0] << " " << q[1];
  }
  srv->Shutdown();
  oracle->Shutdown();
}

}  // namespace
}  // namespace isis::query
