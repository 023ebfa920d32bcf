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
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
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

/// The oracle pair: a cached server and an uncached twin opened over the
/// same dataset, each with `sessions` connected clients. Tests send every
/// request to both.
struct TwinServers {
  std::unique_ptr<Server> cached;
  std::unique_ptr<Server> plain;
  std::vector<std::unique_ptr<RetryingClient>> cached_clients;
  std::vector<std::unique_ptr<RetryingClient>> plain_clients;

  void Open(int scale, int sessions,
            int capacity = ServerOptions().result_cache_capacity) {
    ServerOptions cached_opts;
    cached_opts.threads = 2;
    cached_opts.result_cache_capacity = capacity;
    ServerOptions plain_opts;
    plain_opts.threads = 2;
    plain_opts.result_cache = false;
    auto cached_r = Server::Open(BuildScaledMusic(scale), cached_opts);
    auto plain_r = Server::Open(BuildScaledMusic(scale), plain_opts);
    ASSERT_TRUE(cached_r.ok());
    ASSERT_TRUE(plain_r.ok());
    cached = std::move(cached_r).ValueOrDie();
    plain = std::move(plain_r).ValueOrDie();
    for (int s = 0; s < sessions; ++s) {
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
  }

  /// One request to both servers on session `s`: {cached, plain} answers.
  std::pair<Frame, Frame> Call(int s, MsgType type,
                               const std::string& payload) {
    Result<Frame> cf = cached_clients[s]->Call(type, payload);
    Result<Frame> pf = plain_clients[s]->Call(type, payload);
    EXPECT_TRUE(cf.ok()) << payload << ": " << cf.status().ToString();
    EXPECT_TRUE(pf.ok()) << payload << ": " << pf.status().ToString();
    if (!cf.ok() || !pf.ok()) return {};
    return {*cf, *pf};
  }

  /// Call, expecting byte-identical answers, type included; returns the
  /// cached server's.
  Frame Same(int s, MsgType type, const std::string& payload) {
    auto [c, p] = Call(s, type, payload);
    EXPECT_EQ(c.type, p.type) << payload << ": " << p.payload;
    EXPECT_EQ(c.payload, p.payload) << payload;
    return c;
  }

  ResultCache::Counters counters() const {
    return cached->result_cache()->counters();
  }
};

TEST(ResultCacheOracleTest, RandomizedInterleavingMatchesUncachedServer) {
  constexpr int kScale = 2;  // 32 musicians, 4 instruments, 6 groups.
  constexpr int kSessions = 3;
  constexpr int kOps = 600;

  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(kScale, kSessions));

  const std::vector<std::string> pool = {
      JoinFields({"musicians", "e.plays ]= {inst0}"}),
      JoinFields({"musicians", "e.plays ]= {inst1}"}),
      JoinFields({"musicians", "e.plays ]= {inst0} and e.union = {yes}"}),
      JoinFields({"musicians", "e.plays ]= {inst2} or e.plays ]= {inst3}"}),
      JoinFields({"music_groups", "e.size = {3}"}),
      JoinFields(
          {"music_groups", "e.size = {4} and e.members.plays ]= {inst1}"}),
      JoinFields({"instruments", "e.popular = {yes}"}),
      JoinFields({"music_groups", "e.includes ]= {family0}"}),
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
      auto [c, p] = twins.Call(
          s, MsgType::kAssign, JoinFields({"musicians", musician, "plays", inst}));
      ASSERT_EQ(c.type, MsgType::kOk) << c.payload;
      ASSERT_EQ(p.type, MsgType::kOk) << p.payload;
    } else if (kind == 1) {
      // Explain: identical plans; only the trailing cache line may differ
      // (hit/miss vs bypass).
      auto [c, p] = twins.Call(s, MsgType::kExplain, pool[rng() % pool.size()]);
      EXPECT_EQ(StripCacheLine(c.payload), StripCacheLine(p.payload));
      EXPECT_EQ(p.payload.substr(StripCacheLine(p.payload).size()),
                "\ncache: bypass")
          << "an uncached server's explain must report bypass";
    } else {
      // Query: byte-identical payloads, every time.
      const std::string& q = pool[rng() % pool.size()];
      auto [c, p] = twins.Call(s, MsgType::kQuery, q);
      ASSERT_EQ(c.type, MsgType::kQueryResult);
      ASSERT_EQ(p.type, MsgType::kQueryResult);
      ASSERT_EQ(c.payload, p.payload) << "op " << op << " query " << q;
    }
  }

  // The cache must have actually been exercised, at both levels, or this
  // test proves nothing.
  ASSERT_NE(twins.cached->result_cache(), nullptr);
  const ResultCache::Counters counters = twins.counters();
  EXPECT_GT(counters.hits, 0);
  EXPECT_GT(counters.reply_hits, 0);
  EXPECT_GT(counters.invalidations + counters.version_flushes +
                counters.schema_flushes,
            0);
  EXPECT_EQ(twins.plain->result_cache(), nullptr);
  twins.cached->Shutdown();
  twins.plain->Shutdown();
}

TEST(ResultCacheOracleTest, RenamesMatchUncachedServer) {
  constexpr int kScale = 2;  // 32 musicians, 4 instruments.
  constexpr int kSessions = 2;
  constexpr int kOps = 3000;

  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(kScale, kSessions));

  // Replies that print musicians' and instruments' names, and texts whose
  // constants the instrument swap below moves.
  const std::vector<std::string> pool = {
      JoinFields({"musicians", "e.plays ]= {inst0}"}),
      JoinFields({"musicians", "e.plays ]= {inst1}"}),
      JoinFields({"musicians", "e.plays ~ {inst0,inst2}"}),
      JoinFields({"musicians", "e.plays ]= {inst3} or e.union = {yes}"}),
      JoinFields({"musicians", "e.plays.family ]= {family0}"}),
      JoinFields({"music_groups", "e.members.plays ]= {inst1}"}),
      JoinFields({"instruments", "e.popular = {yes}"}),
      JoinFields({"instruments", "e.family = {family1}"}),
  };
  // Musician i is named "musician<i>", or "mx<i>" while renamed.
  std::vector<bool> renamed(16 * kScale, false);
  auto musician = [&](std::size_t i) {
    return (renamed[i] ? "mx" : "musician") + std::to_string(i);
  };
  // The instrument swap, one step at a time, round and round: inst0 takes
  // a fresh name, so `{inst0}` texts answer kError; then inst1 takes the
  // name inst0, so they resolve to another instrument and `{inst1}` texts
  // answer kError; then both names go back.
  const std::vector<std::pair<std::string, std::string>> swap = {
      {"inst0", "ix0"}, {"inst1", "inst0"}, {"inst0", "inst1"}, {"ix0", "inst0"}};
  std::size_t swap_step = 0;

  int errors = 0;
  std::mt19937 rng(20261019);
  for (int op = 0; op < kOps; ++op) {
    const int s = static_cast<int>(rng() % kSessions);
    const int kind = static_cast<int>(rng() % 20);
    std::string write;
    if (kind == 0) {
      // Rename a musician, or rename it back.
      const std::size_t i = rng() % renamed.size();
      const std::string from = musician(i);
      renamed[i] = !renamed[i];
      write = JoinFields({"musicians", from, "stage_name", musician(i)});
    } else if (kind == 1) {
      const auto& [from, to] = swap[swap_step];
      swap_step = (swap_step + 1) % swap.size();
      write = JoinFields({"instruments", from, "name", to});
    } else if (kind == 2) {
      // Membership churn; the instrument's name may be away (kError).
      write = JoinFields({"musicians", musician(rng() % renamed.size()),
                          "plays", "inst" + std::to_string(rng() % 4)});
    }
    const std::string& payload =
        write.empty() ? pool[rng() % pool.size()] : write;
    auto [c, p] = twins.Call(s, write.empty() ? MsgType::kQuery
                                              : MsgType::kAssign,
                             payload);
    ASSERT_EQ(c.type, p.type) << "op " << op << " " << payload << ": "
                              << c.payload << " vs " << p.payload;
    ASSERT_EQ(c.payload, p.payload) << "op " << op << " " << payload;
    if (write.empty() && p.type == MsgType::kError) ++errors;
  }

  // Every kind of answer was served: replies, stale replies dropped, and
  // texts whose constant was away.
  const ResultCache::Counters counters = twins.counters();
  EXPECT_GT(counters.reply_hits, 0);
  EXPECT_GT(counters.invalidations, 0);
  EXPECT_GT(errors, 0);
  twins.cached->Shutdown();
  twins.plain->Shutdown();
}

// --- Reply entries (query/cache.h, rule 3), against an uncached twin. ---

/// Sends `lines` as gestures to both servers on session 0; each must
/// answer a screen.
void Gestures(TwinServers* twins, std::initializer_list<const char*> lines) {
  for (const char* line : lines) {
    auto [c, p] = twins->Call(0, MsgType::kEvent, line);
    EXPECT_EQ(c.type, MsgType::kScreen) << line << ": " << c.payload;
    EXPECT_EQ(p.type, MsgType::kScreen) << line << ": " << p.payload;
  }
}

TEST(ResultCacheReplyTest, SecondRequestStoresTheReplyAndTheThirdHitsIt) {
  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(1, 1));
  const std::string q = JoinFields({"musicians", "e.plays ]= {inst0}"});

  twins.Same(0, MsgType::kQuery, q);  // Evaluates: the id-set only.
  ResultCache::Counters c = twins.counters();
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.insertions, 1);
  twins.Same(0, MsgType::kQuery, q);  // Reuses the id-set: stores the reply.
  c = twins.counters();
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.reply_hits, 0);
  EXPECT_EQ(c.insertions, 2);
  EXPECT_EQ(twins.cached->result_cache()->size(), 2);
  twins.Same(0, MsgType::kQuery, q);  // Answered from the reply.
  c = twins.counters();
  EXPECT_EQ(c.hits, 2);
  EXPECT_EQ(c.reply_hits, 1);
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.insertions, 2);

  // One request, one hit or miss: the stats line carries both counts.
  Result<Frame> stats = twins.cached_clients[0]->Call(MsgType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->payload.find("\"cache_hits\": 2, \"cache_reply_hits\": 1, "
                                "\"cache_misses\": 1, "),
            std::string::npos)
      << stats->payload;
}

TEST(ResultCacheReplyTest, ClassRenameStalesTheReply) {
  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(1, 1));
  const std::string q = JoinFields({"musicians", "e.plays ]= {inst0}"});
  const Frame before = twins.Same(0, MsgType::kQuery, q);
  for (int i = 0; i < 2; ++i) twins.Same(0, MsgType::kQuery, q);
  ASSERT_EQ(twins.counters().reply_hits, 1);

  // A class rename moves no change counter, only the schema generation.
  Gestures(&twins, {"pick class:musicians", "cmd (re)name", "type players"});
  EXPECT_EQ(twins.Same(0, MsgType::kQuery, q).type, MsgType::kError);
  const Frame renamed = twins.Same(
      0, MsgType::kQuery, JoinFields({"players", "e.plays ]= {inst0}"}));
  EXPECT_EQ(renamed.type, MsgType::kQueryResult);
  EXPECT_EQ(renamed.payload, before.payload);
  EXPECT_EQ(twins.counters().reply_hits, 1);
}

TEST(ResultCacheReplyTest, AttributeRenameStalesTheReply) {
  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(1, 1));
  const std::string q = JoinFields({"musicians", "e.plays ]= {inst0}"});
  const Frame before = twins.Same(0, MsgType::kQuery, q);
  for (int i = 0; i < 2; ++i) twins.Same(0, MsgType::kQuery, q);
  ASSERT_EQ(twins.counters().reply_hits, 1);

  Gestures(&twins, {"pick attr:plays", "cmd (re)name", "type performs"});
  EXPECT_EQ(twins.Same(0, MsgType::kQuery, q).type, MsgType::kError);
  const Frame renamed = twins.Same(
      0, MsgType::kQuery, JoinFields({"musicians", "e.performs ]= {inst0}"}));
  EXPECT_EQ(renamed.type, MsgType::kQueryResult);
  EXPECT_EQ(renamed.payload, before.payload);
  EXPECT_EQ(twins.counters().reply_hits, 1);
}

TEST(ResultCacheReplyTest, UnrelatedWriteKeepsTheReply) {
  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(1, 1));
  const std::string q = JoinFields({"musicians", "e.plays ]= {inst0}"});
  for (int i = 0; i < 3; ++i) twins.Same(0, MsgType::kQuery, q);
  ASSERT_EQ(twins.counters().reply_hits, 1);

  // `union` is neither read by the query nor a name its reply prints.
  EXPECT_EQ(twins
                .Same(0, MsgType::kAssign,
                      JoinFields({"musicians", "musician1", "union", "no"}))
                .type,
            MsgType::kOk);
  twins.Same(0, MsgType::kQuery, q);
  EXPECT_EQ(twins.counters().reply_hits, 2);
  EXPECT_EQ(twins.counters().invalidations, 0);
}

TEST(ResultCacheReplyTest, StaleReplyIsReplacedByTheNextIdenticalRequest) {
  auto ws = BuildScaledMusic(1);
  sdm::Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  ResultCache rc(&db);
  const std::string request = JoinFields({"musicians", "e.plays ]= {inst0}"});
  Predicate q = MustParse(db, h.musicians, "e.plays ]= {inst0}");
  const std::string key = ResultCache::NormalizeKey(q, h.musicians);
  auto ids = CachedEval(&rc, db, h.musicians, q);
  ASSERT_FALSE(ids->empty());
  ASSERT_NE(rc.Lookup(key), nullptr);  // The admission rule: a reuse.
  rc.InsertReply(request, key, q, h.musicians, "old", db.version());
  std::string reply;
  ASSERT_TRUE(rc.LookupReply(request, &reply));
  EXPECT_EQ(reply, "old");

  // Renaming a member the reply prints stales the reply, not the id-set.
  ASSERT_TRUE(db.RenameEntity(*ids->begin(), "renamed_member").ok());
  EXPECT_FALSE(rc.LookupReply(request, &reply));
  EXPECT_FALSE(rc.LookupReply(request, &reply));
  ASSERT_NE(rc.Lookup(key), nullptr);
  rc.InsertReply(request, key, q, h.musicians, "new", db.version());
  ASSERT_TRUE(rc.LookupReply(request, &reply));
  EXPECT_EQ(reply, "new");
  EXPECT_EQ(rc.counters().invalidations, 1)
      << "a stale entry counts once, however often it is found";
  EXPECT_EQ(rc.size(), 2);
}

TEST(ResultCacheReplyTest, ExplainReportsAReplyHit) {
  // Two entries fit: the third evicts the id-set the reply was made from.
  TwinServers twins;
  ASSERT_NO_FATAL_FAILURE(twins.Open(1, 1, /*capacity=*/2));
  const std::string q = JoinFields({"musicians", "e.plays ]= {inst0}"});
  for (int i = 0; i < 3; ++i) twins.Same(0, MsgType::kQuery, q);
  ASSERT_EQ(twins.counters().reply_hits, 1);
  twins.Same(0, MsgType::kQuery,
             JoinFields({"musicians", "e.plays ]= {inst1}"}));
  ASSERT_EQ(twins.counters().evictions, 1);

  const ResultCache::Counters before = twins.counters();
  auto [c, p] = twins.Call(0, MsgType::kExplain, q);
  EXPECT_EQ(StripCacheLine(c.payload), StripCacheLine(p.payload));
  EXPECT_EQ(c.payload.substr(StripCacheLine(c.payload).size()),
            "\ncache: hit");
  // The peek is stats-neutral, and the query is indeed a reply hit.
  EXPECT_EQ(twins.counters().hits, before.hits);
  EXPECT_EQ(twins.counters().misses, before.misses);
  twins.Same(0, MsgType::kQuery, q);
  EXPECT_EQ(twins.counters().reply_hits, 2);
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
