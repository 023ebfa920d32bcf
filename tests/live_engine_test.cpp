/// \file live_engine_test.cpp
/// \brief Tests for the live-view engine: the delta-maintained state must be
/// indistinguishable from a fresh ReevaluateAll after any mutation stream,
/// cascades must propagate without manual recomputation, and cyclic
/// derivations must surface as a Consistency error naming the view.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "live/engine.h"
#include "query/workspace.h"
#include "sdm/consistency.h"
#include "store/serializer.h"

namespace isis {
namespace {

using query::Atom;
using query::AttributeDerivation;
using query::Predicate;
using query::SetOp;
using query::Term;
using query::Workspace;
using sdm::EntitySet;
using sdm::Membership;
using sdm::Schema;

/// Handles into one Instrumental_Music workspace.
struct Music {
  sdm::Database* db;
  ClassId musicians, instruments, music_groups, families, play_strings;
  ClassId string_groups;  ///< Defined by DefineExtraViews.
  AttributeId plays, members, size, family;
  AttributeId group_instruments;  ///< Defined by DefineExtraViews.
};

Music Resolve(Workspace* ws) {
  Music m;
  m.db = &ws->db();
  const Schema& s = m.db->schema();
  m.musicians = *s.FindClass("musicians");
  m.instruments = *s.FindClass("instruments");
  m.music_groups = *s.FindClass("music_groups");
  m.families = *s.FindClass("families");
  m.play_strings = *s.FindClass("play_strings");
  m.plays = *s.FindAttribute(m.musicians, "plays");
  m.members = *s.FindAttribute(m.music_groups, "members");
  m.size = *s.FindAttribute(m.music_groups, "size");
  m.family = *s.FindAttribute(m.instruments, "family");
  return m;
}

/// Adds a view-feeds-view subclass, a map-valued derived attribute and a
/// constraint on top of the dataset's own derived play_strings. The
/// constraint is not a view; the engine must leave it alone.
void DefineExtraViews(Workspace* ws, Music* m) {
  sdm::Database& db = ws->db();
  // string_groups: groups whose members all play strings — feeds on the
  // derived play_strings, so its maintenance needs the cascade.
  m->string_groups = *db.CreateSubclass("string_groups", m->music_groups,
                                        Membership::kEnumerated);
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({m->members});
  a.op = SetOp::kSubset;
  a.rhs = Term::ClassExtent(m->play_strings);
  p.AddAtom(a, 0);
  ASSERT_TRUE(ws->DefineSubclassMembership(m->string_groups, p).ok());
  // group_instruments: two-step self map members.plays.
  m->group_instruments = *db.CreateAttribute(
      m->music_groups, "group_instruments", m->instruments, true);
  ASSERT_TRUE(ws->DefineAttributeDerivation(
                    m->group_instruments,
                    AttributeDerivation::Assign(
                        Term::Self({m->members, m->plays})))
                  .ok());
  // groups_nonempty: every group keeps at least one member.
  Predicate c;
  Atom ca;
  ca.lhs = Term::Candidate({m->members});
  ca.op = SetOp::kWeakMatch;
  ca.rhs = Term::ClassExtent(m->musicians);
  c.AddAtom(ca, 0);
  ASSERT_TRUE(ws->DefineConstraint("groups_nonempty", m->music_groups, c).ok());
}

EntityId Nth(const EntitySet& set, size_t n) {
  auto it = set.begin();
  std::advance(it, n % set.size());
  return *it;
}

// --- The central property: after any randomized mutation stream, the
// delta-maintained workspace is byte-identical (through the serializer) to a
// twin that runs a full ReevaluateAll after every mutation. ---

class LiveEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveEquivalenceTest, DeltaMaintenanceMatchesFullRecompute) {
  auto ws_live = datasets::BuildInstrumentalMusic();
  auto ws_ref = datasets::BuildInstrumentalMusic();
  Music live = Resolve(ws_live.get());
  Music ref = Resolve(ws_ref.get());
  ASSERT_NO_FATAL_FAILURE(DefineExtraViews(ws_live.get(), &live));
  ASSERT_NO_FATAL_FAILURE(DefineExtraViews(ws_ref.get(), &ref));
  live::LiveViewEngine engine(ws_live.get());

  Rng rng(GetParam() * 31 + 3);
  int created = 0;
  for (int step = 0; step < 100; ++step) {
    // Pick the operation and its operands once, then apply identically to
    // both twins (ids are aligned by construction).
    switch (rng.Below(6)) {
      case 0: {  // Toggle an instrument in a musician's plays.
        EntityId mu = Nth(live.db->Members(live.musicians), rng.Below(64));
        EntityId in = Nth(live.db->Members(live.instruments), rng.Below(64));
        if (live.db->GetMulti(mu, live.plays).count(in) > 0) {
          ASSERT_TRUE(live.db->RemoveFromMulti(mu, live.plays, in).ok());
          ASSERT_TRUE(ref.db->RemoveFromMulti(mu, ref.plays, in).ok());
        } else {
          ASSERT_TRUE(live.db->AddToMulti(mu, live.plays, in).ok());
          ASSERT_TRUE(ref.db->AddToMulti(mu, ref.plays, in).ok());
        }
        break;
      }
      case 1: {  // Toggle a musician in a group's members.
        EntityId g = Nth(live.db->Members(live.music_groups), rng.Below(64));
        EntityId mu = Nth(live.db->Members(live.musicians), rng.Below(64));
        if (live.db->GetMulti(g, live.members).count(mu) > 0) {
          ASSERT_TRUE(live.db->RemoveFromMulti(g, live.members, mu).ok());
          ASSERT_TRUE(ref.db->RemoveFromMulti(g, ref.members, mu).ok());
        } else {
          ASSERT_TRUE(live.db->AddToMulti(g, live.members, mu).ok());
          ASSERT_TRUE(ref.db->AddToMulti(g, ref.members, mu).ok());
        }
        break;
      }
      case 2: {  // Resize a group.
        EntityId g = Nth(live.db->Members(live.music_groups), rng.Below(64));
        int n = static_cast<int>(rng.Below(6)) + 1;
        ASSERT_TRUE(
            live.db->SetSingle(g, live.size, live.db->InternInteger(n)).ok());
        ASSERT_TRUE(
            ref.db->SetSingle(g, ref.size, ref.db->InternInteger(n)).ok());
        break;
      }
      case 3: {  // Reclassify an instrument's family.
        EntityId in = Nth(live.db->Members(live.instruments), rng.Below(64));
        size_t fi = rng.Below(64);
        EntityId f_live = Nth(live.db->Members(live.families), fi);
        EntityId f_ref = Nth(ref.db->Members(ref.families), fi);
        ASSERT_TRUE(live.db->SetSingle(in, live.family, f_live).ok());
        ASSERT_TRUE(ref.db->SetSingle(in, ref.family, f_ref).ok());
        break;
      }
      case 4: {  // A new musician appears.
        std::string name = "new_musician_" + std::to_string(created++);
        Result<EntityId> e_live = live.db->CreateEntity(live.musicians, name);
        Result<EntityId> e_ref = ref.db->CreateEntity(ref.musicians, name);
        ASSERT_TRUE(e_live.ok());
        ASSERT_TRUE(e_ref.ok());
        ASSERT_EQ(*e_live, *e_ref);
        EntityId in = Nth(live.db->Members(live.instruments), rng.Below(64));
        ASSERT_TRUE(live.db->AddToMulti(*e_live, live.plays, in).ok());
        ASSERT_TRUE(ref.db->AddToMulti(*e_ref, ref.plays, in).ok());
        break;
      }
      default: {  // A musician retires (guarded delete; scrubs references).
        if (!rng.Chance(0.25)) break;  // Keep deletions rare.
        EntityId mu = Nth(live.db->Members(live.musicians), rng.Below(64));
        ASSERT_TRUE(ws_live->DeleteEntity(mu).ok());
        ASSERT_TRUE(ws_ref->DeleteEntity(mu).ok());
        break;
      }
    }
    ASSERT_TRUE(ws_ref->ReevaluateAll().ok());
    if (step % 20 == 19) {
      ASSERT_EQ(store::Save(*ws_live), store::Save(*ws_ref))
          << "diverged at step " << step;
    }
  }
  const Status error = engine.TakeError();
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(store::Save(*ws_live), store::Save(*ws_ref));
  EXPECT_TRUE(sdm::ConsistencyChecker(*live.db).Check().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 42u, 1234u));

// --- Cascades: a data edit ripples through view-feeds-view chains with no
// manual recomputation anywhere. ---

TEST(LiveEngineTest, ViewFeedsViewCascadePropagates) {
  auto ws = datasets::BuildInstrumentalMusic();
  Music m = Resolve(ws.get());
  ASSERT_NO_FATAL_FAILURE(DefineExtraViews(ws.get(), &m));
  EXPECT_EQ(ws->db().Members(m.string_groups).size(), 1u);
  live::LiveViewEngine engine(ws.get());
  // Vera's only stringed instrument goes away: play_strings must drop her
  // and string_groups must drop String Quartet West — both without any call
  // to ReevaluateAll.
  EntityId vera = *m.db->FindEntity(m.musicians, "Vera");
  EntityId guitar = *m.db->FindEntity(m.instruments, "guitar");
  ASSERT_TRUE(m.db->RemoveFromMulti(vera, m.plays, guitar).ok());
  EXPECT_FALSE(m.db->IsMember(vera, m.play_strings));
  EXPECT_TRUE(m.db->Members(m.string_groups).empty());
  const Status error = engine.TakeError();
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_TRUE(sdm::ConsistencyChecker(*m.db).Check().ok());
}

TEST(LiveEngineTest, DerivedAttributeFollowsPointMutations) {
  auto ws = datasets::BuildInstrumentalMusic();
  Music m = Resolve(ws.get());
  ASSERT_NO_FATAL_FAILURE(DefineExtraViews(ws.get(), &m));
  live::LiveViewEngine engine(ws.get());
  EntityId duo = *m.db->FindEntity(m.music_groups, "Duo Zephyr");
  EntityId edith = *m.db->FindEntity(m.musicians, "Edith");
  ASSERT_TRUE(m.db->AddToMulti(duo, m.members, edith).ok());
  // group_instruments = members.plays must now include Edith's instruments.
  const EntitySet& derived = m.db->GetMulti(duo, m.group_instruments);
  for (EntityId in : m.db->GetMulti(edith, m.plays)) {
    EXPECT_TRUE(derived.count(in) > 0) << m.db->NameOf(in);
  }
  EXPECT_TRUE(engine.TakeError().ok());
}

// --- Counters: point mutations stay incremental; schema edits fall back to
// full recomputes. ---

TEST(LiveEngineTest, PointMutationsNeverFullRecompute) {
  auto ws = datasets::BuildInstrumentalMusic();
  Music m = Resolve(ws.get());
  live::LiveViewEngine engine(ws.get());
  EntityId ray = *m.db->FindEntity(m.musicians, "Ray");
  EntityId violin = *m.db->FindEntity(m.instruments, "violin");
  ASSERT_TRUE(m.db->AddToMulti(ray, m.plays, violin).ok());
  EXPECT_TRUE(m.db->IsMember(ray, m.play_strings));
  const live::ViewStats* vs = engine.FindViewStats("play_strings");
  ASSERT_NE(vs, nullptr);
  EXPECT_GE(vs->deltas_applied, 1);
  EXPECT_GE(vs->entities_retested, 1);
  EXPECT_EQ(vs->full_recomputes, 0);
  EXPECT_GE(engine.stats().deltas_seen, 1);
  EXPECT_GE(engine.stats().drains, 1);
}

TEST(LiveEngineTest, SchemaChangeFallsBackToFullRecompute) {
  auto ws = datasets::BuildInstrumentalMusic();
  Music m = Resolve(ws.get());
  live::LiveViewEngine engine(ws.get());
  // Re-specifying a value class is a coarse schema edit: the engine must
  // resynchronize by fully recomputing every view.
  ASSERT_TRUE(m.db->SetValueClass(m.size, Schema::kIntegers()).ok());
  const live::ViewStats* vs = engine.FindViewStats("play_strings");
  ASSERT_NE(vs, nullptr);
  EXPECT_GE(vs->full_recomputes, 1);
  EXPECT_GE(engine.stats().index_rebuilds, 1);
}

// --- The liar subclass: a = { e | e not in a } can never settle; the engine
// must report a Consistency error naming it instead of looping forever. ---

TEST(LiveEngineTest, CyclicDerivationRecordsConsistencyError) {
  auto ws = datasets::BuildInstrumentalMusic();
  Music m = Resolve(ws.get());
  ClassId a_cls =
      *m.db->CreateSubclass("cyc_a", m.musicians, Membership::kEnumerated);
  live::LiveViewEngine engine(ws.get());
  Predicate p;
  Atom atom;
  atom.lhs = Term::Candidate();  // identity map: {e}
  atom.op = SetOp::kSubset;
  atom.negated = true;
  atom.rhs = Term::ClassExtent(a_cls);
  p.AddAtom(atom, 0);
  // Defining it moves the catalog and installs the first members; that
  // mutation's drain re-derives the new view and oscillates.
  (void)ws->DefineSubclassMembership(a_cls, p);
  Status error = engine.TakeError();
  EXPECT_TRUE(error.IsConsistency()) << error.ToString();
  EXPECT_NE(error.message().find("derived class 'cyc_a'"), std::string::npos)
      << error.ToString();
  EXPECT_NE(error.message().find("16 rounds"), std::string::npos)
      << error.ToString();
  // Taking the error clears it.
  EXPECT_TRUE(engine.TakeError().ok());
  // The aborted drain dropped its queued deltas, so the next edit, even one
  // that cyc_a does not read, re-derives every view: play_strings catches
  // up, and the cycle is met and reported again.
  EntityId ray = *m.db->FindEntity(m.musicians, "Ray");
  EntityId violin = *m.db->FindEntity(m.instruments, "violin");
  ASSERT_TRUE(m.db->AddToMulti(ray, m.plays, violin).ok());
  EXPECT_TRUE(m.db->IsMember(ray, m.play_strings));
  error = engine.TakeError();
  EXPECT_TRUE(error.IsConsistency()) << error.ToString();
}

// --- A redefinition whose drains shrink the attribute's own owner class.
// ReevaluateAttribute runs one outermost SetMulti per owner, and each
// settle drains the engine, which here removes owners from the very member
// set the loop walks. ---

TEST(LiveEngineTest, RedefinitionThatShrinksItsOwnerClassMatchesFullRecompute) {
  sdm::Database::Options options;
  options.live_views = true;
  auto ws_live = datasets::BuildScaledMusic(2, 7, options);
  auto ws_ref = datasets::BuildScaledMusic(2, 7, options);
  live::LiveViewEngine engine(ws_live.get());
  const datasets::ScaledMusicHandles h =
      datasets::ResolveScaledMusic(*ws_live);
  const EntityId family0 = *ws_live->db().FindEntity(h.families, "family0");
  const EntityId family1 = *ws_live->db().FindEntity(h.families, "family1");

  // The same steps on both twins (ids line up); the reference re-derives
  // everything after each step with no engine attached.
  std::size_t tagged_before = 0;
  for (Workspace* ws : {ws_live.get(), ws_ref.get()}) {
    sdm::Database& db = ws->db();
    // `tagged`: every group, then derived as e.tag ]= {family0}, where tag
    // is defined on tagged itself and starts out as the group's includes.
    const ClassId tagged =
        *db.CreateSubclass("tagged", h.music_groups, Membership::kEnumerated);
    const EntitySet groups = db.Members(h.music_groups);
    for (EntityId g : groups) ASSERT_TRUE(db.AddToClass(g, tagged).ok());
    const AttributeId tag =
        *db.CreateAttribute(tagged, "tag", h.families, /*multivalued=*/true);
    ASSERT_TRUE(ws->DefineAttributeDerivation(
                      tag, AttributeDerivation::Assign(Term::Self({h.includes})))
                    .ok());
    Predicate p;
    Atom a;
    a.lhs = Term::Candidate({tag});
    a.op = SetOp::kSuperset;
    a.rhs = Term::Constant({family0});
    p.AddAtom(a, 0);
    ASSERT_TRUE(ws->DefineSubclassMembership(tagged, p).ok());
    if (ws == ws_live.get()) tagged_before = db.Members(tagged).size();
    // Every tag becomes {family1}: each owner's SetMulti drops owners out
    // of tagged while the loop is still walking them.
    ASSERT_TRUE(ws->DefineAttributeDerivation(
                      tag, AttributeDerivation::Assign(Term::Constant({family1})))
                    .ok());
    if (ws == ws_live.get()) {
      EXPECT_TRUE(db.Members(tagged).empty());
    } else {
      ASSERT_TRUE(ws->ReevaluateAll().ok());
    }
  }
  ASSERT_GE(tagged_before, 2u) << "the scenario needs owners to drop out";
  const Status error = engine.TakeError();
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(store::Save(*ws_live), store::Save(*ws_ref));
  EXPECT_TRUE(sdm::ConsistencyChecker(ws_live->db()).Check().ok());
}

// --- The live_views option persists through the store; nothing else reads
// it, and the engine is attached whatever it says. ---

TEST(LiveEngineTest, LiveViewsOptionRoundTripsThroughStore) {
  sdm::Database::Options opt;
  opt.live_views = true;
  Workspace ws(opt);
  auto loaded = store::Load(store::Save(ws));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->db().options().live_views);
  // And an unset option loads unset.
  sdm::Database::Options off;
  Workspace ws_off(off);
  EXPECT_FALSE(store::Load(store::Save(ws_off)).ValueOrDie()
                   ->db()
                   .options()
                   .live_views);
}

}  // namespace
}  // namespace isis
