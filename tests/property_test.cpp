/// \file property_test.cpp
/// \brief Property-based tests over randomized synthetic workspaces and
/// fuzzed sessions: invariants that must hold for every seed.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/instrumental_music.h"
#include "datasets/synthetic.h"
#include "query/eval.h"
#include "sdm/consistency.h"
#include "store/serializer.h"
#include "ui/controller.h"

namespace isis {
namespace {

using datasets::BuildSynthetic;
using datasets::ResolveSynthetic;
using datasets::SyntheticHandles;
using datasets::SyntheticParams;
using sdm::EntitySet;

class SyntheticPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  SyntheticParams Params() const {
    SyntheticParams p;
    p.seed = GetParam();
    p.entities_per_class = 60;
    p.baseclasses = 3;
    p.subclass_depth = 2;
    return p;
  }
};

TEST_P(SyntheticPropertyTest, GeneratedWorkspacesAreConsistent) {
  auto ws = BuildSynthetic(Params());
  Status st = sdm::ConsistencyChecker(ws->db()).Check();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(SyntheticPropertyTest, IncrementalAndRecomputedGroupingsAgree) {
  // Groupings are read from the value indexes, which the mutation stream
  // keeps up incrementally; the consistency checker recomputes every
  // grouping from the rows and must agree after each step.
  SyntheticParams p = Params();
  auto ws = BuildSynthetic(p);
  sdm::Database& db = ws->db();
  SyntheticHandles h = ResolveSynthetic(*ws, p);
  for (GroupingId g : h.groupings) (void)db.GroupingBlocks(g);  // warm
  Rng rng(GetParam() * 7 + 1);
  for (int step = 0; step < 120; ++step) {
    size_t ci = rng.Below(h.baseclasses.size());
    const EntitySet& members = db.Members(h.baseclasses[ci]);
    if (members.empty()) continue;
    auto it = members.begin();
    std::advance(it, rng.Below(members.size()));
    EntityId e = *it;
    const EntitySet& values = db.Members(
        db.schema().GetAttribute(h.single_attrs[ci]).value_class);
    if (values.empty()) continue;
    auto vi = values.begin();
    std::advance(vi, rng.Below(values.size()));
    ASSERT_TRUE(db.SetSingle(e, h.single_attrs[ci], *vi).ok());
    if (step % 20 == 0) {
      Status st = sdm::ConsistencyChecker(db).Check();
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
    }
  }
  Status st = sdm::ConsistencyChecker(db).Check();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(SyntheticPropertyTest, StoreRoundTripIsIdempotent) {
  auto ws = BuildSynthetic(Params());
  std::string once = store::Save(*ws);
  auto loaded = store::Load(once);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(store::Save(**loaded), once);
}

TEST_P(SyntheticPropertyTest, DerivedMembersAlwaysSubsetOfParent) {
  auto ws = BuildSynthetic(Params());
  SyntheticHandles h = ResolveSynthetic(*ws, Params());
  // Define a random one-atom predicate over each baseclass's first
  // subclass... the synthetic chains are enumerated; create a derived one.
  sdm::Database& db = ws->db();
  Rng rng(GetParam() * 13 + 5);
  for (size_t i = 0; i < h.baseclasses.size(); ++i) {
    ClassId derived = *db.CreateSubclass(
        "derived_" + std::to_string(i), h.baseclasses[i],
        sdm::Membership::kEnumerated);
    query::Predicate p;
    query::Atom a;
    a.lhs = query::Term::Candidate({h.multi_attrs[i]});
    a.op = rng.Chance(0.5) ? query::SetOp::kWeakMatch
                           : query::SetOp::kSuperset;
    a.negated = rng.Chance(0.3);
    // A random constant set drawn from the attribute's value class.
    const EntitySet& pool =
        db.Members(db.schema().GetAttribute(h.multi_attrs[i]).value_class);
    EntitySet constants;
    for (EntityId e : pool) {
      if (rng.Chance(0.05)) constants.insert(e);
    }
    a.rhs = query::Term::Constant(constants);
    p.AddAtom(a, 0);
    ASSERT_TRUE(ws->DefineSubclassMembership(derived, p).ok());
    for (EntityId e : db.Members(derived)) {
      EXPECT_TRUE(db.IsMember(e, h.baseclasses[i]));
    }
  }
  EXPECT_TRUE(sdm::ConsistencyChecker(db).Check().ok());
}

TEST_P(SyntheticPropertyTest, PredicateEvaluationMatchesBruteForceOracle) {
  auto ws = BuildSynthetic(Params());
  SyntheticHandles h = ResolveSynthetic(*ws, Params());
  sdm::Database& db = ws->db();
  query::Evaluator eval(db);
  Rng rng(GetParam() + 99);
  // Build a random 2-clause predicate and check CNF/DNF semantics against
  // direct per-entity atom evaluation.
  query::Predicate p;
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < 2; ++k) {
      query::Atom a;
      a.lhs = query::Term::Candidate({h.single_attrs[0]});
      a.op = rng.Chance(0.5) ? query::SetOp::kEqual : query::SetOp::kWeakMatch;
      a.negated = rng.Chance(0.5);
      const EntitySet& pool = db.Members(
          db.schema().GetAttribute(h.single_attrs[0]).value_class);
      EntitySet constants;
      for (EntityId e : pool) {
        if (rng.Chance(0.1)) constants.insert(e);
      }
      a.rhs = query::Term::Constant(constants);
      p.AddAtom(a, c);
    }
  }
  p.form = rng.Chance(0.5) ? query::NormalForm::kConjunctive
                           : query::NormalForm::kDisjunctive;
  EntitySet fast = eval.EvaluateSubclass(p, h.baseclasses[0]);
  for (EntityId e : db.Members(h.baseclasses[0])) {
    bool c0 = eval.EvalAtom(p.atoms[0], e, sdm::kNullEntity) ||
              eval.EvalAtom(p.atoms[1], e, sdm::kNullEntity);
    bool c1 = eval.EvalAtom(p.atoms[2], e, sdm::kNullEntity) ||
              eval.EvalAtom(p.atoms[3], e, sdm::kNullEntity);
    bool expected;
    if (p.form == query::NormalForm::kConjunctive) {
      expected = c0 && c1;
    } else {
      bool d0 = eval.EvalAtom(p.atoms[0], e, sdm::kNullEntity) &&
                eval.EvalAtom(p.atoms[1], e, sdm::kNullEntity);
      bool d1 = eval.EvalAtom(p.atoms[2], e, sdm::kNullEntity) &&
                eval.EvalAtom(p.atoms[3], e, sdm::kNullEntity);
      expected = d0 || d1;
    }
    EXPECT_EQ(fast.count(e) > 0, expected) << db.NameOf(e);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 42u, 1234u));

// --- Session fuzzing: random event streams never crash the controller and
// never leave the database inconsistent. ---

class SessionFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionFuzzTest, RandomEventsKeepTheSystemConsistent) {
  ui::SessionController session(datasets::BuildInstrumentalMusic());
  Rng rng(GetParam());
  static const char* kCommands[] = {
      "view associations", "view contents", "view forest", "pop", "follow",
      "select/reject", "(re)assign att. value", "make subclass",
      "create entity", "delete entity", "create subclass",
      "create attribute", "(re)define membership", "(re)define derivation",
      "display predicate", "(re)name", "delete", "undo", "redo", "edit",
      "place 1", "place 2", "lhs", "rhs map", "rhs constant", "negate",
      "switch and/or", "commit", "abort", "accept constant",
      "create constant", "pan left", "pan right", "members up",
      "members down",
  };
  int executed = 0;
  for (int step = 0; step < 400; ++step) {
    input::Event event;
    switch (rng.Below(4)) {
      case 0:
        event = input::CommandEvent{
            kCommands[rng.Below(std::size(kCommands))]};
        break;
      case 1: {
        // Pick a random point on the screen.
        event = input::PickEvent{
            static_cast<int>(rng.Below(ui::kScreenWidth)),
            static_cast<int>(rng.Below(ui::kScreenHeight))};
        break;
      }
      case 2: {
        static const char* kNames[] = {"a", "n1", "n2", "quartz", "x y",
                                       "4", "YES"};
        event = input::TextEvent{kNames[rng.Below(std::size(kNames))]};
        break;
      }
      default: {
        static const char* kTargets[] = {
            "class:musicians",   "class:instruments", "grouping:by_family",
            "member:flute",      "member:Edith",      "attr:family",
            "attr:plays",        "atom:A",            "clause:1",
            "op:=",              "menu:undo",         "class:soloists",
        };
        event = input::NamedPickEvent{kTargets[rng.Below(std::size(kTargets))]};
        break;
      }
    }
    Status st = session.HandleEvent(event);  // errors are fine; crashes not
    if (st.ok()) ++executed;
    if (session.stopped()) break;
    if (step % 50 == 0) {
      Status consistent =
          sdm::ConsistencyChecker(session.workspace().db()).Check();
      ASSERT_TRUE(consistent.ok())
          << "step " << step << ": " << consistent.ToString();
      (void)session.Render();  // rendering any intermediate state is safe
    }
  }
  EXPECT_GT(executed, 0);
  Status final_check =
      sdm::ConsistencyChecker(session.workspace().db()).Check();
  EXPECT_TRUE(final_check.ok()) << final_check.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

}  // namespace
}  // namespace isis
