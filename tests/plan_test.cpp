/// \file plan_test.cpp
/// \brief Tests for the index-aware predicate planner (query/plan.h).
///
/// The contract is bit-identical equivalence: for any predicate the planner
/// can be handed, Evaluate/Test must return exactly what the naive
/// per-entity scan returns. A randomized property test drives both paths
/// over generated predicates (all operators, negation, multi-step maps,
/// constants, class extents, both normal forms, dead constants); golden
/// checks pin the shapes that must pick the probe path in Explain().

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "query/eval.h"
#include "query/plan.h"

namespace isis::query {
namespace {

using sdm::EntitySet;
using sdm::Schema;

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = datasets::BuildInstrumentalMusic();
    db_ = &ws_->db();
    const Schema& s = db_->schema();
    musicians_ = *s.FindClass("musicians");
    instruments_ = *s.FindClass("instruments");
    families_ = *s.FindClass("families");
    music_groups_ = *s.FindClass("music_groups");
    family_ = *s.FindAttribute(instruments_, "family");
    plays_ = *s.FindAttribute(musicians_, "plays");
    members_ = *s.FindAttribute(music_groups_, "members");
    size_ = *s.FindAttribute(music_groups_, "size");
  }

  EntityId E(ClassId cls, const char* name) {
    return *db_->FindEntity(cls, name);
  }

  /// Planner result must equal the naive scan.
  EntitySet CheckEquivalent(const Predicate& p, ClassId v) {
    Evaluator naive(*db_);
    naive.set_use_planner(false);
    EntitySet scan = naive.EvaluateSubclass(p, v);
    PlannedPredicate plan(*db_, p, v);
    EXPECT_EQ(plan.Evaluate(db_->Members(v)), scan);
    // Test() must agree entity-by-entity with the set answer.
    PlannedPredicate point(*db_, p, v);
    for (EntityId e : db_->Members(v)) {
      EXPECT_EQ(point.Test(e), scan.count(e) > 0) << db_->NameOf(e);
    }
    return scan;
  }

  std::unique_ptr<Workspace> ws_;
  sdm::Database* db_ = nullptr;
  ClassId musicians_, instruments_, families_, music_groups_;
  AttributeId family_, plays_, members_, size_;
};

TEST_F(PlanTest, EqualityPicksTheProbePath) {
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({family_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Constant({E(families_, "percussion")});
  p.AddAtom(a, 0);
  std::string plan = Evaluator(*db_).Explain(p, instruments_);
  EXPECT_NE(plan.find("clause 1: probe"), std::string::npos) << plan;
  EXPECT_NE(plan.find("probe e.family = {percussion}"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("actual=3"), std::string::npos) << plan;  // 3 drums etc
  EXPECT_NE(plan.find("result=3"), std::string::npos) << plan;
  CheckEquivalent(p, instruments_);
}

TEST_F(PlanTest, MembershipProbesTheInvertedIndex) {
  // Multivalued superset: musicians who play both viola and violin.
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kSuperset;
  a.rhs = Term::Constant(
      {E(instruments_, "viola"), E(instruments_, "violin")});
  p.AddAtom(a, 0);
  std::string plan = Evaluator(*db_).Explain(p, musicians_);
  EXPECT_NE(plan.find("probe e.plays"), std::string::npos) << plan;
  EXPECT_NE(plan.find("scanned=0"), std::string::npos) << plan;
  EXPECT_EQ(CheckEquivalent(p, musicians_).size(), 1u);  // Edith
}

TEST_F(PlanTest, NegationAndLongMapsStayScans) {
  Predicate p;
  Atom neg;
  neg.lhs = Term::Candidate({family_});
  neg.op = SetOp::kEqual;
  neg.negated = true;
  neg.rhs = Term::Constant({E(families_, "percussion")});
  p.AddAtom(neg, 0);
  Atom path;
  path.lhs = Term::Candidate({plays_, family_});
  path.op = SetOp::kWeakMatch;
  path.rhs = Term::Constant({E(families_, "stringed")});
  Predicate p2;
  p2.AddAtom(path, 0);
  EXPECT_NE(Evaluator(*db_).Explain(p, instruments_).find("scan "),
            std::string::npos);
  EXPECT_NE(Evaluator(*db_).Explain(p2, musicians_).find("scan "),
            std::string::npos);
  CheckEquivalent(p, instruments_);
  CheckEquivalent(p2, musicians_);
}

TEST_F(PlanTest, MixedClausesPrefilterThenScan) {
  // CNF: (plays ~ {piano, organ}) AND (NOT union). The first conjunct is a
  // probe and must prefilter; the second is scanned over survivors only.
  AttributeId union_attr = *db_->schema().FindAttribute(musicians_, "union");
  Predicate p;
  Atom probe;
  probe.lhs = Term::Candidate({plays_});
  probe.op = SetOp::kWeakMatch;
  probe.rhs = Term::Constant(
      {E(instruments_, "piano"), E(instruments_, "organ")});
  p.AddAtom(probe, 0);
  Atom sc;
  sc.lhs = Term::Candidate({union_attr});
  sc.op = SetOp::kEqual;
  sc.negated = true;
  sc.rhs = Term::Constant({db_->InternBoolean(true)});
  p.AddAtom(sc, 1);
  PlannedPredicate plan(*db_, p, musicians_);
  EntitySet result = plan.Evaluate(db_->Members(musicians_));
  EXPECT_EQ(result, CheckEquivalent(p, musicians_));
  // The scan stage only saw the probe survivors.
  EXPECT_LT(plan.stats().scanned, plan.stats().candidates_in);
  EXPECT_EQ(plan.stats().after_prefilter, plan.stats().scanned);
  std::string text = plan.Explain();
  EXPECT_NE(text.find("probe"), std::string::npos) << text;
  EXPECT_NE(text.find("scan"), std::string::npos) << text;
}

TEST_F(PlanTest, DisjunctiveProbeClausesUnionDirectly) {
  // DNF: (family = keyboard) OR (family = percussion) — both clauses probe,
  // nothing is scanned.
  Predicate p;
  p.form = NormalForm::kDisjunctive;
  Atom kb;
  kb.lhs = Term::Candidate({family_});
  kb.op = SetOp::kEqual;
  kb.rhs = Term::Constant({E(families_, "keyboard")});
  p.AddAtom(kb, 0);
  Atom pc;
  pc.lhs = Term::Candidate({family_});
  pc.op = SetOp::kEqual;
  pc.rhs = Term::Constant({E(families_, "percussion")});
  p.AddAtom(pc, 1);
  PlannedPredicate plan(*db_, p, instruments_);
  EntitySet result = plan.Evaluate(db_->Members(instruments_));
  EXPECT_EQ(result, CheckEquivalent(p, instruments_));
  EXPECT_EQ(plan.stats().scanned, 0);
  EXPECT_EQ(result.size(), 5u);  // piano, organ + 3 percussion
}

TEST_F(PlanTest, SinglevaluedEqualityAgainstTwoConstantsIsProvablyEmpty) {
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({family_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Constant(
      {E(families_, "percussion"), E(families_, "keyboard")});
  p.AddAtom(a, 0);
  std::string plan = Evaluator(*db_).Explain(p, instruments_);
  EXPECT_NE(plan.find("probe(empty)"), std::string::npos) << plan;
  EXPECT_TRUE(CheckEquivalent(p, instruments_).empty());
}

TEST_F(PlanTest, DeadConstantsFallBackToTheScan) {
  // A probe for a deleted constant cannot be proven equivalent (the naive
  // side compares against the constant set verbatim): must stay a scan and
  // still agree.
  EntityId oboe = E(instruments_, "oboe");
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kSuperset;
  a.rhs = Term::Constant({oboe});
  p.AddAtom(a, 0);
  ASSERT_TRUE(db_->DeleteEntity(oboe).ok());
  EXPECT_NE(Evaluator(*db_).Explain(p, musicians_).find("scan "),
            std::string::npos);
  CheckEquivalent(p, musicians_);
}

TEST_F(PlanTest, SelfTermsEvaluateAgainstTheOwner) {
  // Form (c): members of the group whose plays-set weak-matches something —
  // here just check planner/naive agreement for a predicate using x.
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kWeakMatch;
  a.rhs = Term::Self({members_, plays_});
  p.AddAtom(a, 0);
  Evaluator naive(*db_);
  naive.set_use_planner(false);
  for (EntityId x : db_->Members(music_groups_)) {
    PlannedPredicate plan(*db_, p, musicians_);
    EntitySet got = plan.Evaluate(db_->Members(musicians_), x);
    EntitySet want;
    for (EntityId e : db_->Members(musicians_)) {
      if (naive.EvalPredicate(p, e, x)) want.insert(e);
    }
    EXPECT_EQ(got, want) << db_->NameOf(x);
  }
}

TEST_F(PlanTest, MemoSlotsStayPutWhileAnAtomHoldsItsLeftImage) {
  // Maps on both sides of every atom, and in one scope more distinct paths
  // than there are atoms: a scan holds its left image while fetching the
  // right one, which may open a new memo slot. That must not move the slot
  // the left image lives in.
  const AttributeId includes =
      *db_->schema().FindAttribute(music_groups_, "includes");
  auto atom = [](Term lhs, SetOp op, Term rhs) {
    Atom a;
    a.lhs = std::move(lhs);
    a.op = op;
    a.rhs = std::move(rhs);
    return a;
  };
  // Three candidate-rooted paths over two atoms.
  const std::vector<Atom> candidate_heavy = {
      atom(Term::Candidate({members_, plays_, family_}), SetOp::kSubset,
           Term::Candidate({includes})),
      atom(Term::Candidate({members_, plays_}), SetOp::kWeakMatch,
           Term::Self({members_, plays_}))};
  // Three self-rooted paths over two atoms.
  const std::vector<Atom> self_heavy = {
      atom(Term::Candidate({members_, plays_}), SetOp::kWeakMatch,
           Term::Self({members_, plays_})),
      atom(Term::Self({members_, plays_, family_}), SetOp::kEqual,
           Term::Self({includes}))};
  Evaluator naive(*db_);
  naive.set_use_planner(false);
  for (const std::vector<Atom>* atoms : {&candidate_heavy, &self_heavy}) {
    for (NormalForm form :
         {NormalForm::kConjunctive, NormalForm::kDisjunctive}) {
      for (int split = 0; split < 2; ++split) {  // one clause, or two
        Predicate p;
        p.form = form;
        p.AddAtom((*atoms)[0], 0);
        p.AddAtom((*atoms)[1], split);
        for (EntityId x : db_->Members(music_groups_)) {
          EntitySet want;
          for (EntityId e : db_->Members(music_groups_)) {
            if (naive.EvalPredicate(p, e, x)) want.insert(e);
          }
          PlannedPredicate plan(*db_, p, music_groups_);
          EXPECT_EQ(plan.Evaluate(db_->Members(music_groups_), x), want)
              << db_->NameOf(x);
          PlannedPredicate point(*db_, p, music_groups_);
          for (EntityId e : db_->Members(music_groups_)) {
            EXPECT_EQ(point.Test(e, x), want.count(e) > 0) << db_->NameOf(e);
          }
        }
      }
    }
  }
}

TEST_F(PlanTest, ScansReachANameStringInternedMidScan) {
  // nick(x) = { e in STRING | e = x.stage_name }. Reading x's name interns
  // it, which appends to STRING's member set: the very candidates the scan
  // is walking. The scan must survive the append and reach the new string,
  // under the planner and the naive evaluator alike, and so must a stored
  // derivation materialized for every musician.
  const AttributeId stage_name =
      *db_->schema().FindAttribute(musicians_, "stage_name");
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({});
  a.op = SetOp::kEqual;
  a.rhs = Term::Self({stage_name});
  p.AddAtom(a, 0);
  for (bool planner : {true, false}) {
    const EntityId x =
        *db_->CreateEntity(musicians_, planner ? "Fresh_P" : "Fresh_N");
    Evaluator eval(*db_);
    eval.set_use_planner(planner);
    EXPECT_EQ(eval.EvaluateAttributeFor(p, Schema::kStrings(), x),
              EntitySet{db_->InternString(db_->NameOf(x))})
        << (planner ? "planner" : "naive");
  }
  ASSERT_TRUE(db_->CreateEntity(musicians_, "Fresh_W").ok());
  const AttributeId nick = *db_->CreateAttribute(
      musicians_, "nick", Schema::kStrings(), /*multivalued=*/true);
  ASSERT_TRUE(ws_->DefineAttributeDerivation(
                     nick, AttributeDerivation::FromPredicate(p))
                  .ok());
  for (EntityId x : db_->Members(musicians_)) {
    EXPECT_EQ(db_->GetMulti(x, nick),
              EntitySet{db_->InternString(db_->NameOf(x))})
        << db_->NameOf(x);
  }
}

TEST_F(PlanTest, EmptyPredicates) {
  Predicate cnf;  // empty conjunction: everything qualifies
  EXPECT_EQ(CheckEquivalent(cnf, instruments_).size(),
            db_->Members(instruments_).size());
  Predicate dnf;  // empty disjunction: nothing does
  dnf.form = NormalForm::kDisjunctive;
  EXPECT_TRUE(CheckEquivalent(dnf, instruments_).empty());
}

/// The acceptance-criteria property test: randomized predicates over the
/// scaled dataset, planner vs naive, both normal forms, every operator,
/// negation, dead constants, multi-step maps, class extents, multi-clause
/// structures. Any divergence is a planner soundness bug.
TEST(PlanPropertyTest, RandomizedPredicatesMatchNaiveScan) {
  auto ws = datasets::BuildScaledMusic(6);
  sdm::Database& db = ws->db();
  datasets::ScaledMusicHandles h = datasets::ResolveScaledMusic(*ws);
  Rng rng(2026);

  std::vector<EntityId> instruments(db.Members(h.instruments).begin(),
                                    db.Members(h.instruments).end());
  std::vector<EntityId> families(db.Members(h.families).begin(),
                                 db.Members(h.families).end());
  std::vector<EntityId> musicians(db.Members(h.musicians).begin(),
                                  db.Members(h.musicians).end());
  const std::vector<SetOp> ops = {
      SetOp::kEqual,       SetOp::kSubset,        SetOp::kSuperset,
      SetOp::kProperSubset, SetOp::kProperSuperset, SetOp::kWeakMatch};

  auto pick = [&](const std::vector<EntityId>& pool, int max_n) {
    EntitySet out;
    int n = 1 + static_cast<int>(rng.Below(max_n));
    for (int i = 0; i < n; ++i) out.insert(pool[rng.Below(pool.size())]);
    return out;
  };

  for (int trial = 0; trial < 120; ++trial) {
    // Candidate class alternates between musicians and instruments.
    bool over_musicians = rng.Chance(0.5);
    ClassId v = over_musicians ? h.musicians : h.instruments;
    Predicate p;
    p.form = rng.Chance(0.5) ? NormalForm::kConjunctive
                             : NormalForm::kDisjunctive;
    int clauses = 1 + static_cast<int>(rng.Below(3));
    for (int c = 0; c < clauses; ++c) {
      int atoms = 1 + static_cast<int>(rng.Below(2));
      for (int k = 0; k < atoms; ++k) {
        Atom a;
        a.op = ops[rng.Below(ops.size())];
        a.negated = rng.Chance(0.25);
        if (over_musicians) {
          if (rng.Chance(0.3)) {
            a.lhs = Term::Candidate({h.plays, h.family});  // two-step map
            a.rhs = Term::Constant(pick(families, 2));
          } else {
            a.lhs = Term::Candidate({h.plays});
            a.rhs = rng.Chance(0.15)
                        ? Term::ClassExtent(h.instruments)
                        : Term::Constant(pick(instruments, 3));
          }
        } else {
          a.lhs = Term::Candidate({h.family});
          a.rhs = Term::Constant(pick(families, 2));
        }
        p.AddAtom(a, c);
      }
    }
    Evaluator naive(db);
    naive.set_use_planner(false);
    EntitySet scan = naive.EvaluateSubclass(p, v);
    PlannedPredicate plan(db, p, v);
    EXPECT_EQ(plan.Evaluate(db.Members(v)), scan)
        << "trial " << trial << "\n"
        << plan.Explain();
    // Mutate between trials so plans run against a moving database and the
    // incrementally-maintained indexes.
    EntityId m = musicians[rng.Below(musicians.size())];
    EntityId i = instruments[rng.Below(instruments.size())];
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(db.AddToMulti(m, h.plays, i).ok());
    } else {
      ASSERT_TRUE(
          db.SetSingle(i, h.family, families[rng.Below(families.size())])
              .ok());
    }
  }
}

}  // namespace
}  // namespace isis::query
