/// \file grouping_index_test.cpp
/// \brief Selections over grouped attributes -- the shapes a grouping's
/// blocks (value -> owners) could answer -- must evaluate identically
/// through the planner's value-index probes and the naive scan.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "query/eval.h"

namespace isis::query {
namespace {

using sdm::EntitySet;
using sdm::Schema;

class GroupingIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = datasets::BuildInstrumentalMusic();
    db_ = &ws_->db();
    const Schema& s = db_->schema();
    musicians_ = *s.FindClass("musicians");
    instruments_ = *s.FindClass("instruments");
    families_ = *s.FindClass("families");
    family_ = *s.FindAttribute(instruments_, "family");
    plays_ = *s.FindAttribute(musicians_, "plays");
  }

  /// Evaluates two ways -- the planner (the default) and the naive scan --
  /// and asserts they agree.
  EntitySet BothWays(const Predicate& p, ClassId v) {
    Evaluator planned(*db_);
    Evaluator naive(*db_);
    naive.set_use_planner(false);
    EntitySet scan = naive.EvaluateSubclass(p, v);
    EXPECT_EQ(planned.EvaluateSubclass(p, v), scan);
    return scan;
  }

  Predicate OneAtom(Atom a) {
    Predicate p;
    p.AddAtom(std::move(a), 0);
    return p;
  }
  EntityId E(ClassId cls, const char* name) {
    return *db_->FindEntity(cls, name);
  }

  std::unique_ptr<Workspace> ws_;
  sdm::Database* db_ = nullptr;
  ClassId musicians_, instruments_, families_;
  AttributeId family_, plays_;
};

TEST_F(GroupingIndexTest, EqualityOnGroupedSinglevaluedAttribute) {
  // by_family groups instruments on family: `e.family = {percussion}`.
  Atom a;
  a.lhs = Term::Candidate({family_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Constant({E(families_, "percussion")});
  EntitySet answer = BothWays(OneAtom(a), instruments_);
  EXPECT_EQ(answer.size(), 3u);  // drums, cymbals, timpani
}

TEST_F(GroupingIndexTest, WeakMatchUnionsBlocks) {
  Atom a;
  a.lhs = Term::Candidate({family_});
  a.op = SetOp::kWeakMatch;
  a.rhs = Term::Constant(
      {E(families_, "percussion"), E(families_, "keyboard")});
  EntitySet answer = BothWays(OneAtom(a), instruments_);
  EXPECT_EQ(answer.size(), 5u);  // 3 percussion + piano + organ
}

TEST_F(GroupingIndexTest, SupersetIntersectsBlocks) {
  // by_instrument groups musicians on plays (multivalued): musicians who
  // play BOTH viola and violin.
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kSuperset;
  a.rhs = Term::Constant(
      {E(instruments_, "viola"), E(instruments_, "violin")});
  EntitySet answer = BothWays(OneAtom(a), musicians_);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(db_->NameOf(*answer.begin()), "Edith");
}

TEST_F(GroupingIndexTest, SubclassCandidatesRestrictTheBlock) {
  // The grouping's parent (musicians) is an ancestor of soloists: the
  // answer must be restricted to the subclass members.
  ClassId soloists = *db_->schema().FindClass("soloists");
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kSuperset;
  a.rhs = Term::Constant({E(instruments_, "piano")});
  EntitySet answer = BothWays(OneAtom(a), soloists);
  ASSERT_EQ(answer.size(), 1u);  // Mark (Zack is not a soloist)
  EXPECT_EQ(db_->NameOf(*answer.begin()), "Mark");
}

TEST_F(GroupingIndexTest, UnqualifiedShapesFallBackToTheScan) {
  Evaluator eval(*db_);
  // Negated: not probe-eligible (and still correct).
  Atom neg;
  neg.lhs = Term::Candidate({family_});
  neg.op = SetOp::kEqual;
  neg.negated = true;
  neg.rhs = Term::Constant({E(families_, "percussion")});
  EXPECT_EQ(BothWays(OneAtom(neg), instruments_).size(), 14u);
  // No grouping on the attribute (popular).
  AttributeId popular =
      *db_->schema().FindAttribute(instruments_, "popular");
  Atom pop;
  pop.lhs = Term::Candidate({popular});
  pop.op = SetOp::kEqual;
  pop.rhs = Term::Constant({db_->InternBoolean(true)});
  EXPECT_EQ(BothWays(OneAtom(pop), instruments_).size(), 8u);
  // Two-step map.
  Atom path;
  path.lhs = Term::Candidate({plays_, family_});
  path.op = SetOp::kWeakMatch;
  path.rhs = Term::Constant({E(families_, "stringed")});
  EXPECT_EQ(BothWays(OneAtom(path), musicians_).size(), 4u);
  // Multi-clause predicates.
  Predicate multi;
  multi.AddAtom(pop, 0);
  multi.AddAtom(path, 0);
  BothWays(multi, instruments_);
}

TEST_F(GroupingIndexTest, EqualityOnMultivaluedFallsBack) {
  // kEqual on a multivalued attribute is exact-set equality, which no
  // block answers; nobody's plays-set equals exactly {viola}.
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Constant({E(instruments_, "viola")});
  EXPECT_TRUE(BothWays(OneAtom(a), musicians_).empty());
}

TEST_F(GroupingIndexTest, IndexTracksMutations) {
  Atom a;
  a.lhs = Term::Candidate({family_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Constant({E(families_, "percussion")});
  Predicate p = OneAtom(a);
  EXPECT_EQ(BothWays(p, instruments_).size(), 3u);
  // Move the flute into percussion; both paths must see it immediately.
  ASSERT_TRUE(db_->SetSingle(E(instruments_, "flute"), family_,
                             E(families_, "percussion"))
                  .ok());
  EXPECT_EQ(BothWays(p, instruments_).size(), 4u);
}

TEST_F(GroupingIndexTest, RandomizedAgreementOnScaledData) {
  auto ws = datasets::BuildScaledMusic(8);
  datasets::ScaledMusicHandles h = datasets::ResolveScaledMusic(*ws);
  Rng rng(17);
  std::vector<EntityId> fams(ws->db().Members(h.families).begin(),
                             ws->db().Members(h.families).end());
  for (int trial = 0; trial < 40; ++trial) {
    Atom a;
    a.lhs = Term::Candidate({h.family});
    a.op = rng.Chance(0.5) ? SetOp::kEqual : SetOp::kWeakMatch;
    EntitySet constants{fams[rng.Below(fams.size())]};
    if (a.op == SetOp::kWeakMatch && rng.Chance(0.5)) {
      constants.insert(fams[rng.Below(fams.size())]);
    }
    a.rhs = Term::Constant(constants);
    Predicate p;
    p.AddAtom(a, 0);
    Evaluator with(ws->db());
    Evaluator without(ws->db());
    without.set_use_planner(false);
    EXPECT_EQ(with.EvaluateSubclass(p, h.instruments),
              without.EvaluateSubclass(p, h.instruments))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace isis::query
