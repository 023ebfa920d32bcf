/// \file workspace_test.cpp
/// \brief Tests for the stored-query catalog: derived subclasses, derived
/// attributes, re-evaluation, fixpoints and reference guards.

#include <gtest/gtest.h>

#include <functional>

#include "datasets/instrumental_music.h"
#include "query/workspace.h"
#include "sdm/consistency.h"

namespace isis::query {
namespace {

using sdm::EntitySet;
using sdm::Membership;
using sdm::Schema;

class WorkspaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = datasets::BuildInstrumentalMusic();
    db_ = &ws_->db();
    const Schema& s = db_->schema();
    musicians_ = *s.FindClass("musicians");
    instruments_ = *s.FindClass("instruments");
    music_groups_ = *s.FindClass("music_groups");
    plays_ = *s.FindAttribute(musicians_, "plays");
    size_ = *s.FindAttribute(music_groups_, "size");
    members_ = *s.FindAttribute(music_groups_, "members");
  }

  EntityId E(ClassId cls, const char* name) {
    return *db_->FindEntity(cls, name);
  }
  Predicate SizeIs(int n) {
    Predicate p;
    Atom a;
    a.lhs = Term::Candidate({size_});
    a.op = SetOp::kEqual;
    a.rhs = Term::Constant({db_->InternInteger(n)});
    p.AddAtom(a, 0);
    return p;
  }

  std::unique_ptr<Workspace> ws_;
  sdm::Database* db_ = nullptr;
  ClassId musicians_, instruments_, music_groups_;
  AttributeId plays_, size_, members_;
};

TEST_F(WorkspaceTest, DatasetStoresThePlayStringsPredicate) {
  ClassId play_strings = *db_->schema().FindClass("play_strings");
  ASSERT_NE(ws_->SubclassPredicate(play_strings), nullptr);
  // Edith, Karen, Lucy, Vera play stringed instruments.
  EXPECT_EQ(db_->Members(play_strings).size(), 4u);
  EXPECT_TRUE(db_->IsMember(E(musicians_, "Edith"), play_strings));
  EXPECT_FALSE(db_->IsMember(E(musicians_, "Ray"), play_strings));
}

TEST_F(WorkspaceTest, DefineSubclassMembershipEvaluatesImmediately) {
  ClassId duos = *db_->CreateSubclass("duos", music_groups_,
                                      Membership::kEnumerated);
  ASSERT_TRUE(ws_->DefineSubclassMembership(duos, SizeIs(2)).ok());
  EXPECT_EQ(db_->schema().GetClass(duos).membership, Membership::kDerived);
  EXPECT_EQ(db_->Members(duos).size(), 1u);
  EXPECT_EQ(db_->NameOf(*db_->Members(duos).begin()), "Duo Zephyr");
}

TEST_F(WorkspaceTest, StoredQueriesReevaluateAgainstNewData) {
  ClassId duos = *db_->CreateSubclass("duos", music_groups_,
                                      Membership::kEnumerated);
  ASSERT_TRUE(ws_->DefineSubclassMembership(duos, SizeIs(2)).ok());
  // A new duo appears; the stored query picks it up on re-evaluation.
  EntityId pair = *db_->CreateEntity(music_groups_, "New Pair");
  ASSERT_TRUE(db_->SetSingle(pair, size_, db_->InternInteger(2)).ok());
  EXPECT_EQ(db_->Members(duos).size(), 1u);  // not yet
  ASSERT_TRUE(ws_->ReevaluateSubclass(duos).ok());
  EXPECT_EQ(db_->Members(duos).size(), 2u);
  // And drops entities that stop satisfying the predicate.
  ASSERT_TRUE(db_->SetSingle(pair, size_, db_->InternInteger(3)).ok());
  ASSERT_TRUE(ws_->ReevaluateSubclass(duos).ok());
  EXPECT_EQ(db_->Members(duos).size(), 1u);
}

TEST_F(WorkspaceTest, DefineRejectsIllTypedPredicates) {
  ClassId duos = *db_->CreateSubclass("duos", music_groups_,
                                      Membership::kEnumerated);
  Predicate bad;
  Atom a;
  a.lhs = Term::Candidate({size_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Constant({E(instruments_, "piano")});  // wrong tree
  bad.AddAtom(a, 0);
  EXPECT_TRUE(ws_->DefineSubclassMembership(duos, bad).IsTypeError());
  // The class stays enumerated.
  EXPECT_EQ(db_->schema().GetClass(duos).membership, Membership::kEnumerated);
}

TEST_F(WorkspaceTest, BaseclassCannotHaveMembershipPredicate) {
  EXPECT_TRUE(
      ws_->DefineSubclassMembership(musicians_, SizeIs(1)).IsConsistency());
}

TEST_F(WorkspaceTest, AttributeAssignmentDerivation) {
  AttributeId all_inst =
      *db_->CreateAttribute(music_groups_, "all_inst", instruments_, true);
  ASSERT_TRUE(ws_->DefineAttributeDerivation(
                    all_inst, AttributeDerivation::Assign(
                                  Term::Self({members_, plays_})))
                  .ok());
  EXPECT_EQ(db_->schema().GetAttribute(all_inst).origin,
            sdm::AttrOrigin::kDerived);
  EXPECT_EQ(
      db_->GetMulti(E(music_groups_, "LaBelle Quartet"), all_inst).size(),
      6u);
  EXPECT_EQ(db_->GetMulti(E(music_groups_, "Brass Trio"), all_inst).size(),
            5u);  // trumpet tuba trombone drums cymbals
}

TEST_F(WorkspaceTest, AttributePredicateDerivation) {
  // colleagues(x) = { e in musicians | e.plays ~ x.plays } (form (c)).
  AttributeId colleagues =
      *db_->CreateAttribute(musicians_, "colleagues", musicians_, true);
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kWeakMatch;
  a.rhs = Term::Self({plays_});
  p.AddAtom(a, 0);
  ASSERT_TRUE(ws_->DefineAttributeDerivation(
                    colleagues, AttributeDerivation::FromPredicate(p))
                  .ok());
  const EntitySet& edith = db_->GetMulti(E(musicians_, "Edith"), colleagues);
  EXPECT_TRUE(edith.count(E(musicians_, "Lucy")) > 0);   // shares violin
  EXPECT_FALSE(edith.count(E(musicians_, "Ray")) > 0);
}

TEST_F(WorkspaceTest, DerivedAttributesMustBeMultivalued) {
  AttributeId single =
      *db_->CreateAttribute(music_groups_, "leader", musicians_, false);
  EXPECT_TRUE(ws_->DefineAttributeDerivation(
                     single, AttributeDerivation::Assign(
                                 Term::Self({members_})))
                  .IsTypeError());
}

TEST_F(WorkspaceTest, DerivedOfDerivedReachesFixpoint) {
  // big_string_groups = derived over derived play_strings data: groups
  // whose members all play strings. Build: groups with members subset of
  // play_strings.
  ClassId play_strings = *db_->schema().FindClass("play_strings");
  ClassId string_groups = *db_->CreateSubclass(
      "string_groups", music_groups_, Membership::kEnumerated);
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({members_});
  a.op = SetOp::kSubset;
  a.rhs = Term::ClassExtent(play_strings);
  p.AddAtom(a, 0);
  ASSERT_TRUE(ws_->DefineSubclassMembership(string_groups, p).ok());
  EXPECT_EQ(db_->Members(string_groups).size(), 1u);  // String Quartet West
  // Change the data so play_strings changes, and let ReevaluateAll chase
  // the chain to a fixpoint.
  EntityId vera = E(musicians_, "Vera");
  ASSERT_TRUE(db_->RemoveFromMulti(vera, plays_,
                                   E(instruments_, "guitar"))
                  .ok());
  ASSERT_TRUE(ws_->ReevaluateAll().ok());
  EXPECT_FALSE(db_->IsMember(vera, play_strings));
  EXPECT_TRUE(db_->Members(string_groups).empty());
  EXPECT_TRUE(sdm::ConsistencyChecker(*db_).Check().ok());
}

TEST_F(WorkspaceTest, CyclicDerivationsDetected) {
  // The liar subclass: a = { e | e not in a } oscillates and can never
  // reach a fixpoint; ReevaluateAll must report it rather than loop.
  ClassId a_cls = *db_->CreateSubclass("cyc_a", musicians_,
                                       Membership::kEnumerated);
  Predicate p;
  Atom atom;
  atom.lhs = Term::Candidate();  // identity map: {e}
  atom.op = SetOp::kSubset;
  atom.negated = true;
  atom.rhs = Term::ClassExtent(a_cls);
  p.AddAtom(atom, 0);
  ASSERT_TRUE(ws_->DefineSubclassMembership(a_cls, p).ok());
  EXPECT_TRUE(ws_->ReevaluateAll(8).IsConsistency());
}

TEST_F(WorkspaceTest, GuardedAttributeDeletion) {
  // plays is referenced by the stored play_strings predicate.
  EXPECT_TRUE(ws_->AttributeReferencedByQueries(plays_));
  EXPECT_TRUE(ws_->DeleteAttribute(plays_).IsConsistency());
  EXPECT_TRUE(db_->schema().HasAttribute(plays_));
  // size is not referenced by any stored query in the dataset.
  EXPECT_FALSE(ws_->AttributeReferencedByQueries(size_));
}

TEST_F(WorkspaceTest, GuardedClassDeletion) {
  // musicians is a value class of members: the schema layer refuses.
  EXPECT_FALSE(ws_->DeleteClass(musicians_).ok());
  // A class owning an attribute referenced by a stored query elsewhere
  // refuses even when the schema rules would allow the deletion.
  ClassId duos =
      *db_->CreateSubclass("duos", music_groups_, Membership::kEnumerated);
  AttributeId motto =
      *db_->CreateAttribute(duos, "motto", Schema::kStrings(), true);
  AttributeId mottos = *db_->CreateAttribute(
      music_groups_, "mottos", Schema::kStrings(), true);
  // Derived attribute on music_groups stepping through duos' motto (a
  // descendant step: non-duos drop out at evaluation).
  ASSERT_TRUE(ws_->DefineAttributeDerivation(
                    mottos, AttributeDerivation::Assign(Term::Self({motto})))
                  .ok());
  EXPECT_TRUE(ws_->DeleteClass(duos).IsConsistency());
  // Redefining the derivation away from motto unblocks the deletion.
  ASSERT_TRUE(ws_->DefineAttributeDerivation(
                    mottos, AttributeDerivation::Assign(
                                Term::Constant({db_->InternString("x")})))
                  .ok());
  ASSERT_TRUE(ws_->DeleteClass(duos).ok());
}

TEST_F(WorkspaceTest, DeleteEntityScrubsStoredConstants) {
  ClassId pianists = *db_->CreateSubclass("pianists", musicians_,
                                          Membership::kEnumerated);
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({plays_});
  a.op = SetOp::kSuperset;
  a.rhs = Term::Constant({E(instruments_, "piano")});
  p.AddAtom(a, 0);
  ASSERT_TRUE(ws_->DefineSubclassMembership(pianists, p).ok());
  EXPECT_EQ(db_->Members(pianists).size(), 2u);  // Mark, Zack
  EntityId piano = E(instruments_, "piano");
  ASSERT_TRUE(ws_->DeleteEntity(piano).ok());
  // The constant was scrubbed: e.plays ]= {} is now trivially true.
  ASSERT_TRUE(ws_->ReevaluateSubclass(pianists).ok());
  EXPECT_EQ(db_->Members(pianists).size(),
            db_->Members(musicians_).size());
  EXPECT_TRUE(sdm::ConsistencyChecker(*db_).Check().ok());
}

TEST_F(WorkspaceTest, StoredCountsAndRestore) {
  EXPECT_EQ(ws_->StoredSubclassCount(), 1u);  // play_strings
  EXPECT_EQ(ws_->StoredAttributeCount(), 0u);
  Workspace fresh;
  fresh.RestoreSubclassPredicate(ClassId(42), Predicate{});
  EXPECT_EQ(fresh.StoredSubclassCount(), 1u);
}

/// save_version must move on every edit store::Save would record -- the
/// schema edits that do not bump the data version included -- and stay
/// put across reads.
TEST_F(WorkspaceTest, SaveVersionMovesOnEveryDurableEdit) {
  auto moved = [&](const std::function<void()>& edit) {
    const std::uint64_t v0 = ws_->save_version();
    edit();
    return ws_->save_version() != v0;
  };
  EXPECT_FALSE(moved([&] {
    (void)db_->Members(musicians_);
    (void)db_->schema().AllAttributesOf(musicians_);
    (void)ws_->CheckConstraints();
  }));
  ClassId sub;
  AttributeId attr;
  GroupingId g;
  EXPECT_TRUE(moved([&] {
    sub = *db_->CreateSubclass("virtuosi", musicians_, Membership::kEnumerated);
  }));
  EXPECT_TRUE(moved([&] {
    attr = *db_->CreateAttribute(musicians_, "nickname", Schema::kStrings(),
                                 /*multivalued=*/true);
  }));
  EXPECT_TRUE(moved([&] { ASSERT_TRUE(db_->RenameClass(sub, "stars").ok()); }));
  EXPECT_TRUE(
      moved([&] { ASSERT_TRUE(db_->RenameAttribute(attr, "alias").ok()); }));
  EXPECT_TRUE(
      moved([&] { g = *db_->CreateGrouping("by_kit", musicians_, plays_); }));
  EXPECT_TRUE(
      moved([&] { ASSERT_TRUE(db_->RenameGrouping(g, "by_axe").ok()); }));
  EXPECT_TRUE(moved([&] { ASSERT_TRUE(db_->DeleteGrouping(g).ok()); }));
  EXPECT_TRUE(moved([&] { ws_->set_name("renamed"); }));
  Predicate big = SizeIs(4);
  EXPECT_TRUE(moved([&] {
    ASSERT_TRUE(ws_->DefineConstraint("big", music_groups_, big).ok());
  }));
  EXPECT_TRUE(moved([&] {
    ASSERT_TRUE(db_->SetMulti(E(musicians_, "Ray"), plays_, {}).ok());
  }));
}

}  // namespace
}  // namespace isis::query
