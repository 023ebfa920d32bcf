/// \file constraints_test.cpp
/// \brief Tests for the integrity-constraint subsystem (the paper's §5
/// future work): definition, checking, enforcement, the manager/salary
/// challenge, UI flow and store round-trip.

#include <gtest/gtest.h>

#include "datasets/instrumental_music.h"
#include "query/workspace.h"
#include "store/serializer.h"
#include "ui/controller.h"

namespace isis::query {
namespace {

using sdm::EntitySet;
using sdm::Schema;

class ConstraintsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = &ws_.db();
    employees_ = *db_->CreateBaseclass("employees", "name");
    salary_ = *db_->CreateAttribute(employees_, "salary",
                                    Schema::kIntegers(), false);
    manager_ =
        *db_->CreateAttribute(employees_, "manager", employees_, false);
    grace_ = *db_->CreateEntity(employees_, "Grace");
    hank_ = *db_->CreateEntity(employees_, "Hank");
    ASSERT_TRUE(db_->SetSingle(grace_, salary_, db_->InternInteger(180)).ok());
    ASSERT_TRUE(db_->SetSingle(hank_, salary_, db_->InternInteger(120)).ok());
    ASSERT_TRUE(db_->SetSingle(hank_, manager_, grace_).ok());
  }

  /// The paper's §5 challenge: NOT(e.salary > e.manager.salary).
  Predicate SalaryRule() {
    Predicate p;
    Atom a;
    a.lhs = Term::Candidate({salary_});
    a.op = SetOp::kGreater;
    a.negated = true;
    a.rhs = Term::Candidate({manager_, salary_});
    p.AddAtom(a, 0);
    return p;
  }

  Workspace ws_;
  sdm::Database* db_ = nullptr;
  ClassId employees_;
  AttributeId salary_, manager_;
  EntityId grace_, hank_;
};

TEST_F(ConstraintsTest, DefineCheckAndViolate) {
  ASSERT_TRUE(
      ws_.DefineConstraint("salary_cap", employees_, SalaryRule()).ok());
  EXPECT_EQ(ws_.constraints().size(), 1u);
  EXPECT_TRUE(ws_.CheckConstraints().empty());
  EXPECT_TRUE(ws_.EnforceConstraints().ok());
  // A raise breaks the rule; the check names the violator.
  ASSERT_TRUE(db_->SetSingle(hank_, salary_, db_->InternInteger(200)).ok());
  std::vector<ConstraintViolation> v = ws_.CheckConstraints();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].constraint, "salary_cap");
  EXPECT_EQ(v[0].violators, EntitySet{hank_});
  Status st = ws_.EnforceConstraints();
  EXPECT_TRUE(st.IsConsistency());
  EXPECT_NE(st.message().find("salary_cap"), std::string::npos);
  EXPECT_NE(st.message().find("Hank"), std::string::npos);
}

TEST_F(ConstraintsTest, TopOfHierarchyIsExempt) {
  // Grace has no manager: the ordering atom over the empty map is false,
  // its negation true — the natural reading of the constraint.
  ASSERT_TRUE(
      ws_.DefineConstraint("salary_cap", employees_, SalaryRule()).ok());
  ASSERT_TRUE(db_->SetSingle(grace_, salary_, db_->InternInteger(9999)).ok());
  EXPECT_TRUE(ws_.CheckConstraints().empty());
}

TEST_F(ConstraintsTest, DefinitionRules) {
  // Duplicate names rejected.
  ASSERT_TRUE(ws_.DefineConstraint("c", employees_, SalaryRule()).ok());
  EXPECT_TRUE(
      ws_.DefineConstraint("c", employees_, SalaryRule()).IsAlreadyExists());
  // Bad names and bad classes rejected.
  EXPECT_TRUE(ws_.DefineConstraint("", employees_, SalaryRule())
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ws_.DefineConstraint("x", ClassId(999), SalaryRule()).IsNotFound());
  // Ill-typed predicates rejected.
  Predicate bad;
  Atom a;
  a.lhs = Term::Candidate({salary_});
  a.op = SetOp::kEqual;
  a.rhs = Term::Candidate({manager_});  // INTEGER vs employees tree
  bad.AddAtom(a, 0);
  EXPECT_TRUE(ws_.DefineConstraint("y", employees_, bad).IsTypeError());
  // Self terms are not legal in constraints.
  Predicate self_pred;
  Atom s;
  s.lhs = Term::Candidate({salary_});
  s.op = SetOp::kEqual;
  s.rhs = Term::Self({salary_});
  self_pred.AddAtom(s, 0);
  EXPECT_TRUE(
      ws_.DefineConstraint("z", employees_, self_pred).IsTypeError());
}

TEST_F(ConstraintsTest, DropAndLookup) {
  ASSERT_TRUE(ws_.DefineConstraint("c1", employees_, SalaryRule()).ok());
  ASSERT_TRUE(ws_.DefineConstraint("c2", employees_, SalaryRule()).ok());
  ASSERT_EQ(ws_.constraints().All().size(), 2u);
  EXPECT_EQ(ws_.constraints().All()[0]->name, "c1");  // definition order
  ASSERT_TRUE(ws_.DropConstraint("c1").ok());
  EXPECT_FALSE(ws_.constraints().Has("c1"));
  EXPECT_TRUE(ws_.DropConstraint("c1").IsNotFound());
  EXPECT_NE(ws_.constraints().Find("c2"), nullptr);
}

TEST_F(ConstraintsTest, GuardsAttributeDeletion) {
  ASSERT_TRUE(
      ws_.DefineConstraint("salary_cap", employees_, SalaryRule()).ok());
  EXPECT_TRUE(ws_.AttributeReferencedByQueries(salary_));
  EXPECT_TRUE(ws_.DeleteAttribute(salary_).IsConsistency());
  ASSERT_TRUE(ws_.DropConstraint("salary_cap").ok());
  EXPECT_FALSE(ws_.AttributeReferencedByQueries(salary_));
}

TEST_F(ConstraintsTest, EntityDeletionScrubsConstants) {
  Predicate p;
  Atom a;
  a.lhs = Term::Candidate({manager_});
  a.op = SetOp::kWeakMatch;
  a.negated = true;
  a.rhs = Term::Constant({hank_});  // nobody may report to Hank
  p.AddAtom(a, 0);
  ASSERT_TRUE(ws_.DefineConstraint("not_under_hank", employees_, p).ok());
  ASSERT_TRUE(ws_.DeleteEntity(hank_).ok());
  const Constraint* c = ws_.constraints().Find("not_under_hank");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->predicate.atoms[0].rhs.constants.empty());
  EXPECT_TRUE(ws_.EnforceConstraints().ok());
}

TEST_F(ConstraintsTest, StoreRoundTrip) {
  ASSERT_TRUE(
      ws_.DefineConstraint("salary_cap", employees_, SalaryRule()).ok());
  std::string blob = store::Save(ws_);
  auto loaded = store::Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->constraints().size(), 1u);
  const Constraint* c = (*loaded)->constraints().Find("salary_cap");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->cls, employees_);
  EXPECT_TRUE((*loaded)->EnforceConstraints().ok());
  EXPECT_EQ(store::Save(**loaded), blob);
}

TEST_F(ConstraintsTest, MultipleConstraintsReportIndependently) {
  ASSERT_TRUE(
      ws_.DefineConstraint("salary_cap", employees_, SalaryRule()).ok());
  Predicate min_pay;
  Atom a;
  a.lhs = Term::Candidate({salary_});
  a.op = SetOp::kGreater;
  a.rhs = Term::Constant({db_->InternInteger(50)});
  min_pay.AddAtom(a, 0);
  ASSERT_TRUE(ws_.DefineConstraint("min_pay", employees_, min_pay).ok());
  // Violate only min_pay.
  EntityId intern = *db_->CreateEntity(employees_, "Ida");
  ASSERT_TRUE(db_->SetSingle(intern, salary_, db_->InternInteger(10)).ok());
  std::vector<ConstraintViolation> v = ws_.CheckConstraints();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].constraint, "min_pay");
  EXPECT_EQ(v[0].violators, EntitySet{intern});
}

class ConstraintUiTest : public ::testing::Test {
 protected:
  ConstraintUiTest() : session_(datasets::BuildInstrumentalMusic()) {}
  Status Run(const std::string& script) { return session_.RunScript(script); }
  ui::SessionController session_;
};

TEST_F(ConstraintUiTest, DefineOnTheWorksheetAndCheck) {
  // "every music group has at least 2 members": e.size > 1.
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd define constraint\n"
                  "type at_least_duo\n"
                  "pick atom:A\n"
                  "pick clause:1\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "pick op:>\n"
                  "cmd rhs constant\n"
                  "cmd create constant\n"
                  "type 1\n"
                  "cmd accept constant\n"
                  "cmd commit\n")
                  .ok());
  EXPECT_EQ(session_.workspace().constraints().size(), 1u);
  EXPECT_NE(session_.message().find("it currently holds"),
            std::string::npos);
  ASSERT_TRUE(Run("cmd check constraints\n").ok());
  EXPECT_NE(session_.message().find("hold"), std::string::npos);
  // Break it: a one-member group.
  sdm::Database& db = session_.workspace().db();
  ClassId groups = *db.schema().FindClass("music_groups");
  EntityId solo_act = *db.CreateEntity(groups, "One Man Band");
  AttributeId size = *db.schema().FindAttribute(groups, "size");
  ASSERT_TRUE(db.SetSingle(solo_act, size, db.InternInteger(1)).ok());
  ASSERT_TRUE(Run("cmd check constraints\n").ok());
  EXPECT_NE(session_.message().find("at_least_duo"), std::string::npos);
  EXPECT_NE(session_.message().find("One Man Band"), std::string::npos);
  // Drop it.
  ASSERT_TRUE(Run("cmd drop constraint\ntype at_least_duo\n").ok());
  EXPECT_EQ(session_.workspace().constraints().size(), 0u);
  // Undo restores the constraint (snapshots cover the catalog).
  ASSERT_TRUE(Run("cmd undo\n").ok());
  EXPECT_EQ(session_.workspace().constraints().size(), 1u);
}

TEST_F(ConstraintUiTest, FailedRedefinitionKeepsTheOldConstraint) {
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd define constraint\n"
                  "type c\n"
                  "pick atom:A\n"
                  "pick clause:1\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "pick op:>\n"
                  "cmd rhs constant\n"
                  "cmd create constant\n"
                  "type 1\n"
                  "cmd accept constant\n"
                  "cmd commit\n")
                  .ok());
  const std::string before = store::Save(session_.workspace());
  const size_t undo_depth = session_.undo_depth();
  // Redefining `c` over musicians keeps its music_groups predicate, which
  // does not type-check there: the commit fails ...
  Status st = Run("pick class:musicians\n"
                  "cmd define constraint\n"
                  "type c\n"
                  "cmd commit\n");
  EXPECT_TRUE(st.IsTypeError()) << st.ToString();
  // ... and must change nothing: `c` still constrains music_groups.
  ASSERT_EQ(session_.workspace().constraints().size(), 1u);
  ClassId groups =
      *session_.workspace().db().schema().FindClass("music_groups");
  EXPECT_EQ(session_.workspace().constraints().Find("c")->cls, groups);
  EXPECT_EQ(store::Save(session_.workspace()), before);
  EXPECT_EQ(session_.undo_depth(), undo_depth);
}

TEST_F(ConstraintUiTest, DefineRequiresClassSelection) {
  EXPECT_TRUE(Run("cmd define constraint\n").IsInvalidArgument());
}

TEST_F(ConstraintUiTest, CheckWithNoConstraints) {
  ASSERT_TRUE(Run("cmd check constraints\n").ok());
  EXPECT_NE(session_.message().find("no integrity constraints"),
            std::string::npos);
}

}  // namespace
}  // namespace isis::query
