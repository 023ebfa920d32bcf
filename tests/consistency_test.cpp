/// \file consistency_test.cpp
/// \brief Tests for the full §2 consistency checker: a clean database
/// passes, and each corruption class is detected by its rule.

#include <gtest/gtest.h>

#include "datasets/instrumental_music.h"
#include "datasets/synthetic.h"
#include "sdm/consistency.h"

namespace isis::sdm {
namespace {

TEST(ConsistencyTest, CleanDatabasesPass) {
  auto ws = datasets::BuildInstrumentalMusic();
  EXPECT_TRUE(ConsistencyChecker(ws->db()).CheckAll().empty());

  datasets::SyntheticParams params;
  params.entities_per_class = 40;
  auto synthetic = datasets::BuildSynthetic(params);
  EXPECT_TRUE(ConsistencyChecker(synthetic->db()).CheckAll().empty());
}

TEST(ConsistencyTest, EmptyDatabasePasses) {
  Database db;
  EXPECT_TRUE(ConsistencyChecker(db).Check().ok());
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    people_ = *db_.CreateBaseclass("people", "name");
    cities_ = *db_.CreateBaseclass("cities", "name");
    lives_in_ = *db_.CreateAttribute(people_, "lives_in", cities_, false);
    adults_ = *db_.CreateSubclass("adults", people_, Membership::kEnumerated);
    alice_ = *db_.CreateEntity(people_, "alice");
    rome_ = *db_.CreateEntity(cities_, "rome");
    ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
    ASSERT_TRUE(db_.AddToClass(alice_, adults_).ok());
  }

  bool HasViolation(Violation::Rule rule) {
    for (const Violation& v : ConsistencyChecker(db_).CheckAll()) {
      if (v.rule == rule) return true;
    }
    return false;
  }

  Database db_;
  ClassId people_, cities_, adults_;
  AttributeId lives_in_;
  EntityId alice_, rome_;
};

TEST_F(CorruptionTest, SubclassSubsetViolationDetected) {
  // Force a subclass member that is not in the parent via the restore API
  // (a foreign entity from another tree).
  ASSERT_TRUE(db_.RestoreMembers(adults_, {alice_, rome_}).ok());
  EXPECT_TRUE(HasViolation(Violation::Rule::kSubclassSubset));
}

TEST_F(CorruptionTest, GroupingDerivationViolationDetected) {
  // A grouping is read from its attribute's value index, which keeps
  // nothing a restore could leave stale: the restore API bypasses the
  // mutation hooks but marks the index dirty, so the next read rebuilds it
  // from the rows and the derivation rule still holds.
  GroupingId g = *db_.CreateGrouping("by_city", people_, lives_in_);
  EXPECT_EQ(db_.GetGroupingBlock(g, rome_), EntitySet{alice_});
  EntityId oslo = *db_.CreateEntity(cities_, "oslo");
  ASSERT_TRUE(db_.RestoreSingle(lives_in_, alice_, oslo).ok());
  EXPECT_EQ(db_.GetGroupingBlock(g, oslo), EntitySet{alice_});
  EXPECT_TRUE(db_.GetGroupingBlock(g, rome_).empty());
  EXPECT_FALSE(HasViolation(Violation::Rule::kGroupingDerivation));
}

TEST_F(CorruptionTest, AttributeFunctionViolationDetected) {
  // A value outside the value class, installed via the restore API.
  EntityId bob = *db_.CreateEntity(people_, "bob");
  ASSERT_TRUE(db_.RestoreSingle(lives_in_, alice_, bob).ok());
  EXPECT_TRUE(HasViolation(Violation::Rule::kAttributeFunction));
}

TEST_F(CorruptionTest, ViolationsFormatNames) {
  ASSERT_TRUE(db_.RestoreMembers(adults_, {rome_}).ok());
  std::vector<Violation> violations = ConsistencyChecker(db_).CheckAll();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].description.find("rome"), std::string::npos);
  EXPECT_STREQ(ViolationRuleToString(violations[0].rule), "SubclassSubset");
  // Check() surfaces the first violation and the count.
  Status st = ConsistencyChecker(db_).Check();
  EXPECT_TRUE(st.IsConsistency());
  EXPECT_NE(st.message().find("violation"), std::string::npos);
}

TEST(ConsistencyRuleNameTest, AllNamed) {
  EXPECT_STREQ(ViolationRuleToString(Violation::Rule::kSchemaStructure),
               "SchemaStructure");
  EXPECT_STREQ(ViolationRuleToString(Violation::Rule::kBaseclassPartition),
               "BaseclassPartition");
  EXPECT_STREQ(ViolationRuleToString(Violation::Rule::kNamingUniqueness),
               "NamingUniqueness");
}

TEST(ConsistencyTest, MutationsPreserveConsistencyUnderStress) {
  // Every public mutation path must leave the database §2-consistent; run a
  // deterministic burst of mixed operations on the synthetic workspace.
  datasets::SyntheticParams params;
  params.entities_per_class = 30;
  params.baseclasses = 2;
  auto ws = datasets::BuildSynthetic(params);
  Database& db = ws->db();
  datasets::SyntheticHandles h = datasets::ResolveSynthetic(*ws, params);

  // Delete a third of one class's entities, re-create some, reassign.
  int i = 0;
  std::vector<EntityId> members(db.Members(h.baseclasses[0]).begin(),
                                db.Members(h.baseclasses[0]).end());
  for (EntityId e : members) {
    if (++i % 3 == 0) {
      ASSERT_TRUE(ws->DeleteEntity(e).ok());
    }
  }
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(
        db.CreateEntity(h.baseclasses[0], "fresh" + std::to_string(k)).ok());
  }
  Status st = ConsistencyChecker(db).Check();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace isis::sdm
