/// \file grouping_test.cpp
/// \brief Unit + property tests for groupings-as-data: the blocks a
/// grouping reads from its attribute's value index equal their derivation
/// from the rows, under mutation and under concurrent readers, whichever
/// way that index came up to date.

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sdm/consistency.h"
#include "sdm/database.h"

namespace isis::sdm {
namespace {

/// The parameter picks how the value indexes behind the groupings are kept
/// up to date. Incremental (true): the indexes of `family` and `tags` are
/// built while still empty, so every value a test reads arrived through the
/// mutation hooks' incremental upkeep. Recompute (false): no index exists
/// until a test first reads a grouping, which builds it from the rows.
class GroupingTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    instruments_ = *db_.CreateBaseclass("instruments", "name");
    families_ = *db_.CreateBaseclass("families", "name");
    family_ = *db_.CreateAttribute(instruments_, "family", families_, false);
    tags_ = *db_.CreateAttribute(instruments_, "tags", Schema::kStrings(),
                                 true);
    if (GetParam()) {
      EXPECT_EQ(db_.ValueIndexPostings(family_), 0);
      EXPECT_EQ(db_.ValueIndexPostings(tags_), 0);
    }
    by_family_ = *db_.CreateGrouping("by_family", instruments_, family_);
    strings_ = *db_.CreateEntity(families_, "strings");
    brass_ = *db_.CreateEntity(families_, "brass");
    violin_ = *db_.CreateEntity(instruments_, "violin");
    cello_ = *db_.CreateEntity(instruments_, "cello");
    tuba_ = *db_.CreateEntity(instruments_, "tuba");
    EXPECT_TRUE(db_.SetSingle(violin_, family_, strings_).ok());
    EXPECT_TRUE(db_.SetSingle(cello_, family_, strings_).ok());
    EXPECT_TRUE(db_.SetSingle(tuba_, family_, brass_).ok());
    // The strategy is in effect: only a built index takes updates.
    EXPECT_EQ(db_.stats().value_index_incremental_updates,
              GetParam() ? 3 : 0);
  }

  Database db_;
  ClassId instruments_, families_;
  AttributeId family_, tags_;
  GroupingId by_family_;
  EntityId strings_, brass_, violin_, cello_, tuba_;
};

TEST_P(GroupingTest, BlocksMatchDerivation) {
  // G = { S_e | e in V }, S_e = { x | e in A(x) } (paper §2).
  const std::vector<GroupingBlock>& blocks = db_.GroupingBlocks(by_family_);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].index, strings_);  // ordered by index entity id
  EXPECT_EQ(blocks[0].members, (EntitySet{violin_, cello_}));
  EXPECT_EQ(blocks[1].index, brass_);
  EXPECT_EQ(blocks[1].members, EntitySet{tuba_});
  EXPECT_EQ(db_.GetGroupingBlock(by_family_, strings_),
            (EntitySet{violin_, cello_}));
  EXPECT_TRUE(db_.GetGroupingBlock(by_family_, EntityId(9999)).empty());
}

TEST_P(GroupingTest, NullValuedEntitiesAppearInNoBlock) {
  EntityId drum = *db_.CreateEntity(instruments_, "drum");
  (void)drum;  // family unassigned
  size_t total = 0;
  for (const GroupingBlock& b : db_.GroupingBlocks(by_family_)) {
    total += b.members.size();
  }
  EXPECT_EQ(total, 3u);
}

TEST_P(GroupingTest, UpdateMovesEntityBetweenBlocks) {
  ASSERT_TRUE(db_.SetSingle(cello_, family_, brass_).ok());
  EXPECT_EQ(db_.GetGroupingBlock(by_family_, strings_), EntitySet{violin_});
  EXPECT_EQ(db_.GetGroupingBlock(by_family_, brass_),
            (EntitySet{cello_, tuba_}));
  EXPECT_TRUE(ConsistencyChecker(db_).Check().ok());
}

TEST_P(GroupingTest, EmptyBlocksDisappear) {
  ASSERT_TRUE(db_.SetSingle(tuba_, family_, strings_).ok());
  EXPECT_EQ(db_.GroupingBlocks(by_family_).size(), 1u);
}

TEST_P(GroupingTest, DeleteEntityLeavesBlocksConsistent) {
  // Deleting an index entity dissolves its block; deleting a member drops
  // it from its block.
  ASSERT_TRUE(db_.DeleteEntity(violin_).ok());
  EXPECT_EQ(db_.GetGroupingBlock(by_family_, strings_), EntitySet{cello_});
  ASSERT_TRUE(db_.DeleteEntity(brass_).ok());
  EXPECT_EQ(db_.GroupingBlocks(by_family_).size(), 1u);
  EXPECT_TRUE(ConsistencyChecker(db_).Check().ok());
}

TEST_P(GroupingTest, GroupingOnMultivaluedAttributeCovers) {
  // A grouping on a multivalued attribute is a cover, not a partition: an
  // entity appears in one block per value.
  GroupingId by_tag = *db_.CreateGrouping("by_tag", instruments_, tags_);
  EntityId old_tag = db_.InternString("old");
  EntityId rare = db_.InternString("rare");
  ASSERT_TRUE(db_.AddToMulti(violin_, tags_, old_tag).ok());
  ASSERT_TRUE(db_.AddToMulti(violin_, tags_, rare).ok());
  ASSERT_TRUE(db_.AddToMulti(tuba_, tags_, rare).ok());
  EXPECT_EQ(db_.GetGroupingBlock(by_tag, old_tag), EntitySet{violin_});
  EXPECT_EQ(db_.GetGroupingBlock(by_tag, rare), (EntitySet{violin_, tuba_}));
  ASSERT_TRUE(db_.RemoveFromMulti(violin_, tags_, rare).ok());
  EXPECT_EQ(db_.GetGroupingBlock(by_tag, rare), EntitySet{tuba_});
  EXPECT_TRUE(ConsistencyChecker(db_).Check().ok());
}

TEST_P(GroupingTest, GroupingOnSubclassSeesOnlySubclassMembers) {
  ClassId vintage =
      *db_.CreateSubclass("vintage", instruments_, Membership::kEnumerated);
  GroupingId g = *db_.CreateGrouping("vintage_by_family", vintage, family_);
  ASSERT_TRUE(db_.AddToClass(violin_, vintage).ok());
  EXPECT_EQ(db_.GetGroupingBlock(g, strings_), EntitySet{violin_});
  // Membership changes update the grouping.
  ASSERT_TRUE(db_.AddToClass(cello_, vintage).ok());
  EXPECT_EQ(db_.GetGroupingBlock(g, strings_), (EntitySet{violin_, cello_}));
  ASSERT_TRUE(db_.RemoveFromClass(violin_, vintage).ok());
  EXPECT_EQ(db_.GetGroupingBlock(g, strings_), EntitySet{cello_});
  EXPECT_TRUE(ConsistencyChecker(db_).Check().ok());
}

TEST_P(GroupingTest, RenameMovesTheEntityToItsNewNameBlock) {
  // A rename changes the naming attribute's value, so a grouping on it must
  // follow -- with no observer registered on the database.
  AttributeId name = db_.schema().GetClass(instruments_).own_attributes[0];
  ASSERT_TRUE(db_.schema().GetAttribute(name).naming);
  GroupingId by_name = *db_.CreateGrouping("by_name", instruments_, name);
  EXPECT_EQ(db_.GetGroupingBlock(by_name, db_.InternString("violin")),
            EntitySet{violin_});
  ASSERT_TRUE(db_.RenameEntity(violin_, "fiddle").ok());
  EXPECT_TRUE(db_.GetGroupingBlock(by_name, db_.InternString("violin"))
                  .empty());
  EXPECT_EQ(db_.GetGroupingBlock(by_name, db_.InternString("fiddle")),
            EntitySet{violin_});
  Status st = ConsistencyChecker(db_).Check();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(GroupingTest, RandomMutationSequenceMatchesOracle) {
  // Property: after any mutation sequence, blocks equal the from-scratch
  // derivation (the consistency checker is the oracle).
  Rng rng(2024);
  std::vector<EntityId> insts = {violin_, cello_, tuba_};
  std::vector<EntityId> fams = {strings_, brass_, kNullEntity};
  for (int step = 0; step < 300; ++step) {
    switch (rng.Below(4)) {
      case 0: {
        EntityId x = insts[rng.Below(insts.size())];
        EXPECT_TRUE(
            db_.SetSingle(x, family_, fams[rng.Below(fams.size())]).ok());
        break;
      }
      case 1: {
        EntityId e = *db_.CreateEntity(
            instruments_, "i" + std::to_string(step));
        insts.push_back(e);
        break;
      }
      case 2: {
        if (insts.size() > 2) {
          size_t i = rng.Below(insts.size());
          EXPECT_TRUE(db_.DeleteEntity(insts[i]).ok());
          insts.erase(insts.begin() + static_cast<long>(i));
        }
        break;
      }
      case 3:
        (void)db_.GroupingBlocks(by_family_);  // interleave reads
        break;
    }
    if (step % 37 == 0) {
      Status st = ConsistencyChecker(db_).Check();
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
    }
  }
  EXPECT_TRUE(ConsistencyChecker(db_).Check().ok());
}

/// The blocks of `g` derived from the value rows alone, the way the
/// consistency checker derives them: never touches a value index.
std::vector<GroupingBlock> DeriveBlocks(const Database& db, GroupingId g) {
  const GroupingDef& def = db.schema().GetGrouping(g);
  std::map<EntityId, EntitySet> acc;
  for (EntityId x : db.Members(def.parent)) {
    for (EntityId v : db.GetValueSet(x, def.on_attribute)) acc[v].insert(x);
  }
  std::vector<GroupingBlock> out;
  for (auto& [index, members] : acc) {
    out.push_back(GroupingBlock{index, std::move(members)});
  }
  return out;
}

bool SameBlocks(const std::vector<GroupingBlock>& a,
                const std::vector<GroupingBlock>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].members != b[i].members) {
      return false;
    }
  }
  return true;
}

TEST_P(GroupingTest, ConcurrentReadersBuildTheIndexOnce) {
  // The server's shared phase: many readers, no writer. Build-then-publish
  // under the database's mutex means an index no one has built yet
  // (Recompute) is built by exactly one reader, a built one (Incremental)
  // is never rebuilt, and every reader sees the same blocks.
  const std::vector<GroupingBlock> serial = DeriveBlocks(db_, by_family_);
  ASSERT_EQ(serial.size(), 2u);
  const std::int64_t rebuilds = db_.stats().value_index_rebuilds;
  constexpr int kReaders = 8;
  std::vector<int> agreed(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      bool same = true;
      for (int i = 0; i < 50; ++i) {
        same = same && SameBlocks(db_.GroupingBlocks(by_family_), serial) &&
               db_.GetGroupingBlock(by_family_, strings_) ==
                   serial[0].members;
      }
      agreed[r] = same ? 1 : 0;
    });
  }
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(agreed[r], 1) << "reader " << r;
  EXPECT_EQ(db_.stats().value_index_rebuilds,
            rebuilds + (GetParam() ? 0 : 1));
}

INSTANTIATE_TEST_SUITE_P(MaintenanceStrategies, GroupingTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Incremental" : "Recompute";
                         });

}  // namespace
}  // namespace isis::sdm
