/// \file entity_set_test.cpp
/// \brief Differential test of sdm::EntitySet, the sorted-vector set,
/// against a std::set<EntityId> reference.
///
/// Seeded random operation sequences apply every operation the tree uses to
/// both sets -- appends, middle and duplicate inserts, hinted inserts,
/// range inserts (sorted, unsorted, overlapping, with duplicates), erase by
/// value, iterator and range, lookups and comparisons -- and after each step
/// both must hold the same elements in the same order and have returned the
/// same answers. A byte check pins that a checkpoint, which lists sets in
/// iteration order, is unchanged by the representation.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "common/rng.h"
#include "datasets/scaled_music.h"
#include "query/parser.h"
#include "sdm/database.h"
#include "store/crc32.h"
#include "store/serializer.h"

namespace isis::sdm {
namespace {

using Reference = std::set<EntityId>;

constexpr int kIdRange = 64;

::testing::AssertionResult Same(const EntitySet& got, const Reference& want) {
  if (got.size() != want.size() || got.empty() != want.empty()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  if (!std::equal(got.begin(), got.end(), want.begin(), want.end()) ||
      !std::equal(got.rbegin(), got.rend(), want.rbegin(), want.rend())) {
    return ::testing::AssertionFailure() << "elements or order differ";
  }
  return ::testing::AssertionSuccess();
}

/// Position `k` of a set, for iterator-taking operations on both sides.
template <typename Set>
typename Set::const_iterator At(const Set& s, std::size_t k) {
  return std::next(s.begin(), static_cast<std::ptrdiff_t>(k));
}

class EntitySetDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EntitySetDifferentialTest, MatchesStdSetOverRandomOperations) {
  Rng rng(GetParam());
  EntitySet got;
  Reference want;
  EntitySet other_got;  // A second pair, for range inserts and comparisons.
  Reference other_want;
  auto any_id = [&](int range) {
    return EntityId(static_cast<std::int64_t>(rng.Below(range)));
  };
  auto insert_one = [&](EntityId x) {
    auto g = got.insert(x);
    auto w = want.insert(x);
    EXPECT_EQ(g.second, w.second);
    EXPECT_EQ(*g.first, *w.first);
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.Below(12);
    switch (op) {
      case 0: {  // Append past the back.
        insert_one(EntityId(want.empty() ? 0
                                         : want.rbegin()->value() + 1 +
                                               static_cast<std::int64_t>(
                                                   rng.Below(3))));
        break;
      }
      case 1:
      case 2: {  // A middle insert, or a duplicate.
        insert_one(want.empty() || rng.Chance(0.6)
                       ? any_id(kIdRange)
                       : *At(want, rng.Below(want.size())));
        break;
      }
      case 3: {  // A hinted insert: the right hint, or any position.
        const EntityId x = any_id(kIdRange);
        const std::size_t k = rng.Chance(0.5)
                                  ? static_cast<std::size_t>(std::distance(
                                        want.begin(), want.lower_bound(x)))
                                  : rng.Below(want.size() + 1);
        auto g = got.insert(At(got, k), x);
        auto w = want.insert(At(want, k), x);
        EXPECT_EQ(*g, *w);
        break;
      }
      case 4: {  // Range insert: sorted or not, overlapping, duplicates.
        std::vector<EntityId> batch;
        const std::uint64_t n = rng.Below(9);
        for (std::uint64_t i = 0; i < n; ++i) {
          batch.push_back(any_id(kIdRange));
          if (rng.Chance(0.2)) batch.push_back(batch.back());
        }
        if (rng.Chance(0.5)) std::sort(batch.begin(), batch.end());
        got.insert(batch.begin(), batch.end());
        want.insert(batch.begin(), batch.end());
        break;
      }
      case 5: {  // Range insert of another set (sorted, maybe disjoint).
        got.insert(other_got.begin(), other_got.end());
        want.insert(other_want.begin(), other_want.end());
        break;
      }
      case 6: {  // Erase by value, present or not.
        const EntityId x = any_id(kIdRange + 4);
        EXPECT_EQ(got.erase(x), want.erase(x));
        break;
      }
      case 7: {  // Erase by iterator.
        if (want.empty()) break;
        const std::size_t k = rng.Below(want.size());
        auto g = got.erase(At(got, k));
        auto w = want.erase(At(want, k));
        ASSERT_EQ(g == got.end(), w == want.end());
        if (w != want.end()) {
          EXPECT_EQ(*g, *w);
        }
        break;
      }
      case 8: {  // Erase a range.
        const std::size_t a = rng.Below(want.size() + 1);
        const std::size_t b = a + rng.Below(want.size() - a + 1);
        auto g = got.erase(At(got, a), At(got, b));
        auto w = want.erase(At(want, a), At(want, b));
        EXPECT_EQ(std::distance(got.begin(), g),
                  std::distance(want.cbegin(), w));
        break;
      }
      case 9: {  // Lookups, for present and absent values alike.
        const EntityId x = any_id(kIdRange + 4);
        EXPECT_EQ(got.count(x), want.count(x));
        EXPECT_EQ(got.contains(x), want.count(x) > 0);
        auto gf = got.find(x);
        auto wf = want.find(x);
        ASSERT_EQ(gf == got.end(), wf == want.end());
        if (wf != want.end()) {
          EXPECT_EQ(*gf, *wf);
        }
        EXPECT_EQ(std::distance(got.begin(), got.lower_bound(x)),
                  std::distance(want.begin(), want.lower_bound(x)));
        break;
      }
      case 10: {  // Move the second pair, then compare the pairs.
        if (rng.Chance(0.3)) {
          other_got = got;
          other_want = want;
        }
        const EntityId x = any_id(kIdRange);
        if (rng.Chance(0.5)) {
          other_got.insert(x);
          other_want.insert(x);
        } else {
          other_got.erase(x);
          other_want.erase(x);
        }
        EXPECT_EQ(got == other_got, want == other_want);
        EXPECT_EQ(got != other_got, want != other_want);
        EXPECT_EQ(got < other_got, want < other_want);
        EXPECT_EQ(other_got < got, other_want < want);
        break;
      }
      default: {  // Copies and constructions agree; now and then, clear.
        EXPECT_EQ(EntitySet(want.begin(), want.end()), got);
        EntitySet copy = got;
        EXPECT_EQ(copy, got);
        if (rng.Chance(0.05)) {
          got.clear();
          want.clear();
        }
        break;
      }
    }
    ASSERT_TRUE(Same(got, want)) << "after op " << op << " at step " << step;
    ASSERT_TRUE(Same(other_got, other_want)) << "second pair, step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntitySetDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 2026u));

TEST(EntitySetTest, InitializerListSortsAndDropsDuplicates) {
  const EntitySet s{EntityId(5), EntityId(1), EntityId(5), EntityId(3)};
  const std::vector<EntityId> want = {EntityId(1), EntityId(3), EntityId(5)};
  EXPECT_TRUE(std::equal(s.begin(), s.end(), want.begin(), want.end()));
}

/// Length and CRC-32 of a scale-32 checkpoint with one derived subclass, as
/// saved by the build that kept entity sets in std::set node trees. Sets
/// iterate in id order either way, so the bytes must not move; a deliberate
/// change of the checkpoint format updates these two numbers.
TEST(EntitySetTest, Scale32CheckpointBytesAreUnchanged) {
  auto ws = datasets::BuildScaledMusic(32);
  Database& db = ws->db();
  const datasets::ScaledMusicHandles h = datasets::ResolveScaledMusic(*ws);
  const ClassId cls =
      *db.CreateSubclass("inst0_groups", h.music_groups, Membership::kEnumerated);
  ASSERT_TRUE(ws->DefineSubclassMembership(
                    cls, *query::ParsePredicate(db, h.music_groups,
                                                "e.members.plays ]= {inst0}"))
                  .ok());
  const std::string bytes = store::Save(*ws);
  EXPECT_EQ(bytes.size(), 63532u);
  EXPECT_EQ(store::Crc32Hex(store::Crc32(bytes)), "7cc39e53");
}

}  // namespace
}  // namespace isis::sdm
