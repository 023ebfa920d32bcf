/// \file database_test.cpp
/// \brief Unit tests for the data level: entities, membership, attribute
/// values and the paper's §2 mutation rules.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sdm/consistency.h"
#include "sdm/database.h"

namespace isis::sdm {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    people_ = *db_.CreateBaseclass("people", "name");
    cities_ = *db_.CreateBaseclass("cities", "name");
    lives_in_ = *db_.CreateAttribute(people_, "lives_in", cities_, false);
    visited_ = *db_.CreateAttribute(people_, "visited", cities_, true);
    age_ = *db_.CreateAttribute(people_, "age", Schema::kIntegers(), false);
    adults_ =
        *db_.CreateSubclass("adults", people_, Membership::kEnumerated);
    voters_ =
        *db_.CreateSubclass("voters", adults_, Membership::kEnumerated);
    alice_ = *db_.CreateEntity(people_, "alice");
    bob_ = *db_.CreateEntity(people_, "bob");
    rome_ = *db_.CreateEntity(cities_, "rome");
    oslo_ = *db_.CreateEntity(cities_, "oslo");
  }

  void ExpectConsistent() {
    Status st = ConsistencyChecker(db_).Check();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  Database db_;
  ClassId people_, cities_, adults_, voters_;
  AttributeId lives_in_, visited_, age_;
  EntityId alice_, bob_, rome_, oslo_;
};

TEST_F(DatabaseTest, EntityBasics) {
  EXPECT_TRUE(db_.HasEntity(alice_));
  EXPECT_EQ(db_.NameOf(alice_), "alice");
  EXPECT_EQ(db_.GetEntity(alice_).baseclass, people_);
  EXPECT_EQ(*db_.FindEntity(people_, "alice"), alice_);
  EXPECT_TRUE(db_.FindEntity(people_, "zoe").status().IsNotFound());
  // Names unique within a baseclass; the same name is fine elsewhere.
  EXPECT_TRUE(db_.CreateEntity(people_, "alice").status().IsAlreadyExists());
  EXPECT_TRUE(db_.CreateEntity(cities_, "alice").ok());
}

TEST_F(DatabaseTest, EntitiesLiveInBaseclassesOnly) {
  EXPECT_TRUE(db_.CreateEntity(adults_, "carl").status().IsConsistency());
  EXPECT_TRUE(
      db_.CreateEntity(Schema::kIntegers(), "4").status().IsConsistency());
}

TEST_F(DatabaseTest, InterningIsIdempotentAndTyped) {
  EntityId four = db_.InternInteger(4);
  EXPECT_EQ(db_.InternInteger(4), four);
  EXPECT_EQ(db_.NameOf(four), "4");
  EXPECT_EQ(db_.GetEntity(four).baseclass, Schema::kIntegers());
  EXPECT_TRUE(db_.IsMember(four, Schema::kIntegers()));
  // Same display text, different kind, different entity.
  EntityId four_str = db_.InternString("4");
  EXPECT_NE(four_str, four);
  EXPECT_TRUE(db_.IsMember(four_str, Schema::kStrings()));
  // Booleans display as the Yes/No class.
  EXPECT_EQ(db_.NameOf(db_.InternBoolean(true)), "YES");
  // FindEntity on a predefined class parses and interns.
  EXPECT_EQ(*db_.FindEntity(Schema::kIntegers(), "4"), four);
  EXPECT_TRUE(db_.FindEntity(Schema::kIntegers(), "x").status().IsParseError());
}

TEST_F(DatabaseTest, NullEntityIsMemberOfEveryClass) {
  EXPECT_TRUE(db_.IsMember(kNullEntity, people_));
  EXPECT_TRUE(db_.IsMember(kNullEntity, voters_));
  EXPECT_TRUE(db_.IsMember(kNullEntity, Schema::kIntegers()));
  // ...but never listed.
  EXPECT_EQ(db_.Members(people_).count(kNullEntity), 0u);
}

TEST_F(DatabaseTest, MembershipPropagatesUpTheChain) {
  // "we can insert an entity in a class, provided we also insert it in its
  // parent" — the engine propagates.
  ASSERT_TRUE(db_.AddToClass(alice_, voters_).ok());
  EXPECT_TRUE(db_.IsMember(alice_, voters_));
  EXPECT_TRUE(db_.IsMember(alice_, adults_));
  EXPECT_TRUE(db_.IsMember(alice_, people_));
  ExpectConsistent();
}

TEST_F(DatabaseTest, MembershipRequiresSameBaseclassTree) {
  EXPECT_TRUE(db_.AddToClass(rome_, adults_).IsConsistency());
}

TEST_F(DatabaseTest, RemovalCascadesToDescendants) {
  ASSERT_TRUE(db_.AddToClass(alice_, voters_).ok());
  ASSERT_TRUE(db_.RemoveFromClass(alice_, adults_).ok());
  EXPECT_FALSE(db_.IsMember(alice_, adults_));
  EXPECT_FALSE(db_.IsMember(alice_, voters_));
  EXPECT_TRUE(db_.IsMember(alice_, people_));
  ExpectConsistent();
}

TEST_F(DatabaseTest, RemovalFromBaseclassForbidden) {
  EXPECT_TRUE(db_.RemoveFromClass(alice_, people_).IsConsistency());
}

TEST_F(DatabaseTest, SingleValuedAttributeLifecycle) {
  // Default is the null entity.
  EXPECT_EQ(db_.GetSingle(alice_, lives_in_), kNullEntity);
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
  EXPECT_EQ(db_.GetSingle(alice_, lives_in_), rome_);
  // Assigning null clears.
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, kNullEntity).ok());
  EXPECT_EQ(db_.GetSingle(alice_, lives_in_), kNullEntity);
}

TEST_F(DatabaseTest, AttributeChecks) {
  // Value must be in the value class.
  EXPECT_TRUE(db_.SetSingle(alice_, lives_in_, bob_).IsConsistency());
  // Wrong arity.
  EXPECT_TRUE(db_.AddToMulti(alice_, lives_in_, rome_).IsTypeError());
  EXPECT_TRUE(db_.SetSingle(alice_, visited_, rome_).IsTypeError());
  // Entity must be a member of the attribute's owner.
  EXPECT_TRUE(db_.SetSingle(rome_, lives_in_, rome_).IsConsistency());
  // The null entity has no attributes.
  EXPECT_TRUE(db_.SetSingle(kNullEntity, lives_in_, rome_).IsNotFound());
  // Null cannot be a member of a multivalued set.
  EXPECT_TRUE(
      db_.AddToMulti(alice_, visited_, kNullEntity).IsInvalidArgument());
}

TEST_F(DatabaseTest, MultiValuedAttributeLifecycle) {
  EXPECT_TRUE(db_.GetMulti(alice_, visited_).empty());
  ASSERT_TRUE(db_.AddToMulti(alice_, visited_, rome_).ok());
  ASSERT_TRUE(db_.AddToMulti(alice_, visited_, oslo_).ok());
  EXPECT_EQ(db_.GetMulti(alice_, visited_).size(), 2u);
  ASSERT_TRUE(db_.RemoveFromMulti(alice_, visited_, rome_).ok());
  EXPECT_EQ(db_.GetMulti(alice_, visited_), EntitySet{oslo_});
  ASSERT_TRUE(db_.SetMulti(alice_, visited_, {rome_, oslo_}).ok());
  EXPECT_EQ(db_.GetMulti(alice_, visited_).size(), 2u);
  ExpectConsistent();
}

TEST_F(DatabaseTest, GetValueSetUnifiesArities) {
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
  EXPECT_EQ(db_.GetValueSet(alice_, lives_in_), EntitySet{rome_});
  EXPECT_TRUE(db_.GetValueSet(bob_, lives_in_).empty());  // null -> empty
  ASSERT_TRUE(db_.AddToMulti(alice_, visited_, oslo_).ok());
  EXPECT_EQ(db_.GetValueSet(alice_, visited_), EntitySet{oslo_});
}

TEST_F(DatabaseTest, NamingAttributeReadsAndRenames) {
  AttributeId naming = db_.schema().GetClass(people_).own_attributes[0];
  EntityId name_value = db_.GetSingle(alice_, naming);
  EXPECT_EQ(db_.NameOf(name_value), "alice");
  EXPECT_EQ(db_.GetEntity(name_value).baseclass, Schema::kStrings());
  // Assigning the naming attribute renames the entity (UI semantics).
  ASSERT_TRUE(db_.SetSingle(alice_, naming, db_.InternString("alicia")).ok());
  EXPECT_EQ(db_.NameOf(alice_), "alicia");
  EXPECT_EQ(*db_.FindEntity(people_, "alicia"), alice_);
  EXPECT_TRUE(db_.FindEntity(people_, "alice").status().IsNotFound());
}

TEST_F(DatabaseTest, RenameEntity) {
  ASSERT_TRUE(db_.RenameEntity(alice_, "alina").ok());
  EXPECT_EQ(db_.NameOf(alice_), "alina");
  EXPECT_TRUE(db_.RenameEntity(bob_, "alina").IsAlreadyExists());
  // Interned value entities cannot be renamed.
  EXPECT_TRUE(db_.RenameEntity(db_.InternInteger(1), "one").IsConsistency());
}

TEST_F(DatabaseTest, DeleteEntityScrubsReferences) {
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
  ASSERT_TRUE(db_.AddToMulti(bob_, visited_, rome_).ok());
  ASSERT_TRUE(db_.AddToMulti(bob_, visited_, oslo_).ok());
  ASSERT_TRUE(db_.DeleteEntity(rome_).ok());
  EXPECT_FALSE(db_.HasEntity(rome_));
  EXPECT_EQ(db_.GetSingle(alice_, lives_in_), kNullEntity);
  EXPECT_EQ(db_.GetMulti(bob_, visited_), EntitySet{oslo_});
  EXPECT_EQ(db_.Members(cities_).count(rome_), 0u);
  ExpectConsistent();
}

TEST_F(DatabaseTest, RemoveFromClassScrubsSubclassScopedReferences) {
  // An attribute whose value class is a subclass: removing the value entity
  // from the subclass must null out references.
  ClassId capitals =
      *db_.CreateSubclass("capitals", cities_, Membership::kEnumerated);
  AttributeId capital_of =
      *db_.CreateAttribute(people_, "favourite_capital", capitals, false);
  ASSERT_TRUE(db_.AddToClass(rome_, capitals).ok());
  ASSERT_TRUE(db_.SetSingle(alice_, capital_of, rome_).ok());
  ASSERT_TRUE(db_.RemoveFromClass(rome_, capitals).ok());
  EXPECT_EQ(db_.GetSingle(alice_, capital_of), kNullEntity);
  // The broader-class reference is untouched.
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
  ExpectConsistent();
}

TEST_F(DatabaseTest, RemoveFromClassDropsOwnedAttributeRows) {
  AttributeId adult_since =
      *db_.CreateAttribute(adults_, "adult_since", Schema::kIntegers(), false);
  ASSERT_TRUE(db_.AddToClass(alice_, adults_).ok());
  ASSERT_TRUE(db_.SetSingle(alice_, adult_since, db_.InternInteger(2001)).ok());
  ASSERT_TRUE(db_.RemoveFromClass(alice_, adults_).ok());
  // Re-adding starts from the defaults.
  ASSERT_TRUE(db_.AddToClass(alice_, adults_).ok());
  EXPECT_EQ(db_.GetSingle(alice_, adult_since), kNullEntity);
}

TEST_F(DatabaseTest, DerivedClassMembershipIsManaged) {
  ClassId minors =
      *db_.CreateSubclass("minors", people_, Membership::kDerived);
  EXPECT_TRUE(db_.AddToClass(alice_, minors).IsConsistency());
  ASSERT_TRUE(db_.SetDerivedMembers(minors, {alice_, bob_}).ok());
  EXPECT_TRUE(db_.IsMember(alice_, minors));
  ASSERT_TRUE(db_.SetDerivedMembers(minors, {bob_}).ok());
  EXPECT_FALSE(db_.IsMember(alice_, minors));
  EXPECT_TRUE(db_.IsMember(bob_, minors));
  EXPECT_TRUE(db_.SetDerivedMembers(adults_, {}).IsInvalidArgument());
}

TEST_F(DatabaseTest, FindMemberChecksMembership) {
  ASSERT_TRUE(db_.AddToClass(alice_, adults_).ok());
  EXPECT_EQ(*db_.FindMember(adults_, "alice"), alice_);
  EXPECT_TRUE(db_.FindMember(adults_, "bob").status().IsNotFound());
  EXPECT_EQ(*db_.FindMember(Schema::kIntegers(), "12"),
            db_.InternInteger(12));
}

TEST_F(DatabaseTest, SetValueClassResetsOutOfClassValues) {
  ClassId capitals =
      *db_.CreateSubclass("capitals", cities_, Membership::kEnumerated);
  ASSERT_TRUE(db_.AddToClass(rome_, capitals).ok());
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
  ASSERT_TRUE(db_.SetSingle(bob_, lives_in_, oslo_).ok());
  // Narrow lives_in to capitals: oslo is not a capital here, so bob resets.
  ASSERT_TRUE(db_.SetValueClass(lives_in_, capitals).ok());
  EXPECT_EQ(db_.GetSingle(alice_, lives_in_), rome_);
  EXPECT_EQ(db_.GetSingle(bob_, lives_in_), kNullEntity);
  ExpectConsistent();
}

TEST_F(DatabaseTest, MapEvaluation) {
  ASSERT_TRUE(db_.SetSingle(alice_, lives_in_, rome_).ok());
  ASSERT_TRUE(db_.AddToMulti(alice_, visited_, rome_).ok());
  ASSERT_TRUE(db_.AddToMulti(alice_, visited_, oslo_).ok());
  AttributeId path1[] = {lives_in_};
  EXPECT_EQ(db_.EvaluateMap(alice_, path1), EntitySet{rome_});
  AttributeId path2[] = {visited_};
  EXPECT_EQ(db_.EvaluateMap(alice_, path2), (EntitySet{rome_, oslo_}));
  // Identity map.
  EXPECT_EQ(db_.EvaluateMap(alice_, {}), EntitySet{alice_});
  // Unassigned singlevalued: null never enters the image.
  EXPECT_TRUE(db_.EvaluateMap(bob_, path1).empty());
}

TEST_F(DatabaseTest, MapTerminalClass) {
  AttributeId path[] = {visited_};
  EXPECT_EQ(*db_.MapTerminalClass(people_, path), cities_);
  EXPECT_EQ(*db_.MapTerminalClass(people_, {}), people_);
  AttributeId bad_path[] = {visited_, visited_};
  EXPECT_TRUE(
      db_.MapTerminalClass(people_, bad_path).status().IsTypeError());
}

TEST_F(DatabaseTest, AllEntitiesExcludesDeletedAndNull) {
  size_t before = db_.AllEntities().size();
  ASSERT_TRUE(db_.DeleteEntity(bob_).ok());
  EXPECT_EQ(db_.AllEntities().size(), before - 1);
  for (EntityId e : db_.AllEntities()) {
    EXPECT_NE(e, kNullEntity);
    EXPECT_TRUE(db_.HasEntity(e));
  }
}

TEST_F(DatabaseTest, RestoreApiRoundTripsAnEntity) {
  Entity ghost;
  ghost.id = EntityId(100);
  ghost.baseclass = people_;
  ghost.name = "ghost";
  ASSERT_TRUE(db_.RestoreEntity(ghost).ok());
  EXPECT_TRUE(db_.HasEntity(EntityId(100)));
  EXPECT_FALSE(db_.HasEntity(EntityId(99)));  // gap slot is dead
  // Colliding id refuses.
  EXPECT_TRUE(db_.RestoreEntity(ghost).IsParseError());
}

/// ReadSetVersion() is what keeps cached query results current
/// (query/cache.h): every public mutator must move it over the classes and
/// attributes it changed and, unless it is a schema-level change (which
/// moves every read set), over nothing else. A new mutator joins the table.
TEST(ReadSetVersionTest, EveryMutatorMovesExactlyWhatItTouched) {
  Database::Options options;
  options.schema.allow_multiple_parents = true;
  Database db(options);
  const ClassId people = *db.CreateBaseclass("people", "name");
  const ClassId cities = *db.CreateBaseclass("cities", "name");
  const AttributeId name = db.schema().GetClass(people).own_attributes[0];
  const AttributeId lives_in =
      *db.CreateAttribute(people, "lives_in", cities, false);
  const AttributeId visited =
      *db.CreateAttribute(people, "visited", cities, true);
  const AttributeId age =
      *db.CreateAttribute(people, "age", Schema::kIntegers(), false);
  const ClassId adults =
      *db.CreateSubclass("adults", people, Membership::kEnumerated);
  const ClassId voters =
      *db.CreateSubclass("voters", adults, Membership::kEnumerated);
  const ClassId residents =
      *db.CreateSubclass("residents", people, Membership::kEnumerated);
  const ClassId minors =
      *db.CreateSubclass("minors", people, Membership::kDerived);
  const ClassId capitals =
      *db.CreateSubclass("capitals", cities, Membership::kEnumerated);
  const EntityId alice = *db.CreateEntity(people, "alice");
  const EntityId bob = *db.CreateEntity(people, "bob");
  const EntityId rome = *db.CreateEntity(cities, "rome");
  const EntityId oslo = *db.CreateEntity(cities, "oslo");
  ASSERT_TRUE(db.AddToClass(rome, capitals).ok());
  // Read by no data mutator below.
  const ClassId planets = *db.CreateBaseclass("planets", "name");
  const AttributeId moons =
      *db.CreateAttribute(planets, "moons", Schema::kIntegers(), false);
  const std::vector<std::int64_t> untouched_classes = {planets.value()};
  const std::vector<std::int64_t> untouched_attrs = {moons.value()};

  struct Case {
    std::string mutator;
    std::function<Status()> mutate;
    std::vector<std::int64_t> classes;  ///< Membership it changes.
    std::vector<std::int64_t> attrs;    ///< Values it changes.
    bool schema = false;                ///< Moves every read set.
  };
  const std::vector<Case> cases = {
      {"AddToClass", [&] { return db.AddToClass(alice, voters); },
       {adults.value(), voters.value()}, {}},
      {"RemoveFromClass", [&] { return db.RemoveFromClass(alice, adults); },
       {adults.value(), voters.value()}, {}},
      {"AddToDerivedClass",
       [&] { return db.AddToDerivedClass(alice, minors); },
       {minors.value()}, {}},
      {"SetDerivedMembers", [&] { return db.SetDerivedMembers(minors, {bob}); },
       {minors.value()}, {}},
      {"SetSingle", [&] { return db.SetSingle(alice, lives_in, rome); }, {},
       {lives_in.value()}},
      {"AddToMulti", [&] { return db.AddToMulti(alice, visited, rome); }, {},
       {visited.value()}},
      {"RemoveFromMulti",
       [&] { return db.RemoveFromMulti(alice, visited, rome); }, {},
       {visited.value()}},
      {"SetMulti", [&] { return db.SetMulti(bob, visited, {rome, oslo}); },
       {}, {visited.value()}},
      {"CreateEntity",
       [&] { return db.CreateEntity(people, "carol").status(); },
       {people.value()}, {}},
      {"RenameEntity", [&] { return db.RenameEntity(alice, "alina"); }, {},
       {name.value()}},
      {"SetSingle on the naming attribute",
       [&] { return db.SetSingle(bob, name, db.InternString("robert")); },
       {}, {name.value()}},
      {"DeleteEntity", [&] { return db.DeleteEntity(oslo); },
       {cities.value()}, {visited.value()}},
      {"InternValue",
       [&] { return db.InternValue(Value::Integer(424242)).status(); },
       {Schema::kIntegers().value()}, {}},
      {"SetValueClass", [&] { return db.SetValueClass(lives_in, capitals); },
       {}, {lives_in.value()}, true},
      {"AddParent", [&] { return db.AddParent(voters, residents); }, {}, {},
       true},
      {"SetMembership",
       [&] { return db.SetMembership(minors, Membership::kEnumerated); }, {},
       {}, true},
      {"DeleteAttribute", [&] { return db.DeleteAttribute(age); }, {},
       {age.value()}, true},
      {"DeleteClass", [&] { return db.DeleteClass(voters); },
       {voters.value()}, {}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.mutator);
    const std::uint64_t touched = db.ReadSetVersion(c.classes, c.attrs);
    const std::uint64_t untouched =
        db.ReadSetVersion(untouched_classes, untouched_attrs);
    Status st = c.mutate();
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_GT(db.ReadSetVersion(c.classes, c.attrs), touched);
    EXPECT_EQ(db.ReadSetVersion(untouched_classes, untouched_attrs) !=
                  untouched,
              c.schema);
  }
}

TEST(ReadSetVersionTest, NoOpMutationsAndReadsMoveNothing) {
  Database db;
  const ClassId people = *db.CreateBaseclass("people", "name");
  const AttributeId age =
      *db.CreateAttribute(people, "age", Schema::kIntegers(), false);
  const EntityId alice = *db.CreateEntity(people, "alice");
  const EntityId forty = db.InternInteger(40);
  ASSERT_TRUE(db.SetSingle(alice, age, forty).ok());
  const std::vector<std::int64_t> classes = {people.value(),
                                             Schema::kIntegers().value()};
  const std::vector<std::int64_t> attrs = {age.value()};
  const std::uint64_t before = db.ReadSetVersion(classes, attrs);
  ASSERT_TRUE(db.SetSingle(alice, age, forty).ok());  // Same value.
  EXPECT_EQ(db.InternInteger(40), forty);              // Already interned.
  EXPECT_EQ(db.GetSingle(alice, age), forty);
  EXPECT_EQ(db.ReadSetVersion(classes, attrs), before);
}

}  // namespace
}  // namespace isis::sdm
