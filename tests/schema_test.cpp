/// \file schema_test.cpp
/// \brief Unit tests for the schema catalog and its two graphs (paper §2).

#include <gtest/gtest.h>

#include <set>

#include "sdm/schema.h"

namespace isis::sdm {
namespace {

class SchemaTest : public ::testing::Test {
 protected:
  Schema schema_;
};

TEST_F(SchemaTest, PredefinedBaseclassesAlwaysPresent) {
  // "We assume that the standard baseclasses ... are always in our schema."
  EXPECT_TRUE(schema_.HasClass(Schema::kIntegers()));
  EXPECT_TRUE(schema_.HasClass(Schema::kReals()));
  EXPECT_TRUE(schema_.HasClass(Schema::kBooleans()));
  EXPECT_TRUE(schema_.HasClass(Schema::kStrings()));
  EXPECT_EQ(schema_.GetClass(Schema::kIntegers()).name, "INTEGER");
  EXPECT_EQ(schema_.GetClass(Schema::kBooleans()).name, "YES/NO");
  EXPECT_EQ(schema_.Baseclasses().size(), 4u);
  EXPECT_TRUE(schema_.Validate().ok());
}

TEST_F(SchemaTest, PredefinedClassesHaveNamingAttributes) {
  // "The first attribute in a baseclass is the naming attribute."
  for (ClassId base : schema_.Baseclasses()) {
    const ClassDef& def = schema_.GetClass(base);
    ASSERT_FALSE(def.own_attributes.empty());
    EXPECT_TRUE(schema_.GetAttribute(def.own_attributes[0]).naming);
  }
}

TEST_F(SchemaTest, PredefinedClassFor) {
  EXPECT_EQ(Schema::PredefinedClassFor(BaseKind::kInteger),
            Schema::kIntegers());
  EXPECT_EQ(Schema::PredefinedClassFor(BaseKind::kString),
            Schema::kStrings());
  EXPECT_FALSE(Schema::PredefinedClassFor(BaseKind::kNone).valid());
}

TEST_F(SchemaTest, CreateBaseclassWithNamingAttribute) {
  Result<ClassId> cls = schema_.CreateBaseclass("musicians", "stage_name");
  ASSERT_TRUE(cls.ok());
  const ClassDef& def = schema_.GetClass(*cls);
  EXPECT_TRUE(def.is_base());
  EXPECT_EQ(def.membership, Membership::kBase);
  ASSERT_EQ(def.own_attributes.size(), 1u);
  const AttributeDef& naming = schema_.GetAttribute(def.own_attributes[0]);
  EXPECT_EQ(naming.name, "stage_name");
  EXPECT_TRUE(naming.naming);
  EXPECT_EQ(naming.value_class, Schema::kStrings());
  EXPECT_FALSE(naming.multivalued);
}

TEST_F(SchemaTest, ClassNamesAreUnique) {
  ASSERT_TRUE(schema_.CreateBaseclass("c", "name").ok());
  EXPECT_TRUE(schema_.CreateBaseclass("c", "name").status().IsAlreadyExists());
  // Class and grouping names share one namespace.
  ClassId c = *schema_.FindClass("c");
  AttributeId naming = schema_.GetClass(c).own_attributes[0];
  ASSERT_TRUE(schema_.CreateGrouping("g", c, naming).ok());
  EXPECT_TRUE(
      schema_.CreateBaseclass("g", "name").status().IsAlreadyExists());
}

TEST_F(SchemaTest, InvalidNamesRejected) {
  EXPECT_TRUE(schema_.CreateBaseclass("", "n").status().IsInvalidArgument());
  EXPECT_TRUE(
      schema_.CreateBaseclass("a|b", "n").status().IsInvalidArgument());
  // A bad naming attribute must roll the class back entirely.
  EXPECT_FALSE(schema_.CreateBaseclass("ok_class", "bad|attr").ok());
  EXPECT_FALSE(schema_.FindClass("ok_class").ok());
}

TEST_F(SchemaTest, RejectedBaseclassConsumesNoIdOrFillPattern) {
  // A durable server logs only accepted commands, so recovery never sees
  // the rejected call: the next class must come out the same either way.
  EXPECT_TRUE(schema_.CreateBaseclass("b1", "bad`name")
                  .status()
                  .IsInvalidArgument());
  ClassId after_rejection = *schema_.CreateBaseclass("b2", "name");
  Schema fresh;
  ClassId without_it = *fresh.CreateBaseclass("b2", "name");
  EXPECT_EQ(after_rejection, without_it);
  EXPECT_EQ(schema_.GetClass(after_rejection).fill_pattern,
            fresh.GetClass(without_it).fill_pattern);
  EXPECT_EQ(schema_.GetClass(after_rejection).own_attributes,
            fresh.GetClass(without_it).own_attributes);
}

class SchemaTreeTest : public SchemaTest {
 protected:
  void SetUp() override {
    base_ = *schema_.CreateBaseclass("animals", "name");
    a_legs_ = *schema_.CreateAttribute(base_, "legs", Schema::kIntegers(),
                                       false);
    mid_ = *schema_.CreateSubclass("mammals", base_, Membership::kEnumerated);
    a_fur_ = *schema_.CreateAttribute(mid_, "fur", Schema::kBooleans(), false);
    leaf_ = *schema_.CreateSubclass("dogs", mid_, Membership::kEnumerated);
  }
  ClassId base_, mid_, leaf_;
  AttributeId a_legs_, a_fur_;
};

TEST_F(SchemaTreeTest, ForestNavigation) {
  EXPECT_EQ(schema_.RootOf(leaf_), base_);
  EXPECT_EQ(schema_.AncestorsOf(leaf_), (std::vector<ClassId>{mid_, base_}));
  EXPECT_EQ(schema_.ChildrenOf(base_), (std::vector<ClassId>{mid_}));
  EXPECT_EQ(schema_.SelfAndDescendants(base_),
            (std::vector<ClassId>{base_, mid_, leaf_}));
  EXPECT_TRUE(schema_.IsAncestorOrSelf(base_, leaf_));
  EXPECT_TRUE(schema_.IsAncestorOrSelf(leaf_, leaf_));
  EXPECT_FALSE(schema_.IsAncestorOrSelf(leaf_, base_));
}

TEST_F(SchemaTreeTest, InheritedAttributesRootFirst) {
  // "Members of a class inherit the attributes from all of their
  // superclasses"; the display order is root-most ancestor first.
  std::vector<AttributeId> attrs = schema_.AllAttributesOf(leaf_);
  ASSERT_EQ(attrs.size(), 3u);  // name, legs, fur
  EXPECT_TRUE(schema_.GetAttribute(attrs[0]).naming);
  EXPECT_EQ(schema_.GetAttribute(attrs[1]).name, "legs");
  EXPECT_EQ(schema_.GetAttribute(attrs[2]).name, "fur");
  EXPECT_TRUE(schema_.AttributeVisibleOn(leaf_, a_legs_));
  EXPECT_FALSE(schema_.AttributeVisibleOn(base_, a_fur_));
}

TEST_F(SchemaTreeTest, AttributeNameCollisions) {
  // Visible on owner already.
  EXPECT_TRUE(schema_.CreateAttribute(leaf_, "legs", Schema::kIntegers(),
                                      false)
                  .status()
                  .IsAlreadyExists());
  // Would shadow a descendant's attribute.
  EXPECT_TRUE(schema_.CreateAttribute(base_, "fur", Schema::kBooleans(),
                                      false)
                  .status()
                  .IsAlreadyExists());
  // Sibling subtrees do not collide.
  ClassId cats =
      *schema_.CreateSubclass("cats", mid_, Membership::kEnumerated);
  EXPECT_TRUE(
      schema_.CreateAttribute(cats, "whiskers", Schema::kIntegers(), false)
          .ok());
  EXPECT_TRUE(
      schema_.CreateAttribute(leaf_, "whiskers", Schema::kIntegers(), false)
          .ok());
}

TEST_F(SchemaTreeTest, FindAttributeResolvesInheritance) {
  Result<AttributeId> legs = schema_.FindAttribute(leaf_, "legs");
  ASSERT_TRUE(legs.ok());
  EXPECT_EQ(*legs, a_legs_);
  EXPECT_TRUE(schema_.FindAttribute(base_, "fur").status().IsNotFound());
}

TEST_F(SchemaTreeTest, DeleteClassPreconditions) {
  // "we may delete a class, provided it is not the parent of some other
  // class or the value class of some attribute".
  EXPECT_TRUE(schema_.DeleteClass(mid_).IsConsistency());
  ASSERT_TRUE(schema_.DeleteClass(leaf_).ok());
  // Now mid_ is a leaf but is it a value class? No. But give it a grouping.
  GroupingId g = *schema_.CreateGrouping("by_fur", mid_, a_fur_);
  EXPECT_TRUE(schema_.DeleteClass(mid_).IsConsistency());
  ASSERT_TRUE(schema_.DeleteGrouping(g).ok());
  ASSERT_TRUE(schema_.DeleteClass(mid_).ok());
  EXPECT_FALSE(schema_.HasClass(mid_));
  EXPECT_FALSE(schema_.HasAttribute(a_fur_));  // owned attributes die too
  EXPECT_TRUE(schema_.Validate().ok());
}

TEST_F(SchemaTreeTest, ValueClassBlocksDeletion) {
  ClassId owners = *schema_.CreateBaseclass("owners", "name");
  ASSERT_TRUE(schema_.CreateAttribute(owners, "pet", leaf_, false).ok());
  ASSERT_TRUE(schema_.DeleteClass(leaf_).IsConsistency());
  EXPECT_TRUE(schema_.IsValueClassOfSomeAttribute(leaf_));
}

TEST_F(SchemaTreeTest, PredefinedClassesArePermanent) {
  EXPECT_TRUE(
      schema_.DeleteClass(Schema::kIntegers()).IsConsistency());
}

TEST_F(SchemaTreeTest, RenameClass) {
  ASSERT_TRUE(schema_.RenameClass(leaf_, "hounds").ok());
  EXPECT_EQ(schema_.GetClass(leaf_).name, "hounds");
  EXPECT_TRUE(schema_.FindClass("dogs").status().IsNotFound());
  EXPECT_EQ(*schema_.FindClass("hounds"), leaf_);
  // Renaming onto an existing name fails.
  EXPECT_TRUE(schema_.RenameClass(leaf_, "animals").IsAlreadyExists());
  // Renaming to itself is a no-op.
  EXPECT_TRUE(schema_.RenameClass(leaf_, "hounds").ok());
}

TEST_F(SchemaTreeTest, RenameAttributeChecksCollisions) {
  ASSERT_TRUE(schema_.RenameAttribute(a_fur_, "coat").ok());
  EXPECT_EQ(schema_.GetAttribute(a_fur_).name, "coat");
  EXPECT_TRUE(schema_.RenameAttribute(a_fur_, "legs").IsAlreadyExists());
}

TEST_F(SchemaTreeTest, DeleteAttributePreconditions) {
  GroupingId g = *schema_.CreateGrouping("by_legs", base_, a_legs_);
  EXPECT_TRUE(schema_.DeleteAttribute(a_legs_).IsConsistency());
  ASSERT_TRUE(schema_.DeleteGrouping(g).ok());
  ASSERT_TRUE(schema_.DeleteAttribute(a_legs_).ok());
  EXPECT_FALSE(schema_.HasAttribute(a_legs_));
  // Naming attributes cannot be deleted.
  AttributeId naming = schema_.GetClass(base_).own_attributes[0];
  EXPECT_TRUE(schema_.DeleteAttribute(naming).IsConsistency());
}

TEST_F(SchemaTreeTest, GroupingRules) {
  // A grouping must be on an attribute visible on its parent.
  EXPECT_TRUE(schema_.CreateGrouping("bad", base_, a_fur_)
                  .status()
                  .IsConsistency());
  GroupingId g = *schema_.CreateGrouping("by_fur", mid_, a_fur_);
  EXPECT_EQ(schema_.GetGrouping(g).parent, mid_);
  EXPECT_EQ(schema_.GroupingsOf(mid_), (std::vector<GroupingId>{g}));
  EXPECT_TRUE(schema_.Validate().ok());
  // Inherited attributes are fine.
  EXPECT_TRUE(schema_.CreateGrouping("leaf_by_legs", leaf_, a_legs_).ok());
}

TEST_F(SchemaTreeTest, AttributeIntoGrouping) {
  GroupingId g = *schema_.CreateGrouping("by_legs", base_, a_legs_);
  ClassId zoos = *schema_.CreateBaseclass("zoos", "name");
  Result<AttributeId> attr =
      schema_.CreateAttributeIntoGrouping(zoos, "exhibits", g);
  ASSERT_TRUE(attr.ok());
  const AttributeDef& def = schema_.GetAttribute(*attr);
  // "This attribute B is treated as B: S ++> parent(G)."
  EXPECT_TRUE(def.multivalued);
  EXPECT_EQ(def.value_class, base_);
  EXPECT_EQ(def.value_grouping, g);
  // The grouping now cannot be deleted.
  EXPECT_TRUE(schema_.DeleteGrouping(g).IsConsistency());
}

TEST_F(SchemaTreeTest, SemanticNetworkArcs) {
  // "The outgoing arcs of a class node correspond to its attributes,
  // including those that are inherited."
  std::vector<Schema::NetworkArc> arcs = schema_.OutgoingArcs(leaf_);
  ASSERT_EQ(arcs.size(), 3u);
  EXPECT_TRUE(arcs[1].inherited);  // legs, owned by animals
  // fur is owned by mammals, so it too arrives at dogs by inheritance.
  EXPECT_EQ(schema_.GetAttribute(arcs[2].attribute).name, "fur");
  EXPECT_TRUE(arcs[2].inherited);

  std::vector<Schema::NetworkArc> incoming =
      schema_.IncomingArcs(SchemaNode::Class(Schema::kIntegers()));
  bool found_legs = false;
  for (const auto& arc : incoming) {
    if (arc.attribute == a_legs_) found_legs = true;
  }
  EXPECT_TRUE(found_legs);
}

TEST_F(SchemaTreeTest, SetMembership) {
  EXPECT_TRUE(schema_.SetMembership(leaf_, Membership::kDerived).ok());
  EXPECT_EQ(schema_.GetClass(leaf_).membership, Membership::kDerived);
  EXPECT_TRUE(
      schema_.SetMembership(base_, Membership::kDerived).IsConsistency());
  EXPECT_TRUE(
      schema_.SetMembership(leaf_, Membership::kBase).IsConsistency());
}

TEST_F(SchemaTreeTest, SetAttributeOrigin) {
  EXPECT_TRUE(schema_.SetAttributeOrigin(a_fur_, AttrOrigin::kDerived).ok());
  EXPECT_EQ(schema_.GetAttribute(a_fur_).origin, AttrOrigin::kDerived);
  AttributeId naming = schema_.GetClass(base_).own_attributes[0];
  EXPECT_TRUE(schema_.SetAttributeOrigin(naming, AttrOrigin::kDerived)
                  .IsConsistency());
}

TEST_F(SchemaTreeTest, FillPatternsUnique) {
  std::set<int> patterns;
  for (ClassId c : schema_.AllClasses()) {
    EXPECT_TRUE(patterns.insert(schema_.GetClass(c).fill_pattern).second);
  }
  GroupingId g = *schema_.CreateGrouping("by_legs", base_, a_legs_);
  EXPECT_TRUE(patterns.insert(schema_.GetGrouping(g).fill_pattern).second);
}

TEST_F(SchemaTreeTest, SubclassOfGroupingImpossible) {
  // Groupings "have no attributes, subclasses or groupings"; the API keeps
  // them out of the class namespace entirely.
  EXPECT_TRUE(schema_.CreateSubclass("x", ClassId(999),
                                     Membership::kEnumerated)
                  .status()
                  .IsNotFound());
}

TEST_F(SchemaTreeTest, MultipleParentsDisabledByDefault) {
  ClassId other = *schema_.CreateSubclass("pets", base_,
                                          Membership::kEnumerated);
  EXPECT_TRUE(schema_.AddParent(leaf_, other).IsUnimplemented());
}

}  // namespace
}  // namespace isis::sdm
