/// \file schema.h
/// \brief The ISIS schema: classes, attributes, groupings, and the two graphs
/// the paper derives from them — the inheritance forest and the semantic
/// network (paper §2, "Schema").
///
/// A schema is purely syntactic: it records which classes exist, how they are
/// related by single-parent (optionally multiple-parent, the paper's §5
/// extension) inheritance, which attributes each class defines, and which
/// groupings exist. The data level lives in Database (database.h).

#ifndef ISIS_SDM_SCHEMA_H_
#define ISIS_SDM_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "sdm/value.h"

namespace isis::sdm {

/// How the membership of a class is determined (paper §2 and §4.1).
enum class Membership {
  kBase,        ///< A baseclass: owns its entities directly.
  kEnumerated,  ///< User-defined subclass, hand-picked members (e.g. soloists).
  kDerived,     ///< Predicate-defined subclass (e.g. quartets); the predicate
                ///< itself is owned by the query layer.
};

const char* MembershipToString(Membership m);

/// \brief One class node of the schema.
struct ClassDef {
  ClassId id;
  std::string name;
  /// Empty for baseclasses. Size > 1 only when the schema was created with
  /// Options::allow_multiple_parents (the paper's announced extension).
  std::vector<ClassId> parents;
  Membership membership = Membership::kEnumerated;
  /// Predefined-value kind; kNone for user baseclasses and all subclasses.
  BaseKind base_kind = BaseKind::kNone;
  /// Attributes defined *on this class* (inherited ones are resolved by
  /// Schema::AllAttributesOf). The first attribute of a baseclass is its
  /// naming attribute.
  std::vector<AttributeId> own_attributes;
  /// Index of the characteristic fill pattern "unique to the class,
  /// provided automatically by the system" (paper §3.2). Interpreted by gfx.
  int fill_pattern = 0;

  bool is_base() const { return parents.empty(); }
  /// Single-parent accessor; the first parent in multi-parent mode.
  ClassId parent() const { return parents.empty() ? ClassId() : parents[0]; }
};

/// How an attribute's values are derived (plain stored attribute vs the
/// paper's derived attributes, whose predicate the query layer owns).
enum class AttrOrigin {
  kStored,
  kDerived,
};

/// \brief One attribute — an arc of the semantic network.
struct AttributeDef {
  AttributeId id;
  std::string name;
  ClassId owner;        ///< The class the attribute is defined on.
  ClassId value_class;  ///< Values are drawn from this class…
  /// …or, when valid, from this grouping; the paper treats an attribute into
  /// a grouping G as multivalued into parent(G), and we record the grouping
  /// for display and consistency purposes.
  GroupingId value_grouping;
  bool multivalued = false;
  /// True for the distinguished naming attribute of a baseclass.
  bool naming = false;
  AttrOrigin origin = AttrOrigin::kStored;
};

/// \brief One grouping node. A grouping of class C on attribute A partitions
/// (or, for multivalued A, covers) C by common attribute value. Groupings
/// have no attributes, subclasses or groupings of their own (paper §2).
struct GroupingDef {
  GroupingId id;
  std::string name;
  ClassId parent;             ///< parent(G), the grouped class.
  AttributeId on_attribute;   ///< The attribute whose values index the blocks.
  int fill_pattern = 0;       ///< Shares the visual language of classes but is
                              ///< rendered with a white (set) border.
};

/// A node of either graph: a class or a grouping.
struct SchemaNode {
  enum class Kind { kClass, kGrouping } kind;
  ClassId class_id;        // valid iff kind == kClass
  GroupingId grouping_id;  // valid iff kind == kGrouping
  static SchemaNode Class(ClassId c) {
    return SchemaNode{Kind::kClass, c, GroupingId()};
  }
  static SchemaNode Grouping(GroupingId g) {
    return SchemaNode{Kind::kGrouping, ClassId(), g};
  }
};

/// \brief The schema catalog plus graph operations.
///
/// The four predefined baseclasses (INTEGER, REAL, YES/NO, STRING) are
/// created by the constructor with fixed ids and are always present
/// (paper §2: "We assume that the standard baseclasses … are always in our
/// schema").
class Schema {
 public:
  struct Options {
    /// Enables the paper's §5 extension: a subclass may have several parent
    /// classes and inherits the attributes of all of them. Disabled by
    /// default; with it off, the inheritance structure is a forest.
    bool allow_multiple_parents = false;
  };

  Schema();
  explicit Schema(Options options);

  const Options& options() const { return options_; }

  // --- Predefined baseclasses (stable ids). ---
  static ClassId kIntegers() { return ClassId(0); }
  static ClassId kReals() { return ClassId(1); }
  static ClassId kBooleans() { return ClassId(2); }
  static ClassId kStrings() { return ClassId(3); }
  /// The predefined class for a value kind.
  static ClassId PredefinedClassFor(BaseKind kind);

  // --- Class catalog. ---

  /// Creates a user baseclass with a naming attribute called
  /// `naming_attribute` (value class STRING). In the paper's example,
  /// musicians' naming attribute is stage_name.
  Result<ClassId> CreateBaseclass(const std::string& name,
                                  const std::string& naming_attribute);

  /// Creates a subclass of `parent` with the given membership kind.
  /// kEnumerated matches the paper's user-defined ("hand-picked") subclasses;
  /// kDerived marks predicate-defined ones. Grouping nodes cannot be parents.
  Result<ClassId> CreateSubclass(const std::string& name, ClassId parent,
                                 Membership membership);

  /// Adds `extra_parent` to an existing subclass (multiple-inheritance
  /// extension). Fails unless Options::allow_multiple_parents, or if the new
  /// edge would create a cycle, cross baseclass roots, or duplicate an
  /// inherited attribute name.
  Status AddParent(ClassId cls, ClassId extra_parent);

  /// Deletes a class. Preconditions from the paper: the class must not be
  /// the parent of some other class or the value class of some attribute;
  /// additionally it must not be the parent of a grouping, and predefined
  /// baseclasses are permanent.
  Status DeleteClass(ClassId cls);

  /// Renames a class (the UI's (re)name command).
  Status RenameClass(ClassId cls, const std::string& new_name);

  /// Switches a subclass between enumerated and derived membership (the UI's
  /// (re)define membership turns a hand-picked subclass into a derived one).
  /// Baseclasses cannot change kind.
  Status SetMembership(ClassId cls, Membership membership);

  /// Marks an attribute stored or derived (the query layer attaches the
  /// derivation itself).
  Status SetAttributeOrigin(AttributeId attr, AttrOrigin origin);

  Result<ClassId> FindClass(const std::string& name) const;
  bool HasClass(ClassId id) const;
  const ClassDef& GetClass(ClassId id) const;
  /// All class ids in creation order.
  std::vector<ClassId> AllClasses() const;

  // --- Attribute catalog. ---

  /// Defines an attribute on `owner` with values from `value_class`.
  /// The name must not collide with any attribute visible on `owner`
  /// (own or inherited) nor shadow one in a descendant.
  Result<AttributeId> CreateAttribute(ClassId owner, const std::string& name,
                                      ClassId value_class, bool multivalued,
                                      AttrOrigin origin = AttrOrigin::kStored);

  /// Defines an attribute whose range is a grouping G; per the paper this is
  /// "treated as B: S ++> parent(G)" — i.e. multivalued into parent(G).
  Result<AttributeId> CreateAttributeIntoGrouping(ClassId owner,
                                                  const std::string& name,
                                                  GroupingId grouping);

  /// Changes the value class of an attribute (the UI's (re)specify value
  /// class). The data layer must re-validate affected values.
  Status SetValueClass(AttributeId attr, ClassId value_class);

  /// Deletes an attribute. Fails if a grouping is defined on it or if it is
  /// a naming attribute.
  Status DeleteAttribute(AttributeId attr);

  Status RenameAttribute(AttributeId attr, const std::string& new_name);

  /// Finds an attribute visible on `cls` (own or inherited) by name.
  Result<AttributeId> FindAttribute(ClassId cls, const std::string& name) const;
  bool HasAttribute(AttributeId id) const;
  const AttributeDef& GetAttribute(AttributeId id) const;

  /// All attributes visible on `cls`: inherited first (root-most ancestor
  /// first, matching the paper's automatic addition of inherited attributes
  /// to a class's attribute section), then own.
  std::vector<AttributeId> AllAttributesOf(ClassId cls) const;

  /// True if `attr` is visible on `cls` (defined on it or an ancestor).
  bool AttributeVisibleOn(ClassId cls, AttributeId attr) const;

  // --- Grouping catalog. ---

  /// Creates grouping `name` of class `parent` on attribute `on_attribute`
  /// (which must be visible on `parent`). The paper's restriction: a grouping
  /// is only allowed on common values of an attribute.
  Result<GroupingId> CreateGrouping(const std::string& name, ClassId parent,
                                    AttributeId on_attribute);

  /// Deletes a grouping. Fails if some attribute ranges over it.
  Status DeleteGrouping(GroupingId g);

  Status RenameGrouping(GroupingId g, const std::string& new_name);

  Result<GroupingId> FindGrouping(const std::string& name) const;
  bool HasGrouping(GroupingId id) const;
  const GroupingDef& GetGrouping(GroupingId id) const;
  std::vector<GroupingId> AllGroupings() const;
  /// Groupings whose parent is `cls`.
  std::vector<GroupingId> GroupingsOf(ClassId cls) const;

  // --- Inheritance forest (paper §2). ---

  /// Direct subclasses of `cls`, in creation order.
  std::vector<ClassId> ChildrenOf(ClassId cls) const;
  /// Ancestor chain from `cls` (exclusive) to its root, parent-first.
  /// In multi-parent mode this is a deduplicated topological order.
  std::vector<ClassId> AncestorsOf(ClassId cls) const;
  /// `cls` plus all transitive subclasses (preorder).
  std::vector<ClassId> SelfAndDescendants(ClassId cls) const;
  /// The root baseclass of `cls`'s tree.
  ClassId RootOf(ClassId cls) const;
  /// True if `maybe_ancestor` is `cls` or one of its ancestors. Membership in
  /// `cls` implies membership in every class this returns true for.
  bool IsAncestorOrSelf(ClassId maybe_ancestor, ClassId cls) const;
  /// Root baseclasses in creation order (the roots of the forest).
  std::vector<ClassId> Baseclasses() const;

  // --- Semantic network (paper §2). ---

  /// One arc of the semantic network: class --attr--> value node.
  struct NetworkArc {
    ClassId from;
    AttributeId attribute;
    SchemaNode to;   ///< Value class or grouping node.
    bool inherited;  ///< True when `attribute` is inherited by `from`.
  };

  /// Outgoing arcs of a class node, inherited attributes included — "the
  /// outgoing arcs of a class node correspond to its attributes, including
  /// those that are inherited". Grouping nodes have no outgoing arcs.
  std::vector<NetworkArc> OutgoingArcs(ClassId cls) const;

  /// Arcs arriving at a class or grouping node (attributes whose value class
  /// or value grouping is the node). Used by the semantic network view and by
  /// the class-deletion precondition.
  std::vector<NetworkArc> IncomingArcs(SchemaNode node) const;

  /// True if some attribute uses `cls` as its value class.
  bool IsValueClassOfSomeAttribute(ClassId cls) const;

  /// Structural self-check of the schema graphs: parent links acyclic, arcs
  /// reference live nodes, naming attributes in place, fill patterns unique.
  Status Validate() const;

  /// Bumped on entry to every mutator, the restore API included, whether
  /// or not the call succeeds: an unchanged generation means an unchanged
  /// catalog. Many schema edits (creates, renames) bypass the database's
  /// data version, so this is how a caller sees them in O(1) (see
  /// query::Workspace::save_version).
  std::uint64_t generation() const { return generation_; }

  // --- Restore API (store/ deserialization only). ---
  //
  // Inserts catalog rows at their original ids, filling id gaps left by
  // deletions with dead slots. Referential integrity is NOT checked here;
  // the loader must call Validate() once everything is restored. The four
  // predefined classes (ids 0-3) and their naming attributes (ids 0-3) are
  // created by the constructor and must not be restored.

  Status RestoreClass(const ClassDef& def);
  Status RestoreAttribute(const AttributeDef& def);
  Status RestoreGrouping(const GroupingDef& def);

 private:
  Result<ClassId> CreateClassNode(const std::string& name,
                                  std::vector<ClassId> parents,
                                  Membership membership, BaseKind base_kind);
  Status CheckNameFree(const std::string& name) const;
  /// Name collision check for a new/renamed attribute on `owner`: looks up
  /// and down the inheritance structure.
  Status CheckAttributeNameFree(ClassId owner, const std::string& name) const;
  int NextFillPattern() { return next_fill_pattern_++; }

  Options options_;
  std::vector<ClassDef> classes_;        // index == id
  std::vector<AttributeDef> attributes_;  // index == id
  std::vector<GroupingDef> groupings_;   // index == id
  std::vector<bool> class_live_;
  std::vector<bool> attribute_live_;
  std::vector<bool> grouping_live_;
  std::unordered_map<std::string, ClassId> class_by_name_;
  std::unordered_map<std::string, GroupingId> grouping_by_name_;
  int next_fill_pattern_ = 0;
  std::uint64_t generation_ = 0;  ///< See generation().
};

}  // namespace isis::sdm

#endif  // ISIS_SDM_SCHEMA_H_
