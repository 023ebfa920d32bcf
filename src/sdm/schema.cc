#include "sdm/schema.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>
#include <unordered_map>

#include "common/strings.h"

namespace isis::sdm {

const char* MembershipToString(Membership m) {
  switch (m) {
    case Membership::kBase:
      return "base";
    case Membership::kEnumerated:
      return "enumerated";
    case Membership::kDerived:
      return "derived";
  }
  return "?";
}

Schema::Schema() : Schema(Options{}) {}

Schema::Schema(Options options) : options_(options) {
  // The four predefined baseclasses, in the fixed id order of the static
  // accessors. Their naming attribute renders an entity's value.
  struct Predef {
    const char* name;
    BaseKind kind;
  };
  static const Predef kPredefs[] = {
      {"INTEGER", BaseKind::kInteger},
      {"REAL", BaseKind::kReal},
      {"YES/NO", BaseKind::kBoolean},
      {"STRING", BaseKind::kString},
  };
  // All four classes first (the naming attributes reference STRING, which
  // is created last), then the naming attributes in the same id order.
  for (const Predef& p : kPredefs) {
    // Constructor-time creation of fixed names cannot fail.
    Result<ClassId> made =
        CreateClassNode(p.name, {}, Membership::kBase, p.kind);
    if (!made.ok()) std::abort();
  }
  for (const Predef& p : kPredefs) {
    Result<ClassId> id = FindClass(p.name);
    if (!id.ok()) std::abort();
    Result<AttributeId> naming =
        CreateAttribute(*id, "name", kStrings(), /*multivalued=*/false);
    if (!naming.ok()) std::abort();
    attributes_[naming->value()].naming = true;
  }
}

ClassId Schema::PredefinedClassFor(BaseKind kind) {
  switch (kind) {
    case BaseKind::kInteger:
      return kIntegers();
    case BaseKind::kReal:
      return kReals();
    case BaseKind::kBoolean:
      return kBooleans();
    case BaseKind::kString:
      return kStrings();
    case BaseKind::kNone:
      break;
  }
  return ClassId();
}

Status Schema::CheckNameFree(const std::string& name) const {
  if (!IsValidName(name)) {
    return Status::InvalidArgument("invalid name: '" + name + "'");
  }
  // Classes and groupings share one namespace: both appear as nodes of the
  // inheritance forest and the semantic network.
  if (class_by_name_.count(name) > 0 || grouping_by_name_.count(name) > 0) {
    return Status::AlreadyExists("schema object named '" + name +
                                 "' already exists");
  }
  return Status::OK();
}

Result<ClassId> Schema::CreateClassNode(const std::string& name,
                                        std::vector<ClassId> parents,
                                        Membership membership,
                                        BaseKind base_kind) {
  ISIS_RETURN_NOT_OK(CheckNameFree(name));
  ClassDef def;
  def.id = ClassId(static_cast<std::int64_t>(classes_.size()));
  def.name = name;
  def.parents = std::move(parents);
  def.membership = membership;
  def.base_kind = base_kind;
  def.fill_pattern = NextFillPattern();
  class_by_name_[name] = def.id;
  classes_.push_back(std::move(def));
  class_live_.push_back(true);
  return classes_.back().id;
}

Result<ClassId> Schema::CreateBaseclass(const std::string& name,
                                        const std::string& naming_attribute) {
  ++generation_;
  // Every check runs before the class node takes an id and a fill pattern,
  // so a rejected call leaves no trace, not even a gap in either sequence.
  // A new baseclass has no attributes and no descendants, so a valid name
  // is all its naming attribute needs.
  ISIS_RETURN_NOT_OK(CheckNameFree(name));
  if (!IsValidName(naming_attribute)) {
    return Status::InvalidArgument("invalid attribute name: '" +
                                   naming_attribute + "'");
  }
  ISIS_ASSIGN_OR_RETURN(
      ClassId id,
      CreateClassNode(name, {}, Membership::kBase, BaseKind::kNone));
  ISIS_ASSIGN_OR_RETURN(AttributeId naming,
                        CreateAttribute(id, naming_attribute, kStrings(),
                                        /*multivalued=*/false));
  attributes_[naming.value()].naming = true;
  return id;
}

Result<ClassId> Schema::CreateSubclass(const std::string& name, ClassId parent,
                                       Membership membership) {
  ++generation_;
  if (!HasClass(parent)) {
    return Status::NotFound("parent class does not exist");
  }
  if (membership == Membership::kBase) {
    return Status::InvalidArgument("a subclass cannot have base membership");
  }
  return CreateClassNode(name, {parent}, membership, BaseKind::kNone);
}

Status Schema::AddParent(ClassId cls, ClassId extra_parent) {
  ++generation_;
  if (!options_.allow_multiple_parents) {
    return Status::Unimplemented(
        "multiple-parent inheritance is disabled (Schema::Options)");
  }
  if (!HasClass(cls) || !HasClass(extra_parent)) {
    return Status::NotFound("class does not exist");
  }
  if (GetClass(cls).is_base()) {
    return Status::Consistency("a baseclass cannot acquire a parent");
  }
  if (IsAncestorOrSelf(cls, extra_parent)) {
    return Status::Consistency("adding this parent would create a cycle");
  }
  if (RootOf(extra_parent) != RootOf(cls)) {
    return Status::Consistency(
        "all parents of a class must share one baseclass root (entities live "
        "in a single baseclass)");
  }
  const std::vector<ClassId>& parents = classes_[cls.value()].parents;
  if (std::find(parents.begin(), parents.end(), extra_parent) !=
      parents.end()) {
    return Status::AlreadyExists("already a parent");
  }
  // Inherited attribute names must stay unambiguous across the descendants
  // of cls. The same attribute arriving via two paths through a common
  // ancestor (the diamond) is not a conflict — only two *distinct*
  // attributes sharing a name are.
  std::unordered_map<std::string, AttributeId> incoming;
  for (AttributeId a : AllAttributesOf(extra_parent)) {
    incoming.emplace(GetAttribute(a).name, a);
  }
  for (ClassId d : SelfAndDescendants(cls)) {
    for (AttributeId a : AllAttributesOf(d)) {
      auto it = incoming.find(GetAttribute(a).name);
      if (it != incoming.end() && it->second != a) {
        return Status::Consistency(
            "attribute name conflict under multiple inheritance: '" +
            GetAttribute(a).name + "'");
      }
    }
  }
  classes_[cls.value()].parents.push_back(extra_parent);
  return Status::OK();
}

Status Schema::DeleteClass(ClassId cls) {
  ++generation_;
  if (!HasClass(cls)) return Status::NotFound("class does not exist");
  if (cls.value() < 4) {
    return Status::Consistency("predefined baseclasses are permanent");
  }
  if (!ChildrenOf(cls).empty()) {
    return Status::Consistency(
        "cannot delete a class that is the parent of some other class");
  }
  if (IsValueClassOfSomeAttribute(cls)) {
    return Status::Consistency(
        "cannot delete a class that is the value class of some attribute");
  }
  if (!GroupingsOf(cls).empty()) {
    return Status::Consistency(
        "cannot delete a class that has groupings; delete them first");
  }
  // Drop the class's own attributes with it.
  for (AttributeId a : classes_[cls.value()].own_attributes) {
    attribute_live_[a.value()] = false;
  }
  class_by_name_.erase(classes_[cls.value()].name);
  class_live_[cls.value()] = false;
  return Status::OK();
}

Status Schema::RenameClass(ClassId cls, const std::string& new_name) {
  ++generation_;
  if (!HasClass(cls)) return Status::NotFound("class does not exist");
  if (classes_[cls.value()].name == new_name) return Status::OK();
  ISIS_RETURN_NOT_OK(CheckNameFree(new_name));
  class_by_name_.erase(classes_[cls.value()].name);
  classes_[cls.value()].name = new_name;
  class_by_name_[new_name] = cls;
  return Status::OK();
}

Status Schema::SetMembership(ClassId cls, Membership membership) {
  ++generation_;
  if (!HasClass(cls)) return Status::NotFound("class does not exist");
  if (GetClass(cls).is_base() || membership == Membership::kBase) {
    return Status::Consistency("baseclass membership kind is fixed");
  }
  classes_[cls.value()].membership = membership;
  return Status::OK();
}

Status Schema::SetAttributeOrigin(AttributeId attr, AttrOrigin origin) {
  ++generation_;
  if (!HasAttribute(attr)) return Status::NotFound("attribute does not exist");
  if (attributes_[attr.value()].naming && origin == AttrOrigin::kDerived) {
    return Status::Consistency("naming attributes cannot be derived");
  }
  attributes_[attr.value()].origin = origin;
  return Status::OK();
}

Result<ClassId> Schema::FindClass(const std::string& name) const {
  auto it = class_by_name_.find(name);
  if (it == class_by_name_.end()) {
    return Status::NotFound("no class named '" + name + "'");
  }
  return it->second;
}

bool Schema::HasClass(ClassId id) const {
  return id.valid() && static_cast<size_t>(id.value()) < classes_.size() &&
         class_live_[id.value()];
}

const ClassDef& Schema::GetClass(ClassId id) const {
  return classes_[id.value()];
}

std::vector<ClassId> Schema::AllClasses() const {
  std::vector<ClassId> out;
  for (const ClassDef& c : classes_) {
    if (class_live_[c.id.value()]) out.push_back(c.id);
  }
  return out;
}

Status Schema::CheckAttributeNameFree(ClassId owner,
                                      const std::string& name) const {
  if (!IsValidName(name)) {
    return Status::InvalidArgument("invalid attribute name: '" + name + "'");
  }
  // Visible on owner already (own or inherited)?
  for (AttributeId a : AllAttributesOf(owner)) {
    if (GetAttribute(a).name == name) {
      return Status::AlreadyExists("attribute '" + name +
                                   "' already visible on class '" +
                                   GetClass(owner).name + "'");
    }
  }
  // Would shadow a name some descendant already uses?
  for (ClassId d : SelfAndDescendants(owner)) {
    if (d == owner) continue;
    for (AttributeId a : GetClass(d).own_attributes) {
      if (attribute_live_[a.value()] && GetAttribute(a).name == name) {
        return Status::AlreadyExists("attribute '" + name +
                                     "' already defined on descendant '" +
                                     GetClass(d).name + "'");
      }
    }
  }
  return Status::OK();
}

Result<AttributeId> Schema::CreateAttribute(ClassId owner,
                                            const std::string& name,
                                            ClassId value_class,
                                            bool multivalued,
                                            AttrOrigin origin) {
  ++generation_;
  if (!HasClass(owner)) return Status::NotFound("owner class does not exist");
  if (!HasClass(value_class)) {
    return Status::NotFound("value class does not exist");
  }
  ISIS_RETURN_NOT_OK(CheckAttributeNameFree(owner, name));
  AttributeDef def;
  def.id = AttributeId(static_cast<std::int64_t>(attributes_.size()));
  def.name = name;
  def.owner = owner;
  def.value_class = value_class;
  def.multivalued = multivalued;
  def.origin = origin;
  classes_[owner.value()].own_attributes.push_back(def.id);
  attributes_.push_back(std::move(def));
  attribute_live_.push_back(true);
  return attributes_.back().id;
}

Result<AttributeId> Schema::CreateAttributeIntoGrouping(
    ClassId owner, const std::string& name, GroupingId grouping) {
  ++generation_;
  if (!HasGrouping(grouping)) {
    return Status::NotFound("grouping does not exist");
  }
  const GroupingDef& g = GetGrouping(grouping);
  // "This attribute B is treated as B: S ++> parent(G)."
  ISIS_ASSIGN_OR_RETURN(
      AttributeId id,
      CreateAttribute(owner, name, g.parent, /*multivalued=*/true));
  attributes_[id.value()].value_grouping = grouping;
  return id;
}

Status Schema::SetValueClass(AttributeId attr, ClassId value_class) {
  ++generation_;
  if (!HasAttribute(attr)) return Status::NotFound("attribute does not exist");
  if (!HasClass(value_class)) {
    return Status::NotFound("value class does not exist");
  }
  if (attributes_[attr.value()].naming) {
    return Status::Consistency("naming attributes always map to STRING");
  }
  attributes_[attr.value()].value_class = value_class;
  attributes_[attr.value()].value_grouping = GroupingId();
  return Status::OK();
}

Status Schema::DeleteAttribute(AttributeId attr) {
  ++generation_;
  if (!HasAttribute(attr)) return Status::NotFound("attribute does not exist");
  const AttributeDef& def = GetAttribute(attr);
  if (def.naming) {
    return Status::Consistency("the naming attribute cannot be deleted");
  }
  for (const GroupingDef& g : groupings_) {
    if (grouping_live_[g.id.value()] && g.on_attribute == attr) {
      return Status::Consistency("grouping '" + g.name +
                                 "' is defined on this attribute");
    }
  }
  std::vector<AttributeId>& own = classes_[def.owner.value()].own_attributes;
  own.erase(std::remove(own.begin(), own.end(), attr), own.end());
  attribute_live_[attr.value()] = false;
  return Status::OK();
}

Status Schema::RenameAttribute(AttributeId attr, const std::string& new_name) {
  ++generation_;
  if (!HasAttribute(attr)) return Status::NotFound("attribute does not exist");
  if (attributes_[attr.value()].name == new_name) return Status::OK();
  ISIS_RETURN_NOT_OK(
      CheckAttributeNameFree(attributes_[attr.value()].owner, new_name));
  attributes_[attr.value()].name = new_name;
  return Status::OK();
}

Result<AttributeId> Schema::FindAttribute(ClassId cls,
                                          const std::string& name) const {
  if (!HasClass(cls)) return Status::NotFound("class does not exist");
  for (AttributeId a : AllAttributesOf(cls)) {
    if (GetAttribute(a).name == name) return a;
  }
  return Status::NotFound("no attribute '" + name + "' on class '" +
                          GetClass(cls).name + "'");
}

bool Schema::HasAttribute(AttributeId id) const {
  return id.valid() && static_cast<size_t>(id.value()) < attributes_.size() &&
         attribute_live_[id.value()];
}

const AttributeDef& Schema::GetAttribute(AttributeId id) const {
  return attributes_[id.value()];
}

std::vector<AttributeId> Schema::AllAttributesOf(ClassId cls) const {
  // Root-most ancestor first, then down to cls's own attributes; in
  // multi-parent mode parents contribute in declaration order, deduplicated
  // (by a scan: a class sees few attributes, and a view reads them on every
  // render).
  const std::vector<ClassId> ancestors = AncestorsOf(cls);
  std::vector<AttributeId> out;
  auto add_own = [&](ClassId c) {
    for (AttributeId a : GetClass(c).own_attributes) {
      if (attribute_live_[a.value()] &&
          std::find(out.begin(), out.end(), a) == out.end()) {
        out.push_back(a);
      }
    }
  };
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    add_own(*it);
  }
  add_own(cls);
  return out;
}

bool Schema::AttributeVisibleOn(ClassId cls, AttributeId attr) const {
  if (!HasAttribute(attr)) return false;
  return IsAncestorOrSelf(GetAttribute(attr).owner, cls);
}

Result<GroupingId> Schema::CreateGrouping(const std::string& name,
                                          ClassId parent,
                                          AttributeId on_attribute) {
  ++generation_;
  if (!HasClass(parent)) return Status::NotFound("parent class does not exist");
  if (!HasAttribute(on_attribute)) {
    return Status::NotFound("attribute does not exist");
  }
  if (!AttributeVisibleOn(parent, on_attribute)) {
    return Status::Consistency("attribute '" +
                               GetAttribute(on_attribute).name +
                               "' is not visible on class '" +
                               GetClass(parent).name + "'");
  }
  ISIS_RETURN_NOT_OK(CheckNameFree(name));
  GroupingDef def;
  def.id = GroupingId(static_cast<std::int64_t>(groupings_.size()));
  def.name = name;
  def.parent = parent;
  def.on_attribute = on_attribute;
  def.fill_pattern = NextFillPattern();
  grouping_by_name_[name] = def.id;
  groupings_.push_back(std::move(def));
  grouping_live_.push_back(true);
  return groupings_.back().id;
}

Status Schema::DeleteGrouping(GroupingId g) {
  ++generation_;
  if (!HasGrouping(g)) return Status::NotFound("grouping does not exist");
  for (const AttributeDef& a : attributes_) {
    if (attribute_live_[a.id.value()] && a.value_grouping == g) {
      return Status::Consistency("attribute '" + a.name +
                                 "' ranges over this grouping");
    }
  }
  grouping_by_name_.erase(groupings_[g.value()].name);
  grouping_live_[g.value()] = false;
  return Status::OK();
}

Status Schema::RenameGrouping(GroupingId g, const std::string& new_name) {
  ++generation_;
  if (!HasGrouping(g)) return Status::NotFound("grouping does not exist");
  if (groupings_[g.value()].name == new_name) return Status::OK();
  ISIS_RETURN_NOT_OK(CheckNameFree(new_name));
  grouping_by_name_.erase(groupings_[g.value()].name);
  groupings_[g.value()].name = new_name;
  grouping_by_name_[new_name] = g;
  return Status::OK();
}

Result<GroupingId> Schema::FindGrouping(const std::string& name) const {
  auto it = grouping_by_name_.find(name);
  if (it == grouping_by_name_.end()) {
    return Status::NotFound("no grouping named '" + name + "'");
  }
  return it->second;
}

bool Schema::HasGrouping(GroupingId id) const {
  return id.valid() && static_cast<size_t>(id.value()) < groupings_.size() &&
         grouping_live_[id.value()];
}

const GroupingDef& Schema::GetGrouping(GroupingId id) const {
  return groupings_[id.value()];
}

std::vector<GroupingId> Schema::AllGroupings() const {
  std::vector<GroupingId> out;
  for (const GroupingDef& g : groupings_) {
    if (grouping_live_[g.id.value()]) out.push_back(g.id);
  }
  return out;
}

std::vector<GroupingId> Schema::GroupingsOf(ClassId cls) const {
  std::vector<GroupingId> out;
  for (const GroupingDef& g : groupings_) {
    if (grouping_live_[g.id.value()] && g.parent == cls) out.push_back(g.id);
  }
  return out;
}

std::vector<ClassId> Schema::ChildrenOf(ClassId cls) const {
  std::vector<ClassId> out;
  for (const ClassDef& c : classes_) {
    if (!class_live_[c.id.value()]) continue;
    if (std::find(c.parents.begin(), c.parents.end(), cls) !=
        c.parents.end()) {
      out.push_back(c.id);
    }
  }
  return out;
}

std::vector<ClassId> Schema::AncestorsOf(ClassId cls) const {
  std::vector<ClassId> out;
  std::unordered_set<std::int64_t> seen;
  // Breadth-first over parents: nearest ancestors first, deterministic in
  // parent declaration order.
  std::vector<ClassId> frontier{cls};
  size_t i = 0;
  while (i < frontier.size()) {
    ClassId cur = frontier[i++];
    for (ClassId p : GetClass(cur).parents) {
      if (seen.insert(p.value()).second) {
        out.push_back(p);
        frontier.push_back(p);
      }
    }
  }
  return out;
}

std::vector<ClassId> Schema::SelfAndDescendants(ClassId cls) const {
  std::vector<ClassId> out;
  std::unordered_set<std::int64_t> seen;
  std::vector<ClassId> stack{cls};
  while (!stack.empty()) {
    ClassId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.value()).second) continue;
    out.push_back(cur);
    std::vector<ClassId> kids = ChildrenOf(cur);
    // Push in reverse so preorder visits children in creation order.
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

ClassId Schema::RootOf(ClassId cls) const {
  ClassId cur = cls;
  while (!GetClass(cur).parents.empty()) cur = GetClass(cur).parents[0];
  return cur;
}

bool Schema::IsAncestorOrSelf(ClassId maybe_ancestor, ClassId cls) const {
  if (maybe_ancestor == cls) return true;
  for (ClassId a : AncestorsOf(cls)) {
    if (a == maybe_ancestor) return true;
  }
  return false;
}

std::vector<ClassId> Schema::Baseclasses() const {
  std::vector<ClassId> out;
  for (const ClassDef& c : classes_) {
    if (class_live_[c.id.value()] && c.is_base()) out.push_back(c.id);
  }
  return out;
}

std::vector<Schema::NetworkArc> Schema::OutgoingArcs(ClassId cls) const {
  std::vector<NetworkArc> out;
  for (AttributeId a : AllAttributesOf(cls)) {
    const AttributeDef& def = GetAttribute(a);
    NetworkArc arc;
    arc.from = cls;
    arc.attribute = a;
    arc.to = def.value_grouping.valid()
                 ? SchemaNode::Grouping(def.value_grouping)
                 : SchemaNode::Class(def.value_class);
    arc.inherited = (def.owner != cls);
    out.push_back(arc);
  }
  return out;
}

std::vector<Schema::NetworkArc> Schema::IncomingArcs(SchemaNode node) const {
  std::vector<NetworkArc> out;
  for (const AttributeDef& a : attributes_) {
    if (!attribute_live_[a.id.value()]) continue;
    bool hits;
    if (node.kind == SchemaNode::Kind::kClass) {
      hits = !a.value_grouping.valid() && a.value_class == node.class_id;
    } else {
      hits = a.value_grouping == node.grouping_id;
    }
    if (hits) {
      out.push_back(NetworkArc{a.owner, a.id, node, /*inherited=*/false});
    }
  }
  return out;
}

bool Schema::IsValueClassOfSomeAttribute(ClassId cls) const {
  for (const AttributeDef& a : attributes_) {
    if (attribute_live_[a.id.value()] && a.value_class == cls) return true;
  }
  return false;
}

Status Schema::RestoreClass(const ClassDef& def) {
  ++generation_;
  if (!def.id.valid() ||
      static_cast<size_t>(def.id.value()) < classes_.size()) {
    return Status::ParseError("class id collides with an existing slot");
  }
  ISIS_RETURN_NOT_OK(CheckNameFree(def.name));
  while (classes_.size() < static_cast<size_t>(def.id.value())) {
    ClassDef dead;
    dead.id = ClassId(static_cast<std::int64_t>(classes_.size()));
    classes_.push_back(std::move(dead));
    class_live_.push_back(false);
  }
  class_by_name_[def.name] = def.id;
  next_fill_pattern_ = std::max(next_fill_pattern_, def.fill_pattern + 1);
  classes_.push_back(def);
  class_live_.push_back(true);
  return Status::OK();
}

Status Schema::RestoreAttribute(const AttributeDef& def) {
  ++generation_;
  if (!def.id.valid() ||
      static_cast<size_t>(def.id.value()) < attributes_.size()) {
    return Status::ParseError("attribute id collides with an existing slot");
  }
  while (attributes_.size() < static_cast<size_t>(def.id.value())) {
    AttributeDef dead;
    dead.id = AttributeId(static_cast<std::int64_t>(attributes_.size()));
    attributes_.push_back(std::move(dead));
    attribute_live_.push_back(false);
  }
  attributes_.push_back(def);
  attribute_live_.push_back(true);
  return Status::OK();
}

Status Schema::RestoreGrouping(const GroupingDef& def) {
  ++generation_;
  if (!def.id.valid() ||
      static_cast<size_t>(def.id.value()) < groupings_.size()) {
    return Status::ParseError("grouping id collides with an existing slot");
  }
  ISIS_RETURN_NOT_OK(CheckNameFree(def.name));
  while (groupings_.size() < static_cast<size_t>(def.id.value())) {
    GroupingDef dead;
    dead.id = GroupingId(static_cast<std::int64_t>(groupings_.size()));
    groupings_.push_back(std::move(dead));
    grouping_live_.push_back(false);
  }
  grouping_by_name_[def.name] = def.id;
  next_fill_pattern_ = std::max(next_fill_pattern_, def.fill_pattern + 1);
  groupings_.push_back(def);
  grouping_live_.push_back(true);
  return Status::OK();
}

Status Schema::Validate() const {
  std::unordered_set<int> patterns;
  for (const ClassDef& c : classes_) {
    if (!class_live_[c.id.value()]) continue;
    if (!patterns.insert(c.fill_pattern).second) {
      return Status::Internal("duplicate fill pattern on class " + c.name);
    }
    for (ClassId p : c.parents) {
      if (!HasClass(p)) {
        return Status::Internal("class " + c.name + " has a dead parent");
      }
      if (IsAncestorOrSelf(c.id, p)) {
        return Status::Internal("inheritance cycle at class " + c.name);
      }
    }
    if (!options_.allow_multiple_parents && c.parents.size() > 1) {
      return Status::Internal("multi-parent class in single-parent schema: " +
                              c.name);
    }
    if (c.is_base()) {
      // Every baseclass must lead with a naming attribute.
      if (c.own_attributes.empty() ||
          !GetAttribute(c.own_attributes[0]).naming) {
        return Status::Internal("baseclass " + c.name +
                                " lacks a naming attribute");
      }
    }
    for (AttributeId a : c.own_attributes) {
      if (!HasAttribute(a)) {
        return Status::Internal("class " + c.name + " lists a dead attribute");
      }
      const AttributeDef& def = GetAttribute(a);
      if (def.owner != c.id) {
        return Status::Internal("attribute owner mismatch on " + def.name);
      }
      if (!HasClass(def.value_class)) {
        return Status::Internal("attribute " + def.name +
                                " has a dead value class");
      }
      if (def.value_grouping.valid()) {
        if (!HasGrouping(def.value_grouping)) {
          return Status::Internal("attribute " + def.name +
                                  " ranges over a dead grouping");
        }
        if (GetGrouping(def.value_grouping).parent != def.value_class ||
            !def.multivalued) {
          return Status::Internal(
              "attribute-into-grouping must be multivalued into parent(G): " +
              def.name);
        }
      }
    }
  }
  for (const GroupingDef& g : groupings_) {
    if (!grouping_live_[g.id.value()]) continue;
    if (!patterns.insert(g.fill_pattern).second) {
      return Status::Internal("duplicate fill pattern on grouping " + g.name);
    }
    if (!HasClass(g.parent)) {
      return Status::Internal("grouping " + g.name + " has a dead parent");
    }
    if (!HasAttribute(g.on_attribute) ||
        !AttributeVisibleOn(g.parent, g.on_attribute)) {
      return Status::Internal("grouping " + g.name +
                              " is not on an attribute of its parent");
    }
  }
  return Status::OK();
}

}  // namespace isis::sdm
