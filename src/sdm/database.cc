#include "sdm/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace isis::sdm {

const EntitySet Database::kEmptySet;

namespace {
/// Per-thread count of reads degraded by frozen interning (see the
/// "Concurrency" section of database.h). Thread-local so concurrent
/// shared-phase readers can each detect their own misses race-free.
thread_local std::int64_t tls_intern_misses = 0;

/// Source of instance_id(); starts at 1 so 0 means "no database".
std::atomic<std::uint64_t> next_db_instance{1};

/// One change of class or attribute `id` (see ReadSetVersion).
void BumpChanges(std::vector<std::uint64_t>* counts, std::int64_t id) {
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= counts->size()) counts->resize(slot + 1);
  ++(*counts)[slot];
}

/// The owners that are also members of `parent`: a value-index posting
/// list cut down to one grouping's parent class.
EntitySet RestrictTo(const EntitySet& owners, const EntitySet& parent) {
  EntitySet out;
  for (EntityId x : owners) {
    if (parent.count(x) > 0) out.insert(out.end(), x);
  }
  return out;
}
}  // namespace

std::int64_t Database::InternMissCount() { return tls_intern_misses; }

Database::Database() : Database(Options{}) {}

Database::Database(Options options)
    : schema_(options.schema),
      options_(options),
      instance_id_(next_db_instance.fetch_add(1, std::memory_order_relaxed)) {
  // Slot 0 is the null entity: "a member of every class", never listed.
  Entity null_entity;
  null_entity.id = kNullEntity;
  null_entity.name = "(null)";
  entities_.push_back(std::move(null_entity));
  entity_live_.push_back(true);
}

// --- Schema mutations. ---

Result<ClassId> Database::CreateBaseclass(const std::string& name,
                                          const std::string& naming_attribute) {
  ISIS_ASSIGN_OR_RETURN(ClassId id,
                        schema_.CreateBaseclass(name, naming_attribute));
  members_[id.value()];  // ensure an (empty) member set exists
  return id;
}

Result<ClassId> Database::CreateSubclass(const std::string& name,
                                         ClassId parent,
                                         Membership membership) {
  ISIS_ASSIGN_OR_RETURN(ClassId id,
                        schema_.CreateSubclass(name, parent, membership));
  members_[id.value()];
  return id;
}

Status Database::AddParent(ClassId cls, ClassId extra_parent) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(schema_.AddParent(cls, extra_parent));
  NotifySchemaChange();
  // Subset consistency: members of cls must belong to the new parent too.
  for (EntityId e : Members(cls)) {
    ISIS_RETURN_NOT_OK(AddToClassInternal(e, extra_parent,
                                          /*allow_derived=*/true));
  }
  return Status::OK();
}

Status Database::DeleteClass(ClassId cls) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(schema_.DeleteClass(cls));
  members_.erase(cls.value());
  NotifySchemaChange();
  return Status::OK();
}

Status Database::RenameClass(ClassId cls, const std::string& new_name) {
  return schema_.RenameClass(cls, new_name);
}

Status Database::SetMembership(ClassId cls, Membership membership) {
  MutationScope scope(this);
  bool changed = schema_.HasClass(cls) &&
                 schema_.GetClass(cls).membership != membership;
  ISIS_RETURN_NOT_OK(schema_.SetMembership(cls, membership));
  if (changed) NotifySchemaChange();
  return Status::OK();
}

Status Database::SetAttributeOrigin(AttributeId attr, AttrOrigin origin) {
  return schema_.SetAttributeOrigin(attr, origin);
}

Result<AttributeId> Database::CreateAttribute(ClassId owner,
                                              const std::string& name,
                                              ClassId value_class,
                                              bool multivalued,
                                              AttrOrigin origin) {
  return schema_.CreateAttribute(owner, name, value_class, multivalued,
                                 origin);
}

Result<AttributeId> Database::CreateAttributeIntoGrouping(
    ClassId owner, const std::string& name, GroupingId grouping) {
  return schema_.CreateAttributeIntoGrouping(owner, name, grouping);
}

Status Database::SetValueClass(AttributeId attr, ClassId value_class) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(schema_.SetValueClass(attr, value_class));
  // Values outside the new value class reset to the defaults.
  const AttributeDef& def = schema_.GetAttribute(attr);
  if (!def.multivalued) {
    auto it = single_.find(attr.value());
    if (it != single_.end()) {
      std::vector<EntityId> reset;
      for (const auto& [e, v] : it->second) {
        if (v != kNullEntity && !IsMember(v, value_class)) reset.push_back(e);
      }
      for (EntityId e : reset) it->second.erase(e);
    }
  } else {
    auto it = multi_.find(attr.value());
    if (it != multi_.end()) {
      for (auto& [e, set] : it->second) {
        for (auto vi = set.begin(); vi != set.end();) {
          if (!IsMember(*vi, value_class)) {
            vi = set.erase(vi);
          } else {
            ++vi;
          }
        }
      }
    }
  }
  {
    MutexLock lock(lazy_mu_);
    auto vit = value_index_.find(attr.value());
    if (vit != value_index_.end()) vit->second.dirty = true;
  }
  NotifySchemaChange();
  return Status::OK();
}

Status Database::DeleteAttribute(AttributeId attr) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(schema_.DeleteAttribute(attr));
  single_.erase(attr.value());
  multi_.erase(attr.value());
  {
    MutexLock lock(lazy_mu_);
    value_index_.erase(attr.value());
  }
  NotifySchemaChange();
  return Status::OK();
}

Status Database::RenameAttribute(AttributeId attr,
                                 const std::string& new_name) {
  return schema_.RenameAttribute(attr, new_name);
}

Result<GroupingId> Database::CreateGrouping(const std::string& name,
                                            ClassId parent,
                                            AttributeId on_attribute) {
  return schema_.CreateGrouping(name, parent, on_attribute);
}

Status Database::DeleteGrouping(GroupingId g) {
  return schema_.DeleteGrouping(g);
}

Status Database::RenameGrouping(GroupingId g, const std::string& new_name) {
  return schema_.RenameGrouping(g, new_name);
}

// --- Entity lifecycle. ---

Result<EntityId> Database::CreateEntity(ClassId base, const std::string& name) {
  MutationScope scope(this);
  if (!schema_.HasClass(base)) {
    return Status::NotFound("baseclass does not exist");
  }
  const ClassDef& def = schema_.GetClass(base);
  if (!def.is_base()) {
    return Status::Consistency(
        "entities are created in baseclasses; use AddToClass for subclasses");
  }
  if (def.base_kind != BaseKind::kNone) {
    return Status::Consistency(
        "entities of predefined baseclasses are interned from values");
  }
  if (!IsValidName(name)) {
    return Status::InvalidArgument("invalid entity name: '" + name + "'");
  }
  auto& names = by_name_[base.value()];
  if (names.count(name) > 0) {
    return Status::AlreadyExists("entity '" + name +
                                 "' already exists in class '" + def.name +
                                 "'");
  }
  Entity e;
  e.id = EntityId(static_cast<std::int64_t>(entities_.size()));
  e.baseclass = base;
  e.name = name;
  names[name] = e.id;
  members_[base.value()].insert(e.id);
  entities_.push_back(std::move(e));
  entity_live_.push_back(true);
  EntityId id = entities_.back().id;
  OnMembershipChange(id, base, /*added=*/true);
  return id;
}

Result<EntityId> Database::InternValue(const Value& v) const {
  auto it = interned_.find(v);
  if (it != interned_.end()) return it->second;
  ClassId base = Schema::PredefinedClassFor(v.kind());
  if (!base.valid()) {
    return Status::InvalidArgument("cannot intern a value with no kind");
  }
  if (intern_frozen_.load(std::memory_order_relaxed)) {
    // Shared-phase read of a never-seen value: creating it here would
    // mutate the entity universe under concurrent readers. The caller
    // retries under the exclusive lock (see database.h, "Concurrency").
    return Status::Unavailable("interning is frozen; value '" +
                               v.ToDisplayString() +
                               "' needs the exclusive lock");
  }
  Entity e;
  e.id = EntityId(static_cast<std::int64_t>(entities_.size()));
  e.baseclass = base;
  e.name = v.ToDisplayString();
  e.value = v;
  e.has_value = true;
  interned_[v] = e.id;
  by_name_[base.value()].emplace(e.name, e.id);
  members_[base.value()].insert(e.id);
  entities_.push_back(std::move(e));
  entity_live_.push_back(true);
  // Interning grows a predefined class extent without firing observers, so
  // both stamps must advance here: a result stamped before the new entity
  // existed must not be served after it.
  BumpChanges(&class_changes_, base.value());
  version_.fetch_add(1, std::memory_order_acq_rel);
  return entities_.back().id;
}

namespace {
/// Checked unwrap for the convenience interners: a predefined-kind value
/// always interns unless interning is frozen, and these wrappers are
/// documented exclusive-phase / setup API -- a failure here is a caller
/// holding the wrong lock, which must not limp on.
EntityId InternOrDie(Result<EntityId> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "isis: intern failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).ValueOrDie();
}
}  // namespace

EntityId Database::InternInteger(std::int64_t v) const {
  return InternOrDie(InternValue(Value::Integer(v)));
}
EntityId Database::InternReal(double v) const {
  return InternOrDie(InternValue(Value::Real(v)));
}
EntityId Database::InternBoolean(bool v) const {
  return InternOrDie(InternValue(Value::Boolean(v)));
}
EntityId Database::InternString(const std::string& v) const {
  return InternOrDie(InternValue(Value::String(v)));
}

Result<EntityId> Database::FindEntity(ClassId base,
                                      const std::string& name) const {
  if (!schema_.HasClass(base)) {
    return Status::NotFound("baseclass does not exist");
  }
  const ClassDef& def = schema_.GetClass(base);
  if (def.base_kind != BaseKind::kNone) {
    ISIS_ASSIGN_OR_RETURN(Value v, Value::Parse(def.base_kind, name));
    return InternValue(v);
  }
  auto cit = by_name_.find(base.value());
  if (cit != by_name_.end()) {
    auto it = cit->second.find(name);
    if (it != cit->second.end()) return it->second;
  }
  return Status::NotFound("no entity '" + name + "' in class '" + def.name +
                          "'");
}

Result<EntityId> Database::FindMember(ClassId cls,
                                      const std::string& name) const {
  if (!schema_.HasClass(cls)) return Status::NotFound("class does not exist");
  ISIS_ASSIGN_OR_RETURN(EntityId e,
                        FindEntity(schema_.RootOf(cls), name));
  if (!IsMember(e, cls)) {
    return Status::NotFound("entity '" + name + "' is not a member of '" +
                            schema_.GetClass(cls).name + "'");
  }
  return e;
}

Status Database::RenameEntity(EntityId e, const std::string& new_name) {
  MutationScope scope(this);
  if (!HasEntity(e) || e == kNullEntity) {
    return Status::NotFound("entity does not exist");
  }
  Entity& ent = entities_[e.value()];
  if (ent.has_value) {
    return Status::Consistency(
        "entities of predefined baseclasses cannot be renamed");
  }
  if (ent.name == new_name) return Status::OK();
  if (!IsValidName(new_name)) {
    return Status::InvalidArgument("invalid entity name: '" + new_name + "'");
  }
  auto& names = by_name_[ent.baseclass.value()];
  if (names.count(new_name) > 0) {
    return Status::AlreadyExists("entity '" + new_name + "' already exists");
  }
  const ClassId base = ent.baseclass;
  const std::string old_name = ent.name;
  names.erase(ent.name);
  ent.name = new_name;
  names[new_name] = e;
  // A rename is a change of the naming attribute's (virtual) value, and
  // reaches observers and its change count like any other. (No `ent` past
  // this point: interning may reallocate entities_.)
  for (AttributeId a : schema_.GetClass(base).own_attributes) {
    if (!schema_.GetAttribute(a).naming) continue;
    const EntitySet before{InternString(old_name)};
    const EntitySet after{InternString(new_name)};
    OnAttributeValueChange(e, a, before, after);
    break;
  }
  return Status::OK();
}

Status Database::DeleteEntity(EntityId e) {
  MutationScope scope(this);
  if (!HasEntity(e) || e == kNullEntity) {
    return Status::NotFound("entity does not exist");
  }
  const Entity& ent = entities_[e.value()];
  // Remove from every class (deepest first is unnecessary: we scrub after).
  std::vector<ClassId> was_member;
  for (ClassId c : schema_.SelfAndDescendants(ent.baseclass)) {
    auto it = members_.find(c.value());
    if (it != members_.end() && it->second.erase(e) > 0) {
      was_member.push_back(c);
      OnMembershipChange(e, c, /*added=*/false);
    }
  }
  ScrubAllReferences(e);
  // Drop the entity's own attribute rows (keeping the value indexes in
  // step: these drops fire no value-change notification).
  for (auto& [attr, rows] : single_) {
    if (rows.count(e) > 0) {
      ValueIndexDropRow(AttributeId(attr), e);
      rows.erase(e);
    }
  }
  for (auto& [attr, rows] : multi_) {
    if (rows.count(e) > 0) {
      ValueIndexDropRow(AttributeId(attr), e);
      rows.erase(e);
    }
  }
  if (ent.has_value) {
    interned_.erase(ent.value);
  }
  by_name_[ent.baseclass.value()].erase(ent.name);
  entity_live_[e.value()] = false;
  return Status::OK();
}

bool Database::HasEntity(EntityId e) const {
  return e.valid() && static_cast<size_t>(e.value()) < entities_.size() &&
         entity_live_[e.value()];
}

const Entity& Database::GetEntity(EntityId e) const {
  return entities_[e.value()];
}

std::vector<EntityId> Database::AllEntities() const {
  std::vector<EntityId> out;
  out.reserve(entities_.size() > 0 ? entities_.size() - 1 : 0);
  for (size_t i = 1; i < entities_.size(); ++i) {
    if (entity_live_[i]) out.push_back(EntityId(static_cast<std::int64_t>(i)));
  }
  return out;
}

const std::string& Database::NameOf(EntityId e) const {
  static const std::string kUnknown = "(?)";
  if (!e.valid() || static_cast<size_t>(e.value()) >= entities_.size()) {
    return kUnknown;
  }
  return entities_[e.value()].name;
}

// --- Membership. ---

Status Database::AddToClassInternal(EntityId e, ClassId cls,
                                    bool allow_derived) {
  if (!HasEntity(e) || e == kNullEntity) {
    return Status::NotFound("entity does not exist");
  }
  if (!schema_.HasClass(cls)) return Status::NotFound("class does not exist");
  const ClassDef& def = schema_.GetClass(cls);
  if (def.is_base()) {
    if (GetEntity(e).baseclass == cls) return Status::OK();  // already there
    return Status::Consistency(
        "an entity belongs to exactly one baseclass (paper: the entity "
        "universe is partitioned into disjoint baseclasses)");
  }
  if (schema_.RootOf(cls) != GetEntity(e).baseclass) {
    return Status::Consistency("entity '" + NameOf(e) +
                               "' belongs to a different baseclass tree");
  }
  if (!allow_derived && def.membership == Membership::kDerived) {
    return Status::Consistency(
        "membership of a derived class is determined by its predicate");
  }
  if (IsMember(e, cls)) return Status::OK();
  // The paper's insertion rule: inserting into a class requires inserting
  // into its parent(s) as well; we propagate up the ancestor chain.
  for (ClassId p : def.parents) {
    ISIS_RETURN_NOT_OK(AddToClassInternal(e, p, /*allow_derived=*/true));
  }
  members_[cls.value()].insert(e);
  OnMembershipChange(e, cls, /*added=*/true);
  return Status::OK();
}

Status Database::AddToClass(EntityId e, ClassId cls) {
  MutationScope scope(this);
  return AddToClassInternal(e, cls, /*allow_derived=*/false);
}

Status Database::AddToDerivedClass(EntityId e, ClassId cls) {
  MutationScope scope(this);
  return AddToClassInternal(e, cls, /*allow_derived=*/true);
}

Status Database::RemoveFromClass(EntityId e, ClassId cls) {
  MutationScope scope(this);
  if (!HasEntity(e) || e == kNullEntity) {
    return Status::NotFound("entity does not exist");
  }
  if (!schema_.HasClass(cls)) return Status::NotFound("class does not exist");
  if (schema_.GetClass(cls).is_base()) {
    return Status::Consistency(
        "removal from a baseclass deletes the entity; use DeleteEntity");
  }
  // Subset consistency: cascade removal to every descendant.
  std::vector<ClassId> affected;
  for (ClassId c : schema_.SelfAndDescendants(cls)) {
    auto it = members_.find(c.value());
    if (it != members_.end() && it->second.erase(e) > 0) {
      affected.push_back(c);
      OnMembershipChange(e, c, /*added=*/false);
    }
  }
  ScrubReferences(e, affected);
  // The entity's own rows for attributes defined on the classes it left are
  // no longer meaningful; drop them so a later re-insertion starts from the
  // defaults.
  for (ClassId c : affected) {
    for (AttributeId a : schema_.GetClass(c).own_attributes) {
      auto sit = single_.find(a.value());
      if (sit != single_.end() && sit->second.count(e) > 0) {
        ValueIndexDropRow(a, e);
        sit->second.erase(e);
      }
      auto mit = multi_.find(a.value());
      if (mit != multi_.end() && mit->second.count(e) > 0) {
        ValueIndexDropRow(a, e);
        mit->second.erase(e);
      }
    }
  }
  return Status::OK();
}

Status Database::SetDerivedMembers(ClassId cls, const EntitySet& new_members) {
  MutationScope scope(this);
  if (!schema_.HasClass(cls)) return Status::NotFound("class does not exist");
  if (schema_.GetClass(cls).membership != Membership::kDerived) {
    return Status::InvalidArgument("class is not derived");
  }
  EntitySet current = Members(cls);
  for (EntityId e : current) {
    if (new_members.count(e) == 0) {
      ISIS_RETURN_NOT_OK(RemoveFromClass(e, cls));
    }
  }
  for (EntityId e : new_members) {
    if (current.count(e) == 0) {
      ISIS_RETURN_NOT_OK(AddToDerivedClass(e, cls));
    }
  }
  return Status::OK();
}

bool Database::IsMember(EntityId e, ClassId cls) const {
  if (e == kNullEntity) return true;  // the null entity is in every class
  if (!HasEntity(e) || !schema_.HasClass(cls)) return false;
  const ClassDef& def = schema_.GetClass(cls);
  if (def.is_base()) return GetEntity(e).baseclass == cls;
  auto it = members_.find(cls.value());
  return it != members_.end() && it->second.count(e) > 0;
}

const EntitySet& Database::Members(ClassId cls) const {
  auto it = members_.find(cls.value());
  return it == members_.end() ? kEmptySet : it->second;
}

// --- Attribute values. ---

Status Database::CheckAttributeApplies(EntityId e, AttributeId attr,
                                       bool want_multivalued) const {
  if (!HasEntity(e) || e == kNullEntity) {
    return Status::NotFound("entity does not exist");
  }
  if (!schema_.HasAttribute(attr)) {
    return Status::NotFound("attribute does not exist");
  }
  const AttributeDef& def = schema_.GetAttribute(attr);
  if (def.multivalued != want_multivalued) {
    return Status::TypeError(std::string("attribute '") + def.name + "' is " +
                             (def.multivalued ? "multivalued" : "singlevalued"));
  }
  if (!IsMember(e, def.owner)) {
    return Status::Consistency("entity '" + NameOf(e) +
                               "' is not a member of class '" +
                               schema_.GetClass(def.owner).name +
                               "' defining attribute '" + def.name + "'");
  }
  return Status::OK();
}

Status Database::CheckValueAllowed(AttributeId attr, EntityId value) const {
  if (value == kNullEntity) return Status::OK();
  if (!HasEntity(value)) return Status::NotFound("value entity does not exist");
  const AttributeDef& def = schema_.GetAttribute(attr);
  if (!IsMember(value, def.value_class)) {
    return Status::Consistency("entity '" + NameOf(value) +
                               "' is not a member of value class '" +
                               schema_.GetClass(def.value_class).name + "'");
  }
  return Status::OK();
}

Status Database::SetSingle(EntityId e, AttributeId attr, EntityId value) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(CheckAttributeApplies(e, attr, /*want_multivalued=*/false));
  const AttributeDef& def = schema_.GetAttribute(attr);
  if (def.naming) {
    // Assigning the naming attribute renames the entity.
    if (value == kNullEntity || !HasEntity(value) ||
        !GetEntity(value).has_value ||
        GetEntity(value).value.kind() != BaseKind::kString) {
      return Status::Consistency("naming attribute values must be strings");
    }
    return RenameEntity(e, GetEntity(value).value.str());
  }
  ISIS_RETURN_NOT_OK(CheckValueAllowed(attr, value));
  EntitySet before = GetValueSet(e, attr);
  auto& rows = single_[attr.value()];
  if (value == kNullEntity) {
    rows.erase(e);
  } else {
    rows[e] = value;
  }
  OnAttributeValueChange(e, attr, before, GetValueSet(e, attr));
  return Status::OK();
}

Status Database::AddToMulti(EntityId e, AttributeId attr, EntityId value) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(CheckAttributeApplies(e, attr, /*want_multivalued=*/true));
  if (value == kNullEntity) {
    return Status::InvalidArgument(
        "the null entity cannot be added to a multivalued attribute");
  }
  ISIS_RETURN_NOT_OK(CheckValueAllowed(attr, value));
  EntitySet before = GetValueSet(e, attr);
  multi_[attr.value()][e].insert(value);
  OnAttributeValueChange(e, attr, before, GetValueSet(e, attr));
  return Status::OK();
}

Status Database::RemoveFromMulti(EntityId e, AttributeId attr,
                                 EntityId value) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(CheckAttributeApplies(e, attr, /*want_multivalued=*/true));
  EntitySet before = GetValueSet(e, attr);
  auto it = multi_.find(attr.value());
  if (it != multi_.end()) {
    auto row = it->second.find(e);
    if (row != it->second.end()) row->second.erase(value);
  }
  OnAttributeValueChange(e, attr, before, GetValueSet(e, attr));
  return Status::OK();
}

Status Database::SetMulti(EntityId e, AttributeId attr,
                          const EntitySet& values) {
  MutationScope scope(this);
  ISIS_RETURN_NOT_OK(CheckAttributeApplies(e, attr, /*want_multivalued=*/true));
  for (EntityId v : values) {
    if (v == kNullEntity) {
      return Status::InvalidArgument(
          "the null entity cannot be a member of a multivalued attribute");
    }
    ISIS_RETURN_NOT_OK(CheckValueAllowed(attr, v));
  }
  EntitySet before = GetValueSet(e, attr);
  multi_[attr.value()][e] = values;
  OnAttributeValueChange(e, attr, before, GetValueSet(e, attr));
  return Status::OK();
}

EntityId Database::GetSingle(EntityId e, AttributeId attr) const {
  if (!schema_.HasAttribute(attr)) return kNullEntity;
  const AttributeDef& def = schema_.GetAttribute(attr);
  if (def.naming) {
    if (!HasEntity(e) || e == kNullEntity) return kNullEntity;
    // The name string is interned on first read. With interning frozen a
    // miss cannot be served; record it thread-locally and degrade — the
    // caller (the server's shared-lock read path) detects the bumped
    // counter and retries under the exclusive lock.
    Result<EntityId> interned = InternValue(Value::String(NameOf(e)));
    if (!interned.ok()) {
      ++tls_intern_misses;
      return kNullEntity;
    }
    return *interned;
  }
  auto it = single_.find(attr.value());
  if (it == single_.end()) return kNullEntity;
  auto row = it->second.find(e);
  return row == it->second.end() ? kNullEntity : row->second;
}

const EntitySet& Database::GetMulti(EntityId e, AttributeId attr) const {
  auto it = multi_.find(attr.value());
  if (it == multi_.end()) return kEmptySet;
  auto row = it->second.find(e);
  return row == it->second.end() ? kEmptySet : row->second;
}

EntitySet Database::GetValueSet(EntityId e, AttributeId attr) const {
  if (!schema_.HasAttribute(attr)) return {};
  const AttributeDef& def = schema_.GetAttribute(attr);
  if (def.multivalued) return GetMulti(e, attr);
  EntityId v = GetSingle(e, attr);
  if (v == kNullEntity) return {};
  return {v};
}

// --- Maps. ---

EntitySet Database::EvaluateMap(const EntitySet& start,
                                std::span<const AttributeId> path) const {
  EntitySet out;
  EntitySet scratch;
  EvaluateMap(std::span<const EntityId>(start.begin(), start.end()), path,
              &out, &scratch);
  return out;
}

EntitySet Database::EvaluateMap(EntityId start,
                                std::span<const AttributeId> path) const {
  EntitySet out;
  EntitySet scratch;
  EvaluateMap(std::span<const EntityId>(&start, 1), path, &out, &scratch);
  return out;
}

void Database::EvaluateMap(std::span<const EntityId> start,
                           std::span<const AttributeId> path, EntitySet* out,
                           EntitySet* scratch) const {
  out->clear();
  for (EntityId e : start) {
    if (e != kNullEntity && HasEntity(e)) out->insert(out->end(), e);
  }
  for (AttributeId attr : path) {
    if (!schema_.HasAttribute(attr)) {
      out->clear();
      return;
    }
    const AttributeDef& def = schema_.GetAttribute(attr);
    scratch->clear();
    for (EntityId e : *out) {
      if (!IsMember(e, def.owner)) continue;
      if (def.multivalued) {
        for (EntityId v : GetMulti(e, attr)) {
          if (v != kNullEntity) scratch->insert(v);
        }
      } else if (EntityId v = GetSingle(e, attr); v != kNullEntity) {
        scratch->insert(v);
      }
    }
    std::swap(*out, *scratch);
  }
}

Result<ClassId> Database::MapTerminalClass(
    ClassId from, std::span<const AttributeId> path) const {
  if (!schema_.HasClass(from)) return Status::NotFound("class does not exist");
  ClassId cur = from;
  for (AttributeId attr : path) {
    if (!schema_.HasAttribute(attr)) {
      return Status::NotFound("attribute on map path does not exist");
    }
    if (!schema_.AttributeVisibleOn(cur, attr)) {
      return Status::TypeError("attribute '" +
                               schema_.GetAttribute(attr).name +
                               "' is not visible on class '" +
                               schema_.GetClass(cur).name + "'");
    }
    cur = schema_.GetAttribute(attr).value_class;
  }
  return cur;
}

// --- Groupings as data. ---

std::vector<GroupingBlock> Database::GroupingBlocks(GroupingId g) const {
  std::vector<GroupingBlock> blocks;
  if (!schema_.HasGrouping(g)) return blocks;
  const GroupingDef& def = schema_.GetGrouping(g);
  const EntitySet& parent = Members(def.parent);
  if (ValueIndexable(def.on_attribute)) {
    MutexLock lock(lazy_mu_);
    const ValueIndex* idx = EnsureValueIndexLocked(def.on_attribute);
    for (const auto& [value, owners] : idx->owners_by_value) {
      EntitySet members = RestrictTo(owners, parent);
      if (!members.empty()) {
        blocks.push_back(GroupingBlock{value, std::move(members)});
      }
    }
  } else {
    // Names are unique within a baseclass, so every member is alone in the
    // block of its name. Reading the name interns it; a frozen miss
    // degrades to null (and is counted), so the block is left out.
    for (EntityId x : parent) {
      EntityId name = GetSingle(x, def.on_attribute);
      if (name != kNullEntity) blocks.push_back(GroupingBlock{name, {x}});
    }
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const GroupingBlock& a, const GroupingBlock& b) {
              return a.index < b.index;
            });
  return blocks;
}

EntitySet Database::GetGroupingBlock(GroupingId g, EntityId index) const {
  if (!schema_.HasGrouping(g)) return {};
  const GroupingDef& def = schema_.GetGrouping(g);
  const EntitySet& parent = Members(def.parent);
  if (ValueIndexable(def.on_attribute)) {
    MutexLock lock(lazy_mu_);
    const ValueIndex* idx = EnsureValueIndexLocked(def.on_attribute);
    auto it = idx->owners_by_value.find(index);
    if (it == idx->owners_by_value.end()) return {};
    return RestrictTo(it->second, parent);
  }
  // A naming attribute's value is the string entity of the owner's name:
  // compare the names themselves, which interns nothing.
  EntitySet block;
  if (index == kNullEntity || !HasEntity(index)) return block;
  const Entity& name = GetEntity(index);
  if (!name.has_value || name.value.kind() != BaseKind::kString) return block;
  for (EntityId x : parent) {
    if (NameOf(x) == name.value.str()) block.insert(x);
  }
  return block;
}

// --- Attribute-value indexes. ---

bool Database::ValueIndexable(AttributeId attr) const {
  return schema_.HasAttribute(attr) && !schema_.GetAttribute(attr).naming;
}

Database::ValueIndex* Database::EnsureValueIndexLocked(AttributeId attr) const {
  if (!ValueIndexable(attr)) return nullptr;
  ValueIndex& idx = value_index_[attr.value()];
  if (!idx.dirty) return &idx;
  idx.owners_by_value.clear();
  idx.postings = 0;
  // Built from the stored rows, not by scanning members: rows exist exactly
  // for owners with a (non-default) value, which is also the set of entities
  // a probe may legally return.
  if (!schema_.GetAttribute(attr).multivalued) {
    auto it = single_.find(attr.value());
    if (it != single_.end()) {
      for (const auto& [owner, v] : it->second) {
        if (v == kNullEntity) continue;
        idx.owners_by_value[v].insert(owner);
        ++idx.postings;
      }
    }
  } else {
    auto it = multi_.find(attr.value());
    if (it != multi_.end()) {
      for (const auto& [owner, values] : it->second) {
        for (EntityId v : values) {
          idx.owners_by_value[v].insert(owner);
          ++idx.postings;
        }
      }
    }
  }
  idx.dirty = false;
  ++stats_.value_index_rebuilds;
  return &idx;
}

const EntitySet& Database::ValueIndexProbe(AttributeId attr,
                                           EntityId value) const {
  MutexLock lock(lazy_mu_);
  ValueIndex* idx = EnsureValueIndexLocked(attr);
  ++stats_.value_index_probes;
  if (idx == nullptr) return kEmptySet;
  auto it = idx->owners_by_value.find(value);
  return it == idx->owners_by_value.end() ? kEmptySet : it->second;
}

std::int64_t Database::ValueIndexDistinctValues(AttributeId attr) const {
  MutexLock lock(lazy_mu_);
  ValueIndex* idx = EnsureValueIndexLocked(attr);
  return idx == nullptr
             ? 0
             : static_cast<std::int64_t>(idx->owners_by_value.size());
}

std::int64_t Database::ValueIndexPostings(AttributeId attr) const {
  MutexLock lock(lazy_mu_);
  ValueIndex* idx = EnsureValueIndexLocked(attr);
  return idx == nullptr ? 0 : idx->postings;
}

void Database::ValueIndexUpdate(AttributeId attr, EntityId e,
                                const EntitySet& before,
                                const EntitySet& after) {
  auto it = value_index_.find(attr.value());
  if (it == value_index_.end() || it->second.dirty) return;
  ValueIndex& idx = it->second;
  for (EntityId v : before) {
    if (after.count(v) > 0) continue;
    auto oit = idx.owners_by_value.find(v);
    if (oit == idx.owners_by_value.end()) continue;
    idx.postings -= static_cast<std::int64_t>(oit->second.erase(e));
    if (oit->second.empty()) idx.owners_by_value.erase(oit);
  }
  for (EntityId v : after) {
    if (before.count(v) > 0) continue;
    if (idx.owners_by_value[v].insert(e).second) ++idx.postings;
  }
  ++stats_.value_index_incremental_updates;
}

void Database::ValueIndexDropRow(AttributeId attr, EntityId e) {
  MutexLock lock(lazy_mu_);
  auto it = value_index_.find(attr.value());
  if (it == value_index_.end() || it->second.dirty) return;
  ValueIndexUpdate(attr, e, GetValueSet(e, attr), kEmptySet);
}

void Database::OnAttributeValueChange(EntityId e, AttributeId attr,
                                      const EntitySet& before,
                                      const EntitySet& after) {
  if (before == after) return;
  BumpChanges(&attr_changes_, attr.value());
  // Observer fan-out stays outside lazy_mu_: observers (live views, the
  // server's delta collector) may re-enter the database's read surface.
  for (MutationObserver* o : observers_) {
    o->OnAttributeValue(e, attr, before, after);
  }
  MutexLock lock(lazy_mu_);
  ValueIndexUpdate(attr, e, before, after);
}

void Database::OnMembershipChange(EntityId e, ClassId cls, bool added) {
  BumpChanges(&class_changes_, cls.value());
  for (MutationObserver* o : observers_) {
    o->OnMembership(e, cls, added);
  }
}

void Database::AddObserver(MutationObserver* observer) {
  observers_.push_back(observer);
}

void Database::RemoveObserver(MutationObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void Database::NotifySchemaChange() {
  ++schema_changes_;
  for (MutationObserver* o : observers_) o->OnSchemaChange();
}

void Database::NotifySettled() {
  for (MutationObserver* o : observers_) o->OnMutationsSettled();
}

std::uint64_t Database::ReadSetVersion(
    std::span<const std::int64_t> classes,
    std::span<const std::int64_t> attrs) const {
  auto count = [](const std::vector<std::uint64_t>& counts, std::int64_t id) {
    const auto slot = static_cast<std::size_t>(id);
    return id >= 0 && slot < counts.size() ? counts[slot] : std::uint64_t{0};
  };
  std::uint64_t sum = schema_changes_;
  for (std::int64_t c : classes) sum += count(class_changes_, c);
  for (std::int64_t a : attrs) sum += count(attr_changes_, a);
  return sum;
}

// --- Restore API. ---

Status Database::RestoreEntity(const Entity& e) {
  if (!e.id.valid() || static_cast<size_t>(e.id.value()) < entities_.size()) {
    return Status::ParseError("entity id collides with an existing slot");
  }
  if (!schema_.HasClass(e.baseclass) ||
      !schema_.GetClass(e.baseclass).is_base()) {
    return Status::ParseError("restored entity has no valid baseclass");
  }
  auto& names = by_name_[e.baseclass.value()];
  if (names.count(e.name) > 0) {
    return Status::ParseError("duplicate entity name on restore: '" + e.name +
                              "'");
  }
  while (entities_.size() < static_cast<size_t>(e.id.value())) {
    Entity dead;
    dead.id = EntityId(static_cast<std::int64_t>(entities_.size()));
    entities_.push_back(std::move(dead));
    entity_live_.push_back(false);
  }
  names[e.name] = e.id;
  if (e.has_value) interned_[e.value] = e.id;
  members_[e.baseclass.value()].insert(e.id);
  entities_.push_back(e);
  entity_live_.push_back(true);
  // Restore bypasses observers; advance the version stamp so anything
  // holding version-stamped results across a load discards them.
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Database::RestoreMembers(ClassId cls, EntitySet members) {
  if (!schema_.HasClass(cls)) {
    return Status::ParseError("restored membership for a dead class");
  }
  if (schema_.GetClass(cls).is_base()) {
    return Status::ParseError(
        "baseclass membership is restored entity by entity");
  }
  members_[cls.value()] = std::move(members);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Database::RestoreSingle(AttributeId attr, EntityId e, EntityId value) {
  if (!schema_.HasAttribute(attr) || schema_.GetAttribute(attr).multivalued) {
    return Status::ParseError("bad singlevalued attribute slot on restore");
  }
  if (value != kNullEntity) single_[attr.value()][e] = value;
  version_.fetch_add(1, std::memory_order_acq_rel);
  MutexLock lock(lazy_mu_);
  auto it = value_index_.find(attr.value());
  if (it != value_index_.end()) it->second.dirty = true;
  return Status::OK();
}

Status Database::RestoreMulti(AttributeId attr, EntityId e, EntitySet values) {
  if (!schema_.HasAttribute(attr) || !schema_.GetAttribute(attr).multivalued) {
    return Status::ParseError("bad multivalued attribute slot on restore");
  }
  if (!values.empty()) multi_[attr.value()][e] = std::move(values);
  version_.fetch_add(1, std::memory_order_acq_rel);
  MutexLock lock(lazy_mu_);
  auto it = value_index_.find(attr.value());
  if (it != value_index_.end()) it->second.dirty = true;
  return Status::OK();
}

// --- Reference scrubbing. ---

void Database::ScrubReferences(EntityId e, const std::vector<ClassId>& classes) {
  if (classes.empty()) return;
  for (ClassId vc : classes) {
    for (const Schema::NetworkArc& arc :
         schema_.IncomingArcs(SchemaNode::Class(vc))) {
      const AttributeDef& def = schema_.GetAttribute(arc.attribute);
      // The entity may still be a member via some other class in rare
      // multi-parent layouts; re-check before scrubbing.
      if (IsMember(e, def.value_class)) continue;
      if (!def.multivalued) {
        auto it = single_.find(def.id.value());
        if (it == single_.end()) continue;
        std::vector<EntityId> owners;
        for (const auto& [owner, v] : it->second) {
          if (v == e) owners.push_back(owner);
        }
        for (EntityId owner : owners) {
          EntitySet before{e};
          it->second.erase(owner);
          OnAttributeValueChange(owner, def.id, before, {});
        }
      } else {
        auto it = multi_.find(def.id.value());
        if (it == multi_.end()) continue;
        for (auto& [owner, set] : it->second) {
          if (set.erase(e) > 0) {
            EntitySet after = set;
            EntitySet before = after;
            before.insert(e);
            OnAttributeValueChange(owner, def.id, before, after);
          }
        }
      }
    }
  }
}

void Database::ScrubAllReferences(EntityId e) {
  for (auto& [attr_raw, rows] : single_) {
    AttributeId attr(attr_raw);
    std::vector<EntityId> owners;
    for (const auto& [owner, v] : rows) {
      if (v == e) owners.push_back(owner);
    }
    for (EntityId owner : owners) {
      EntitySet before{e};
      rows.erase(owner);
      OnAttributeValueChange(owner, attr, before, {});
    }
  }
  for (auto& [attr_raw, rows] : multi_) {
    AttributeId attr(attr_raw);
    for (auto& [owner, set] : rows) {
      if (set.erase(e) > 0) {
        EntitySet after = set;
        EntitySet before = after;
        before.insert(e);
        OnAttributeValueChange(owner, attr, before, after);
      }
    }
  }
}

}  // namespace isis::sdm
