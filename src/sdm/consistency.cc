#include "sdm/consistency.h"

#include <map>
#include <unordered_set>

namespace isis::sdm {

const char* ViolationRuleToString(Violation::Rule r) {
  switch (r) {
    case Violation::Rule::kSchemaStructure:
      return "SchemaStructure";
    case Violation::Rule::kBaseclassPartition:
      return "BaseclassPartition";
    case Violation::Rule::kSubclassSubset:
      return "SubclassSubset";
    case Violation::Rule::kAttributeFunction:
      return "AttributeFunction";
    case Violation::Rule::kNamingUniqueness:
      return "NamingUniqueness";
    case Violation::Rule::kGroupingDerivation:
      return "GroupingDerivation";
  }
  return "?";
}

std::vector<Violation> ConsistencyChecker::CheckAll() const {
  std::vector<Violation> out;
  CheckSchemaStructure(&out);
  CheckBaseclassPartition(&out);
  CheckSubclassSubsets(&out);
  CheckAttributeFunctions(&out);
  CheckNamingUniqueness(&out);
  CheckGroupingDerivations(&out);
  return out;
}

Status ConsistencyChecker::Check() const {
  std::vector<Violation> v = CheckAll();
  if (v.empty()) return Status::OK();
  return Status::Consistency(v[0].description + " (" +
                             std::to_string(v.size()) +
                             " violation(s) total)");
}

void ConsistencyChecker::CheckSchemaStructure(std::vector<Violation>* out) const {
  Status st = db_.schema().Validate();
  if (!st.ok()) {
    out->push_back(
        Violation{Violation::Rule::kSchemaStructure, st.message()});
  }
}

void ConsistencyChecker::CheckBaseclassPartition(
    std::vector<Violation>* out) const {
  const Schema& schema = db_.schema();
  // Every member of a baseclass must record that baseclass as its home, and
  // an entity must be listed by exactly the baseclass it records.
  std::map<EntityId, int> base_count;
  for (ClassId base : schema.Baseclasses()) {
    for (EntityId e : db_.Members(base)) {
      ++base_count[e];
      if (!db_.HasEntity(e) || db_.GetEntity(e).baseclass != base) {
        out->push_back(Violation{
            Violation::Rule::kBaseclassPartition,
            "entity '" + db_.NameOf(e) + "' listed in baseclass '" +
                schema.GetClass(base).name + "' it does not belong to"});
      }
    }
  }
  for (const auto& [e, n] : base_count) {
    if (n > 1) {
      out->push_back(Violation{
          Violation::Rule::kBaseclassPartition,
          "entity '" + db_.NameOf(e) + "' is in " + std::to_string(n) +
              " baseclasses; the partition must be disjoint"});
    }
  }
}

void ConsistencyChecker::CheckSubclassSubsets(std::vector<Violation>* out) const {
  const Schema& schema = db_.schema();
  for (ClassId cls : schema.AllClasses()) {
    const ClassDef& def = schema.GetClass(cls);
    for (ClassId parent : def.parents) {
      for (EntityId e : db_.Members(cls)) {
        if (!db_.IsMember(e, parent)) {
          out->push_back(Violation{
              Violation::Rule::kSubclassSubset,
              "entity '" + db_.NameOf(e) + "' is in subclass '" + def.name +
                  "' but not in its parent '" +
                  schema.GetClass(parent).name + "'"});
        }
      }
    }
  }
}

void ConsistencyChecker::CheckAttributeFunctions(
    std::vector<Violation>* out) const {
  const Schema& schema = db_.schema();
  for (ClassId cls : schema.AllClasses()) {
    const ClassDef& def = schema.GetClass(cls);
    for (AttributeId a : def.own_attributes) {
      const AttributeDef& attr = schema.GetAttribute(a);
      // Naming attributes are implicit (entity name <-> string entity) and
      // validated by CheckNamingUniqueness; reading them here would intern
      // string entities as a side effect, breaking save/load idempotence.
      if (attr.naming) continue;
      for (EntityId e : db_.Members(cls)) {
        if (!attr.multivalued) {
          EntityId v = db_.GetSingle(e, a);
          if (v != kNullEntity && !db_.IsMember(v, attr.value_class)) {
            out->push_back(Violation{
                Violation::Rule::kAttributeFunction,
                "attribute '" + attr.name + "' of '" + db_.NameOf(e) +
                    "' has value '" + db_.NameOf(v) +
                    "' outside value class '" +
                    schema.GetClass(attr.value_class).name + "'"});
          }
        } else {
          for (EntityId v : db_.GetMulti(e, a)) {
            if (v == kNullEntity || !db_.IsMember(v, attr.value_class)) {
              out->push_back(Violation{
                  Violation::Rule::kAttributeFunction,
                  "attribute '" + attr.name + "' of '" + db_.NameOf(e) +
                      "' contains '" + db_.NameOf(v) +
                      "' outside value class '" +
                      schema.GetClass(attr.value_class).name + "'"});
            }
          }
        }
      }
    }
  }
}

void ConsistencyChecker::CheckNamingUniqueness(
    std::vector<Violation>* out) const {
  const Schema& schema = db_.schema();
  for (ClassId base : schema.Baseclasses()) {
    std::unordered_set<std::string> seen;
    for (EntityId e : db_.Members(base)) {
      if (!seen.insert(db_.NameOf(e)).second) {
        out->push_back(Violation{
            Violation::Rule::kNamingUniqueness,
            "duplicate entity name '" + db_.NameOf(e) + "' in baseclass '" +
                schema.GetClass(base).name + "'"});
      }
    }
  }
}

void ConsistencyChecker::CheckGroupingDerivations(
    std::vector<Violation>* out) const {
  const Schema& schema = db_.schema();
  for (GroupingId g : schema.AllGroupings()) {
    const GroupingDef& def = schema.GetGrouping(g);
    // A grouping on a naming attribute has one block per parent member (names
    // are unique, which CheckNamingUniqueness checks); reading its values
    // or blocks would intern every name as a string entity, so a checked
    // load would change the database it loads.
    if (schema.GetAttribute(def.on_attribute).naming) continue;
    // Re-derive the blocks from the value rows and compare them with what
    // GroupingBlocks serves from the attribute's value index.
    std::map<EntityId, EntitySet> expected;
    for (EntityId x : db_.Members(def.parent)) {
      for (EntityId v : db_.GetValueSet(x, def.on_attribute)) {
        expected[v].insert(x);
      }
    }
    const std::vector<GroupingBlock>& actual = db_.GroupingBlocks(g);
    bool mismatch = actual.size() != expected.size();
    if (!mismatch) {
      for (const GroupingBlock& block : actual) {
        auto it = expected.find(block.index);
        if (it == expected.end() || it->second != block.members) {
          mismatch = true;
          break;
        }
      }
    }
    if (mismatch) {
      out->push_back(Violation{
          Violation::Rule::kGroupingDerivation,
          "grouping '" + def.name +
              "' blocks differ from their derivation on attribute '" +
              schema.GetAttribute(def.on_attribute).name + "'"});
    }
  }
}

}  // namespace isis::sdm
