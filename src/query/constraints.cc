#include "query/constraints.h"

#include <algorithm>

#include "common/strings.h"

namespace isis::query {

Status ConstraintCatalog::Define(const sdm::Database& db,
                                 const std::string& name, ClassId cls,
                                 Predicate predicate, bool replace) {
  if (!IsValidName(name)) {
    return Status::InvalidArgument("invalid constraint name: '" + name + "'");
  }
  if (!replace && by_name_.count(name) > 0) {
    return Status::AlreadyExists("constraint '" + name + "' already exists");
  }
  if (!db.schema().HasClass(cls)) {
    return Status::NotFound("constrained class does not exist");
  }
  Evaluator eval(db);
  PredicateContext ctx;
  ctx.candidate_class = cls;
  ISIS_RETURN_NOT_OK(eval.TypeCheck(predicate, ctx));
  if (by_name_.count(name) > 0) ISIS_RETURN_NOT_OK(Drop(name));
  by_name_[name] = Constraint{name, cls, std::move(predicate)};
  order_.push_back(name);
  return Status::OK();
}

Status ConstraintCatalog::Drop(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no constraint named '" + name + "'");
  }
  by_name_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), name),
               order_.end());
  return Status::OK();
}

bool ConstraintCatalog::Has(const std::string& name) const {
  return by_name_.count(name) > 0;
}

const Constraint* ConstraintCatalog::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::vector<const Constraint*> ConstraintCatalog::All() const {
  std::vector<const Constraint*> out;
  for (const std::string& name : order_) {
    out.push_back(&by_name_.at(name));
  }
  return out;
}

std::vector<ConstraintViolation> ConstraintCatalog::CheckAll(
    const sdm::Database& db) const {
  std::vector<ConstraintViolation> out;
  for (const std::string& name : order_) {
    Result<ConstraintViolation> v = Check(db, name);
    if (!v.ok()) {
      // A constraint over a vanished class is itself a violation of the
      // catalog; report it with no violators.
      out.push_back(ConstraintViolation{name, ClassId(), {}});
      continue;
    }
    if (!v->violators.empty()) out.push_back(std::move(*v));
  }
  return out;
}

Result<ConstraintViolation> ConstraintCatalog::Check(
    const sdm::Database& db, const std::string& name) const {
  const Constraint* c = Find(name);
  if (c == nullptr) {
    return Status::NotFound("no constraint named '" + name + "'");
  }
  if (!db.schema().HasClass(c->cls)) {
    return Status::NotFound("constrained class no longer exists");
  }
  ConstraintViolation v;
  v.constraint = name;
  v.cls = c->cls;
  // The satisfier set comes through the planner (index probes where the
  // predicate's shape allows); the violators are the complement.
  sdm::EntitySet ok = Evaluator(db).EvaluateSubclass(c->predicate, c->cls);
  for (EntityId e : db.Members(c->cls)) {
    if (ok.count(e) == 0) v.violators.insert(e);
  }
  return v;
}

Status ConstraintCatalog::Enforce(const sdm::Database& db) const {
  std::vector<ConstraintViolation> violations = CheckAll(db);
  if (violations.empty()) return Status::OK();
  const ConstraintViolation& first = violations[0];
  std::string who = first.violators.empty()
                        ? "(class missing)"
                        : "'" + db.NameOf(*first.violators.begin()) + "'";
  return Status::Consistency(
      "constraint '" + first.constraint + "' violated by " + who + " (" +
      std::to_string(first.violators.size()) + " violator(s); " +
      std::to_string(violations.size()) + " constraint(s) failing)");
}

bool ConstraintCatalog::MentionsAttribute(AttributeId attr) const {
  for (const auto& [name, c] : by_name_) {
    (void)name;
    for (const Atom& a : c.predicate.atoms) {
      if (std::find(a.lhs.path.begin(), a.lhs.path.end(), attr) !=
              a.lhs.path.end() ||
          std::find(a.rhs.path.begin(), a.rhs.path.end(), attr) !=
              a.rhs.path.end()) {
        return true;
      }
    }
  }
  return false;
}

void ConstraintCatalog::ScrubEntity(EntityId e) {
  for (auto& [name, c] : by_name_) {
    (void)name;
    for (Atom& a : c.predicate.atoms) {
      a.lhs.constants.erase(e);
      a.rhs.constants.erase(e);
    }
  }
}

void ConstraintCatalog::Restore(Constraint c) {
  if (by_name_.count(c.name) == 0) order_.push_back(c.name);
  by_name_[c.name] = std::move(c);
}

}  // namespace isis::query
