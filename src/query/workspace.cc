#include "query/workspace.h"

#include <algorithm>

namespace isis::query {

using sdm::AttributeDef;
using sdm::AttrOrigin;
using sdm::ClassDef;
using sdm::EntitySet;
using sdm::Membership;

Workspace::Workspace() : db_(sdm::Database::Options{}) {}

Workspace::Workspace(sdm::Database::Options options) : db_(options) {}

Result<PredicateContext> Workspace::SubclassContext(ClassId cls) const {
  if (!db_.schema().HasClass(cls)) {
    return Status::NotFound("class does not exist");
  }
  const ClassDef& def = db_.schema().GetClass(cls);
  if (def.is_base()) {
    return Status::Consistency(
        "a baseclass has no membership predicate (it owns its entities)");
  }
  PredicateContext ctx;
  ctx.candidate_class = def.parent();
  return ctx;
}

EntitySet Workspace::SubclassCandidates(ClassId cls) const {
  const ClassDef& def = db_.schema().GetClass(cls);
  EntitySet candidates = db_.Members(def.parents[0]);
  for (size_t i = 1; i < def.parents.size(); ++i) {
    EntitySet filtered;
    for (EntityId e : candidates) {
      if (db_.IsMember(e, def.parents[i])) filtered.insert(e);
    }
    candidates = std::move(filtered);
  }
  return candidates;
}

Status Workspace::DefineSubclassMembership(ClassId cls, Predicate pred) {
  ISIS_ASSIGN_OR_RETURN(PredicateContext ctx, SubclassContext(cls));
  Evaluator eval(db_);
  ISIS_RETURN_NOT_OK(eval.TypeCheck(pred, ctx));
  ISIS_RETURN_NOT_OK(db_.SetMembership(cls, Membership::kDerived));
  subclass_preds_[cls.value()] = std::move(pred);
  ++catalog_version_;
  return ReevaluateSubclass(cls);
}

Status Workspace::ReevaluateSubclass(ClassId cls) {
  auto it = subclass_preds_.find(cls.value());
  if (it == subclass_preds_.end()) {
    return Status::NotFound("class has no stored membership predicate");
  }
  ISIS_ASSIGN_OR_RETURN(PredicateContext ctx, SubclassContext(cls));
  Evaluator eval(db_);
  EntitySet members =
      eval.EvaluateSubclass(it->second, ctx.candidate_class,
                            SubclassCandidates(cls));
  return db_.SetDerivedMembers(cls, members);
}

const Predicate* Workspace::SubclassPredicate(ClassId cls) const {
  auto it = subclass_preds_.find(cls.value());
  return it == subclass_preds_.end() ? nullptr : &it->second;
}

Status Workspace::DefineAttributeDerivation(AttributeId attr,
                                            AttributeDerivation derivation) {
  if (!db_.schema().HasAttribute(attr)) {
    return Status::NotFound("attribute does not exist");
  }
  const AttributeDef& def = db_.schema().GetAttribute(attr);
  if (!def.multivalued) {
    return Status::TypeError(
        "derived attributes denote sets; the attribute must be multivalued");
  }
  Evaluator eval(db_);
  if (derivation.kind == AttributeDerivation::Kind::kAssignment) {
    ISIS_RETURN_NOT_OK(eval.TypeCheckAssignment(derivation.assignment,
                                                def.owner, def.value_class));
  } else {
    PredicateContext ctx;
    ctx.candidate_class = def.value_class;
    ctx.self_class = def.owner;
    ISIS_RETURN_NOT_OK(eval.TypeCheck(derivation.predicate, ctx));
  }
  ISIS_RETURN_NOT_OK(
      db_.SetAttributeOrigin(attr, AttrOrigin::kDerived));
  attr_derivs_[attr.value()] = std::move(derivation);
  ++catalog_version_;
  return ReevaluateAttribute(attr);
}

EntitySet Workspace::ComputeAttributeValue(const AttributeDerivation& d,
                                           const AttributeDef& def,
                                           EntityId x) const {
  Evaluator eval(db_);
  EntitySet values;
  if (d.kind == AttributeDerivation::Kind::kAssignment) {
    values = eval.EvalTerm(d.assignment, sdm::kNullEntity, x);
  } else {
    values = eval.EvaluateAttributeFor(d.predicate, def.value_class, x);
  }
  // The assigned map may terminate in an ancestor of the value class; only
  // entities actually in the value class are storable values.
  EntitySet filtered;
  for (EntityId v : values) {
    if (db_.IsMember(v, def.value_class)) filtered.insert(v);
  }
  return filtered;
}

Status Workspace::ReevaluateAttribute(AttributeId attr) {
  auto it = attr_derivs_.find(attr.value());
  if (it == attr_derivs_.end()) {
    return Status::NotFound("attribute has no stored derivation");
  }
  const AttributeDef& def = db_.schema().GetAttribute(attr);
  // Materialize the derivation for every owner (inherited use included:
  // members of subclasses are members of the owner too). Each SetMulti is
  // an outermost mutation, and its settle may run the live engine's drain,
  // which can rewrite this very member set: iterate a copy, and skip an
  // owner the drain has dropped from the class.
  const EntitySet owners = db_.Members(def.owner);
  for (EntityId x : owners) {
    if (!db_.IsMember(x, def.owner)) continue;
    ISIS_RETURN_NOT_OK(db_.SetMulti(x, attr, ComputeAttributeValue(it->second,
                                                                   def, x)));
  }
  return Status::OK();
}

const AttributeDerivation* Workspace::GetAttributeDerivation(
    AttributeId attr) const {
  auto it = attr_derivs_.find(attr.value());
  return it == attr_derivs_.end() ? nullptr : &it->second;
}

Status Workspace::DefineConstraint(const std::string& name, ClassId cls,
                                   Predicate pred, bool replace) {
  ISIS_RETURN_NOT_OK(
      constraints_.Define(db_, name, cls, std::move(pred), replace));
  ++catalog_version_;
  return Status::OK();
}

Status Workspace::DropConstraint(const std::string& name) {
  ISIS_RETURN_NOT_OK(constraints_.Drop(name));
  ++catalog_version_;
  return Status::OK();
}

Status Workspace::ReevaluateAll(int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (const auto& [cls_raw, pred] : subclass_preds_) {
      (void)pred;
      ClassId cls(cls_raw);
      if (!db_.schema().HasClass(cls)) continue;
      EntitySet before = db_.Members(cls);
      ISIS_RETURN_NOT_OK(ReevaluateSubclass(cls));
      if (db_.Members(cls) != before) changed = true;
    }
    for (const auto& [attr_raw, d] : attr_derivs_) {
      (void)d;
      AttributeId attr(attr_raw);
      if (!db_.schema().HasAttribute(attr)) continue;
      const AttributeDef& def = db_.schema().GetAttribute(attr);
      // Cheap change detection: compare value sets before/after per owner.
      std::map<EntityId, EntitySet> before;
      for (EntityId x : db_.Members(def.owner)) {
        before[x] = db_.GetMulti(x, attr);
      }
      ISIS_RETURN_NOT_OK(ReevaluateAttribute(attr));
      for (EntityId x : db_.Members(def.owner)) {
        if (db_.GetMulti(x, attr) != before[x]) {
          changed = true;
          break;
        }
      }
    }
    if (!changed) return Status::OK();
  }
  return Status::Consistency(
      "derived definitions did not reach a fixpoint (cyclic derivation?)");
}

bool Workspace::TermMentions(const Term& term, AttributeId attr) {
  return std::find(term.path.begin(), term.path.end(), attr) !=
         term.path.end();
}

bool Workspace::PredicateMentions(const Predicate& p, AttributeId attr) {
  for (const Atom& a : p.atoms) {
    if (TermMentions(a.lhs, attr) || TermMentions(a.rhs, attr)) return true;
  }
  return false;
}

bool Workspace::DerivationMentions(const AttributeDerivation& d,
                                   AttributeId attr) {
  if (d.kind == AttributeDerivation::Kind::kAssignment) {
    return TermMentions(d.assignment, attr);
  }
  return PredicateMentions(d.predicate, attr);
}

bool Workspace::AttributeReferencedByQueries(AttributeId attr) const {
  for (const auto& [cls, pred] : subclass_preds_) {
    (void)cls;
    if (PredicateMentions(pred, attr)) return true;
  }
  for (const auto& [a, d] : attr_derivs_) {
    (void)a;
    if (DerivationMentions(d, attr)) return true;
  }
  if (constraints_.MentionsAttribute(attr)) return true;
  return false;
}

Status Workspace::DeleteClass(ClassId cls) {
  // The class's own predicate dies with it; attributes owned by the class
  // are deleted by the schema, so their derivations must be checked first.
  if (db_.schema().HasClass(cls)) {
    for (AttributeId a : db_.schema().GetClass(cls).own_attributes) {
      if (AttributeReferencedByQueries(a)) {
        return Status::Consistency(
            "attribute '" + db_.schema().GetAttribute(a).name +
            "' of this class is referenced by a stored query");
      }
    }
  }
  ISIS_RETURN_NOT_OK(db_.DeleteClass(cls));
  subclass_preds_.erase(cls.value());
  ++catalog_version_;
  if (db_.schema().HasClass(cls)) return Status::OK();  // unreachable
  return Status::OK();
}

Status Workspace::DeleteAttribute(AttributeId attr) {
  if (AttributeReferencedByQueries(attr)) {
    return Status::Consistency(
        "attribute is referenced by a stored query; delete or edit the query "
        "first");
  }
  ISIS_RETURN_NOT_OK(db_.DeleteAttribute(attr));
  attr_derivs_.erase(attr.value());
  ++catalog_version_;
  return Status::OK();
}

Status Workspace::DeleteEntity(EntityId e) {
  if (!db_.HasEntity(e) || e == sdm::kNullEntity) {
    return Status::NotFound("entity does not exist");
  }
  // Scrub the constants before the delete: its settle runs the live
  // engine's drain, which must see the new catalog version and re-derive
  // every view from the scrubbed predicates. A predicate can gain members
  // when a constant set shrinks (`]=`, `=`), with no data delta to say so.
  for (auto& [cls, pred] : subclass_preds_) {
    (void)cls;
    for (Atom& a : pred.atoms) {
      a.lhs.constants.erase(e);
      a.rhs.constants.erase(e);
    }
  }
  for (auto& [attr, d] : attr_derivs_) {
    (void)attr;
    d.assignment.constants.erase(e);
    for (Atom& a : d.predicate.atoms) {
      a.lhs.constants.erase(e);
      a.rhs.constants.erase(e);
    }
  }
  constraints_.ScrubEntity(e);
  ++catalog_version_;  // constant sets changed
  return db_.DeleteEntity(e);
}

void Workspace::RestoreSubclassPredicate(ClassId cls, Predicate pred) {
  subclass_preds_[cls.value()] = std::move(pred);
  ++catalog_version_;
}

void Workspace::RestoreAttributeDerivation(AttributeId attr,
                                           AttributeDerivation d) {
  attr_derivs_[attr.value()] = std::move(d);
  ++catalog_version_;
}

}  // namespace isis::query
