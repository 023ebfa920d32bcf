#include "query/eval.h"

#include <algorithm>

namespace isis::query {

using sdm::BaseKind;
using sdm::Entity;
using sdm::EntitySet;
using sdm::kNullEntity;
using sdm::Schema;

Status Evaluator::CheckTermShape(const Term& term,
                                 const PredicateContext& ctx) const {
  if (term.origin == Operand::kSelf && !ctx.self_class.has_value()) {
    return Status::TypeError(
        "a map from the owner entity (form (c)) is only legal in a derived "
        "attribute's predicate");
  }
  if (term.origin == Operand::kConstant) {
    for (EntityId c : term.constants) {
      if (c == kNullEntity || !db_.HasEntity(c)) {
        return Status::NotFound("constant entity does not exist");
      }
    }
  }
  if (term.origin == Operand::kClassExtent &&
      !db_.schema().HasClass(term.extent_class)) {
    return Status::NotFound("term extent class does not exist");
  }
  return Status::OK();
}

Result<ClassId> Evaluator::TermTerminalClass(const Term& term,
                                             const PredicateContext& ctx) const {
  ISIS_RETURN_NOT_OK(CheckTermShape(term, ctx));
  const Schema& schema = db_.schema();
  ClassId start;
  switch (term.origin) {
    case Operand::kCandidate:
      start = ctx.candidate_class;
      break;
    case Operand::kSelf:
      start = *ctx.self_class;
      break;
    case Operand::kClassExtent:
      start = term.extent_class;
      break;
    case Operand::kConstant: {
      if (term.constants.empty()) {
        // An empty constant set denotes the empty set in any class; with a
        // nonempty path the first step's owner anchors the start class.
        if (term.path.empty()) {
          return Status::TypeError(
              "an empty constant with no map has no class");
        }
        start = schema.GetAttribute(term.path[0]).owner;
        break;
      }
      // All constants must share one baseclass; the start class is that
      // baseclass (membership of each constant in deeper classes is a data
      // question, checked at evaluation).
      ClassId root;
      for (EntityId c : term.constants) {
        ClassId base = db_.GetEntity(c).baseclass;
        if (!root.valid()) {
          root = base;
        } else if (root != base) {
          return Status::TypeError(
              "constants must be drawn from one baseclass");
        }
      }
      start = root;
      break;
    }
  }
  if (!schema.HasClass(start)) {
    return Status::NotFound("term start class does not exist");
  }
  // Walk the map; each step must be visible on the class reached so far
  // (or on a subclass chain — the paper forms maps along the semantic
  // network, and an attribute of a *subclass* of the reached class is not
  // guaranteed applicable to every entity, so we require visibility).
  ClassId cur = start;
  for (AttributeId a : term.path) {
    if (!schema.HasAttribute(a)) {
      return Status::NotFound("map attribute does not exist");
    }
    if (!schema.AttributeVisibleOn(cur, a)) {
      // Allow a step defined on a *descendant* of cur: the map then simply
      // drops entities outside that descendant (evaluation skips
      // non-members). This matches the worksheet, which lets the user stack
      // any class reachable in the network.
      if (!schema.IsAncestorOrSelf(cur, schema.GetAttribute(a).owner)) {
        return Status::TypeError("attribute '" + schema.GetAttribute(a).name +
                                 "' is not applicable to class '" +
                                 schema.GetClass(cur).name + "'");
      }
    }
    cur = schema.GetAttribute(a).value_class;
  }
  return cur;
}

Status Evaluator::TypeCheckAtom(const Atom& atom,
                                const PredicateContext& ctx) const {
  if (atom.lhs.origin == Operand::kConstant) {
    return Status::TypeError(
        "the left hand side of an atom is a map from e (or x), not a "
        "constant");
  }
  ISIS_ASSIGN_OR_RETURN(ClassId lterm, TermTerminalClass(atom.lhs, ctx));
  ISIS_ASSIGN_OR_RETURN(ClassId rterm, TermTerminalClass(atom.rhs, ctx));
  const Schema& schema = db_.schema();
  if (schema.RootOf(lterm) != schema.RootOf(rterm)) {
    return Status::TypeError(
        "compared maps terminate in different baseclass trees ('" +
        schema.GetClass(lterm).name + "' vs '" + schema.GetClass(rterm).name +
        "')");
  }
  if (atom.op == SetOp::kLessEqual || atom.op == SetOp::kGreater) {
    BaseKind kind = schema.GetClass(schema.RootOf(lterm)).base_kind;
    if (kind != BaseKind::kInteger && kind != BaseKind::kReal &&
        kind != BaseKind::kString) {
      return Status::TypeError(
          "ordering operators require INTEGER, REAL or STRING terminals");
    }
  }
  return Status::OK();
}

Status Evaluator::TypeCheck(const Predicate& pred,
                            const PredicateContext& ctx) const {
  ISIS_RETURN_NOT_OK(pred.ValidateStructure());
  // Only placed atoms need to be well typed; half-built atoms may sit in the
  // atom list while the user works.
  std::vector<bool> placed(pred.atoms.size(), false);
  for (const std::vector<int>& clause : pred.clauses) {
    for (int idx : clause) placed[idx] = true;
  }
  for (size_t i = 0; i < pred.atoms.size(); ++i) {
    if (!placed[i]) continue;
    Status st = TypeCheckAtom(pred.atoms[i], ctx);
    if (!st.ok()) {
      return Status(st.code(),
                    "atom " + std::to_string(i + 1) + ": " + st.message());
    }
  }
  return Status::OK();
}

Status Evaluator::TypeCheckAssignment(const Term& term, ClassId owner,
                                      ClassId value_class) const {
  if (term.origin == Operand::kCandidate) {
    return Status::TypeError(
        "an assignment derivation maps from the owner entity x (or a "
        "constant), not from a candidate e");
  }
  PredicateContext ctx;
  ctx.candidate_class = value_class;  // unused by kSelf/kConstant terms
  ctx.self_class = owner;
  ISIS_ASSIGN_OR_RETURN(ClassId terminal, TermTerminalClass(term, ctx));
  const Schema& schema = db_.schema();
  if (schema.RootOf(terminal) != schema.RootOf(value_class)) {
    return Status::TypeError(
        "the assigned map terminates outside the attribute's value class "
        "tree");
  }
  return Status::OK();
}

EntitySet Evaluator::EvalTerm(const Term& term, EntityId e, EntityId x) const {
  switch (term.origin) {
    case Operand::kCandidate:
      return db_.EvaluateMap(e, term.path);
    case Operand::kSelf:
      return db_.EvaluateMap(x, term.path);
    case Operand::kConstant:
      return db_.EvaluateMap(term.constants, term.path);
    case Operand::kClassExtent:
      return db_.EvaluateMap(db_.Members(term.extent_class), term.path);
  }
  return {};
}

std::optional<int> Evaluator::OrderEntities(EntityId a, EntityId b) const {
  if (!db_.HasEntity(a) || !db_.HasEntity(b)) return std::nullopt;
  const Entity& ea = db_.GetEntity(a);
  const Entity& eb = db_.GetEntity(b);
  if (ea.has_value && eb.has_value) {
    BaseKind ka = ea.value.kind();
    BaseKind kb = eb.value.kind();
    // INTEGER and REAL compare numerically across kinds.
    auto numeric = [](const Entity& ent) -> std::optional<double> {
      if (ent.value.kind() == BaseKind::kInteger) {
        return static_cast<double>(ent.value.integer());
      }
      if (ent.value.kind() == BaseKind::kReal) return ent.value.real();
      return std::nullopt;
    };
    std::optional<double> na = numeric(ea);
    std::optional<double> nb = numeric(eb);
    if (na && nb) return *na < *nb ? -1 : (*na > *nb ? 1 : 0);
    if (ka == BaseKind::kString && kb == BaseKind::kString) {
      int c = ea.value.str().compare(eb.value.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    return std::nullopt;
  }
  if (!ea.has_value && !eb.has_value) {
    int c = ea.name.compare(eb.name);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return std::nullopt;
}

bool Evaluator::Compare(const EntitySet& lhs, SetOp op,
                        const EntitySet& rhs) const {
  switch (op) {
    case SetOp::kEqual:
      return lhs == rhs;
    case SetOp::kSubset:
      return std::includes(rhs.begin(), rhs.end(), lhs.begin(), lhs.end());
    case SetOp::kSuperset:
      return std::includes(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
    case SetOp::kProperSubset:
      return lhs != rhs &&
             std::includes(rhs.begin(), rhs.end(), lhs.begin(), lhs.end());
    case SetOp::kProperSuperset:
      return lhs != rhs &&
             std::includes(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
    case SetOp::kWeakMatch: {
      // True iff the sets share an element.
      auto li = lhs.begin();
      auto ri = rhs.begin();
      while (li != lhs.end() && ri != rhs.end()) {
        if (*li == *ri) return true;
        if (*li < *ri) {
          ++li;
        } else {
          ++ri;
        }
      }
      return false;
    }
    case SetOp::kLessEqual:
    case SetOp::kGreater: {
      if (lhs.size() != 1 || rhs.size() != 1) return false;
      std::optional<int> ord = OrderEntities(*lhs.begin(), *rhs.begin());
      if (!ord.has_value()) return false;
      return op == SetOp::kLessEqual ? *ord <= 0 : *ord > 0;
    }
  }
  return false;
}

bool Evaluator::EvalAtom(const Atom& atom, EntityId e, EntityId x) const {
  EntitySet lhs = EvalTerm(atom.lhs, e, x);
  EntitySet rhs = EvalTerm(atom.rhs, e, x);
  bool truth = Compare(lhs, atom.op, rhs);
  return atom.negated ? !truth : truth;
}

bool Evaluator::EvalPredicate(const Predicate& pred, EntityId e,
                              EntityId x) const {
  if (pred.form == NormalForm::kConjunctive) {
    for (const std::vector<int>& clause : pred.clauses) {
      if (clause.empty()) continue;  // unused clause window
      bool any = false;
      for (int idx : clause) {
        if (EvalAtom(pred.atoms[idx], e, x)) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  }
  for (const std::vector<int>& clause : pred.clauses) {
    if (clause.empty()) continue;  // unused clause window
    bool all = true;
    for (int idx : clause) {
      if (!EvalAtom(pred.atoms[idx], e, x)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

EntitySet Evaluator::EvaluateSubclass(const Predicate& pred, ClassId v) const {
  return EvaluateSubclass(pred, v, db_.Members(v));
}

std::unordered_map<const Term*, EntitySet> Evaluator::HoistExtents(
    const Predicate& pred) const {
  std::unordered_map<const Term*, EntitySet> hoisted;
  for (const std::vector<int>& clause : pred.clauses) {
    for (int idx : clause) {
      const Atom& atom = pred.atoms[idx];
      for (const Term* t : {&atom.lhs, &atom.rhs}) {
        if (t->origin == Operand::kClassExtent && hoisted.count(t) == 0) {
          hoisted.emplace(t, EvalTerm(*t, kNullEntity, kNullEntity));
        }
      }
    }
  }
  return hoisted;
}

bool Evaluator::EvalAtomWith(
    const Atom& atom, EntityId e, EntityId x,
    const std::unordered_map<const Term*, EntitySet>& hoisted) const {
  auto image = [&](const Term& t) {
    auto it = hoisted.find(&t);
    return it != hoisted.end() ? it->second : EvalTerm(t, e, x);
  };
  bool truth = Compare(image(atom.lhs), atom.op, image(atom.rhs));
  return atom.negated ? !truth : truth;
}

bool Evaluator::EvalPredicateWith(
    const Predicate& pred, EntityId e, EntityId x,
    const std::unordered_map<const Term*, EntitySet>& hoisted) const {
  if (pred.form == NormalForm::kConjunctive) {
    for (const std::vector<int>& clause : pred.clauses) {
      if (clause.empty()) continue;
      bool any = false;
      for (int idx : clause) {
        if (EvalAtomWith(pred.atoms[idx], e, x, hoisted)) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  }
  for (const std::vector<int>& clause : pred.clauses) {
    if (clause.empty()) continue;
    bool all = true;
    for (int idx : clause) {
      if (!EvalAtomWith(pred.atoms[idx], e, x, hoisted)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

EntitySet Evaluator::EvaluateSubclass(const Predicate& pred, ClassId v,
                                      const EntitySet& candidates) const {
  if (use_planner_) {
    PlannedPredicate plan(db_, pred, v);
    return plan.Evaluate(candidates);
  }
  std::unordered_map<const Term*, EntitySet> hoisted = HoistExtents(pred);
  EntitySet out;
  // By index, as PlannedPredicate::Evaluate scans: evaluation may intern a
  // name string, appending to `candidates` when they are STRING's members.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const EntityId e = candidates.begin()[i];
    if (EvalPredicateWith(pred, e, kNullEntity, hoisted)) out.insert(e);
  }
  return out;
}

EntitySet Evaluator::EvaluateAttributeFor(const Predicate& pred, ClassId v,
                                          EntityId x) const {
  if (use_planner_) {
    PlannedPredicate plan(db_, pred, v);
    return plan.Evaluate(db_.Members(v), x);
  }
  std::unordered_map<const Term*, EntitySet> hoisted = HoistExtents(pred);
  EntitySet out;
  const EntitySet& candidates = db_.Members(v);
  for (std::size_t i = 0; i < candidates.size(); ++i) {  // By index: above.
    const EntityId e = candidates.begin()[i];
    if (EvalPredicateWith(pred, e, x, hoisted)) out.insert(e);
  }
  return out;
}

std::string Evaluator::Explain(const Predicate& pred, ClassId v) const {
  PlannedPredicate plan(db_, pred, v);
  plan.Evaluate(db_.Members(v));
  return plan.Explain();
}

}  // namespace isis::query
