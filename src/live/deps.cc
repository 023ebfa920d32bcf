#include "live/deps.h"

#include <algorithm>

namespace isis::live {

using query::AttributeDerivation;
using query::Atom;
using query::Operand;
using query::Predicate;
using query::Term;
using sdm::AttributeDef;
using sdm::Schema;

namespace {

/// Walks one term's map path. `walk_start` is the class the path starts
/// from when it is statically known (candidate/self/extent origins);
/// invalid for constant origins, whose frontier class depends on the picked
/// entities.
void AnalyzeTerm(const Schema& schema, const Term& term, ClassId walk_start,
                 std::set<std::int64_t>* first_step_bucket, DepSet* deps) {
  if (term.origin == Operand::kClassExtent && term.extent_class.valid()) {
    // The extent is read wholesale: any membership change there can change
    // the term's value for every candidate.
    deps->coarse_classes.insert(term.extent_class.value());
  }
  ClassId cur = walk_start;
  for (size_t i = 0; i < term.path.size(); ++i) {
    AttributeId attr = term.path[i];
    if (!schema.HasAttribute(attr)) continue;  // evaluates to the empty set
    (i == 0 ? *first_step_bucket : deps->coarse_attrs).insert(attr.value());
    const AttributeDef& def = schema.GetAttribute(attr);
    if (cur.valid() && schema.HasClass(cur) &&
        schema.AttributeVisibleOn(cur, attr)) {
      // The frontier reaching this step is contained in `cur` (value-class
      // scrubbing keeps stored values inside their value class), and a
      // visible attribute's owner is an ancestor of `cur`, so the per-step
      // IsMember(owner) filter of EvaluateMap cannot cut anything:
      // membership changes in `owner` are already covered by the buckets
      // above. Only non-walkable steps need the coarse membership dep.
      cur = def.value_class;
    } else {
      deps->coarse_classes.insert(def.owner.value());
      cur = def.value_class;
    }
  }
}

void AnalyzePredicate(const Schema& schema, const Predicate& pred,
                      ClassId candidate_class, ClassId self_class,
                      DepSet* deps) {
  // Mirror evaluation: atoms not placed in any clause do not participate.
  std::set<int> placed;
  for (const std::vector<int>& clause : pred.clauses) {
    for (int idx : clause) placed.insert(idx);
  }
  for (int idx : placed) {
    if (idx < 0 || static_cast<size_t>(idx) >= pred.atoms.size()) continue;
    const Atom& atom = pred.atoms[idx];
    for (const Term* term : {&atom.lhs, &atom.rhs}) {
      switch (term->origin) {
        case Operand::kCandidate:
          AnalyzeTerm(schema, *term, candidate_class, &deps->candidate_attrs,
                      deps);
          break;
        case Operand::kSelf:
          AnalyzeTerm(schema, *term, self_class, &deps->self_attrs, deps);
          break;
        case Operand::kConstant:
        case Operand::kClassExtent:
          AnalyzeTerm(schema, *term,
                      term->origin == Operand::kClassExtent
                          ? term->extent_class
                          : ClassId(),
                      &deps->coarse_attrs, deps);
          break;
      }
    }
  }
}

}  // namespace

DepSet AnalyzeSubclass(const Schema& schema, ClassId cls,
                       const Predicate& pred) {
  DepSet deps;
  if (!schema.HasClass(cls)) return deps;
  ClassId candidate_class;
  for (ClassId p : schema.GetClass(cls).parents) {
    deps.candidate_classes.insert(p.value());
    candidate_class = p;
  }
  AnalyzePredicate(schema, pred, candidate_class, ClassId(), &deps);
  return deps;
}

DepSet AnalyzeAttribute(const Schema& schema, const AttributeDef& def,
                        const AttributeDerivation& derivation) {
  DepSet deps;
  deps.owner_classes.insert(def.owner.value());
  if (derivation.kind == AttributeDerivation::Kind::kAssignment) {
    // A(x) = map(x), then filtered to members of the value class: a
    // membership change there can flip the filter for any owner.
    deps.coarse_classes.insert(def.value_class.value());
    const Term& t = derivation.assignment;
    if (t.origin == Operand::kSelf) {
      AnalyzeTerm(schema, t, def.owner, &deps.self_attrs, &deps);
    } else {
      AnalyzeTerm(schema, t,
                  t.origin == Operand::kClassExtent ? t.extent_class
                                                    : ClassId(),
                  &deps.coarse_attrs, &deps);
    }
  } else {
    // A(x) = { e in value_class | P_x(e) }: the value class is the
    // candidate class.
    deps.candidate_classes.insert(def.value_class.value());
    AnalyzePredicate(schema, derivation.predicate, def.value_class, def.owner,
                     &deps);
  }
  return deps;
}

DepSet AnalyzeAdHoc(const Schema& schema, ClassId cls,
                    const query::Predicate& pred) {
  DepSet deps;
  if (!schema.HasClass(cls)) return deps;
  deps.candidate_classes.insert(cls.value());
  AnalyzePredicate(schema, pred, cls, ClassId(), &deps);
  return deps;
}

query::ResultCache::Deps FlattenForCache(const DepSet& deps) {
  query::ResultCache::Deps flat;
  auto merge = [](const std::set<std::int64_t>& from,
                  std::vector<std::int64_t>* into) {
    into->insert(into->end(), from.begin(), from.end());
  };
  merge(deps.candidate_classes, &flat.classes);
  merge(deps.owner_classes, &flat.classes);
  merge(deps.coarse_classes, &flat.classes);
  merge(deps.candidate_attrs, &flat.attrs);
  merge(deps.self_attrs, &flat.attrs);
  merge(deps.coarse_attrs, &flat.attrs);
  // Buckets are std::sets but can overlap across buckets.
  auto finish = [](std::vector<std::int64_t>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  finish(&flat.classes);
  finish(&flat.attrs);
  return flat;
}

}  // namespace isis::live
