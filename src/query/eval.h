/// \file eval.h
/// \brief Type checking and evaluation of ISIS predicates.
///
/// TypeCheck validates a predicate against the schema before it can be
/// committed from the worksheet (the UI greys out `commit` otherwise):
/// every map step must be visible on the class reached so far, compared
/// terms must terminate in the same baseclass tree, and the singleton
/// ordering operators require an ordered predefined baseclass. Evaluate
/// then computes memberships/value sets per the paper's set semantics.

#ifndef ISIS_QUERY_EVAL_H_
#define ISIS_QUERY_EVAL_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "query/plan.h"
#include "query/predicate.h"
#include "sdm/database.h"

namespace isis::query {

/// The evaluation context of a predicate: which class the candidate e ranges
/// over, and (for derived attributes, form (c)) which class the owner x
/// belongs to.
struct PredicateContext {
  ClassId candidate_class;                 ///< V — e ranges over members(V).
  std::optional<ClassId> self_class;       ///< C — set for derived attributes.
};

/// \brief Stateless predicate checker/evaluator over a Database.
///
/// With `use_planner` on (the default), set-level evaluation routes through
/// PlannedPredicate (plan.h): one-placed equality/membership atoms probe
/// the database's attribute-value indexes, clauses are ordered by estimated
/// selectivity, and term images are memoized per query. With the planner
/// off, evaluation scans the candidate set and tests the predicate per
/// entity -- the naive reference the planner is tested against. Results
/// are identical either way (asserted by tests); bench_predicates measures
/// the difference.
class Evaluator {
 public:
  explicit Evaluator(const sdm::Database& db) : db_(db) {}

  /// Enables/disables the index-aware planner (ablation hook).
  void set_use_planner(bool on) { use_planner_ = on; }
  bool use_planner() const { return use_planner_; }

  // --- Type checking. ---

  /// Schema-level class a term's map terminates in. Constant terms with an
  /// empty path report the common root baseclass of their constants.
  Result<ClassId> TermTerminalClass(const Term& term,
                                    const PredicateContext& ctx) const;

  /// Full atom check: term shapes legal for the context (kSelf only with
  /// self_class), maps well formed, terminal classes comparable, ordering
  /// operators only on INTEGER/REAL/STRING terminals.
  Status TypeCheckAtom(const Atom& atom, const PredicateContext& ctx) const;

  /// Structure + every placed atom.
  Status TypeCheck(const Predicate& pred, const PredicateContext& ctx) const;

  /// Checks an assignment derivation (the hand operator) for an attribute of
  /// `owner` with value class `value_class`: the term must not use the
  /// candidate operand and must terminate in a class of value_class's tree.
  Status TypeCheckAssignment(const Term& term, ClassId owner,
                             ClassId value_class) const;

  // --- Evaluation. ---

  /// The set a term denotes for candidate `e` / owner `x`.
  sdm::EntitySet EvalTerm(const Term& term, EntityId e, EntityId x) const;

  /// Truth of one atom for candidate `e` / owner `x` (x ignored unless a
  /// kSelf term occurs).
  bool EvalAtom(const Atom& atom, EntityId e, EntityId x) const;

  /// Truth of the whole predicate for `e` (and `x` for form-(c) atoms).
  /// Atoms not placed in any clause are ignored, as on the worksheet.
  bool EvalPredicate(const Predicate& pred, EntityId e,
                     EntityId x = sdm::kNullEntity) const;

  /// { e in members(V) | P(e) } — the membership of a derived subclass.
  /// `candidates` defaults to members of ctx.candidate_class.
  sdm::EntitySet EvaluateSubclass(const Predicate& pred, ClassId v) const;
  sdm::EntitySet EvaluateSubclass(const Predicate& pred, ClassId v,
                                  const sdm::EntitySet& candidates) const;

  /// A(x) for a predicate derivation: { e in members(V) | P_x(e) }.
  sdm::EntitySet EvaluateAttributeFor(const Predicate& pred, ClassId v,
                                      EntityId x) const;

  /// Plans `pred` over class `v`, runs it, and returns the plan dump
  /// (probe vs scan per atom, execution order, estimated and actual
  /// cardinalities). For tests and the REPL's `explain` command.
  std::string Explain(const Predicate& pred, ClassId v) const;

  /// Set comparison per the paper's operator list. Ordering operators apply
  /// to singleton sets only (false otherwise); entities of predefined
  /// baseclasses compare by value (INTEGER and REAL interoperate), user
  /// entities by name.
  bool Compare(const sdm::EntitySet& lhs, SetOp op,
               const sdm::EntitySet& rhs) const;

 private:
  Status CheckTermShape(const Term& term, const PredicateContext& ctx) const;
  /// Orders two entities for kLessEqual/kGreater; nullopt when incomparable.
  std::optional<int> OrderEntities(EntityId a, EntityId b) const;
  /// Images of e/x-independent (class-extent) terms of placed atoms,
  /// fetched once per predicate evaluation instead of once per candidate.
  std::unordered_map<const Term*, sdm::EntitySet> HoistExtents(
      const Predicate& pred) const;
  bool EvalAtomWith(
      const Atom& atom, EntityId e, EntityId x,
      const std::unordered_map<const Term*, sdm::EntitySet>& hoisted) const;
  bool EvalPredicateWith(
      const Predicate& pred, EntityId e, EntityId x,
      const std::unordered_map<const Term*, sdm::EntitySet>& hoisted) const;

  const sdm::Database& db_;
  bool use_planner_ = true;
};

}  // namespace isis::query

#endif  // ISIS_QUERY_EVAL_H_
