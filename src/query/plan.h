/// \file plan.h
/// \brief Index-aware predicate planning and execution.
///
/// A PlannedPredicate sits between the stored predicate and the naive
/// per-entity scan of Evaluator::EvalPredicate. At construction it analyzes
/// every placed atom: one-placed equality/membership atoms against constant
/// sets (the shape `e.A <op> {c1,...,ck}`) are rewritten into probes of the
/// database's attribute-value indexes, everything else stays a scan atom.
/// Selectivities are estimated from index cardinalities (probes) or
/// per-operator priors (scans), atoms inside a clause are ordered so the
/// short-circuit fires as early as possible, and clauses are ordered
/// most-selective-first (CNF) / most-likely-true-first (DNF).
///
/// Execution then runs in up to two stages: clauses made entirely of probe
/// atoms are answered set-at-a-time from the index (CNF: intersected into
/// the candidate set as a prefilter; DNF: unioned straight into the result),
/// and only the residual clauses are tested entity-at-a-time over whatever
/// candidates survive. Term images computed during the scan are memoized per
/// query (entity x map-path -> image), so a composition `A1 A2 ... An`
/// shared by several atoms is evaluated once per entity, constants once per
/// query, and class extents once per query instead of once per candidate.
///
/// The plan is an optimization only: results are bit-identical to the naive
/// scan (property-tested in plan_test.cpp). Atoms whose probe rewrite cannot
/// be proven equivalent -- negated atoms, dead or null constants, maps
/// longer than one step, unindexable attributes -- simply stay scan atoms.
///
/// Thread-safety: a PlannedPredicate instance holds per-query memo state and
/// must stay confined to one thread; the multi-session server builds one
/// per request. It is safe to build and run many instances concurrently
/// under the server's *shared* lock: the only database state a plan touches
/// lazily (value indexes, index cardinalities) is built and probed under
/// the database's internal mutex (see the "Concurrency" section of
/// sdm/database.h), and everything else it reads is immutable while the
/// shared lock is held.

#ifndef ISIS_QUERY_PLAN_H_
#define ISIS_QUERY_PLAN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/predicate.h"
#include "sdm/database.h"

namespace isis::query {

/// True when any atom of `pred` (placed or not) walks through `attr` on
/// either side. Used by callers that cache a PlannedPredicate across
/// mutations of one attribute: the cache is only sound when the predicate
/// never reads that attribute.
bool PredicateMentionsAttribute(const Predicate& pred, AttributeId attr);

/// \brief The term-image memo of one PlannedPredicate.
///
/// Owned by the plan and dropped with it: every image is only valid for one
/// query against an unchanging database (`fixed` is even keyed by Term
/// address). Candidate- and self-rooted images live in one slot per
/// distinct map path, valid for the one entity (e or x) the slot was last
/// computed for; when that entity changes the image is overwritten in
/// place, reusing its buffer. Constant and class-extent images are
/// computed once per query.
struct TermMemos {
  struct Slot {
    const std::vector<AttributeId>* path = nullptr;
    EntityId root;         ///< The e (or x) `image` was computed for.
    sdm::EntitySet image;
  };
  /// Reserved at plan construction to one slot per candidate- (self-)
  /// rooted term, so adding a slot never moves another: TestScanAtom holds
  /// one image while it fetches the other.
  std::vector<Slot> cand;
  std::vector<Slot> self;
  sdm::EntitySet scratch;  ///< The second frontier of every slot's map.
  std::unordered_map<const Term*, sdm::EntitySet> fixed;
};

/// How one atom will be executed.
struct AtomPlan {
  int atom_index = 0;       ///< Index into Predicate::atoms.
  bool probe = false;       ///< Answered from the value index.
  bool always_empty = false;  ///< Provably false for every candidate
                              ///< (singlevalued equality vs a 2+ element
                              ///< constant set).
  double est_selectivity = 1.0;  ///< Estimated P(atom true) per candidate.
  double cost = 1.0;             ///< Relative per-entity test cost.
  std::int64_t est_cardinality = -1;  ///< Estimated matches (probes only).
  /// Filled in after set-at-a-time execution; -1 until then.
  std::int64_t actual_cardinality = -1;

  // Probe execution state (lazily materialized).
  sdm::EntitySet matched;
  bool matched_built = false;
};

/// One clause in execution order.
struct ClausePlan {
  std::vector<AtomPlan> atoms;   ///< Short-circuit test order.
  bool probe_only = false;       ///< Every atom is a probe: set-at-a-time.
  double est_selectivity = 1.0;  ///< Estimated P(clause true) per candidate.
  sdm::EntitySet matched;        ///< Probe-only clauses: combined match set.
  bool matched_built = false;
};

/// Counters from the last Evaluate() call.
struct PlanStats {
  std::int64_t candidates_in = 0;    ///< |candidates| handed to Evaluate.
  std::int64_t after_prefilter = 0;  ///< Survivors of the probe prefilter.
  std::int64_t scanned = 0;          ///< Entities tested entity-at-a-time.
  std::int64_t result = 0;           ///< |result|.
  std::int64_t probe_clauses = 0;    ///< Clauses answered set-at-a-time.
  std::int64_t probe_atoms = 0;      ///< Atoms planned as probes.
};

/// \brief A predicate compiled against one candidate class.
///
/// Holds per-query memo state, so one instance serves one logical query:
/// either a single Evaluate() over a candidate set, or a run of Test()
/// calls against an unchanging database. Callers interleaving mutations
/// must build a fresh instance (or prove, via PredicateMentionsAttribute,
/// that the mutated attribute is invisible to the predicate).
class PlannedPredicate {
 public:
  /// Builds the plan. Probe analysis may lazily build value indexes (they
  /// are maintained incrementally afterwards).
  PlannedPredicate(const sdm::Database& db, const Predicate& pred, ClassId v);

  PlannedPredicate(const PlannedPredicate&) = delete;
  PlannedPredicate& operator=(const PlannedPredicate&) = delete;

  /// { e in candidates | P_x(e) } -- bit-identical to filtering candidates
  /// with Evaluator::EvalPredicate.
  sdm::EntitySet Evaluate(const sdm::EntitySet& candidates,
                          EntityId x = sdm::kNullEntity);

  /// Truth of the predicate for one entity, through the plan (probe atoms
  /// become point probes of the index; scan atoms are memoized).
  bool Test(EntityId e, EntityId x = sdm::kNullEntity);

  /// Multi-line dump of the chosen plan: probe vs scan per atom in execution
  /// order, estimated and (after Evaluate) actual cardinalities.
  std::string Explain() const;

  const PlanStats& stats() const { return stats_; }

 private:
  AtomPlan AnalyzeAtom(int atom_index);
  /// Combined matched set of a probe-only clause (CNF: union of its atoms'
  /// matches; DNF: intersection).
  const sdm::EntitySet& ClauseMatched(ClausePlan* cp);
  const sdm::EntitySet& AtomMatched(AtomPlan* ap);
  bool TestProbeAtom(const AtomPlan& ap, EntityId e);
  bool TestScanAtom(const Atom& atom, EntityId e, EntityId x);
  bool TestClause(ClausePlan* cp, EntityId e, EntityId x);
  /// Memoized term image; see TermMemos for the memo scopes.
  const sdm::EntitySet& TermImage(const Term& term, EntityId e, EntityId x);
  /// The image of `root` under `path`, from its slot in `slots`.
  const sdm::EntitySet& PathImage(std::vector<TermMemos::Slot>* slots,
                                  const std::vector<AttributeId>& path,
                                  EntityId root);

  const sdm::Database& db_;
  const Predicate& pred_;
  ClassId class_;
  std::int64_t class_size_ = 0;
  std::vector<ClausePlan> clauses_;
  PlanStats stats_;

  TermMemos memos_;  ///< Per-query map-image memo.
};

}  // namespace isis::query

#endif  // ISIS_QUERY_PLAN_H_
