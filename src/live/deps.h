/// \file deps.h
/// \brief Dependency analysis of stored queries.
///
/// The engine routes each database delta to only the views that read the
/// changed class or attribute. This module computes, per view, *what* the
/// view reads and *how precisely* a delta on it can be routed:
///
///   * position-0 attributes of a candidate/self map path identify the
///     affected entity exactly (the delta's owner IS the candidate/owner to
///     retest);
///   * deeper path positions, constant-origin paths and class extents do
///     not — a change there can affect any candidate, so the view falls
///     back to a full recompute.
///
/// The buckets deliberately over-approximate (a routed retest that finds
/// nothing to change is a no-op), which is what keeps the engine's results
/// identical to Workspace::ReevaluateAll. The same analysis gives the
/// query-result cache the read set of an ad-hoc query (AnalyzeAdHoc).

#ifndef ISIS_LIVE_DEPS_H_
#define ISIS_LIVE_DEPS_H_

#include <set>

#include "common/ids.h"
#include "query/cache.h"
#include "query/predicate.h"
#include "sdm/schema.h"

namespace isis::live {

/// The read set of one stored view, bucketed by routing precision.
struct DepSet {
  /// Membership change in one of these ⇒ retest the changed entity as a
  /// candidate (subclass parents; attribute value class; ad-hoc query
  /// class).
  std::set<std::int64_t> candidate_classes;
  /// Membership change ⇒ recompute/drop the changed entity as an owner
  /// (derived attributes only).
  std::set<std::int64_t> owner_classes;
  /// Membership change ⇒ full view recompute (class extents read wholesale;
  /// owners of map steps not statically walkable; assignment value-class
  /// filters).
  std::set<std::int64_t> coarse_classes;
  /// Value change of one of these ⇒ retest the delta's owner as a candidate
  /// (position 0 of a candidate-origin path).
  std::set<std::int64_t> candidate_attrs;
  /// Value change ⇒ recompute the delta's owner as an owner (position 0 of
  /// a self-origin path).
  std::set<std::int64_t> self_attrs;
  /// Value change ⇒ full view recompute (deeper positions; constant- and
  /// extent-origin paths).
  std::set<std::int64_t> coarse_attrs;
};

/// Read set of a derived subclass' membership predicate.
DepSet AnalyzeSubclass(const sdm::Schema& schema, ClassId cls,
                       const query::Predicate& pred);

/// Read set of a derived attribute's stored derivation.
DepSet AnalyzeAttribute(const sdm::Schema& schema, const sdm::AttributeDef& def,
                        const query::AttributeDerivation& derivation);

/// Read set of an ad-hoc query `{ e in members(cls) | pred }` — the shape
/// the server's kQuery request evaluates. Unlike AnalyzeSubclass the
/// candidate class is `cls` itself (the query filters its members
/// directly), and there is no self operand.
DepSet AnalyzeAdHoc(const sdm::Schema& schema, ClassId cls,
                    const query::Predicate& pred);

/// Flattens a DepSet into the {classes, attrs} shape the query-result
/// cache (query/cache.h) stamps its entries with
/// (sdm::Database::ReadSetVersion over it): the union of every membership
/// bucket and the union of every value bucket. Routing precision is
/// irrelevant to the cache — any change in the set stales the whole entry
/// — so the buckets collapse.
query::ResultCache::Deps FlattenForCache(const DepSet& deps);

}  // namespace isis::live

#endif  // ISIS_LIVE_DEPS_H_
