/// \file engine.h
/// \brief LiveViewEngine: incremental maintenance of stored derived
/// subclasses and derived attributes.
///
/// Every stored query is a derived class or attribute (paper §2), so every
/// edit must leave the stored views equal to their predicates. The engine is
/// the one code that does so: each ui::SessionController attaches one to the
/// workspace it owns, and a server::Server attaches one shared by all its
/// sessions. It registers as a MutationObserver on the workspace's database,
/// queues the typed deltas each mutation emits, and — once the outermost
/// mutation returns (OnMutationsSettled) — drains the queue, re-testing only
/// the affected candidate entities against only the views whose dependency
/// set (live/deps.h) covers the delta. The engine's own corrective writes
/// emit deltas too, which is exactly how view-feeds-view cascades
/// propagate; a per-drain oscillation bound (the same 16 as
/// Workspace::ReevaluateAll's round bound) turns cyclic derivations into a
/// Consistency error instead of an endless loop.
///
/// Coarse deltas (schema edits, class extents read wholesale, deep map
/// steps) fall back to per-view full recomputes via the workspace's own
/// Reevaluate* entry points, so results are identical to ReevaluateAll by
/// construction — asserted property-style by tests/live_engine_test.cpp.
/// Constraints are not views: a constraint check reads the data on demand
/// (query::ConstraintCatalog).
///
/// A maintenance failure never undoes the edit that triggered it. The
/// engine keeps the first one as its pending error, and whoever applied
/// the edit collects it with TakeError() and reports it: the controller on
/// the message line, the server's assign as kError, recovery in its log.

#ifndef ISIS_LIVE_ENGINE_H_
#define ISIS_LIVE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "live/deps.h"
#include "live/stats.h"
#include "query/workspace.h"
#include "sdm/database.h"

namespace isis::live {

/// \brief Incremental maintainer attached to one Workspace.
///
/// The engine assumes the workspace's derived data is consistent when it
/// attaches (datasets, freshly-defined views and loaded checkpoints are).
/// It must be destroyed (or the workspace must outlive it) before the
/// workspace goes away.
class LiveViewEngine : public sdm::MutationObserver {
 public:
  /// Attaches to `ws`'s database. `max_rounds` bounds per-drain oscillation
  /// per (view, entity), mirroring ReevaluateAll's round bound.
  explicit LiveViewEngine(query::Workspace* ws, int max_rounds = 16);
  ~LiveViewEngine() override;

  LiveViewEngine(const LiveViewEngine&) = delete;
  LiveViewEngine& operator=(const LiveViewEngine&) = delete;

  // --- sdm::MutationObserver. ---

  void OnMembership(EntityId e, ClassId cls, bool added) override;
  void OnAttributeValue(EntityId e, AttributeId attr,
                        const sdm::EntitySet& before,
                        const sdm::EntitySet& after) override;
  void OnSchemaChange() override;
  void OnMutationsSettled() override;

  // --- Introspection. ---

  const EngineStats& stats() const { return stats_; }
  /// Counters of the view named `name` (class or attribute name); nullptr
  /// if no such view.
  const ViewStats* FindViewStats(const std::string& name) const;
  /// Counters of every view in index order.
  std::vector<ViewStats> AllViewStats() const;

  /// Returns the first maintenance failure since the last call and clears
  /// it: a Consistency error naming the view whose drain hit the
  /// oscillation bound (a cyclic derivation), or the status of a failed
  /// corrective write prefixed with the view it was maintaining. OK when
  /// maintenance kept up.
  Status TakeError();

 private:
  struct Delta {
    enum class Kind { kMembership, kAttribute, kSchema };
    Kind kind = Kind::kSchema;
    EntityId e;
    ClassId cls;
    bool added = false;
    AttributeId attr;
  };

  struct View {
    enum class Kind { kSubclass, kAttribute };
    Kind kind = Kind::kSubclass;
    ClassId cls;       ///< kSubclass.
    AttributeId attr;  ///< kAttribute.
    DepSet deps;
    ViewStats stats;
  };

  /// class/attr id -> indices into views_.
  using RouteIndex = std::unordered_map<std::int64_t, std::vector<int>>;

  void RebuildIndex();
  void Drain();
  void Resync();
  void ApplyMembershipDelta(const Delta& d);
  void ApplyAttributeDelta(const Delta& d);
  void RetestCandidate(View* v, EntityId e);
  void RecomputeOwner(View* v, EntityId x);
  void FullRecompute(View* v);
  /// Records a failed corrective write of `v` (should not happen; kept
  /// visible).
  void Note(const View& v, const Status& st);
  /// Cycle guard: counts per-drain deltas on the derived object of view
  /// `vi`, for entity `e`.
  void CountDerivedDelta(int vi, EntityId e);
  /// "derived class 'x'" / "derived attribute 'x'", for error messages.
  std::string Describe(const View& v) const;
  /// (0, class id) of a subclass view, (1, attribute id) of an attribute
  /// view: the view's identity across index rebuilds.
  static std::pair<int, std::int64_t> ObjectOf(const View& v);

  query::Workspace* ws_;
  sdm::Database* db_;
  int max_rounds_;

  std::vector<View> views_;
  RouteIndex by_candidate_class_;
  RouteIndex by_owner_class_;
  RouteIndex by_coarse_class_;
  RouteIndex by_candidate_attr_;
  RouteIndex by_self_attr_;
  RouteIndex by_coarse_attr_;
  /// Derived objects under maintenance (for the cycle guard).
  std::unordered_map<std::int64_t, int> subclass_view_of_;
  std::unordered_map<std::int64_t, int> attr_view_of_;
  /// Catalog version the index was built at; -1 forces the next settle to
  /// drain with a full resync (an aborted drain dropped its queued deltas).
  std::int64_t seen_catalog_version_ = -1;

  std::deque<Delta> queue_;
  bool draining_ = false;
  bool abort_drain_ = false;
  /// Per-drain (kind, object, entity) -> delta count; exceeding max_rounds_
  /// means the cascade is oscillating (cyclic derivation).
  std::map<std::tuple<int, std::int64_t, std::int64_t>, int> drain_counts_;

  EngineStats stats_;
  Status pending_error_ = Status::OK();
};

}  // namespace isis::live

#endif  // ISIS_LIVE_ENGINE_H_
