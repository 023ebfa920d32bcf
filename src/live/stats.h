/// \file stats.h
/// \brief Maintenance counters of the live-view engine.
///
/// Every stored derived subclass and derived attribute is one "live view"
/// to the engine; these counters make the incremental-vs-recompute
/// ablation measurable (bench_live_views) and give the UI a staleness
/// story ("this class was maintained by N deltas, never fully rescanned").

#ifndef ISIS_LIVE_STATS_H_
#define ISIS_LIVE_STATS_H_

#include <cstdint>
#include <string>

namespace isis::live {

/// Counters for one live view.
struct ViewStats {
  /// Display name (class or attribute name at index time).
  std::string name;
  /// Deltas routed to this view (a delta may hit several views).
  std::int64_t deltas_applied = 0;
  /// Per-entity predicate tests / owner recomputations performed.
  std::int64_t entities_retested = 0;
  /// Coarse-delta fallbacks: whole-view re-evaluations.
  std::int64_t full_recomputes = 0;
};

/// Whole-engine counters.
struct EngineStats {
  /// Typed deltas received from the database (including the engine's own
  /// cascade writes).
  std::int64_t deltas_seen = 0;
  /// Settled-time queue drains that found work.
  std::int64_t drains = 0;
  /// Dependency-index rebuilds (catalog or schema changes).
  std::int64_t index_rebuilds = 0;
};

}  // namespace isis::live

#endif  // ISIS_LIVE_STATS_H_
