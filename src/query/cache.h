/// \file cache.h
/// \brief Read-set-stamped query-result cache for the read path.
///
/// ISIS sessions re-issue the same or overlapping predicates constantly
/// (interactive browsing is repetitive by nature), so the server keeps a
/// small LRU map from *normalized predicate* to the result id-set it
/// evaluated to. Two mechanisms keep a hit exactly as correct as a fresh
/// evaluation:
///
///   1. Normalization. The key renders each placed atom by ids (operand
///      origin, path attribute ids, constant entity ids, extent class id,
///      operator, negation), sorts and dedupes atoms within a clause and
///      clauses within the predicate (AND/OR are commutative and
///      idempotent), and drops unplaced atoms and empty clauses — exactly
///      the parts evaluation ignores. Two textually different queries that
///      evaluate identically therefore share one entry, and renames cannot
///      stale a key because names never enter it.
///
///   2. Read-set stamps. Each entry carries the flattened read set of its
///      predicate (live/deps.h dependency analysis: the classes whose
///      membership and the attributes whose values the query can read) and
///      sdm::Database::ReadSetVersion() over that set at insert time.
///      Lookup recomputes the stamp: a mismatch means something the query
///      reads has changed, and the entry is dropped as a miss. A touched
///      class or attribute stales only the entries that read it; a
///      schema-level change (deletion, value-class switch, extra parent)
///      stales every entry; interning stales only the entries that read
///      its predefined class. The analysis over-approximates, so
///      invalidation is only ever too eager, never too lazy. Insert also
///      refuses a result whose version() stamp the database has moved past
///      (it may reflect a half-applied change). Results are stored as
///      shared_ptr id-sets and formatted at hit time, so concurrent readers
///      share one copy and eviction never invalidates a reader mid-format.
///
/// Thread-safety: every public method locks the cache's own small mutex;
/// hits copy a shared_ptr under it, so the critical section is a hash
/// probe, the stamp sum and a list splice. The stamp reads the database's
/// change counters, so calls must not race a mutation (the server calls
/// only under its shared lock); mutations never call the cache. The cache
/// does not register with the database: it may outlive it, but must not be
/// called after it is gone.

#ifndef ISIS_QUERY_CACHE_H_
#define ISIS_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sync.h"
#include "query/predicate.h"
#include "sdm/database.h"

namespace isis::query {

class ResultCache {
 public:
  struct Options {
    int capacity = 1024;  ///< Entry bound; beyond it the LRU tail is evicted.
  };

  /// Flattened read set of one cached query, as produced by
  /// live::FlattenForCache (live/deps.h). Sorted-unique id vectors.
  struct Deps {
    std::vector<std::int64_t> classes;  ///< Membership reads.
    std::vector<std::int64_t> attrs;    ///< Value reads.
  };

  struct Counters {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;      ///< Capacity (LRU) evictions.
    std::int64_t invalidations = 0;  ///< Stale entries Lookup dropped.
    /// Always 0: a schema change stales entries like any other change and
    /// is counted in `invalidations`. Kept for the stats that report it.
    std::int64_t schema_flushes = 0;
    /// Always 0: no version advance flushes the cache. Kept for the stats
    /// that report it.
    std::int64_t version_flushes = 0;
  };

  /// Stamps entries against `db`, which must outlive every call.
  ResultCache(const sdm::Database* db, Options options);
  explicit ResultCache(const sdm::Database* db) : ResultCache(db, Options()) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Canonical cache key of `{ e in members(v) | pred }`. Pure function of
  /// the predicate structure and ids; see the file comment, rule 1.
  static std::string NormalizeKey(const Predicate& pred, ClassId v);

  /// Current result for `key`, or nullptr. Counts a hit or a miss,
  /// refreshes the entry's LRU position, and drops a stale entry (counted
  /// as an invalidation and a miss).
  std::shared_ptr<const sdm::EntitySet> Lookup(const std::string& key)
      ISIS_EXCLUDES(mu_);

  /// Whether Lookup would hit, changing nothing (no counts, LRU order or
  /// drops) -- for `explain` to report hit/miss without skewing the stats.
  bool Peek(const std::string& key) const ISIS_EXCLUDES(mu_);

  /// Publishes a result evaluated while the database was at version
  /// `computed_at`. A no-op if the database has moved since (the result may
  /// reflect a half-applied change) or if an entry for `key` already exists
  /// (a concurrent reader won the race; the results are identical).
  void Insert(const std::string& key, const Deps& deps,
              std::shared_ptr<const sdm::EntitySet> result,
              std::uint64_t computed_at) ISIS_EXCLUDES(mu_);

  Counters counters() const ISIS_EXCLUDES(mu_);
  std::int64_t size() const ISIS_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const sdm::EntitySet> result;
    Deps deps;
    std::uint64_t stamp = 0;  ///< ReadSetVersion(deps) the result reflects.
  };
  using Lru = std::list<Entry>;  ///< Front = most recent.

  /// True while nothing `e` read has changed (file comment, rule 2).
  bool Fresh(const Entry& e) const {
    return db_->ReadSetVersion(e.deps.classes, e.deps.attrs) == e.stamp;
  }

  const sdm::Database* const db_;
  const Options options_;

  mutable Mutex mu_;
  Lru lru_ ISIS_GUARDED_BY(mu_);
  std::unordered_map<std::string, Lru::iterator> index_ ISIS_GUARDED_BY(mu_);
  Counters counters_ ISIS_GUARDED_BY(mu_);
};

}  // namespace isis::query

#endif  // ISIS_QUERY_CACHE_H_
