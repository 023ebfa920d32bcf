/// \file cache.h
/// \brief Read-set-stamped query-result cache for the read path.
///
/// ISIS sessions re-issue the same or overlapping predicates constantly
/// (interactive browsing is repetitive by nature), so the server keeps a
/// small LRU cache of query answers, at two levels: the result id-set of a
/// *normalized predicate*, and the finished reply of a *raw request* whose
/// id-set was reused. Three mechanisms keep a hit exactly as correct as a
/// fresh evaluation:
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
///      shared_ptr id-sets, so concurrent readers share one copy and
///      eviction never invalidates a reader mid-format.
///
///   3. Reply entries. A reply entry maps the raw kQuery payload
///      ("class|predicate") to the reply payload the server rendered for
///      it, so a hit is a probe, a stamp check and a copy: no parse, no key,
///      no names. The bytes depend on more than the evaluation, and the
///      entry's read set says so. It is the id-set entry's read set plus,
///      for the candidate class (whose members' names the reply prints) and
///      for the class each constant of the text was resolved in (the class
///      the atom's left map ends in), that class, its baseclass and the
///      baseclass's naming attribute. A rename of a result entity or of a
///      constant, a new entity taking a constant's name, or a constant
///      leaving its class therefore stales the entry. Class and attribute
///      renames move no change counter at all, only
///      sdm::Schema::generation(), so a reply entry also carries the
///      generation it was rendered under and is served only while both
///      stamps hold. Admission: a reply is stored only for a request whose
///      id-set entry Lookup has just returned (InsertReply needs that
///      entry), i.e. a request that repeats a fresh normalized key. Such
///      requests tend to repeat again; storing the reply of every request
///      would copy bytes that traffic of one-off predicates never reads.
///
/// Both kinds of entry share one LRU list, and `capacity` bounds them
/// together. Counting: a request counts one hit or one miss. A reply hit
/// counts a hit (and a reply hit); a reply miss counts nothing, because the
/// request goes on to Lookup, which counts it. A stale entry of either kind
/// that a lookup drops counts one invalidation.
///
/// Thread-safety: every public method locks the cache's own small mutex;
/// hits copy a shared_ptr or the reply bytes under it, so the critical
/// section is a hash probe, the stamp sum, a list splice and that copy. The
/// stamps read the database's change counters and schema, so calls must not
/// race a mutation (the server calls only under its shared lock, which
/// also holds from the parse to InsertReply); mutations never call the
/// cache. The cache does not register with the database: it may outlive
/// it, but must not be called after it is gone.

#ifndef ISIS_QUERY_CACHE_H_
#define ISIS_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
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
    std::int64_t hits = 0;  ///< Requests answered without evaluation.
    /// Of `hits`, the requests answered from a stored reply (rule 3).
    std::int64_t reply_hits = 0;
    std::int64_t misses = 0;
    std::int64_t insertions = 0;     ///< Entries of either kind stored.
    std::int64_t evictions = 0;      ///< Capacity (LRU) evictions.
    std::int64_t invalidations = 0;  ///< Stale entries lookups dropped.
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

  /// Copies the reply stored for the raw kQuery payload `request` into
  /// `*reply`, counts a hit and a reply hit, and refreshes the entry's LRU
  /// position. Otherwise returns false and counts nothing: the request goes
  /// on to Lookup. Drops a stale entry (counted as an invalidation).
  bool LookupReply(const std::string& request, std::string* reply)
      ISIS_EXCLUDES(mu_);

  /// Whether LookupReply would hit, changing nothing (like Peek).
  bool PeekReply(const std::string& request) const ISIS_EXCLUDES(mu_);

  /// Stores `reply`, the payload rendered for the raw kQuery payload
  /// `request` from the result of `key`'s entry, which Lookup has just
  /// returned (the admission rule, file comment rule 3); `pred` over `v` is
  /// what `request` parsed to. The entry's read set is `key`'s plus the
  /// names the reply prints and the parse resolved. A no-op when `key`'s
  /// entry is gone, and under Insert's conditions: the database moved past
  /// `computed_at` (taken before the parse), or a reply for `request`
  /// exists.
  void InsertReply(const std::string& request, const std::string& key,
                   const Predicate& pred, ClassId v, const std::string& reply,
                   std::uint64_t computed_at) ISIS_EXCLUDES(mu_);

  Counters counters() const ISIS_EXCLUDES(mu_);
  /// Entries of either kind.
  std::int64_t size() const ISIS_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;  ///< Normalized key; for a reply, the raw request.
    Deps deps;
    std::uint64_t stamp = 0;  ///< ReadSetVersion(deps) the entry reflects.
    std::shared_ptr<const sdm::EntitySet> result;  ///< Id-set entries.
    bool is_reply = false;
    std::string reply;             ///< Reply entries: the reply payload.
    std::uint64_t generation = 0;  ///< Reply entries: Schema::generation().
  };
  using Lru = std::list<Entry>;  ///< Both kinds. Front = most recent.
  /// Keys view into Entry::key, which a list node never moves.
  using Index = std::unordered_map<std::string_view, Lru::iterator>;

  /// True while nothing `e` read has changed (file comment, rules 2 and 3).
  bool Fresh(const Entry& e) const {
    return db_->ReadSetVersion(e.deps.classes, e.deps.attrs) == e.stamp &&
           (!e.is_reply || db_->schema().generation() == e.generation);
  }
  /// Whether `index` holds a fresh entry for `key`, changing nothing.
  bool Holds(const Index& index, std::string_view key) const
      ISIS_REQUIRES(mu_);
  /// The fresh entry for `key` in `index`, moved to the LRU front, or
  /// null. A stale entry is dropped and counted as an invalidation.
  Entry* Find(Index* index, std::string_view key) ISIS_REQUIRES(mu_);
  /// Stamps `e` and stores it at the LRU front under `index`, evicting the
  /// LRU tail beyond capacity. A no-op if the database has moved past
  /// `computed_at` (`e` may reflect a half-applied change) or if `index`
  /// holds `e.key` already (a concurrent reader won the race; the entries
  /// are identical).
  void Admit(Index* index, Entry e, std::uint64_t computed_at)
      ISIS_REQUIRES(mu_);

  const sdm::Database* const db_;
  const Options options_;

  mutable Mutex mu_;
  Lru lru_ ISIS_GUARDED_BY(mu_);
  Index index_ ISIS_GUARDED_BY(mu_);    ///< Id-set entries.
  Index replies_ ISIS_GUARDED_BY(mu_);  ///< Reply entries.
  Counters counters_ ISIS_GUARDED_BY(mu_);
};

}  // namespace isis::query

#endif  // ISIS_QUERY_CACHE_H_
