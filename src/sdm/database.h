/// \file database.h
/// \brief The data level: entities, class membership, attribute values,
/// groupings-as-data, and attribute-map evaluation (paper §2, "Data").
///
/// A Database owns a Schema and the data associated with it, and keeps the
/// data consistent with the schema under every mutation:
///   * each entity is in one baseclass only;
///   * each subclass is a subset of its parent (insertions propagate up the
///     ancestor chain; removals cascade down to descendants);
///   * a singlevalued attribute defines a function (default: the null
///     entity); a multivalued attribute defaults to the empty set;
///   * each grouping is completely determined by its parent class and
///     attribute, so it is read from that attribute's value index rather
///     than stored (see GroupingBlocks).
///
/// The null entity is "a member of every class" (paper §2); it never appears
/// in member listings or map images.

#ifndef ISIS_SDM_DATABASE_H_
#define ISIS_SDM_DATABASE_H_

#include <atomic>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sync.h"
#include "common/result.h"
#include "sdm/entity_set.h"
#include "sdm/schema.h"
#include "sdm/value.h"

namespace isis::sdm {

/// The distinguished null entity (default value of unassigned singlevalued
/// attributes).
inline constexpr EntityId kNullEntity = EntityId(0);

/// \brief One entity of the universe.
struct Entity {
  EntityId id;
  /// The unique baseclass holding the entity (invalid for the null entity).
  ClassId baseclass;
  /// Unique name within the baseclass; for predefined baseclasses this is
  /// the display form of `value`.
  std::string name;
  /// Identity value for entities of predefined baseclasses.
  Value value;
  bool has_value = false;
};

/// A deterministic ordered set of entities (creation order == id order):
/// a sorted, duplicate-free vector (FlatSet, entity_set.h), so iteration
/// runs in id order and adding a newly created entity is an append.
///
/// Invalidation rule: any insert or erase invalidates every iterator and
/// element reference into that set. References to the set objects the
/// database hands out (Members, GetMulti, ValueIndexProbe) stay valid,
/// because they live as values of node-stable unordered_maps. So a loop
/// over one of them whose body can change that same set -- directly, or
/// through the live engine's drain when a mutation settles -- iterates a
/// copy (see Workspace::ReevaluateAttribute). Interning a value is such a
/// change to its predefined class's set: it appends (the new id is the
/// largest), which moves no element, so a scan that may intern into the
/// set it walks walks it by index (PlannedPredicate::Evaluate).
using EntitySet = FlatSet<EntityId>;

/// \brief Observer of data-level mutations (the live-view engine's feed).
///
/// A Database fans typed deltas out to registered observers from the same
/// internal hook sites that maintain the value indexes, so observers see
/// exactly the real state changes (no-op mutations fire nothing). Callbacks
/// run while the mutating call is still on the stack, so an observer must
/// only *record* the delta; any reaction that mutates the database has to
/// wait for OnMutationsSettled, which fires once the outermost mutating call
/// returns (no Database mutator is on the stack at that point, so
/// re-entrant mutation is safe there).
class MutationObserver {
 public:
  virtual ~MutationObserver() = default;

  /// Entity `e` entered (`added`) or left class `cls`. Fired only on actual
  /// change, including cascades (ancestor propagation, descendant removal).
  virtual void OnMembership(EntityId e, ClassId cls, bool added) = 0;

  /// The value set of `attr` on owner `e` changed from `before` to `after`
  /// (always different). Entity renames surface as a change of the naming
  /// attribute.
  virtual void OnAttributeValue(EntityId e, AttributeId attr,
                                const EntitySet& before,
                                const EntitySet& after) = 0;

  /// A schema-level mutation too coarse for per-entity deltas (value-class
  /// change, class/attribute deletion, extra parent, membership-kind
  /// switch).
  virtual void OnSchemaChange() = 0;

  /// The outermost mutating call has returned; queued deltas may now be
  /// processed (mutating the database from here is safe).
  virtual void OnMutationsSettled() = 0;
};

/// One block of a grouping: the set of parent-class entities sharing the
/// index entity as an attribute value.
struct GroupingBlock {
  EntityId index;      ///< The shared attribute value naming the block.
  EntitySet members;   ///< { x in parent(G) | index in A(x) }.
};

/// \brief Database = schema + data + consistency-preserving mutations.
class Database {
 public:
  struct Options {
    Schema::Options schema;
    /// Persisted by store/ (the fourth field of the `options` record) and
    /// otherwise unread: nothing in src/ may branch on it. Derived views
    /// are always kept fresh by live::LiveViewEngine, which every session
    /// controller and server attaches whatever this says. Kept only so that
    /// checkpoints stay byte-identical and perfbench, which sets and reads
    /// it, keeps building.
    bool live_views = false;
  };

  Database();
  explicit Database(Options options);

  const Schema& schema() const { return schema_; }
  const Options& options() const { return options_; }

  // --- Schema mutations (delegate to Schema, then fix up data). ---

  Result<ClassId> CreateBaseclass(const std::string& name,
                                  const std::string& naming_attribute);
  Result<ClassId> CreateSubclass(const std::string& name, ClassId parent,
                                 Membership membership);
  Status AddParent(ClassId cls, ClassId extra_parent);
  /// Deletes a class; in addition to Schema's preconditions, its membership
  /// data is dropped.
  Status DeleteClass(ClassId cls);
  Status RenameClass(ClassId cls, const std::string& new_name);
  /// Switches a subclass between enumerated and derived membership.
  Status SetMembership(ClassId cls, Membership membership);
  /// Marks an attribute stored/derived (query layer bookkeeping).
  Status SetAttributeOrigin(AttributeId attr, AttrOrigin origin);

  Result<AttributeId> CreateAttribute(ClassId owner, const std::string& name,
                                      ClassId value_class, bool multivalued,
                                      AttrOrigin origin = AttrOrigin::kStored);
  Result<AttributeId> CreateAttributeIntoGrouping(ClassId owner,
                                                  const std::string& name,
                                                  GroupingId grouping);
  /// Changes the value class (UI: (re)specify value class); values that are
  /// no longer members of the new value class are reset to the defaults.
  Status SetValueClass(AttributeId attr, ClassId value_class);
  Status DeleteAttribute(AttributeId attr);
  Status RenameAttribute(AttributeId attr, const std::string& new_name);

  Result<GroupingId> CreateGrouping(const std::string& name, ClassId parent,
                                    AttributeId on_attribute);
  Status DeleteGrouping(GroupingId g);
  Status RenameGrouping(GroupingId g, const std::string& new_name);

  // --- Entity lifecycle. ---

  /// Creates an entity named `name` in user baseclass `base`. Names are
  /// unique within a baseclass (paper: "each entity has a unique name").
  Result<EntityId> CreateEntity(ClassId base, const std::string& name);

  /// Returns the entity of a predefined baseclass with identity `v`,
  /// creating ("interning") it on first reference — the predefined classes
  /// "contain as data all integers, booleans, reals and strings of
  /// interest".
  Result<EntityId> InternValue(const Value& v) const;

  /// Convenience interners.
  EntityId InternInteger(std::int64_t v) const;
  EntityId InternReal(double v) const;
  EntityId InternBoolean(bool v) const;
  EntityId InternString(const std::string& v) const;

  /// Finds an entity by name within a baseclass (parses the name as a value
  /// for predefined baseclasses, interning it).
  Result<EntityId> FindEntity(ClassId base, const std::string& name) const;

  /// Looks up an entity by name in `cls` (any class: resolves via the root
  /// baseclass, then checks membership).
  Result<EntityId> FindMember(ClassId cls, const std::string& name) const;

  Status RenameEntity(EntityId e, const std::string& new_name);

  /// Deletes an entity: removes it from every class and scrubs every
  /// attribute slot referring to it (singlevalued slots become null,
  /// multivalued sets drop it).
  Status DeleteEntity(EntityId e);

  bool HasEntity(EntityId e) const;
  const Entity& GetEntity(EntityId e) const;
  /// All live entities in id (creation) order, excluding the null entity.
  std::vector<EntityId> AllEntities() const;
  /// Display name ("(null)" for the null entity).
  const std::string& NameOf(EntityId e) const;

  // --- Class membership. ---

  /// Adds `e` to subclass `cls` and, transitively, to every ancestor between
  /// `cls` and `e`'s baseclass (the paper's insertion rule). Fails if the
  /// class is derived (derived membership comes from its predicate) or if
  /// `e`'s baseclass is not the root of `cls`.
  Status AddToClass(EntityId e, ClassId cls);

  /// Variant used by the query layer when materializing a derived subclass.
  Status AddToDerivedClass(EntityId e, ClassId cls);

  /// Removes `e` from `cls` and from every descendant of `cls`, then scrubs
  /// attribute slots whose value class no longer contains `e`.
  Status RemoveFromClass(EntityId e, ClassId cls);

  /// Replaces the whole membership of a derived class (query layer commit).
  Status SetDerivedMembers(ClassId cls, const EntitySet& members);

  /// True if `e` is a member of `cls`. The null entity is a member of every
  /// class.
  bool IsMember(EntityId e, ClassId cls) const;

  /// Members of `cls` in id (creation) order; excludes the null entity.
  const EntitySet& Members(ClassId cls) const;

  // --- Attribute values. ---

  /// Sets a singlevalued attribute (UI: (re)assign att. value). Preconditions:
  /// `attr` is singlevalued and visible on a class containing `e`; `value`
  /// is null or a member of the value class. Setting the naming attribute
  /// renames the entity.
  Status SetSingle(EntityId e, AttributeId attr, EntityId value);

  Status AddToMulti(EntityId e, AttributeId attr, EntityId value);
  Status RemoveFromMulti(EntityId e, AttributeId attr, EntityId value);
  /// Replaces a multivalued attribute's set wholesale.
  Status SetMulti(EntityId e, AttributeId attr, const EntitySet& values);

  /// Singlevalued read; kNullEntity when unassigned. For a naming attribute
  /// this is the interned string entity of the entity's name.
  EntityId GetSingle(EntityId e, AttributeId attr) const;

  /// Multivalued read; empty set when unassigned.
  const EntitySet& GetMulti(EntityId e, AttributeId attr) const;

  /// Uniform read used by map evaluation: singleton for an assigned
  /// singlevalued attribute, empty for null, the set for multivalued.
  EntitySet GetValueSet(EntityId e, AttributeId attr) const;

  // --- Maps (paper §2, "Map"). ---

  /// Image of `start` under the composition A1 A2 ... An. n == 0 yields
  /// `start` (the identity map). The null entity never enters the image.
  EntitySet EvaluateMap(const EntitySet& start,
                        std::span<const AttributeId> path) const;
  EntitySet EvaluateMap(EntityId start,
                        std::span<const AttributeId> path) const;
  /// The one map evaluator the overloads above wrap. `start` lists
  /// entities in ascending id order without repeats (a set's elements, or
  /// one entity). The image goes into `*out`; `*scratch` holds the other
  /// frontier between steps. Both are caller-owned and keep their
  /// capacity, so a caller evaluating map after map allocates only when a
  /// set outgrows what its buffer held before. Neither may hold `start`.
  void EvaluateMap(std::span<const EntityId> start,
                   std::span<const AttributeId> path, EntitySet* out,
                   EntitySet* scratch) const;

  /// Checks a map is well formed from `from`: each step visible on the
  /// reached class. Returns the class the map terminates in.
  Result<ClassId> MapTerminalClass(ClassId from,
                                   std::span<const AttributeId> path) const;

  // --- Groupings as data. ---

  /// The non-empty blocks of `g`, ordered by index-entity id: the value
  /// index of g's attribute restricted to the members of g's parent. Each
  /// read walks the index's postings; nothing is kept between reads. A naming
  /// attribute has no index; its blocks are the parent's members, one per
  /// block, and reading them interns the names (see "Concurrency").
  std::vector<GroupingBlock> GroupingBlocks(GroupingId g) const;

  /// The block of `g` indexed by `index` (empty if none). Never interns.
  EntitySet GetGroupingBlock(GroupingId g, EntityId index) const;

  // --- Attribute-value indexes (query-layer acceleration). ---
  //
  // A per-attribute inverted index value -> { owners }: for a singlevalued
  // attribute the owners whose value *is* the entity, for a multivalued one
  // the owners whose value set *contains* it. These exist for every stored
  // attribute and need no schema object; the query planner probes them for
  // one-placed equality/membership atoms, and a grouping is read from its
  // attribute's index. Built lazily from the attribute's value rows on
  // first use and then kept fresh through the mutation hooks.

  /// True if `attr` can be served by the value index. Naming attributes are
  /// not indexable: their values are computed from entity names, not stored
  /// in value rows.
  bool ValueIndexable(AttributeId attr) const;

  /// Owners of `value` through `attr` (empty for unindexable attributes or
  /// unseen values). Builds the index on first use.
  const EntitySet& ValueIndexProbe(AttributeId attr, EntityId value) const;

  /// Number of distinct values in `attr`'s index (0 when unindexable).
  /// Builds the index; the planner uses it for selectivity estimation.
  std::int64_t ValueIndexDistinctValues(AttributeId attr) const;

  /// Number of (owner, value) postings in `attr`'s index (0 when
  /// unindexable). Builds the index.
  std::int64_t ValueIndexPostings(AttributeId attr) const;

  // --- Restore API (store/ deserialization only). ---
  //
  // Direct state reconstruction bypassing the mutation checks; the loader
  // validates with ConsistencyChecker afterwards. mutable_schema() exposes
  // the schema's own restore API during loading.

  Schema& mutable_schema() { return schema_; }
  /// Restores an entity at its original id (gaps become dead slots).
  Status RestoreEntity(const Entity& e);
  /// Restores the membership set of a subclass wholesale.
  Status RestoreMembers(ClassId cls, EntitySet members);
  /// Restores a singlevalued attribute slot.
  Status RestoreSingle(AttributeId attr, EntityId e, EntityId value);
  /// Restores a multivalued attribute slot.
  Status RestoreMulti(AttributeId attr, EntityId e, EntitySet values);

  /// Statistics for benchmarking.
  struct Stats {
    std::int64_t value_index_rebuilds = 0;
    std::int64_t value_index_incremental_updates = 0;
    std::int64_t value_index_probes = 0;
  };
  /// Snapshot of the lazy-structure counters (by value: the counters are
  /// bumped under lazy_mu_, so a reference would race).
  Stats stats() const ISIS_EXCLUDES(lazy_mu_) {
    MutexLock lock(lazy_mu_);
    return stats_;
  }

  // --- Mutation observers (live-view engine feed). ---

  /// Registers an observer; it must outlive the database or be removed
  /// first. Restore* calls do not notify (the loader validates wholesale).
  void AddObserver(MutationObserver* observer);
  void RemoveObserver(MutationObserver* observer);

  // --- Concurrency (the server's shared-read phases; see server/). ---
  //
  // A Database is not thread-safe in general: every mutator requires
  // exclusive access. The multi-session server nevertheless runs read-only
  // requests from many threads at once under a shared (reader) lock, with
  // mutations serialized under the matching exclusive (writer) lock. Three
  // internal rules make the const surface safe in that regime:
  //
  //  1. The lazily-built attribute-value indexes, reached from const reads
  //     (planner probes, grouping reads), are built and probed under an
  //     internal mutex (`lazy_mu_`). A build publishes an index that no one
  //     modifies again until the next exclusive-phase mutation, so the
  //     references the probe accessors return stay valid for the whole
  //     shared phase (build-then-publish).
  //  2. Interning — a logical read that physically creates an entity — can
  //     be *frozen*. While frozen, looking up an already-interned value is
  //     a plain read, but a value never seen before is NOT created:
  //     InternValue/FindEntity fail with Unavailable, and the naming-
  //     attribute read inside GetSingle records a thread-local miss
  //     (InternMissCount) and degrades to the null entity. A caller holding
  //     only the shared lock detects either signal and retries the whole
  //     request under the exclusive lock with interning unfrozen — the
  //     "promote to exclusive" discipline. Freeze toggles themselves must
  //     happen under the exclusive lock.
  //  3. Stats counters bumped on read paths are updated under `lazy_mu_`;
  //     counters bumped on mutation paths need no lock (exclusive phase).
  //  4. The change counters behind ReadSetVersion() are plain integers.
  //     Mutators bump them under the exclusive lock, and InternValue bumps
  //     its predefined class's only after the frozen check (so never in a
  //     shared phase); shared-phase readers only read them.
  //
  // Everything else reachable from const methods (schema, entities, member
  // sets, value rows) is only mutated by exclusive-phase mutators, so the
  // reader/writer lock alone orders those accesses.

  /// Freezes/unfreezes interning. Toggle only while no other thread is
  /// reading the database (the server toggles under its exclusive lock).
  void set_intern_frozen(bool frozen) {
    intern_frozen_.store(frozen, std::memory_order_relaxed);
  }
  bool intern_frozen() const {
    return intern_frozen_.load(std::memory_order_relaxed);
  }

  /// Monotone per-thread count of reads that degraded because interning was
  /// frozen (see rule 2 above). Snapshot before a shared-phase request and
  /// compare after: a change means the result is unreliable and the request
  /// must be retried under the exclusive lock.
  static std::int64_t InternMissCount();

  /// Monotonic data-version stamp. Bumped once when the outermost mutating
  /// call returns (one bump per mutation batch, before OnMutationsSettled
  /// fires, so observers read the post-batch version), and once per entity
  /// interned or restored outside a mutator. Equal versions imply equal
  /// query answers; the converse does not hold. Atomic so shared-phase
  /// readers can stamp results without any lock. ReadSetVersion() is the
  /// finer stamp, for results that depend on only part of the database.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Change stamp of a read set: the schema's change count plus the change
  /// counts of `classes` (membership) and `attrs` (values), by raw id. They
  /// move where observers hear a change -- a class count when an entity
  /// enters or leaves the class, an attribute count when a value set
  /// changes (a rename changes the naming attribute), the schema count on
  /// every OnSchemaChange -- and a predefined class's count on interning.
  /// Counts only grow, so an unchanged stamp means nothing the set names
  /// has changed. Restore* moves no count: a loader fills a database no
  /// reader has seen.
  std::uint64_t ReadSetVersion(std::span<const std::int64_t> classes,
                               std::span<const std::int64_t> attrs) const;

  /// Process-unique id of this instance, assigned at construction from a
  /// monotone counter. Caches keyed by database identity use it rather
  /// than the pointer: a new database allocated at a recycled address must
  /// not inherit the old one's cache.
  std::uint64_t instance_id() const { return instance_id_; }

 private:
  /// RAII depth guard wrapping every public mutator: OnMutationsSettled
  /// fires when the outermost one returns, so observers never mutate the
  /// database re-entrantly under an in-flight mutation.
  class MutationScope {
   public:
    explicit MutationScope(Database* db) : db_(db) { ++db_->mutation_depth_; }
    ~MutationScope() {
      if (--db_->mutation_depth_ == 0) {
        db_->version_.fetch_add(1, std::memory_order_acq_rel);
        if (!db_->observers_.empty()) db_->NotifySettled();
      }
    }
    MutationScope(const MutationScope&) = delete;
    MutationScope& operator=(const MutationScope&) = delete;

   private:
    Database* db_;
  };

  struct ValueIndex {
    bool dirty = true;
    std::unordered_map<EntityId, EntitySet> owners_by_value;
    std::int64_t postings = 0;
  };

  Status CheckAttributeApplies(EntityId e, AttributeId attr,
                               bool want_multivalued) const;
  Status CheckValueAllowed(AttributeId attr, EntityId value) const;
  Status AddToClassInternal(EntityId e, ClassId cls, bool allow_derived);
  /// Scrubs attribute slots whose value class is in `classes` and whose
  /// value is `e`.
  void ScrubReferences(EntityId e, const std::vector<ClassId>& classes);
  void ScrubAllReferences(EntityId e);

  /// Mutation hooks: the observer fan-out sites, the ReadSetVersion()
  /// counter bumps and (for values) the value-index upkeep.
  void OnAttributeValueChange(EntityId e, AttributeId attr,
                              const EntitySet& before, const EntitySet& after);
  void OnMembershipChange(EntityId e, ClassId cls, bool added);
  void NotifySchemaChange();
  void NotifySettled();
  /// Lazily (re)builds `attr`'s value index; nullptr when unindexable.
  ValueIndex* EnsureValueIndexLocked(AttributeId attr) const
      ISIS_REQUIRES(lazy_mu_);
  /// Applies a before/after value-set delta to `attr`'s index if built.
  void ValueIndexUpdate(AttributeId attr, EntityId e, const EntitySet& before,
                        const EntitySet& after) ISIS_REQUIRES(lazy_mu_);
  /// Index fix-up for attribute rows dropped without a value-change
  /// notification (entity deletion, class removal). Takes lazy_mu_ itself.
  void ValueIndexDropRow(AttributeId attr, EntityId e) ISIS_EXCLUDES(lazy_mu_);

  Schema schema_;
  Options options_;
  const std::uint64_t instance_id_;  ///< See instance_id().

  // Entity universe. Interning predefined-class entities is logically const
  // (the classes "contain all values of interest"), hence mutable.
  mutable std::vector<Entity> entities_;
  mutable std::vector<bool> entity_live_;
  mutable std::unordered_map<std::int64_t,
                             std::unordered_map<std::string, EntityId>>
      by_name_;                                      // baseclass -> name -> id
  mutable std::map<Value, EntityId> interned_;       // predefined identities
  mutable std::unordered_map<std::int64_t, EntitySet> members_;  // class -> set

  // Attribute value stores.
  std::unordered_map<std::int64_t, std::unordered_map<EntityId, EntityId>>
      single_;
  std::unordered_map<std::int64_t, std::unordered_map<EntityId, EntitySet>>
      multi_;

  /// Guards the lazily-built value indexes and the read-path stats
  /// counters against concurrent shared-phase builds; see the
  /// "Concurrency" section above.
  mutable Mutex lazy_mu_;
  /// Atomic, not lazy_mu_-guarded: shared-phase readers consult it on
  /// every intern miss (naming reads, query literals) and should not take
  /// a lock for a flag. Toggles happen under the server's exclusive lock,
  /// which already orders them against those reads; relaxed order suffices.
  std::atomic<bool> intern_frozen_{false};
  mutable std::unordered_map<std::int64_t, ValueIndex> value_index_
      ISIS_GUARDED_BY(lazy_mu_);
  mutable Stats stats_ ISIS_GUARDED_BY(lazy_mu_);
  std::vector<MutationObserver*> observers_;
  int mutation_depth_ = 0;
  /// See version(). Mutable: interning is a logically-const read that still
  /// has to advance the stamp (it grows the entity universe).
  mutable std::atomic<std::uint64_t> version_{0};
  /// The counts ReadSetVersion() sums, indexed by id (ids are never reused,
  /// so a deleted class or attribute keeps its count). Plain integers under
  /// the "Concurrency" rule 4; mutable for InternValue.
  mutable std::vector<std::uint64_t> class_changes_;
  std::vector<std::uint64_t> attr_changes_;
  std::uint64_t schema_changes_ = 0;
  static const EntitySet kEmptySet;
};

}  // namespace isis::sdm

#endif  // ISIS_SDM_DATABASE_H_
