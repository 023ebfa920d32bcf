/// \file workspace.h
/// \brief Workspace: a Database plus the stored queries attached to its
/// schema — the top-level handle the interface, store and examples use.
///
/// The paper's central idea is that "a query is a new derived class": the
/// predicate built on the worksheet is saved as part of the schema and can
/// be re-evaluated later. The Workspace owns that catalog (per-class
/// membership predicates and per-attribute derivations) and the commit
/// machinery, and guards deletions so the schema cannot drop objects a
/// stored query still references.

#ifndef ISIS_QUERY_WORKSPACE_H_
#define ISIS_QUERY_WORKSPACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "query/constraints.h"
#include "query/eval.h"
#include "query/predicate.h"
#include "sdm/database.h"

namespace isis::query {

/// \brief Database + stored-query catalog.
class Workspace {
 public:
  Workspace();
  explicit Workspace(sdm::Database::Options options);

  /// The underlying data/schema engine. Mutations through this reference are
  /// legal; only deletions of objects referenced by stored queries must go
  /// through the guarded wrappers below.
  sdm::Database& db() { return db_; }
  const sdm::Database& db() const { return db_; }

  /// A name for the whole database ("Instrumental_Music"); shown in the view
  /// title bars and used as the default save name.
  const std::string& name() const { return name_; }
  void set_name(std::string name) {
    name_ = std::move(name);
    ++name_version_;
  }

  /// Changes whenever store::Save's output would: it sums the database's
  /// data version, the schema generation, catalog_version() and a rename
  /// count, each of which only grows. O(1), so a caller can compare it
  /// before and after an operation to learn whether the operation may have
  /// changed the durable state. It may also move when Save's output did
  /// not (a failed schema mutator, an interned value), never the other way
  /// round.
  std::uint64_t save_version() const {
    return db_.version() + db_.schema().generation() +
           static_cast<std::uint64_t>(catalog_version_) + name_version_;
  }

  // --- Derived subclasses. ---

  /// Stores `pred` as the membership predicate of `cls` (the worksheet's
  /// commit for (re)define membership): type-checks it against the parent
  /// class, marks the class derived, evaluates, and installs the result.
  Status DefineSubclassMembership(ClassId cls, Predicate pred);

  /// Re-runs the stored predicate of one derived class against current data.
  Status ReevaluateSubclass(ClassId cls);

  /// The stored predicate of `cls`, if it is derived.
  const Predicate* SubclassPredicate(ClassId cls) const;

  // --- Derived attributes. ---

  /// Stores `derivation` for `attr` (which must be multivalued — the
  /// paper's derived attributes denote sets), type-checks, evaluates for
  /// every owner entity and installs the values.
  Status DefineAttributeDerivation(AttributeId attr,
                                   AttributeDerivation derivation);

  /// Re-runs one derived attribute against current data.
  Status ReevaluateAttribute(AttributeId attr);

  const AttributeDerivation* GetAttributeDerivation(AttributeId attr) const;

  // --- Integrity constraints (the paper's §5 extension). ---

  /// Defines a named constraint: every member of `cls` must satisfy
  /// `pred`. Type-checked like a membership predicate. With `replace`, an
  /// existing constraint of that name is redefined -- only once the new
  /// definition checks, so a failed redefinition keeps the old one.
  Status DefineConstraint(const std::string& name, ClassId cls,
                          Predicate pred, bool replace = false);
  Status DropConstraint(const std::string& name);
  /// Read access to the catalog (Check/CheckAll/Enforce take the db).
  const ConstraintCatalog& constraints() const { return constraints_; }
  /// Convenience: all violations against current data.
  std::vector<ConstraintViolation> CheckConstraints() const {
    return constraints_.CheckAll(db_);
  }
  /// OK iff every constraint holds.
  Status EnforceConstraints() const { return constraints_.Enforce(db_); }

  // --- Whole-catalog recomputation. ---

  /// Re-evaluates every derived class and attribute until the data reaches a
  /// fixpoint (derived objects may feed each other), bounded by
  /// `max_rounds`; returns Consistency if the bound is hit without
  /// convergence (a cyclic derivation).
  Status ReevaluateAll(int max_rounds = 16);

  // --- Guarded deletions (protect stored-query references). ---

  /// Deletes a class; additionally fails if a stored query draws constants
  /// from an entity of the class... (entities survive class deletion, so the
  /// only extra guard is the class's own predicate, which is dropped).
  Status DeleteClass(ClassId cls);

  /// Deletes an attribute; fails while any stored predicate or derivation
  /// mentions it on a map path or a grouping is defined on it.
  Status DeleteAttribute(AttributeId attr);

  /// Deletes an entity; scrubs it out of every stored constant set first
  /// (an absent constant would otherwise silently change query answers),
  /// so the delete's settle re-derives the views from the scrubbed
  /// predicates.
  Status DeleteEntity(EntityId e);

  /// True if some stored query's map path mentions `attr`.
  bool AttributeReferencedByQueries(AttributeId attr) const;

  /// Number of stored derived-subclass predicates / attribute derivations.
  size_t StoredSubclassCount() const { return subclass_preds_.size(); }
  size_t StoredAttributeCount() const { return attr_derivs_.size(); }

  /// Raw catalogs for serialization (store/).
  const std::map<std::int64_t, Predicate>& subclass_predicates() const {
    return subclass_preds_;
  }
  const std::map<std::int64_t, AttributeDerivation>& attribute_derivations()
      const {
    return attr_derivs_;
  }
  /// Installs a stored query during load without evaluating (store/).
  void RestoreSubclassPredicate(ClassId cls, Predicate pred);
  void RestoreAttributeDerivation(AttributeId attr, AttributeDerivation d);
  void RestoreConstraint(Constraint c) {
    ++catalog_version_;
    constraints_.Restore(std::move(c));
  }

  // --- Incremental-maintenance support (live/). ---

  /// Bumped whenever the stored-query catalog changes (define, drop,
  /// restore, guarded delete); the live-view engine compares it to decide
  /// when its dependency index is stale.
  std::int64_t catalog_version() const { return catalog_version_; }

  /// Context for the membership predicate of `cls` (candidates = parent).
  Result<PredicateContext> SubclassContext(ClassId cls) const;
  /// Candidate set for a (possibly multi-parent) derived class: entities
  /// belonging to every parent.
  sdm::EntitySet SubclassCandidates(ClassId cls) const;
  /// A(x) for one owner under a stored derivation (value-class filtered).
  sdm::EntitySet ComputeAttributeValue(const AttributeDerivation& d,
                                       const sdm::AttributeDef& def,
                                       EntityId x) const;

 private:
  static bool TermMentions(const Term& term, AttributeId attr);
  static bool DerivationMentions(const AttributeDerivation& d,
                                 AttributeId attr);
  static bool PredicateMentions(const Predicate& p, AttributeId attr);

  sdm::Database db_;
  std::string name_ = "untitled";
  std::int64_t catalog_version_ = 0;
  std::uint64_t name_version_ = 0;  ///< set_name calls; see save_version().
  std::map<std::int64_t, Predicate> subclass_preds_;           // ClassId ->
  std::map<std::int64_t, AttributeDerivation> attr_derivs_;    // AttributeId ->
  ConstraintCatalog constraints_;
};

}  // namespace isis::query

#endif  // ISIS_QUERY_WORKSPACE_H_
