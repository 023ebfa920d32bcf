/// \file constraints.h
/// \brief Integrity constraints — the paper's §5 future work, built from
/// the worksheet's own predicate language.
///
/// "Second, we would like to be able to specify arbitrarily complex
/// predicates in a similar graphical way as a part of an integrity
/// constraint specification system. For example, how would a user specify
/// that an employee cannot earn more than his/her manager using only a
/// screen and a pointing device?"
///
/// A constraint is a named predicate over a class that every member must
/// satisfy. The manager example is exactly one worksheet atom:
///
///   employees must satisfy  NOT( e.salary > e.manager.salary )
///
/// Constraints use the same Term/Atom/Predicate machinery (and hence the
/// same worksheet interaction) as derived classes. They can be checked on
/// demand, and optionally *enforced*: a mutation batch is rejected when a
/// check after it finds violations (the caller rolls back via the store
/// snapshot, as the UI's undo already does).

#ifndef ISIS_QUERY_CONSTRAINTS_H_
#define ISIS_QUERY_CONSTRAINTS_H_

#include <map>
#include <string>
#include <vector>

#include "query/eval.h"
#include "query/predicate.h"
#include "sdm/database.h"

namespace isis::query {

/// A stored integrity constraint: all members of `cls` must satisfy
/// `predicate`.
struct Constraint {
  std::string name;
  ClassId cls;
  Predicate predicate;
};

/// One violated constraint with the offending entities.
struct ConstraintViolation {
  std::string constraint;
  ClassId cls;
  sdm::EntitySet violators;
};

/// \brief Catalog of named constraints over one database.
///
/// Owned by the Workspace (which serializes it alongside the stored
/// queries). Checking is read-only; enforcement is the caller's
/// snapshot/rollback, matching the UI's undo design.
class ConstraintCatalog {
 public:
  /// Adds a constraint after type-checking its predicate against `cls`
  /// (same rules as a membership predicate: candidate terms range over the
  /// class, no self terms). Names are unique: an existing name fails with
  /// AlreadyExists unless `replace`, in which case the old definition is
  /// dropped -- after the checks pass, so a failure changes nothing -- and
  /// the new one goes last in definition order.
  Status Define(const sdm::Database& db, const std::string& name, ClassId cls,
                Predicate predicate, bool replace = false);

  /// Removes a constraint by name.
  Status Drop(const std::string& name);

  /// True if a constraint with this name exists.
  bool Has(const std::string& name) const;

  const Constraint* Find(const std::string& name) const;

  /// All constraints in definition order.
  std::vector<const Constraint*> All() const;
  size_t size() const { return order_.size(); }

  /// Evaluates every constraint; returns all violations (empty == all
  /// hold). Constraints over classes that no longer exist are reported as
  /// violations with an empty violator set.
  std::vector<ConstraintViolation> CheckAll(const sdm::Database& db) const;

  /// Evaluates one constraint.
  Result<ConstraintViolation> Check(const sdm::Database& db,
                                    const std::string& name) const;

  /// OK iff every constraint holds; otherwise a Consistency error naming
  /// the first violated constraint and a violator.
  Status Enforce(const sdm::Database& db) const;

  /// True if any constraint's predicate mentions `attr` on a map path.
  bool MentionsAttribute(AttributeId attr) const;

  /// Removes `e` from every stored constant set (entity deletion support).
  void ScrubEntity(EntityId e);

  /// Restores a constraint during deserialization without type-checking.
  void Restore(Constraint c);

 private:
  std::map<std::string, Constraint> by_name_;
  std::vector<std::string> order_;
};

}  // namespace isis::query

#endif  // ISIS_QUERY_CONSTRAINTS_H_
