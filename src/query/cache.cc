#include "query/cache.h"

#include <algorithm>
#include <utility>

namespace isis::query {

namespace {

void AppendPath(const std::vector<AttributeId>& path, std::string* out) {
  for (AttributeId a : path) {
    out->push_back('.');
    *out += std::to_string(a.value());
  }
}

/// Canonical id-level rendering of one term, e.g. "e.3.5", "c{7,9}.2",
/// "C12.4", "x". Names never appear, so renames cannot stale a key.
std::string TermKey(const Term& term) {
  std::string out;
  switch (term.origin) {
    case Operand::kCandidate:
      out = "e";
      break;
    case Operand::kSelf:
      out = "x";
      break;
    case Operand::kConstant: {
      out = "c{";
      bool first = true;
      for (EntityId c : term.constants) {  // EntitySet: already id-ordered
        if (!first) out.push_back(',');
        first = false;
        out += std::to_string(c.value());
      }
      out.push_back('}');
      break;
    }
    case Operand::kClassExtent:
      out = "C" + std::to_string(term.extent_class.value());
      break;
  }
  AppendPath(term.path, &out);
  return out;
}

std::string AtomKey(const Atom& atom) {
  std::string out = TermKey(atom.lhs);
  out.push_back(' ');
  if (atom.negated) out.push_back('!');
  out += std::to_string(static_cast<int>(atom.op));
  out.push_back(' ');
  out += TermKey(atom.rhs);
  return out;
}

void SortUnique(std::vector<std::string>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out.push_back(sep);
    out += p;
  }
  return out;
}

}  // namespace

std::string ResultCache::NormalizeKey(const Predicate& pred, ClassId v) {
  // Atoms sort and dedupe within a clause, clauses within the predicate:
  // both connectives are commutative and idempotent. Unplaced atoms and
  // empty clauses drop out, exactly as evaluation skips them. The normal
  // form stays in the key because an empty CNF is "everything" while an
  // empty DNF is "nothing", and mixed forms group atoms differently.
  std::vector<std::string> clause_keys;
  for (const std::vector<int>& clause : pred.clauses) {
    std::vector<std::string> atom_keys;
    for (int idx : clause) {
      if (idx < 0 || static_cast<std::size_t>(idx) >= pred.atoms.size()) {
        continue;
      }
      atom_keys.push_back(AtomKey(pred.atoms[idx]));
    }
    if (atom_keys.empty()) continue;
    SortUnique(&atom_keys);
    clause_keys.push_back(Join(atom_keys, ','));
  }
  SortUnique(&clause_keys);
  std::string out(pred.form == NormalForm::kConjunctive ? "&" : "|");
  out += std::to_string(v.value());
  out.push_back(':');
  out += Join(clause_keys, ';');
  return out;
}

ResultCache::ResultCache(const sdm::Database* db, Options options)
    : db_(db), options_(options) {}

std::shared_ptr<const sdm::EntitySet> ResultCache::Lookup(
    const std::string& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && !Fresh(*it->second)) {
    ++counters_.invalidations;
    lru_.erase(it->second);
    index_.erase(it);
    it = index_.end();
  }
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

bool ResultCache::Peek(const std::string& key) const {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  return it != index_.end() && Fresh(*it->second);
}

void ResultCache::Insert(const std::string& key, const Deps& deps,
                         std::shared_ptr<const sdm::EntitySet> result,
                         std::uint64_t computed_at) {
  MutexLock lock(mu_);
  if (computed_at != db_->version()) return;  // moved mid-evaluation
  if (options_.capacity <= 0) return;
  if (index_.count(key) > 0) return;  // a concurrent reader won the race
  while (static_cast<std::int64_t>(lru_.size()) >= options_.capacity) {
    ++counters_.evictions;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  // No change counter moved since `computed_at` either (each bump comes
  // with a version advance, and nobody inserts mid-mutation), so the stamp
  // taken now is the one the result reflects.
  lru_.push_front(Entry{key, std::move(result), deps,
                        db_->ReadSetVersion(deps.classes, deps.attrs)});
  index_.emplace(key, lru_.begin());
  ++counters_.insertions;
}

ResultCache::Counters ResultCache::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

std::int64_t ResultCache::size() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(lru_.size());
}

}  // namespace isis::query
