#include "query/cache.h"

#include <algorithm>
#include <iterator>
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

template <typename T>
void SortUnique(std::vector<T>* v) {
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

/// A reply's read set (file comment, rule 3): `evaluated`, the read set of
/// its evaluation, plus -- for the candidate class `v` and for the class
/// each constant of `pred` was resolved in -- that class, its baseclass
/// and the baseclass's naming attribute.
ResultCache::Deps ReplyDeps(const sdm::Schema& schema, const Predicate& pred,
                            ClassId v, const ResultCache::Deps& evaluated) {
  ResultCache::Deps out = evaluated;
  auto add_names = [&](ClassId cls) {
    const ClassId base = schema.RootOf(cls);
    out.classes.push_back(cls.value());
    out.classes.push_back(base.value());
    // A baseclass's first attribute is its naming attribute.
    const std::vector<AttributeId>& own = schema.GetClass(base).own_attributes;
    if (!own.empty()) out.attrs.push_back(own.front().value());
  };
  add_names(v);
  for (const Atom& atom : pred.atoms) {
    if (atom.rhs.origin != Operand::kConstant) continue;
    // The parser resolves constants in the class the left map ends in. An
    // ad-hoc left side starts at the candidate or at a class extent.
    ClassId tip = atom.lhs.origin == Operand::kClassExtent
                      ? atom.lhs.extent_class
                      : v;
    for (AttributeId a : atom.lhs.path) {
      tip = schema.GetAttribute(a).value_class;
    }
    add_names(tip);
  }
  SortUnique(&out.classes);
  SortUnique(&out.attrs);
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
  ReaderLock lock(mu_);
  const Entry* e = Find(index_, key);
  if (e == nullptr) {
    counters_.Add(kMisses);
    return nullptr;
  }
  counters_.Add(kHits);
  return e->result;
}

bool ResultCache::Peek(const std::string& key) const {
  ReaderLock lock(mu_);
  return Holds(index_, key);
}

void ResultCache::Insert(const std::string& key, const Deps& deps,
                         std::shared_ptr<const sdm::EntitySet> result,
                         std::uint64_t computed_at) {
  WriterLock lock(mu_);
  Entry e;
  e.key = key;
  e.deps = deps;
  e.result = std::move(result);
  Admit(&index_, std::move(e), computed_at);
}

bool ResultCache::LookupReply(const std::string& request,
                              std::string* reply) {
  ReaderLock lock(mu_);
  const Entry* e = Find(replies_, request);
  if (e == nullptr) return false;
  counters_.Add(kHits);
  counters_.Add(kReplyHits);
  *reply = e->reply;
  return true;
}

bool ResultCache::PeekReply(const std::string& request) const {
  ReaderLock lock(mu_);
  return Holds(replies_, request);
}

void ResultCache::InsertReply(const std::string& request,
                              const std::string& key, const Predicate& pred,
                              ClassId v, const std::string& reply,
                              std::uint64_t computed_at) {
  WriterLock lock(mu_);
  auto ids = index_.find(key);
  if (ids == index_.end()) return;  // evicted since Lookup returned it
  Entry e;
  e.key = request;
  e.deps = ReplyDeps(db_->schema(), pred, v, ids->second->entry.deps);
  e.is_reply = true;
  e.reply = reply;
  e.generation = db_->schema().generation();
  Admit(&replies_, std::move(e), computed_at);
}

bool ResultCache::Holds(const Index& index, std::string_view key) const {
  auto it = index.find(key);
  return it != index.end() && !it->second->dead.load() &&
         Fresh(it->second->entry);
}

const ResultCache::Entry* ResultCache::Find(const Index& index,
                                            std::string_view key) {
  auto it = index.find(key);
  if (it == index.end()) return nullptr;
  Node& node = *it->second;
  if (node.dead.load(std::memory_order_relaxed)) return nullptr;
  if (!Fresh(node.entry)) {
    // Stale for good: the stamps only grow. Only the exclusive side may
    // unlink it, so mark it; the first marker counts it.
    if (!node.dead.exchange(true)) {
      counters_.Add(kInvalidations);
      dead_.fetch_add(1);
    }
    return nullptr;
  }
  if (!node.referenced.load(std::memory_order_relaxed)) {
    node.referenced.store(true, std::memory_order_relaxed);
  }
  return &node.entry;
}

void ResultCache::Admit(Index* index, Entry e, std::uint64_t computed_at) {
  if (computed_at != db_->version()) return;  // moved mid-evaluation
  if (options_.capacity <= 0) return;
  auto held = index->find(e.key);
  if (held != index->end()) {
    Node& node = *held->second;
    if (!node.dead.load() && Fresh(node.entry)) return;
    // A stale entry no lookup has marked yet is invalidated here.
    if (!node.dead.load()) counters_.Add(kInvalidations);
    Drop(held->second);
  }
  while (static_cast<std::int64_t>(ring_.size()) >= options_.capacity) {
    MakeRoom();
  }
  // No change counter moved since `computed_at` either (each bump comes
  // with a version advance, and nobody inserts mid-mutation), so the stamp
  // taken now is the one the entry reflects.
  e.stamp = db_->ReadSetVersion(e.deps.classes, e.deps.attrs);
  // Just behind the hand: the newest entry, the last one the sweep visits.
  const Ring::iterator node = ring_.emplace(hand_, std::move(e));
  index->emplace(node->entry.key, node);
  ++insertions_;
}

void ResultCache::Drop(Ring::iterator node) {
  (node->entry.is_reply ? replies_ : index_).erase(node->entry.key);
  if (node->dead.load()) dead_.fetch_sub(1);
  if (hand_ == node) {
    hand_ = ring_.erase(node);
  } else {
    ring_.erase(node);
  }
}

void ResultCache::MakeRoom() {
  if (dead_.load() > 0) {
    for (Ring::iterator it = ring_.begin(); it != ring_.end();) {
      Ring::iterator next = std::next(it);
      if (it->dead.load()) Drop(it);
      it = next;
    }
    return;
  }
  for (;;) {
    if (hand_ == ring_.end()) hand_ = ring_.begin();
    if (!hand_->referenced.load()) break;
    hand_->referenced.store(false);
    ++hand_;
  }
  ++evictions_;
  Drop(hand_);
}

ResultCache::Counters ResultCache::counters() const {
  ReaderLock lock(mu_);
  Counters c;
  c.hits = counters_.Sum(kHits);
  c.reply_hits = counters_.Sum(kReplyHits);
  c.misses = counters_.Sum(kMisses);
  c.invalidations = counters_.Sum(kInvalidations);
  c.insertions = insertions_;
  c.evictions = evictions_;
  return c;
}

std::int64_t ResultCache::size() const {
  ReaderLock lock(mu_);
  return static_cast<std::int64_t>(ring_.size()) - dead_.load();
}

}  // namespace isis::query
