#include "query/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <span>

#include "query/eval.h"

namespace isis::query {

using sdm::EntitySet;
using sdm::kNullEntity;

namespace {

/// Prior P(atom true) for scan atoms, by operator. Pure heuristic -- only
/// the relative order matters, and only for short-circuit placement.
double ScanPrior(SetOp op) {
  switch (op) {
    case SetOp::kEqual:
      return 0.10;
    case SetOp::kWeakMatch:
      return 0.25;
    case SetOp::kSubset:
      return 0.50;
    case SetOp::kSuperset:
      return 0.25;
    case SetOp::kProperSubset:
      return 0.40;
    case SetOp::kProperSuperset:
      return 0.20;
    case SetOp::kLessEqual:
    case SetOp::kGreater:
      return 0.50;
  }
  return 0.50;
}

/// Relative per-entity cost of testing a scan atom: one map step is one
/// unit; class-extent starts pay extra for materializing the extent image
/// (amortized by the memo, but the first candidate pays it).
double ScanCost(const Atom& atom) {
  double c = 1.0 + static_cast<double>(atom.lhs.path.size()) +
             static_cast<double>(atom.rhs.path.size());
  if (atom.lhs.origin == Operand::kClassExtent) c += 2.0;
  if (atom.rhs.origin == Operand::kClassExtent) c += 2.0;
  return c;
}

bool TermMentions(const Term& term, AttributeId attr) {
  return std::find(term.path.begin(), term.path.end(), attr) !=
         term.path.end();
}

std::string FmtSel(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

}  // namespace

bool PredicateMentionsAttribute(const Predicate& pred, AttributeId attr) {
  for (const Atom& a : pred.atoms) {
    if (TermMentions(a.lhs, attr) || TermMentions(a.rhs, attr)) return true;
  }
  return false;
}

PlannedPredicate::PlannedPredicate(const sdm::Database& db,
                                   const Predicate& pred, ClassId v)
    : db_(db), pred_(pred), class_(v) {
  class_size_ = db_.schema().HasClass(v)
                    ? static_cast<std::int64_t>(db_.Members(v).size())
                    : 0;
  const bool cnf = pred_.form == NormalForm::kConjunctive;
  for (const std::vector<int>& clause : pred_.clauses) {
    if (clause.empty()) continue;  // unused worksheet window
    ClausePlan cp;
    for (int idx : clause) cp.atoms.push_back(AnalyzeAtom(idx));
    cp.probe_only = std::all_of(cp.atoms.begin(), cp.atoms.end(),
                                [](const AtomPlan& a) { return a.probe; });
    if (cnf) {
      // Clause is an OR: true unless every atom is false.
      double none = 1.0;
      for (const AtomPlan& a : cp.atoms) none *= 1.0 - a.est_selectivity;
      cp.est_selectivity = 1.0 - none;
      // Short-circuit on the first true atom: cheap, likely-true first.
      std::stable_sort(cp.atoms.begin(), cp.atoms.end(),
                       [](const AtomPlan& a, const AtomPlan& b) {
                         return a.cost / (a.est_selectivity + 1e-6) <
                                b.cost / (b.est_selectivity + 1e-6);
                       });
    } else {
      // Clause is an AND: short-circuit on the first false atom.
      double all = 1.0;
      for (const AtomPlan& a : cp.atoms) all *= a.est_selectivity;
      cp.est_selectivity = all;
      std::stable_sort(cp.atoms.begin(), cp.atoms.end(),
                       [](const AtomPlan& a, const AtomPlan& b) {
                         return a.cost / (1.0 - a.est_selectivity + 1e-6) <
                                b.cost / (1.0 - b.est_selectivity + 1e-6);
                       });
    }
    clauses_.push_back(std::move(cp));
  }
  // Clause order. Probe-only clauses run set-at-a-time before any scan, so
  // they sort first; among the rest, CNF wants the most-likely-false
  // conjunct first (ascending selectivity), DNF the most-likely-true
  // disjunct first (descending).
  std::stable_sort(clauses_.begin(), clauses_.end(),
                   [cnf](const ClausePlan& a, const ClausePlan& b) {
                     if (a.probe_only != b.probe_only) return a.probe_only;
                     return cnf ? a.est_selectivity < b.est_selectivity
                                : a.est_selectivity > b.est_selectivity;
                   });
  std::size_t cand_terms = 0;
  std::size_t self_terms = 0;
  for (const ClausePlan& cp : clauses_) {
    if (cp.probe_only) ++stats_.probe_clauses;
    for (const AtomPlan& a : cp.atoms) {
      if (a.probe) {
        ++stats_.probe_atoms;
        continue;
      }
      const Atom& atom = pred_.atoms[a.atom_index];
      for (const Term* t : {&atom.lhs, &atom.rhs}) {
        cand_terms += t->origin == Operand::kCandidate ? 1 : 0;
        self_terms += t->origin == Operand::kSelf ? 1 : 0;
      }
    }
  }
  // Scan atoms are the only TermImage callers; at most one slot per term.
  memos_.cand.reserve(cand_terms);
  memos_.self.reserve(self_terms);
}

AtomPlan PlannedPredicate::AnalyzeAtom(int atom_index) {
  AtomPlan ap;
  ap.atom_index = atom_index;
  const Atom& atom = pred_.atoms[atom_index];

  // Probe shape: `e.A <op> {c1..ck}` -- not negated, one map step on the
  // candidate, constant right side with no map. Every constant must be live
  // and non-null: the index only holds live values, while the naive scan
  // compares against the constant set verbatim, so a probe for a dead
  // constant could not be proven equivalent.
  bool probe_shape =
      !atom.negated && atom.lhs.origin == Operand::kCandidate &&
      atom.lhs.path.size() == 1 && atom.rhs.origin == Operand::kConstant &&
      atom.rhs.path.empty() && !atom.rhs.constants.empty();
  if (probe_shape) {
    for (EntityId c : atom.rhs.constants) {
      if (c == kNullEntity || !db_.HasEntity(c)) {
        probe_shape = false;
        break;
      }
    }
  }
  AttributeId attr = probe_shape ? atom.lhs.path[0] : AttributeId();
  if (probe_shape &&
      (!db_.schema().HasAttribute(attr) || !db_.ValueIndexable(attr))) {
    probe_shape = false;
  }
  if (probe_shape) {
    const sdm::AttributeDef& def = db_.schema().GetAttribute(attr);
    const std::int64_t k =
        static_cast<std::int64_t>(atom.rhs.constants.size());
    // Operator-specific rewrites (each proven equivalent because a value
    // index row exists exactly when the owner's value set contains the
    // value, and e.A of a singlevalued attribute has at most one element):
    //   ~  : image shares an element with {c..}  <=>  e in U probe(ci)
    //   )= : image contains every ci             <=>  e in ^ probe(ci)
    //   =  : singlevalued, one constant          <=>  e in probe(c)
    //   =  : singlevalued, 2+ constants          ->   false everywhere
    if (atom.op == SetOp::kWeakMatch || atom.op == SetOp::kSuperset ||
        (atom.op == SetOp::kEqual && !def.multivalued)) {
      ap.probe = true;
      ap.always_empty = atom.op == SetOp::kEqual && !def.multivalued && k > 1;
      const std::int64_t distinct = db_.ValueIndexDistinctValues(attr);
      const std::int64_t postings = db_.ValueIndexPostings(attr);
      const double avg_block =
          distinct > 0 ? static_cast<double>(postings) / distinct : 0.0;
      const double n = static_cast<double>(std::max<std::int64_t>(
          class_size_, 1));
      double est = 0.0;
      if (ap.always_empty) {
        est = 0.0;
      } else if (atom.op == SetOp::kWeakMatch) {
        est = std::min(n, avg_block * k);
      } else if (atom.op == SetOp::kSuperset) {
        // Intersection of k blocks, assuming independence.
        est = n * std::pow(std::min(1.0, avg_block / n), k);
      } else {
        est = avg_block;
      }
      ap.est_cardinality = static_cast<std::int64_t>(est);
      ap.est_selectivity = std::min(1.0, est / n);
      ap.cost = 0.1;  // a point probe is one hash lookup per constant
      return ap;
    }
  }
  ap.probe = false;
  double s = ScanPrior(atom.op);
  ap.est_selectivity = atom.negated ? 1.0 - s : s;
  ap.cost = ScanCost(atom);
  return ap;
}

const EntitySet& PlannedPredicate::AtomMatched(AtomPlan* ap) {
  if (ap->matched_built) return ap->matched;
  ap->matched_built = true;
  const Atom& atom = pred_.atoms[ap->atom_index];
  AttributeId attr = atom.lhs.path[0];
  if (ap->always_empty) {
    // leave matched empty
  } else if (atom.op == SetOp::kWeakMatch) {
    for (EntityId c : atom.rhs.constants) {
      const EntitySet& block = db_.ValueIndexProbe(attr, c);
      ap->matched.insert(block.begin(), block.end());
    }
  } else if (atom.op == SetOp::kSuperset) {
    bool first = true;
    for (EntityId c : atom.rhs.constants) {
      const EntitySet& block = db_.ValueIndexProbe(attr, c);
      if (first) {
        ap->matched = block;
        first = false;
      } else {
        EntitySet kept;
        std::set_intersection(ap->matched.begin(), ap->matched.end(),
                              block.begin(), block.end(),
                              std::inserter(kept, kept.end()));
        ap->matched = std::move(kept);
      }
      if (ap->matched.empty()) break;
    }
  } else {  // singlevalued equality against one constant
    ap->matched = db_.ValueIndexProbe(attr, *atom.rhs.constants.begin());
  }
  ap->actual_cardinality = static_cast<std::int64_t>(ap->matched.size());
  return ap->matched;
}

const EntitySet& PlannedPredicate::ClauseMatched(ClausePlan* cp) {
  if (cp->matched_built) return cp->matched;
  cp->matched_built = true;
  const bool cnf = pred_.form == NormalForm::kConjunctive;
  bool first = true;
  for (AtomPlan& ap : cp->atoms) {
    const EntitySet& m = AtomMatched(&ap);
    if (cnf) {
      // OR of probe atoms: union.
      cp->matched.insert(m.begin(), m.end());
    } else if (first) {
      cp->matched = m;
      first = false;
    } else {
      // AND of probe atoms: intersection.
      EntitySet kept;
      std::set_intersection(cp->matched.begin(), cp->matched.end(),
                            m.begin(), m.end(),
                            std::inserter(kept, kept.end()));
      cp->matched = std::move(kept);
      if (cp->matched.empty()) break;
    }
  }
  return cp->matched;
}

bool PlannedPredicate::TestProbeAtom(const AtomPlan& ap, EntityId e) {
  if (ap.matched_built) return ap.matched.count(e) > 0;
  if (ap.always_empty) return false;
  const Atom& atom = pred_.atoms[ap.atom_index];
  AttributeId attr = atom.lhs.path[0];
  if (atom.op == SetOp::kSuperset) {
    for (EntityId c : atom.rhs.constants) {
      if (db_.ValueIndexProbe(attr, c).count(e) == 0) return false;
    }
    return true;
  }
  // Weak match or singlevalued singleton equality: member of any block.
  for (EntityId c : atom.rhs.constants) {
    if (db_.ValueIndexProbe(attr, c).count(e) > 0) return true;
  }
  return false;
}

const EntitySet& PlannedPredicate::TermImage(const Term& term, EntityId e,
                                             EntityId x) {
  switch (term.origin) {
    case Operand::kCandidate:
      return PathImage(&memos_.cand, term.path, e);
    case Operand::kSelf:
      return PathImage(&memos_.self, term.path, x);
    case Operand::kConstant:
    case Operand::kClassExtent: {
      auto it = memos_.fixed.find(&term);
      if (it == memos_.fixed.end()) {
        const EntitySet& start = term.origin == Operand::kConstant
                                     ? term.constants
                                     : db_.Members(term.extent_class);
        it = memos_.fixed.emplace(&term, db_.EvaluateMap(start, term.path))
                 .first;
      }
      return it->second;
    }
  }
  static const EntitySet kEmpty;
  return kEmpty;
}

const EntitySet& PlannedPredicate::PathImage(
    std::vector<TermMemos::Slot>* slots, const std::vector<AttributeId>& path,
    EntityId root) {
  TermMemos::Slot* slot = nullptr;
  for (TermMemos::Slot& s : *slots) {
    if (s.path == &path || *s.path == path) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) {
    slot = &slots->emplace_back();  // Within the reserve: nothing moves.
    slot->path = &path;
  } else if (slot->root == root) {
    return slot->image;
  }
  slot->root = root;
  db_.EvaluateMap(std::span<const EntityId>(&root, 1), path, &slot->image,
                  &memos_.scratch);
  return slot->image;
}

bool PlannedPredicate::TestScanAtom(const Atom& atom, EntityId e, EntityId x) {
  const EntitySet& lhs = TermImage(atom.lhs, e, x);
  const EntitySet& rhs = TermImage(atom.rhs, e, x);
  bool truth = Evaluator(db_).Compare(lhs, atom.op, rhs);
  return atom.negated ? !truth : truth;
}

bool PlannedPredicate::TestClause(ClausePlan* cp, EntityId e, EntityId x) {
  const bool cnf = pred_.form == NormalForm::kConjunctive;
  for (AtomPlan& ap : cp->atoms) {
    bool t = ap.probe ? TestProbeAtom(ap, e)
                      : TestScanAtom(pred_.atoms[ap.atom_index], e, x);
    if (cnf && t) return true;    // OR clause: first true wins
    if (!cnf && !t) return false;  // AND clause: first false kills
  }
  return !cnf;
}

bool PlannedPredicate::Test(EntityId e, EntityId x) {
  const bool cnf = pred_.form == NormalForm::kConjunctive;
  for (ClausePlan& cp : clauses_) {
    bool t = TestClause(&cp, e, x);
    if (cnf && !t) return false;
    if (!cnf && t) return true;
  }
  return cnf;
}

EntitySet PlannedPredicate::Evaluate(const EntitySet& candidates, EntityId x) {
  stats_.candidates_in = static_cast<std::int64_t>(candidates.size());
  stats_.after_prefilter = stats_.candidates_in;
  stats_.scanned = 0;

  const bool cnf = pred_.form == NormalForm::kConjunctive;
  bool any_residual = false;
  for (const ClausePlan& cp : clauses_) {
    if (!cp.probe_only) any_residual = true;
  }

  // The scans below walk `candidates` by index, not by iterator: a naming
  // read can intern a name string, which appends to STRING's member set,
  // and `candidates` may be that set. An append moves no element, and the
  // scan reaches the new one, as it would have in a tree set.
  EntitySet out;
  if (cnf) {
    // Stage 1: probe-only conjuncts shrink the candidate set directly, each
    // by a linear merge into the other of two buffers.
    EntitySet working;
    EntitySet next;
    const EntitySet* cur = &candidates;
    for (ClausePlan& cp : clauses_) {
      if (!cp.probe_only) continue;
      const EntitySet& matched = ClauseMatched(&cp);
      next.clear();
      std::set_intersection(cur->begin(), cur->end(), matched.begin(),
                            matched.end(), std::inserter(next, next.end()));
      std::swap(working, next);
      cur = &working;
      if (working.empty()) break;
    }
    stats_.after_prefilter = static_cast<std::int64_t>(cur->size());
    // Stage 2: residual conjuncts over the survivors.
    if (!any_residual) {
      out = (cur == &candidates) ? candidates : std::move(working);
    } else {
      for (std::size_t i = 0; i < cur->size(); ++i) {
        const EntityId e = cur->begin()[i];
        ++stats_.scanned;
        bool ok = true;
        for (ClausePlan& cp : clauses_) {
          if (cp.probe_only) continue;  // already applied set-at-a-time
          if (!TestClause(&cp, e, x)) {
            ok = false;
            break;
          }
        }
        if (ok) out.insert(out.end(), e);
      }
    }
  } else {
    // Stage 1: probe-only disjuncts accept their matches outright.
    EntitySet accepted;
    for (ClausePlan& cp : clauses_) {
      if (!cp.probe_only) continue;
      const EntitySet& matched = ClauseMatched(&cp);
      for (EntityId e : matched) {
        if (candidates.count(e) > 0) accepted.insert(e);
      }
    }
    // Stage 2: entities not already accepted get the residual disjuncts,
    // in candidate order, so every insert appends.
    if (!any_residual) {
      out = std::move(accepted);
    } else {
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const EntityId e = candidates.begin()[i];
        bool in = accepted.count(e) > 0;
        if (!in) {
          ++stats_.scanned;
          for (ClausePlan& cp : clauses_) {
            if (cp.probe_only) continue;
            if (TestClause(&cp, e, x)) {
              in = true;
              break;
            }
          }
        }
        if (in) out.insert(out.end(), e);
      }
      stats_.after_prefilter = stats_.candidates_in;
    }
  }
  stats_.result = static_cast<std::int64_t>(out.size());
  return out;
}

std::string PlannedPredicate::Explain() const {
  std::string out;
  const bool cnf = pred_.form == NormalForm::kConjunctive;
  out += "plan";
  if (db_.schema().HasClass(class_)) {
    out += " class=" + db_.schema().GetClass(class_).name;
  }
  out += cnf ? " form=and-of-ors" : " form=or-of-ands";
  out += " clauses=" + std::to_string(clauses_.size());
  out += " probe-atoms=" + std::to_string(stats_.probe_atoms);
  out += "\n";
  int ci = 0;
  for (const ClausePlan& cp : clauses_) {
    ++ci;
    out += "  clause " + std::to_string(ci) + ": ";
    out += cp.probe_only ? "probe" : "scan";
    out += " est-sel=" + FmtSel(cp.est_selectivity) + "\n";
    for (const AtomPlan& ap : cp.atoms) {
      const Atom& atom = pred_.atoms[ap.atom_index];
      out += "    ";
      out += ap.probe ? (ap.always_empty ? "probe(empty) " : "probe ")
                      : "scan ";
      out += AtomToString(db_, atom);
      out += " est-sel=" + FmtSel(ap.est_selectivity);
      if (ap.probe && ap.est_cardinality >= 0) {
        out += " est=" + std::to_string(ap.est_cardinality);
      }
      if (ap.actual_cardinality >= 0) {
        out += " actual=" + std::to_string(ap.actual_cardinality);
      }
      out += "\n";
    }
  }
  if (stats_.candidates_in > 0 || stats_.result > 0) {
    out += "  candidates=" + std::to_string(stats_.candidates_in) +
           " prefiltered=" + std::to_string(stats_.after_prefilter) +
           " scanned=" + std::to_string(stats_.scanned) +
           " result=" + std::to_string(stats_.result) + "\n";
  }
  return out;
}

}  // namespace isis::query
