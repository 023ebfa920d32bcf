/// \file bench_predicates.cpp
/// \brief Planned vs naive predicate evaluation on scaled_music.
///
/// Times the same predicate through the index-aware planner (the default
/// Evaluator path: value-index probes, selectivity-ordered clauses, term
/// memo) and through the naive per-entity scan (planner disabled), and
/// emits one machine-readable JSON line per
/// (op, scale), in the bench_store format:
///
///   {"name":"predicate_planner","op":"equality_single","scale":64,
///    "result_size":...,"probes":...,"prefiltered":...,"scanned":...,
///    "planned_ns":...,"naive_ns":...,"speedup":...,
///    "planned_allocs_per_eval":...,"naive_allocs_per_eval":...}
///
/// ops:
///   equality_single    e.family = {f}          singlevalued equality probe
///   membership_multi   e.plays )= {i}          inverted-index membership
///   weakmatch_multi    e.plays ~ {i1,i2}       union of two probe blocks
///   conjunctive_mixed  (e.plays ~ {i1,i2}) and not (e.union = {true})
///                      probe prefilter + residual scan of survivors
///                      (the negated conjunct is not probe-eligible)
///   disjunctive_probe  (e.family = {f1}) or (e.family = {f2})
///                      both disjuncts answered set-at-a-time
///
/// `probes` counts value-index probes issued per planned run,
/// `prefiltered`/`scanned` are the planner's own stage counters, and
/// `*_allocs_per_eval` the heap allocations one evaluation makes, counted
/// by this binary's own replacement of the global operator new. Both
/// paths' results are compared every iteration; a mismatch aborts. A
/// custom main (not Google Benchmark): the JSON-lines contract is the
/// point, and one process run doubles as the CI smoke test.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "datasets/scaled_music.h"
#include "query/eval.h"
#include "query/plan.h"

namespace {
/// Every heap allocation of this process (see operator new below).
std::atomic<long long> g_allocs{0};
}  // namespace

// Not inlined: g++ would otherwise see malloc() and free() at the call
// sites of `new` and `delete` and warn that they are mismatched.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;
using isis::ClassId;
using isis::EntityId;
using isis::datasets::ResolveScaledMusic;
using isis::datasets::ScaledMusicHandles;
using isis::query::Atom;
using isis::query::Evaluator;
using isis::query::NormalForm;
using isis::query::PlannedPredicate;
using isis::query::Predicate;
using isis::query::SetOp;
using isis::query::Term;
using isis::sdm::Database;
using isis::sdm::EntitySet;

double NsSince(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

void RunCase(const char* op, const Database& db, const Predicate& pred,
             ClassId v, int scale, int iters) {
  Evaluator planned(db);
  Evaluator naive(db);
  naive.set_use_planner(false);

  // Warm both paths once: builds the value indexes outside the timed loop
  // (they are maintained incrementally from then on) and checks agreement.
  EntitySet want = naive.EvaluateSubclass(pred, v);
  if (planned.EvaluateSubclass(pred, v) != want) std::abort();

  const std::int64_t probes_before = db.stats().value_index_probes;
  long long allocs_before = g_allocs.load();
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (planned.EvaluateSubclass(pred, v).size() != want.size()) std::abort();
  }
  const double planned_ns = NsSince(t0) / iters;
  const double planned_allocs =
      static_cast<double>(g_allocs.load() - allocs_before) / iters;
  const long long probes = static_cast<long long>(
      (db.stats().value_index_probes - probes_before) / iters);

  allocs_before = g_allocs.load();
  t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (naive.EvaluateSubclass(pred, v).size() != want.size()) std::abort();
  }
  const double naive_ns = NsSince(t0) / iters;
  const double naive_allocs =
      static_cast<double>(g_allocs.load() - allocs_before) / iters;

  // Stage counters from one instrumented run.
  PlannedPredicate plan(db, pred, v);
  if (plan.Evaluate(db.Members(v)) != want) std::abort();

  std::printf(
      "{\"name\":\"predicate_planner\",\"op\":\"%s\",\"scale\":%d,"
      "\"result_size\":%lld,\"probes\":%lld,\"prefiltered\":%lld,"
      "\"scanned\":%lld,\"planned_ns\":%.0f,\"naive_ns\":%.0f,"
      "\"speedup\":%.2f,\"planned_allocs_per_eval\":%.1f,"
      "\"naive_allocs_per_eval\":%.1f}\n",
      op, scale, static_cast<long long>(want.size()), probes,
      static_cast<long long>(plan.stats().after_prefilter),
      static_cast<long long>(plan.stats().scanned), planned_ns, naive_ns,
      naive_ns / planned_ns, planned_allocs, naive_allocs);
  std::fflush(stdout);
}

Predicate OneAtom(Atom a, NormalForm form = NormalForm::kConjunctive) {
  Predicate p;
  p.form = form;
  p.AddAtom(std::move(a), 0);
  return p;
}

void RunScale(int scale) {
  auto ws = isis::datasets::BuildScaledMusic(scale, /*seed=*/7);
  const Database& db = ws->db();
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  const int iters = scale <= 64 ? 50 : 10;

  std::vector<EntityId> families(db.Members(h.families).begin(),
                                 db.Members(h.families).end());
  std::vector<EntityId> instruments(db.Members(h.instruments).begin(),
                                    db.Members(h.instruments).end());

  {
    Atom a;
    a.lhs = Term::Candidate({h.family});
    a.op = SetOp::kEqual;
    a.rhs = Term::Constant({families[0]});
    RunCase("equality_single", db, OneAtom(a), h.instruments, scale, iters);
  }
  {
    Atom a;
    a.lhs = Term::Candidate({h.plays});
    a.op = SetOp::kSuperset;
    a.rhs = Term::Constant({instruments[0]});
    RunCase("membership_multi", db, OneAtom(a), h.musicians, scale, iters);
  }
  {
    Atom a;
    a.lhs = Term::Candidate({h.plays});
    a.op = SetOp::kWeakMatch;
    a.rhs = Term::Constant({instruments[0], instruments[1]});
    RunCase("weakmatch_multi", db, OneAtom(a), h.musicians, scale, iters);
  }
  {
    Predicate p;
    Atom probe;
    probe.lhs = Term::Candidate({h.plays});
    probe.op = SetOp::kWeakMatch;
    probe.rhs = Term::Constant({instruments[0], instruments[1]});
    p.AddAtom(probe, 0);
    Atom scan;
    scan.lhs = Term::Candidate({h.union_attr});
    scan.op = SetOp::kEqual;
    scan.negated = true;
    scan.rhs = Term::Constant({db.InternBoolean(true)});
    p.AddAtom(scan, 1);
    RunCase("conjunctive_mixed", db, p, h.musicians, scale, iters);
  }
  {
    Predicate p;
    p.form = NormalForm::kDisjunctive;
    Atom f1;
    f1.lhs = Term::Candidate({h.family});
    f1.op = SetOp::kEqual;
    f1.rhs = Term::Constant({families[0]});
    p.AddAtom(f1, 0);
    Atom f2;
    f2.lhs = Term::Candidate({h.family});
    f2.op = SetOp::kEqual;
    f2.rhs = Term::Constant({families[1]});
    p.AddAtom(f2, 1);
    RunCase("disjunctive_probe", db, p, h.instruments, scale, iters);
  }
}

}  // namespace

int main() {
  for (int scale : {16, 64, 256}) RunScale(scale);
  return 0;
}
