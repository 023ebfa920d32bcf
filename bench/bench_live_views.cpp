/// \file bench_live_views.cpp
/// \brief Live-view maintenance vs whole-catalog recomputation.
///
/// The seed's only way to keep stored derived subclasses and derived
/// attributes fresh was Workspace::ReevaluateAll after every edit — a full
/// scan of every view. The live engine maintains the same state from
/// mutation deltas. This bench applies identical point-mutation streams
/// (toggling a random musician's `plays`) to scaled_music databases at
/// several scales and times both strategies end to end, emitting one
/// machine-readable JSON line per configuration:
///
///   {"name":"live_views","mode":"incremental","scale":64,"ns_per_op":...}
///
/// plus the engine's per-view counters for the incremental runs. The bench
/// also checks itself: at each scale both arms must end in the same state
/// (store::Save of each), or it exits 1. A custom main (not Google
/// Benchmark): the recompute arm at large scales is far too slow for
/// statistical repetition, and the JSON-lines contract is the point.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/scaled_music.h"
#include "live/engine.h"
#include "query/workspace.h"
#include "store/serializer.h"

namespace {

using isis::AttributeId;
using isis::ClassId;
using isis::EntityId;
using isis::Rng;
using isis::datasets::BuildScaledMusic;
using isis::datasets::ResolveScaledMusic;
using isis::datasets::ScaledMusicHandles;
using isis::query::Atom;
using isis::query::AttributeDerivation;
using isis::query::Predicate;
using isis::query::SetOp;
using isis::query::Term;
using isis::query::Workspace;
using isis::sdm::EntitySet;
using isis::sdm::Membership;

/// scaled_music ships no derived views; install the bench's catalog: a
/// derived subclass over a constant instrument set, a view-feeds-view
/// subclass chain, a two-step derived attribute, and one constraint (not a
/// view: neither arm maintains it, a check reads the data on demand).
void DefineViews(Workspace* ws, const ScaledMusicHandles& h) {
  isis::sdm::Database& db = ws->db();
  // Instruments of family0 stand in for the paper's strings.
  EntitySet strings;
  for (EntityId in : db.Members(h.instruments)) {
    if (db.NameOf(db.GetSingle(in, h.family)) == "family0") {
      strings.insert(in);
    }
  }
  ClassId play_strings = *db.CreateSubclass("play_strings", h.musicians,
                                            Membership::kEnumerated);
  {
    Predicate p;
    Atom a;
    a.lhs = Term::Candidate({h.plays});
    a.op = SetOp::kWeakMatch;
    a.rhs = Term::Constant(strings);
    p.AddAtom(a, 0);
    if (!ws->DefineSubclassMembership(play_strings, p).ok()) std::abort();
  }
  ClassId string_groups = *db.CreateSubclass("string_groups", h.music_groups,
                                             Membership::kEnumerated);
  {
    Predicate p;
    Atom a;
    a.lhs = Term::Candidate({h.members});
    a.op = SetOp::kSubset;
    a.rhs = Term::ClassExtent(play_strings);
    p.AddAtom(a, 0);
    if (!ws->DefineSubclassMembership(string_groups, p).ok()) std::abort();
  }
  AttributeId group_instruments = *db.CreateAttribute(
      h.music_groups, "group_instruments", h.instruments, true);
  if (!ws->DefineAttributeDerivation(
            group_instruments,
            AttributeDerivation::Assign(Term::Self({h.members, h.plays})))
           .ok()) {
    std::abort();
  }
  {
    Predicate c;
    Atom a;
    a.lhs = Term::Candidate({h.members});
    a.op = SetOp::kWeakMatch;
    a.rhs = Term::ClassExtent(h.musicians);
    c.AddAtom(a, 0);
    if (!ws->DefineConstraint("groups_nonempty", h.music_groups, c).ok()) {
      std::abort();
    }
  }
}

/// Runs `ops` random plays-toggles; keeps every view fresh either through an
/// attached engine or by ReevaluateAll after each mutation. Returns ns/op;
/// `*saved` receives store::Save of the final state.
double RunConfig(int scale, bool incremental, int ops, std::string* saved) {
  auto ws = BuildScaledMusic(scale, /*seed=*/7);
  ScaledMusicHandles h = ResolveScaledMusic(*ws);
  DefineViews(ws.get(), h);
  isis::sdm::Database& db = ws->db();
  std::vector<EntityId> mus(db.Members(h.musicians).begin(),
                            db.Members(h.musicians).end());
  std::vector<EntityId> insts(db.Members(h.instruments).begin(),
                              db.Members(h.instruments).end());
  std::unique_ptr<isis::live::LiveViewEngine> engine;
  if (incremental) {
    engine = std::make_unique<isis::live::LiveViewEngine>(ws.get());
  }

  Rng rng(scale * 1000003u + 17);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    EntityId m = mus[rng.Below(mus.size())];
    EntityId in = insts[rng.Below(insts.size())];
    if (db.GetMulti(m, h.plays).count(in) > 0) {
      (void)db.RemoveFromMulti(m, h.plays, in);
    } else {
      (void)db.AddToMulti(m, h.plays, in);
    }
    if (!incremental) (void)ws->ReevaluateAll();
  }
  auto t1 = std::chrono::steady_clock::now();
  *saved = isis::store::Save(*ws);

  if (engine != nullptr) {
    for (const isis::live::ViewStats& vs : engine->AllViewStats()) {
      std::printf(
          "{\"name\":\"live_views_counters\",\"scale\":%d,\"view\":\"%s\","
          "\"deltas_applied\":%lld,\"entities_retested\":%lld,"
          "\"full_recomputes\":%lld}\n",
          scale, vs.name.c_str(),
          static_cast<long long>(vs.deltas_applied),
          static_cast<long long>(vs.entities_retested),
          static_cast<long long>(vs.full_recomputes));
    }
  }
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         ops;
}

}  // namespace

int main() {
  const int kOps = 100;
  int diverged = 0;
  for (int scale : {4, 16, 64}) {
    std::string saved[2];  // incremental, recompute
    for (bool incremental : {true, false}) {
      double ns =
          RunConfig(scale, incremental, kOps, &saved[incremental ? 0 : 1]);
      std::printf(
          "{\"name\":\"live_views\",\"mode\":\"%s\",\"scale\":%d,"
          "\"ns_per_op\":%.0f}\n",
          incremental ? "incremental" : "recompute", scale, ns);
      std::fflush(stdout);
    }
    // Same database, same mutation stream: the arms must agree.
    if (saved[0] != saved[1]) {
      std::fprintf(stderr,
                   "bench_live_views: at scale %d the incremental arm's final "
                   "state differs from the recompute arm's\n",
                   scale);
      ++diverged;
    }
  }
  return diverged == 0 ? 0 : 1;
}
