/// \file bench_groupings.cpp
/// \brief Experiment A1: what a grouping costs to read and to keep current.
///
/// The paper requires groupings to be "completely determined from the
/// parent class and an attribute". The engine stores nothing per grouping:
/// a read walks the attribute's value index (value -> owners, kept current
/// on every write for the query planner anyway) and restricts each posting
/// list to the parent's members. So a write pays only the index upkeep,
/// and a read pays O(postings). This bench measures both against scale on
/// scaled_music's `by_family` grouping (instruments = max(4, 2 * scale)).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "datasets/scaled_music.h"

namespace {

using isis::EntityId;
using isis::Rng;
using isis::datasets::BuildScaledMusic;
using isis::datasets::ResolveScaledMusic;
using isis::datasets::ScaledMusicHandles;
using isis::sdm::Database;

/// A scaled_music workspace with its `family` index built, plus the
/// instruments and families to draw writes from.
struct Fixture {
  explicit Fixture(int scale)
      : ws(BuildScaledMusic(scale, /*seed=*/7)),
        h(ResolveScaledMusic(*ws)),
        db(ws->db()),
        insts(db.Members(h.instruments).begin(),
              db.Members(h.instruments).end()),
        fams(db.Members(h.families).begin(), db.Members(h.families).end()) {
    (void)db.GroupingBlocks(h.by_family);  // build the value index
  }

  void RandomWrite(Rng* rng) {
    benchmark::DoNotOptimize(db.SetSingle(insts[rng->Below(insts.size())],
                                          h.family,
                                          fams[rng->Below(fams.size())])
                                 .ok());
  }

  std::unique_ptr<isis::query::Workspace> ws;
  ScaledMusicHandles h;
  Database& db;
  std::vector<EntityId> insts;
  std::vector<EntityId> fams;
};

/// One `family` write: the value-index upkeep is the grouping's whole
/// maintenance cost.
void BM_GroupingWrite(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) f.RandomWrite(&rng);
  state.SetItemsProcessed(state.iterations());
  state.counters["instruments"] = static_cast<double>(f.insts.size());
}
BENCHMARK(BM_GroupingWrite)->RangeMultiplier(4)->Range(1, 256);

/// The full block list, as a grouping page render reads it.
void BM_GroupingReadBlocks(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.db.GroupingBlocks(f.h.by_family).size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["instruments"] = static_cast<double>(f.insts.size());
}
BENCHMARK(BM_GroupingReadBlocks)->RangeMultiplier(4)->Range(1, 256);

/// One block by its index, as `follow` on a grouping page reads it.
void BM_GroupingReadBlock(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  Rng rng(9);
  for (auto _ : state) {
    EntityId fam = f.fams[rng.Below(f.fams.size())];
    benchmark::DoNotOptimize(
        f.db.GetGroupingBlock(f.h.by_family, fam).size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["instruments"] = static_cast<double>(f.insts.size());
}
BENCHMARK(BM_GroupingReadBlock)->RangeMultiplier(4)->Range(1, 256);

/// Edit-then-browse: one write followed by one full block-list read.
void BM_GroupingWriteThenRead(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  Rng rng(99);
  for (auto _ : state) {
    f.RandomWrite(&rng);
    benchmark::DoNotOptimize(f.db.GroupingBlocks(f.h.by_family).size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["instruments"] = static_cast<double>(f.insts.size());
}
BENCHMARK(BM_GroupingWriteThenRead)->RangeMultiplier(4)->Range(1, 256);

}  // namespace

BENCHMARK_MAIN();
