/// \file bench_render.cpp
/// \brief Experiment A3b: view rendering cost for each of the four views as
/// the schema/data grows — the per-interaction latency of the interface —
/// the byte passes that turn a rendered screen into a server reply (the
/// BM_Reply rows), and a session's render along the server benchmark's
/// gesture walk (BM_RenderGestureWalk), timed and its heap allocations
/// counted per view level.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "datasets/synthetic.h"
#include "input/event.h"
#include "query/parser.h"
#include "server/proto.h"
#include "store/crc32.h"
#include "ui/controller.h"
#include "ui/views.h"

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

using isis::AttributeId;
using isis::ClassId;
using isis::datasets::BuildScaledMusic;
using isis::datasets::BuildSynthetic;
using isis::datasets::SyntheticParams;
using isis::ui::DataPage;
using isis::ui::Level;
using isis::ui::RenderContext;
using isis::ui::SessionState;

/// Forest view over a schema with `range` baseclass trees.
void BM_RenderForest(benchmark::State& state) {
  SyntheticParams params;
  params.baseclasses = static_cast<int>(state.range(0));
  params.subclass_depth = 3;
  params.entities_per_class = 10;
  auto ws = BuildSynthetic(params);
  SessionState st;
  st.selection = isis::ui::SchemaSelection::Class(
      *ws->db().schema().FindClass("B0"));
  RenderContext ctx{*ws, st, ""};
  isis::ui::Screen screen;
  for (auto _ : state) {
    RenderForestView(ctx, &screen);
    benchmark::DoNotOptimize(screen.hits.size());
  }
  state.counters["classes"] =
      static_cast<double>(ws->db().schema().AllClasses().size());
}
BENCHMARK(BM_RenderForest)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMicrosecond);

/// Semantic network of a class with `range` attributes.
void BM_RenderNetwork(benchmark::State& state) {
  SyntheticParams params;
  params.attributes_per_class = static_cast<int>(state.range(0));
  params.entities_per_class = 10;
  auto ws = BuildSynthetic(params);
  SessionState st;
  st.level = Level::kSemanticNetwork;
  st.selection = isis::ui::SchemaSelection::Class(
      *ws->db().schema().FindClass("B0"));
  RenderContext ctx{*ws, st, ""};
  isis::ui::Screen screen;
  for (auto _ : state) {
    RenderNetworkView(ctx, &screen);
    benchmark::DoNotOptimize(screen.hits.size());
  }
}
BENCHMARK(BM_RenderNetwork)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMicrosecond);

/// Data level with a stack of `range` pages.
void BM_RenderDataPages(benchmark::State& state) {
  auto ws = BuildScaledMusic(16);
  const isis::sdm::Schema& s = ws->db().schema();
  SessionState st;
  st.level = Level::kDataLevel;
  ClassId musicians = *s.FindClass("musicians");
  ClassId instruments = *s.FindClass("instruments");
  AttributeId plays = *s.FindAttribute(musicians, "plays");
  for (int i = 0; i < state.range(0); ++i) {
    DataPage page;
    page.cls = (i % 2 == 0) ? musicians : instruments;
    page.followed = (i % 2 == 0) ? plays : isis::AttributeId();
    page.selected = ws->db().Members(page.cls);
    st.pages.push_back(page);
  }
  RenderContext ctx{*ws, st, ""};
  isis::ui::Screen screen;
  for (auto _ : state) {
    RenderDataView(ctx, &screen);
    benchmark::DoNotOptimize(screen.hits.size());
  }
}
BENCHMARK(BM_RenderDataPages)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMicrosecond);

/// The worksheet with a full predicate on display.
void BM_RenderWorksheet(benchmark::State& state) {
  auto ws = isis::datasets::BuildInstrumentalMusic();
  const isis::sdm::Schema& s = ws->db().schema();
  SessionState st;
  st.level = Level::kPredicateWorksheet;
  st.worksheet.target = isis::ui::WorksheetState::Target::kMembership;
  st.worksheet.target_class = *s.FindClass("play_strings");
  // Give it the stored predicate to render.
  st.worksheet.pred = *ws->SubclassPredicate(*s.FindClass("play_strings"));
  st.worksheet.current_atom = 0;
  RenderContext ctx{*ws, st, ""};
  isis::ui::Screen screen;
  for (auto _ : state) {
    RenderWorksheetView(ctx, &screen);
    benchmark::DoNotOptimize(screen.hits.size());
  }
}
BENCHMARK(BM_RenderWorksheet)->Unit(benchmark::kMicrosecond);

/// Screenshot serialization (what tests and figure dumps pay).
void BM_CanvasToString(benchmark::State& state) {
  auto ws = isis::datasets::BuildInstrumentalMusic();
  SessionState st;
  isis::ui::Screen screen;
  RenderForestView(RenderContext{*ws, st, ""}, &screen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(screen.canvas.ToString().size());
  }
}
BENCHMARK(BM_CanvasToString);

// The byte passes of a gesture reply, over the screen a server session
// sends after following `plays` from one musician at scale 4 (~5.3 KB):
// the canvas to text, the text escaped and joined into a kScreen payload,
// and the payload framed (CRC-32 on encode) and decoded (CRC-32 again).

/// The data-level session behind the reply rows.
std::unique_ptr<isis::ui::SessionController> ReplySession() {
  auto session = std::make_unique<isis::ui::SessionController>(
      BuildScaledMusic(4));
  for (const char* line :
       {"pick class:musicians", "cmd view contents", "pick member:musician3",
        "cmd follow", "pick attr:plays"}) {
    isis::Result<isis::input::Event> ev = isis::input::DecodeEvent(line);
    if (!ev.ok() || !session->HandleEvent(*ev).ok()) std::abort();
  }
  return session;
}

void BM_ReplyToString(benchmark::State& state) {
  auto session = ReplySession();
  const isis::gfx::Canvas& canvas = session->Render().canvas;
  for (auto _ : state) {
    std::string text = canvas.ToString();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * canvas.width() *
                          canvas.height());
}
BENCHMARK(BM_ReplyToString)->Unit(benchmark::kMicrosecond);

void BM_ReplyEscape(benchmark::State& state) {
  auto session = ReplySession();
  const std::string text = session->Render().canvas.ToString();
  for (auto _ : state) {
    std::string escaped = isis::Escape(text);
    benchmark::DoNotOptimize(escaped.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReplyEscape)->Unit(benchmark::kMicrosecond);

/// Escape plus the join, as the server builds a kScreen payload.
void BM_ReplyJoinFields(benchmark::State& state) {
  auto session = ReplySession();
  const std::string text = session->Render().canvas.ToString();
  for (auto _ : state) {
    std::string payload = isis::server::JoinFields({session->message(), text});
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ReplyJoinFields)->Unit(benchmark::kMicrosecond);

void BM_ReplyCrc32(benchmark::State& state) {
  auto session = ReplySession();
  const std::string payload = isis::server::JoinFields(
      {session->message(), session->Render().canvas.ToString()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(isis::store::Crc32(payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ReplyCrc32)->Unit(benchmark::kMicrosecond);

/// One kScreen frame onto the wire and back: a CRC on each side.
void BM_ReplyFrameRoundTrip(benchmark::State& state) {
  auto session = ReplySession();
  isis::server::Frame frame;
  frame.type = isis::server::MsgType::kScreen;
  frame.seq = 7;
  frame.payload = isis::server::JoinFields(
      {session->message(), session->Render().canvas.ToString()});
  for (auto _ : state) {
    std::string wire = isis::server::EncodeFrame(frame);
    isis::server::Frame out;
    std::size_t consumed = 0;
    if (isis::server::DecodeFrame(wire, &out, &consumed) !=
        isis::server::DecodeResult::kOk) {
      state.SkipWithError("frame did not decode");
      break;
    }
    benchmark::DoNotOptimize(out.payload.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.payload.size()));
}
BENCHMARK(BM_ReplyFrameRoundTrip)->Unit(benchmark::kMicrosecond);

/// gesture_durable's stored derived subclasses in the server benchmark,
/// "name|parent|predicate": the live engine keeps them fresh on every
/// (re)assign.
const char* const kGestureViews[] = {
    "play_inst0|musicians|e.plays ]= {inst0}",
    "unionists|musicians|e.union = {true}",
    "big_groups|music_groups|e.size > {3}",
    "inst0_groups|music_groups|e.members.plays ]= {inst0}",
};

/// One walk of the server benchmark's gesture_durable workload at scale 4
/// (64 musicians, 8 instruments), in sending order: pick musicians, view
/// contents, pan to musician i, pick it, follow, pick plays, toggle
/// instrument j, (re)assign, pop twice.
std::vector<isis::input::Event> GestureWalk(isis::Rng* rng) {
  using isis::input::CommandEvent;
  using isis::input::NamedPickEvent;
  const int i = static_cast<int>(rng->Below(64));
  const int j = static_cast<int>(rng->Below(8));
  std::vector<isis::input::Event> walk;
  walk.push_back(NamedPickEvent{"class:musicians"});
  walk.push_back(CommandEvent{"view contents"});
  for (int pan = 0; pan < i / 10; ++pan) {
    walk.push_back(CommandEvent{"members down"});
  }
  walk.push_back(NamedPickEvent{"member:musician" + std::to_string(i)});
  walk.push_back(CommandEvent{"follow"});
  walk.push_back(NamedPickEvent{"attr:plays"});
  walk.push_back(NamedPickEvent{"member:inst" + std::to_string(j)});
  walk.push_back(CommandEvent{"(re)assign att. value"});
  walk.push_back(CommandEvent{"pop"});
  walk.push_back(CommandEvent{"pop"});
  return walk;
}

/// One gesture per iteration, through a SessionController: an event of the
/// walk, then the session's Render(). Only the Render() is timed and its
/// heap allocations counted, per view level of the screen it draws:
/// `<level>_ns` and `<level>_allocs` per render, `<level>_renders`.
void BM_RenderGestureWalk(benchmark::State& state) {
  auto ws = BuildScaledMusic(4);
  ws->set_name("bench_gesture_durable");
  isis::sdm::Database& db = ws->db();
  for (const char* spec : kGestureViews) {
    std::vector<std::string> f = isis::Split(spec, '|');
    isis::Result<ClassId> parent = db.schema().FindClass(f[1]);
    if (!parent.ok()) std::abort();
    isis::Result<ClassId> cls =
        db.CreateSubclass(f[0], *parent, isis::sdm::Membership::kEnumerated);
    isis::Result<isis::query::Predicate> pred =
        isis::query::ParsePredicate(db, *parent, f[2]);
    if (!cls.ok() || !pred.ok() ||
        !ws->DefineSubclassMembership(*cls, *pred).ok()) {
      std::abort();
    }
  }
  isis::ui::SessionController session(std::move(ws));
  isis::Rng rng(25);
  std::vector<isis::input::Event> walk;
  std::size_t next = 0;
  struct PerLevel {
    double ns = 0;
    long long allocs = 0;
    long long renders = 0;
  };
  PerLevel levels[4];
  for (auto _ : state) {
    if (next == walk.size()) {
      walk = GestureWalk(&rng);
      next = 0;
    }
    if (!session.HandleEvent(walk[next++]).ok()) {
      state.SkipWithError(session.message().c_str());
      break;
    }
    PerLevel& level = levels[static_cast<int>(session.state().level)];
    const long long allocs = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const isis::ui::Screen& screen = session.Render();
    const auto t1 = std::chrono::steady_clock::now();
    level.allocs += g_allocs.load(std::memory_order_relaxed) - allocs;
    level.ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    ++level.renders;
    benchmark::DoNotOptimize(screen.hits.data());
  }
  const char* const kNames[4] = {"forest", "network", "worksheet", "data"};
  for (int l = 0; l < 4; ++l) {
    const PerLevel& level = levels[l];
    if (level.renders == 0) continue;
    const std::string name = kNames[l];
    state.counters[name + "_ns"] = level.ns / level.renders;
    state.counters[name + "_allocs"] =
        static_cast<double>(level.allocs) / level.renders;
    state.counters[name + "_renders"] = static_cast<double>(level.renders);
  }
}
BENCHMARK(BM_RenderGestureWalk)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
