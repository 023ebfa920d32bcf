/// \file bench_render.cpp
/// \brief Experiment A3b: view rendering cost for each of the four views as
/// the schema/data grows — the per-interaction latency of the interface —
/// and the byte passes that turn a rendered screen into a server reply
/// (the BM_Reply rows).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/strings.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "datasets/synthetic.h"
#include "input/event.h"
#include "server/proto.h"
#include "store/crc32.h"
#include "ui/controller.h"
#include "ui/views.h"

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
  for (auto _ : state) {
    isis::ui::Screen screen = RenderForestView(ctx);
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
  for (auto _ : state) {
    isis::ui::Screen screen = RenderNetworkView(ctx);
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
  for (auto _ : state) {
    isis::ui::Screen screen = RenderDataView(ctx);
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
  for (auto _ : state) {
    isis::ui::Screen screen = RenderWorksheetView(ctx);
    benchmark::DoNotOptimize(screen.hits.size());
  }
}
BENCHMARK(BM_RenderWorksheet)->Unit(benchmark::kMicrosecond);

/// Screenshot serialization (what tests and figure dumps pay).
void BM_CanvasToString(benchmark::State& state) {
  auto ws = isis::datasets::BuildInstrumentalMusic();
  SessionState st;
  RenderContext ctx{*ws, st, ""};
  isis::ui::Screen screen = RenderForestView(ctx);
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

}  // namespace

BENCHMARK_MAIN();
