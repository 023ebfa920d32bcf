/// \file bench.h
/// \brief Shared pieces of the ISIS server benchmark (isis_bench).
///
/// The benchmark drives a real server::Server through the production client
/// stack (RetryingClient over a loopback ClientTransport) with seeded,
/// closed-loop sessions, then checks the answers against an uncached,
/// single-worker, fault-free replay of the same op stream. workloads.cc
/// defines the three traffic mixes and the closed loop; layers.cc holds the
/// traced transport and the single-threaded per-layer replay; main.cc wires
/// the phases together and prints the report.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/workspace.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NanosSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

/// Request types the workloads issue; the index into per-type arrays.
enum OpKind : int { kQueryOp = 0, kAssignOp = 1, kEventOp = 2, kOpKinds = 3 };
extern const char* const kOpKindNames[kOpKinds];

struct Op {
  OpKind kind = kQueryOp;
  std::string payload;  ///< Wire payload of the request.
  /// May change database state: assigns, events, and queries naming a
  /// never-stored literal (parsing one interns it). The oracle replays
  /// exactly these; pure reads cannot move the final state.
  bool mutates = false;
};

/// One workload: a dataset, a server configuration and a seeded op stream
/// per session.
struct Workload {
  std::string name;
  int scale = 4;            ///< scaled_music scale.
  bool durable = false;     ///< WAL under wal_sync=group in a scratch dir.
  bool live_views = false;  ///< Stored derived subclasses kept live.

  /// The dataset every side starts from (server, oracle, layer replay).
  std::unique_ptr<isis::query::Workspace> BuildDataset() const;
  /// Fixed probe queries ("class|predicate") answered after the run.
  std::vector<std::string> Probes() const;
};

/// Looks up a workload by name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// \brief Deterministic op stream of one session: the same (workload, seed,
/// session) always yields the same ops, so the oracle and the layer replay
/// can regenerate exactly what a closed-loop client sent.
class OpStream {
 public:
  /// `slot` picks the disjoint slice of entities the session writes; two
  /// sessions with different `session` but the same `slot` write the same
  /// slice (the traced run's second phase continues the first one's).
  OpStream(const Workload& w, std::uint64_t seed, int session, int slot,
           int slots);
  Op Next();

 private:
  Op NextBrowse();
  Op NextCold();
  Op NextGesture();
  Op AssignUnion();
  std::string ColdAtom(bool groups);

  const Workload& w_;
  isis::Rng rng_;
  int slice_lo_ = 0;
  int slice_n_ = 1;
  std::vector<std::string> pending_;  ///< Remaining events of a gesture walk.
  std::int64_t fresh_literal_ = 0;
};

/// \brief Log-linear latency histogram: exact below 128 ns, then 128
/// sub-buckets per power of two (under 0.8% wide). Fixed memory, so the
/// benchmark's own footprint does not grow with the number of requests.
class LatencyHist {
 public:
  void Add(std::uint32_t ns) {
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);
    ++buckets_[static_cast<std::size_t>(Index(ns))];
    ++n_;
  }
  void Merge(const LatencyHist& o);
  std::int64_t count() const { return n_; }
  /// Nearest-rank quantile in ns, interpolated inside its bucket.
  double Quantile(double q) const;

 private:
  static constexpr int kSub = 128;
  static constexpr int kBuckets = kSub + 26 * kSub;
  static int Index(std::uint32_t v);
  static double Lower(int idx);
  static double Upper(int idx);

  std::vector<std::int64_t> buckets_;  ///< Allocated on the first Add().
  std::int64_t n_ = 0;
};

/// What one closed-loop client measured.
struct ClientLog {
  explicit ClientLog(int windows)
      : hist(static_cast<std::size_t>(windows * kOpKinds)) {}
  /// Latencies of completed requests by [window][kind]; requests that
  /// completed during the warm-up are not recorded.
  std::vector<LatencyHist> hist;
  LatencyHist& At(int window, int kind) {
    return hist[static_cast<std::size_t>(window * kOpKinds + kind)];
  }
  std::int64_t issued = 0;  ///< Ops generated and sent (the replay prefix).
  std::int64_t failed = 0;
  std::string first_failure;
  isis::server::RetryCounters retry;
};

/// Makes the transport closed-loop client number `client` talks through.
using TransportFactory =
    std::function<std::unique_ptr<isis::server::ClientTransport>(
        isis::server::Server*, const std::string& name, int client)>;

struct LoopOptions {
  int clients = 2;
  int first_session = 0;  ///< Session index of client 0 (stream identity).
  double seconds = 1.0;
  /// Leading part of `seconds` whose requests are not recorded.
  double warm_seconds = 0.0;
  /// Equal windows the rest of `seconds` is cut into; the end-to-end
  /// figures are quantiles over them (see PhaseStats in main.cc).
  int windows = 10;
  /// Keep going past `seconds` until every issued kind has this many
  /// samples, up to `max_seconds`.
  std::int64_t min_samples_per_kind = 0;
  double max_seconds = 1.0;
  std::uint64_t seed = 1;
};

/// Runs `opts.clients` closed-loop sessions against `srv` and returns one
/// log per client plus the measured wall time (seconds) in *elapsed.
std::vector<ClientLog> RunClosedLoop(const Workload& w,
                                     isis::server::Server* srv,
                                     const LoopOptions& opts,
                                     const TransportFactory& make_transport,
                                     double* elapsed);

/// True if `resp` is the right answer type for `op` (and, for events, the
/// screen's message line reports no error). Sets *why otherwise.
bool ResponseOk(const Op& op, const isis::server::Frame& resp,
                std::string* why);

/// Answers `probes` through one fresh client session.
isis::Result<std::vector<std::string>> AnswerProbes(
    isis::server::Server* srv, const std::vector<std::string>& probes);

/// The oracle: a fresh dataset behind an uncached, single-worker,
/// non-durable server, fed every state-changing op of each session's issued
/// prefix in session order, then asked `probes`.
isis::Result<std::vector<std::string>> OracleAnswers(
    const Workload& w, std::uint64_t seed,
    const std::vector<std::pair<int, std::int64_t>>& sessions, int slots,
    const std::vector<std::string>& probes);

/// Server options every side of a workload shares.
isis::server::ServerOptions ServerOptionsFor(const Workload& w, int workers,
                                             const std::string& durable_dir);

// --- Tracing (layers.cc). ---

/// Span names; a span stores the index.
enum SpanName : std::int16_t {
  kSpanRpc,          ///< Client-side request, transport entry to reply.
  kSpanEncode,       ///< EncodeFrame (request or response).
  kSpanDecode,       ///< DecodeFrame (request or response).
  kSpanHandle,       ///< Server::HandleFrame call until its callback fires.
  kSpanReplay,       ///< One replayed request (parent of the layer spans).
  kSpanParse,        ///< query: FindClass + ParsePredicate.
  kSpanNormalize,    ///< query: ResultCache::NormalizeKey.
  kSpanCacheLookup,  ///< query: ResultCache::Lookup (+ Insert on a miss).
  kSpanEval,         ///< query: Evaluator::EvaluateSubclass.
  kSpanDeps,         ///< live: AnalyzeAdHoc + FlattenForCache.
  kSpanSdmNames,     ///< sdm: NameOf over the result + JoinFields.
  kSpanApply,        ///< sdm: FindMember + SetSingle/SetMulti.
  kSpanCommitWait,   ///< store: GroupCommitter Enqueue + Wait.
  kSpanInputDecode,  ///< input: DecodeEvent.
  kSpanUiEvent,      ///< ui: SessionController::HandleEvent.
  kSpanUiRender,     ///< ui: SessionController::Render.
  kSpanToString,     ///< gfx: Canvas::ToString.
  kSpanCount,
};
extern const char* const kSpanNameStrings[kSpanCount];

/// Span store: spans are kept in memory (up to a cap) and written out once
/// at the end. One log per thread; Merge() before writing.
class SpanLog {
 public:
  struct Span {
    std::int64_t request = 0;
    std::int32_t id = 0;
    std::int32_t parent = -1;  ///< -1: a root span.
    std::int16_t name = 0;
    std::int64_t start_ns = 0;  ///< Since the process-wide epoch.
    std::int64_t end_ns = 0;
  };
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  /// Appends when under the cap; returns the span id (-1 when dropped).
  std::int32_t Add(std::int64_t request, std::int32_t parent, SpanName name,
                   Clock::time_point start, Clock::time_point end);
  void Merge(const SpanLog& other);
  /// One CSV row per span: request,id,parent,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
};

/// Per-request timings the traced transport gathers (summed per kind).
struct TransportTimes {
  double encode_ns[kOpKinds] = {};
  double decode_ns[kOpKinds] = {};
  double handle_ns[kOpKinds] = {};
  double response_bytes[kOpKinds] = {};
  std::int64_t n[kOpKinds] = {};
  void Merge(const TransportTimes& o);
};

/// A ClientTransport equivalent to server::LoopbackTransport (the same
/// encode/decode round trip both ways) that also times EncodeFrame,
/// DecodeFrame and the HandleFrame call up to its callback, recording
/// spans into `spans` and sums into `times`. Not thread-safe: one per
/// client thread.
std::unique_ptr<isis::server::ClientTransport> MakeTracingTransport(
    isis::server::Server* srv, const std::string& client_name, SpanLog* spans,
    TransportTimes* times);

/// Result of replaying the op stream through the layer functions.
struct LayerReport {
  std::map<std::string, double> metrics;  ///< Per-layer metric values.
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::string first_failure;
};

/// Replays the first `per_session[i]` ops of session i (round-robin across
/// sessions, for at most `budget_seconds`) single-threaded through the
/// public layer functions on a fresh copy of the dataset, timing each layer
/// as a span.
LayerReport ReplayLayers(const Workload& w, std::uint64_t seed,
                         const std::vector<std::int64_t>& per_session,
                         int slots, double budget_seconds,
                         const std::string& scratch_dir, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
