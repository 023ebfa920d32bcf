/// \file layers.cc
/// \brief Tracing for the benchmark: the timed client transport, the span
/// store, and the single-threaded replay that times each layer through its
/// public functions.
///
/// Nothing here reaches inside the server: the transport wraps
/// Server::HandleFrame from the outside, and the replay calls the same
/// public layer functions the server's handlers call (parser, result
/// cache, evaluator, dependency analysis, name rendering, assignment,
/// session controller, renderer, WAL group commit) on a fresh copy of the
/// dataset, so every span is a layer boundary the benchmark can see.

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <optional>

#include "bench.h"
#include "common/strings.h"
#include "input/event.h"
#include "live/deps.h"
#include "live/engine.h"
#include "query/cache.h"
#include "query/eval.h"
#include "query/parser.h"
#include "query/plan.h"
#include "store/file.h"
#include "store/group_commit.h"
#include "store/serializer.h"
#include "store/wal.h"
#include "ui/controller.h"

namespace perfbench {

using isis::Result;
using isis::Status;
using isis::server::DecodeFrame;
using isis::server::DecodeResult;
using isis::server::EncodeFrame;
using isis::server::Frame;
using isis::server::JoinFields;
using isis::server::MsgType;
using isis::server::Server;
using isis::server::SplitFields;

const char* const kSpanNameStrings[kSpanCount] = {
    "rpc",          "proto.encode",     "proto.decode",   "server.handle",
    "replay",       "query.parse",      "query.normalize", "query.cache_lookup",
    "query.eval",   "live.deps",        "sdm.names",      "sdm.apply",
    "store.commit_wait", "input.decode", "ui.event",      "ui.render",
    "gfx.to_string",
};

namespace {

Clock::time_point Epoch() {
  static const Clock::time_point kEpoch = Clock::now();
  return kEpoch;
}

int KindOf(MsgType t) {
  switch (t) {
    case MsgType::kQuery:
      return kQueryOp;
    case MsgType::kAssign:
      return kAssignOp;
    case MsgType::kEvent:
      return kEventOp;
    default:
      return -1;
  }
}

}  // namespace

// --- SpanLog. ---

std::int32_t SpanLog::Add(std::int64_t request, std::int32_t parent,
                          SpanName name, Clock::time_point start,
                          Clock::time_point end) {
  if (spans_.size() >= cap_) return -1;
  Span s;
  s.request = request;
  s.id = static_cast<std::int32_t>(spans_.size());
  s.parent = parent;
  s.name = name;
  s.start_ns = NanosSince(Epoch(), start);
  s.end_ns = NanosSince(Epoch(), end);
  spans_.push_back(s);
  return s.id;
}

void SpanLog::Merge(const SpanLog& other) {
  const std::int32_t offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.id += offset;
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "request,id,parent,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.request << ',' << s.id << ',' << s.parent << ','
        << kSpanNameStrings[s.name] << ',' << s.start_ns << ',' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

void TransportTimes::Merge(const TransportTimes& o) {
  for (int k = 0; k < kOpKinds; ++k) {
    encode_ns[k] += o.encode_ns[k];
    decode_ns[k] += o.decode_ns[k];
    handle_ns[k] += o.handle_ns[k];
    response_bytes[k] += o.response_bytes[k];
    n[k] += o.n[k];
  }
}

// --- The traced transport. ---

namespace {

class TracingTransport : public isis::server::ClientTransport {
 public:
  TracingTransport(Server* server, std::string client_name, SpanLog* spans,
                   TransportTimes* times, std::int64_t request_base)
      : server_(server),
        client_name_(std::move(client_name)),
        spans_(spans),
        times_(times),
        next_request_(request_base) {}

  Status Reconnect(std::int64_t resume_sid) override {
    Frame hello;
    hello.type = MsgType::kHello;
    hello.seq = 1;
    hello.deadline_ms = 5000;
    hello.payload = resume_sid >= 0
                        ? JoinFields({client_name_, std::to_string(resume_sid)})
                        : JoinFields({client_name_});
    session_id_ = -1;
    Result<Frame> resp = CallFrame(hello);
    ISIS_RETURN_NOT_OK(resp.status());
    if (resp->type != MsgType::kOk) {
      return Status::Unavailable("hello rejected: " + resp->payload);
    }
    std::vector<std::string> fields = SplitFields(resp->payload);
    if (fields.empty()) return Status::ParseError("malformed hello response");
    session_id_ = std::stoll(fields[0]);
    return Status::OK();
  }

  std::int64_t session_id() const override { return session_id_; }

  /// server::LoopbackTransport::CallFrame with timers around each step.
  Result<Frame> CallFrame(const Frame& req) override {
    const Clock::time_point t_start = Clock::now();
    std::string bytes = EncodeFrame(req);
    const Clock::time_point t_enc = Clock::now();
    Frame decoded;
    std::size_t consumed = 0;
    std::string error;
    if (DecodeFrame(bytes, &decoded, &consumed, &error) != DecodeResult::kOk) {
      return Status::Internal("loopback encode: " + error);
    }
    const Clock::time_point t_dec = Clock::now();

    // Shared, not stack: the callback may outlive a timed-out wait.
    struct WaitState {
      std::mutex mu;
      std::condition_variable cv;
      bool ready = false;
      Frame resp;
      Clock::time_point t_cb, t_enc, t_dec;
      std::size_t bytes = 0;
    };
    auto state = std::make_shared<WaitState>();
    const Clock::time_point t_handle = Clock::now();
    server_->HandleFrame(session_id_, decoded, [state](const Frame& resp) {
      const Clock::time_point t_cb = Clock::now();
      std::string wire = EncodeFrame(resp);
      const Clock::time_point t_enc = Clock::now();
      Frame out;
      std::size_t used = 0;
      const bool ok = DecodeFrame(wire, &out, &used) == DecodeResult::kOk;
      const Clock::time_point t_dec = Clock::now();
      std::lock_guard<std::mutex> lock(state->mu);
      state->resp = ok ? out : resp;
      state->t_cb = t_cb;
      state->t_enc = t_enc;
      state->t_dec = t_dec;
      state->bytes = wire.size();
      state->ready = true;
      state->cv.notify_one();
    });

    std::unique_lock<std::mutex> lock(state->mu);
    const auto budget = std::chrono::milliseconds(req.deadline_ms) +
                        std::chrono::milliseconds(250);
    if (req.deadline_ms > 0) {
      if (!state->cv.wait_for(lock, budget, [&] { return state->ready; })) {
        return Status::IOError("loopback response timed out");
      }
    } else {
      state->cv.wait(lock, [&] { return state->ready; });
    }
    const Clock::time_point t_end = Clock::now();
    const int kind = KindOf(req.type);
    if (kind >= 0) {
      const std::int64_t r = next_request_++;
      const std::int32_t root = spans_->Add(r, -1, kSpanRpc, t_start, t_end);
      spans_->Add(r, root, kSpanEncode, t_start, t_enc);
      spans_->Add(r, root, kSpanDecode, t_enc, t_dec);
      spans_->Add(r, root, kSpanHandle, t_handle, state->t_cb);
      spans_->Add(r, root, kSpanEncode, state->t_cb, state->t_enc);
      spans_->Add(r, root, kSpanDecode, state->t_enc, state->t_dec);
      times_->encode_ns[kind] += static_cast<double>(
          NanosSince(t_start, t_enc) + NanosSince(state->t_cb, state->t_enc));
      times_->decode_ns[kind] += static_cast<double>(
          NanosSince(t_enc, t_dec) + NanosSince(state->t_enc, state->t_dec));
      times_->handle_ns[kind] +=
          static_cast<double>(NanosSince(t_handle, state->t_cb));
      times_->response_bytes[kind] += static_cast<double>(state->bytes);
      ++times_->n[kind];
    }
    return state->resp;
  }

 private:
  Server* const server_;
  const std::string client_name_;
  SpanLog* const spans_;
  TransportTimes* const times_;
  std::int64_t next_request_;
  std::int64_t session_id_ = -1;
};

}  // namespace

std::unique_ptr<isis::server::ClientTransport> MakeTracingTransport(
    Server* srv, const std::string& client_name, SpanLog* spans,
    TransportTimes* times) {
  static std::atomic<std::int64_t> next_base{1};
  return std::make_unique<TracingTransport>(
      srv, client_name, spans, times, (next_base.fetch_add(1)) << 32);
}

// --- The layer replay. ---

namespace {

/// Sums of span durations per layer plus counts the layers expose.
class Replayer {
 public:
  Replayer(const Workload& w, const std::string& scratch_dir, SpanLog* spans)
      : ws_(w.BuildDataset()), spans_(spans) {
    isis::sdm::Database& db = ws_->db();
    if (db.options().live_views) {
      live_ = std::make_unique<isis::live::LiveViewEngine>(ws_.get());
    }
    isis::query::ResultCache::Options copts;
    copts.capacity = isis::server::ServerOptions().result_cache_capacity;
    cache_ = std::make_unique<isis::query::ResultCache>(&db, copts);
    if (w.durable) {
      isis::store::FileEnv* env = isis::store::FileEnv::Default();
      wal_path_ = scratch_dir + "/replay.wal";
      checkpoint_path_ = scratch_dir + "/replay.isis";
      (void)env->Remove(wal_path_);
      std::vector<isis::store::WalRecord> base;
      base.push_back({"base", isis::store::Save(*ws_)});
      Result<std::unique_ptr<isis::store::WalWriter>> writer =
          isis::store::WalWriter::CreateWithRecords(wal_path_, env, base);
      if (writer.ok()) {
        wal_ = std::move(writer).ValueOrDie();
        isis::store::GroupCommitter::Options gc;
        gc.policy = isis::store::WalSyncPolicy::kGroup;
        committer_ =
            std::make_unique<isis::store::GroupCommitter>(wal_.get(), gc);
      } else {
        Fail("replay WAL: " + writer.status().ToString());
      }
    }
  }

  void Run(const Op& op, int session) {
    const std::int64_t r = next_request_++;
    const Clock::time_point t0 = Clock::now();
    // Layer spans are recorded after the root, so their parent id is known;
    // the root's interval is patched in at the end.
    pending_.clear();
    switch (op.kind) {
      case kQueryOp:
        Query(op);
        break;
      case kAssignOp:
        Assign(op);
        break;
      case kEventOp:
        Event(op, session);
        break;
      default:
        break;
    }
    const Clock::time_point t1 = Clock::now();
    if (planned_.has_value()) {
      // The plan the evaluator just ran, re-run untimed for its counters.
      const isis::sdm::Database& db = ws_->db();
      isis::query::PlannedPredicate plan(db, planned_->first,
                                         planned_->second);
      (void)plan.Evaluate(db.Members(planned_->second));
      scanned_ += plan.stats().scanned;
      result_ += plan.stats().result;
      ++evaluated_;
      planned_.reset();
    }
    const std::int32_t root = spans_->Add(r, -1, kSpanReplay, t0, t1);
    double children = 0;
    for (const auto& [name, a, b] : pending_) {
      spans_->Add(r, root, name, a, b);
      const double ns = static_cast<double>(NanosSince(a, b));
      sum_ns_[name] += ns;
      children += ns;
    }
    glue_ns_[op.kind] += static_cast<double>(NanosSince(t0, t1)) - children;
    ++n_[op.kind];
  }

  void Finish(LayerReport* out) {
    std::map<std::string, double>& m = out->metrics;
    auto per = [&](SpanName s, int kind) {
      return n_[kind] > 0 ? sum_ns_[s] / 1000.0 / static_cast<double>(n_[kind])
                          : 0.0;
    };
    m["query.parse_us"] = per(kSpanParse, kQueryOp);
    m["query.normalize_us"] = per(kSpanNormalize, kQueryOp);
    m["query.cache_lookup_us"] = per(kSpanCacheLookup, kQueryOp);
    m["query.eval_us"] = per(kSpanEval, kQueryOp);
    m["live.deps_us"] = per(kSpanDeps, kQueryOp);
    m["sdm.names_us"] = per(kSpanSdmNames, kQueryOp);
    m["sdm.apply_us"] = per(kSpanApply, kAssignOp);
    m["input.decode_us"] = per(kSpanInputDecode, kEventOp);
    m["ui.event_us"] = per(kSpanUiEvent, kEventOp);
    m["ui.render_us"] = per(kSpanUiRender, kEventOp);
    m["gfx.to_string_us"] = per(kSpanToString, kEventOp);
    m["store.commit_wait_us"] =
        writes_logged_ > 0 ? sum_ns_[kSpanCommitWait] / 1000.0 /
                                 static_cast<double>(writes_logged_)
                           : 0.0;
    for (int k = 0; k < kOpKinds; ++k) {
      m[std::string("replay.glue_us.") + kOpKindNames[k]] =
          n_[k] > 0 ? glue_ns_[k] / 1000.0 / static_cast<double>(n_[k]) : 0.0;
      m[std::string("replay.n.") + kOpKindNames[k]] =
          static_cast<double>(n_[k]);
    }
    m["query.scanned_per_result"] =
        evaluated_ > 0 ? static_cast<double>(scanned_) /
                             static_cast<double>(std::max<std::int64_t>(
                                 result_, 1))
                       : 0.0;
    m["sdm.index_probes_per_query"] =
        n_[kQueryOp] > 0 ? static_cast<double>(index_probes_) /
                               static_cast<double>(n_[kQueryOp])
                         : 0.0;
    double deltas = 0, retested = 0, recomputes = 0;
    if (live_ != nullptr) {
      deltas = static_cast<double>(live_->stats().deltas_seen);
      for (const isis::live::ViewStats& v : live_->AllViewStats()) {
        retested += static_cast<double>(v.entities_retested);
        recomputes += static_cast<double>(v.full_recomputes);
      }
    }
    m["live.deltas_seen"] = deltas;
    m["live.entities_retested"] = retested;
    m["live.full_recomputes"] = recomputes;
    double checkpoint_s = 0;
    if (committer_ != nullptr) {
      if (!committer_->Flush().ok()) Fail("replay WAL flush");
      const Clock::time_point t0 = Clock::now();
      Status st = isis::store::SaveToFile(*ws_, checkpoint_path_,
                                          isis::store::FileEnv::Default());
      checkpoint_s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (!st.ok()) Fail("replay checkpoint: " + st.ToString());
    }
    m["store.checkpoint_s"] = checkpoint_s;
    out->ops = n_[0] + n_[1] + n_[2];
    out->failed = failed_;
    out->first_failure = first_failure_;
  }

 private:
  void Span(SpanName name, Clock::time_point a, Clock::time_point b) {
    pending_.push_back({name, a, b});
  }

  void Fail(const std::string& why) {
    if (failed_++ == 0) first_failure_ = why;
  }

  /// Server::DoQuery, one public call per span.
  void Query(const Op& op) {
    const isis::sdm::Database& db = ws_->db();
    std::vector<std::string> fields = SplitFields(op.payload);
    Clock::time_point a = Clock::now();
    Result<isis::ClassId> cls = db.schema().FindClass(fields[0]);
    Result<isis::query::Predicate> pred =
        cls.ok() ? isis::query::ParsePredicate(db, *cls, fields[1])
                 : Result<isis::query::Predicate>(cls.status());
    Clock::time_point b = Clock::now();
    Span(kSpanParse, a, b);
    if (!pred.ok()) {
      Fail("parse: " + pred.status().ToString());
      return;
    }
    a = Clock::now();
    const std::string key = isis::query::ResultCache::NormalizeKey(*pred, *cls);
    b = Clock::now();
    Span(kSpanNormalize, a, b);
    a = Clock::now();
    std::shared_ptr<const isis::sdm::EntitySet> result = cache_->Lookup(key);
    b = Clock::now();
    Span(kSpanCacheLookup, a, b);
    if (result == nullptr) {
      const std::uint64_t v0 = db.version();
      const std::int64_t probes0 = db.stats().value_index_probes;
      isis::query::Evaluator ev(db);
      a = Clock::now();
      auto eval = std::make_shared<const isis::sdm::EntitySet>(
          ev.EvaluateSubclass(*pred, *cls));
      b = Clock::now();
      Span(kSpanEval, a, b);
      index_probes_ += db.stats().value_index_probes - probes0;
      planned_.emplace(*pred, *cls);  // Counted by Run(), outside the spans.
      a = Clock::now();
      isis::query::ResultCache::Deps deps = isis::live::FlattenForCache(
          isis::live::AnalyzeAdHoc(db.schema(), *cls, *pred));
      b = Clock::now();
      Span(kSpanDeps, a, b);
      a = Clock::now();
      cache_->Insert(key, deps, eval, v0);
      b = Clock::now();
      Span(kSpanCacheLookup, a, b);
      result = std::move(eval);
    }
    a = Clock::now();
    std::vector<std::string> out;
    out.reserve(result->size() + 1);
    out.push_back(std::to_string(result->size()));
    for (isis::EntityId e : *result) out.push_back(db.NameOf(e));
    (void)JoinFields(out);
    b = Clock::now();
    Span(kSpanSdmNames, a, b);
  }

  /// Server::ApplyAssign (+ the no-live-engine refresh of DoAssign).
  void Assign(const Op& op) {
    isis::sdm::Database& db = ws_->db();
    std::vector<std::string> f = SplitFields(op.payload);
    const Clock::time_point a = Clock::now();
    Status st = ApplyAssign(&db, f);
    if (st.ok() && live_ == nullptr) st = ws_->ReevaluateAll();
    const Clock::time_point b = Clock::now();
    Span(kSpanApply, a, b);
    if (!st.ok()) {
      Fail("assign: " + st.ToString());
      return;
    }
    Commit("assign", op.payload);
  }

  static Status ApplyAssign(isis::sdm::Database* db,
                            const std::vector<std::string>& f) {
    if (f.size() != 4) return Status::InvalidArgument("assign payload");
    Result<isis::ClassId> cls = db->schema().FindClass(f[0]);
    ISIS_RETURN_NOT_OK(cls.status());
    Result<isis::EntityId> e = db->FindMember(*cls, f[1]);
    ISIS_RETURN_NOT_OK(e.status());
    Result<isis::AttributeId> attr = db->schema().FindAttribute(*cls, f[2]);
    ISIS_RETURN_NOT_OK(attr.status());
    const isis::sdm::AttributeDef& def = db->schema().GetAttribute(*attr);
    isis::sdm::EntitySet values;
    for (const std::string& raw : isis::Split(f[3], ',')) {
      std::string name(isis::Trim(raw));
      if (name.empty()) continue;
      Result<isis::EntityId> v = db->FindMember(def.value_class, name);
      ISIS_RETURN_NOT_OK(v.status());
      values.insert(*v);
    }
    if (def.multivalued) return db->SetMulti(*e, *attr, values);
    if (values.size() > 1) return Status::InvalidArgument("singlevalued");
    return db->SetSingle(*e, *attr,
                         values.empty() ? isis::sdm::kNullEntity
                                        : *values.begin());
  }

  /// Server::DoEvent on the session's own shared-mode controller.
  void Event(const Op& op, int session) {
    std::unique_ptr<isis::ui::SessionController>& ctrl = ctrls_[session];
    if (ctrl == nullptr) {
      ctrl = std::make_unique<isis::ui::SessionController>(ws_.get(),
                                                          live_.get());
    }
    Clock::time_point a = Clock::now();
    Result<isis::input::Event> ev = isis::input::DecodeEvent(op.payload);
    Clock::time_point b = Clock::now();
    Span(kSpanInputDecode, a, b);
    if (!ev.ok()) {
      Fail("decode: " + ev.status().ToString());
      return;
    }
    a = Clock::now();
    Status st = ctrl->HandleEvent(*ev);
    b = Clock::now();
    Span(kSpanUiEvent, a, b);
    a = Clock::now();
    const isis::ui::Screen& screen = ctrl->Render();
    b = Clock::now();
    Span(kSpanUiRender, a, b);
    a = Clock::now();
    std::string canvas = screen.canvas.ToString();
    b = Clock::now();
    Span(kSpanToString, a, b);
    (void)JoinFields({ctrl->message(), canvas});
    if (!st.ok()) {
      Fail("event: " + st.ToString() + " for " + op.payload);
      return;
    }
    Commit("sevent", std::to_string(session) + "|" + op.payload);
  }

  void Commit(const char* type, const std::string& payload) {
    if (committer_ == nullptr) return;
    const Clock::time_point a = Clock::now();
    isis::store::GroupCommitter::Ticket t = committer_->Enqueue(type, payload);
    Status st = committer_->Wait(t);
    const Clock::time_point b = Clock::now();
    Span(kSpanCommitWait, a, b);
    ++writes_logged_;
    if (!st.ok()) Fail("commit: " + st.ToString());
  }

  struct Pending {
    SpanName name;
    Clock::time_point a, b;
  };

  std::unique_ptr<isis::query::Workspace> ws_;
  std::unique_ptr<isis::live::LiveViewEngine> live_;
  std::unique_ptr<isis::query::ResultCache> cache_;
  std::string wal_path_, checkpoint_path_;
  std::unique_ptr<isis::store::WalWriter> wal_;
  std::unique_ptr<isis::store::GroupCommitter> committer_;
  std::map<int, std::unique_ptr<isis::ui::SessionController>> ctrls_;
  SpanLog* spans_;
  std::vector<Pending> pending_;
  /// A predicate evaluated by the current request, pending its counters.
  std::optional<std::pair<isis::query::Predicate, isis::ClassId>> planned_;
  std::int64_t next_request_ = std::int64_t{1} << 48;
  double sum_ns_[kSpanCount] = {};
  double glue_ns_[kOpKinds] = {};
  std::int64_t n_[kOpKinds] = {};
  std::int64_t writes_logged_ = 0;
  std::int64_t scanned_ = 0, result_ = 0, evaluated_ = 0;
  std::int64_t index_probes_ = 0;
  std::int64_t failed_ = 0;
  std::string first_failure_;
};

}  // namespace

LayerReport ReplayLayers(const Workload& w, std::uint64_t seed,
                         const std::vector<std::int64_t>& per_session,
                         int slots, double budget_seconds,
                         const std::string& scratch_dir, SpanLog* spans) {
  Replayer replayer(w, scratch_dir, spans);
  std::vector<OpStream> streams;
  for (std::size_t s = 0; s < per_session.size(); ++s) {
    streams.emplace_back(w, seed, static_cast<int>(s),
                         static_cast<int>(s) % slots, slots);
  }
  // Round-robin over the sessions' issued prefixes, as the closed loop
  // interleaved them, until the prefixes or the time budget run out.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_seconds));
  bool more = true;
  for (std::int64_t k = 0; more; ++k) {
    more = false;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (k >= per_session[s]) continue;
      replayer.Run(streams[s].Next(), static_cast<int>(s));
      more = true;
    }
    if ((k & 63) == 0 && Clock::now() > deadline) break;
  }
  LayerReport report;
  replayer.Finish(&report);
  return report;
}

}  // namespace perfbench
