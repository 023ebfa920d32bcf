/// \file workloads.cc
/// \brief The benchmark's three traffic mixes, the closed-loop driver and
/// the correctness oracle.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/strings.h"
#include "datasets/scaled_music.h"
#include "input/event.h"
#include "query/parser.h"
#include "server/loopback.h"

namespace perfbench {

using isis::Result;
using isis::Status;
using isis::server::Frame;
using isis::server::JoinFields;
using isis::server::LoopbackTransport;
using isis::server::MsgType;
using isis::server::RetryingClient;
using isis::server::RetryOptions;
using isis::server::Server;
using isis::server::ServerOptions;
using isis::server::SplitFields;

const char* const kOpKindNames[kOpKinds] = {"query", "assign", "event"};

namespace {

constexpr int kInstrumentsPerScale = 2;  // scaled_music.h cardinalities.
constexpr int kMusiciansPerScale = 16;
constexpr int kFamilies = 8;

const Workload kWorkloads[] = {
    {"browse_hot", 4, false, false},
    {"query_cold", 32, false, false},
    {"gesture_durable", 4, true, true},
};

/// The browse set: short browse and attribute-path predicates over a
/// scale-4 database. 51 keys, far below the 1024-entry result cache. Rank
/// order is fixed (Zipf rank = index); the two `union` predicates, the only
/// ones the browse assigns invalidate, sit at middling ranks.
std::vector<std::string> BrowseSet() {
  std::vector<std::string> out;
  for (int k = 0; k < 8; ++k) {
    out.push_back("musicians|e.plays ]= {inst" + std::to_string(k) + "}");
    out.push_back("music_groups|e.members.plays ]= {inst" +
                  std::to_string(k) + "}");
    out.push_back("instruments|e.family = {family" + std::to_string(k) + "}");
    if (k == 3) out.push_back("musicians|e.union = {true}");
    if (k == 6) out.push_back("musicians|e.union = {false}");
  }
  for (int k = 0; k < 8; ++k) {
    out.push_back("musicians|e.plays.family ]= {family" + std::to_string(k) +
                  "}");
    out.push_back("music_groups|e.includes ]= {family" + std::to_string(k) +
                  "}");
  }
  for (int k = 0; k < 8; k += 2) {
    out.push_back("musicians|e.plays ~ {inst" + std::to_string(k) + ",inst" +
                  std::to_string(k + 1) + "}");
  }
  for (int n = 2; n <= 6; ++n) {
    out.push_back("music_groups|e.size = {" + std::to_string(n) + "}");
  }
  return out;
}

/// Zipf(s) over ranks [0, n): inverse CDF by binary search.
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(isis::Rng* rng) const {
    double u = rng->Unit();
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

const std::vector<std::string>& BrowseSetCached() {
  static const std::vector<std::string> kSet = BrowseSet();
  return kSet;
}

const Zipf& BrowseZipf() {
  static const Zipf kZipf(static_cast<int>(BrowseSetCached().size()), 1.1);
  return kZipf;
}

std::string Named(const char* kind, const std::string& name) {
  return std::string(kind) + ":" + name;
}

std::string EncodePick(const std::string& target) {
  return isis::input::EncodeEvent(
      isis::input::Event{isis::input::NamedPickEvent{target}});
}

std::string EncodeCmd(const std::string& command) {
  return isis::input::EncodeEvent(
      isis::input::Event{isis::input::CommandEvent{command}});
}

void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "isis_bench: %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

/// Stored derived subclasses of gesture_durable, kept live by the server's
/// engine: "name|parent|predicate".
const char* const kDerivedViews[] = {
    "play_inst0|musicians|e.plays ]= {inst0}",
    "unionists|musicians|e.union = {true}",
    "big_groups|music_groups|e.size > {3}",
    "inst0_groups|music_groups|e.members.plays ]= {inst0}",
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<isis::query::Workspace> Workload::BuildDataset() const {
  isis::sdm::Database::Options options;
  options.live_views = live_views;
  std::unique_ptr<isis::query::Workspace> ws =
      isis::datasets::BuildScaledMusic(scale, 7, options);
  ws->set_name("bench_" + name);
  isis::sdm::Database& db = ws->db();
  // Small integers and both booleans are stored values, so only the
  // deliberately fresh literals of query_cold (>= 1000) are never-stored.
  for (int i = 0; i <= 16; ++i) (void)db.InternInteger(i);
  (void)db.InternBoolean(true);
  (void)db.InternBoolean(false);
  if (live_views) {
    for (const char* spec : kDerivedViews) {
      std::vector<std::string> f = isis::Split(spec, '|');
      Result<isis::ClassId> parent = db.schema().FindClass(f[1]);
      Must(parent.status(), "derived view parent");
      Result<isis::ClassId> cls =
          db.CreateSubclass(f[0], *parent, isis::sdm::Membership::kEnumerated);
      Must(cls.status(), "derived view class");
      Result<isis::query::Predicate> pred =
          isis::query::ParsePredicate(db, *parent, f[2]);
      Must(pred.status(), "derived view predicate");
      Must(ws->DefineSubclassMembership(*cls, *pred), "derived view");
    }
  }
  return ws;
}

std::vector<std::string> Workload::Probes() const {
  std::vector<std::string> out;
  const int instruments = std::max(4, kInstrumentsPerScale * scale);
  for (int k = 0; k < std::min(instruments, 8); ++k) {
    out.push_back("musicians|e.plays ]= {inst" + std::to_string(k) + "}");
  }
  out.push_back("musicians|e.union = {true}");
  out.push_back("musicians|e.union = {false}");
  out.push_back("music_groups|e.members.plays ]= {inst0}");
  if (live_views) {
    for (const char* spec : kDerivedViews) {
      std::vector<std::string> f = isis::Split(spec, '|');
      const std::string attr =
          f[1] == "musicians" ? "e.union ~ {true,false}" : "e.size > {0}";
      out.push_back(f[0] + "|" + attr);
    }
  }
  return out;
}

// --- Op streams. ---

OpStream::OpStream(const Workload& w, std::uint64_t seed, int session,
                   int slot, int slots)
    : w_(w),
      rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(session) *
                                              0xD1B54A32D192ED03ull +
           1) {
  const int musicians = std::max(8, kMusiciansPerScale * w.scale);
  slice_n_ = std::max(1, musicians / std::max(1, slots));
  slice_lo_ = (slot % std::max(1, slots)) * slice_n_;
}

Op OpStream::Next() {
  if (w_.name == "browse_hot") return NextBrowse();
  if (w_.name == "query_cold") return NextCold();
  return NextGesture();
}

Op OpStream::AssignUnion() {
  Op op;
  op.kind = kAssignOp;
  op.mutates = true;
  const int i = slice_lo_ + static_cast<int>(rng_.Below(slice_n_));
  op.payload = JoinFields({"musicians", "musician" + std::to_string(i),
                           "union", rng_.Chance(0.5) ? "true" : "false"});
  return op;
}

/// 95% kQuery drawn Zipf(1.1) from the browse set, 5% kAssign of `union`
/// in the session's own slice.
Op OpStream::NextBrowse() {
  if (rng_.Chance(0.05)) return AssignUnion();
  const std::string& q = BrowseSetCached()[static_cast<std::size_t>(
      BrowseZipf().Draw(&rng_))];
  const std::size_t bar = q.find('|');
  Op op;
  op.kind = kQueryOp;
  op.payload = JoinFields({q.substr(0, bar), q.substr(bar + 1)});
  return op;
}

std::string OpStream::ColdAtom(bool groups) {
  const int instruments = std::max(4, kInstrumentsPerScale * w_.scale);
  auto inst = [&] { return "inst" + std::to_string(rng_.Below(instruments)); };
  auto fam = [&] { return "family" + std::to_string(rng_.Below(kFamilies)); };
  if (!groups) {
    switch (rng_.Below(6)) {
      case 0:
        return "e.plays ]= {" + inst() + "}";
      case 1:
        return "e.plays [= {" + inst() + "," + inst() + "," + inst() + "}";
      case 2:
        return "e.plays ~ {" + inst() + "," + inst() + "}";
      case 3:
        return "e.plays.family ]= {" + fam() + "}";
      case 4:
        return "e.plays.family [= {" + fam() + "," + fam() + "}";
      default:
        return std::string("e.union = {") +
               (rng_.Chance(0.5) ? "true" : "false") + "}";
    }
  }
  switch (rng_.Below(6)) {
    case 0:
      return "e.size <= {" + std::to_string(rng_.Range(2, 6)) + "}";
    case 1:
      return "e.size > {" + std::to_string(rng_.Range(2, 6)) + "}";
    case 2:
      return "e.members.plays ]= {" + inst() + "}";
    case 3:
      return "e.members.plays ~ {" + inst() + "," + inst() + "}";
    case 4:
      return "e.includes ]= {" + fam() + "}";
    default:
      return "e.includes = {" + fam() + "," + fam() + "}";
  }
}

/// Read-only worksheet refinement: CNF or DNF predicates of 1-4 atoms over
/// maps. About 1% name a never-stored integer literal, which the server
/// must intern (a promotion to the exclusive lock).
Op OpStream::NextCold() {
  const bool groups = rng_.Chance(0.4);
  const int atoms = 1 + static_cast<int>(rng_.Below(4));
  const bool cnf = rng_.Chance(0.5);
  const char* conn = cnf ? " and " : " or ";
  const char* dual = cnf ? " or " : " and ";
  std::string text;
  bool fresh = false;
  int placed = 0;
  while (placed < atoms) {
    const int group = std::min(atoms - placed,
                               1 + static_cast<int>(rng_.Below(2)));
    if (!text.empty()) text += conn;
    if (group > 1) text += "(";
    for (int a = 0; a < group; ++a) {
      if (a > 0) text += dual;
      if (groups && rng_.Chance(0.01)) {
        text += "e.size <= {" + std::to_string(1000 + fresh_literal_++) + "}";
        fresh = true;
      } else {
        text += ColdAtom(groups);
      }
    }
    if (group > 1) text += ")";
    placed += group;
  }
  Op op;
  op.kind = kQueryOp;
  op.mutates = fresh;
  op.payload = JoinFields({groups ? "music_groups" : "musicians", text});
  return op;
}

/// The paper's interaction loop as REPL-verb walks: pick class, view
/// contents, pick member, follow, pick attribute, toggle one value,
/// (re)assign att. value, pop twice. 5% of ops are direct kAssigns of
/// `union` in the session's own slice.
Op OpStream::NextGesture() {
  // A direct write may land between any two gestures: it touches `union`,
  // which no walk reads, so the walk's UI state is unaffected.
  if (rng_.Chance(0.05)) return AssignUnion();
  if (pending_.empty()) {
    const int i = slice_lo_ + static_cast<int>(rng_.Below(slice_n_));
    const int instruments = std::max(4, kInstrumentsPerScale * w_.scale);
    const int j = static_cast<int>(rng_.Below(instruments));
    std::vector<std::string> walk;
    walk.push_back(EncodePick(Named("class", "musicians")));
    walk.push_back(EncodeCmd("view contents"));
    for (int pan = 0; pan < i / 10; ++pan) {
      walk.push_back(EncodeCmd("members down"));
    }
    walk.push_back(EncodePick(Named("member", "musician" + std::to_string(i))));
    walk.push_back(EncodeCmd("follow"));
    walk.push_back(EncodePick(Named("attr", "plays")));
    walk.push_back(EncodePick(Named("member", "inst" + std::to_string(j))));
    walk.push_back(EncodeCmd("(re)assign att. value"));
    walk.push_back(EncodeCmd("pop"));
    walk.push_back(EncodeCmd("pop"));
    // Served back to front.
    pending_.assign(walk.rbegin(), walk.rend());
  }
  Op op;
  op.kind = kEventOp;
  op.mutates = true;
  op.payload = std::move(pending_.back());
  pending_.pop_back();
  return op;
}

// --- Responses and probes. ---

bool ResponseOk(const Op& op, const Frame& resp, std::string* why) {
  MsgType want = op.kind == kQueryOp    ? MsgType::kQueryResult
                 : op.kind == kAssignOp ? MsgType::kOk
                                        : MsgType::kScreen;
  if (resp.type != want) {
    *why = std::string(isis::server::MsgTypeName(resp.type)) + " " +
           resp.payload.substr(0, 160) + " for " + op.payload;
    return false;
  }
  if (op.kind == kEventOp) {
    // The message line of the redrawn screen: "! <Status>" on error.
    const std::size_t bar = resp.payload.find('|');
    const std::string message = resp.payload.substr(0, bar);
    if (message.rfind("! ", 0) == 0) {
      *why = message + " for " + op.payload;
      return false;
    }
  }
  return true;
}

namespace {

RetryOptions BenchRetryOptions(std::uint64_t jitter_seed) {
  RetryOptions o;
  o.max_attempts = 16;
  o.timeout_ms = 30000;  // Sheds are retried; deadlines never bite.
  o.jitter_seed = jitter_seed;
  return o;
}

MsgType WireType(OpKind kind) {
  return kind == kQueryOp    ? MsgType::kQuery
         : kind == kAssignOp ? MsgType::kAssign
                             : MsgType::kEvent;
}

}  // namespace

Result<std::vector<std::string>> AnswerProbes(
    Server* srv, const std::vector<std::string>& probes) {
  RetryingClient client(std::make_unique<LoopbackTransport>(srv, "probe"),
                        BenchRetryOptions(99));
  ISIS_RETURN_NOT_OK(client.Connect());
  std::vector<std::string> out;
  for (const std::string& p : probes) {
    const std::size_t bar = p.find('|');
    Result<Frame> resp = client.Call(
        MsgType::kQuery, JoinFields({p.substr(0, bar), p.substr(bar + 1)}));
    ISIS_RETURN_NOT_OK(resp.status());
    if (resp->type != MsgType::kQueryResult) {
      return Status::Internal("probe '" + p + "' answered " +
                              isis::server::MsgTypeName(resp->type) + " " +
                              resp->payload);
    }
    out.push_back(resp->payload);
  }
  return out;
}

ServerOptions ServerOptionsFor(const Workload& w, int workers,
                               const std::string& durable_dir) {
  ServerOptions o;
  o.threads = workers;
  if (w.durable) {
    o.durable_dir = durable_dir;
    o.wal_sync = isis::store::WalSyncPolicy::kGroup;
  }
  return o;
}

Result<std::vector<std::string>> OracleAnswers(
    const Workload& w, std::uint64_t seed,
    const std::vector<std::pair<int, std::int64_t>>& sessions, int slots,
    const std::vector<std::string>& probes) {
  ServerOptions o;
  o.threads = 1;
  o.result_cache = false;
  Result<std::unique_ptr<Server>> opened = Server::Open(w.BuildDataset(), o);
  ISIS_RETURN_NOT_OK(opened.status());
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();
  for (const auto& [session, issued] : sessions) {
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "oracle"),
        BenchRetryOptions(7));
    ISIS_RETURN_NOT_OK(client.Connect());
    OpStream stream(w, seed, session, session % slots, slots);
    for (std::int64_t k = 0; k < issued; ++k) {
      Op op = stream.Next();
      if (!op.mutates) continue;
      Result<Frame> resp = client.Call(WireType(op.kind), op.payload);
      ISIS_RETURN_NOT_OK(resp.status());
      std::string why;
      if (!ResponseOk(op, *resp, &why)) {
        return Status::Internal("oracle replay failed: " + why);
      }
    }
  }
  Result<std::vector<std::string>> answers = AnswerProbes(srv.get(), probes);
  (void)srv->Shutdown();
  return answers;
}

// --- Latency histogram. ---

int LatencyHist::Index(std::uint32_t v) {
  if (v < static_cast<std::uint32_t>(kSub)) return static_cast<int>(v);
  const int e = 31 - __builtin_clz(v) - 7;  // v >> e lands in [128, 256).
  return kSub + e * kSub + static_cast<int>((v >> e) - kSub);
}

double LatencyHist::Lower(int idx) {
  if (idx < kSub) return idx;
  const int e = (idx - kSub) / kSub;
  const double m = (idx - kSub) % kSub + kSub;
  return std::ldexp(m, e);
}

double LatencyHist::Upper(int idx) {
  if (idx < kSub) return idx + 1;
  const int e = (idx - kSub) / kSub;
  const double m = (idx - kSub) % kSub + kSub + 1;
  return std::ldexp(m, e);
}

void LatencyHist::Merge(const LatencyHist& o) {
  if (o.n_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  n_ += o.n_;
}

double LatencyHist::Quantile(double q) const {
  if (n_ == 0) return 0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(n_)));
  double before = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
    if (c > 0 && before + c >= rank) {
      const double frac = (rank - before - 0.5) / c;
      return Lower(i) + frac * (Upper(i) - Lower(i));
    }
    before += c;
  }
  return Upper(kBuckets - 1);
}

// --- The closed loop. ---

std::vector<ClientLog> RunClosedLoop(const Workload& w, Server* srv,
                                     const LoopOptions& opts,
                                     const TransportFactory& make_transport,
                                     double* elapsed) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(opts.clients),
                             ClientLog(opts.windows));
  const double window_s = (opts.seconds - opts.warm_seconds) / opts.windows;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> connected{0};
  std::atomic<std::int64_t> per_kind[kOpKinds] = {};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int c = 0; c < opts.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      const int session = opts.first_session + c;
      RetryingClient client(
          make_transport(srv, "bench" + std::to_string(session), c),
          BenchRetryOptions(opts.seed * 131 +
                            static_cast<std::uint64_t>(session)));
      Status st = client.Connect();
      connected.fetch_add(1);
      if (!st.ok()) {
        ++log.failed;
        log.first_failure = "connect: " + st.ToString();
        return;
      }
      OpStream stream(w, opts.seed, session, c, opts.clients);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        Op op = stream.Next();
        ++log.issued;
        const Clock::time_point t0 = Clock::now();
        Result<Frame> resp = client.Call(WireType(op.kind), op.payload);
        const Clock::time_point t1 = Clock::now();
        std::string why;
        bool ok = resp.ok() && ResponseOk(op, *resp, &why);
        if (!ok) {
          if (!resp.ok()) why = resp.status().ToString();
          if (log.failed++ == 0) log.first_failure = why;
        }
        const double done_s = std::chrono::duration<double>(t1 - start).count();
        if (done_s < opts.warm_seconds) continue;
        per_kind[op.kind].fetch_add(1, std::memory_order_relaxed);
        const int window = std::min(
            opts.windows - 1, static_cast<int>((done_s - opts.warm_seconds) /
                                           window_s));
        log.At(window, op.kind)
            .Add(static_cast<std::uint32_t>(
                std::min<std::int64_t>(NanosSince(t0, t1), UINT32_MAX)));
      }
      log.retry = client.counters();
    });
  }
  while (connected.load() < opts.clients) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  const auto deadline = start + std::chrono::duration<double>(opts.seconds);
  const auto hard_deadline =
      start + std::chrono::duration<double>(opts.max_seconds);
  std::this_thread::sleep_until(deadline);
  // Extend until every kind the mix issues has enough samples for its tail
  // percentile (a kind with no sample by now is not in the mix).
  while (Clock::now() < hard_deadline) {
    bool enough = true;
    for (int k = 0; k < kOpKinds; ++k) {
      const std::int64_t n = per_kind[k].load(std::memory_order_relaxed);
      if (n > 0 && n < opts.min_samples_per_kind) enough = false;
    }
    if (enough) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  *elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return logs;
}

}  // namespace perfbench
