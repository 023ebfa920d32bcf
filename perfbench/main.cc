/// \file main.cc
/// \brief isis_bench: one seeded workload against a real ISIS server.
///
///   isis_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              [--out-dir <dir>]
///
/// --trace 0 measures the end-to-end metrics with tracing off: set-up time
/// (median of several set-ups), then closed-loop sessions through
/// RetryingClient over LoopbackTransport for --seconds, reported as medians
/// over equal windows of the timed phase. --trace 1 measures the per-layer
/// metrics instead: an untraced and a traced closed-loop phase (their
/// throughput ratio is the tracing overhead), then a single-threaded replay
/// of the same op stream through each layer's public functions.
///
/// Every run checks its answers: the final probe answers must equal an
/// uncached, single-worker, fault-free replay of the same op stream, and on
/// the durable workload the probe answers after crash recovery must equal
/// the pre-crash ones. Each report line carries a host stanza; the last
/// line of stdout is the result object {"correct", "attempted", "failed",
/// "metrics"}. Exit status is 0 only when every check passed.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "server/loopback.h"
#include "store/wal.h"

#ifndef ISIS_BENCH_BUILD_TYPE
#define ISIS_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using isis::Result;
using isis::server::LoopbackTransport;
using isis::server::Server;

constexpr int kSetupRepeats = 64;
/// Samples each issued request type needs for its p99 to have at least ten
/// samples beyond it.
constexpr std::int64_t kMinSamples = 1100;
/// Target length of one window of the timed phase.
constexpr double kWindowSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
      } else if (k == "--seconds") {
        a->seconds = std::stod(v);
      } else if (k == "--trace") {
        a->trace = std::stoi(v);
      } else if (k == "--out-dir") {
        a->out_dir = v;
      } else {
        return false;
      }
    } catch (...) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// The CPUs the process may run on.
std::vector<int> AllowedCpus() {
  static const std::vector<int> kCpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int i = 0; i < CPU_SETSIZE; ++i) {
        if (CPU_ISSET(i, &set)) out.push_back(i);
      }
    }
    return out;
  }();
  return kCpus;
}

/// Restricts the calling thread (and threads it creates later) to `cpus`;
/// empty restores every CPU the process started with.
void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus.empty() ? AllowedCpus() : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// The q-quantile of `v`, interpolated between neighbouring order
/// statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Ordered "name": value pairs rendered as a JSON object body.
class JsonObject {
 public:
  JsonObject& Add(const std::string& k, double v) {
    return Raw(k, Num(v));
  }
  JsonObject& Str(const std::string& k, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return Raw(k, "\"" + esc + "\"");
  }
  JsonObject& Raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Host {
  int nproc = 1;
  int clients = 1;
  int workers = 1;
  std::string Stanza(std::uint64_t seed) const {
    JsonObject h;
    h.Add("nproc", nproc)
        .Str("build_type", ISIS_BENCH_BUILD_TYPE)
        .Str("compiler", std::string("gcc-compatible ") + __VERSION__)
        .Add("seed", static_cast<double>(seed))
        .Add("client_threads", clients)
        .Add("worker_threads", workers);
    return h.str();
  }
};

/// Statistics of one closed-loop phase, after dropping the warm-up.
///
/// The gated figures come from the phase's fastest quarter of windows: the
/// third quartile of the window throughputs and the first quartile of the
/// window medians. Other tenants of a shared host slow whole stretches of
/// seconds of a run (on a shared 4-vCPU virtual machine the time of a fixed
/// CPU loop was seen to swing by 75% within seconds); the fast quarter of
/// half-second windows stays closer to what the program itself does, and
/// moves less between runs of the same code than the median window.
struct PhaseStats {
  double throughput = 0;  ///< Third quartile over windows, ops/s.
  double p50_us = 0;      ///< First quartile of the window medians.
  double p90_us = 0;      ///< Median over windows, all request types.
  double p99_us = 0;
  LatencyHist by_kind[kOpKinds];  ///< Whole post-warm-up phase.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
  std::int64_t retries = 0;
  double whole_throughput = 0;  ///< Post-warm-up ops / post-warm-up time.
  std::vector<double> window_throughput;
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
};

PhaseStats Summarize(const std::vector<ClientLog>& logs, double elapsed,
                     const LoopOptions& lo) {
  PhaseStats st;
  const int windows = lo.windows;
  const double window_s = (lo.seconds - lo.warm_seconds) / windows;
  std::vector<double>& tput = st.window_throughput;
  std::vector<double>& p50 = st.window_p50_us;
  std::vector<double>& p90 = st.window_p90_us;
  std::vector<double> p99;
  std::int64_t counted = 0;
  for (int w = 0; w < windows; ++w) {
    LatencyHist all;
    for (const ClientLog& log : logs) {
      for (int k = 0; k < kOpKinds; ++k) {
        const LatencyHist& h = log.hist[static_cast<std::size_t>(
            w * kOpKinds + k)];
        all.Merge(h);
        st.by_kind[k].Merge(h);
      }
    }
    // The last window also holds any extension past `seconds`.
    const double len = w + 1 < windows
                           ? window_s
                           : elapsed - lo.warm_seconds - window_s * (windows - 1);
    tput.push_back(static_cast<double>(all.count()) / len);
    p50.push_back(all.Quantile(0.50) / 1000.0);
    p90.push_back(all.Quantile(0.90) / 1000.0);
    p99.push_back(all.Quantile(0.99) / 1000.0);
    counted += all.count();
  }
  for (const ClientLog& log : logs) {
    st.attempted += log.issued;
    st.failed += log.failed;
    st.retries += log.retry.retries;
    if (st.first_failure.empty()) st.first_failure = log.first_failure;
  }
  st.throughput = Quantile(tput, 0.75);
  st.p50_us = Quantile(p50, 0.25);
  st.p90_us = Median(p90);
  st.p99_us = Median(p99);
  st.whole_throughput =
      static_cast<double>(counted) / (elapsed - lo.warm_seconds);
  return st;
}

/// Per-request-type latency and sample-size figures of the report.
void AddPerKind(const PhaseStats& st, JsonObject* o) {
  for (int k = 0; k < kOpKinds; ++k) {
    const LatencyHist& h = st.by_kind[k];
    if (h.count() == 0) continue;
    const double n = static_cast<double>(h.count());
    const double beyond = n - std::ceil(0.99 * n);
    const std::string name = kOpKindNames[k];
    JsonObject s;
    s.Add("n", n).Add("beyond_p99", beyond).Raw(
        "p99_supported", beyond >= 10 ? "true" : "false");
    o->Add(name + "_p50_us", h.Quantile(0.50) / 1000.0)
        .Add(name + "_p99_us", h.Quantile(0.99) / 1000.0)
        .Raw(name + "_samples", s.str());
  }
}

struct Setup {
  std::unique_ptr<Server> srv;
  double setup_s = 0;
  std::string durable_dir;
};

/// One set-up: dataset build + Server::Open up to the first accepted hello.
Result<std::unique_ptr<Server>> OpenOnce(const Workload& w, const Host& host,
                                         const std::string& dir,
                                         double* seconds) {
  fs::create_directories(dir);
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Server>> opened = Server::Open(
      w.BuildDataset(), ServerOptionsFor(w, host.workers, dir));
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();
  LoopbackTransport hello(srv.get(), "setup");
  isis::Status st = hello.Reconnect(-1);
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  ISIS_RETURN_NOT_OK(st);
  return srv;
}

/// Times `repeats` set-ups, each pinned to the next CPU in turn: the
/// CPUs of a shared host run at different speeds that change over time,
/// and cycling through all of them keeps the median from landing on
/// whichever one the scheduler happened to pick. Then opens the server
/// the run uses, unpinned (its workers inherit the opener's CPU set).
bool DoSetup(const Workload& w, const Host& host, const std::string& scratch,
             int repeats, Setup* out, std::string* why) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    if (!cpus.empty()) {
      PinCurrentThread({cpus[static_cast<std::size_t>(r) % cpus.size()]});
    }
    double s = 0;
    Result<std::unique_ptr<Server>> srv =
        OpenOnce(w, host, scratch + "/setup" + std::to_string(r), &s);
    if (!srv.ok()) {
      PinCurrentThread({});
      *why = srv.status().ToString();
      return false;
    }
    times.push_back(s);
  }
  PinCurrentThread({});
  out->durable_dir = scratch + "/run";
  double s = 0;
  Result<std::unique_ptr<Server>> srv =
      OpenOnce(w, host, out->durable_dir, &s);
  if (!srv.ok()) {
    *why = srv.status().ToString();
    return false;
  }
  out->srv = std::move(srv).ValueOrDie();
  out->setup_s = times.empty() ? s : Median(times);
  return true;
}

TransportFactory LoopbackFactory() {
  return [](Server* srv, const std::string& name, int) {
    return std::unique_ptr<isis::server::ClientTransport>(
        std::make_unique<LoopbackTransport>(srv, name));
  };
}

/// Outcome of the oracle and (durable) crash-recovery checks.
struct Checks {
  std::int64_t mismatches = 0;
  std::string first_mismatch;
  double recovery_s = 0;
  double recovery_records = 0;
  void Mismatch(const std::string& why) {
    if (mismatches++ == 0) first_mismatch = why;
  }
};

std::vector<std::string> ProbesFor(const Workload& w, std::uint64_t seed) {
  std::vector<std::string> probes = w.Probes();
  if (w.name == "query_cold") {
    // The cold mix's own predicates: cached answers against uncached ones.
    OpStream s(w, seed, 0, 0, 1);
    for (int i = 0; i < 64; ++i) {
      Op op = s.Next();
      if (op.mutates) continue;
      std::vector<std::string> f = isis::server::SplitFields(op.payload);
      probes.push_back(f[0] + "|" + f[1]);
    }
  }
  return probes;
}

/// Compares the live server's probe answers with the oracle's; on a durable
/// workload then crashes the server, times its recovery, and requires the
/// recovered answers to equal the pre-crash ones. Leaves the recovered
/// server (or the original one) in setup->srv.
void RunChecks(const Workload& w, const Args& args, const Host& host,
               const std::vector<std::pair<int, std::int64_t>>& sessions,
               Setup* setup, Checks* checks) {
  const std::vector<std::string> probes = ProbesFor(w, args.seed);
  Result<std::vector<std::string>> live =
      AnswerProbes(setup->srv.get(), probes);
  Result<std::vector<std::string>> oracle =
      OracleAnswers(w, args.seed, sessions, host.clients, probes);
  if (!live.ok() || !oracle.ok()) {
    checks->Mismatch("probe failed: " +
                     (!live.ok() ? live.status() : oracle.status()).ToString());
    return;
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if ((*live)[i] != (*oracle)[i]) {
      checks->Mismatch("oracle mismatch on " + probes[i]);
    }
  }
  if (!w.durable) return;
  // Crash: drop the server without Shutdown(), then time the recovery.
  const std::string wal = setup->durable_dir + "/bench_" + w.name +
                          ".server.wal";
  Result<isis::store::WalContents> contents =
      isis::store::ReadWal(wal, isis::store::FileEnv::Default());
  setup->srv.reset();
  if (contents.ok()) {
    checks->recovery_records =
        static_cast<double>(contents->records.size()) - 1;  // Minus base.
  }
  // Open discards the workspace it is handed in favour of the WAL's base,
  // so building it is not part of the recovery.
  std::unique_ptr<isis::query::Workspace> unused = w.BuildDataset();
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Server>> reopened = Server::Open(
      std::move(unused), ServerOptionsFor(w, host.workers, setup->durable_dir));
  checks->recovery_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!reopened.ok()) {
    checks->Mismatch("recovery: " + reopened.status().ToString());
    return;
  }
  setup->srv = std::move(reopened).ValueOrDie();
  Result<std::vector<std::string>> after =
      AnswerProbes(setup->srv.get(), probes);
  if (!after.ok()) {
    checks->Mismatch("post-recovery probe: " + after.status().ToString());
    return;
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if ((*after)[i] != (*live)[i]) {
      checks->Mismatch("acknowledged write lost on " + probes[i]);
    }
  }
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<std::pair<std::string, std::string>>&
                     metrics,
                 const std::map<std::string, double>& values) {
  JsonObject m;
  for (const auto& [name, unit] : metrics) {
    JsonObject v;
    auto it = values.find(name);
    v.Add("value", it == values.end() ? 0.0 : it->second).Str("unit", unit);
    m.Raw(name, v.str());
  }
  JsonObject r;
  r.Raw("correct", correct ? "true" : "false")
      .Add("attempted", static_cast<double>(std::max<std::int64_t>(1, attempted)))
      .Add("failed", static_cast<double>(failed))
      .Raw("metrics", m.str());
  std::printf("%s\n", r.str().c_str());
  std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

int RunEndToEnd(const Workload& w, const Args& args, const Host& host,
                const std::string& scratch) {
  Setup setup;
  std::string why;
  if (!DoSetup(w, host, scratch, kSetupRepeats, &setup, &why)) {
    std::fprintf(stderr, "isis_bench: setup failed: %s\n", why.c_str());
    return 1;
  }
  LoopOptions lo;
  lo.clients = host.clients;
  lo.seconds = args.seconds;
  lo.warm_seconds = std::min(1.0, 0.1 * args.seconds);
  lo.windows = std::max(10, static_cast<int>(std::lround(
                                (args.seconds - lo.warm_seconds) /
                                kWindowSeconds)));
  lo.min_samples_per_kind = kMinSamples;
  lo.max_seconds = args.seconds * 3;
  lo.seed = args.seed;
  double elapsed = 0;
  std::vector<ClientLog> logs = RunClosedLoop(w, setup.srv.get(), lo,
                                              LoopbackFactory(), &elapsed);
  PhaseStats st = Summarize(logs, elapsed, lo);
  // The server's footprint under load: taken before the oracle's server
  // and crash recovery (which holds the whole log) add their own.
  const double peak_rss_mb = PeakRssMb();

  std::vector<std::pair<int, std::int64_t>> sessions;
  for (int c = 0; c < host.clients; ++c) {
    sessions.push_back({c, logs[static_cast<std::size_t>(c)].issued});
  }
  Checks checks;
  RunChecks(w, args, host, sessions, &setup, &checks);
  if (setup.srv != nullptr) (void)setup.srv->Shutdown();
  setup.srv.reset();

  const std::int64_t failed = st.failed + checks.mismatches;
  std::map<std::string, double> values = {
      {"setup_s", setup.setup_s},
      {"throughput_ops_s", st.throughput},
      {"latency_p50_us", st.p50_us},
      {"peak_rss_mb", peak_rss_mb},
  };
  JsonObject report;
  report.Str("report", "end_to_end")
      .Str("workload", w.name)
      .Raw("host", host.Stanza(args.seed))
      .Str("loop", "closed")
      .Add("seconds", elapsed)
      .Add("windows", lo.windows);
  for (const auto& [name, unit] : kEndToEnd) {
    report.Add(name, values[name]);
  }
  // The tails are reported, not gated: on a shared host they follow the
  // other tenants (on gesture_durable, the shared disk's fsync tail) and
  // move by a fifth to a half between runs of the same code.
  report.Add("latency_p90_us", st.p90_us).Add("latency_p99_us", st.p99_us);
  auto series = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ", ") + Num(x);
    return "[" + out + "]";
  };
  report.Raw("window_throughput_ops_s", series(st.window_throughput))
      .Raw("window_p50_us", series(st.window_p50_us))
      .Raw("window_p90_us", series(st.window_p90_us));
  AddPerKind(st, &report);
  report.Add("failed_frac", static_cast<double>(failed) /
                                static_cast<double>(std::max<std::int64_t>(
                                    1, st.attempted)))
      .Add("client_retries", static_cast<double>(st.retries))
      .Raw("oracle_match", checks.mismatches == 0 ? "true" : "false");
  if (w.durable) {
    report.Add("recovery_s", checks.recovery_s)
        .Add("recovery_records", checks.recovery_records);
  }
  if (failed > 0) {
    report.Str("first_failure", !st.first_failure.empty()
                                    ? st.first_failure
                                    : checks.first_mismatch);
  }
  std::printf("%s\n", report.str().c_str());
  const bool correct = failed == 0;
  PrintResult(correct, st.attempted, failed, kEndToEnd, values);
  return correct ? 0 : 1;
}

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"server.handle_us.query", "us"},
    {"server.handle_us.assign", "us"},
    {"server.handle_us.event", "us"},
    {"server.dispatch_us.query", "us"},
    {"server.dispatch_us.assign", "us"},
    {"server.dispatch_us.event", "us"},
    {"server.read_lock_wait_us_per_op", "us"},
    {"server.write_lock_wait_us_per_op", "us"},
    {"server.queue_peak", "count"},
    {"server.sheds", "count"},
    {"server.promotions", "count"},
    {"client.retries", "count"},
    {"proto.encode_us", "us"},
    {"proto.decode_us", "us"},
    {"proto.response_bytes", "bytes"},
    {"query.parse_us", "us"},
    {"query.normalize_us", "us"},
    {"query.cache_lookup_us", "us"},
    {"query.cache_hit_rate", "ratio"},
    {"query.cache_evictions", "count"},
    {"query.cache_invalidations", "count"},
    {"query.cache_flushes", "count"},
    {"query.eval_us", "us"},
    {"query.scanned_per_result", "ratio"},
    {"live.deps_us", "us"},
    {"live.deltas_seen", "count"},
    {"live.entities_retested", "count"},
    {"live.full_recomputes", "count"},
    {"sdm.names_us", "us"},
    {"sdm.apply_us", "us"},
    {"sdm.index_probes_per_query", "ratio"},
    {"ui.event_us", "us"},
    {"ui.render_us", "us"},
    {"gfx.to_string_us", "us"},
    {"input.decode_us", "us"},
    {"store.commit_wait_us", "us"},
    {"store.fsync_p50_us", "us"},
    {"store.syncs_per_write", "ratio"},
    {"store.wal_group_mean", "records"},
    {"store.wal_bytes_per_write", "bytes"},
    {"store.checkpoint_s", "s"},
    {"store.recovery_s", "s"},
    {"store.recovery_records", "count"},
    {"trace.throughput_ops_s", "1/s"},
    {"trace.untraced_throughput_ops_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
};

int RunTraced(const Workload& w, const Args& args, const Host& host,
              const std::string& scratch) {
  Setup setup;
  std::string why;
  if (!DoSetup(w, host, scratch, 0, &setup, &why)) {
    std::fprintf(stderr, "isis_bench: setup failed: %s\n", why.c_str());
    return 1;
  }
  const std::string wal_path =
      setup.durable_dir + "/bench_" + w.name + ".server.wal";
  std::error_code ec;
  const double wal_bytes0 =
      w.durable ? static_cast<double>(fs::file_size(wal_path, ec)) : 0.0;

  // Alternating untraced and traced phases, so slow drift of the host
  // cancels out of the overhead ratio. Each phase's sessions continue the
  // previous phase's slices (OpStream slot = client index).
  constexpr int kPhases = 4;
  LoopOptions lo;
  lo.clients = host.clients;
  lo.seconds = args.seconds * 0.7 / kPhases;
  lo.warm_seconds = 0.1 * lo.seconds;
  lo.max_seconds = lo.seconds;
  lo.seed = args.seed;
  std::vector<SpanLog> client_spans(static_cast<std::size_t>(host.clients),
                                    SpanLog(40000));
  std::vector<TransportTimes> client_times(
      static_cast<std::size_t>(host.clients));
  const TransportFactory tracing = [&](Server* srv, const std::string& name,
                                       int c) {
    return MakeTracingTransport(srv, name,
                                &client_spans[static_cast<std::size_t>(c)],
                                &client_times[static_cast<std::size_t>(c)]);
  };
  std::vector<std::pair<int, std::int64_t>> sessions;
  std::vector<std::int64_t> first_phase_issued;
  double ops[2] = {}, secs[2] = {}, phase_seconds = 0;  // [traced]
  // WAL figures of the traced phases only: the commit wait their writes paid.
  double sync_us = 0, syncs = 0, records = 0, writes = 0;
  std::int64_t attempted = 0, loop_failed = 0, retries = 0;
  std::string first_failure;
  for (int p = 0; p < kPhases; ++p) {
    const int traced = p % 2;
    lo.first_session = p * host.clients;
    double elapsed = 0;
    const isis::server::StatsSnapshot before = setup.srv->stats().Snapshot();
    std::vector<ClientLog> logs =
        RunClosedLoop(w, setup.srv.get(), lo,
                      traced ? tracing : LoopbackFactory(), &elapsed);
    if (traced) {
      const isis::server::StatsSnapshot after = setup.srv->stats().Snapshot();
      sync_us += static_cast<double>(after.wal_sync_us - before.wal_sync_us);
      syncs += static_cast<double>(after.wal_syncs - before.wal_syncs);
      records += static_cast<double>(after.wal_records - before.wal_records);
      writes += static_cast<double>(after.writes - before.writes);
    }
    PhaseStats st = Summarize(logs, elapsed, lo);
    ops[traced] += st.whole_throughput * (elapsed - lo.warm_seconds);
    secs[traced] += elapsed - lo.warm_seconds;
    phase_seconds += elapsed;
    attempted += st.attempted;
    loop_failed += st.failed;
    retries += st.retries;
    if (first_failure.empty()) first_failure = st.first_failure;
    for (int c = 0; c < host.clients; ++c) {
      const std::int64_t issued = logs[static_cast<std::size_t>(c)].issued;
      sessions.push_back({lo.first_session + c, issued});
      if (p == 0) first_phase_issued.push_back(issued);
    }
  }
  const double untraced_tput = secs[0] > 0 ? ops[0] / secs[0] : 0.0;
  const double traced_tput = secs[1] > 0 ? ops[1] / secs[1] : 0.0;
  TransportTimes tt;
  for (const TransportTimes& t : client_times) tt.Merge(t);

  isis::server::StatsSnapshot ss = setup.srv->stats().Snapshot();
  isis::query::ResultCache::Counters cc;
  if (setup.srv->result_cache() != nullptr) {
    cc = setup.srv->result_cache()->counters();
  }
  const double wal_bytes1 =
      w.durable ? static_cast<double>(fs::file_size(wal_path, ec)) : 0.0;

  Checks checks;
  RunChecks(w, args, host, sessions, &setup, &checks);
  if (setup.srv != nullptr) (void)setup.srv->Shutdown();
  setup.srv.reset();

  // Single-threaded layer replay of the first phase's op stream.
  SpanLog replay_spans(60000);
  LayerReport layers =
      ReplayLayers(w, args.seed, first_phase_issued, host.clients,
                   args.seconds * 0.3, scratch, &replay_spans);

  std::map<std::string, double> m = layers.metrics;
  auto mean_us = [&](const double* sums, int k) {
    return tt.n[k] > 0 ? sums[k] / 1000.0 / static_cast<double>(tt.n[k])
                       : 0.0;
  };
  double enc = 0, dec = 0, bytes = 0, n_all = 0;
  for (int k = 0; k < kOpKinds; ++k) {
    enc += tt.encode_ns[k];
    dec += tt.decode_ns[k];
    bytes += tt.response_bytes[k];
    n_all += static_cast<double>(tt.n[k]);
  }
  n_all = std::max(n_all, 1.0);
  m["proto.encode_us"] = enc / 1000.0 / n_all;
  m["proto.decode_us"] = dec / 1000.0 / n_all;
  m["proto.response_bytes"] = bytes / n_all;
  // Dispatch: what a request spends inside HandleFrame beyond the summed
  // self times of the layers below it. A durable write also waits for its
  // group's fsync; that wait is taken from the traced phases themselves
  // (mean fsync time times WAL records per write), not from the replay,
  // whose single writer never shares an fsync.
  const double commit_us =
      syncs > 0 && writes > 0 ? sync_us / syncs * (records / writes) : 0.0;
  const double below[kOpKinds] = {
      m["query.parse_us"] + m["query.normalize_us"] +
          m["query.cache_lookup_us"] + m["query.eval_us"] +
          m["live.deps_us"] + m["sdm.names_us"],
      m["sdm.apply_us"] + commit_us,
      m["input.decode_us"] + m["ui.event_us"] + m["ui.render_us"] +
          m["gfx.to_string_us"] + commit_us,
  };
  for (int k = 0; k < kOpKinds; ++k) {
    const std::string kind = kOpKindNames[k];
    const double handle = mean_us(tt.handle_ns, k);
    m["server.handle_us." + kind] = handle;
    m["server.dispatch_us." + kind] = tt.n[k] > 0 ? handle - below[k] : 0.0;
  }
  m["server.read_lock_wait_us_per_op"] =
      ss.reads > 0 ? static_cast<double>(ss.read_lock_wait_us) /
                         static_cast<double>(ss.reads)
                   : 0.0;
  m["server.write_lock_wait_us_per_op"] =
      ss.writes > 0 ? static_cast<double>(ss.write_lock_wait_us) /
                          static_cast<double>(ss.writes)
                    : 0.0;
  m["server.queue_peak"] = static_cast<double>(ss.queue_peak);
  m["server.sheds"] = static_cast<double>(ss.sheds);
  m["server.promotions"] = static_cast<double>(ss.promotions);
  m["client.retries"] = static_cast<double>(retries);
  const double lookups = static_cast<double>(cc.hits + cc.misses);
  m["query.cache_hit_rate"] =
      lookups > 0 ? static_cast<double>(cc.hits) / lookups : 0.0;
  m["query.cache_evictions"] = static_cast<double>(cc.evictions);
  m["query.cache_invalidations"] = static_cast<double>(cc.invalidations);
  m["query.cache_flushes"] =
      static_cast<double>(cc.schema_flushes + cc.version_flushes);
  m["store.fsync_p50_us"] = ss.fsync_p50_us;
  m["store.syncs_per_write"] =
      ss.wal_records > 0 ? static_cast<double>(ss.wal_syncs) /
                               static_cast<double>(ss.wal_records)
                         : 0.0;
  m["store.wal_group_mean"] =
      ss.wal_batches > 0 ? static_cast<double>(ss.wal_records) /
                               static_cast<double>(ss.wal_batches)
                         : 0.0;
  m["store.wal_bytes_per_write"] =
      ss.wal_records > 0
          ? (wal_bytes1 - wal_bytes0) / static_cast<double>(ss.wal_records)
          : 0.0;
  m["store.recovery_s"] = checks.recovery_s;
  m["store.recovery_records"] = checks.recovery_records;
  m["trace.throughput_ops_s"] = traced_tput;
  m["trace.untraced_throughput_ops_s"] = untraced_tput;
  m["trace.overhead_frac"] =
      untraced_tput > 0 ? 1.0 - traced_tput / untraced_tput : 0.0;

  SpanLog all(0);
  for (const SpanLog& s : client_spans) all.Merge(s);
  all.Merge(replay_spans);
  fs::create_directories(args.out_dir, ec);
  const std::string spans_path =
      args.out_dir + "/spans-" + w.name + ".csv";
  const bool wrote = all.WriteCsv(spans_path);

  const std::int64_t failed = loop_failed + checks.mismatches + layers.failed;
  JsonObject report;
  report.Str("report", "per_layer")
      .Str("workload", w.name)
      .Raw("host", host.Stanza(args.seed))
      .Add("phases", kPhases)
      .Add("phase_seconds", phase_seconds)
      .Add("replayed_ops", static_cast<double>(layers.ops))
      .Add("spans", static_cast<double>(all.size()))
      .Str("spans_file", wrote ? spans_path : "");
  for (const auto& [name, unit] : kPerLayer) report.Add(name, m[name]);
  report.Add("server.commit_wait_us_per_write", commit_us)
      .Add("replay.glue_us.query", m["replay.glue_us.query"])
      .Add("replay.glue_us.assign", m["replay.glue_us.assign"])
      .Add("replay.glue_us.event", m["replay.glue_us.event"])
      .Raw("oracle_match", checks.mismatches == 0 ? "true" : "false");
  if (failed > 0) {
    report.Str("first_failure", !first_failure.empty() ? first_failure
                                : !layers.first_failure.empty()
                                    ? layers.first_failure
                                    : checks.first_mismatch);
  }
  std::printf("%s\n", report.str().c_str());
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, kPerLayer, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: isis_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "isis_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Host host;
  const std::vector<int> cpus = AllowedCpus();
  host.nproc = std::max(1, static_cast<int>(cpus.size()));
  // Client threads plus server workers stay within the cores.
  host.clients = std::max(1, host.nproc / 2);
  host.workers = std::max(1, host.nproc - host.clients);

  const std::string scratch = args.out_dir + "/scratch-" + w->name + "-" +
                              std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "isis_bench: cannot create %s\n", scratch.c_str());
    return 2;
  }
  const int rc = args.trace == 1 ? RunTraced(*w, args, host, scratch)
                                 : RunEndToEnd(*w, args, host, scratch);
  fs::remove_all(scratch, ec);
  return rc;
}
