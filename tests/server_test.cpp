/// \file server_test.cpp
/// \brief The multi-session server: wire protocol framing, session
/// isolation, reader/writer linearizability against a single-threaded
/// oracle, backpressure shedding, durable shutdown and crash recovery.
///
/// Runs under ThreadSanitizer in CI (ISIS_SANITIZE=thread) -- the
/// concurrency assertions here are what that job is for.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/sync.h"
#include "datasets/instrumental_music.h"
#include "datasets/scaled_music.h"
#include "input/event.h"
#include "query/eval.h"
#include "query/parser.h"
#include "server/executor.h"
#include "server/faults.h"
#include "server/loopback.h"
#include "server/net.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"
#include "server/stats.h"
#include "store/file.h"
#include "store/serializer.h"
#include "store/wal.h"

namespace isis::server {
namespace {

// --- Protocol framing. ---

TEST(ProtoTest, RoundTripsFrames) {
  for (const std::string& payload :
       {std::string(""), std::string("plain"),
        std::string("fields|with|bars\nand newlines"),
        std::string("\x00\x01\xff binary", 10)}) {
    Frame in;
    in.type = MsgType::kQuery;
    in.seq = 42;
    in.payload = payload;
    std::string wire = EncodeFrame(in);
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(wire, &out, &consumed), DecodeResult::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(ProtoTest, EveryTruncationNeedsMore) {
  Frame in;
  in.type = MsgType::kEvent;
  in.seq = 7;
  in.payload = "cmd view contents";
  std::string wire = EncodeFrame(in);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Frame out;
    std::size_t consumed = 1;
    EXPECT_EQ(DecodeFrame(wire.substr(0, n), &out, &consumed),
              DecodeResult::kNeedMore)
        << "prefix length " << n;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(ProtoTest, RejectsCorruptFrames) {
  Frame in;
  in.type = MsgType::kQuery;
  in.seq = 3;
  in.payload = "musicians|e.plays ]= {flute}";
  const std::string wire = EncodeFrame(in);
  Frame out;
  std::size_t consumed = 0;
  std::string error;

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeFrame(bad_magic, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "bad magic");

  std::string bad_type = wire;
  bad_type[2] = '\x3f';  // 63: between the request and response ranges.
  EXPECT_EQ(DecodeFrame(bad_type, &out, &consumed, &error),
            DecodeResult::kError);

  std::string bad_flags = wire;
  bad_flags[3] = '\x80';  // A flag bit this version does not know.
  EXPECT_EQ(DecodeFrame(bad_flags, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "unknown header flags");

  std::string flipped_payload = wire;
  flipped_payload[kHeaderSize + 4] ^= 0x20;  // CRC must catch this.
  EXPECT_EQ(DecodeFrame(flipped_payload, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "payload checksum mismatch");

  std::string oversize = wire;
  oversize[8] = '\xff';  // payload_len low byte
  oversize[9] = '\xff';
  oversize[10] = '\xff';
  oversize[11] = '\x7f';
  EXPECT_EQ(DecodeFrame(oversize, &out, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error, "payload too large");
}

TEST(ProtoTest, RoundTripsHeaderExtensions) {
  // Every flag combination: none (a v0 frame), deadline only, write_seq
  // only, both.
  const struct {
    std::uint32_t deadline_ms;
    std::uint64_t write_seq;
  } cases[] = {{0, 0}, {1500, 0}, {0, 77}, {250, 0x1122334455667788ull}};
  for (const auto& c : cases) {
    Frame in;
    in.type = MsgType::kAssign;
    in.seq = 9;
    in.deadline_ms = c.deadline_ms;
    in.write_seq = c.write_seq;
    in.payload = "musicians|musician0|plays|inst1";
    const std::string wire = EncodeFrame(in);
    if (c.deadline_ms == 0 && c.write_seq == 0) {
      EXPECT_EQ(wire[3], '\0') << "extension-free frames stay v0 on the wire";
    }
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(wire, &out, &consumed), DecodeResult::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.deadline_ms, c.deadline_ms);
    EXPECT_EQ(out.write_seq, c.write_seq);
    EXPECT_EQ(out.payload, in.payload);
    // No prefix decodes, none is mistaken for a complete frame.
    for (std::size_t n = 0; n < wire.size(); ++n) {
      std::size_t used = 1;
      EXPECT_EQ(DecodeFrame(wire.substr(0, n), &out, &used),
                DecodeResult::kNeedMore)
          << "prefix length " << n;
    }
  }
}

TEST(ProtoTest, FrameReaderReassemblesByteByByte) {
  Frame a{MsgType::kRender, 1, ""};
  Frame b{MsgType::kQuery, 2, "musicians|e.plays ]= {inst0}"};
  std::string wire = EncodeFrame(a) + EncodeFrame(b);
  FrameReader reader;
  std::vector<Frame> decoded;
  for (char c : wire) {
    reader.Feed(&c, 1);
    Frame f;
    while (reader.Next(&f) == DecodeResult::kOk) decoded.push_back(f);
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, MsgType::kRender);
  EXPECT_EQ(decoded[1].payload, b.payload);
  EXPECT_EQ(reader.pending(), 0u);
}

// --- Executor: run-to-completion dispatch. ---

/// A one-shot gate: Wait() blocks until some thread calls Open().
class Gate {
 public:
  void Open() {
    isis::MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  void Wait() {
    isis::MutexLock lock(mu_);
    cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return open_;
    });
  }
  /// Wait() bounded by `timeout`; false if the gate is still shut.
  bool WaitFor(std::chrono::milliseconds timeout) {
    isis::MutexLock lock(mu_);
    return cv_.WaitFor(lock, timeout, [this] {
      mu_.AssertHeld();
      return open_;
    });
  }

 private:
  isis::Mutex mu_;
  isis::CondVar cv_;
  bool open_ ISIS_GUARDED_BY(mu_) = false;
};

/// The order tasks ran in, recorded from whichever thread ran them.
class RunOrder {
 public:
  TaskFn Task(int tag) {
    return [this, tag]() -> PostLockFn {
      isis::MutexLock lock(mu_);
      tags_.push_back(tag);
      return {};
    };
  }
  std::vector<int> tags() {
    isis::MutexLock lock(mu_);
    return tags_;
  }

 private:
  isis::Mutex mu_;
  std::vector<int> tags_ ISIS_GUARDED_BY(mu_);
};

TEST(ExecutorTest, RunInlineRunsOnTheCallingThread) {
  ServerStats stats;
  Executor ex(Executor::Options{}, &stats);
  ex.AddLane(7);
  const std::thread::id caller = std::this_thread::get_id();
  for (TaskMode mode :
       {TaskMode::kShared, TaskMode::kExclusive, TaskMode::kNone}) {
    std::thread::id body;
    std::thread::id after;
    EXPECT_TRUE(ex.RunInline(7, mode, [&]() -> PostLockFn {
      body = std::this_thread::get_id();
      return [&] { after = std::this_thread::get_id(); };
    }));
    EXPECT_EQ(body, caller);
    EXPECT_EQ(after, caller) << "the continuation runs on the caller too";
  }
  ex.Shutdown();
  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.inline_runs, 3);
  EXPECT_EQ(s.reads, 1);
  EXPECT_EQ(s.writes, 1);
  EXPECT_EQ(s.queue_peak, 0) << "an inline run never touches the queue";
}

TEST(ExecutorTest, RunInlineRefusesARunningLaneAndKeepsTheTask) {
  Executor ex(Executor::Options{});
  ex.AddLane(1);
  Gate started;
  Gate release;
  RunOrder order;
  ASSERT_EQ(ex.Submit(1, TaskMode::kShared,
                      [&, first = order.Task(1)]() -> PostLockFn {
                        first();
                        started.Open();
                        release.Wait();
                        return {};
                      }),
            SubmitResult::kAccepted);
  started.Wait();

  TaskFn second = order.Task(2);
  EXPECT_FALSE(ex.RunInline(1, TaskMode::kShared, second));
  ASSERT_TRUE(second) << "a refused task must stay intact";
  ASSERT_EQ(ex.Submit(1, TaskMode::kShared, std::move(second)),
            SubmitResult::kAccepted);
  release.Open();
  ex.Shutdown();
  EXPECT_EQ(order.tags(), (std::vector<int>{1, 2}));
}

TEST(ExecutorTest, RunInlineRefusesALaneWithQueuedWork) {
  // Lane 1 holds the only worker, so lane 2's first task stays queued.
  Executor::Options options;
  options.threads = 1;
  Executor ex(options);
  ex.AddLane(1);
  ex.AddLane(2);
  Gate started;
  Gate release;
  ASSERT_EQ(ex.Submit(1, TaskMode::kNone,
                      [&]() -> PostLockFn {
                        started.Open();
                        release.Wait();
                        return {};
                      }),
            SubmitResult::kAccepted);
  started.Wait();

  RunOrder order;
  ASSERT_EQ(ex.Submit(2, TaskMode::kShared, order.Task(1)),
            SubmitResult::kAccepted);
  TaskFn late = order.Task(2);
  EXPECT_FALSE(ex.RunInline(2, TaskMode::kShared, late))
      << "running ahead of queued work would break lane order";
  ASSERT_TRUE(late);
  ASSERT_EQ(ex.Submit(2, TaskMode::kShared, std::move(late)),
            SubmitResult::kAccepted);
  release.Open();
  ex.Shutdown();
  EXPECT_EQ(order.tags(), (std::vector<int>{1, 2}));
}

TEST(ExecutorTest, RunInlineRefusesAfterShutdown) {
  ServerStats stats;
  Executor ex(Executor::Options{}, &stats);
  ex.AddLane(1);
  ex.Shutdown();
  RunOrder order;
  TaskFn task = order.Task(1);
  EXPECT_FALSE(ex.RunInline(1, TaskMode::kShared, task));
  EXPECT_TRUE(task);
  EXPECT_TRUE(order.tags().empty());
  EXPECT_EQ(stats.Snapshot().inline_runs, 0);
}

TEST(RwMutexTest, WritersRunAloneUnderContention) {
  // Inline runs make the database lock contended by client threads. Writers
  // keep two counters equal; a reader that ever sees them differ overlapped
  // a writer (ThreadSanitizer would also report the race), and a lost
  // wake-up would hang the test.
  isis::RwMutex mu;
  long a = 0;
  long b = 0;
  std::atomic<int> torn{0};
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        isis::WriterLock lock(mu);
        ++a;
        ++b;
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        isis::ReaderLock lock(mu);
        if (a != b) torn.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(a, 4 * kOps);
}

TEST(ServerStatsTest, LockWaitsSumInNanoseconds) {
  // Sub-microsecond waits are the common case for an uncontended lock;
  // each one must count, not round down to zero.
  ServerStats stats;
  for (int i = 0; i < 1000; ++i) {
    stats.RecordDispatch(/*exclusive=*/false, std::chrono::nanoseconds(600));
  }
  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.reads, 1000);
  EXPECT_EQ(s.read_lock_wait_us, 600);
  EXPECT_EQ(s.write_lock_wait_us, 0);
}

// --- Server fixtures. ---

std::unique_ptr<Server> OpenScaled(int threads, int queue_capacity = 64,
                                   const std::string& durable_dir = "",
                                   const std::string& db_name = "") {
  ServerOptions options;
  options.threads = threads;
  options.queue_capacity = queue_capacity;
  options.durable_dir = durable_dir;
  std::unique_ptr<query::Workspace> ws = datasets::BuildScaledMusic(2);
  // Durable tests run in parallel from the same temp dir; a unique name
  // keeps their WAL/checkpoint files from colliding.
  if (!db_name.empty()) ws->set_name(db_name);
  Result<std::unique_ptr<Server>> opened =
      Server::Open(std::move(ws), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

/// What the server's kQueryResult payload should be, computed
/// single-threaded: the oracle for the byte-identical comparisons.
std::string OraclePayload(const query::Workspace& ws, const std::string& cls,
                          const std::string& predicate) {
  const sdm::Database& db = ws.db();
  Result<ClassId> cr = db.schema().FindClass(cls);
  EXPECT_TRUE(cr.ok());
  ClassId c = cr.ValueOrDie();
  Result<query::Predicate> pr = query::ParsePredicate(db, c, predicate);
  EXPECT_TRUE(pr.ok());
  query::Predicate pred = std::move(pr).ValueOrDie();
  query::Evaluator ev(db);
  sdm::EntitySet result = ev.EvaluateSubclass(pred, c);
  std::vector<std::string> fields;
  fields.push_back(std::to_string(result.size()));
  for (EntityId e : result) fields.push_back(db.NameOf(e));
  return JoinFields(fields);
}

// --- Basic request flow. ---

TEST(ServerTest, HelloQueryMatchesOracle) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_GE(client.session_id(), 1);

  const std::string predicate = "e.plays ]= {inst0}";
  Result<Frame> resp =
      client.Call(MsgType::kQuery, JoinFields({"musicians", predicate}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
  EXPECT_EQ(resp->payload,
            OraclePayload(srv->workspace(), "musicians", predicate));

  Result<Frame> explain =
      client.Call(MsgType::kExplain, JoinFields({"musicians", predicate}));
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(explain->type, MsgType::kExplainResult);
  EXPECT_NE(explain->payload.find("clause 1"), std::string::npos)
      << explain->payload;
  srv->Shutdown();
}

TEST(ServerTest, QueryErrorsComeBackTyped) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());

  Result<Frame> resp = client.Call(
      MsgType::kQuery, JoinFields({"no_such_class", "e.plays ]= {inst0}"}));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->payload.rfind("NotFound|", 0), 0u) << resp->payload;

  LoopbackTransport stranger(srv.get(), "stranger");
  // No hello: session id -1 is unknown.
  Result<Frame> unknown = stranger.CallFrame(Frame{MsgType::kRender, 1, ""});
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->type, MsgType::kError);
  srv->Shutdown();
}

TEST(ServerTest, SessionsKeepIndependentUiState) {
  ServerOptions options;
  options.threads = 4;
  Result<std::unique_ptr<Server>> opened =
      Server::Open(datasets::BuildInstrumentalMusic(), options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();

  RetryingClient a(std::make_unique<LoopbackTransport>(srv.get(), "a"),
                   RetryOptions());
  RetryingClient b(std::make_unique<LoopbackTransport>(srv.get(), "b"),
                   RetryOptions());
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());
  ASSERT_NE(a.session_id(), b.session_id());
  EXPECT_EQ(srv->session_count(), 2);

  // A navigates into a class; B stays at the forest.
  Result<Frame> ev =
      a.Call(MsgType::kEvent, "pick class:musicians");
  ASSERT_TRUE(ev.ok());
  ASSERT_EQ(ev->type, MsgType::kScreen) << ev->payload;

  Result<Frame> screen_a = a.Call(MsgType::kRender, "");
  Result<Frame> screen_b = b.Call(MsgType::kRender, "");
  ASSERT_TRUE(screen_a.ok());
  ASSERT_TRUE(screen_b.ok());
  ASSERT_EQ(screen_a->type, MsgType::kScreen);
  ASSERT_EQ(screen_b->type, MsgType::kScreen);
  EXPECT_NE(screen_a->payload, screen_b->payload);
  // Both sessions see the same shared schema, though: the class A picked
  // exists on B's forest too.
  EXPECT_NE(screen_b->payload.find("musicians"), std::string::npos);

  Result<Frame> bye = a.Call(MsgType::kBye, "");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->type, MsgType::kOk);
  EXPECT_EQ(srv->session_count(), 1);
  srv->Shutdown();
}

// --- Concurrency. ---

/// N readers poll a query while one writer rewrites musicians' kits to
/// {inst0}; reader counts must be non-decreasing (each write only adds
/// players of inst0) and the final answer must be byte-identical to a
/// single-threaded oracle that applied the same writes.
TEST(ServerTest, ReadersSeeMonotoneCountsUnderOneWriter) {
  constexpr int kReaders = 3;
  constexpr int kWrites = 12;
  const std::string predicate = "e.plays ]= {inst0}";

  std::unique_ptr<Server> srv = OpenScaled(4);
  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      RetryingClient client(
          std::make_unique<LoopbackTransport>(srv.get(), "reader"),
          RetryOptions());
      ASSERT_TRUE(client.Connect().ok());
      long long last = -1;
      while (!done.load()) {
        Result<Frame> resp = client.Call(
            MsgType::kQuery, JoinFields({"musicians", predicate}));
        ASSERT_TRUE(resp.ok());
        ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
        long long count = std::stoll(SplitFields(resp->payload)[0]);
        if (count < last) monotone.store(false);
        last = count;
      }
    });
  }

  RetryingClient writer(
      std::make_unique<LoopbackTransport>(srv.get(), "writer"),
      RetryOptions());
  ASSERT_TRUE(writer.Connect().ok());
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(writer
                    .Assign("musicians", "musician" + std::to_string(i),
                            "plays", "inst0")
                    .ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(monotone.load());

  // Oracle: same writes, single-threaded, then the same query.
  std::unique_ptr<query::Workspace> oracle = datasets::BuildScaledMusic(2);
  datasets::ScaledMusicHandles h = datasets::ResolveScaledMusic(*oracle);
  sdm::Database& odb = oracle->db();
  Result<EntityId> inst0 = odb.FindMember(h.instruments, "inst0");
  ASSERT_TRUE(inst0.ok());
  for (int i = 0; i < kWrites; ++i) {
    Result<EntityId> m =
        odb.FindMember(h.musicians, "musician" + std::to_string(i));
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(odb.SetMulti(*m, h.plays, {*inst0}).ok());
  }
  Result<Frame> final_resp = writer.Call(
      MsgType::kQuery, JoinFields({"musicians", predicate}));
  ASSERT_TRUE(final_resp.ok());
  ASSERT_EQ(final_resp->type, MsgType::kQueryResult);
  EXPECT_EQ(final_resp->payload,
            OraclePayload(*oracle, "musicians", predicate));
  srv->Shutdown();
}

/// A query whose constant was never interned runs while interning is
/// frozen; the server must transparently promote it to the exclusive lock
/// and still answer correctly.
TEST(ServerTest, PromotesReadsThatInternUnseenConstants) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());

  // No group has size 123456; the integer itself has never been seen, so a
  // frozen parse cannot intern it.
  Result<Frame> resp = client.Call(
      MsgType::kQuery, JoinFields({"music_groups", "e.size = {123456}"}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
  EXPECT_EQ(SplitFields(resp->payload)[0], "0");
  EXPECT_GE(srv->stats().Snapshot().promotions, 1);
  srv->Shutdown();
}

TEST(ServerTest, ShedsWhenASessionQueueOverflows) {
  // One worker and a tiny queue: a flood of requests sent without waiting
  // for their answers must overflow.
  std::unique_ptr<Server> srv = OpenScaled(1, /*queue_capacity=*/2);
  LoopbackTransport client(srv.get(), "flood");
  ASSERT_TRUE(client.Reconnect(-1).ok());

  constexpr int kBurst = 40;
  isis::Mutex mu;
  isis::CondVar cv;
  int responded = 0;
  int retries = 0;
  int answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame req;
    req.type = MsgType::kQuery;
    req.seq = static_cast<std::uint32_t>(i + 1);
    req.payload = JoinFields({"musicians", "e.plays ]= {inst0}"});
    srv->HandleFrame(client.session_id(), req, [&](const Frame& resp) {
      isis::MutexLock lock(mu);
      ++responded;
      if (resp.type == MsgType::kRetry) {
        ++retries;
      } else if (resp.type == MsgType::kQueryResult) {
        ++answered;
      }
      cv.NotifyOne();
    });
  }
  isis::MutexLock lock(mu);
  cv.Wait(lock, [&] { return responded == kBurst; });
  EXPECT_EQ(retries + answered, kBurst);
  EXPECT_GT(retries, 0) << "queue of 2 never overflowed under a burst of "
                        << kBurst;
  EXPECT_GT(answered, 0);
  EXPECT_GE(srv->stats().Snapshot().sheds, retries);
  lock.Unlock();
  srv->Shutdown();
}

TEST(ServerTest, StatsRequestReportsCounters) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(
      client.Query("musicians", "e.plays ]= {inst0}").ok());

  Result<Frame> resp = client.Call(MsgType::kStats, "");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kStatsResult);
  EXPECT_NE(resp->payload.find("\"requests\""), std::string::npos);
  EXPECT_NE(resp->payload.find("\"p95_us\""), std::string::npos);

  std::string final_line = srv->Shutdown();
  EXPECT_NE(final_line.find("\"server_stats\""), std::string::npos);
  StatsSnapshot s = srv->stats().Snapshot();
  EXPECT_GE(s.requests, 3);  // hello + query + stats
  EXPECT_GE(s.reads, 1);
  EXPECT_EQ(s.queue_depth, 0) << "shutdown must drain every queue";
  // One serial loopback session: every request found its lane idle.
  EXPECT_GE(s.inline_runs, 2);
  EXPECT_EQ(s.queue_peak, 0);
  EXPECT_NE(final_line.find("\"inline_runs\""), std::string::npos);
  // Not durable: nothing is logged, so no reply skips a commit wait.
  EXPECT_EQ(s.unwaited_replies, 0);
  EXPECT_NE(final_line.find("\"unwaited_replies\": 0"), std::string::npos);
}

TEST(ServerTest, CallRunsInlineButHandleFrameAlwaysQueues) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackTransport client(srv.get(), "t");
  ASSERT_TRUE(client.Reconnect(-1).ok());
  const Frame query{MsgType::kQuery, 2,
                    JoinFields({"musicians", "e.plays ]= {inst0}"})};

  const std::int64_t before = srv->stats().Snapshot().inline_runs;
  Result<Frame> called = srv->Call(client.session_id(), query);
  ASSERT_TRUE(called.ok());
  EXPECT_EQ(called->type, MsgType::kQueryResult) << called->payload;
  EXPECT_EQ(srv->stats().Snapshot().inline_runs, before + 1);

  // HandleFrame serves the transports whose thread must not block (the TCP
  // poll loop): the answer always comes from a worker.
  Gate answered;
  std::thread::id answered_on;
  srv->HandleFrame(client.session_id(), query, [&](const Frame& resp) {
    EXPECT_EQ(resp.payload, called->payload);
    answered_on = std::this_thread::get_id();
    answered.Open();
  });
  answered.Wait();
  EXPECT_NE(answered_on, std::this_thread::get_id());
  EXPECT_EQ(srv->stats().Snapshot().inline_runs, before + 1);
  srv->Shutdown();
}

TEST(ServerTest, CallAfterShutdownAnswersError) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackTransport client(srv.get(), "late");
  ASSERT_TRUE(client.Reconnect(-1).ok());
  srv->Shutdown();
  Result<Frame> resp =
      srv->Call(client.session_id(),
                Frame{MsgType::kQuery, 2,
                      JoinFields({"musicians", "e.plays ]= {inst0}"})});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->type, MsgType::kError) << resp->payload;
}

// --- Fault tolerance: deadlines, heartbeats, resume, dedup. ---

TEST(ServerTest, PingPongEchoesWithoutASession) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  Frame ping;
  ping.type = MsgType::kPing;
  ping.seq = 5;
  ping.payload = "are-you-there";
  // No hello first: liveness probes need no session.
  LoopbackTransport probe(srv.get(), "probe");
  Result<Frame> pong = probe.CallFrame(ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, MsgType::kPong);
  EXPECT_EQ(pong->seq, 5u);
  EXPECT_EQ(pong->payload, "are-you-there");
  EXPECT_EQ(srv->stats().Snapshot().heartbeats, 1);
  srv->Shutdown();
}

TEST(ServerTest, ExpiredRequestsAreDroppedBeforeDispatch) {
  // One worker and a deep queue: a burst of 1ms-deadline queries lapses
  // while queued, and the stragglers must come back kDeadlineExceeded
  // without ever running. The first reply's callback holds the worker
  // until the whole burst is queued and every 1ms budget has lapsed, so
  // the outcome does not depend on how fast a query evaluates.
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 512;
  options.result_cache = false;
  Result<std::unique_ptr<Server>> opened =
      Server::Open(datasets::BuildScaledMusic(2), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();
  LoopbackTransport client(srv.get(), "deadline");
  ASSERT_TRUE(client.Reconnect(-1).ok());

  constexpr int kBurst = 300;
  constexpr int kGenerous = 10;
  Gate hold;
  isis::Mutex mu;
  isis::CondVar cv;
  int responded = 0;
  int expired = 0;
  int answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame req;
    req.type = MsgType::kQuery;
    req.seq = static_cast<std::uint32_t>(i + 10);
    // A generous budget for the head of the queue (those must answer), a
    // 1ms budget for the rest (held behind the first reply, they lapse).
    req.deadline_ms = i < kGenerous ? 10000 : 1;
    req.payload = JoinFields({"musicians", "e.plays ]= {inst0}"});
    srv->HandleFrame(client.session_id(), req, [&, i](const Frame& resp) {
      if (i == 0) hold.Wait();
      isis::MutexLock lock(mu);
      ++responded;
      if (resp.type == MsgType::kDeadlineExceeded) ++expired;
      if (resp.type == MsgType::kQueryResult) ++answered;
      cv.NotifyOne();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hold.Open();
  {
    isis::MutexLock lock(mu);
    cv.Wait(lock, [&] { return responded == kBurst; });
    EXPECT_EQ(expired, kBurst - kGenerous)
        << "1ms deadlines survived 20ms of a held " << kBurst
        << "-deep queue on one worker";
    EXPECT_EQ(answered, kGenerous) << "the head of the queue was in budget";
  }
  EXPECT_GE(srv->stats().Snapshot().deadline_drops, expired);
  srv->Shutdown();
}

TEST(ServerTest, ResentWritesDedupOnWriteSeq) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  // Hand-built frames go straight through the transport; the queries on
  // the same session through the client that owns it.
  auto transport = std::make_unique<LoopbackTransport>(srv.get(), "dedup");
  LoopbackTransport* wire = transport.get();
  RetryingClient client(std::move(transport), RetryOptions());
  ASSERT_TRUE(client.Connect().ok());

  Frame first;
  first.type = MsgType::kAssign;
  first.seq = 100;
  first.write_seq = 7;
  first.payload = JoinFields({"musicians", "musician0", "plays", "inst1"});
  Result<Frame> resp = wire->CallFrame(first);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kOk) << resp->payload;

  // A *different* mutation arriving under the same write_seq is by
  // definition a resend of the first (the client reuses the seq only on
  // resends): the cached response comes back and nothing is applied.
  Frame resend;
  resend.type = MsgType::kAssign;
  resend.seq = 101;
  resend.write_seq = 7;
  resend.payload = JoinFields({"musicians", "musician1", "plays", "inst1"});
  Result<Frame> cached = wire->CallFrame(resend);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->type, MsgType::kOk);
  EXPECT_EQ(cached->seq, 101u) << "cached response must carry the new seq";
  EXPECT_EQ(srv->stats().Snapshot().dedup_hits, 1);

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician0"),
            players->end());
  EXPECT_EQ(std::find(players->begin(), players->end(), "musician1"),
            players->end())
      << "the deduped resend must not have applied";

  // A fresh write_seq applies normally.
  Frame next;
  next.type = MsgType::kAssign;
  next.seq = 102;
  next.write_seq = 8;
  next.payload = JoinFields({"musicians", "musician1", "plays", "inst1"});
  Result<Frame> applied = wire->CallFrame(next);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->type, MsgType::kOk);
  players = client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician1"),
            players->end());
  srv->Shutdown();
}

TEST(ServerTest, HelloWithResumeReattachesTheSession) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  LoopbackTransport client(srv.get(), "resume-me");
  ASSERT_TRUE(client.Reconnect(-1).ok());
  const std::int64_t sid = client.session_id();
  ASSERT_EQ(srv->session_count(), 1);

  ASSERT_TRUE(client.Reconnect(sid).ok());
  EXPECT_EQ(client.session_id(), sid);
  EXPECT_EQ(srv->session_count(), 1) << "resume must not mint a session";
  EXPECT_EQ(srv->stats().Snapshot().resumes, 1);

  // Resuming a session the server never had falls back to a fresh one.
  ASSERT_TRUE(client.Reconnect(999999).ok());
  EXPECT_NE(client.session_id(), 999999);
  EXPECT_EQ(srv->session_count(), 2);
  srv->Shutdown();
}

// --- Notifications. ---

TEST(ServerTest, SubscribersSeeWritesFromOtherSessions) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  RetryingClient watcher(
      std::make_unique<LoopbackTransport>(srv.get(), "watcher"),
      RetryOptions());
  RetryingClient writer(
      std::make_unique<LoopbackTransport>(srv.get(), "writer"),
      RetryOptions());
  ASSERT_TRUE(watcher.Connect().ok());
  ASSERT_TRUE(writer.Connect().ok());

  Result<Frame> sub =
      watcher.Call(MsgType::kSubscribe, JoinFields({"musicians"}));
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->type, MsgType::kOk);

  ASSERT_TRUE(writer.Assign("musicians", "musician0", "plays", "inst1").ok());

  Result<Frame> poll = watcher.Call(MsgType::kPoll, "");
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->type, MsgType::kOk);
  std::vector<std::string> fields = SplitFields(poll->payload);
  ASSERT_GE(fields.size(), 2u);
  EXPECT_NE(std::stoi(fields[0]), 0);
  EXPECT_NE(poll->payload.find("musician0"), std::string::npos)
      << poll->payload;

  // The writer did not subscribe: nothing pending there.
  Result<Frame> writer_poll = writer.Call(MsgType::kPoll, "");
  ASSERT_TRUE(writer_poll.ok());
  EXPECT_EQ(SplitFields(writer_poll->payload)[0], "0");
  srv->Shutdown();
}

// --- Durability. ---

std::string DurableDir() { return ::testing::TempDir(); }

void WipeDurable(const std::string& db_name) {
  store::FileEnv* env = store::FileEnv::Default();
  for (const char* suffix :
       {".server.wal", ".server.wal.tmp", ".isis", ".isis.tmp"}) {
    (void)env->Remove(DurableDir() + "/" + db_name + suffix);
  }
}

TEST(ServerTest, CleanShutdownSurvivesRestart) {
  WipeDurable("SrvClean");
  {
    std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvClean");
    RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                          RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(
        client.Assign("musicians", "musician3", "plays", "inst0").ok());
    srv->Shutdown();
  }
  // Restart with a *fresh* workspace: the durable state must win.
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvClean");
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst0}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician3"),
            players->end());
  srv->Shutdown();
  WipeDurable("SrvClean");
}

TEST(ServerTest, CrashRecoveryReplaysTheWal) {
  WipeDurable("SrvCrash");
  {
    std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvCrash");
    RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                          RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(
        client.Assign("musicians", "musician5", "plays", "inst0").ok());
    // A UI event is logged too, but its reply does not wait for the disk:
    // it changed only this session's UI state, which recovery discards.
    Result<Frame> ev = client.Call(MsgType::kEvent, "pick class:musicians");
    ASSERT_TRUE(ev.ok());
    ASSERT_EQ(ev->type, MsgType::kScreen);
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), "SrvCrash");
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst0}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician5"),
            players->end());
  srv->Shutdown();
  WipeDurable("SrvCrash");
}

/// A WAL sync that fails must not be acked: the write that hit it answers
/// kError, a resend of that write cannot fetch a stale OK from the dedup
/// window, and the committer's sticky failure refuses every later write
/// before it applies -- while reads keep answering.
TEST(ServerTest, FailedWalCommitIsAnErrorAndRefusesLaterWrites) {
  const std::string name = "SrvWalFail";
  ServerOptions options;
  options.threads = 2;
  options.durable_dir = DurableDir();
  auto open = [&](store::FileEnv* env) {
    WipeDurable(name);
    options.env = env;
    std::unique_ptr<query::Workspace> ws = datasets::BuildScaledMusic(2);
    ws->set_name(name);
    return Server::Open(std::move(ws), options);
  };
  // A fault-free open counts the syncs Open itself issues, so the faulty
  // env below fails the first sync after them: the first WAL commit.
  store::FaultInjectingEnv planning(store::FaultPlan{});
  ASSERT_TRUE(open(&planning).ok());
  store::FaultInjectingEnv env(
      store::FaultPlan{.fail_sync = planning.syncs()});
  Result<std::unique_ptr<Server>> opened = open(&env);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();
  LoopbackTransport client(srv.get(), "t");
  ASSERT_TRUE(client.Reconnect(-1).ok());

  auto assign = [](std::uint32_t seq, std::uint64_t write_seq,
                   const char* inst) {
    Frame f;
    f.type = MsgType::kAssign;
    f.seq = seq;
    f.write_seq = write_seq;
    f.payload = JoinFields({"musicians", "musician3", "plays", inst});
    return f;
  };
  const Frame query{MsgType::kQuery, 9,
                    JoinFields({"musicians", "e.plays ]= {inst0}"})};

  Result<Frame> failed = client.CallFrame(assign(1, 1, "inst0"));
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->type, MsgType::kError) << failed->payload;
  Result<Frame> resent = client.CallFrame(assign(2, 1, "inst0"));
  ASSERT_TRUE(resent.ok());
  EXPECT_EQ(resent->type, MsgType::kError)
      << "a resend got the stale OK: " << resent->payload;

  Result<Frame> before = client.CallFrame(query);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->type, MsgType::kQueryResult) << before->payload;
  Result<Frame> refused = client.CallFrame(assign(3, 2, "inst1"));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->type, MsgType::kError) << refused->payload;
  Result<Frame> after = client.CallFrame(query);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->type, MsgType::kQueryResult) << after->payload;
  EXPECT_EQ(after->payload, before->payload) << "the refused write applied";
  srv->Shutdown();
  WipeDurable(name);
}

// --- Which replies wait for the disk. ---

/// A durable server over the §4.1 instrumental-music database, the one the
/// REPL gestures below are written against.
std::unique_ptr<Server> OpenDurableMusic(const std::string& db_name,
                                         store::FileEnv* env = nullptr) {
  ServerOptions options;
  options.threads = 2;
  options.durable_dir = DurableDir();
  options.env = env;
  std::unique_ptr<query::Workspace> ws = datasets::BuildInstrumentalMusic();
  ws->set_name(db_name);
  Result<std::unique_ptr<Server>> opened =
      Server::Open(std::move(ws), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).ValueOrDie() : nullptr;
}

/// Sends one REPL gesture and returns the message line of the redrawn
/// screen ("! <Status>" when the gesture was rejected), or the frame type
/// and payload when the answer is not a screen.
std::string Gesture(RetryingClient& client, const std::string& line) {
  Result<Frame> resp = client.Call(MsgType::kEvent, line);
  if (!resp.ok()) return "transport: " + resp.status().ToString();
  if (resp->type != MsgType::kScreen) {
    return std::string(MsgTypeName(resp->type)) + " " + resp->payload;
  }
  return SplitFields(resp->payload)[0];
}

bool Rejected(const std::string& message) {
  return message.rfind("! ", 0) == 0;
}

/// The first line at which two store::Save outputs differ, as
/// "<before> -> <after>", for failure messages.
std::string FirstDiff(const std::string& before, const std::string& after) {
  std::vector<std::string> a = Split(before, '\n');
  std::vector<std::string> b = Split(after, '\n');
  for (std::size_t i = 0; i < a.size() || i < b.size(); ++i) {
    const std::string x = i < a.size() ? a[i] : "(none)";
    const std::string y = i < b.size() ? b[i] : "(none)";
    if (x != y) return x + " -> " + y;
  }
  return "(no difference)";
}

/// The constraint-redefinition repro: `c` over music_groups, then a
/// redefinition over musicians whose inherited predicate cannot type-check.
const char* const kRedefineConstraintScript[] = {
    "pick class:music_groups", "cmd define constraint", "type c",
    "pick atom:A",             "pick clause:1",         "cmd edit",
    "pick attr:size",          "pick op:>",             "cmd rhs constant",
    "cmd create constant",     "type 1",                "cmd accept constant",
    "cmd commit",              "pick class:musicians",  "cmd define constraint",
    "type c",                  "cmd commit",
};

/// Seeded random REPL gestures over whatever the shared workspace holds
/// right now. Most come as short edit scripts with random but plausible
/// arguments (real class, attribute and member names), one per editing
/// command a shared session accepts, so each of them commits now and then;
/// the rest are single random picks, commands and answers, most of which
/// are rejected.
class GestureFuzzer {
 public:
  struct Script {
    std::string kind;
    std::vector<std::string> lines;
  };

  GestureFuzzer(std::uint64_t seed, const query::Workspace* ws)
      : rng_(seed), ws_(ws) {}

  Script Next() {
    static const char* const kKinds[] = {
        "create subclass",     "create baseclass",  "create attribute",
        "value class",         "create grouping",   "rename",
        "delete",              "define membership", "define derivation",
        "define constraint",   "drop constraint",   "assign",
        "create entity",       "delete entity",     "make subclass",
        "whole-workspace ops", "navigate",          "random",
    };
    Script s;
    s.kind = kKinds[rng_.Below(std::size(kKinds))];
    std::vector<std::string>& l = s.lines;
    if (s.kind != "random") {
      l = {"cmd abort", "cmd abort", "cmd view forest"};
    }
    const std::string cls = ClassName();
    if (s.kind == "create subclass") {
      l.insert(l.end(),
               {"pick class:" + cls, "cmd create subclass", "type " + Name()});
    } else if (s.kind == "create baseclass") {
      l.insert(l.end(),
               {"cmd create baseclass", "type " + Name(), "type " + Name()});
    } else if (s.kind == "create attribute") {
      l.insert(l.end(), {"pick class:" + cls, "cmd create attribute",
                         "type " + Name()});
    } else if (s.kind == "value class") {
      l.insert(l.end(), {"pick attr:" + AttrName(),
                         "cmd (re)specify value class", "pick class:" + cls});
    } else if (s.kind == "create grouping") {
      l.insert(l.end(), {"pick attr:" + AttrName(), "cmd create grouping",
                         "type " + Name()});
    } else if (s.kind == "rename" || s.kind == "delete") {
      l.push_back(SchemaPick(cls));
      if (s.kind == "rename") {
        l.insert(l.end(), {"cmd (re)name", "type " + Name()});
      } else {
        l.push_back("cmd delete");
      }
    } else if (s.kind == "define membership" ||
               s.kind == "define constraint") {
      l.push_back("pick class:" + cls);
      if (s.kind == "define membership") {
        l.push_back("cmd (re)define membership");
      } else {
        l.insert(l.end(), {"cmd define constraint",
                           "type c" + std::to_string(rng_.Below(3))});
      }
      if (rng_.Chance(0.8)) Atom(cls, &l);
      l.push_back("cmd commit");
    } else if (s.kind == "define derivation") {
      Derivation(&l);
    } else if (s.kind == "drop constraint") {
      l.insert(l.end(), {"cmd drop constraint",
                         "type c" + std::to_string(rng_.Below(3))});
    } else if (s.kind == "assign") {
      l.insert(l.end(), {"pick class:" + cls, "cmd view contents",
                         "pick member:" + MemberOf(cls), "cmd follow"});
      const std::string attr = AttrOf(cls);
      l.insert(l.end(), {"pick attr:" + attr,
                         "pick member:" + MemberOf(ValueClassOf(cls, attr)),
                         "cmd (re)assign att. value", "cmd pop", "cmd pop"});
    } else if (s.kind == "create entity") {
      l.insert(l.end(), {"pick class:" + cls, "cmd view contents",
                         "cmd create entity", "type " + Name()});
    } else if (s.kind == "delete entity" || s.kind == "make subclass") {
      l.insert(l.end(), {"pick class:" + cls, "cmd view contents",
                         "pick member:" + MemberOf(cls)});
      if (s.kind == "delete entity") {
        l.push_back("cmd delete entity");
      } else {
        l.insert(l.end(), {"cmd make subclass", "type " + Name()});
      }
    } else if (s.kind == "whole-workspace ops") {
      // Refused in a shared session: the server owns persistence.
      l.insert(l.end(), {"cmd save", "type ../" + Name(), "cmd load",
                         "type " + ws_->name(), "cmd undo", "cmd redo"});
    } else if (s.kind == "navigate") {
      l.insert(l.end(), {"pick class:" + cls, "cmd view contents",
                         "pick member:" + MemberOf(cls), "cmd follow",
                         "pick attr:" + AttrOf(cls), "cmd members down",
                         "cmd members up", "cmd pop", "cmd pop",
                         "pick class:" + cls, "cmd view associations",
                         "cmd display predicate", "cmd check constraints",
                         "cmd statistics", "cmd show history", "cmd pop"});
    } else {
      const int n = 1 + static_cast<int>(rng_.Below(3));
      for (int i = 0; i < n; ++i) l.push_back(RandomGesture(cls));
    }
    return s;
  }

 private:
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[rng_.Below(v.size())];
  }
  const sdm::Schema& schema() const { return ws_->db().schema(); }

  /// A fresh valid name most of the time; an existing or invalid one
  /// otherwise, so name clashes and bad input get exercised too.
  std::string Name() {
    const double r = rng_.Unit();
    if (r < 0.1) return ClassName();
    if (r < 0.15) return "bad`name";
    return "n" + std::to_string(next_name_++);
  }
  std::string ClassName() {
    std::vector<std::string> names;
    for (ClassId c : schema().AllClasses()) {
      names.push_back(schema().GetClass(c).name);
    }
    return Pick(names);
  }
  std::string AttrName() {
    std::vector<std::string> names;
    for (ClassId c : schema().AllClasses()) {
      for (AttributeId a : schema().GetClass(c).own_attributes) {
        if (schema().HasAttribute(a)) {
          names.push_back(schema().GetAttribute(a).name);
        }
      }
    }
    return Pick(names);
  }
  std::string AttrOf(const std::string& cls) {
    Result<ClassId> c = schema().FindClass(cls);
    if (!c.ok()) return AttrName();
    std::vector<AttributeId> attrs = schema().AllAttributesOf(*c);
    return attrs.empty() ? AttrName()
                         : schema().GetAttribute(Pick(attrs)).name;
  }
  std::string ValueClassOf(const std::string& cls, const std::string& attr) {
    Result<ClassId> c = schema().FindClass(cls);
    if (!c.ok()) return ClassName();
    Result<AttributeId> a = schema().FindAttribute(*c, attr);
    if (!a.ok()) return ClassName();
    return schema().GetClass(schema().GetAttribute(*a).value_class).name;
  }
  std::string MemberOf(const std::string& cls) {
    Result<ClassId> c = schema().FindClass(cls);
    if (!c.ok() || ws_->db().Members(*c).empty()) return "nobody";
    std::vector<EntityId> members(ws_->db().Members(*c).begin(),
                                  ws_->db().Members(*c).end());
    return ws_->db().NameOf(Pick(members));
  }
  std::string SchemaPick(const std::string& cls) {
    const std::uint64_t r = rng_.Below(3);
    if (r == 0) return "pick attr:" + AttrName();
    std::vector<GroupingId> groupings = schema().AllGroupings();
    if (r == 1 && !groupings.empty()) {
      return "pick grouping:" + schema().GetGrouping(Pick(groupings)).name;
    }
    return "pick class:" + cls;
  }
  /// Derives a multivalued attribute A of class C with the hand operator
  /// as x.B, where B is an attribute of C into A's value class when there
  /// is one.
  void Derivation(std::vector<std::string>* l) {
    std::vector<AttributeId> multi;
    for (ClassId c : schema().AllClasses()) {
      for (AttributeId a : schema().GetClass(c).own_attributes) {
        if (schema().HasAttribute(a) && schema().GetAttribute(a).multivalued) {
          multi.push_back(a);
        }
      }
    }
    if (multi.empty()) return;
    const sdm::AttributeDef& def = schema().GetAttribute(Pick(multi));
    std::vector<std::string> sources;
    for (AttributeId b : schema().AllAttributesOf(def.owner)) {
      const sdm::AttributeDef& src = schema().GetAttribute(b);
      if (b != def.id && src.value_class == def.value_class) {
        sources.push_back(src.name);
      }
    }
    const std::string owner = schema().GetClass(def.owner).name;
    l->insert(l->end(),
              {"pick class:" + owner, "pick attr:" + owner + "." + def.name,
               "cmd (re)define derivation", "cmd hand",
               "pick attr:" + (sources.empty() ? AttrOf(owner)
                                               : Pick(sources)),
               "cmd commit"});
  }
  /// Fills atom A on the worksheet: lhs map, operator, constant rhs.
  void Atom(const std::string& cls, std::vector<std::string>* l) {
    static const char* const kOps[] = {"=", "<=", ">", "[=", "]="};
    Result<ClassId> c = schema().FindClass(cls);
    const std::string parent =
        c.ok() && !schema().GetClass(*c).is_base()
            ? schema().GetClass(schema().GetClass(*c).parent()).name
            : cls;
    const std::string attr = AttrOf(rng_.Chance(0.5) ? parent : cls);
    l->insert(l->end(), {"pick atom:A", "pick clause:1", "cmd edit",
                         "pick attr:" + attr,
                         std::string("pick op:") + kOps[rng_.Below(5)],
                         "cmd rhs constant"});
    if (rng_.Chance(0.5)) {
      l->insert(l->end(), {"cmd create constant",
                           "type " + std::to_string(rng_.Below(6))});
    } else {
      l->push_back("pick member:" +
                   MemberOf(ValueClassOf(rng_.Chance(0.5) ? parent : cls,
                                         attr)));
    }
    l->push_back("cmd accept constant");
  }
  std::string RandomGesture(const std::string& cls) {
    static const char* const kCommands[] = {
        "view associations", "view contents",   "view forest",
        "pop",               "follow",          "create subclass",
        "create attribute",  "create grouping", "(re)define membership",
        "(re)define derivation", "add parent",  "define constraint",
        "check constraints", "drop constraint", "display predicate",
        "(re)name",          "(re)specify value class", "delete",
        "(re)assign att. value", "make subclass", "create entity",
        "delete entity",     "select/reject",   "accept constant",
        "create constant",   "statistics",      "show history",
        "pan left",          "pan down",        "members down",
        "edit",              "lhs",             "negate",
        "switch and/or",     "clear atom",      "hand",
        "rhs map",           "rhs map from owner",
        "rhs map starting at class",            "rhs constant",
        "rhs constant starting at class",       "place 1",
        "commit",            "abort",
    };
    switch (rng_.Below(7)) {
      case 0:
        return "pick class:" + cls;
      case 1:
        return "pick attr:" + AttrName();
      case 2:
        return "pick member:" + MemberOf(cls);
      case 3:
        return "pick atom:" + std::string(1, static_cast<char>(
                                                 'A' + rng_.Below(3)));
      case 4:
        return "type " + Name();
      default:
        return std::string("cmd ") + kCommands[rng_.Below(
                                         std::size(kCommands))];
    }
  }

  Rng rng_;
  const query::Workspace* ws_;
  int next_name_ = 0;
};

/// The derivation oracle: reloads `saved` and re-derives every derived view
/// of the copy from scratch with Workspace::ReevaluateAll. Returns "" when
/// that changes nothing (the live engine had kept every view fresh) or when
/// there is no fixpoint to compare against (a cyclic derivation), else the
/// first line that moved. The copy is saved once before re-deriving, and
/// that save is the reference: loading a database that has a grouping on
/// a naming attribute interns that class's names (the load's consistency
/// check reads them), which is not a derived view moving.
std::string StaleDerivedViews(const std::string& saved) {
  Result<std::unique_ptr<query::Workspace>> copy = store::Load(saved);
  if (!copy.ok()) return "reload failed: " + copy.status().ToString();
  const std::string loaded = store::Save(**copy);
  const Status rederived = (*copy)->ReevaluateAll();
  if (rederived.IsConsistency()) return "";
  if (!rederived.ok()) return "re-derivation failed: " + rederived.ToString();
  const std::string fresh = store::Save(**copy);
  return fresh == loaded ? "" : FirstDiff(loaded, fresh);
}

/// The classification oracle. Around every gesture, store::Save of the
/// shared workspace is the ground truth of "changed the database": a
/// gesture whose Save output moved must have waited for its commit (no
/// unwaited reply was counted for it), and a rejected gesture -- which is
/// never logged -- must not have moved it at all, since recovery would
/// not reproduce the change. The database uses default options, and after
/// every gesture its derived views must equal a from-scratch re-derivation:
/// the live engine keeps up with every editing command.
TEST(ServerTest, OnlyGesturesThatChangedNothingSkipTheCommitWait) {
  const std::string name = "SrvOracle";
  std::set<std::string> committed_kinds;
  std::int64_t changed = 0, unwaited = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    WipeDurable(name);
    std::unique_ptr<Server> srv = OpenDurableMusic(name);
    ASSERT_NE(srv, nullptr);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "fuzz"),
        RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    GestureFuzzer fuzz(seed, &srv->workspace());
    std::vector<GestureFuzzer::Script> scripts;
    scripts.push_back({"redefine constraint",
                       {std::begin(kRedefineConstraintScript),
                        std::end(kRedefineConstraintScript)}});
    for (int i = 0; i < 150; ++i) scripts.push_back(fuzz.Next());
    for (const GestureFuzzer::Script& script : scripts) {
      for (const std::string& line : script.lines) {
        const std::string before = store::Save(srv->workspace());
        const std::int64_t skipped0 =
            srv->stats().Snapshot().unwaited_replies;
        const std::string message = Gesture(client, line);
        const std::string after = store::Save(srv->workspace());
        const std::int64_t skipped =
            srv->stats().Snapshot().unwaited_replies - skipped0;
        ASSERT_LE(skipped, 1) << line;
        unwaited += skipped;
        if (Rejected(message)) {
          EXPECT_TRUE(after == before)
              << "rejected gesture '" << line << "' (" << script.kind
              << ", seed " << seed << ") changed the database: " << message
              << "\n  " << FirstDiff(before, after);
          EXPECT_EQ(skipped, 0) << line;
        } else if (after != before) {
          ++changed;
          committed_kinds.insert(script.kind);
          EXPECT_EQ(skipped, 0)
              << "'" << line << "' (" << script.kind << ", seed " << seed
              << ") changed the database but did not wait for its commit";
        }
        EXPECT_EQ(StaleDerivedViews(after), "")
            << "derived views stale after '" << line << "' (" << script.kind
            << ", seed " << seed << ")";
      }
    }
    srv->Shutdown();
  }
  WipeDurable(name);
  // The fuzzer reached every editing command, and both kinds of reply.
  for (const char* kind :
       {"create subclass", "create baseclass", "create attribute",
        "value class", "create grouping", "rename", "delete",
        "define membership", "define derivation", "define constraint",
        "drop constraint", "assign", "create entity", "delete entity",
        "make subclass"}) {
    EXPECT_EQ(committed_kinds.count(kind), 1u) << kind << " never committed";
  }
  EXPECT_EQ(committed_kinds.count("whole-workspace ops"), 0u);
  EXPECT_GT(changed, 50);
  EXPECT_GT(unwaited, 500);
}

/// A failed first WAL sync: the navigation gesture before it skipped the
/// wait and still answers its screen, the mutating gesture whose wait hit
/// the failure answers kError (its record and the navigation's are both
/// lost), later writes -- navigation included -- are refused before they
/// apply, and reads keep answering.
TEST(ServerTest, FailedSyncAfterAnUnwaitedGestureFailsTheNextWaitedOne) {
  const std::string name = "SrvNavFail";
  store::FaultInjectingEnv planning(store::FaultPlan{});
  WipeDurable(name);
  ASSERT_NE(OpenDurableMusic(name, &planning), nullptr);
  store::FaultInjectingEnv env(
      store::FaultPlan{.fail_sync = planning.syncs()});
  WipeDurable(name);
  std::unique_ptr<Server> srv = OpenDurableMusic(name, &env);
  ASSERT_NE(srv, nullptr);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());

  EXPECT_FALSE(Rejected(Gesture(client, "pick class:musicians")));
  EXPECT_EQ(srv->stats().Snapshot().unwaited_replies, 1);
  EXPECT_FALSE(Rejected(Gesture(client, "cmd create subclass")));
  const std::string failed = Gesture(client, "type soloists2");
  EXPECT_EQ(failed.rfind("kError ", 0), 0u) << failed;
  EXPECT_EQ(Gesture(client, "pick class:instruments").rfind("kError ", 0), 0u);
  Status refused = client.Assign("musicians", "Ray", "plays", "violin");
  EXPECT_FALSE(refused.ok());
  Result<std::vector<std::string>> read =
      client.Query("musicians", "e.plays ]= {violin}");
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  srv->Shutdown();
  WipeDurable(name);
}

/// A mutating gesture's reply makes every record before it durable: the
/// navigation it built on is in the WAL the moment the reply arrives. The
/// navigation after it is not waited for, and a crash that loses it loses
/// nothing the database holds.
TEST(ServerTest, WaitedReplyCoversEveryEarlierRecordAndCrashLosesOnlyUiState) {
  const std::string name = "SrvNavCrash";
  WipeDurable(name);
  const std::string wal = DurableDir() + "/" + name + ".server.wal";
  std::string live;
  {
    std::unique_ptr<Server> srv = OpenDurableMusic(name);
    ASSERT_NE(srv, nullptr);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "t"), RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    const std::vector<std::string> walk = {
        "pick class:musicians", "cmd view contents", "pick member:Ray",
        "cmd follow",           "pick attr:plays",   "pick member:violin",
        "cmd (re)assign att. value"};
    for (const std::string& line : walk) {
      ASSERT_FALSE(Rejected(Gesture(client, line))) << line;
    }
    EXPECT_GE(srv->stats().Snapshot().unwaited_replies, 5);
    Result<store::WalContents> logged =
        store::ReadWal(wal, store::FileEnv::Default());
    ASSERT_TRUE(logged.ok()) << logged.status().ToString();
    ASSERT_EQ(logged->records.size(), 1 + walk.size()) << "base + the walk";
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const std::string& payload = logged->records[i + 1].payload;
      EXPECT_EQ(payload.substr(payload.find('|') + 1), walk[i]);
    }
    for (const char* line : {"cmd pop", "cmd pop", "pick class:instruments"}) {
      ASSERT_FALSE(Rejected(Gesture(client, line))) << line;
    }
    live = store::Save(srv->workspace());
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = OpenDurableMusic(name);
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(store::Save(srv->workspace()), live);
  srv->Shutdown();
  WipeDurable(name);
}

// --- Where replies are built. ---

/// An in-memory server over the §4.1 instrumental-music database, the one
/// the REPL gestures below are written against.
std::unique_ptr<Server> OpenMusic() {
  ServerOptions options;
  options.threads = 2;
  Result<std::unique_ptr<Server>> opened =
      Server::Open(datasets::BuildInstrumentalMusic(), options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

/// A gesture's screen is serialized after the writer lock, from the
/// session's last render; the dedup window must still hold the bytes the
/// first application answered, not a re-serialization of whatever the
/// session rendered since.
TEST(ServerTest, ResentEventGetsTheByteIdenticalScreen) {
  std::unique_ptr<Server> srv = OpenMusic();
  LoopbackTransport wire(srv.get(), "a");
  ASSERT_TRUE(wire.Reconnect(-1).ok());
  RetryingClient other(std::make_unique<LoopbackTransport>(srv.get(), "b"),
                       RetryOptions());
  ASSERT_TRUE(other.Connect().ok());

  Result<Frame> pick =
      wire.CallFrame(Frame{MsgType::kEvent, 1, "pick class:musicians"});
  ASSERT_TRUE(pick.ok());
  Frame view{MsgType::kEvent, 2, "cmd view contents"};
  view.write_seq = 7;
  Result<Frame> first = wire.CallFrame(view);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->type, MsgType::kScreen) << first->payload;

  // Another session adds a member to the page; this session re-renders, so
  // its controller's last screen now lists the newcomer.
  for (const char* line : {"pick class:musicians", "cmd view contents",
                           "cmd create entity", "type Zelda"}) {
    Result<Frame> r = other.Call(MsgType::kEvent, line);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->type, MsgType::kScreen) << line;
  }
  Result<Frame> render = wire.CallFrame(Frame{MsgType::kRender, 3, ""});
  ASSERT_TRUE(render.ok());
  EXPECT_NE(render->payload.find("Zelda"), std::string::npos);

  Frame resend{MsgType::kEvent, 4, "cmd view contents"};
  resend.write_seq = 7;
  Result<Frame> again = wire.CallFrame(resend);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->type, MsgType::kScreen);
  EXPECT_EQ(again->seq, 4u) << "cached response must carry the new seq";
  EXPECT_EQ(again->payload, first->payload);
  EXPECT_EQ(again->payload.find("Zelda"), std::string::npos);
  EXPECT_EQ(srv->stats().Snapshot().dedup_hits, 1);
  srv->Shutdown();
}

/// The assign walk of the benchmark's gesture workload, ending back at the
/// inheritance forest.
const char* const kAssignWalk[] = {
    "pick class:musicians", "cmd view contents", "pick member:Ray",
    "cmd follow",           "pick attr:plays",   "pick member:violin",
    "cmd (re)assign att. value", "cmd pop",      "cmd pop",
};

/// A gesture's reply is the screen the session renders next, byte for
/// byte: serializing after the lock reads the render the gesture made
/// under it. In memory, and durable, where the assign waits for its commit
/// after serializing.
TEST(ServerTest, GestureReplyEqualsTheNextRender) {
  const std::string name = "SrvReplyRender";
  WipeDurable(name);
  for (bool durable : {false, true}) {
    std::unique_ptr<Server> srv =
        durable ? OpenDurableMusic(name) : OpenMusic();
    ASSERT_NE(srv, nullptr);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "t"), RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    for (const char* line : kAssignWalk) {
      const std::int64_t unwaited0 = srv->stats().Snapshot().unwaited_replies;
      Result<Frame> reply = client.Call(MsgType::kEvent, line);
      ASSERT_TRUE(reply.ok());
      ASSERT_EQ(reply->type, MsgType::kScreen)
          << line << ": " << reply->payload;
      EXPECT_FALSE(Rejected(SplitFields(reply->payload)[0])) << line;
      if (durable && std::string(line) == "cmd (re)assign att. value") {
        EXPECT_EQ(srv->stats().Snapshot().unwaited_replies, unwaited0)
            << "the assign gesture must have waited for its commit";
      }
      Result<Frame> render = client.Call(MsgType::kRender, "");
      ASSERT_TRUE(render.ok());
      EXPECT_EQ(reply->payload, render->payload)
          << (durable ? "durable" : "in memory") << ", after '" << line << "'";
    }
    if (durable) {
      EXPECT_GT(srv->stats().Snapshot().unwaited_replies, 0)
          << "navigation gestures reply without waiting";
    }
    srv->Shutdown();
  }
  WipeDurable(name);
}

/// The same gestures answer the same bytes whether the request runs to
/// completion on the caller's thread (Call) or is queued and answered by a
/// worker (HandleFrame): both reply from the task's continuation.
TEST(ServerTest, QueuedAndInlineGesturesAnswerTheSameBytes) {
  std::unique_ptr<Server> srv = OpenMusic();
  LoopbackTransport inline_client(srv.get(), "inline");
  LoopbackTransport queued_client(srv.get(), "queued");
  ASSERT_TRUE(inline_client.Reconnect(-1).ok());
  ASSERT_TRUE(queued_client.Reconnect(-1).ok());
  std::uint32_t seq = 10;
  for (const char* line : kAssignWalk) {
    const Frame request{MsgType::kEvent, ++seq, line};
    const std::int64_t inline0 = srv->stats().Snapshot().inline_runs;
    Result<Frame> called = srv->Call(inline_client.session_id(), request);
    ASSERT_TRUE(called.ok());
    ASSERT_EQ(called->type, MsgType::kScreen) << line;
    EXPECT_EQ(srv->stats().Snapshot().inline_runs, inline0 + 1) << line;

    Gate answered;
    Frame queued;
    std::thread::id answered_on;
    srv->HandleFrame(queued_client.session_id(), request,
                     [&](const Frame& resp) {
                       queued = resp;
                       answered_on = std::this_thread::get_id();
                       answered.Open();
                     });
    answered.Wait();
    EXPECT_NE(answered_on, std::this_thread::get_id()) << line;
    EXPECT_EQ(queued.seq, request.seq);
    EXPECT_EQ(queued.payload, called->payload) << "after '" << line << "'";
  }
  srv->Shutdown();
}

/// A gesture's reply is delivered after its writer lock is released: while
/// the response callback of a queued gesture runs, a read from another
/// session gets the shared lock. (A reply sent from inside the exclusive
/// section would hold that read off until the callback returned.)
TEST(ServerTest, GestureReplyIsSentAfterTheWriterLockIsReleased) {
  std::unique_ptr<Server> srv = OpenMusic();
  LoopbackTransport writer(srv.get(), "writer");
  LoopbackTransport reader(srv.get(), "reader");
  ASSERT_TRUE(writer.Reconnect(-1).ok());
  ASSERT_TRUE(reader.Reconnect(-1).ok());
  const Frame query{MsgType::kQuery, 2,
                    JoinFields({"musicians", "e.plays ]= {violin}"})};

  Gate read_answered;
  Gate replied;
  bool read_during_reply = false;
  std::thread read_thread;
  srv->HandleFrame(writer.session_id(),
                   Frame{MsgType::kEvent, 1, "pick class:musicians"},
                   [&](const Frame& resp) {
                     EXPECT_EQ(resp.type, MsgType::kScreen);
                     read_thread = std::thread([&] {
                       Result<Frame> r = srv->Call(reader.session_id(), query);
                       EXPECT_TRUE(r.ok());
                       read_answered.Open();
                     });
                     read_during_reply =
                         read_answered.WaitFor(std::chrono::seconds(5));
                     replied.Open();
                   });
  replied.Wait();
  read_thread.join();
  EXPECT_TRUE(read_during_reply)
      << "the reply was sent while the writer lock was still held";
  srv->Shutdown();
}

/// A session's design journal keeps only the most recent
/// DesignJournal::kRetained entries, however many assign walks it runs,
/// while `show history` still counts every one. A journal that kept them
/// all made server memory grow with uptime.
TEST(ServerTest, SessionJournalKeepsTheRecentWindow) {
  std::unique_ptr<query::Workspace> ws = datasets::BuildInstrumentalMusic();
  Session session(1, ws.get(), /*live=*/nullptr);
  auto gesture = [&session](const std::string& line) {
    Result<input::Event> ev = input::DecodeEvent(line);
    ASSERT_TRUE(ev.ok()) << line;
    ASSERT_TRUE(session.ctrl().HandleEvent(*ev).ok())
        << line << ": " << session.ctrl().message();
  };
  constexpr std::size_t kWalks = ui::DesignJournal::kRetained + 16;
  for (std::size_t i = 0; i < kWalks; ++i) {
    for (const char* line : kAssignWalk) gesture(line);
  }
  const ui::DesignJournal& journal = session.ctrl().journal();
  EXPECT_EQ(journal.size(), kWalks);
  EXPECT_EQ(journal.entries().size(), ui::DesignJournal::kRetained);
  EXPECT_EQ(journal.entries().back().seq, static_cast<std::int64_t>(kWalks));
  EXPECT_EQ(journal.entries().back().action, "(re)assign att. value");

  gesture("cmd show history");
  const std::string& message = session.ctrl().message();
  EXPECT_EQ(message.rfind("history (last of " + std::to_string(kWalks) + "): ",
                          0),
            0u)
      << message;
  EXPECT_NE(message.find("#" + std::to_string(kWalks) +
                         " (re)assign att. value"),
            std::string::npos)
      << message;
}

/// A live-views server's log replays with the server's own engine attached,
/// the way the live server maintained its derived views: a walk into a
/// derived class, a gesture that moves its first member out, an assign that
/// moves a new one in, a crash. The recovered server answers exactly as the
/// live one did.
TEST(ServerTest, LiveViewsRecoveryAnswersLikeTheLiveServer) {
  const std::string name = "SrvLiveCrash";
  WipeDurable(name);
  std::string first_member;
  std::string newcomer;
  auto open = [&]() -> std::unique_ptr<Server> {
    sdm::Database::Options db_options;
    db_options.live_views = true;
    std::unique_ptr<query::Workspace> ws =
        datasets::BuildScaledMusic(2, 7, db_options);
    ws->set_name(name);
    sdm::Database& db = ws->db();
    const ClassId musicians = *db.schema().FindClass("musicians");
    Result<ClassId> view =
        db.CreateSubclass("play_inst0", musicians, sdm::Membership::kDerived);
    Result<query::Predicate> pred =
        query::ParsePredicate(db, musicians, "e.plays ]= {inst0}");
    if (!view.ok() || !pred.ok() ||
        !ws->DefineSubclassMembership(*view, *pred).ok()) {
      ADD_FAILURE() << "cannot define the derived view";
      return nullptr;
    }
    first_member = db.NameOf(*db.Members(*view).begin());
    for (EntityId m : db.Members(musicians)) {
      if (!db.IsMember(m, *view)) newcomer = db.NameOf(m);
    }
    ServerOptions options;
    options.threads = 2;
    options.durable_dir = DurableDir();
    Result<std::unique_ptr<Server>> opened =
        Server::Open(std::move(ws), options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).ValueOrDie() : nullptr;
  };
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"play_inst0", "e.plays ]= {inst0}"},
      {"play_inst0", "e.plays ]= {inst1}"},
      {"musicians", "e.plays ]= {inst0}"},
  };
  auto answers = [&](RetryingClient& client) {
    std::vector<std::vector<std::string>> out;
    for (const auto& [cls, pred] : probes) {
      Result<std::vector<std::string>> got = client.Query(cls, pred);
      EXPECT_TRUE(got.ok()) << cls << " " << pred;
      out.push_back(got.ok() ? *got : std::vector<std::string>{});
    }
    return out;
  };

  std::string live;
  std::vector<std::vector<std::string>> live_answers;
  {
    std::unique_ptr<Server> srv = open();
    ASSERT_NE(srv, nullptr);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "t"), RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    const std::vector<std::string> walk = {
        "pick class:play_inst0", "cmd view contents",
        "pick member:" + first_member, "cmd follow", "pick attr:plays",
        "pick member:inst0",  // Toggles inst0 off.
        "cmd (re)assign att. value", "cmd pop", "cmd pop"};
    for (const std::string& line : walk) {
      ASSERT_FALSE(Rejected(Gesture(client, line))) << line;
    }
    ASSERT_FALSE(newcomer.empty());
    ASSERT_TRUE(client.Assign("musicians", newcomer, "plays", "inst0").ok());
    live_answers = answers(client);
    // The edits reached the view: its first member left, the newcomer came.
    const std::vector<std::string>& view = live_answers[0];
    EXPECT_EQ(std::find(view.begin(), view.end(), first_member), view.end());
    EXPECT_NE(std::find(view.begin(), view.end(), newcomer), view.end());
    live = store::Save(srv->workspace());
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = open();
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(store::Save(srv->workspace()), live)
      << FirstDiff(live, store::Save(srv->workspace()));
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(answers(client), live_answers);
  srv->Shutdown();
  WipeDurable(name);
}

/// A maintenance failure is loud, and the server still reopens. The liar
/// subclass cyc_a = { e in musicians | {e} not a subset of cyc_a } can never
/// settle. A `create entity` gesture that reaches it carries the
/// Consistency status on its message line, and a later assign answers
/// kError with it; both stay applied and logged. After a crash, recovery
/// logs the error and goes on, and the reopened server answers as the live
/// one did. The stored live_views option must not change any of this.
void ExpectCyclicDerivationIsLoudAndTheServerReopens(bool live_views) {
  SCOPED_TRACE(live_views ? "live_views set" : "live_views unset");
  const std::string name = live_views ? "SrvLiarSet" : "SrvLiarUnset";
  WipeDurable(name);
  auto open = [&]() -> std::unique_ptr<Server> {
    sdm::Database::Options db_options;
    db_options.live_views = live_views;
    std::unique_ptr<query::Workspace> ws =
        datasets::BuildScaledMusic(2, 7, db_options);
    ws->set_name(name);
    sdm::Database& db = ws->db();
    const ClassId musicians = *db.schema().FindClass("musicians");
    Result<ClassId> cyc_a =
        db.CreateSubclass("cyc_a", musicians, sdm::Membership::kEnumerated);
    if (!cyc_a.ok()) {
      ADD_FAILURE() << cyc_a.status().ToString();
      return nullptr;
    }
    query::Predicate liar;
    query::Atom atom;
    atom.lhs = query::Term::Candidate();
    atom.op = query::SetOp::kSubset;
    atom.negated = true;
    atom.rhs = query::Term::ClassExtent(*cyc_a);
    liar.AddAtom(atom, 0);
    if (!ws->DefineSubclassMembership(*cyc_a, liar).ok()) {
      ADD_FAILURE() << "cannot define the liar subclass";
      return nullptr;
    }
    ServerOptions options;
    options.threads = 2;
    options.durable_dir = DurableDir();
    Result<std::unique_ptr<Server>> opened =
        Server::Open(std::move(ws), options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).ValueOrDie() : nullptr;
  };
  const std::vector<std::string> probes = {
      "e.union = {true}", "e.union = {false}", "e.plays ]= {inst0}"};
  auto answers = [&](RetryingClient& client) {
    std::vector<std::vector<std::string>> out;
    for (const std::string& pred : probes) {
      Result<std::vector<std::string>> got = client.Query("musicians", pred);
      EXPECT_TRUE(got.ok()) << pred;
      out.push_back(got.ok() ? *got : std::vector<std::string>{});
    }
    return out;
  };

  std::vector<std::vector<std::string>> live_answers;
  {
    std::unique_ptr<Server> srv = open();
    ASSERT_NE(srv, nullptr);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "t"), RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    std::string message;
    for (const char* line : {"pick class:musicians", "cmd view contents",
                             "cmd create entity", "type newcomer"}) {
      message = Gesture(client, line);
      ASSERT_FALSE(Rejected(message)) << line << ": " << message;
    }
    EXPECT_EQ(message.rfind("entity 'newcomer' created in 'musicians'", 0),
              0u)
        << message;
    EXPECT_NE(message.find(" [Consistency: "), std::string::npos) << message;
    EXPECT_NE(message.find("derived class 'cyc_a'"), std::string::npos)
        << message;

    // Flip one union member's flag: applied, logged, and answered kError.
    Result<std::vector<std::string>> unionists =
        client.Query("musicians", probes[0]);
    ASSERT_TRUE(unionists.ok());
    ASSERT_GE(unionists->size(), 2u);
    const std::string flipped = (*unionists)[1];
    Result<Frame> assigned = client.Call(
        MsgType::kAssign, JoinFields({"musicians", flipped, "union", "false"}));
    ASSERT_TRUE(assigned.ok()) << assigned.status().ToString();
    EXPECT_EQ(assigned->type, MsgType::kError);
    EXPECT_EQ(assigned->payload.rfind("Consistency|", 0), 0u)
        << assigned->payload;
    live_answers = answers(client);
    const std::vector<std::string>& non_union = live_answers[1];
    EXPECT_NE(std::find(non_union.begin(), non_union.end(), flipped),
              non_union.end());
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = open();
  ASSERT_NE(srv, nullptr) << "the log of a server that kept serving must "
                             "reopen";
  const sdm::Database& db = srv->workspace().db();
  EXPECT_TRUE(
      db.FindEntity(*db.schema().FindClass("musicians"), "newcomer").ok());
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(answers(client), live_answers);
  srv->Shutdown();
  WipeDurable(name);
}

TEST(ServerTest, CyclicDerivationIsLoudAndTheServerReopens) {
  ExpectCyclicDerivationIsLoudAndTheServerReopens(/*live_views=*/false);
  ExpectCyclicDerivationIsLoudAndTheServerReopens(/*live_views=*/true);
}

/// Liveness: a navigation-only stream longer than the committer's queue
/// bound must not fill it with records nobody waits for (a full queue
/// blocks the enqueuer, which holds the writer lock). Every accepted
/// gesture is still logged, at a small fraction of the syncs.
TEST(ServerTest, NavigationOnlyStreamsNeverFillTheCommitQueue) {
  const std::string name = "SrvNavOnly";
  WipeDurable(name);
  std::unique_ptr<Server> srv = OpenDurableMusic(name);
  ASSERT_NE(srv, nullptr);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  constexpr int kGestures = 5000;  // GroupCommitter's max_queue is 4096.
  const char* const kLoop[] = {"pick class:musicians", "cmd view contents",
                               "cmd pop"};
  int accepted = 0;
  for (int i = 0; i < kGestures; ++i) {
    const std::string message = Gesture(client, kLoop[i % 3]);
    ASSERT_FALSE(Rejected(message)) << message;
    ++accepted;
  }
  srv->Shutdown();
  StatsSnapshot s = srv->stats().Snapshot();
  EXPECT_EQ(s.wal_records, accepted);
  EXPECT_GE(s.unwaited_replies, accepted - accepted / 100);
  EXPECT_LT(s.wal_syncs, accepted / 100) << "navigation still pays a sync";
  WipeDurable(name);
}

/// The constraint-redefinition repro through a durable session: the failed
/// redefinition answers its error and is not logged, so the live server
/// must still hold the old constraint -- exactly what recovery rebuilds.
TEST(ServerTest, FailedConstraintRedefinitionLeavesLiveEqualToRecovered) {
  const std::string name = "SrvRedefine";
  WipeDurable(name);
  std::string live;
  {
    std::unique_ptr<Server> srv = OpenDurableMusic(name);
    ASSERT_NE(srv, nullptr);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "t"), RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    std::string message;
    for (const char* line : kRedefineConstraintScript) {
      message = Gesture(client, line);
    }
    EXPECT_EQ(message.rfind("! TypeError", 0), 0u) << message;
    EXPECT_EQ(srv->workspace().constraints().size(), 1u);
    live = store::Save(srv->workspace());
  }
  std::unique_ptr<Server> srv = OpenDurableMusic(name);
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->workspace().constraints().size(), 1u);
  EXPECT_EQ(store::Save(srv->workspace()), live);
  srv->Shutdown();
  WipeDurable(name);
}

/// A rejected `create baseclass` (bad naming-attribute name) is not logged,
/// so it must not consume the class id and fill pattern the next class
/// gets: after a crash, the recovered schema must equal the live one.
TEST(ServerTest, RejectedCreateBaseclassLeavesRecoveredEqualToLive) {
  const std::string name = "SrvBaseclass";
  WipeDurable(name);
  std::string live;
  {
    std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), name);
    RetryingClient client(
        std::make_unique<LoopbackTransport>(srv.get(), "t"), RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    EXPECT_FALSE(Rejected(Gesture(client, "cmd create baseclass")));
    EXPECT_FALSE(Rejected(Gesture(client, "type b1")));
    const std::string message = Gesture(client, "type bad`name");
    EXPECT_EQ(message.rfind("! InvalidArgument: invalid attribute name", 0),
              0u)
        << message;
    for (const char* line : {"cmd create baseclass", "type b2", "type name"}) {
      ASSERT_FALSE(Rejected(Gesture(client, line))) << line;
    }
    live = store::Save(srv->workspace());
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), name);
  const std::string recovered = store::Save(srv->workspace());
  EXPECT_EQ(recovered, live) << FirstDiff(live, recovered);
  srv->Shutdown();
  WipeDurable(name);
}

/// Two sessions on one durable server: session A picks a selection, session
/// B deletes one of its entities, then A's `command` acts on the stale
/// selection. A must get an error, the database must not move, and a crash
/// right after must recover exactly the live state (a rejected gesture is
/// not logged, so anything it half-applied would be lost).
void ExpectStaleSelectionChangesNothing(
    const std::string& name, const std::vector<std::string>& a_picks,
    const std::vector<std::string>& b_gestures, const std::string& command) {
  WipeDurable(name);
  std::string live;
  {
    std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), name);
    RetryingClient a(std::make_unique<LoopbackTransport>(srv.get(), "a"),
                     RetryOptions());
    RetryingClient b(std::make_unique<LoopbackTransport>(srv.get(), "b"),
                     RetryOptions());
    ASSERT_TRUE(a.Connect().ok());
    ASSERT_TRUE(b.Connect().ok());
    for (const std::string& line : a_picks) {
      ASSERT_FALSE(Rejected(Gesture(a, line))) << "A: " << line;
    }
    for (const std::string& line : b_gestures) {
      ASSERT_FALSE(Rejected(Gesture(b, line))) << "B: " << line;
    }
    const std::string before = store::Save(srv->workspace());
    const std::string message = Gesture(a, command);
    EXPECT_TRUE(Rejected(message)) << message;
    live = store::Save(srv->workspace());
    EXPECT_EQ(live, before) << "'" << command << "' half-applied: "
                            << FirstDiff(before, live);
    // No Shutdown(): the destructor is the crash.
  }
  std::unique_ptr<Server> srv = OpenScaled(2, 64, DurableDir(), name);
  const std::string recovered = store::Save(srv->workspace());
  EXPECT_EQ(recovered, live) << FirstDiff(live, recovered);
  srv->Shutdown();
  WipeDurable(name);
}

TEST(ServerTest, MakeSubclassOverAStaleSelectionChangesNothing) {
  ExpectStaleSelectionChangesNothing(
      "SrvStaleMake",
      {"pick class:musicians", "cmd view contents", "pick member:musician0",
       "cmd make subclass"},
      {"pick class:musicians", "cmd view contents", "pick member:musician0",
       "cmd delete entity"},
      "type sub1");
}

TEST(ServerTest, AssignOverAStaleSelectionChangesNothing) {
  ExpectStaleSelectionChangesNothing(
      "SrvStaleAssign",
      {"pick class:musicians", "cmd view contents", "pick member:musician0",
       "pick member:musician1", "cmd follow", "pick attr:plays",
       "pick member:inst3", "pick member:inst2"},
      {"pick class:musicians", "cmd view contents", "pick member:musician1",
       "cmd delete entity"},
      "cmd (re)assign att. value");
}

TEST(ServerTest, DeleteEntityOverAStaleSelectionChangesNothing) {
  ExpectStaleSelectionChangesNothing(
      "SrvStaleDelete",
      {"pick class:musicians", "cmd view contents", "pick member:musician0",
       "pick member:musician1"},
      {"pick class:musicians", "cmd view contents", "pick member:musician1",
       "cmd delete entity"},
      "cmd delete entity");
}

/// `save` in a shared session is refused like load/undo/redo: the server
/// owns persistence, so a client can neither rename the shared workspace
/// nor make the server write a file it names.
TEST(ServerTest, SaveIsRefusedInSharedSessions) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  RetryingClient client(std::make_unique<LoopbackTransport>(srv.get(), "t"),
                        RetryOptions());
  ASSERT_TRUE(client.Connect().ok());
  const std::string name = srv->workspace().name();
  const std::string escaped = "../isis_shared_save_probe";
  store::FileEnv* env = store::FileEnv::Default();
  (void)env->Remove(escaped + ".isis");
  const std::string message = Gesture(client, "cmd save");
  EXPECT_EQ(message.rfind("! Unimplemented", 0), 0u) << message;
  EXPECT_TRUE(Rejected(Gesture(client, "type " + escaped)));
  EXPECT_EQ(srv->workspace().name(), name);
  EXPECT_FALSE(env->Exists(escaped + ".isis"));
  (void)env->Remove(escaped + ".isis");
  srv->Shutdown();
}

// --- Grouping pages under concurrent sessions. ---

/// The sizes of the `family<k> {n}` block rows on a rendered by_family
/// grouping page, keyed by family name.
std::map<std::string, int> FamilyBlockSizes(const std::string& screen) {
  static const std::regex kRow("(family[0-9]+) \\{([0-9]+)\\}");
  std::map<std::string, int> out;
  for (auto it = std::sregex_iterator(screen.begin(), screen.end(), kRow);
       it != std::sregex_iterator(); ++it) {
    out[(*it)[1]] = std::stoi((*it)[2]);
  }
  return out;
}

/// Sessions render the by_family grouping page under the shared lock while
/// another session reassigns families. A grouping read walks the `family`
/// value index the writer keeps current, so every render must show a whole
/// grouping -- each instrument in exactly one block -- and once the writes
/// stop, the blocks the server renders are the ones the rows derive.
TEST(ServerTest, GroupingPagesRenderWhileAnotherSessionAssigns) {
  std::unique_ptr<Server> srv = OpenScaled(4);
  const sdm::Database& db = srv->workspace().db();
  const ClassId instruments = *db.schema().FindClass("instruments");
  const AttributeId family = *db.schema().FindAttribute(instruments, "family");
  const std::vector<EntityId> insts(db.Members(instruments).begin(),
                                    db.Members(instruments).end());
  constexpr int kReaders = 3;
  constexpr int kRenders = 40;
  constexpr int kWrites = 40;

  std::vector<std::unique_ptr<RetryingClient>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<RetryingClient>(
        std::make_unique<LoopbackTransport>(srv.get(), "r"), RetryOptions()));
    ASSERT_TRUE(readers.back()->Connect().ok());
    for (const char* line : {"pick grouping:by_family", "cmd view contents"}) {
      Result<Frame> ev = readers.back()->Call(MsgType::kEvent, line);
      ASSERT_TRUE(ev.ok());
      ASSERT_EQ(ev->type, MsgType::kScreen) << ev->payload;
    }
  }
  RetryingClient writer(std::make_unique<LoopbackTransport>(srv.get(), "w"),
                        RetryOptions());
  ASSERT_TRUE(writer.Connect().ok());

  std::vector<std::string> failures(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kRenders && failures[r].empty(); ++i) {
        Result<Frame> screen = readers[r]->Call(MsgType::kRender, "");
        if (!screen.ok() || screen->type != MsgType::kScreen) {
          failures[r] = "render failed";
          break;
        }
        int placed = 0;
        for (const auto& [name, size] : FamilyBlockSizes(screen->payload)) {
          if (size == 0) failures[r] = "empty block " + name;
          placed += size;
        }
        if (placed != static_cast<int>(insts.size())) {
          failures[r] = "render placed " + std::to_string(placed) +
                        " instruments:\n" + screen->payload;
        }
      }
    });
  }
  Rng rng(11);
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(writer
                    .Assign("instruments",
                            "inst" + std::to_string(rng.Below(insts.size())),
                            "family", "family" + std::to_string(rng.Below(8)))
                    .ok());
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(failures[r], "") << r;

  std::map<std::string, int> derived;
  for (EntityId x : insts) ++derived[db.NameOf(db.GetSingle(x, family))];
  Result<Frame> last = readers[0]->Call(MsgType::kRender, "");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(FamilyBlockSizes(last->payload), derived);
  srv->Shutdown();
}

/// A grouping on a naming attribute has no value index: its page lists the
/// parent's members under their interned names. Creating an instrument
/// interns nothing, so the first shared-lock render after it misses the
/// intern table, is promoted to the exclusive lock, and lists the newcomer.
TEST(ServerTest, NameGroupingPageListsAnInstrumentAnotherSessionCreated) {
  std::unique_ptr<query::Workspace> ws = datasets::BuildScaledMusic(2);
  sdm::Database& db = ws->db();
  const ClassId instruments = *db.schema().FindClass("instruments");
  const AttributeId name = *db.schema().FindAttribute(instruments, "name");
  ASSERT_TRUE(db.CreateGrouping("by_name", instruments, name).ok());
  ServerOptions options;
  options.threads = 2;
  Result<std::unique_ptr<Server>> opened =
      Server::Open(std::move(ws), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Server> srv = std::move(opened).ValueOrDie();
  RetryingClient a(std::make_unique<LoopbackTransport>(srv.get(), "a"),
                   RetryOptions());
  RetryingClient b(std::make_unique<LoopbackTransport>(srv.get(), "b"),
                   RetryOptions());
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());

  EXPECT_FALSE(Rejected(Gesture(a, "pick grouping:by_name")));
  EXPECT_FALSE(Rejected(Gesture(a, "cmd view contents")));
  for (const char* line : {"pick class:instruments", "cmd view contents",
                           "cmd create entity", "type newcomer"}) {
    ASSERT_FALSE(Rejected(Gesture(b, line))) << line;
  }
  const std::int64_t promotions = srv->stats().Snapshot().promotions;
  Result<Frame> screen = a.Call(MsgType::kRender, "");
  ASSERT_TRUE(screen.ok());
  ASSERT_EQ(screen->type, MsgType::kScreen) << screen->payload;
  EXPECT_NE(screen->payload.find("newcomer {1}"), std::string::npos)
      << screen->payload;
  EXPECT_EQ(srv->stats().Snapshot().promotions, promotions + 1);
  srv->Shutdown();
}

// --- TCP transport. ---

TEST(ServerTest, TcpRoundTrip) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  TcpServer tcp(srv.get());
  Status st = tcp.Start(0);
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }
  {
    RetryingClient client(
        std::make_unique<TcpClient>("127.0.0.1", tcp.port(), "tcp-test"),
        RetryOptions());
    ASSERT_TRUE(client.Connect().ok());
    EXPECT_GE(client.session_id(), 1);
    Result<Frame> resp = client.Call(
        MsgType::kQuery, JoinFields({"musicians", "e.plays ]= {inst0}"}));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->type, MsgType::kQueryResult) << resp->payload;
    EXPECT_EQ(resp->payload,
              OraclePayload(srv->workspace(), "musicians",
                            "e.plays ]= {inst0}"));
    Result<Frame> bye = client.Call(MsgType::kBye, "");
    ASSERT_TRUE(bye.ok());
    EXPECT_EQ(bye->type, MsgType::kOk);
  }
  tcp.Stop();
  srv->Shutdown();
}

TEST(ServerTest, TcpClientDropsTheConnectionOnAFrameItDidNotAsk) {
  // A bare listener stands in for a server that answers out of step.
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      listen(listener, 1) != 0) {
    close(listener);
    GTEST_SKIP() << "cannot bind a loopback socket here";
  }
  getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  std::thread peer([listener] {
    int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    FrameReader reader;
    // Reads one request and answers it with its seq plus `skew`.
    auto answer = [&](std::uint32_t skew) {
      Frame req;
      char buf[256];
      while (reader.Next(&req) != DecodeResult::kOk) {
        ssize_t n = read(fd, buf, sizeof(buf));
        if (n <= 0) return;
        reader.Feed(buf, static_cast<std::size_t>(n));
      }
      const std::string wire =
          EncodeFrame(Frame{MsgType::kOk, req.seq + skew, "1|db"});
      [[maybe_unused]] ssize_t n = write(fd, wire.data(), wire.size());
    };
    answer(0);  // The hello, in step.
    answer(1);  // The next request, out of step.
    char buf[64];
    while (read(fd, buf, sizeof(buf)) > 0) {
    }
    close(fd);
  });

  {
    TcpClient client("127.0.0.1", ntohs(addr.sin_port), "t");
    Status hello = client.Reconnect(-1);
    EXPECT_TRUE(hello.ok()) << hello.ToString();
    Frame ping{MsgType::kPing, 7, ""};
    ping.deadline_ms = 2000;
    Result<Frame> resp = client.CallFrame(ping);
    EXPECT_FALSE(resp.ok());
    EXPECT_TRUE(resp.status().IsParseError()) << resp.status().ToString();
    EXPECT_FALSE(client.CallFrame(ping).ok()) << "the connection stayed open";
  }  // The client hangs up, which ends the peer's drain.
  shutdown(listener, SHUT_RDWR);  // Unblocks an accept no dial reached.
  peer.join();
  close(listener);
}

TEST(ServerTest, IdleConnectionsAreReapedAndPingKeepsAlive) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  // Wide margins: the chatty client pings every ~75ms against a 500ms
  // timeout, so even a sanitizer-slowed round trip stays attached, while
  // the idle one sits silent for ~900ms, well past the deadline.
  TcpServerOptions topts;
  topts.idle_timeout_ms = 500;
  TcpServer tcp(srv.get(), topts);
  Status st = tcp.Start(0);
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }

  // An idle connection dies; the one that pings survives the same span.
  // Bare transports: a RetryingClient would reconnect and hide the reap.
  TcpClient idle("127.0.0.1", tcp.port(), "idle");
  TcpClient chatty("127.0.0.1", tcp.port(), "chatty");
  ASSERT_TRUE(idle.Reconnect(-1).ok());
  ASSERT_TRUE(chatty.Reconnect(-1).ok());
  for (std::uint32_t i = 0; i < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
    Result<Frame> pong = chatty.CallFrame(Frame{MsgType::kPing, 10 + i, "kk"});
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->type, MsgType::kPong);
  }
  // 900ms of silence total: well past the 500ms timeout.
  const Frame query{MsgType::kQuery, 100,
                    JoinFields({"musicians", "e.plays ]= {inst0}"})};
  Result<Frame> dead = idle.CallFrame(query);
  EXPECT_FALSE(dead.ok()) << "the reaped connection still answered";
  Result<Frame> alive = chatty.CallFrame(query);
  EXPECT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_GE(srv->stats().Snapshot().idle_reaps, 1);
  tcp.Stop();
  srv->Shutdown();
}

TEST(ServerTest, PeerClosesAreClassifiedCleanVsTruncated) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  TcpServer tcp(srv.get());
  Status st = tcp.Start(0);
  if (!st.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket here: " << st.ToString();
  }

  auto dial = [&]() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp.port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };
  auto wait_for = [&](auto pred) {
    for (int i = 0; i < 200 && !pred(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  };

  // Clean: a whole frame, read its response, close on the boundary. (The
  // pong must be drained first -- closing with unread data in the receive
  // buffer sends RST, not a clean FIN.)
  {
    int fd = dial();
    Frame ping;
    ping.type = MsgType::kPing;
    ping.seq = 1;
    std::string wire = EncodeFrame(ping);
    ASSERT_EQ(write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    FrameReader reader;
    Frame pong;
    for (;;) {
      char buf[256];
      ssize_t n = read(fd, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      reader.Feed(buf, static_cast<std::size_t>(n));
      if (reader.Next(&pong) == DecodeResult::kOk) break;
    }
    EXPECT_EQ(pong.type, MsgType::kPong);
    close(fd);
    EXPECT_TRUE(
        wait_for([&] { return srv->stats().Snapshot().eof_clean >= 1; }));
  }

  // Truncated: half a frame, then the sender dies.
  {
    int fd = dial();
    Frame ping;
    ping.type = MsgType::kPing;
    ping.seq = 2;
    ping.payload = "half";
    std::string wire = EncodeFrame(ping);
    ASSERT_EQ(write(fd, wire.data(), kHeaderSize / 2),
              static_cast<ssize_t>(kHeaderSize / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    close(fd);
    EXPECT_TRUE(
        wait_for([&] { return srv->stats().Snapshot().eof_truncated >= 1; }));
  }
  tcp.Stop();
  srv->Shutdown();
}

// --- The retry layer over deterministic fault schedules. ---

RetryOptions QuickRetries() {
  RetryOptions o;
  o.max_attempts = 10;
  o.timeout_ms = 5000;
  o.base_backoff_ms = 1;
  o.max_backoff_ms = 4;
  return o;
}

TEST(RetryTest, HonorsRetryHintsWithBackoff) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(srv.get(), "hints"),
      FaultSchedule{.retry_hint_first_calls = 3});
  const FaultInjectingTransport* faults = faulty.get();
  RetryingClient client(std::move(faulty), QuickRetries());
  ASSERT_TRUE(client.Connect().ok());

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst0}");
  ASSERT_TRUE(players.ok()) << players.status().ToString();
  EXPECT_EQ(client.counters().retry_hints, 3);
  EXPECT_EQ(client.counters().retries, 3);
  EXPECT_EQ(faults->counts().retry_hints, 3);
  srv->Shutdown();
}

TEST(RetryTest, LostWriteResponseResendsAndDedupes) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(srv.get(), "lost-resp"),
      FaultSchedule{.fail_first_calls = 1});
  RetryingClient client(std::move(faulty), QuickRetries());
  ASSERT_TRUE(client.Connect().ok());
  const std::int64_t sid = client.session_id();

  // First CallFrame: the server applies the assign but the response is
  // lost and the connection dies. The client must reconnect, resume the
  // session and resend -- and the server must answer from the dedup window
  // rather than apply twice.
  ASSERT_TRUE(client.Assign("musicians", "musician2", "plays", "inst1").ok());
  EXPECT_EQ(client.session_id(), sid) << "reconnect must resume, not remint";
  EXPECT_EQ(client.counters().resumed, 1);
  EXPECT_EQ(client.counters().transport_errors, 1);
  StatsSnapshot s = srv->stats().Snapshot();
  EXPECT_EQ(s.dedup_hits, 1);
  EXPECT_EQ(s.resumes, 1);

  Result<std::vector<std::string>> players =
      client.Query("musicians", "e.plays ]= {inst1}");
  ASSERT_TRUE(players.ok());
  EXPECT_NE(std::find(players->begin(), players->end(), "musician2"),
            players->end());
  srv->Shutdown();
}

TEST(RetryTest, ExhaustsAttemptsAgainstADeadTransport) {
  std::unique_ptr<Server> srv = OpenScaled(2);
  FaultSchedule schedule;
  schedule.connect_fail_prob = 1.0;  // Every dial fails.
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(srv.get(), "unlucky"), schedule);
  RetryOptions opts = QuickRetries();
  opts.max_attempts = 3;
  RetryingClient client(std::move(faulty), opts);
  Status st = client.Connect();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(client.counters().attempts, 3);
  srv->Shutdown();
}

}  // namespace
}  // namespace isis::server
