#include "server/session.h"

#include <cstdio>
#include <utility>

#include "common/strings.h"
#include "input/event.h"
#include "live/deps.h"
#include "query/eval.h"
#include "query/parser.h"
#include "store/serializer.h"

namespace isis::server {

namespace {

Frame ErrorFrame(const Frame& req, const Status& st) {
  Frame resp;
  resp.type = MsgType::kError;
  resp.seq = req.seq;
  resp.payload = std::string(StatusCodeToString(st.code())) + "|" +
                 Escape(st.message());
  return resp;
}

bool IsUnavailableResponse(const Frame& resp) {
  return resp.type == MsgType::kError &&
         resp.payload.rfind("Unavailable|", 0) == 0;
}

/// A kScreen payload: the session's message line and the screen its last
/// Render() left. Touches only the controller, never the database.
std::string ScreenPayload(const ui::SessionController& ctrl) {
  return JoinFields({ctrl.message(), ctrl.last_screen().canvas.ToString()});
}

}  // namespace

// --- Session. ---

void Session::Subscribe(const std::string& cls) {
  MutexLock lock(mu_);
  subs_.insert(cls);
}

void Session::Unsubscribe(const std::string& cls) {
  MutexLock lock(mu_);
  subs_.erase(cls);
}

bool Session::SubscribedTo(const std::string& cls) const {
  MutexLock lock(mu_);
  return subs_.count("*") > 0 || subs_.count(cls) > 0;
}

void Session::PushNotification(const std::string& line) {
  MutexLock lock(mu_);
  pending_.push_back(line);
}

std::vector<std::string> Session::DrainNotifications() {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.swap(pending_);
  return out;
}

// --- DeltaCollector. ---

void Server::DeltaCollector::OnMembership(EntityId e, ClassId cls,
                                          bool added) {
  if (db_ == nullptr) return;
  Change c;
  c.cls = db_->schema().GetClass(cls).name;
  c.entity = db_->NameOf(e);
  c.kind = added ? "member+" : "member-";
  changes_.push_back(std::move(c));
}

void Server::DeltaCollector::OnAttributeValue(EntityId e, AttributeId attr,
                                              const sdm::EntitySet& before,
                                              const sdm::EntitySet& after) {
  (void)before;
  (void)after;
  if (db_ == nullptr) return;
  const sdm::AttributeDef& def = db_->schema().GetAttribute(attr);
  Change c;
  c.cls = db_->schema().GetClass(def.owner).name;
  c.entity = db_->NameOf(e);
  c.kind = "attr:" + def.name;
  changes_.push_back(std::move(c));
}

std::vector<Server::DeltaCollector::Change> Server::DeltaCollector::Drain() {
  std::vector<Change> out;
  out.swap(changes_);
  return out;
}

// --- Server lifecycle. ---

Server::Server(std::unique_ptr<query::Workspace> ws,
               const ServerOptions& options)
    : options_(options), ws_(std::move(ws)) {}

Result<std::unique_ptr<Server>> Server::Open(
    std::unique_ptr<query::Workspace> ws, const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(std::move(ws), options));
  if (!options.durable_dir.empty()) {
    ISIS_RETURN_NOT_OK(server->InitDurable());
    store::GroupCommitter::Options gc;
    gc.policy = options.wal_sync;
    // stats_ lives inside the heap-allocated Server, so the pointer stays
    // valid for the committer's whole life.
    ServerStats* stats = &server->stats_;
    gc.batch_observer = [stats](int records, std::int64_t sync_us,
                                bool synced) {
      stats->RecordWalBatch(records, sync_us, synced);
    };
    server->committer_ =
        std::make_unique<store::GroupCommitter>(server->wal_.get(), gc);
    server->max_unwaited_ = gc.max_batch;
  }
  if (server->live_ == nullptr) {  // Recovery already attached it.
    server->live_ = std::make_unique<live::LiveViewEngine>(server->ws_.get());
  }
  server->deltas_.Attach(&server->ws_->db());
  server->ws_->db().AddObserver(&server->deltas_);
  if (options.result_cache) {
    query::ResultCache::Options copts;
    copts.capacity = options.result_cache_capacity;
    server->cache_ =
        std::make_unique<query::ResultCache>(&server->ws_->db(), copts);
  }
  // From here on reads run concurrently: freeze interning (see the
  // "Concurrency" section of sdm/database.h). Exclusive tasks unfreeze
  // around themselves.
  server->ws_->db().set_intern_frozen(true);
  Executor::Options exec_options;
  exec_options.threads = options.threads;
  exec_options.queue_capacity = options.queue_capacity;
  server->executor_ =
      std::make_unique<Executor>(exec_options, &server->stats_);
  return server;
}

Server::~Server() {
  // Without a prior Shutdown() this is the crash path: workers are joined
  // (they must not outlive the object) but no checkpoint or log rotation
  // happens, so the WAL still holds everything needed for recovery.
  if (executor_ != nullptr) executor_->Shutdown();
  ws_->db().RemoveObserver(&deltas_);
}

Status Server::InitDurable() {
  store::FileEnv* env =
      options_.env != nullptr ? options_.env : store::FileEnv::Default();
  const std::string wal_path =
      options_.durable_dir + "/" + ws_->name() + ".server.wal";
  if (env->Exists(wal_path)) {
    Result<store::WalContents> contents = store::ReadWal(wal_path, env);
    ISIS_RETURN_NOT_OK(contents.status());
    const std::vector<store::WalRecord>& records = contents->records;
    if (records.empty() || records.front().type != "base") {
      return Status::ParseError("server WAL does not start with a base "
                                "checkpoint: " + wal_path);
    }
    Result<std::unique_ptr<query::Workspace>> loaded =
        store::Load(records.front().payload);
    ISIS_RETURN_NOT_OK(loaded.status());
    ws_ = std::move(loaded).ValueOrDie();
    // Replay through the same dispatch path that produced the log, one
    // replay controller per original session (their prompt state machines
    // are independent), and with the engine the live server maintained
    // derived views with.
    live_ = std::make_unique<live::LiveViewEngine>(ws_.get());
    std::map<std::int64_t, std::unique_ptr<ui::SessionController>> ctrls;
    for (std::size_t i = 1; i < records.size(); ++i) {
      ISIS_RETURN_NOT_OK(ReplayRecord(records[i], &ctrls));
      // A maintenance failure was answered when the live server applied
      // this record (kError or the message line), and the server kept
      // serving; so recovery logs it and goes on, and a database the live
      // server kept serving reopens.
      LogIfError(live_->TakeError(), "server WAL replay");
    }
    ISIS_RETURN_NOT_OK(ws_->db().schema().Validate());
  }
  // Fresh log on the current state -- also the torn-tail repair (the WAL
  // reader already dropped a torn final record, and this rewrite makes the
  // file clean again).
  std::vector<store::WalRecord> base;
  base.push_back({"base", store::Save(*ws_)});
  Result<std::unique_ptr<store::WalWriter>> writer =
      store::WalWriter::CreateWithRecords(wal_path, env, base);
  ISIS_RETURN_NOT_OK(writer.status());
  wal_ = std::move(writer).ValueOrDie();
  return Status::OK();
}

Status Server::ReplayRecord(
    const store::WalRecord& rec,
    std::map<std::int64_t, std::unique_ptr<ui::SessionController>>* ctrls) {
  if (rec.type == "sevent") {
    std::size_t bar = rec.payload.find('|');
    if (bar == std::string::npos) {
      return Status::ParseError("malformed sevent record: " + rec.payload);
    }
    std::int64_t sid = 0;
    try {
      sid = std::stoll(rec.payload.substr(0, bar));
    } catch (...) {
      return Status::ParseError("bad session id in sevent record");
    }
    Result<input::Event> ev = input::DecodeEvent(rec.payload.substr(bar + 1));
    ISIS_RETURN_NOT_OK(ev.status());
    std::unique_ptr<ui::SessionController>& ctrl = (*ctrls)[sid];
    if (ctrl == nullptr) {
      // No engine to report to: the engine's errors stay pending for
      // InitDurable, which logs them.
      ctrl = std::make_unique<ui::SessionController>(ws_.get(), nullptr);
    }
    return ctrl->HandleEvent(*ev);
  }
  if (rec.type == "assign") return ApplyAssign(SplitFields(rec.payload));
  if (rec.type == "note") return Status::OK();  // Journal only.
  return Status::ParseError("unknown server WAL record type: " + rec.type);
}

std::string Server::Shutdown() {
  {
    WriterLock lock(sessions_mu_);
    if (shut_down_) return stats_.ToJsonLine();
    shut_down_ = true;
  }
  executor_->Shutdown();  // Drains every accepted request + continuations.
  if (committer_ != nullptr) {
    // Every request's own continuation already waited; this covers records
    // whose waiter died with a dropped transport, and makes "WAL complete"
    // a precondition of the checkpoint below.
    LogIfError(committer_->Flush(), "WAL flush at shutdown");
  }
  SyncCacheStats();
  ws_->db().set_intern_frozen(false);
  if (wal_ != nullptr) {
    store::FileEnv* env =
        options_.env != nullptr ? options_.env : store::FileEnv::Default();
    const std::string save_path =
        options_.durable_dir + "/" + ws_->name() + ".isis";
    Status st = store::SaveToFile(*ws_, save_path, env);
    if (st.ok()) {
      // The checkpoint captured everything: restart replays nothing.
      std::vector<store::WalRecord> base;
      base.push_back({"base", store::Save(*ws_)});
      Result<std::unique_ptr<store::WalWriter>> writer =
          store::WalWriter::CreateWithRecords(wal_->path(), env, base);
      if (writer.ok()) {
        wal_ = std::move(writer).ValueOrDie();
        // The committer is idle (executor drained, Flush returned) -- the
        // one state set_writer's contract allows.
        committer_->set_writer(wal_.get());
      }
    }
    // A failed checkpoint keeps the old log -- recovery still works.
  }
  std::string json = stats_.ToJsonLine();
  std::fprintf(stderr, "%s\n", json.c_str());
  return json;
}

int Server::session_count() const {
  ReaderLock lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

std::shared_ptr<Session> Server::FindSession(std::int64_t id) const {
  ReaderLock lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void Server::SyncCacheStats() {
  if (cache_ == nullptr) return;
  query::ResultCache::Counters c = cache_->counters();
  stats_.SetCacheCounters(c.hits, c.reply_hits, c.misses, c.evictions,
                          c.invalidations,
                          c.schema_flushes + c.version_flushes);
}

void Server::Finish(const Frame& req, const Frame& resp,
                    ResponseCallback& done,
                    std::chrono::steady_clock::time_point t0) {
  stats_.RecordRequest(static_cast<int>(req.type),
                       std::chrono::steady_clock::now() - t0,
                       resp.type == MsgType::kError);
  done(resp);
}

void Server::ReplyAfterCommit(store::GroupCommitter::Ticket ticket,
                              const Frame& req, const Frame& resp,
                              ResponseCallback& done,
                              std::chrono::steady_clock::time_point t0) {
  // A failed commit leaves the mutation applied in memory but missing from
  // the log, where recovery would lose it: the client hears the commit's
  // error, never an OK that claims durability.
  Status st = ticket.seq == 0 ? Status::OK() : committer_->Wait(ticket);
  LogIfError(st, "server WAL group commit");
  Finish(req, st.ok() ? resp : ErrorFrame(req, st), done, t0);
}

// --- Request routing. ---

struct Server::Rendezvous {
  Mutex mu;
  CondVar cv;
  bool ready ISIS_GUARDED_BY(mu) = false;
  Frame resp ISIS_GUARDED_BY(mu);
};

ResponseCallback Server::QueuedAnswer(const ResponseCallback& done,
                                      std::shared_ptr<Rendezvous>* handoff) {
  if (handoff == nullptr) return done;
  auto state = std::make_shared<Rendezvous>();
  *handoff = state;
  return [state](const Frame& resp) {
    MutexLock lock(state->mu);
    state->resp = resp;
    state->ready = true;
    state->cv.NotifyOne();
  };
}

void Server::HandleFrame(std::int64_t session_id, const Frame& request,
                         ResponseCallback done) {
  Route(session_id, request, done, /*handoff=*/nullptr);
}

Result<Frame> Server::Call(std::int64_t session_id, const Frame& request) {
  // An inline run answers into this frame. A queued request answers a heap
  // rendezvous instead, which Route hands back in `queued`: the wait below
  // is deadline-bounded, so the worker may answer after Call returned.
  Frame reply;
  ResponseCallback on_stack = [&reply](const Frame& resp) { reply = resp; };
  std::shared_ptr<Rendezvous> queued;
  Route(session_id, request, on_stack, &queued);
  if (queued == nullptr) return reply;

  MutexLock lock(queued->mu);
  auto answered = [&] {
    queued->mu.AssertHeld();
    return queued->ready;
  };
  if (request.deadline_ms > 0) {
    // The executor enforces deadline_ms before dispatch, so allow it slack
    // to produce the kDeadlineExceeded answer; if even that never comes the
    // wait still ends.
    const auto budget = std::chrono::milliseconds(request.deadline_ms) +
                        std::chrono::milliseconds(250);
    if (!queued->cv.WaitFor(lock, budget, answered)) {
      return Status::IOError("server response timed out");
    }
  } else {
    queued->cv.Wait(lock, answered);
  }
  return std::move(queued->resp);
}

void Server::Route(std::int64_t session_id, const Frame& request,
                   ResponseCallback& done,
                   std::shared_ptr<Rendezvous>* handoff) {
  auto t0 = std::chrono::steady_clock::now();

  if (request.type == MsgType::kPing) {
    // The liveness probe: answered inline on the transport's thread, never
    // queued -- a ping must come back even when every lane is saturated.
    stats_.RecordHeartbeat();
    Frame resp;
    resp.type = MsgType::kPong;
    resp.seq = request.seq;
    resp.payload = request.payload;
    Finish(request, resp, done, t0);
    return;
  }

  if (request.type == MsgType::kHello) {
    // A second payload field is a resume request: reattach that session if
    // it is still live (reconnect after a dropped connection), otherwise
    // fall through and mint a fresh one.
    std::vector<std::string> hello_fields = SplitFields(request.payload);
    if (hello_fields.size() >= 2) {
      std::int64_t resume_sid = -1;
      try {
        resume_sid = std::stoll(hello_fields[1]);
      } catch (...) {
        resume_sid = -1;
      }
      std::shared_ptr<Session> prev =
          resume_sid >= 0 ? FindSession(resume_sid) : nullptr;
      if (prev != nullptr) {
        stats_.RecordResume();
        Frame resp;
        resp.type = MsgType::kOk;
        resp.seq = request.seq;
        resp.payload = JoinFields({std::to_string(prev->id()), ws_->name()});
        Finish(request, resp, done, t0);
        return;
      }
    }
    std::int64_t id;
    {
      WriterLock lock(sessions_mu_);
      if (shut_down_) {
        Frame resp = ErrorFrame(
            request, Status::Unavailable("server is shutting down"));
        Finish(request, resp, done, t0);
        return;
      }
      id = next_session_id_++;
    }
    executor_->AddLane(id);
    auto body = [&]() -> PostLockFn { return Welcome(id, request, done, t0); };
    if (handoff != nullptr &&
        executor_->RunInline(id, TaskMode::kShared, std::ref(body))) {
      return;
    }
    ResponseCallback answer = QueuedAnswer(done, handoff);
    SubmitResult r = executor_->Submit(
        id, TaskMode::kShared,
        [this, id, request, answer, t0]() mutable -> PostLockFn {
          return Welcome(id, request, answer, t0);
        },
        /*important=*/true);
    if (r != SubmitResult::kAccepted) {
      Finish(request,
             ErrorFrame(request, Status::Unavailable("server is closed")),
             answer, t0);
    }
    return;
  }

  std::shared_ptr<Session> s = FindSession(session_id);
  if (s == nullptr) {
    Frame resp = ErrorFrame(
        request, Status::NotFound("unknown session id " +
                                  std::to_string(session_id)));
    Finish(request, resp, done, t0);
    return;
  }

  TaskMode mode;
  bool important = false;
  switch (request.type) {
    case MsgType::kQuery:
    case MsgType::kExplain:
    case MsgType::kRender:
      mode = TaskMode::kShared;
      break;
    case MsgType::kEvent:
    case MsgType::kAssign:
      mode = TaskMode::kExclusive;
      break;
    case MsgType::kStats:
    case MsgType::kPoll:
    case MsgType::kSubscribe:
    case MsgType::kUnsubscribe:
      mode = TaskMode::kNone;
      break;
    case MsgType::kBye:
      mode = TaskMode::kNone;
      important = true;  // Teardown must not be shed behind a full queue.
      break;
    default: {
      Frame resp = ErrorFrame(
          request, Status::InvalidArgument(
                       std::string("not a request type: ") +
                       MsgTypeName(request.type)));
      Finish(request, resp, done, t0);
      return;
    }
  }

  // A write's WAL record is assembled here, on the transport's thread --
  // string building has no business inside the exclusive section.
  WalRecord wal;
  if (request.type == MsgType::kEvent) {
    wal = {"sevent", std::to_string(s->id()) + "|" + request.payload};
  } else if (request.type == MsgType::kAssign) {
    wal = {"assign", request.payload};
  }

  // Inline, the task borrows everything from this frame (std::ref: the
  // TaskFn holds a reference, not a copy).
  auto body = [&]() -> PostLockFn {
    return Serve(mode, s, request, done, handoff, wal, t0);
  };
  if (handoff != nullptr && executor_->RunInline(s->id(), mode, std::ref(body))) {
    return;
  }
  // Queued, the task owns its request and answers a callback that outlives
  // this call.
  ResponseCallback answer = QueuedAnswer(done, handoff);
  TaskFn task = [this, mode, s, request, answer, wal = std::move(wal),
                 t0]() mutable -> PostLockFn {
    return Serve(mode, s, request, answer, nullptr, wal, t0);
  };
  std::function<void()> on_expired;
  if (request.deadline_ms > 0) {
    // Expired while queued: answer without touching the database. To the
    // client this is indistinguishable from kRetry -- nothing happened,
    // resend if the budget allows (same write_seq, so a resent write still
    // dedupes against an earlier application).
    on_expired = [this, request, answer, t0]() mutable {
      Frame resp;
      resp.type = MsgType::kDeadlineExceeded;
      resp.seq = request.seq;
      resp.payload =
          "deadline_exceeded|" + std::to_string(request.deadline_ms);
      Finish(request, resp, answer, t0);
    };
  }
  SubmitResult r =
      executor_->Submit(s->id(), mode, std::move(task), important,
                        request.deadline_ms, std::move(on_expired));
  if (r == SubmitResult::kShed) {
    stats_.RecordShed();
    Frame resp;
    resp.type = MsgType::kRetry;
    resp.seq = request.seq;
    resp.payload =
        "queue_full|" + std::to_string(options_.queue_capacity);
    Finish(request, resp, answer, t0);
  } else if (r == SubmitResult::kClosed) {
    Frame resp = ErrorFrame(
        request, Status::Unavailable("server closed or session gone"));
    Finish(request, resp, answer, t0);
  }
}

PostLockFn Server::Welcome(std::int64_t id, const Frame& request,
                           ResponseCallback& done,
                           std::chrono::steady_clock::time_point t0) {
  auto s = std::make_shared<Session>(id, ws_.get(), live_.get());
  {
    WriterLock lock(sessions_mu_);
    sessions_[id] = s;
  }
  Frame resp;
  resp.type = MsgType::kOk;
  resp.seq = request.seq;
  resp.payload = JoinFields({std::to_string(id), ws_->name()});
  Finish(request, resp, done, t0);
  return {};
}

PostLockFn Server::Serve(TaskMode mode, const std::shared_ptr<Session>& s,
                         const Frame& request, ResponseCallback& done,
                         std::shared_ptr<Rendezvous>* handoff, WalRecord& wal,
                         std::chrono::steady_clock::time_point t0) {
  switch (mode) {
    case TaskMode::kShared:
      return ServeRead(s, request, done, handoff, t0);
    case TaskMode::kExclusive:
      return ServeWrite(s, request, done, wal, t0);
    case TaskMode::kNone:
      break;
  }
  return ServeLocal(*s, request, done, t0);
}

PostLockFn Server::ServeRead(const std::shared_ptr<Session>& s,
                             const Frame& request, ResponseCallback& done,
                             std::shared_ptr<Rendezvous>* handoff,
                             std::chrono::steady_clock::time_point t0) {
  // Detect reads that needed to intern an unseen value: either the engine
  // returned Unavailable, or a degraded naming read bumped the thread-local
  // miss counter. Re-run those under the exclusive lock.
  std::int64_t misses_before = sdm::Database::InternMissCount();
  Frame resp = HandleReadLocked(s, request);
  if (sdm::Database::InternMissCount() == misses_before &&
      !IsUnavailableResponse(resp)) {
    Finish(request, resp, done, t0);
    return {};
  }
  stats_.RecordPromotion();
  ResponseCallback answer = QueuedAnswer(done, handoff);
  SubmitResult r = executor_->Submit(
      s->id(), TaskMode::kExclusive,
      [this, s, request, answer, t0]() mutable -> PostLockFn {
        ws_->db().set_intern_frozen(false);
        Frame retry = HandleReadLocked(s, request);
        ws_->db().set_intern_frozen(true);
        FanOutDeltas();  // Interning may have touched memberships.
        Finish(request, retry, answer, t0);
        return {};
      },
      /*important=*/true);
  if (r != SubmitResult::kAccepted) {
    Finish(request, ErrorFrame(request, Status::Unavailable("server is closed")),
           answer, t0);
  }
  return {};
}

PostLockFn Server::ServeWrite(const std::shared_ptr<Session>& s,
                              const Frame& request, ResponseCallback& done,
                              WalRecord& wal,
                              std::chrono::steady_clock::time_point t0) {
  // Every path answers from its post-lock continuation (executor rule 6),
  // so no reply is built or sent under the writer lock. The continuations
  // may hold references to `s`, `request` and `done`: their owner -- the
  // caller's frame inline, the task queued -- outlives the continuation.
  //
  // A resend of the write we just applied (its response was lost in
  // flight): replay the cached response instead of applying twice.
  if (request.write_seq != 0 && request.write_seq == s->last_write_seq()) {
    stats_.RecordDedupHit();
    Frame resp = s->last_write_response();
    resp.seq = request.seq;
    return [this, &request, &done, resp = std::move(resp),
            ticket = s->last_write_ticket(), t0] {
      ReplyAfterCommit(ticket, request, resp, done, t0);
    };
  }
  if (committer_ != nullptr) {
    // A failed WAL write is sticky, so nothing applied from here on could
    // be logged: refuse the mutation before it touches the database. Reads
    // keep working.
    Status failed = committer_->status();
    if (!failed.ok()) {
      return [this, &request, &done, resp = ErrorFrame(request, failed), t0] {
        Finish(request, resp, done, t0);
      };
    }
  }
  bool log_wal = false;
  const std::uint64_t saved_before = ws_->save_version();
  ws_->db().set_intern_frozen(false);
  Frame resp = HandleWriteLocked(s, request, &log_wal);
  ws_->db().set_intern_frozen(true);
  FanOutDeltas();
  // Enqueue while the writer lock is still held (a queue push, no I/O), so
  // WAL order always equals apply order. The wait -- and the fsync behind
  // it -- happens in the continuation, after the lock is released; until
  // then the reply does not exist.
  store::GroupCommitter::Ticket ticket;
  bool wait = false;
  if (log_wal && committer_ != nullptr) {
    ticket = committer_->Enqueue(std::move(wal.type), std::move(wal.payload));
    // Only a write that may have changed the database waits for its
    // commit. A gesture that moved nothing but its own session's UI state
    // answers now: its record rides with the next waited commit (the log
    // is one ordered prefix, so that commit makes it durable first), and
    // recovery discards session UI state anyway. After max_unwaited_
    // records without a waiter one reply waits again, so the committer's
    // queue always has a drainer coming.
    wait = request.type == MsgType::kAssign ||
           ws_->save_version() != saved_before ||
           unwaited_records_ >= max_unwaited_;
    if (wait) {
      unwaited_records_ = 0;
    } else {
      ++unwaited_records_;
      stats_.RecordUnwaitedReply();
    }
  }
  // The writer lock ends here. A gesture's screen is serialized after it:
  // DoEvent left it rendered in the session's controller, which only this
  // lane touches, and rule 6 runs the continuation before the lane's next
  // task. The finished reply goes into the dedup window before the commit
  // wait, so a resend gets the same bytes.
  return [this, &s, &request, &done, resp = std::move(resp), ticket, wait,
          t0]() mutable {
    if (resp.type == MsgType::kScreen) {
      resp.payload = ScreenPayload(s->ctrl());
    }
    if (request.write_seq != 0) {
      s->set_last_write(request.write_seq, resp, ticket);
    }
    ReplyAfterCommit(wait ? ticket : store::GroupCommitter::Ticket{},
                     request, resp, done, t0);
  };
}

PostLockFn Server::ServeLocal(Session& s, const Frame& request,
                              ResponseCallback& done,
                              std::chrono::steady_clock::time_point t0) {
  Frame resp;
  resp.seq = request.seq;
  switch (request.type) {
    case MsgType::kStats:
      SyncCacheStats();
      resp.type = MsgType::kStatsResult;
      resp.payload = stats_.ToJsonLine();
      break;
    case MsgType::kPoll: {
      std::vector<std::string> notifs = s.DrainNotifications();
      std::vector<std::string> fields;
      fields.push_back(std::to_string(notifs.size()));
      for (std::string& n : notifs) fields.push_back(std::move(n));
      resp.type = MsgType::kOk;
      resp.payload = JoinFields(fields);
      break;
    }
    case MsgType::kSubscribe:
    case MsgType::kUnsubscribe: {
      std::vector<std::string> fields = SplitFields(request.payload);
      const std::string cls = fields.empty() ? "*" : fields[0];
      if (request.type == MsgType::kSubscribe) {
        s.Subscribe(cls);
      } else {
        s.Unsubscribe(cls);
      }
      resp.type = MsgType::kOk;
      break;
    }
    case MsgType::kBye: {
      {
        WriterLock lock(sessions_mu_);
        sessions_.erase(s.id());
      }
      executor_->RemoveLane(s.id());  // Drains, then the lane dies.
      resp.type = MsgType::kOk;
      break;
    }
    default:
      resp = ErrorFrame(request, Status::Internal("bad kNone dispatch"));
      break;
  }
  Finish(request, resp, done, t0);
  return {};
}

// --- Handlers (lock already held by the worker). ---

Frame Server::HandleReadLocked(std::shared_ptr<Session> s, const Frame& req) {
  switch (req.type) {
    case MsgType::kQuery:
      return DoQuery(req);
    case MsgType::kExplain:
      return DoExplain(req);
    case MsgType::kRender:
      return DoRender(std::move(s), req);
    default:
      return ErrorFrame(req, Status::Internal("bad shared dispatch"));
  }
}

Frame Server::HandleWriteLocked(std::shared_ptr<Session> s, const Frame& req,
                                bool* log_wal) {
  switch (req.type) {
    case MsgType::kEvent:
      return DoEvent(std::move(s), req, log_wal);
    case MsgType::kAssign:
      return DoAssign(req, log_wal);
    default:
      return ErrorFrame(req, Status::Internal("bad exclusive dispatch"));
  }
}

Frame Server::DoQuery(const Frame& req) {
  Frame resp;
  resp.type = MsgType::kQueryResult;
  resp.seq = req.seq;
  // A repeated request is answered from its stored reply: no parse, no
  // key, no names (query/cache.h, rule 3).
  if (cache_ != nullptr && cache_->LookupReply(req.payload, &resp.payload)) {
    return resp;
  }
  std::vector<std::string> fields = SplitFields(req.payload);
  if (fields.size() != 2) {
    return ErrorFrame(
        req, Status::InvalidArgument("kQuery payload is class|predicate"));
  }
  const sdm::Database& db = ws_->db();
  // Degraded-read marker, snapshotted before the parse: a frozen-intern
  // read that could not intern (thread-local miss) yields a predicate that
  // must neither consult nor populate the cache -- the caller discards this
  // whole response and re-runs exclusively anyway. The version is stamped
  // here too: Insert and InsertReply refuse what was computed while the
  // database moved (REPL-style unfrozen readers can intern while parsing
  // or evaluating; under the server's shared lock nothing moves and the
  // stamp always holds).
  const std::int64_t misses0 = sdm::Database::InternMissCount();
  const std::uint64_t v0 = db.version();
  Result<ClassId> cls = db.schema().FindClass(fields[0]);
  if (!cls.ok()) return ErrorFrame(req, cls.status());
  Result<query::Predicate> pred =
      query::ParsePredicate(db, *cls, fields[1]);
  if (!pred.ok()) return ErrorFrame(req, pred.status());

  std::shared_ptr<const sdm::EntitySet> result;
  std::string key;
  const bool cacheable =
      cache_ != nullptr && sdm::Database::InternMissCount() == misses0;
  if (cacheable) {
    key = query::ResultCache::NormalizeKey(*pred, *cls);
    result = cache_->Lookup(key);
  }
  const bool reused = result != nullptr;
  if (!reused) {
    query::Evaluator ev(db);
    auto eval = std::make_shared<const sdm::EntitySet>(
        ev.EvaluateSubclass(*pred, *cls));
    if (cacheable && sdm::Database::InternMissCount() == misses0) {
      query::ResultCache::Deps deps = live::FlattenForCache(
          live::AnalyzeAdHoc(db.schema(), *cls, *pred));
      cache_->Insert(key, deps, eval, v0);
    }
    result = std::move(eval);
  }
  // Names are rendered from the id-set at response time: the id-keyed
  // result stays valid across renames, and NameOf reflects the current
  // names.
  std::vector<std::string> out;
  out.push_back(std::to_string(result->size()));
  for (EntityId e : *result) out.push_back(db.NameOf(e));
  resp.payload = JoinFields(out);
  // Admission: only a request that reused a fresh id-set stores its reply.
  if (reused && sdm::Database::InternMissCount() == misses0) {
    cache_->InsertReply(req.payload, key, *pred, *cls, resp.payload, v0);
  }
  return resp;
}

Frame Server::DoExplain(const Frame& req) {
  std::vector<std::string> fields = SplitFields(req.payload);
  if (fields.size() != 2) {
    return ErrorFrame(
        req, Status::InvalidArgument("kExplain payload is class|predicate"));
  }
  const sdm::Database& db = ws_->db();
  Result<ClassId> cls = db.schema().FindClass(fields[0]);
  if (!cls.ok()) return ErrorFrame(req, cls.status());
  Result<query::Predicate> pred =
      query::ParsePredicate(db, *cls, fields[1]);
  if (!pred.ok()) return ErrorFrame(req, pred.status());
  query::Evaluator ev(db);
  Frame resp;
  resp.type = MsgType::kExplainResult;
  resp.seq = req.seq;
  resp.payload = ev.Explain(*pred, *cls);
  // Whether the identical kQuery would be answered without evaluation
  // right now, from its stored reply or its id-set. The peeks touch neither
  // the counters nor the LRU order, so explaining a query does not perturb
  // what it reports.
  if (cache_ == nullptr) {
    resp.payload += "\ncache: bypass";
  } else if (cache_->PeekReply(req.payload) ||
             cache_->Peek(query::ResultCache::NormalizeKey(*pred, *cls))) {
    resp.payload += "\ncache: hit";
  } else {
    resp.payload += "\ncache: miss";
  }
  return resp;
}

Frame Server::DoRender(std::shared_ptr<Session> s, const Frame& req) {
  // A read has no continuation, so it serializes under its shared lock,
  // which holds back only writers.
  s->ctrl().Render();
  Frame resp;
  resp.type = MsgType::kScreen;
  resp.seq = req.seq;
  resp.payload = ScreenPayload(s->ctrl());
  return resp;
}

Frame Server::DoEvent(std::shared_ptr<Session> s, const Frame& req,
                      bool* log_wal) {
  Result<input::Event> ev = input::DecodeEvent(req.payload);
  if (!ev.ok()) return ErrorFrame(req, ev.status());
  // Errors surface in the session's message line, exactly like the
  // single-user interface; the response is still the rendered screen.
  Status st = s->ctrl().HandleEvent(*ev);
  // The caller enqueues the record on the group committer and decides
  // whether the reply waits for it. Only accepted events are logged, so a
  // rejected one must leave the database as it found it: recovery would
  // not reproduce its effect.
  if (st.ok() && log_wal != nullptr) *log_wal = true;
  // Render is this handler's last step: it reads the database and may
  // intern a name, so it needs the writer lock. The screen it leaves in
  // the controller becomes this frame's payload in the task's post-lock
  // continuation.
  s->ctrl().Render();
  Frame resp;
  resp.type = MsgType::kScreen;
  resp.seq = req.seq;
  return resp;
}

Status Server::ApplyAssign(const std::vector<std::string>& fields) {
  if (fields.size() != 4) {
    return Status::InvalidArgument(
        "kAssign payload is class|entity|attr|v1,v2,...");
  }
  sdm::Database& db = ws_->db();
  Result<ClassId> cls = db.schema().FindClass(fields[0]);
  ISIS_RETURN_NOT_OK(cls.status());
  Result<EntityId> e = db.FindMember(*cls, fields[1]);
  ISIS_RETURN_NOT_OK(e.status());
  Result<AttributeId> attr = db.schema().FindAttribute(*cls, fields[2]);
  ISIS_RETURN_NOT_OK(attr.status());
  const sdm::AttributeDef& def = db.schema().GetAttribute(*attr);
  sdm::EntitySet values;
  for (const std::string& raw : Split(fields[3], ',')) {
    std::string name(Trim(raw));
    if (name.empty()) continue;
    Result<EntityId> v = db.FindMember(def.value_class, name);
    ISIS_RETURN_NOT_OK(v.status());
    values.insert(*v);
  }
  if (def.multivalued) {
    return db.SetMulti(*e, *attr, values);
  }
  if (values.size() > 1) {
    return Status::InvalidArgument(fields[2] + " is singlevalued");
  }
  EntityId v = values.empty() ? sdm::kNullEntity : *values.begin();
  return db.SetSingle(*e, *attr, v);
}

Frame Server::DoAssign(const Frame& req, bool* log_wal) {
  Status st = ApplyAssign(SplitFields(req.payload));
  if (!st.ok()) return ErrorFrame(req, st);
  if (log_wal != nullptr) *log_wal = true;  // Committed by the caller.
  // The engine maintained the derived views as the assign settled. If that
  // failed, the assign stays applied and logged, and its answer says so.
  Status maintenance = live_->TakeError();
  if (!maintenance.ok()) return ErrorFrame(req, maintenance);
  Frame resp;
  resp.type = MsgType::kOk;
  resp.seq = req.seq;
  return resp;
}

void Server::FanOutDeltas() {
  std::vector<DeltaCollector::Change> changes = deltas_.Drain();
  if (changes.empty()) return;
  std::vector<std::shared_ptr<Session>> targets;
  {
    ReaderLock lock(sessions_mu_);
    for (const auto& [id, s] : sessions_) targets.push_back(s);
  }
  for (const DeltaCollector::Change& c : changes) {
    const std::string payload = JoinFields({c.cls, c.entity, c.kind});
    for (const std::shared_ptr<Session>& s : targets) {
      if (!s->SubscribedTo(c.cls)) continue;
      s->PushNotification(payload);
      stats_.RecordNotification();
    }
  }
}

}  // namespace isis::server
