/// \file session.h
/// \brief The multi-session ISIS server: N client sessions over one shared
/// durable workspace.
///
/// Architecture (one Server instance):
///
///   loopback (blocks for the reply)      net (TcpServer's poll thread)
///        |                                        |
///        v                                        v
///   Server::Call --------------------------> Server::HandleFrame
///        |  lane idle: run to completion          |  always queued
///        |  on the caller's thread                v
///        |                              per-session lane queue
///        |  lane busy: queue and wait ----------> |
///        v                                        v
///   caller's thread                      Executor worker pool
///        \______________________________________/
///                           |
///          shared lock: query, explain, render, hello
///          exclusive lock: event, assign
///          no lock: stats, poll, subscribe, bye
///                           |
///            one query::Workspace + value indexes
///            + one live::LiveViewEngine + one WAL
///
/// Each client session keeps its *own* UI state -- a shared-mode
/// ui::SessionController holds the selection, pages, prompts and worksheet
/// -- while schema, data, stored queries, value indexes and live views are
/// one copy shared by everyone. Reads run concurrently under the shared
/// lock; events and assigns run alone under the exclusive lock, append to
/// the server's write-ahead log, and fan change notifications out to
/// subscribed sessions.
///
/// Interning discipline: while read tasks run, the database is
/// *intern-frozen* (sdm/database.h, "Concurrency"): a read that would have
/// to intern a never-seen value -- a parse mentioning the constant `3.5`
/// for the first time -- observes Unavailable or a thread-local miss, and
/// the server transparently re-runs that one request under the exclusive
/// lock, where interning is safe. Results are identical to a
/// single-threaded run; only the lock held differs.
///
/// Durability: a durable server logs every accepted event and assign in
/// the WAL (`<dir>/<db>.server.wal`, records "sevent" = `<sid>|<event
/// line>` and "assign") via group commit (store/group_commit.h, DESIGN.md
/// §14): the exclusive task applies the write, renders the session's
/// screen and *enqueues* the pre-built WAL record while holding the writer
/// lock -- so WAL order equals apply order. Every write then replies from
/// a post-lock continuation, after the lock is released: it serializes
/// the rendered screen, stores the reply in the dedup window and, for a
/// write that changed the database (query::Workspace::save_version moved;
/// every assign counts), waits for its commit ticket before replying. A
/// gesture that changed nothing but its own session's UI state -- pick,
/// view, follow, pop -- replies without waiting; its record rides with the
/// next commit that is waited on. That is safe because the log is
/// one ordered prefix: a waited ticket makes every earlier record durable
/// too, so no reply claiming a change is sent before the navigation it
/// built on is on disk, while recovery discards session UI state and so
/// loses nothing a client saw when an unwaited tail dies in a crash. Once
/// the committer's max_batch records have gone unwaited, the next reply
/// waits anyway, which keeps a drainer coming for the committer's bounded
/// queue. The fsync thus never blocks readers or the next writer, is paid
/// once per batch under `wal_sync = kGroup`, and is not paid at all by
/// most navigation replies. A commit that fails answers its waiting write
/// kError, and since the committer's failure is sticky, every later
/// event/assign is refused before it applies; reads keep answering.
/// Open() replays a leftover log through per-session replay controllers --
/// the same dispatch path that produced it, with the same live engine --
/// then rotates it onto a fresh base checkpoint. A live-maintenance error
/// during replay is logged and cleared, and replay goes on: the live
/// server answered it and kept serving, so its log must reopen too.
/// Shutdown() drains the executor, flushes the committer (the unwaited
/// tail included), checkpoints to `<dir>/<db>.isis`, rotates the log and
/// emits one stats JSON line.

#ifndef ISIS_SERVER_SESSION_H_
#define ISIS_SERVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "live/engine.h"
#include "query/cache.h"
#include "query/workspace.h"
#include "server/executor.h"
#include "server/proto.h"
#include "server/stats.h"
#include "store/file.h"
#include "store/group_commit.h"
#include "store/wal.h"
#include "ui/controller.h"

namespace isis::server {

struct ServerOptions {
  int threads = 4;
  int queue_capacity = 64;  ///< Per-session queued-request bound.
  /// Query-result cache over the shared database (query/cache.h): a kQuery
  /// answer is memoized as the result id-set of its normalized predicate,
  /// and a request that reuses a fresh id-set also stores its reply, so the
  /// next identical request is answered without a parse or a name lookup.
  /// Entries are dropped once a write or a schema edit has changed what
  /// they read, names included. Replies are identical either way
  /// (property-tested in result_cache_test.cpp); off is only for A/B
  /// benching.
  bool result_cache = true;
  int result_cache_capacity = 1024;  ///< Id-set and reply entries together.
  /// Non-empty: run durable -- WAL in this directory (must exist), recovery
  /// on open, checkpoint on shutdown.
  std::string durable_dir;
  /// When fsyncs happen on the durable write path (store/group_commit.h):
  /// `kGroup` amortizes one fsync over every mutation that arrived while
  /// the previous one was flushing; `kPerCommit` is the classic
  /// one-fsync-per-write; `kNone` trades crash durability for speed.
  /// Replies imply durability under the first two. Ignored when not
  /// durable.
  store::WalSyncPolicy wal_sync = store::WalSyncPolicy::kGroup;
  store::FileEnv* env = nullptr;  ///< nullptr = store::FileEnv::Default().
};

/// Delivered exactly once per HandleFrame call, possibly on a worker
/// thread.
using ResponseCallback = std::function<void(const Frame&)>;

/// \brief One connected client: per-session UI state and subscriptions.
class Session {
 public:
  Session(std::int64_t id, query::Workspace* ws, live::LiveViewEngine* live)
      : id_(id), ctrl_(ws, live) {}

  std::int64_t id() const { return id_; }
  /// Only tasks on this session's lane touch the controller. A task's
  /// post-lock continuation may read it without the database lock -- a
  /// gesture's screen is serialized there -- because the executor runs the
  /// continuation before the lane takes its next task (executor.h, rule 6),
  /// and the controller's screen and message line are the session's own.
  ui::SessionController& ctrl() { return ctrl_; }

  // Subscriptions and pending notifications are written by *other*
  // sessions' exclusive tasks (the fan-out), so unlike the controller they
  // are mutex-guarded.
  void Subscribe(const std::string& cls);
  void Unsubscribe(const std::string& cls);
  bool SubscribedTo(const std::string& cls) const;
  void PushNotification(const std::string& line);
  std::vector<std::string> DrainNotifications();

  // Write-dedup window, one write deep (see retry.h): the last applied
  // write_seq, the response it produced and the commit ticket of its WAL
  // record (seq 0 when nothing was logged), so a resend is answered only
  // once that commit resolved -- with its error if it failed. Lane-serial
  // -- only this session's exclusive tasks and their continuations read or
  // write it -- so no lock, like the controller.
  std::uint64_t last_write_seq() const { return last_write_seq_; }
  const Frame& last_write_response() const { return last_write_resp_; }
  store::GroupCommitter::Ticket last_write_ticket() const {
    return last_write_ticket_;
  }
  void set_last_write(std::uint64_t seq, const Frame& resp,
                      store::GroupCommitter::Ticket ticket) {
    last_write_seq_ = seq;
    last_write_resp_ = resp;
    last_write_ticket_ = ticket;
  }

 private:
  const std::int64_t id_;
  ui::SessionController ctrl_;
  std::uint64_t last_write_seq_ = 0;  ///< 0 = empty window.
  Frame last_write_resp_;
  store::GroupCommitter::Ticket last_write_ticket_;
  mutable Mutex mu_;
  /// Class names, or "*".
  std::set<std::string> subs_ ISIS_GUARDED_BY(mu_);
  /// Undelivered kNotify payloads.
  std::vector<std::string> pending_ ISIS_GUARDED_BY(mu_);
};

/// \brief The server. Owns the shared workspace, executor, WAL and stats.
class Server {
 public:
  /// Builds a server over `ws`. Durable mode (options.durable_dir set)
  /// first recovers from a leftover WAL -- in that case the recovered state
  /// replaces `ws` -- and always leaves a fresh log whose base is the
  /// current state.
  static Result<std::unique_ptr<Server>> Open(
      std::unique_ptr<query::Workspace> ws, const ServerOptions& options);

  ~Server();  ///< Without Shutdown(): simulates a crash (WAL left as-is).

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Routes one request. kHello creates a session (`session_id` ignored;
  /// pass -1): response payload "sid|<db name>". A hello whose payload
  /// carries a second field naming a still-live session id *resumes* that
  /// session instead (same sid back; UI state, subscriptions and the
  /// write-dedup window survive the new connection). Every other type needs
  /// the session id from hello. kPing is answered inline with kPong (no
  /// session needed -- it is the liveness probe). A request whose
  /// deadline_ms expired while queued is answered kDeadlineExceeded without
  /// running (executor.h, rule 4). `done` fires exactly once -- kRetry when
  /// the session's queue is full, kError for protocol/engine errors.
  ///
  /// Asynchronous: every request that touches the database is queued for
  /// the worker pool, so the calling thread never evaluates a query or
  /// waits on an fsync. That is the contract TcpServer's single I/O thread
  /// relies on.
  void HandleFrame(std::int64_t session_id, const Frame& request,
                   ResponseCallback done);

  /// Routes one request exactly like HandleFrame and blocks for its
  /// response, for callers that wait anyway (the in-process transport).
  /// When the session's lane is idle the request runs to completion on the
  /// calling thread (executor.h, rule 5): no queue, no worker, no reply
  /// handoff. Otherwise -- the lane is busy, or a read is promoted to an
  /// exclusive re-run -- it queues and Call waits for the worker's reply.
  /// That wait is bounded when the request carries deadline_ms (the budget
  /// plus 250 ms of slack for the kDeadlineExceeded answer) and fails with
  /// IOError past it. Every protocol-level answer, kError included, is an
  /// OK Result. Must not be called from inside a task.
  Result<Frame> Call(std::int64_t session_id, const Frame& request);

  /// Drains every queued request, checkpoints (durable mode), rotates the
  /// WAL and stops the workers. Requests after this get kError. Returns the
  /// final stats JSON line.
  std::string Shutdown();

  const ServerStats& stats() const { return stats_; }
  /// For transports that record connection-level events (idle reaps, EOF
  /// kinds) against the server's counters.
  ServerStats* mutable_stats() { return &stats_; }
  const query::Workspace& workspace() const { return *ws_; }
  /// The query-result cache, or nullptr when disabled (for tests).
  const query::ResultCache* result_cache() const { return cache_.get(); }
  /// Sessions currently open (for tests).
  int session_count() const;

 private:
  /// Records membership/attribute deltas during an exclusive task; drained
  /// into kNotify fan-out while the exclusive lock is still held.
  class DeltaCollector : public sdm::MutationObserver {
   public:
    struct Change {
      std::string cls;     ///< Class scoping the change (subscription key).
      std::string entity;  ///< Entity display name.
      std::string kind;    ///< "member+", "member-" or "attr:<name>".
    };
    void OnMembership(EntityId e, ClassId cls, bool added) override;
    void OnAttributeValue(EntityId e, AttributeId attr,
                          const sdm::EntitySet& before,
                          const sdm::EntitySet& after) override;
    void OnSchemaChange() override {}
    void OnMutationsSettled() override {}

    void Attach(const sdm::Database* db) { db_ = db; }
    std::vector<Change> Drain();

   private:
    const sdm::Database* db_ = nullptr;
    std::vector<Change> changes_;  ///< Only touched under the exclusive lock.
  };

  Server(std::unique_ptr<query::Workspace> ws, const ServerOptions& options);

  Status InitDurable();  ///< Recovery + fresh log; runs before workers see ws.
  Status ApplyAssign(const std::vector<std::string>& fields);
  /// Replays one logged record during recovery (no re-logging, no fan-out).
  Status ReplayRecord(const store::WalRecord& rec,
                      std::map<std::int64_t,
                               std::unique_ptr<ui::SessionController>>* ctrls);

  /// A queued Call's meeting point with the thread that answers it; heap
  /// and shared with the answer callback, since Call's wait is
  /// deadline-bounded and the answer may come after Call returned.
  struct Rendezvous;
  /// A write's WAL record, built on the transport's thread before the
  /// exclusive task runs.
  struct WalRecord {
    std::string type;
    std::string payload;
  };

  /// The body of HandleFrame and Call: validates, picks the lock mode,
  /// builds the task and runs it. `handoff` null (HandleFrame): the task is
  /// always queued, and `done` is copied into it. Non-null (Call): the task
  /// runs on the calling thread iff the lane is idle, answering `done`
  /// before Route returns; a request queued instead -- a busy lane, or a
  /// promoted read's exclusive re-run -- answers a heap rendezvous that
  /// Route stores in `*handoff` for Call to wait on.
  void Route(std::int64_t session_id, const Frame& request,
             ResponseCallback& done, std::shared_ptr<Rendezvous>* handoff);
  /// The callback a queued task answers through: `done` itself when
  /// `handoff` is null, else a new rendezvous's, stored in `*handoff`.
  static ResponseCallback QueuedAnswer(const ResponseCallback& done,
                                       std::shared_ptr<Rendezvous>* handoff);
  /// A new session's task: registers it under id `id` and answers hello.
  PostLockFn Welcome(std::int64_t id, const Frame& request,
                     ResponseCallback& done,
                     std::chrono::steady_clock::time_point t0);
  /// A session request's task, run under `mode`'s lock: ServeRead,
  /// ServeWrite or ServeLocal. Whatever it is given -- borrowed from
  /// Call's frame inline, owned by the task when queued -- outlives the
  /// continuation it returns.
  PostLockFn Serve(TaskMode mode, const std::shared_ptr<Session>& s,
                   const Frame& request, ResponseCallback& done,
                   std::shared_ptr<Rendezvous>* handoff, WalRecord& wal,
                   std::chrono::steady_clock::time_point t0);
  /// Answers a read, or queues its exclusive re-run when it needed to
  /// intern (session.h, "Interning discipline").
  PostLockFn ServeRead(const std::shared_ptr<Session>& s,
                       const Frame& request, ResponseCallback& done,
                       std::shared_ptr<Rendezvous>* handoff,
                       std::chrono::steady_clock::time_point t0);
  /// Applies a write and logs `wal`; answers from the continuation.
  PostLockFn ServeWrite(const std::shared_ptr<Session>& s,
                        const Frame& request, ResponseCallback& done,
                        WalRecord& wal,
                        std::chrono::steady_clock::time_point t0);
  /// Stats, poll, (un)subscribe and bye: no database lock.
  PostLockFn ServeLocal(Session& s, const Frame& request,
                        ResponseCallback& done,
                        std::chrono::steady_clock::time_point t0);

  // Request handlers; `shared` handlers run under the shared lock,
  // `exclusive` ones alone. All return the response frame.
  Frame HandleHello(const Frame& req);
  Frame HandleReadLocked(std::shared_ptr<Session> s, const Frame& req);
  /// `log_wal` (out, may be null): set true iff the request was accepted
  /// and belongs in the WAL. The *caller* owns the commit -- it enqueues
  /// the pre-built record on the group committer under the lock and, if
  /// save_version moved or the request is an assign, waits for the ticket
  /// after releasing it; otherwise it replies without waiting. An event's
  /// kScreen frame comes back with an empty payload: the session's screen
  /// is rendered but not yet serialized, which the caller does after the
  /// lock.
  Frame HandleWriteLocked(std::shared_ptr<Session> s, const Frame& req,
                          bool* log_wal);
  Frame DoQuery(const Frame& req);
  Frame DoExplain(const Frame& req);
  Frame DoRender(std::shared_ptr<Session> s, const Frame& req);
  Frame DoEvent(std::shared_ptr<Session> s, const Frame& req, bool* log_wal);
  Frame DoAssign(const Frame& req, bool* log_wal);
  /// Fan out collected deltas to subscribed sessions (exclusive lock held).
  void FanOutDeltas();
  /// Answers a write from its task's post-lock continuation, the only place
  /// a write replies from. Seq 0 (nothing was logged, or the write changed
  /// nothing durable and need not wait): replies `resp` at once. Otherwise
  /// waits for the commit, then replies `resp` -- or the commit's error,
  /// since an OK reply means the write is durable. May block on the fsync,
  /// so it never runs under the database lock.
  void ReplyAfterCommit(store::GroupCommitter::Ticket ticket,
                        const Frame& req, const Frame& resp,
                        ResponseCallback& done,
                        std::chrono::steady_clock::time_point t0);

  std::shared_ptr<Session> FindSession(std::int64_t id) const;
  void Finish(const Frame& req, const Frame& resp, ResponseCallback& done,
              std::chrono::steady_clock::time_point t0);
  /// Copies the result cache's counters into stats_ (absolute stores), so
  /// the next Snapshot()/ToJsonLine() reflects them. Cheap; called before
  /// every stats read.
  void SyncCacheStats();

  const ServerOptions options_;
  std::unique_ptr<query::Workspace> ws_;
  /// Maintains ws_'s derived views for every session. Declared after ws_:
  /// destroyed first.
  std::unique_ptr<live::LiveViewEngine> live_;
  /// Stamps its entries against ws_'s database; never registers with it.
  /// Null when options_.result_cache is off.
  std::unique_ptr<query::ResultCache> cache_;
  DeltaCollector deltas_;
  ServerStats stats_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<store::WalWriter> wal_;  ///< Null when not durable.
  /// Serializes WAL appends and amortizes fsyncs across concurrent
  /// mutations. Null iff wal_ is. Declared after wal_: destroyed first.
  std::unique_ptr<store::GroupCommitter> committer_;
  /// Records enqueued since the last one whose reply waits for its commit,
  /// and the most that may go unwaited (the committer's max_batch). Only
  /// exclusive tasks touch them, so the writer lock orders every access.
  int unwaited_records_ = 0;
  int max_unwaited_ = 0;

  /// Looked up shared by every request; hello, bye and shutdown write.
  mutable RwMutex sessions_mu_;
  std::map<std::int64_t, std::shared_ptr<Session>> sessions_
      ISIS_GUARDED_BY(sessions_mu_);
  std::int64_t next_session_id_ ISIS_GUARDED_BY(sessions_mu_) = 1;
  bool shut_down_ ISIS_GUARDED_BY(sessions_mu_) = false;
};

}  // namespace isis::server

#endif  // ISIS_SERVER_SESSION_H_
