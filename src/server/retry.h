/// \file retry.h
/// \brief Client-side fault tolerance: deadlines, jittered backoff,
/// retry-safe writes, automatic reconnect.
///
/// The server has always *emitted* its failure hints -- kRetry on a full
/// lane, a dropped connection on a corrupt frame -- but until this layer
/// nothing on the client side honored them: one transient error killed the
/// session. RetryingClient wraps any ClientTransport and turns transient
/// failure into bounded waiting:
///
///   * every request carries a deadline_ms budget (the frame header
///     extension, proto.h), so neither side ever waits unbounded;
///   * kRetry and kDeadlineExceeded responses -- "nothing happened, back
///     off" -- are resent after jittered exponential backoff;
///   * transport errors (peer gone, response lost, timeout) trigger a
///     reconnect with a hello that *resumes* the previous session id, so
///     per-session UI state, subscriptions and the write-dedup window
///     survive the new connection;
///   * reads are always safe to resend. Writes (kEvent/kAssign) are
///     resent only because they carry a per-session write_seq the server
///     dedupes (session.cc): if the first send was applied but its
///     response was lost, the resend returns the cached response instead
///     of applying twice. The dedup window is one write deep -- exactly
///     what a client that never pipelines writes needs -- and lives as
///     long as the session, so a resume that falls back to a fresh session
///     (the server reaped the old one) re-opens the duplicate window; the
///     client surfaces that as a counter, not silent corruption.
///
/// ClientTransport is the one-attempt SPI this wrapper drives, and the only
/// way a client reaches a Server: loopback (loopback.h), TCP (net.h) and
/// the chaos decorator (faults.h) all implement it, so the retry policy is
/// written once and tested against injected faults rather than against
/// the network's mood.

#ifndef ISIS_SERVER_RETRY_H_
#define ISIS_SERVER_RETRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "server/proto.h"

namespace isis::server {

/// \brief One connection to an ISIS server: dial, speak, die, re-dial.
///
/// Implementations are single-attempt and not thread-safe (one transport
/// per client thread); all policy -- retries, backoff, reconnect -- lives
/// in RetryingClient.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// (Re)establishes the connection and runs the hello handshake.
  /// `resume_sid` >= 0 asks the server to reattach that session (see
  /// proto.h); the server falls back to a fresh session if it is gone.
  /// Callable again after any failure -- a transport must tear down
  /// whatever half-open state the failure left behind.
  virtual Status Reconnect(std::int64_t resume_sid) = 0;

  /// One attempt: sends `req` (seq, deadline_ms, write_seq already set by
  /// the caller) and waits for the matching response, bounded by
  /// req.deadline_ms (plus transport slack) when nonzero. An error return
  /// leaves the transport disconnected or unusable until Reconnect().
  virtual Result<Frame> CallFrame(const Frame& req) = 0;

  /// Session id from the last successful handshake, -1 before one.
  virtual std::int64_t session_id() const = 0;
};

struct RetryOptions {
  /// Total attempts per request (first try included) before giving up.
  int max_attempts = 5;
  /// Per-attempt budget, stamped into the frame's deadline_ms extension
  /// and used to bound the local wait. 0 disables deadlines (waits become
  /// unbounded -- only sensible in single-threaded tests).
  int timeout_ms = 2000;
  int base_backoff_ms = 2;  ///< First backoff; doubles per failed attempt.
  int max_backoff_ms = 200;  ///< Backoff ceiling.
  std::uint64_t jitter_seed = 1;  ///< Deterministic jitter stream.
};

/// What the retry layer has absorbed so far (all monotone; read after a
/// run, e.g. by the chaos tests and bench_server).
struct RetryCounters {
  std::int64_t attempts = 0;      ///< CallFrame attempts issued.
  std::int64_t retries = 0;       ///< Attempts after the first, any cause.
  std::int64_t retry_hints = 0;   ///< kRetry responses honored.
  std::int64_t timeouts = 0;      ///< kDeadlineExceeded responses honored.
  std::int64_t transport_errors = 0;  ///< Connection-level failures
                                      ///< (includes local read timeouts).
  std::int64_t reconnects = 0;    ///< Successful re-dials.
  std::int64_t resumed = 0;       ///< ...that reattached the old session.
  std::int64_t lost_sessions = 0;  ///< ...that came back with a fresh sid.
};

/// \brief The resilient client: RetryingClient(transport).Call() behaves
/// like one bare CallFrame() under a healthy network and degrades to
/// bounded retries under a hostile one. Not thread-safe (like the
/// transports it wraps).
class RetryingClient {
 public:
  RetryingClient(std::unique_ptr<ClientTransport> transport,
                 const RetryOptions& options)
      : transport_(std::move(transport)),
        options_(options),
        rng_(options.jitter_seed) {}

  /// First dial + hello, with the same backoff policy as requests. Must
  /// succeed before Call().
  Status Connect();

  /// Sends one logical request, retrying/reconnecting per the header
  /// comment. The returned frame is a real server answer (possibly
  /// kError); only exhausted retries or a non-retryable transport state
  /// surface as a non-OK status.
  Result<Frame> Call(MsgType type, const std::string& payload);

  // Convenience wrappers for the two payload conventions callers repeat:
  // a kQuery answer as its member names, a kAssign answer as a Status.
  Result<std::vector<std::string>> Query(const std::string& cls,
                                         const std::string& predicate);
  Status Assign(const std::string& cls, const std::string& entity,
                const std::string& attr, const std::string& values);

  std::int64_t session_id() const { return session_id_; }
  const RetryCounters& counters() const { return counters_; }

 private:
  /// Sleeps the jittered exponential backoff for `attempt` (0-based).
  void Backoff(int attempt);
  /// Re-dials with resume; updates session_id_ and the resume counters.
  Status TryReconnect();

  std::unique_ptr<ClientTransport> transport_;
  const RetryOptions options_;
  Rng rng_;
  std::int64_t session_id_ = -1;
  bool connected_ = false;
  std::uint32_t next_seq_ = 1;
  std::uint64_t next_write_seq_ = 1;
  RetryCounters counters_;
};

}  // namespace isis::server

#endif  // ISIS_SERVER_RETRY_H_
