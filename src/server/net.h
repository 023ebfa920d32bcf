/// \file net.h
/// \brief Poll-based TCP transport for the wire protocol. POSIX sockets
/// only -- no third-party dependencies.
///
/// One I/O thread multiplexes every connection with poll(2): the listener
/// and all client sockets are non-blocking, incoming bytes stream through a
/// per-connection FrameReader, decoded requests go to Server::HandleFrame,
/// and responses -- produced on worker threads -- are queued on the
/// connection's output buffer and flushed when poll reports the socket
/// writable (a self-pipe wakes the poll loop when a worker queues output).
/// A malformed frame closes the connection: mid-stream there is no
/// trustworthy resynchronization point.
///
/// TcpClient is the matching blocking ClientTransport (retry.h):
/// isis_client and the tests wrap it in RetryingClient, which adds
/// deadlines, backoff and reconnect-with-resume on top of it. It is not
/// thread-safe (one per thread).

#ifndef ISIS_SERVER_NET_H_
#define ISIS_SERVER_NET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"

namespace isis::server {

struct TcpServerOptions {
  /// >0: reap connections that have sent no bytes for this long. Clients
  /// that want to stay attached through idle periods send kPing. 0 = never
  /// reap (the pre-heartbeat behavior).
  int idle_timeout_ms = 0;
};

/// \brief TCP front end for one Server.
class TcpServer {
 public:
  explicit TcpServer(Server* server, TcpServerOptions options = {})
      : server_(server), options_(options) {}
  ~TcpServer();  ///< Calls Stop().

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks a free port; see port()) and starts
  /// the I/O thread.
  Status Start(int port);

  /// Closes the listener and every connection, then joins the I/O thread.
  void Stop();

  /// The bound port; valid after Start().
  int port() const { return port_; }

 private:
  /// One client socket. `fd` and `reader` are touched only by the I/O
  /// thread; everything a worker thread can reach through QueueResponse --
  /// the output buffer, the hello handshake state and the broken flag -- is
  /// guarded by out_mu.
  struct Conn {
    int fd = -1;                ///< I/O thread only (workers never write it).
    FrameReader reader;         ///< I/O thread only.
    /// Last moment bytes arrived (I/O thread only; drives idle reaping).
    std::chrono::steady_clock::time_point last_activity =
        std::chrono::steady_clock::now();
    Mutex out_mu;
    std::int64_t session_id ISIS_GUARDED_BY(out_mu) = -1;
    /// Encoded responses awaiting write.
    std::string out ISIS_GUARDED_BY(out_mu);
    /// Decode error or peer gone; reap.
    bool broken ISIS_GUARDED_BY(out_mu) = false;
    std::uint32_t hello_seq ISIS_GUARDED_BY(out_mu) = 0;
    bool hello_pending ISIS_GUARDED_BY(out_mu) = false;

    void MarkBroken() ISIS_EXCLUDES(out_mu) {
      MutexLock lock(out_mu);
      broken = true;
    }
    bool IsBroken() ISIS_EXCLUDES(out_mu) {
      MutexLock lock(out_mu);
      return broken;
    }
  };

  void Run();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void QueueResponse(const std::shared_ptr<Conn>& conn, const Frame& resp);
  void FlushWrites(const std::shared_ptr<Conn>& conn);
  void Wake();

  Server* const server_;
  const TcpServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::vector<std::shared_ptr<Conn>> conns_;  ///< I/O thread only.
};

/// \brief Blocking ClientTransport over one TCP connection.
///
/// Reconnect() dials the stored endpoint and says hello; RetryingClient
/// normally owns that. Every CallFrame wait is bounded by the request's
/// deadline_ms (plus slack) via poll(2), and Reconnect() tears down
/// whatever half-open state a failure left. The server answers each
/// request once and sends nothing unasked (notifications are polled), so
/// a frame that does not answer the request in flight -- another seq, or
/// a kNotify -- is a protocol error: CallFrame closes the connection and
/// fails, and RetryingClient reconnects.
class TcpClient : public ClientTransport {
 public:
  /// Stores the endpoint; does not dial -- Reconnect() does.
  TcpClient(std::string host, int port, std::string client_name)
      : host_(std::move(host)),
        port_(port),
        client_name_(std::move(client_name)) {}
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  Status Reconnect(std::int64_t resume_sid) override;
  Result<Frame> CallFrame(const Frame& req) override;
  std::int64_t session_id() const override { return session_id_; }

 private:
  Status Dial();  ///< socket+connect to host_:port_; fd_ valid on success.
  Status WriteAll(const std::string& bytes);
  /// `deadline_ms` > 0 bounds the wait; 0 blocks.
  Result<Frame> ReadFrame(int deadline_ms);
  void CloseFd();

  const std::string host_;
  const int port_;
  const std::string client_name_;
  int fd_ = -1;
  std::int64_t session_id_ = -1;
  std::uint32_t next_seq_ = 1;  ///< Hello seqs; callers seq their requests.
  FrameReader reader_;
};

}  // namespace isis::server

#endif  // ISIS_SERVER_NET_H_
