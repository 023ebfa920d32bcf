/// \file loopback.h
/// \brief In-process client transport: frames over function calls.
///
/// LoopbackTransport speaks the real wire protocol -- every request is
/// encoded with EncodeFrame, re-decoded on the "server side", and the
/// response makes the same round trip -- so tests and benchmarks exercise
/// framing, checksums and payload conventions without a socket. In between
/// sits one blocking Server::Call: the caller waits for the reply anyway,
/// so on an idle session the request runs to completion on the caller's
/// own thread (executor.h, rule 5). It is a ClientTransport (retry.h):
/// request flows wrap it in RetryingClient, and a test that needs a
/// hand-built frame calls CallFrame directly.

#ifndef ISIS_SERVER_LOOPBACK_H_
#define ISIS_SERVER_LOOPBACK_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "server/proto.h"
#include "server/retry.h"
#include "server/session.h"

namespace isis::server {

/// \brief ClientTransport (retry.h) over the in-process connection: what
/// RetryingClient and the chaos harness drive in tests and benchmarks.
///
/// Every frame makes the full encode/decode round trip both ways --
/// including the v1 header extensions -- so deadline_ms and write_seq are
/// exercised as wire bytes, not struct fields. CallFrame is encode,
/// decode, Server::Call, encode, decode; Server::Call's wait is
/// deadline-bounded when the request carries a deadline, so a response
/// that never arrives surfaces as an IOError instead of a hang. Until the
/// first Reconnect() requests carry session id -1, which only kPing and
/// kHello accept.
class LoopbackTransport : public ClientTransport {
 public:
  LoopbackTransport(Server* server, std::string client_name)
      : server_(server), client_name_(std::move(client_name)) {}

  Status Reconnect(std::int64_t resume_sid) override;
  Result<Frame> CallFrame(const Frame& req) override;
  std::int64_t session_id() const override { return session_id_; }

 private:
  Server* const server_;
  const std::string client_name_;
  std::int64_t session_id_ = -1;
};

}  // namespace isis::server

#endif  // ISIS_SERVER_LOOPBACK_H_
