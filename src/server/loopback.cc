#include "server/loopback.h"

#include <string>

namespace isis::server {

namespace {

/// `f` as the far side of a socket would read it: encoded, then decoded.
Result<Frame> OverTheWire(const Frame& f) {
  const std::string bytes = EncodeFrame(f);
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  if (DecodeFrame(bytes, &decoded, &consumed, &error) != DecodeResult::kOk) {
    return Status::Internal("loopback frame does not round-trip: " + error);
  }
  return decoded;
}

}  // namespace

Result<Frame> LoopbackTransport::CallFrame(const Frame& req) {
  // Round-trip through the real wire encoding both ways, so loopback
  // traffic -- header extensions included -- exercises exactly what a
  // socket would carry.
  Result<Frame> request = OverTheWire(req);
  ISIS_RETURN_NOT_OK(request.status());
  Result<Frame> resp = server_->Call(session_id_, *request);
  ISIS_RETURN_NOT_OK(resp.status());
  return OverTheWire(*resp);
}

Status LoopbackTransport::Reconnect(std::int64_t resume_sid) {
  Frame hello;
  hello.type = MsgType::kHello;
  hello.seq = 1;
  hello.deadline_ms = 5000;  // A dial is bounded too.
  hello.payload =
      resume_sid >= 0
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
  try {
    session_id_ = std::stoll(fields[0]);
  } catch (...) {
    return Status::ParseError("bad session id: " + fields[0]);
  }
  return Status::OK();
}

}  // namespace isis::server
