#include "server/loopback.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/sync.h"

namespace isis::server {

Result<Frame> LoopbackTransport::CallFrame(const Frame& req) {
  // Round-trip through the real wire encoding both ways, so loopback
  // traffic -- header extensions included -- exercises exactly what a
  // socket would carry.
  std::string bytes = EncodeFrame(req);
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  if (DecodeFrame(bytes, &decoded, &consumed, &error) != DecodeResult::kOk) {
    return Status::Internal("loopback encode: " + error);
  }

  // The response callback may outlive this call (the worker answers after
  // our deadline passed), so the rendezvous state is shared, not stack.
  struct WaitState {
    Mutex mu;
    CondVar cv;
    bool ready = false;
    Frame resp;
  };
  auto state = std::make_shared<WaitState>();
  server_->HandleFrame(session_id_, decoded, [state](const Frame& resp) {
    std::string wire = EncodeFrame(resp);
    Frame out;
    std::size_t used = 0;
    MutexLock lock(state->mu);
    state->resp =
        DecodeFrame(wire, &out, &used) == DecodeResult::kOk ? out : resp;
    state->ready = true;
    state->cv.NotifyOne();
  });

  MutexLock lock(state->mu);
  if (req.deadline_ms > 0) {
    // Deadline-bounded: the server enforces deadline_ms before dispatch,
    // so allow it slack to produce the kDeadlineExceeded answer; if even
    // that never comes the wait still ends.
    const auto budget =
        std::chrono::milliseconds(req.deadline_ms) +
        std::chrono::milliseconds(250);
    if (!state->cv.WaitFor(lock, budget, [&] {
          state->mu.AssertHeld();
          return state->ready;
        })) {
      return Status::IOError("loopback response timed out");
    }
  } else {
    state->cv.Wait(lock, [&] {
      state->mu.AssertHeld();
      return state->ready;
    });
  }
  return state->resp;
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
