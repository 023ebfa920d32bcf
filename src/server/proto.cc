#include "server/proto.h"

#include <cstring>

#include "common/endian.h"
#include "common/strings.h"
#include "store/crc32.h"

namespace isis::server {

namespace {

void PutU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Extension bytes a given flags byte selects.
std::size_t ExtensionSize(std::uint8_t flags) {
  std::size_t ext = 0;
  if (flags & kFlagDeadline) ext += 4;
  if (flags & kFlagWriteSeq) ext += 8;
  return ext;
}

}  // namespace

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kHello:
      return "kHello";
    case MsgType::kEvent:
      return "kEvent";
    case MsgType::kAssign:
      return "kAssign";
    case MsgType::kQuery:
      return "kQuery";
    case MsgType::kExplain:
      return "kExplain";
    case MsgType::kRender:
      return "kRender";
    case MsgType::kSubscribe:
      return "kSubscribe";
    case MsgType::kUnsubscribe:
      return "kUnsubscribe";
    case MsgType::kStats:
      return "kStats";
    case MsgType::kPoll:
      return "kPoll";
    case MsgType::kBye:
      return "kBye";
    case MsgType::kPing:
      return "kPing";
    case MsgType::kOk:
      return "kOk";
    case MsgType::kError:
      return "kError";
    case MsgType::kScreen:
      return "kScreen";
    case MsgType::kQueryResult:
      return "kQueryResult";
    case MsgType::kExplainResult:
      return "kExplainResult";
    case MsgType::kStatsResult:
      return "kStatsResult";
    case MsgType::kRetry:
      return "kRetry";
    case MsgType::kNotify:
      return "kNotify";
    case MsgType::kDeadlineExceeded:
      return "kDeadlineExceeded";
    case MsgType::kPong:
      return "kPong";
  }
  return "kUnknown";
}

bool IsValidMsgType(std::uint8_t t) {
  return (t >= static_cast<std::uint8_t>(MsgType::kHello) &&
          t <= static_cast<std::uint8_t>(MsgType::kPing)) ||
         (t >= static_cast<std::uint8_t>(MsgType::kOk) &&
          t <= static_cast<std::uint8_t>(MsgType::kPong));
}

std::string EncodeFrame(const Frame& frame) {
  std::uint8_t flags = 0;
  if (frame.deadline_ms != 0) flags |= kFlagDeadline;
  if (frame.write_seq != 0) flags |= kFlagWriteSeq;
  std::string out;
  out.reserve(kHeaderSize + ExtensionSize(flags) + frame.payload.size());
  out += "IS";
  out.push_back(static_cast<char>(frame.type));
  out.push_back(static_cast<char>(flags));
  PutU32(&out, frame.seq);
  PutU32(&out, static_cast<std::uint32_t>(frame.payload.size()));
  PutU32(&out, store::Crc32(frame.payload));
  if (flags & kFlagDeadline) PutU32(&out, frame.deadline_ms);
  if (flags & kFlagWriteSeq) PutU64(&out, frame.write_seq);
  out += frame.payload;
  return out;
}

DecodeResult DecodeFrame(const std::string& buf, Frame* out,
                         std::size_t* consumed, std::string* error) {
  *consumed = 0;
  if (buf.size() < kHeaderSize) return DecodeResult::kNeedMore;
  const char* p = buf.data();
  if (p[0] != 'I' || p[1] != 'S') {
    if (error) *error = "bad magic";
    return DecodeResult::kError;
  }
  std::uint8_t type = static_cast<std::uint8_t>(p[2]);
  if (!IsValidMsgType(type)) {
    if (error) *error = "unknown message type";
    return DecodeResult::kError;
  }
  std::uint8_t flags = static_cast<std::uint8_t>(p[3]);
  if (flags & static_cast<std::uint8_t>(~kKnownFlags)) {
    if (error) *error = "unknown header flags";
    return DecodeResult::kError;
  }
  std::uint32_t seq = LoadLe32(p + 4);
  std::uint32_t len = LoadLe32(p + 8);
  std::uint32_t crc = LoadLe32(p + 12);
  if (len > kMaxPayload) {
    if (error) *error = "payload too large";
    return DecodeResult::kError;
  }
  const std::size_t ext = ExtensionSize(flags);
  if (buf.size() < kHeaderSize + ext + len) return DecodeResult::kNeedMore;
  const char* e = p + kHeaderSize;
  std::uint32_t deadline_ms = 0;
  std::uint64_t write_seq = 0;
  if (flags & kFlagDeadline) {
    deadline_ms = LoadLe32(e);
    e += 4;
  }
  if (flags & kFlagWriteSeq) {
    write_seq = LoadLe64(e);
    e += 8;
  }
  std::string_view payload(buf.data() + kHeaderSize + ext, len);
  if (store::Crc32(payload) != crc) {
    if (error) *error = "payload checksum mismatch";
    return DecodeResult::kError;
  }
  out->type = static_cast<MsgType>(type);
  out->seq = seq;
  out->deadline_ms = deadline_ms;
  out->write_seq = write_seq;
  out->payload.assign(payload);
  *consumed = kHeaderSize + ext + len;
  return DecodeResult::kOk;
}

DecodeResult FrameReader::Next(Frame* out, std::string* error) {
  std::size_t consumed = 0;
  DecodeResult r = DecodeFrame(buf_, out, &consumed, error);
  if (r == DecodeResult::kOk) buf_.erase(0, consumed);
  return r;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::vector<std::string> escaped;
  escaped.reserve(fields.size());
  for (const std::string& f : fields) escaped.push_back(Escape(f));
  return Join(escaped, "|");
}

std::vector<std::string> SplitFields(const std::string& payload) {
  std::vector<std::string> out;
  for (const std::string& f : Split(payload, '|')) out.push_back(Unescape(f));
  return out;
}

}  // namespace isis::server
