#include "server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace isis::server {

namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

// --- TcpServer. ---

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(int port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st(StatusCode::kIOError,
              std::string("bind: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 64) < 0) {
    Status st(StatusCode::kIOError,
              std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  ISIS_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  int pipefd[2];
  if (pipe(pipefd) < 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipefd[0];
  wake_write_fd_ = pipefd[1];
  ISIS_RETURN_NOT_OK(SetNonBlocking(wake_read_fd_));
  stop_.store(false);
  io_thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true);
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  for (const std::shared_ptr<Conn>& c : conns_) {
    if (c->fd >= 0) close(c->fd);
  }
  conns_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  close(wake_read_fd_);
  close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
}

void TcpServer::Wake() {
  if (wake_write_fd_ >= 0) {
    char b = 'w';
    [[maybe_unused]] ssize_t n = write(wake_write_fd_, &b, 1);
  }
}

void TcpServer::QueueResponse(const std::shared_ptr<Conn>& conn,
                              const Frame& resp) {
  {
    MutexLock lock(conn->out_mu);
    // The hello response carries the session id this connection will tag
    // all later requests with.
    if (conn->hello_pending && resp.seq == conn->hello_seq) {
      conn->hello_pending = false;
      if (resp.type == MsgType::kOk) {
        std::vector<std::string> fields = SplitFields(resp.payload);
        if (!fields.empty()) {
          try {
            conn->session_id = std::stoll(fields[0]);
          } catch (...) {
            conn->broken = true;
          }
        }
      }
    }
    conn->out += EncodeFrame(resp);
  }
  Wake();  // Worker thread -> poll loop: there is output to flush.
}

void TcpServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->last_activity = std::chrono::steady_clock::now();
      conn->reader.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer closed. Leftover undecoded bytes mean it died mid-frame (a
      // torn write); a clean goodbye closes on a frame boundary.
      server_->mutable_stats()->RecordPeerClose(conn->reader.pending() > 0);
      conn->MarkBroken();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->MarkBroken();
    return;
  }
  for (;;) {
    Frame req;
    std::string error;
    DecodeResult r = conn->reader.Next(&req, &error);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kError) {
      conn->MarkBroken();  // No resync point inside a corrupt stream.
      return;
    }
    std::int64_t sid;
    {
      MutexLock lock(conn->out_mu);
      sid = conn->session_id;
      if (req.type == MsgType::kHello) {
        conn->hello_seq = req.seq;
        conn->hello_pending = true;
      }
    }
    std::shared_ptr<Conn> target = conn;
    server_->HandleFrame(sid, req, [this, target](const Frame& resp) {
      QueueResponse(target, resp);
    });
  }
}

void TcpServer::FlushWrites(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(conn->out_mu);
  while (!conn->out.empty()) {
    ssize_t n = write(conn->fd, conn->out.data(), conn->out.size());
    if (n > 0) {
      conn->out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->broken = true;
    break;
  }
}

void TcpServer::Run() {
  while (!stop_.load()) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const std::shared_ptr<Conn>& c : conns_) {
      short events = POLLIN;
      {
        MutexLock lock(c->out_mu);
        if (!c->out.empty()) events |= POLLOUT;
      }
      fds.push_back({c->fd, events, 0});
    }
    // With idle reaping armed, wake often enough that a connection is
    // reaped within ~a quarter of its timeout past the deadline.
    int poll_ms = 500;
    if (options_.idle_timeout_ms > 0) {
      poll_ms = std::min(500, std::max(10, options_.idle_timeout_ms / 4));
    }
    int rc = poll(fds.data(), fds.size(), poll_ms);
    if (rc < 0 && errno != EINTR) break;
    if (stop_.load()) break;
    if (fds[0].revents & POLLIN) {
      for (;;) {
        int cfd = accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        if (!SetNonBlocking(cfd).ok()) {
          close(cfd);
          continue;
        }
        int one = 1;
        setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        conns_.push_back(conn);
      }
    }
    if (fds[1].revents & POLLIN) {
      char drain[64];
      while (read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    // Only connections that were polled have a pollfd; ones accepted
    // above are appended to conns_ and wait for the next round.
    for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
      pollfd& p = fds[2 + i];
      const std::shared_ptr<Conn>& c = conns_[i];
      if (p.revents & (POLLERR | POLLHUP)) c->MarkBroken();
      if (!c->IsBroken() && (p.revents & POLLIN)) HandleReadable(c);
      if (!c->IsBroken() && (p.revents & POLLOUT)) FlushWrites(c);
    }
    if (options_.idle_timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
      for (const std::shared_ptr<Conn>& c : conns_) {
        if (!c->IsBroken() && now - c->last_activity >= limit) {
          server_->mutable_stats()->RecordIdleReap();
          c->MarkBroken();
        }
      }
    }
    // Reap broken connections (late worker responses hit a closed fd's
    // buffer harmlessly: the Conn outlives the fd via shared_ptr).
    std::vector<std::shared_ptr<Conn>> alive;
    for (const std::shared_ptr<Conn>& c : conns_) {
      if (c->IsBroken()) {
        close(c->fd);
        c->fd = -1;  // I/O-thread-only field; workers only touch `out`.
      } else {
        alive.push_back(c);
      }
    }
    conns_ = std::move(alive);
  }
}

// --- TcpClient. ---

TcpClient::~TcpClient() { CloseFd(); }

void TcpClient::CloseFd() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status TcpClient::Dial() {
  CloseFd();
  reader_ = FrameReader();  // A new stream owes us nothing from the old one.
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    CloseFd();
    return Status::InvalidArgument("bad host address: " + host_);
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st(StatusCode::kIOError,
              std::string("connect: ") + std::strerror(errno));
    CloseFd();
    return st;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status TcpClient::Reconnect(std::int64_t resume_sid) {
  ISIS_RETURN_NOT_OK(Dial());
  Frame hello;
  hello.type = MsgType::kHello;
  hello.seq = next_seq_++;
  hello.deadline_ms = 5000;  // A dial must not hang either.
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

Result<Frame> TcpClient::CallFrame(const Frame& req) {
  if (fd_ < 0) return Status::IOError("not connected");
  Status st = WriteAll(EncodeFrame(req));
  if (!st.ok()) {
    CloseFd();  // SPI contract: an error leaves us down until Reconnect.
    return st;
  }
  // Bound the response wait by the request's own budget plus slack for the
  // wire; after a local timeout the stream is unusable (the late response
  // would desync it), so the connection dies with the wait.
  Result<Frame> resp = ReadFrame(
      req.deadline_ms > 0 ? static_cast<int>(req.deadline_ms) + 250 : 0);
  if (resp.ok() && (resp->type == MsgType::kNotify || resp->seq != req.seq)) {
    // Not the answer to this request: the stream is out of step with what
    // was asked, and nothing later on it can be trusted either.
    resp = Status::ParseError(std::string("unsolicited ") +
                              MsgTypeName(resp->type) + " frame (seq " +
                              std::to_string(resp->seq) + ", awaiting " +
                              std::to_string(req.seq) + ")");
  }
  if (!resp.ok()) CloseFd();
  return resp;
}

Status TcpClient::WriteAll(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IOError(std::string("write: ") + std::strerror(errno));
  }
  return Status::OK();
}

Result<Frame> TcpClient::ReadFrame(int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  for (;;) {
    Frame f;
    std::string error;
    DecodeResult r = reader_.Next(&f, &error);
    if (r == DecodeResult::kOk) return f;
    if (r == DecodeResult::kError) {
      return Status::ParseError("bad frame from server: " + error);
    }
    if (deadline_ms > 0) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - std::chrono::steady_clock::now())
                           .count();
      if (remaining <= 0) return Status::IOError("read timed out");
      pollfd p{fd_, POLLIN, 0};
      int rc = poll(&p, 1, static_cast<int>(remaining));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("poll: ") + std::strerror(errno));
      }
      if (rc == 0) return Status::IOError("read timed out");
    }
    char buf[16384];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
}

}  // namespace isis::server
