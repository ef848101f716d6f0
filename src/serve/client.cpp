#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "fed/transport.hpp"
#include "util/assert.hpp"

namespace fedpower::serve {

namespace {

using fed::TransportError;

[[noreturn]] void throw_errno(const char* what, int err) {
  throw TransportError(std::string("serve client: ") + what + ": " +
                       std::strerror(err));
}

/// send() the whole buffer; MSG_NOSIGNAL turns a peer close into EPIPE
/// (catchable) instead of SIGPIPE, EINTR restarts the syscall.
void write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw TransportError("serve client: send timed out");
      throw_errno("send failed", errno);
    }
    if (n == 0) throw TransportError("serve client: send made no progress");
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// recv() the whole buffer; throws on error/timeout and on a peer close
/// mid-buffer (with `on_close` as the message) — the caller always expects
/// a complete reply, so a clean close here still means the operation
/// failed and must be retried.
void read_exact(int fd, void* data, std::size_t size, const char* on_close) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd, p, size, 0);
    if (n == 0) throw TransportError(on_close);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw TransportError("serve client: read timed out");
      throw_errno("read failed", errno);
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void set_io_timeouts(int fd, double timeout_s) {
  if (timeout_s <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

ServeClient::ServeClient(ServeClientConfig config)
    : config_(std::move(config)), jitter_(config_.jitter_seed) {
  FEDPOWER_EXPECTS(config_.max_attempts >= 1);
  FEDPOWER_EXPECTS(config_.backoff_initial_s >= 0.0);
  FEDPOWER_EXPECTS(config_.backoff_multiplier >= 1.0);
}

ServeClient::~ServeClient() { close_socket(); }

void ServeClient::close_socket() noexcept {
  if (socket_ >= 0) {
    ::close(socket_);
    socket_ = -1;
  }
  resumed_ = false;
}

void ServeClient::connect_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket failed", errno);
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("serve client: bad address " + config_.host);
  }

  // Non-blocking connect bounded by poll(): a refused connect (chaos
  // proxy's kRefuse fate, or a dead server) fails after connect_timeout_s
  // instead of the kernel's minutes-long default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      const int err = errno;
      ::close(fd);
      throw_errno("connect failed", err);
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout_ms =
        config_.connect_timeout_s > 0.0
            ? std::max(1, static_cast<int>(config_.connect_timeout_s * 1e3))
            : -1;
    int rc = 0;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      ::close(fd);
      throw TransportError("serve client: connect timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      ::close(fd);
      throw_errno("connect failed", err);
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for framed I/O

  set_io_timeouts(fd, config_.io_timeout_s);
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  socket_ = fd;
}

void ServeClient::send_all(const std::vector<std::uint8_t>& frame) {
  write_all(socket_, frame.data(), frame.size());
}

std::vector<std::uint8_t> ServeClient::read_frame(
    std::uint8_t expect_direction) {
  std::uint8_t header[4];
  read_exact(socket_, header, sizeof header, "serve client: peer closed");
  const std::uint32_t frame_len = fed::load_u32_le(header);
  if (frame_len == 0 || frame_len > fed::kMaxFrameBytes)
    throw TransportError("serve client: bad frame length");
  std::vector<std::uint8_t> body(frame_len);
  read_exact(socket_, body.data(), body.size(),
             "serve client: truncated frame");
  if (body[0] != expect_direction)
    throw TransportError("serve client: direction mismatch");
  return {body.begin() + 1, body.end()};
}

std::vector<std::uint8_t> ServeClient::request(
    std::uint8_t direction, std::span<const std::uint8_t> payload) {
  send_all(encode_serve_frame(direction, payload));
  return read_frame(direction);
}

ResumeReply ServeClient::ensure_session() {
  if (socket_ < 0) connect_socket();
  if (resumed_) {
    ResumeReply cached;
    cached.version = last_resume_version_;
    return cached;
  }
  ResumeRequest hello;
  hello.client = config_.client_id;
  hello.last_acked_round = last_acked_round_;
  const std::vector<std::uint8_t> payload =
      request(kResumeDirection, encode_resume_request(hello));
  ResumeReply reply;
  if (!decode_resume_reply(payload, reply))
    throw TransportError("serve client: malformed resume reply");
  resumed_ = true;
  last_resume_version_ = reply.version;
  return reply;
}

void ServeClient::backoff(std::size_t attempt) {
  if (config_.backoff_initial_s <= 0.0) return;
  double bound = config_.backoff_initial_s;
  for (std::size_t i = 1; i < attempt; ++i)
    bound = std::min(bound * config_.backoff_multiplier,
                     config_.backoff_max_s);
  // Full jitter: sleep a uniform fraction of the exponential bound so a
  // fleet of clients knocked over together does not retry in lockstep.
  const double sleep_s = bound * jitter_.uniform();
  if (sleep_s > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
}

ResumeReply ServeClient::resume() {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      if (socket_ < 0) connect_socket();
      resumed_ = false;  // force a fresh handshake
      return ensure_session();
    } catch (const TransportError&) {
      close_socket();
      if (attempt >= config_.max_attempts) throw;
      ++retries_;
      backoff(attempt);
    }
  }
}

FetchResult ServeClient::fetch() {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      ensure_session();
      const std::vector<std::uint8_t> payload = request(kFetchDirection, {});
      if (payload.size() < 8)
        throw TransportError("serve client: short fetch reply");
      FetchResult result;
      result.version = load_u64_le(payload.data());
      result.model.assign(payload.begin() + 8, payload.end());
      return result;
    } catch (const TransportError&) {
      close_socket();
      if (attempt >= config_.max_attempts) throw;
      ++retries_;
      backoff(attempt);
    }
  }
}

bool ServeClient::upload(std::uint64_t base_version, std::uint32_t weight,
                         std::span<const std::uint8_t> model) {
  UplinkHeader header;
  header.client = config_.client_id;
  header.base_version = base_version;
  header.weight = weight;
  const std::vector<std::uint8_t> payload = encode_uplink(header, model);
  if (payload.size() + 1 > fed::kMaxFrameBytes)
    throw TransportError("serve client: uplink too large");

  for (std::size_t attempt = 1;; ++attempt) {
    try {
      const ResumeReply session = ensure_session();
      if (session.version > base_version) {
        // The server committed past this uplink's base while we were
        // disconnected — either our earlier send landed (first-arrival
        // dedup would discard a re-send anyway) or the round closed
        // without us. Re-sending a stale-beyond-window update would only
        // burn bandwidth to be screened, so report "obsolete" and let the
        // caller fetch the new model.
        return false;
      }
      const std::vector<std::uint8_t> ack =
          request(kUplinkDirection, payload);
      if (ack.size() != 1 || ack[0] != 0)
        throw TransportError("serve client: uplink rejected");
      return true;
    } catch (const TransportError&) {
      // We cannot tell whether the uplink landed before the fault; the
      // server's first-arrival dedup makes the re-send idempotent, so
      // always retry delivery.
      close_socket();
      if (attempt >= config_.max_attempts) throw;
      ++retries_;
      backoff(attempt);
    }
  }
}

}  // namespace fedpower::serve
