// Serve workload: ShardedServer (deterministic commit, 2 workers) behind
// the EpollFrontEnd, driven over real loopback sockets by one closed-loop
// generator: a gateway of spec.in_flight persistent connections, each
// carrying one client session at a time (resume, fetch, upload, ack). The
// same thread is the round driver: once a round's sessions are acked it
// polls EpollFrontEnd::round_distinct() until the full draw shows (it
// cannot see the verdicts behind the acks, as a real driver cannot), then
// commits with commit_then_begin.
//
// Why persistent connections: with a connect/close per session, the close
// after the round's last ack is one more socket event that wakes the
// epoll loop, and whether the last worker verdict has landed by then is a
// race whose odds follow the host's wake-up latencies. The share of rounds
// that stall on the loop's 50 ms idle timeout then drifts between runs
// (1-23 % on a 4-core host), so round latency and throughput cannot be
// measured steadily. On a persistent connection the last ack is the
// round's last event, and the stall shows on most rounds.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "drivers.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace serve = fedpower::serve;

namespace {

constexpr int kPollTimeoutMs = 2000;
constexpr double kDrawTimeoutS = 5.0;
constexpr std::size_t kMaxFailuresPerRound = 64;

enum class Step { kConnect, kResume, kFetch, kUpload, kDone };

/// One gateway connection and the client session it is carrying.
struct Session {
  std::size_t slot = 0;       ///< index into the round's participants
  std::uint32_t client = 0;
  bool busy = false;          ///< carrying a session
  int fd = -1;
  Step step = Step::kDone;
  std::vector<std::uint8_t> out;
  std::size_t out_offset = 0;
  std::vector<std::uint8_t> in;
  std::uint64_t start_ns = 0;
  std::uint64_t phase_ns = 0;  ///< fetch / upload request written
  std::uint64_t version = 0;

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    if (fd >= 0) ::close(fd);
  }
};

/// Non-blocking connect to the loopback listener; -1 on failure.
int open_socket(std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Writes as much of the pending output as the socket takes; false on a
/// socket error.
bool flush(Session& s) {
  while (s.out_offset < s.out.size()) {
    const ssize_t n = ::send(s.fd, s.out.data() + s.out_offset,
                             s.out.size() - s.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    s.out_offset += static_cast<std::size_t>(n);
  }
  return true;
}

void queue(Session& s, std::uint8_t direction,
           std::span<const std::uint8_t> payload) {
  s.out = serve::encode_serve_frame(direction, payload);
  s.out_offset = 0;
}

/// Reads what the socket has; returns the next complete reply payload
/// (direction checked) once one is buffered. `error` is set on EOF, a
/// socket error or a malformed reply.
std::optional<std::vector<std::uint8_t>> read_reply(Session& s,
                                                    std::uint8_t direction,
                                                    bool& error) {
  std::uint8_t buf[8192];
  for (;;) {
    const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
    if (n > 0) {
      s.in.insert(s.in.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      error = true;  // peer closed
      break;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) error = true;
    break;
  }
  if (s.in.size() < 4) return std::nullopt;
  const std::uint32_t length = fed::load_u32_le(s.in.data());
  if (length == 0 || length > fed::kMaxFrameBytes) {
    error = true;
    return std::nullopt;
  }
  if (s.in.size() < 4 + static_cast<std::size_t>(length))
    return std::nullopt;
  if (s.in[4] != direction) {
    error = true;
    return std::nullopt;
  }
  std::vector<std::uint8_t> payload(s.in.begin() + 5,
                                    s.in.begin() + 4 + length);
  s.in.erase(s.in.begin(), s.in.begin() + 4 + length);
  error = false;
  return payload;
}

/// The model a client uploads: the fetched global plus a client- and
/// round-specific step along a fixed direction, as float32.
void make_upload(std::span<const float> global, std::span<const float> dir,
                 std::uint64_t seed, std::uint64_t round, std::uint32_t client,
                 std::span<float> out) {
  std::uint64_t h =
      seed ^ (round * 0x9e3779b97f4a7c15ULL) ^
      (static_cast<std::uint64_t>(client) * 0xbf58476d1ce4e5b9ULL);
  const double u = static_cast<double>(util::splitmix64(h) >> 11) * 0x1.0p-53;
  const double scale = (u - 0.5) * 0.02;
  for (std::size_t i = 0; i < global.size(); ++i)
    out[i] = static_cast<float>(static_cast<double>(global[i]) +
                                scale * static_cast<double>(dir[i]));
}

/// One set-up: server plus front end (listener bound, threads started).
struct ServeStack {
  std::unique_ptr<serve::ShardedServer> server;
  std::unique_ptr<serve::EpollFrontEnd> front;
};

ServeStack set_up(const ServeSpec& spec, const fed::ModelCodec* codec,
                  const std::vector<double>& initial) {
  ServeStack stack;
  serve::ServeConfig config;
  config.workers = spec.workers;
  config.mode = serve::CommitMode::kDeterministic;
  stack.server =
      std::make_unique<serve::ShardedServer>(spec.population, config, codec);
  stack.server->initialize(initial);
  stack.front = std::make_unique<serve::EpollFrontEnd>(stack.server.get());
  return stack;
}

}  // namespace

void run_serve(const ServeSpec& spec, std::uint64_t seed, double seconds,
               std::size_t warmup_rounds, std::size_t block_rounds,
               Samples& samples, ServeCounters& counters) {
  const bool traced = trace::enabled();
  const TimedCodec timed_codec(fed::Float32Codec::instance());
  const fed::ModelCodec* codec =
      traced ? static_cast<const fed::ModelCodec*>(&timed_codec)
             : &fed::Float32Codec::instance();

  // Inputs: the initial model and the fixed upload direction, float32
  // values so every encode/decode round trip is exact.
  util::Rng rng(seed);
  std::vector<double> initial(spec.model_params);
  std::vector<float> direction(spec.model_params);
  for (std::size_t i = 0; i < spec.model_params; ++i) {
    initial[i] = static_cast<double>(static_cast<float>(rng.uniform() - 0.5));
    direction[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  std::vector<std::uint32_t> population(spec.population);
  std::iota(population.begin(), population.end(), 0U);
  const auto draw = [&] {
    rng.shuffle(population);
    const auto sampled = static_cast<std::ptrdiff_t>(spec.sampled);
    std::vector<std::size_t> picked(population.begin(),
                                    population.begin() + sampled);
    std::sort(picked.begin(), picked.end());
    return picked;
  };

  // Set-up is timed several times (the median is reported); only the last
  // stack serves.
  constexpr int kSetups = 15;
  ServeStack stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.front.reset();  // the front end holds the server: stop it first
    stack.server.reset();
    const std::uint64_t start = now_ns();
    stack = set_up(spec, codec, initial);
    samples.setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  serve::EpollFrontEnd& front = *stack.front;
  serve::ShardedServer& server = *stack.server;
  const std::uint16_t port = front.port();

  // The gateway: spec.in_flight persistent connections, each carrying one
  // client session at a time (connected on first use).
  std::vector<std::unique_ptr<Session>> gateway;
  for (std::size_t k = 0; k < spec.in_flight; ++k)
    gateway.push_back(std::make_unique<Session>());

  std::vector<std::size_t> participants = draw();
  front.begin_round(participants);
  std::vector<float> expected_next;  ///< float32 mean of last round's uploads
  std::vector<float> uploads(spec.sampled * spec.model_params);
  const std::size_t model_bytes = codec->payload_size(spec.model_params);

  const std::uint64_t phase_start = now_ns();
  std::uint64_t timed_start = 0;
  std::uint64_t round_start = now_ns();
  for (std::size_t round = 0;; ++round) {
    const bool timed = round >= warmup_rounds;
    if (round == warmup_rounds) {
      timed_start = now_ns();
      round_start = timed_start;
    }
    if (timed && static_cast<double>(now_ns() - timed_start) * 1e-9 >= seconds)
      break;
    if (timed && (round - warmup_rounds) % block_rounds == 0)
      samples.begin_block();
    if (static_cast<double>(now_ns() - phase_start) * 1e-9 > seconds + 60.0)
      throw std::runtime_error("serve: phase overran its budget");
    trace::set_round(samples.next_round_id++);
    const std::uint64_t round_span = timed ? trace::open(Kind::kRound) : 0;

    // Closed loop over the round's participants, one session per gateway
    // connection at a time.
    std::size_t next = 0;
    std::size_t done = 0;
    std::size_t failures = 0;
    std::vector<std::size_t> retry;
    std::uint64_t last_ack_ns = 0;
    const auto start_session = [&](Session& s) {
      if (!retry.empty()) {
        s.slot = retry.back();
        retry.pop_back();
      } else {
        s.slot = next++;
      }
      s.client = static_cast<std::uint32_t>(participants[s.slot]);
      s.busy = true;
      s.start_ns = now_ns();
      if (timed) ++counters.sessions;
      if (s.fd < 0) {  // reconnect after a broken session
        s.fd = open_socket(port);
        if (s.fd < 0) throw std::runtime_error("serve: cannot open socket");
        s.step = Step::kConnect;
        return;
      }
      serve::ResumeRequest request;
      request.client = s.client;
      queue(s, serve::kResumeDirection, serve::encode_resume_request(request));
      s.step = Step::kResume;
    };
    while (done < spec.sampled) {
      for (auto& s : gateway)
        if (!s->busy && (next < spec.sampled || !retry.empty()))
          start_session(*s);
      std::vector<pollfd> fds(gateway.size());
      for (std::size_t k = 0; k < gateway.size(); ++k) {
        const Session& s = *gateway[k];
        fds[k].fd = s.busy ? s.fd : -1;
        fds[k].events = static_cast<short>(
            POLLIN | (s.out_offset < s.out.size() || s.step == Step::kConnect
                          ? POLLOUT
                          : 0));
      }
      const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
      if (ready == 0) throw std::runtime_error("serve: sessions stalled");
      if (ready < 0 && errno != EINTR)
        throw std::runtime_error("serve: poll failed");
      for (std::size_t k = 0; k < gateway.size(); ++k) {
        if (fds[k].fd < 0 || fds[k].revents == 0) continue;
        Session& s = *gateway[k];
        bool error = (fds[k].revents & (POLLERR | POLLNVAL)) != 0;
        if (!error && s.step == Step::kConnect &&
            (fds[k].revents & POLLOUT) != 0) {
          int so_error = 0;
          socklen_t len = sizeof so_error;
          ::getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
          if (so_error != 0) {
            error = true;
          } else {
            serve::ResumeRequest request;
            request.client = s.client;
            queue(s, serve::kResumeDirection,
                  serve::encode_resume_request(request));
            s.step = Step::kResume;
          }
        }
        if (!error) error = !flush(s);
        while (!error && (fds[k].revents & (POLLIN | POLLHUP)) != 0 &&
               s.step != Step::kDone) {
          const std::uint8_t want =
              s.step == Step::kResume ? serve::kResumeDirection
              : s.step == Step::kFetch ? serve::kFetchDirection
                                       : serve::kUplinkDirection;
          auto reply = read_reply(s, want, error);
          if (!reply) break;
          if (s.step == Step::kResume) {
            serve::ResumeReply r;
            if (!serve::decode_resume_reply(*reply, r)) {
              error = true;
              break;
            }
            queue(s, serve::kFetchDirection, {});
            s.phase_ns = now_ns();
            s.step = Step::kFetch;
          } else if (s.step == Step::kFetch) {
            if (timed)
              trace::record(Kind::kFetch, s.phase_ns, now_ns(), 0, round_span);
            if (reply->size() != 8 + model_bytes) {
              error = true;
              break;
            }
            s.version = serve::load_u64_le(reply->data());
            const std::vector<double> fetched =
                codec->decode(std::span(*reply).subspan(8));
            const std::vector<float> global(fetched.begin(), fetched.end());
            if (!expected_next.empty() && global != expected_next)
              ++counters.rounds_mismatched;
            std::span<float> mine(uploads.data() + s.slot * spec.model_params,
                                  spec.model_params);
            make_upload(global, direction, seed, round, s.client, mine);
            const std::vector<double> as_double(mine.begin(), mine.end());
            const std::vector<std::uint8_t> model = codec->encode(as_double);
            serve::UplinkHeader header;
            header.client = s.client;
            header.base_version = s.version;
            header.weight = 1;
            queue(s, serve::kUplinkDirection,
                  serve::encode_uplink(header, model));
            s.phase_ns = now_ns();
            s.step = Step::kUpload;
            if (timed) ++counters.sent;
          } else {
            const std::uint64_t acked = now_ns();
            if (reply->size() != 1 || (*reply)[0] != 0) {
              error = true;
              break;
            }
            last_ack_ns = acked;
            if (timed) {
              trace::record(Kind::kUpload, s.phase_ns, acked, model_bytes,
                            round_span);
              trace::record(Kind::kSession, s.start_ns, acked, 0, round_span);
              samples.uplink_us.push_back(
                  static_cast<double>(acked - s.start_ns) * 1e-3);
              ++counters.acked;
              ++samples.uplinks;
            }
            s.step = Step::kDone;
          }
          if (!flush(s)) error = true;
        }
        if (error && s.step != Step::kDone) {
          // A broken session is a failure: the gateway reconnects and the
          // client runs its whole session again (the server dedups
          // re-sends).
          ++failures;
          if (timed) ++samples.failed;
          if (failures > kMaxFailuresPerRound)
            throw std::runtime_error("serve: too many broken sessions");
          retry.push_back(s.slot);
          ::close(s.fd);
          s.fd = -1;
          s.in.clear();
          s.out.clear();
          s.out_offset = 0;
          s.busy = false;
          s.step = Step::kDone;
          continue;
        }
        if (s.step == Step::kDone) {
          s.busy = false;
          ++done;
        }
      }
    }
    if (timed) samples.attempted += spec.sampled + failures;

    // Round driver: wait for the full draw to show, then commit.
    std::uint64_t seen_ns = now_ns();
    while (front.round_distinct() < spec.sampled) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      seen_ns = now_ns();
      if (static_cast<double>(seen_ns - last_ack_ns) * 1e-9 > kDrawTimeoutS)
        throw std::runtime_error("serve: full draw never arrived");
    }
    if (timed) {
      counters.commit_wait_ms.push_back(
          static_cast<double>(seen_ns - last_ack_ns) * 1e-6);
      trace::record(Kind::kCommitWait, last_ack_ns, seen_ns, 0, round_span);
    }

    // The bench's own float32 mean of this round's uploads, in
    // client-index order (participants are sorted): the next fetch must
    // return exactly these bytes.
    const double inv_n = 1.0 / static_cast<double>(spec.sampled);
    expected_next.assign(spec.model_params, 0.0F);
    for (std::size_t i = 0; i < spec.model_params; ++i) {
      double sum = 0.0;
      for (std::size_t p = 0; p < spec.sampled; ++p)
        sum += static_cast<double>(uploads[p * spec.model_params + i]);
      expected_next[i] = static_cast<float>(sum * inv_n);
    }
    if (timed) ++counters.rounds_checked;

    std::vector<std::size_t> following = draw();
    const std::uint64_t commit_start = now_ns();
    const fed::RoundResult result =
        front.commit_then_begin(spec.sampled, following);
    const std::uint64_t committed = now_ns();
    participants = std::move(following);
    if (timed) {
      trace::record(Kind::kCommit, commit_start, committed, 0, round_span);
      trace::close(round_span);
      samples.round_ms.push_back(
          static_cast<double>(committed - round_start) * 1e-6);
      ++samples.rounds;
      counters.accepted += result.effective_clients();
    }
    round_start = committed;
  }
  samples.timed_s += static_cast<double>(now_ns() - timed_start) * 1e-9;
  counters.protocol_errors += front.protocol_errors();
  counters.deferred += server.stats().deferred;
  front.stop();
}

}  // namespace perfbench
