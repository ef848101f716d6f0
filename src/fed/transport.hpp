// Transport abstraction between federated clients and the aggregation
// server, plus the length-prefixed frame format every socket path speaks.
// The library ships an in-process implementation that moves payload bytes,
// keeps per-direction traffic statistics (the paper reports 2.8 kB per
// transfer, §IV-C) and models transmission latency. Real sockets carry the
// same payloads through the serve stack (serve/epoll_server.hpp on the
// server, serve/client.hpp on the device), framed by the helpers below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace fedpower::fed {

/// Connection-level delivery failure: peer closed, timeout, exhausted
/// reconnect attempts, or an injected fault. The federation layers catch
/// this per client and drop that client from the round; it must never kill
/// the process.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Direction {
  kUplink,    ///< client -> server (local model upload)
  kDownlink,  ///< server -> client (global model broadcast)
};

struct TrafficStats {
  std::size_t uplink_transfers = 0;
  std::size_t uplink_bytes = 0;
  std::size_t downlink_transfers = 0;
  std::size_t downlink_bytes = 0;
  /// Reconnect/retry attempts the transport made to deliver transfers
  /// (0 for transports that cannot fail).
  std::size_t retries = 0;
  double total_latency_s = 0.0;

  std::size_t total_bytes() const noexcept {
    return uplink_bytes + downlink_bytes;
  }
  std::size_t total_transfers() const noexcept {
    return uplink_transfers + downlink_transfers;
  }
  /// Mean payload size per transfer, in bytes.
  double mean_transfer_bytes() const noexcept {
    const std::size_t n = total_transfers();
    return n > 0 ? static_cast<double>(total_bytes()) /
                       static_cast<double>(n)
                 : 0.0;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Delivers the payload in the given direction and returns it as received.
  virtual std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) = 0;

  virtual const TrafficStats& stats() const noexcept = 0;

  /// Total simulated latency this link has accumulated, in seconds.
  /// Decorators that add latency of their own (e.g. fault-injected delays)
  /// override this to include it, so per-round deadline accounting sees
  /// the latency a real client would: the federation measures the delta of
  /// this value around each transfer. Transfers are serial in client-index
  /// order, so the delta is exactly one client's share even on a shared
  /// link.
  virtual double cumulative_latency_s() const noexcept {
    return stats().total_latency_s;
  }
};

/// Serializes v into out[0..3] little-endian, independent of host order.
void store_u32_le(std::uint32_t v, std::uint8_t* out) noexcept;

/// Reads a little-endian u32 from in[0..3].
std::uint32_t load_u32_le(const std::uint8_t* in) noexcept;

/// Builds a complete wire frame: u32 LE length of (direction byte +
/// payload), the direction byte (0 = uplink, 1 = downlink), the payload.
std::vector<std::uint8_t> encode_frame(Direction direction,
                                       std::span<const std::uint8_t> payload);

/// Largest frame either side will accept (protocol sanity bound).
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024 * 1024;

/// Lossless in-process delivery with traffic accounting and a linear
/// latency model (fixed per-message cost plus bytes / bandwidth).
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(double base_latency_s = 0.002,
                              double bandwidth_bytes_per_s = 1.25e6);

  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override;

  const TrafficStats& stats() const noexcept override { return stats_; }

  void reset_stats() noexcept { stats_ = TrafficStats{}; }

 private:
  double base_latency_s_;
  double bandwidth_bytes_per_s_;
  TrafficStats stats_;
};

}  // namespace fedpower::fed
