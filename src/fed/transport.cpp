#include "fed/transport.hpp"

namespace fedpower::fed {

void store_u32_le(std::uint32_t v, std::uint8_t* out) noexcept {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t load_u32_le(const std::uint8_t* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::vector<std::uint8_t> encode_frame(
    Direction direction, std::span<const std::uint8_t> payload) {
  const auto frame_len = static_cast<std::uint32_t>(payload.size() + 1);
  std::vector<std::uint8_t> frame(sizeof frame_len);
  frame.reserve(sizeof frame_len + frame_len);
  store_u32_le(frame_len, frame.data());
  frame.push_back(direction == Direction::kUplink ? 0 : 1);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

InProcessTransport::InProcessTransport(double base_latency_s,
                                       double bandwidth_bytes_per_s)
    : base_latency_s_(base_latency_s),
      bandwidth_bytes_per_s_(bandwidth_bytes_per_s) {
  FEDPOWER_EXPECTS(base_latency_s >= 0.0);
  FEDPOWER_EXPECTS(bandwidth_bytes_per_s > 0.0);
}

std::vector<std::uint8_t> InProcessTransport::transfer(
    Direction direction, std::vector<std::uint8_t> payload) {
  const std::size_t bytes = payload.size();
  if (direction == Direction::kUplink) {
    ++stats_.uplink_transfers;
    stats_.uplink_bytes += bytes;
  } else {
    ++stats_.downlink_transfers;
    stats_.downlink_bytes += bytes;
  }
  stats_.total_latency_s +=
      base_latency_s_ + static_cast<double>(bytes) / bandwidth_bytes_per_s_;
  return payload;
}

}  // namespace fedpower::fed
