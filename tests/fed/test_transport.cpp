#include "fed/transport.hpp"

#include <gtest/gtest.h>

namespace fedpower::fed {
namespace {

TEST(InProcessTransport, DeliversPayloadUnmodified) {
  InProcessTransport transport;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 255, 0};
  EXPECT_EQ(transport.transfer(Direction::kUplink, payload), payload);
}

TEST(InProcessTransport, CountsUplinkAndDownlinkSeparately) {
  InProcessTransport transport;
  transport.transfer(Direction::kUplink, std::vector<std::uint8_t>(100));
  transport.transfer(Direction::kUplink, std::vector<std::uint8_t>(50));
  transport.transfer(Direction::kDownlink, std::vector<std::uint8_t>(70));
  const TrafficStats& stats = transport.stats();
  EXPECT_EQ(stats.uplink_transfers, 2u);
  EXPECT_EQ(stats.uplink_bytes, 150u);
  EXPECT_EQ(stats.downlink_transfers, 1u);
  EXPECT_EQ(stats.downlink_bytes, 70u);
  EXPECT_EQ(stats.total_bytes(), 220u);
  EXPECT_EQ(stats.total_transfers(), 3u);
}

TEST(InProcessTransport, MeanTransferBytes) {
  InProcessTransport transport;
  transport.transfer(Direction::kUplink, std::vector<std::uint8_t>(100));
  transport.transfer(Direction::kDownlink, std::vector<std::uint8_t>(200));
  EXPECT_DOUBLE_EQ(transport.stats().mean_transfer_bytes(), 150.0);
}

TEST(InProcessTransport, MeanOfNoTransfersIsZero) {
  InProcessTransport transport;
  EXPECT_DOUBLE_EQ(transport.stats().mean_transfer_bytes(), 0.0);
}

TEST(InProcessTransport, LatencyModelAccumulates) {
  InProcessTransport transport(0.01, 1000.0);  // 10 ms + 1 kB/s
  transport.transfer(Direction::kUplink, std::vector<std::uint8_t>(500));
  EXPECT_NEAR(transport.stats().total_latency_s, 0.01 + 0.5, 1e-12);
  transport.transfer(Direction::kDownlink, std::vector<std::uint8_t>(1000));
  EXPECT_NEAR(transport.stats().total_latency_s, 0.51 + 1.01, 1e-12);
}

TEST(InProcessTransport, ResetStats) {
  InProcessTransport transport;
  transport.transfer(Direction::kUplink, std::vector<std::uint8_t>(10));
  transport.reset_stats();
  EXPECT_EQ(transport.stats().total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(transport.stats().total_latency_s, 0.0);
}

TEST(InProcessTransport, EmptyPayloadStillCountsTransfer) {
  InProcessTransport transport;
  transport.transfer(Direction::kUplink, {});
  EXPECT_EQ(transport.stats().uplink_transfers, 1u);
  EXPECT_EQ(transport.stats().uplink_bytes, 0u);
}

TEST(TcpFraming, GoldenBytesAreLittleEndian) {
  // Wire contract: u32 LE length of (direction byte + payload), then the
  // direction byte, then the payload — independent of host byte order.
  const std::vector<std::uint8_t> downlink =
      encode_frame(Direction::kDownlink, std::vector<std::uint8_t>{0xAA,
                                                                   0xBB});
  EXPECT_EQ(downlink, (std::vector<std::uint8_t>{0x03, 0x00, 0x00, 0x00,
                                                 0x01, 0xAA, 0xBB}));
  const std::vector<std::uint8_t> empty_uplink =
      encode_frame(Direction::kUplink, std::vector<std::uint8_t>{});
  EXPECT_EQ(empty_uplink,
            (std::vector<std::uint8_t>{0x01, 0x00, 0x00, 0x00, 0x00}));
}

TEST(TcpFraming, U32RoundTrip) {
  std::uint8_t bytes[4];
  store_u32_le(0x12345678u, bytes);
  EXPECT_EQ(bytes[0], 0x78);
  EXPECT_EQ(bytes[1], 0x56);
  EXPECT_EQ(bytes[2], 0x34);
  EXPECT_EQ(bytes[3], 0x12);
  EXPECT_EQ(load_u32_le(bytes), 0x12345678u);
  store_u32_le(0u, bytes);
  EXPECT_EQ(load_u32_le(bytes), 0u);
  store_u32_le(0xFFFFFFFFu, bytes);
  EXPECT_EQ(load_u32_le(bytes), 0xFFFFFFFFu);
}

TEST(InProcessTransportDeathTest, RejectsBadParameters) {
  EXPECT_DEATH(InProcessTransport(-1.0, 100.0), "precondition");
  EXPECT_DEATH(InProcessTransport(0.0, 0.0), "precondition");
}

}  // namespace
}  // namespace fedpower::fed
