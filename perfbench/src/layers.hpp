// Decorators around the public interfaces the program already accepts:
// sim::CpuDevice, fed::FederatedClient, fed::ModelCodec, fed::Transport
// and the util::ParallelFor executor. Each forwards every call unchanged
// (so a decorated run is bit-identical to a plain one) and measures the
// call from outside: a span per call when tracing is on, plain counters
// where a span per call would cost more than the call itself.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "fed/codec.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/device.hpp"
#include "util/executor.hpp"

namespace perfbench {

namespace core = fedpower::core;
namespace fed = fedpower::fed;
namespace runtime = fedpower::runtime;
namespace sim = fedpower::sim;
namespace util = fedpower::util;

/// Per-device simulator counters (one writer: the device's training task).
struct DeviceCounters {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t allocs = 0;
};

/// Counts and times run_interval; every other call forwards.
class TimedDevice final : public sim::CpuDevice {
 public:
  explicit TimedDevice(sim::CpuDevice* inner) noexcept : inner_(inner) {}

  void set_level(std::size_t level) override { inner_->set_level(level); }
  std::size_t level() const override { return inner_->level(); }
  sim::TelemetrySample run_interval(double dt_s) override;
  const sim::VfTable& vf_table() const override {
    return inner_->vf_table();
  }

  const DeviceCounters& counters() const noexcept { return counters_; }

 private:
  sim::CpuDevice* inner_;
  DeviceCounters counters_;
};

/// Controller steps split by whether the step ran a training update
/// (agent().update_count() moved), simulator time and allocations taken
/// out.
struct StepCounters {
  std::uint64_t train_steps = 0;
  std::uint64_t train_ns = 0;
  std::uint64_t train_allocs = 0;
  std::uint64_t act_steps = 0;
  std::uint64_t act_ns = 0;
  std::uint64_t act_allocs = 0;
};

/// Wraps one federated client. Always times run_local_round (the
/// per-participant uplink latency of the paper and fleet workloads). With
/// tracing on it also records a span per client call, times hydration of
/// a cold lazy-fleet device, and — when a controller and its TimedDevice
/// are attached — runs the local round as steps_per_round calls of the
/// public PowerController::step() so each step can be split into rl and
/// sim time (run_local_round is exactly that loop).
class TimedClient final : public fed::FederatedClient {
 public:
  explicit TimedClient(fed::FederatedClient* inner) noexcept
      : inner_(inner) {}

  /// Per-step split (paper workload, traced run).
  void attach_controller(core::PowerController* controller,
                         const TimedDevice* device) noexcept {
    controller_ = controller;
    device_ = device;
  }
  /// Hydration timing (fleet workload).
  void attach_fleet(runtime::FleetRuntime* fleet,
                    std::size_t device) noexcept {
    fleet_ = fleet;
    device_index_ = device;
  }

  void receive_global(std::span<const double> params) override;
  std::vector<double> local_parameters() const override;
  void run_local_round() override;
  std::size_t local_sample_count() const override {
    return inner_->local_sample_count();
  }

  /// Wall time of the latest local round (ns).
  std::uint64_t last_local_round_ns() const noexcept {
    return last_local_round_ns_;
  }
  const StepCounters& steps() const noexcept { return steps_; }

 private:
  fed::FederatedClient* inner_;
  core::PowerController* controller_ = nullptr;
  const TimedDevice* device_ = nullptr;
  runtime::FleetRuntime* fleet_ = nullptr;
  std::size_t device_index_ = 0;
  std::uint64_t last_local_round_ns_ = 0;
  StepCounters steps_;
};

/// Span per encode/decode, valued with the payload size. Thread-safe (the
/// serve workers decode concurrently).
class TimedCodec final : public fed::ModelCodec {
 public:
  explicit TimedCodec(const fed::ModelCodec& inner) noexcept
      : inner_(inner) {}

  std::vector<std::uint8_t> encode(
      std::span<const double> params) const override;
  std::vector<double> decode(
      std::span<const std::uint8_t> payload) const override;
  std::size_t payload_size(std::size_t param_count) const override {
    return inner_.payload_size(param_count);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const fed::ModelCodec& inner_;
};

/// Span per transfer, valued with the payload size.
class TimedTransport final : public fed::Transport {
 public:
  explicit TimedTransport(fed::Transport* inner) noexcept : inner_(inner) {}

  std::vector<std::uint8_t> transfer(
      fed::Direction direction, std::vector<std::uint8_t> payload) override;
  const fed::TrafficStats& stats() const noexcept override {
    return inner_->stats();
  }
  double cumulative_latency_s() const noexcept override {
    return inner_->cumulative_latency_s();
  }

 private:
  fed::Transport* inner_;
};

/// A ParallelFor that records one runtime.parallel span per call (valued
/// with the summed busy time of its items) and makes that span the parent
/// of whatever the items record. An empty executor stays empty: the
/// serial fallback of the library is not a parallel phase.
util::ParallelFor timed_executor(util::ParallelFor inner);

}  // namespace perfbench
