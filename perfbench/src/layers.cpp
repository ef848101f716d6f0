#include "layers.hpp"

#include <atomic>
#include <memory>

#include "trace.hpp"

namespace perfbench {

sim::TelemetrySample TimedDevice::run_interval(double dt_s) {
  const std::uint64_t allocs = thread_allocs();
  const std::uint64_t start = now_ns();
  sim::TelemetrySample sample = inner_->run_interval(dt_s);
  counters_.ns += now_ns() - start;
  counters_.allocs += thread_allocs() - allocs;
  ++counters_.calls;
  return sample;
}

void TimedClient::receive_global(std::span<const double> params) {
  if (!trace::enabled()) {
    inner_->receive_global(params);
    return;
  }
  const Scope span(Kind::kReceiveGlobal);
  if (fleet_ != nullptr && !fleet_->hot(device_index_)) {
    // Hydration is idempotent: doing it here, timed, instead of inside
    // the lazy proxy's first forward changes nothing the device computes.
    const Scope hydrate(Kind::kHydrate);
    fleet_->hydrate(device_index_);
  }
  inner_->receive_global(params);
}

std::vector<double> TimedClient::local_parameters() const {
  const Scope span(Kind::kLocalParams);
  return inner_->local_parameters();
}

void TimedClient::run_local_round() {
  const Scope span(Kind::kLocalRound);
  const std::uint64_t start = now_ns();
  if (controller_ != nullptr && trace::enabled()) {
    const std::size_t steps = controller_->config().steps_per_round;
    for (std::size_t t = 0; t < steps; ++t) {
      const std::size_t updates = controller_->agent().update_count();
      const DeviceCounters sim_before = device_->counters();
      const std::uint64_t allocs = thread_allocs();
      const std::uint64_t step_start = now_ns();
      controller_->step();
      const std::uint64_t ns = now_ns() - step_start;
      const std::uint64_t step_allocs = thread_allocs() - allocs;
      const DeviceCounters& sim = device_->counters();
      const std::uint64_t own_ns = ns - (sim.ns - sim_before.ns);
      const std::uint64_t own_allocs =
          step_allocs - (sim.allocs - sim_before.allocs);
      if (controller_->agent().update_count() != updates) {
        ++steps_.train_steps;
        steps_.train_ns += own_ns;
        steps_.train_allocs += own_allocs;
      } else {
        ++steps_.act_steps;
        steps_.act_ns += own_ns;
        steps_.act_allocs += own_allocs;
      }
    }
  } else {
    inner_->run_local_round();
  }
  last_local_round_ns_ = now_ns() - start;
}

std::vector<std::uint8_t> TimedCodec::encode(
    std::span<const double> params) const {
  Scope span(Kind::kEncode);
  std::vector<std::uint8_t> payload = inner_.encode(params);
  span.set_value(payload.size());
  return payload;
}

std::vector<double> TimedCodec::decode(
    std::span<const std::uint8_t> payload) const {
  Scope span(Kind::kDecode);
  span.set_value(payload.size());
  return inner_.decode(payload);
}

std::vector<std::uint8_t> TimedTransport::transfer(
    fed::Direction direction, std::vector<std::uint8_t> payload) {
  Scope span(Kind::kTransfer);
  span.set_value(payload.size());
  return inner_->transfer(direction, std::move(payload));
}

util::ParallelFor timed_executor(util::ParallelFor inner) {
  if (!inner) return inner;
  return [inner = std::move(inner)](
             std::size_t n, const std::function<void(std::size_t)>& body) {
    Scope phase(Kind::kParallel);
    std::atomic<std::uint64_t> busy_ns{0};
    const std::uint64_t parent = phase.id();
    inner(n, [&](std::size_t i) {
      const ParentScope inherit(parent);
      const std::uint64_t start = now_ns();
      body(i);
      busy_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
    });
    phase.set_value(busy_ns.load());
  };
}

}  // namespace perfbench
