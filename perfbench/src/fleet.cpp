// Lazy-fleet driver: the objects and call order of core::run_federated for
// a clean lazy fleet without evaluation, plus periodic in-memory FPCK
// snapshots of fleet and server.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "ckpt/binary_io.hpp"
#include "ckpt/snapshot.hpp"
#include "drivers.hpp"
#include "fed/defense.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/splash2.hpp"
#include "trace.hpp"

namespace perfbench {

namespace ckpt = fedpower::ckpt;

std::vector<std::vector<sim::AppProfile>> fleet_apps(std::size_t devices) {
  const std::vector<sim::AppProfile> suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps(devices);
  for (std::size_t d = 0; d < devices; ++d)
    apps[d].push_back(suite[d % suite.size()]);
  return apps;
}

FleetOutcome run_fleet(
    const core::ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    std::size_t snapshot_every, Samples& samples) {
  if (!config.lazy_fleet || config.faults.any() || config.chaos.enabled ||
      config.serve.enabled || config.defense.enabled ||
      config.deadline_s > 0.0 || config.checkpoint.every_rounds != 0)
    throw std::invalid_argument(
        "run_fleet reproduces only the clean lazy-fleet protocol");
  const bool traced = trace::enabled();
  const std::uint64_t setup_start = now_ns();

  runtime::FleetRuntime fleet(
      {config.controller}, config.processor, device_apps, config.seed,
      runtime::FleetOptions{config.num_threads, /*lazy=*/true});
  const std::vector<fed::FederatedClient*> proxies = fleet.clients();
  std::vector<TimedClient> clients;
  clients.reserve(proxies.size());
  std::vector<fed::FederatedClient*> client_ptrs;
  client_ptrs.reserve(proxies.size());
  for (std::size_t d = 0; d < proxies.size(); ++d) {
    clients.emplace_back(proxies[d]);
    clients.back().attach_fleet(&fleet, d);
  }
  for (TimedClient& client : clients) client_ptrs.push_back(&client);

  fed::InProcessTransport transport;
  TimedTransport timed_transport(&transport);
  const TimedCodec timed_codec(fed::Float32Codec::instance());
  fed::FederatedAveraging server(
      client_ptrs, traced ? static_cast<fed::Transport*>(&timed_transport)
                          : &transport,
      config.aggregation, traced ? &timed_codec : nullptr);
  server.set_local_executor(traced ? timed_executor(fleet.executor())
                                   : fleet.executor());
  server.enable_defense(config.defense);
  server.set_sampling(config.sampling);
  server.set_quorum(config.quorum);
  server.initialize(fleet.controller(0).local_parameters());
  samples.setup_s.push_back(static_cast<double>(now_ns() - setup_start) *
                            1e-9);

  FleetOutcome outcome;
  std::vector<std::uint8_t> payload;    // latest snapshot, checked below
  std::vector<std::uint8_t> container;
  const std::uint64_t loop_start = now_ns();
  for (std::size_t round = 0; round < config.rounds; ++round) {
    trace::set_round(samples.next_round_id++);
    const Scope round_span(Kind::kRound);
    std::optional<fed::RoundResult> committed;
    while (!committed) {
      ++samples.attempted;
      const std::uint64_t start = now_ns();
      try {
        const Scope span(Kind::kRunRound);
        committed = server.run_round();
      } catch (const fed::QuorumError&) {
        ++samples.failed;  // run_federated retries an aborted round
        continue;
      }
      samples.round_ms.push_back(static_cast<double>(now_ns() - start) *
                                 1e-6);
      if (fed::any_non_finite(server.global_model())) ++samples.failed;
    }
    const std::vector<std::size_t>& participants = committed->participants;
    outcome.dropped += committed->dropped.size();
    for (const std::size_t i : participants)
      if (!std::binary_search(committed->dropped.begin(),
                              committed->dropped.end(), i))
        samples.uplink_us.push_back(
            static_cast<double>(clients[i].last_local_round_ns()) * 1e-3);
    const std::size_t survivors =
        participants.size() - committed->dropped.size();
    samples.uplinks += survivors;
    samples.device_steps += survivors * config.controller.steps_per_round;
    if (traced)
      samples.hot_devices_peak =
          std::max<std::uint64_t>(samples.hot_devices_peak, fleet.hot_count());
    {
      const Scope span(Kind::kDehydrate);
      fleet.dehydrate_inactive(participants);
    }
    if (fleet.hot_count() > participants.size()) ++outcome.hot_over_sample;
    if (snapshot_every > 0 && round % snapshot_every == 0) {
      Scope span(Kind::kSnapshot);
      ckpt::Writer out;
      fleet.save_state(out);
      server.save_state(out);
      container = ckpt::encode_snapshot(out.data());
      payload = out.take();
      span.set_value(container.size());
      ++outcome.snapshots;
    }
  }
  samples.timed_s += static_cast<double>(now_ns() - loop_start) * 1e-9;
  samples.rounds += config.rounds;
  if (!container.empty())
    outcome.snapshots_valid = ckpt::decode_snapshot(container) == payload;
  outcome.global_params = server.global_model();
  return outcome;
}

}  // namespace perfbench
