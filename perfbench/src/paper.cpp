// Paper-protocol driver: the objects and call order of core::run_federated
// for an eager, serial fleet with per-round greedy evaluation.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/evaluate.hpp"
#include "drivers.hpp"
#include "fed/defense.hpp"
#include "runtime/fleet_runtime.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

// core::run_federated's per-(round, device) evaluation seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xbf58476d1ce4e5b9ULL);
  return util::splitmix64(s);
}

// core::run_federated's evaluator: nominal silicon, the controller's
// DVFS interval.
core::Evaluator make_evaluator(const core::ExperimentConfig& config) {
  core::EvalConfig eval = config.eval;
  eval.processor = config.processor;
  eval.processor.power.variation = 1.0;
  eval.dvfs_interval_s = config.controller.dvfs_interval_s;
  return core::Evaluator(config.controller, eval);
}

}  // namespace

PaperOutcome run_paper(
    const core::ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    const std::vector<sim::AppProfile>& eval_apps, Samples& samples) {
  if (config.num_threads != 1 || config.lazy_fleet || config.faults.any() ||
      config.chaos.enabled || config.serve.enabled ||
      config.defense.enabled || config.deadline_s > 0.0 ||
      config.checkpoint.every_rounds != 0 || eval_apps.empty())
    throw std::invalid_argument(
        "run_paper reproduces only the serial, clean, evaluated protocol");
  const bool traced = trace::enabled();
  const std::uint64_t setup_start = now_ns();

  // FleetRuntime's eager construction: canonical hardware split, one
  // controller per device on the brain stream. The simulator sits behind
  // a TimedDevice when tracing.
  util::Rng root(config.seed);
  std::vector<runtime::DeviceHardware> hardware =
      runtime::make_hardware(config.processor, device_apps, root);
  const std::size_t n = hardware.size();
  std::vector<std::unique_ptr<TimedDevice>> devices;
  std::vector<std::unique_ptr<core::PowerController>> controllers;
  std::vector<std::unique_ptr<TimedClient>> clients;
  std::vector<fed::FederatedClient*> client_ptrs;
  for (std::size_t d = 0; d < n; ++d) {
    sim::CpuDevice* device = hardware[d].processor.get();
    if (traced) {
      devices.push_back(std::make_unique<TimedDevice>(device));
      device = devices.back().get();
    }
    controllers.push_back(std::make_unique<core::PowerController>(
        config.controller, device, hardware[d].brain_rng));
    clients.push_back(std::make_unique<TimedClient>(controllers.back().get()));
    if (traced)
      clients.back()->attach_controller(controllers.back().get(),
                                        devices.back().get());
    client_ptrs.push_back(clients.back().get());
  }

  fed::InProcessTransport transport;
  TimedTransport timed_transport(&transport);
  const TimedCodec timed_codec(fed::Float32Codec::instance());
  fed::FederatedAveraging server(
      client_ptrs, traced ? static_cast<fed::Transport*>(&timed_transport)
                          : &transport,
      config.aggregation, traced ? &timed_codec : nullptr);
  server.enable_defense(config.defense);
  server.set_sampling(config.sampling);
  server.set_quorum(config.quorum);
  server.initialize(controllers.front()->local_parameters());
  const core::Evaluator evaluator = make_evaluator(config);
  samples.setup_s.push_back(static_cast<double>(now_ns() - setup_start) *
                            1e-9);

  PaperOutcome outcome;
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
    std::size_t dropped = 0;
    for (const std::size_t i : committed->participants) {
      if (std::binary_search(committed->dropped.begin(),
                             committed->dropped.end(), i)) {
        ++dropped;
        continue;
      }
      samples.uplink_us.push_back(
          static_cast<double>(clients[i]->last_local_round_ns()) * 1e-3);
    }
    samples.uplinks += committed->participants.size() - dropped;
    samples.device_steps += (committed->participants.size() - dropped) *
                            config.controller.steps_per_round;

    const Scope eval_span(Kind::kEval);
    const sim::AppProfile& app = eval_apps[round % eval_apps.size()];
    util::RunningStats reward;
    for (std::size_t d = 0; d < n; ++d) {
      const core::PolicyFn policy =
          evaluator.neural_policy(server.global_model());
      reward.add(evaluator.run_episode(policy, app,
                                       mix_seed(config.seed, round, d))
                     .mean_reward);
    }
    outcome.fleet_reward.push_back(reward.mean());
  }
  samples.timed_s += static_cast<double>(now_ns() - loop_start) * 1e-9;
  samples.rounds += config.rounds;
  if (traced)
    for (std::size_t d = 0; d < n; ++d) {
      const StepCounters& s = clients[d]->steps();
      samples.steps.train_steps += s.train_steps;
      samples.steps.train_ns += s.train_ns;
      samples.steps.train_allocs += s.train_allocs;
      samples.steps.act_steps += s.act_steps;
      samples.steps.act_ns += s.act_ns;
      samples.steps.act_allocs += s.act_allocs;
      const DeviceCounters& c = devices[d]->counters();
      samples.sim.calls += c.calls;
      samples.sim.ns += c.ns;
      samples.sim.allocs += c.allocs;
    }
  outcome.global_params = server.global_model();
  return outcome;
}

double final_policy_reward(const core::ExperimentConfig& config,
                           const std::vector<double>& global,
                           std::size_t devices,
                           const std::vector<sim::AppProfile>& apps) {
  const core::Evaluator evaluator = make_evaluator(config);
  const core::PolicyFn policy = evaluator.neural_policy(global);
  util::RunningStats reward;
  for (std::size_t a = 0; a < apps.size(); ++a)
    for (std::size_t d = 0; d < devices; ++d)
      reward.add(evaluator
                     .run_episode(policy, apps[a],
                                  mix_seed(config.seed, config.rounds + a, d))
                     .mean_reward);
  return reward.mean();
}

}  // namespace perfbench
