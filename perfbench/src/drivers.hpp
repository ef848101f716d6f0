// The benchmark's workload drivers. Each builds the program's objects
// through public constructors, decorates the layer interfaces
// (layers.hpp) and runs the same call sequence as the program's own
// runner, so a run through a driver is bit-identical to the runner's
// (perfbench_test pins this for paper and fleet).
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "layers.hpp"

namespace perfbench {

/// What a driver measured, accumulated across the calls of one phase
/// (untraced or traced) of a run.
struct Samples {
  std::vector<double> setup_s;    ///< one entry per set-up
  std::vector<double> round_ms;   ///< one federated round, begin to commit
  std::vector<double> uplink_us;  ///< one participant's uplink latency
  std::uint64_t uplinks = 0;      ///< accepted uplinks
  std::uint64_t device_steps = 0; ///< training DVFS intervals
  double timed_s = 0.0;           ///< wall of the timed round loops
  std::uint64_t rounds = 0;       ///< round loop iterations timed
  std::uint64_t attempted = 0;    ///< operations tried (rounds/sessions)
  std::uint64_t failed = 0;       ///< operations that failed
  /// Start offsets into round_ms / uplink_us of each block (a workload
  /// repetition, or a run of serve rounds): latency percentiles are taken
  /// per block and reported as their median, so a host hiccup that hits
  /// one block does not move the run's figure.
  std::vector<std::size_t> round_blocks;
  std::vector<std::size_t> uplink_blocks;

  void begin_block() {
    round_blocks.push_back(round_ms.size());
    uplink_blocks.push_back(uplink_us.size());
  }

  // Counters only a traced phase fills.
  StepCounters steps;             ///< controller steps (paper)
  DeviceCounters sim;             ///< simulator intervals (paper)
  std::uint64_t hot_devices_peak = 0;  ///< fleet, after each round
  std::uint32_t next_round_id = 1;     ///< span round ids, unique per run
};

/// Outcome of one paper-protocol experiment.
struct PaperOutcome {
  std::vector<double> global_params;  ///< final global model
  std::vector<double> fleet_reward;   ///< greedy fleet reward per round
};

/// core::run_federated for an eager, serial, clean configuration with
/// per-round greedy evaluation (the paper's protocol), driven through the
/// decorated layers. Throws std::invalid_argument for configurations the
/// driver does not reproduce.
PaperOutcome run_paper(
    const core::ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    const std::vector<sim::AppProfile>& eval_apps, Samples& samples);

/// Greedy reward of a final global policy: the mean over every
/// application of `apps` and every device of one evaluation episode each
/// (seeded like run_federated's per-round evaluation, past the last round).
double final_policy_reward(const core::ExperimentConfig& config,
                           const std::vector<double>& global,
                           std::size_t devices,
                           const std::vector<sim::AppProfile>& apps);

/// Outcome of one lazy-fleet experiment.
struct FleetOutcome {
  std::vector<double> global_params;
  std::uint64_t dropped = 0;           ///< participants lost, all rounds
  std::uint64_t hot_over_sample = 0;   ///< rounds whose hot set after
                                       ///< dehydration exceeded the sample
  std::uint64_t snapshots = 0;
  bool snapshots_valid = true;         ///< the last container decodes back
};

/// core::run_federated for a clean lazy fleet without evaluation (the
/// fleet-scale shape: C-fraction sampling, dehydrate_inactive after every
/// round), plus an in-memory FPCK snapshot of fleet and server after
/// rounds 1, 1 + k, 1 + 2k, ... for k = `snapshot_every` (0 = none;
/// snapshots read state only, so the run's results do not depend on
/// them). The last snapshot is decoded back after the timed loop.
FleetOutcome run_fleet(
    const core::ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    std::size_t snapshot_every, Samples& samples);

/// Fleet of `devices` devices, device d training on SPLASH-2 app
/// d mod 12 (the fleet-scale bench's assignment).
std::vector<std::vector<sim::AppProfile>> fleet_apps(std::size_t devices);

/// The serve workload's fixed shape (see NOTES.md).
struct ServeSpec {
  std::size_t population = 4096;
  std::size_t sampled = 256;
  std::size_t workers = 2;
  std::size_t in_flight = 4;        ///< gateway connections (sessions)
  std::size_t model_params = 687;   ///< the paper's 5-32-15 MLP (2760 B)
  double stall_ms = 10.0;           ///< commit wait counted as a stall
};

/// Serve-side counters of one phase.
struct ServeCounters {
  std::uint64_t sessions = 0;
  std::uint64_t acked = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t deferred = 0;
  std::uint64_t accepted = 0;
  std::uint64_t sent = 0;
  std::uint64_t rounds_checked = 0;
  std::uint64_t rounds_mismatched = 0;  ///< committed != float32 mean
  std::vector<double> commit_wait_ms;
};

/// Runs the serve workload for `seconds` of timed rounds (after the
/// set-ups and `warmup_rounds` untimed rounds), over real loopback sockets.
/// Every `block_rounds` timed rounds open a new sample block.
void run_serve(const ServeSpec& spec, std::uint64_t seed, double seconds,
               std::size_t warmup_rounds, std::size_t block_rounds,
               Samples& samples, ServeCounters& counters);

}  // namespace perfbench
