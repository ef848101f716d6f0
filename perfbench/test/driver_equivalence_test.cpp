// The benchmark times the program's real path: its drivers must reproduce
// the program's own runner (core::run_federated) bit for bit, traced or
// not.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "drivers.hpp"
#include "sim/splash2.hpp"
#include "trace.hpp"

namespace {

using namespace fedpower;

core::ExperimentConfig paper_config() {
  core::ExperimentConfig config;  // Table I
  config.rounds = 4;
  config.seed = 11;
  return config;
}

core::ExperimentConfig fleet_config() {
  core::ExperimentConfig config;
  config.controller.steps_per_round = 4;
  config.rounds = 6;
  config.seed = 5;
  config.num_threads = 2;
  config.lazy_fleet = true;
  config.sampling.fraction = 0.01;
  config.sampling.seed = 9;
  return config;
}

void expect_paper_matches(bool traced) {
  const core::ExperimentConfig config = paper_config();
  const auto apps = core::resolve(core::table2_scenarios()[1]);
  const auto suite = sim::splash2_suite();
  const core::FederatedRunResult reference =
      core::run_federated(config, apps, suite, true);
  if (traced) perfbench::trace::enable();
  perfbench::Samples samples;
  const perfbench::PaperOutcome out =
      perfbench::run_paper(config, apps, suite, samples);
  perfbench::trace::disable();
  EXPECT_EQ(out.global_params, reference.global_params);
  EXPECT_EQ(out.fleet_reward, reference.fleet.reward);
  EXPECT_EQ(samples.round_ms.size(), config.rounds);
  EXPECT_EQ(samples.uplinks, 2 * config.rounds);
  if (traced) {
    EXPECT_EQ(samples.steps.train_steps + samples.steps.act_steps,
              2 * config.rounds * config.controller.steps_per_round);
    EXPECT_GT(samples.sim.calls, 0u);
  }
}

void expect_fleet_matches(bool traced) {
  const core::ExperimentConfig config = fleet_config();
  const auto apps = perfbench::fleet_apps(3000);
  const core::FederatedRunResult reference =
      core::run_federated(config, apps, {}, false);
  if (traced) perfbench::trace::enable();
  perfbench::Samples samples;
  const perfbench::FleetOutcome out =
      perfbench::run_fleet(config, apps, /*snapshot_every=*/2, samples);
  perfbench::trace::disable();
  EXPECT_EQ(out.global_params, reference.global_params);
  EXPECT_EQ(out.dropped, 0u);
  EXPECT_EQ(out.hot_over_sample, 0u);
  EXPECT_EQ(out.snapshots, 3u);
  EXPECT_TRUE(out.snapshots_valid);
  EXPECT_EQ(samples.uplinks, 30 * config.rounds);
}

TEST(DriverEquivalence, PaperMatchesRunFederated) {
  expect_paper_matches(false);
}

TEST(DriverEquivalence, TracedPaperMatchesRunFederated) {
  expect_paper_matches(true);
}

TEST(DriverEquivalence, FleetMatchesLazyRunFederated) {
  expect_fleet_matches(false);
}

TEST(DriverEquivalence, TracedFleetMatchesLazyRunFederated) {
  expect_fleet_matches(true);
}

}  // namespace
