// FedPower benchmark runner.
//
//   perfbench --workload paper|fleet|serve --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Runs one workload for S seconds of timed rounds and prints, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 runs untraced for S/2, then traced for S/2, and reports the
// per-layer metrics (and the tracing overhead between the two halves);
// the traced half's spans go to FILE. The inputs are a pure function of
// the seed. See NOTES.md for the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "drivers.hpp"
#include "sim/splash2.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace fedpower;
using perfbench::Kind;
using perfbench::Samples;
using perfbench::Span;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
  return args;
}

/// Seed of repetition k of a run: the run seed itself for k = 0.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t s =
      seed ^ (static_cast<std::uint64_t>(k) * 0xd1b54a32d192ed03ULL);
  return util::splitmix64(s);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : util::percentile(std::move(xs), 50.0);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::uint64_t fnv1a64(const std::vector<double>& values, std::uint64_t h) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Workloads. Each runs its untimed warm-up once, then repetitions (each a
// fresh set-up) until the phase budget is spent, and checks every
// repetition's output.

struct Checks {
  bool ok = true;
  void require(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

/// The paper-claims band for the final greedy fleet reward over the whole
/// SPLASH-2 suite. Trained policies read 0.26-0.66 across seeds (median
/// ~0.56, EXPERIMENTS.md); one round of training reads 0.11-0.29, a
/// diverged model far less. The band catches broken training; the
/// weights hash catches any change of bits.
constexpr double kRewardLow = 0.15;
constexpr double kRewardHigh = 1.0;

struct PaperWorkload {
  std::vector<std::vector<std::vector<sim::AppProfile>>> scenarios;
  std::vector<sim::AppProfile> eval_apps = sim::splash2_suite();
  std::uint64_t golden = 0;           ///< hash of repetition 0's weights
  double golden_reward = 0.0;
  std::size_t reps = 0;

  PaperWorkload() {
    for (const core::Scenario& s : core::table2_scenarios())
      scenarios.push_back(core::resolve(s));
  }

  static core::ExperimentConfig config(std::uint64_t seed,
                                       std::size_t rounds) {
    core::ExperimentConfig c;  // Table I defaults: T = 100, H = 20, ...
    c.rounds = rounds;
    c.seed = seed;
    return c;
  }

  void warmup(std::uint64_t seed) {
    Samples scratch;
    perfbench::run_paper(config(seed, 10), scenarios.front(), eval_apps,
                         scratch);
  }

  void run_phase(std::uint64_t seed, double seconds, Samples& samples,
                 Checks& checks) {
    const std::uint64_t start = perfbench::now_ns();
    do {
      samples.begin_block();
      const std::uint64_t s = rep_seed(seed, reps);
      double reward = 0.0;
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (const auto& apps : scenarios) {
        const core::ExperimentConfig c = config(s, 100);
        const perfbench::PaperOutcome out =
            perfbench::run_paper(c, apps, eval_apps, samples);
        reward += perfbench::final_policy_reward(c, out.global_params,
                                                 apps.size(), eval_apps);
        hash = fnv1a64(out.global_params, hash);
      }
      reward /= static_cast<double>(scenarios.size());
      std::printf("# paper rep %zu seed %llu final_reward %.6f\n", reps,
                  static_cast<unsigned long long>(s), reward);
      checks.require(reward >= kRewardLow && reward <= kRewardHigh,
                     "paper: final reward " + std::to_string(reward) +
                         " inside the paper-claims band");
      if (reps == 0) {
        golden = hash;
        golden_reward = reward;
      }
      ++reps;
    } while (seconds_since(start) < seconds);
  }
};

struct FleetWorkload {
  static constexpr std::size_t kDevices = 100000;
  static constexpr std::size_t kThreads = 2;
  static constexpr std::size_t kRoundsPerRep = 10;
  static constexpr std::size_t kSnapshotEvery = 10;
  static constexpr double kRssBoundMib = 512.0;

  std::vector<std::vector<sim::AppProfile>> apps =
      perfbench::fleet_apps(kDevices);
  std::size_t reps = 0;

  static core::ExperimentConfig config(std::uint64_t seed,
                                       std::size_t rounds) {
    core::ExperimentConfig c;
    c.controller.steps_per_round = 4;  // short local rounds
    c.rounds = rounds;
    c.seed = seed;
    c.num_threads = kThreads;
    c.lazy_fleet = true;
    c.sampling.fraction = 0.001;
    c.sampling.seed = seed ^ 0x5eedULL;
    return c;
  }

  void warmup(std::uint64_t seed) {
    Samples scratch;
    perfbench::run_fleet(config(seed, 3), apps, 0, scratch);
  }

  void run_phase(std::uint64_t seed, double seconds, Samples& samples,
                 Checks& checks) {
    const std::uint64_t start = perfbench::now_ns();
    do {
      samples.begin_block();
      const perfbench::FleetOutcome out = perfbench::run_fleet(
          config(rep_seed(seed, reps), kRoundsPerRep), apps, kSnapshotEvery,
          samples);
      checks.require(out.dropped == 0, "fleet: no dropped participants");
      checks.require(out.hot_over_sample == 0,
                     "fleet: hot devices <= participants after dehydration");
      checks.require(out.snapshots_valid, "fleet: snapshots decode back");
      ++reps;
    } while (seconds_since(start) < seconds);
    checks.require(peak_rss_mib() < kRssBoundMib, "fleet: peak RSS bound");
  }
};

struct ServeWorkload {
  perfbench::ServeSpec spec;
  std::vector<perfbench::ServeCounters> phases;  ///< untraced first

  void warmup(std::uint64_t) {}

  void run_phase(std::uint64_t seed, double seconds, Samples& samples,
                 Checks& checks) {
    perfbench::ServeCounters phase;
    perfbench::run_serve(spec, seed, seconds, /*warmup_rounds=*/20,
                         /*block_rounds=*/25, samples, phase);
    checks.require(phase.acked == phase.sessions,
                   "serve: every session acked");
    checks.require(phase.protocol_errors == 0, "serve: no protocol errors");
    checks.require(phase.rounds_mismatched == 0 && phase.rounds_checked > 0,
                   "serve: committed model == float32 mean of the uploads");
    std::size_t stalled = 0;
    for (const double w : phase.commit_wait_ms)
      stalled += w > spec.stall_ms ? 1 : 0;
    std::printf("# serve phase: rounds %zu stalled %zu "
                "commit_wait_p50_ms %.3f\n",
                phase.commit_wait_ms.size(), stalled,
                median(phase.commit_wait_ms));
    phases.push_back(std::move(phase));
  }
};

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Median over the blocks (offsets into xs) of each block's percentile p.
double block_percentile(const std::vector<double>& xs,
                        const std::vector<std::size_t>& blocks, double p) {
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto first = static_cast<std::ptrdiff_t>(blocks[b]);
    const auto last = static_cast<std::ptrdiff_t>(
        b + 1 < blocks.size() ? blocks[b + 1] : xs.size());
    if (last > first)
      per_block.push_back(util::percentile(
          std::vector<double>(xs.begin() + first, xs.begin() + last), p));
  }
  return median(per_block);
}

void end_to_end(const Samples& s, Metrics& m) {
  m["setup_s"] = {median(s.setup_s), "s"};
  m["round_p50_ms"] = {block_percentile(s.round_ms, s.round_blocks, 50.0),
                       "ms"};
  m["round_p90_ms"] = {block_percentile(s.round_ms, s.round_blocks, 90.0),
                       "ms"};
  m["uplinks_per_s"] = {static_cast<double>(s.uplinks) / s.timed_s, "1/s"};
  m["uplink_p50_us"] = {block_percentile(s.uplink_us, s.uplink_blocks, 50.0),
                        "us"};
  m["uplink_p99_us"] = {block_percentile(s.uplink_us, s.uplink_blocks, 99.0),
                        "us"};
  m["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
}

struct KindStats {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  std::uint64_t value = 0;
  double mean_ns() const {
    return count ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
  }
  double mean_value() const {
    return count ? static_cast<double>(value) / static_cast<double>(count)
                 : 0.0;
  }
};

/// Share of each round span's wall that none of its direct children
/// covers (children may overlap: serve sessions run four at a time).
double unattributed_frac(const std::vector<Span>& spans) {
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::map<std::uint64_t, std::vector<Interval>> children;
  std::map<std::uint64_t, const Span*> rounds;
  for (const Span& s : spans)
    if (s.kind == Kind::kRound) rounds[s.id] = &s;
  for (const Span& s : spans)
    if (rounds.count(s.parent) != 0)
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  double total = 0.0;
  double uncovered = 0.0;
  for (const auto& [id, round] : rounds) {
    const std::uint64_t lo = round->start_ns;
    const std::uint64_t hi = round->end_ns;
    auto& list = children[id];
    std::sort(list.begin(), list.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = lo;
    for (auto [a, b] : list) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    total += static_cast<double>(hi - lo);
    uncovered += static_cast<double>(hi - lo - covered);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

void per_layer(const Samples& untraced, const Samples& traced,
               const std::vector<Span>& spans, std::size_t threads,
               const ServeWorkload* serve, double final_reward, Metrics& m) {
  std::map<Kind, KindStats> by_kind;
  std::map<std::uint64_t, const Span*> run_rounds;
  for (const Span& s : spans) {
    KindStats& k = by_kind[s.kind];
    ++k.count;
    k.ns += s.end_ns - s.start_ns;
    k.value += s.value;
    if (s.kind == Kind::kRunRound) run_rounds[s.id] = &s;
  }
  // run_round self time (minus every direct child: client, codec,
  // transport and parallel-phase spans) and broadcast phase (run_round
  // start to the first training call).
  std::map<std::uint64_t, std::uint64_t> child_ns;
  std::map<std::uint64_t, std::uint64_t> first_training;
  for (const Span& s : spans) {
    if (run_rounds.count(s.parent) == 0) continue;
    child_ns[s.parent] += s.end_ns - s.start_ns;
    if (s.kind == Kind::kLocalRound || s.kind == Kind::kParallel) {
      std::uint64_t& first = first_training[s.parent];
      if (first == 0 || s.start_ns < first) first = s.start_ns;
    }
  }
  double self_ns = 0.0;
  double broadcast_ns = 0.0;
  for (const auto& [id, span] : run_rounds) {
    self_ns +=
        static_cast<double>(span->end_ns - span->start_ns - child_ns[id]);
    if (first_training.count(id) != 0)
      broadcast_ns += static_cast<double>(first_training[id] - span->start_ns);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const double rounds = d(traced.rounds);
  const double run_round_count = d(run_rounds.size());
  const auto mean_us = [&](Kind k) { return by_kind[k].mean_ns() * 1e-3; };
  const auto mean_ms = [&](Kind k) { return by_kind[k].mean_ns() * 1e-6; };
  const auto per_round = [&](double x) { return ratio(x, rounds); };

  m["core.local_round_ms"] = {mean_ms(Kind::kLocalRound), "ms"};
  m["core.eval_ms"] = {per_round(d(by_kind[Kind::kEval].ns) * 1e-6), "ms"};
  m["core.final_reward"] = {final_reward, "reward"};
  m["sim.interval_us"] = {ratio(d(traced.sim.ns) * 1e-3, d(traced.sim.calls)),
                          "us"};
  m["sim.interval.calls"] = {per_round(d(traced.sim.calls)), "count"};
  const perfbench::StepCounters& st = traced.steps;
  m["rl.train_us"] = {ratio(d(st.train_ns) * 1e-3, d(st.train_steps)), "us"};
  m["rl.act_us"] = {ratio(d(st.act_ns) * 1e-3, d(st.act_steps)), "us"};
  m["rl.train.calls"] = {per_round(d(st.train_steps)), "count"};
  m["rl.train_allocs"] = {ratio(d(st.train_allocs), d(st.train_steps)),
                          "count"};
  m["rl.act_allocs"] = {ratio(d(st.act_allocs), d(st.act_steps)), "count"};
  m["fed.round_self_ms"] = {ratio(self_ns * 1e-6, run_round_count), "ms"};
  m["fed.broadcast_us"] = {ratio(broadcast_ns * 1e-3, run_round_count), "us"};
  m["fed.encode_us"] = {mean_us(Kind::kEncode), "us"};
  m["fed.decode_us"] = {mean_us(Kind::kDecode), "us"};
  // Bytes per transfer; serve has no fed::Transport, its wire payload is
  // the encoded model.
  const KindStats& transfers = by_kind[Kind::kTransfer];
  m["fed.transfer_bytes"] = {transfers.count != 0
                                 ? transfers.mean_value()
                                 : by_kind[Kind::kEncode].mean_value(),
                             "bytes"};
  m["runtime.hydrate_us"] = {mean_us(Kind::kHydrate), "us"};
  m["runtime.hydrate.calls"] = {per_round(d(by_kind[Kind::kHydrate].count)),
                                "count"};
  m["runtime.dehydrate_ms"] = {mean_ms(Kind::kDehydrate), "ms"};
  const KindStats& par = by_kind[Kind::kParallel];
  m["runtime.parallel_ms"] = {per_round(d(par.ns) * 1e-6), "ms"};
  m["runtime.parallel_efficiency"] = {
      ratio(d(par.value), d(threads) * d(par.ns)), "ratio"};
  m["runtime.hot_devices_peak"] = {d(traced.hot_devices_peak), "count"};
  m["ckpt.save_ms"] = {mean_ms(Kind::kSnapshot), "ms"};
  m["ckpt.save_bytes"] = {by_kind[Kind::kSnapshot].mean_value(), "bytes"};

  double wait_ms = 0.0;
  double stalled = 0.0;
  double deferred = 0.0;
  double protocol_errors = 0.0;
  double accepted_ratio = 0.0;
  if (serve != nullptr) {
    // Counters, not spans: taken from the untraced half, whose timing the
    // end-to-end metrics describe (tracing shifts the commit-wait race).
    const perfbench::ServeCounters& c = serve->phases.front();
    for (const double w : c.commit_wait_ms) {
      wait_ms += w;
      if (w > serve->spec.stall_ms) stalled += 1.0;
    }
    wait_ms = ratio(wait_ms, d(c.commit_wait_ms.size()));
    deferred = d(c.deferred);
    protocol_errors = d(c.protocol_errors);
    accepted_ratio = ratio(d(c.accepted), d(c.sent));
  }
  m["serve.fetch_us"] = {mean_us(Kind::kFetch), "us"};
  m["serve.upload_us"] = {mean_us(Kind::kUpload), "us"};
  m["serve.commit_ms"] = {mean_ms(Kind::kCommit), "ms"};
  m["serve.commit_wait_ms"] = {wait_ms, "ms"};
  m["serve.stalled_rounds"] = {stalled, "count"};
  m["serve.deferred"] = {deferred, "count"};
  m["serve.protocol_errors"] = {protocol_errors, "count"};
  m["serve.accepted_ratio"] = {accepted_ratio, "ratio"};

  const double untraced_round_s = ratio(untraced.timed_s, d(untraced.rounds));
  const double traced_round_s = ratio(traced.timed_s, d(traced.rounds));
  m["trace.overhead_frac"] = {ratio(traced_round_s, untraced_round_s) - 1.0,
                              "ratio"};
  m["trace.unattributed_frac"] = {unattributed_frac(spans), "ratio"};
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

template <typename Workload>
int run(Workload& workload, const Args& args, std::size_t threads) {
  Checks checks;
  Samples untraced;
  Samples traced;
  workload.warmup(args.seed);
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  workload.run_phase(args.seed, untraced_s, untraced, checks);
  std::vector<Span> spans;
  if (args.trace) {
    perfbench::trace::enable();
    workload.run_phase(args.seed ^ 0x7ace0000ULL, args.seconds / 2.0, traced,
                       checks);
    spans = perfbench::trace::collect();
    if (!args.spans_path.empty() &&
        !perfbench::trace::write_csv(args.spans_path, spans))
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.spans_path.c_str());
  }

  double final_reward = 0.0;
  if constexpr (std::is_same_v<Workload, PaperWorkload>) {
    final_reward = workload.golden_reward;
    std::printf("# paper: seed %llu weights_fnv1a64 0x%016llx "
                "final_reward %.17g reps %zu\n",
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(workload.golden),
                workload.golden_reward, workload.reps);
  }
  const Samples& measured = args.trace ? traced : untraced;
  std::printf("# %s: rounds %llu uplinks %llu device_steps_per_s %.6g "
              "setups %zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(untraced.rounds),
              static_cast<unsigned long long>(untraced.uplinks),
              static_cast<double>(untraced.device_steps) / untraced.timed_s,
              untraced.setup_s.size());
  Metrics metrics;
  if (args.trace) {
    const ServeWorkload* serve = nullptr;
    if constexpr (std::is_same_v<Workload, ServeWorkload>) serve = &workload;
    per_layer(untraced, traced, spans, threads, serve, final_reward,
              metrics);
  } else {
    end_to_end(untraced, metrics);
  }
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  const bool correct = checks.ok && failed == 0 && measured.rounds > 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::printf("# host: nproc %u compiler \"%s\" flags \"%s\" build_type %s\n",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE);
    if (args.workload == "paper") {
      PaperWorkload w;
      return run(w, args, 1);
    }
    if (args.workload == "fleet") {
      FleetWorkload w;
      return run(w, args, FleetWorkload::kThreads);
    }
    if (args.workload == "serve") {
      ServeWorkload w;
      return run(w, args, w.spec.workers);
    }
    throw std::invalid_argument("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
