// Round driver that runs the synchronous federated-averaging protocol
// through the sharded serve pipeline (DESIGN.md §12).
//
// ServeFederation runs the same client half of the round as
// FederatedAveraging — fed::RoundLoop's draw, broadcast, parallel local
// training and serial uplink in client-index order — but its upload sink
// submits every delivered upload to a ShardedServer instead of aggregating
// inline. In deterministic commit mode the result is bit-identical to
// FederatedAveraging at any worker count: the transfer sequence is the
// same call-for-call (so fault-injection streams line up), the participant
// draw consumes the same RNG stream, and the commit runs the same
// fed::aggregate_with_mode over the same survivor order. In throughput
// mode the server merges FedAsync-style instead.
//
// Defense screening is not routed through this driver (the worker-shard
// verdicts cover transport-level screening); configurations that need the
// full defense pipeline use the synchronous server.
#pragma once

#include <cstddef>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/codec.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "serve/server.hpp"
#include "util/executor.hpp"

namespace fedpower::serve {

class ServeFederation {
 public:
  ServeFederation(std::vector<fed::FederatedClient*> clients,
                  fed::Transport* transport, ServeConfig config = {},
                  const fed::ModelCodec* codec = nullptr);

  /// Installs the initial global model (Algorithm 2 line 1).
  void initialize(std::vector<double> global);

  /// Client-fraction sampling; consumes the same RNG stream as
  /// FederatedAveraging with defense off.
  void set_sampling(const fed::SamplingConfig& config);

  /// Minimum surviving uploads per round (see FederatedAveraging).
  void set_quorum(std::size_t min_survivors);

  /// Per-client transport override (fault injection, private links).
  void set_client_transport(std::size_t client, fed::Transport* transport);

  /// Per-round transport-latency budget per client, in simulated seconds;
  /// 0 disables. Same demotion semantics as
  /// FederatedAveraging::set_round_deadline: an over-budget participant's
  /// upload is never submitted to the shard pipeline, so commit_round
  /// counts it as a never-arrived dropout (RoundResult::stragglers ⊆
  /// dropped) — it weighs against the quorum but cannot block the round.
  void set_round_deadline(double seconds);

  /// Executor for local training and the commit aggregation.
  void set_local_executor(util::ParallelFor executor);

  /// One synchronous round through the serve pipeline. Throws
  /// fed::QuorumError (round counter and global model untouched) when the
  /// surviving uploads fall below the quorum.
  fed::RoundResult run_round();

  void run(std::size_t rounds);

  [[nodiscard]] const std::vector<double>& global_model() const noexcept {
    return server_.global_model();
  }
  [[nodiscard]] std::size_t rounds_completed() const noexcept {
    return rounds_completed_;
  }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return loop_.client_count();
  }
  [[nodiscard]] const ServeStats& server_stats() const noexcept {
    return server_.stats();
  }
  [[nodiscard]] ShardedServer& server() noexcept { return server_; }

  /// FPCK sections: SFED (round counter + participation RNG) followed by
  /// the server's SRVR section.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  /// Wiring and config plus the participation stream, which save_state
  /// checkpoints. Declared before server_, which is built from its codec.
  fed::RoundLoop loop_;
  ShardedServer server_;
  std::size_t quorum_ = 1;  // lint: ckpt-skip(construction config, fixed for the run)
  std::size_t rounds_completed_ = 0;
};

}  // namespace fedpower::serve
