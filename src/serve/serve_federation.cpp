#include "serve/serve_federation.hpp"

#include <string>

#include "ckpt/errors.hpp"
#include "ckpt/state_io.hpp"
#include "util/assert.hpp"

namespace fedpower::serve {

ServeFederation::ServeFederation(std::vector<fed::FederatedClient*> clients,
                                 fed::Transport* transport,
                                 ServeConfig config,
                                 const fed::ModelCodec* codec)
    : loop_(std::move(clients), transport, codec),
      server_(loop_.client_count(), config, &loop_.codec()) {}

void ServeFederation::initialize(std::vector<double> global) {
  server_.initialize(std::move(global));
}

void ServeFederation::set_sampling(const fed::SamplingConfig& config) {
  loop_.set_sampling(config);
}

void ServeFederation::set_quorum(std::size_t min_survivors) {
  FEDPOWER_EXPECTS(min_survivors >= 1 &&
                   min_survivors <= loop_.client_count());
  quorum_ = min_survivors;
}

void ServeFederation::set_client_transport(std::size_t client,
                                           fed::Transport* transport) {
  loop_.set_client_transport(client, transport);
}

void ServeFederation::set_round_deadline(double seconds) {
  loop_.set_round_deadline(seconds);
}

void ServeFederation::set_local_executor(util::ParallelFor executor) {
  loop_.set_local_executor(executor);
  server_.set_executor(std::move(executor));
}

fed::RoundResult ServeFederation::run_round() {
  FEDPOWER_EXPECTS(!server_.global_model().empty());
  // The draw is FederatedAveraging's with defense off, so both drivers
  // consume the participation stream identically.
  const std::vector<std::size_t> participants =
      loop_.draw_participants(nullptr);
  server_.begin_round(participants);
  const std::uint64_t base_version = server_.version();

  // Every delivered upload goes to the shard pipeline. An upload the
  // deadline demoted never reaches the sink, so the pipeline sees exactly
  // what the synchronous server would — a participant that never arrived —
  // and commit_round books it as a dropout.
  const fed::ClientExchange exchange = loop_.exchange(
      participants, server_.global_model(),
      [&](std::size_t i, std::vector<std::uint8_t> payload) {
        server_.submit(
            i, base_version, std::move(payload),
            static_cast<double>(loop_.client(i).local_sample_count()));
        return true;
      });

  fed::RoundResult result = server_.commit_round(quorum_);
  for (const std::size_t i : participants)
    if (exchange.straggler[i]) result.stragglers.push_back(i);
  result.downlink_bytes = exchange.downlink_bytes;
  result.transport_retries = exchange.transport_retries;
  ++rounds_completed_;
  return result;
}

void ServeFederation::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

namespace {
constexpr ckpt::Tag kServeFedTag{'S', 'F', 'E', 'D'};
}  // namespace

void ServeFederation::save_state(ckpt::Writer& out) const {
  ckpt::write_tag(out, kServeFedTag);
  out.u64(loop_.client_count());
  out.u64(rounds_completed_);
  ckpt::save_rng(out, loop_.participation_rng());
  server_.save_state(out);
}

void ServeFederation::restore_state(ckpt::Reader& in) {
  ckpt::expect_tag(in, kServeFedTag, "serve federation driver");
  const std::uint64_t client_count = in.u64();
  if (client_count != loop_.client_count())
    throw ckpt::StateMismatchError(
        "serve snapshot was taken with " + std::to_string(client_count) +
        " client(s), this federation has " +
        std::to_string(loop_.client_count()));
  rounds_completed_ = static_cast<std::size_t>(in.u64());
  ckpt::restore_rng(in, loop_.participation_rng());
  server_.restore_state(in);
}

}  // namespace fedpower::serve
