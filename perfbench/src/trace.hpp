// Benchmark-side tracing: spans recorded around calls into the program's
// layers, kept in memory and written out once when the run ends.
//
// A span has a name, start and end (steady clock, ns), the span that
// caused it and the id of the workload round it belongs to. Each thread
// appends to its own log, so recording never takes a lock after a
// thread's first span; the parent of a span is the innermost span open on
// the same thread, or the span a parallel phase handed to its worker
// items (ParentScope). Tracing is off unless enable() was called: the
// untraced run records no spans at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Heap allocations made so far by the calling thread; counted by the
/// benchmark executables' replacement operator new (alloc_count.cpp).
std::uint64_t thread_allocs() noexcept;

/// Span names, one per layer boundary the benchmark wraps.
enum class Kind : std::uint8_t {
  kRound,           ///< one workload round (the unit of round_*_ms)
  kRunRound,        ///< fed::FederatedAveraging::run_round
  kReceiveGlobal,   ///< FederatedClient::receive_global
  kLocalRound,      ///< FederatedClient::run_local_round
  kLocalParams,     ///< FederatedClient::local_parameters
  kEncode,          ///< ModelCodec::encode (value: payload bytes)
  kDecode,          ///< ModelCodec::decode (value: payload bytes)
  kTransfer,        ///< Transport::transfer (value: payload bytes)
  kHydrate,         ///< FleetRuntime::hydrate of a cold device
  kDehydrate,       ///< FleetRuntime::dehydrate_inactive
  kParallel,        ///< one ParallelFor call (value: summed item busy ns)
  kEval,            ///< per-round greedy evaluation of the global policy
  kSnapshot,        ///< in-memory FPCK snapshot (value: container bytes)
  kSession,         ///< serve: connect .. close of one client session
  kFetch,           ///< serve: fetch request written .. reply read
  kUpload,          ///< serve: upload written .. ack read
  kCommitWait,      ///< serve: last ack .. full draw seen by the driver
  kCommit,          ///< serve: EpollFrontEnd::commit_then_begin
};

const char* kind_name(Kind kind) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = none
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t value = 0;
  std::uint32_t round = 0;
  Kind kind = Kind::kRound;
};

namespace trace {

/// Starts recording. Call once, before the traced phase; spans are never
/// discarded until the process ends.
void enable() noexcept;
/// Stops recording (tests only; spans recorded so far are kept).
void disable() noexcept;
bool enabled() noexcept;

/// Round id stamped on spans opened from now on (any thread).
void set_round(std::uint32_t round) noexcept;

/// Opens a span on the calling thread; returns its id (0 when tracing is
/// off). Spans on one thread must close in LIFO order.
std::uint64_t open(Kind kind) noexcept;
/// Closes the span; `value` is stored with it (bytes, busy time, ...).
void close(std::uint64_t id, std::uint64_t value = 0) noexcept;
/// Records an already-finished span, child of `parent` (0 = the calling
/// thread's innermost open span).
void record(Kind kind, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t value = 0, std::uint64_t parent = 0) noexcept;

/// Every span recorded so far, ordered by id. Call once every recording
/// thread has finished (after the traced phase).
std::vector<Span> collect();

/// Writes spans as CSV (name,id,parent,round,start_ns,end_ns,value).
bool write_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace trace

/// RAII span; no-op when tracing is off.
class Scope {
 public:
  explicit Scope(Kind kind) noexcept : id_(trace::open(kind)) {}
  ~Scope() { trace::close(id_, value_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_value(std::uint64_t value) noexcept { value_ = value; }
  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
  std::uint64_t value_ = 0;
};

/// Makes `parent` the parent of spans the calling thread opens while no
/// span of its own is open (parallel items inherit the phase's span).
class ParentScope {
 public:
  explicit ParentScope(std::uint64_t parent) noexcept;
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace perfbench
