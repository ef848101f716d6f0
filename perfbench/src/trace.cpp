#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kRound: return "round";
    case Kind::kRunRound: return "fed.run_round";
    case Kind::kReceiveGlobal: return "client.receive_global";
    case Kind::kLocalRound: return "core.local_round";
    case Kind::kLocalParams: return "client.local_parameters";
    case Kind::kEncode: return "fed.encode";
    case Kind::kDecode: return "fed.decode";
    case Kind::kTransfer: return "fed.transfer";
    case Kind::kHydrate: return "runtime.hydrate";
    case Kind::kDehydrate: return "runtime.dehydrate";
    case Kind::kParallel: return "runtime.parallel";
    case Kind::kEval: return "core.eval";
    case Kind::kSnapshot: return "ckpt.save";
    case Kind::kSession: return "serve.session";
    case Kind::kFetch: return "serve.fetch";
    case Kind::kUpload: return "serve.upload";
    case Kind::kCommitWait: return "serve.commit_wait";
    case Kind::kCommit: return "serve.commit";
  }
  return "?";
}

namespace {

struct ThreadLog {
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices into spans, innermost last
  std::uint64_t inherited_parent = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_round{0};
std::atomic<std::uint64_t> g_next_id{1};

// Logs are owned here, not by their threads: a worker thread may exit
// before the spans are collected.
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

thread_local ThreadLog* tl_log = nullptr;

ThreadLog& local_log() {
  if (tl_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(1 << 12);
    tl_log = log.get();
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::move(log));
  }
  return *tl_log;
}

std::uint64_t parent_of(const ThreadLog& log) noexcept {
  return log.open.empty() ? log.inherited_parent
                          : log.spans[log.open.back()].id;
}

}  // namespace

namespace trace {

void enable() noexcept { g_enabled.store(true); }
void disable() noexcept { g_enabled.store(false); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_round(std::uint32_t round) noexcept {
  g_round.store(round, std::memory_order_relaxed);
}

std::uint64_t open(Kind kind) noexcept {
  if (!enabled()) return 0;
  ThreadLog& log = local_log();
  Span span;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent_of(log);
  span.round = g_round.load(std::memory_order_relaxed);
  span.kind = kind;
  span.start_ns = now_ns();
  log.open.push_back(log.spans.size());
  log.spans.push_back(span);
  return span.id;
}

void close(std::uint64_t id, std::uint64_t value) noexcept {
  if (id == 0) return;
  ThreadLog& log = local_log();
  Span& span = log.spans[log.open.back()];
  span.end_ns = now_ns();
  span.value = value;
  log.open.pop_back();
}

void record(Kind kind, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t value, std::uint64_t parent) noexcept {
  if (!enabled()) return;
  ThreadLog& log = local_log();
  Span span;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent != 0 ? parent : parent_of(log);
  span.round = g_round.load(std::memory_order_relaxed);
  span.kind = kind;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.value = value;
  log.spans.push_back(span);
}

std::vector<Span> collect() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::size_t total = 0;
  for (const auto& log : g_logs) total += log->spans.size();
  all.reserve(total);
  for (const auto& log : g_logs)
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

bool write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,id,parent,round,start_ns,end_ns,value\n");
  for (const Span& s : spans)
    std::fprintf(out, "%s,%llu,%llu,%u,%llu,%llu,%llu\n", kind_name(s.kind),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.round,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.value));
  return std::fclose(out) == 0;
}

}  // namespace trace

ParentScope::ParentScope(std::uint64_t parent) noexcept : saved_(0) {
  if (!trace::enabled()) return;
  ThreadLog& log = local_log();
  saved_ = log.inherited_parent;
  log.inherited_parent = parent;
}

ParentScope::~ParentScope() {
  if (!trace::enabled()) return;
  local_log().inherited_parent = saved_;
}

}  // namespace perfbench
