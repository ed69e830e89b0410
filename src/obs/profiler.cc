#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>

#include "obs/trace.h"

namespace bigcity::obs {
namespace {

std::atomic<bool> profiler_enabled{false};

/// Source of Profiler generations: unique across every profiler and Reset.
std::atomic<uint64_t> next_generation{1};

/// One thread's memo of a recently recorded row, keyed by the op and module
/// pointers, so the repeated case neither builds key strings nor walks the
/// map. Direct-mapped; a collision only costs the slow path.
struct RowCacheEntry {
  uint64_t generation = 0;  // 0 never matches a live profiler.
  const char* op = nullptr;
  const char* module = nullptr;
  bool backward = false;
  OpStats* row = nullptr;
};
constexpr size_t kRowCacheSize = 256;
thread_local RowCacheEntry row_cache[kRowCacheSize];

size_t RowCacheSlot(const char* op, const char* module, bool backward) {
  const auto key = reinterpret_cast<uintptr_t>(op) * 31 +
                   reinterpret_cast<uintptr_t>(module) * 2 +
                   (backward ? 1 : 0);
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 56) %
         kRowCacheSize;
}

thread_local std::vector<internal::OpFrame> op_stack;
thread_local std::vector<const char*> module_stack;

/// Splits "a.b.c" into its dotted prefixes "a", "a.b", "a.b.c".
void AppendPrefixes(const std::string& path,
                    std::vector<std::string>* prefixes) {
  for (size_t dot = path.find('.'); dot != std::string::npos;
       dot = path.find('.', dot + 1)) {
    prefixes->push_back(path.substr(0, dot));
  }
  prefixes->push_back(path);
}

void AppendEscaped(std::string* out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out->push_back(c);
    }
  }
}

}  // namespace

void SetProfilerEnabled(bool enabled) {
  profiler_enabled.store(enabled, std::memory_order_relaxed);
}

bool ProfilerEnabled() {
  return profiler_enabled.load(std::memory_order_relaxed);
}

namespace internal {

const OpFrame* CurrentOpFrame() {
  return op_stack.empty() ? nullptr : &op_stack.back();
}

const char* CurrentModulePath() {
  return module_stack.empty() ? "" : module_stack.back();
}

}  // namespace internal

ScopedOp::ScopedOp(const char* op, bool backward, const char* module) {
  internal::OpFrame frame;
  frame.op = op;
  frame.module = module != nullptr ? module : internal::CurrentModulePath();
  frame.backward = backward;
  if (ProfilerEnabled()) {
    frame.timed = true;
    frame.start_us = TraceNowMicros();
  }
  op_stack.push_back(frame);
}

ScopedOp::~ScopedOp() {
  const internal::OpFrame frame = op_stack.back();
  op_stack.pop_back();
  if (!frame.timed) return;
  const uint64_t end_us = TraceNowMicros();
  const uint64_t total_us = end_us - frame.start_us;
  const uint64_t self_us =
      total_us > frame.child_us ? total_us - frame.child_us : 0;
  if (!op_stack.empty()) op_stack.back().child_us += total_us;
  Profiler::Global().RecordOp(frame.op, frame.module, frame.backward, self_us,
                              total_us, frame.flops, frame.bytes);
  if (TracingEnabled()) {
    TraceEvent event;
    event.name = frame.op;  // String literal at every call site.
    event.category = frame.backward ? "op.bwd" : "op";
    event.start_us = frame.start_us;
    event.duration_us = total_us;
    event.thread_id = TraceThreadId();
    TraceBuffer::Global().Record(event);
  }
}

void ScopedOp::SetCost(uint64_t flops, uint64_t bytes) {
  internal::OpFrame& frame = op_stack.back();
  frame.flops = flops;
  frame.bytes = bytes;
}

void ScopedOp::SetBackwardCost(uint64_t flops, uint64_t bytes) {
  internal::OpFrame& frame = op_stack.back();
  frame.bwd_flops = flops;
  frame.bwd_bytes = bytes;
}

ScopedModule::ScopedModule(const char* path) { module_stack.push_back(path); }

ScopedModule::~ScopedModule() { module_stack.pop_back(); }

Profiler::Profiler() : generation_(next_generation.fetch_add(1)) {}

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

void Profiler::RecordOp(const char* op, const char* module, bool backward,
                        uint64_t self_us, uint64_t total_us, uint64_t flops,
                        uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& row = Row(op, module, backward);
  ++row.calls;
  row.self_us += self_us;
  row.total_us += total_us;
  row.flops += flops;
  row.bytes += bytes;
}

OpStats& Profiler::Row(const char* op, const char* module, bool backward) {
  RowCacheEntry& cached = row_cache[RowCacheSlot(op, module, backward)];
  // The string checks catch a pointer reused for a different name (a
  // module destroyed and another built at the same address).
  if (cached.generation == generation_ && cached.op == op &&
      cached.module == module && cached.backward == backward &&
      cached.row->op == op && cached.row->module == module) {
    return *cached.row;
  }
  OpStats& row = rows_[std::make_tuple(std::string(module), std::string(op),
                                       backward)];
  if (row.calls == 0) {
    row.module = module;
    row.op = op;
    row.backward = backward;
  }
  cached = {generation_, op, module, backward, &row};
  return row;
}

std::vector<OpStats> Profiler::Rows() const {
  std::vector<OpStats> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(rows_.size());
    for (const auto& [key, row] : rows_) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const OpStats& a, const OpStats& b) {
    return a.self_us > b.self_us;
  });
  return rows;
}

std::vector<ModuleStats> Profiler::ModuleRollup() const {
  const std::vector<OpStats> rows = Rows();
  std::map<std::string, ModuleStats> modules;
  std::vector<std::string> prefixes;
  for (const OpStats& row : rows) {
    // Self time lands on the exact path; inclusive time on the path and
    // every dotted ancestor, so parents subsume their children.
    ModuleStats& exact = modules[row.module];
    exact.module = row.module;
    exact.calls += row.calls;
    exact.self_us += row.self_us;
    exact.flops += row.flops;
    exact.bytes += row.bytes;
    prefixes.clear();
    AppendPrefixes(row.module, &prefixes);
    for (const std::string& prefix : prefixes) {
      ModuleStats& rollup = modules[prefix];
      rollup.module = prefix;
      rollup.total_us += row.self_us;
    }
  }
  std::vector<ModuleStats> result;
  result.reserve(modules.size());
  for (const auto& [path, stats] : modules) result.push_back(stats);
  std::sort(result.begin(), result.end(),
            [](const ModuleStats& a, const ModuleStats& b) {
              return a.total_us > b.total_us;
            });
  return result;
}

uint64_t Profiler::TotalSelfUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, row] : rows_) total += row.self_us;
  return total;
}

std::string Profiler::ToJson() const {
  const std::vector<OpStats> rows = Rows();
  const std::vector<ModuleStats> modules = ModuleRollup();
  std::string json = "{\"ops\":[";
  char buffer[160];
  bool first = true;
  for (const OpStats& row : rows) {
    if (!first) json.push_back(',');
    first = false;
    json.append("{\"op\":\"");
    AppendEscaped(&json, row.op);
    json.append("\",\"module\":\"");
    AppendEscaped(&json, row.module);
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"dir\":\"%s\",\"calls\":%" PRIu64
                  ",\"self_us\":%" PRIu64 ",\"total_us\":%" PRIu64
                  ",\"flops\":%" PRIu64 ",\"bytes\":%" PRIu64 "}",
                  row.backward ? "bwd" : "fwd", row.calls, row.self_us,
                  row.total_us, row.flops, row.bytes);
    json.append(buffer);
  }
  json.append("],\"modules\":[");
  first = true;
  for (const ModuleStats& stats : modules) {
    if (!first) json.push_back(',');
    first = false;
    json.append("{\"module\":\"");
    AppendEscaped(&json, stats.module);
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"calls\":%" PRIu64 ",\"self_us\":%" PRIu64
                  ",\"total_us\":%" PRIu64 ",\"flops\":%" PRIu64
                  ",\"bytes\":%" PRIu64 "}",
                  stats.calls, stats.self_us, stats.total_us, stats.flops,
                  stats.bytes);
    json.append(buffer);
  }
  std::snprintf(buffer, sizeof(buffer), "],\"total_self_us\":%" PRIu64 "}",
                TotalSelfUs());
  json.append(buffer);
  return json;
}

void Profiler::PrintTable(std::FILE* out, size_t max_rows) const {
  // GFLOP is a row's total work; GFLOP/s divides it by the row's self time
  // (0 when no self time was measured).
  auto rate = [](uint64_t flops, uint64_t self_us) {
    return self_us == 0 ? 0.0 : flops / (self_us * 1e3);
  };
  const std::vector<OpStats> rows = Rows();
  const uint64_t total_self = TotalSelfUs();
  std::fprintf(out,
               "--- op profile: %zu rows, %.1f ms total self time ---\n",
               rows.size(), total_self / 1e3);
  std::fprintf(out, "%-22s %-4s %-40s %8s %10s %10s %9s %9s\n", "op", "dir",
               "module", "calls", "self_ms", "total_ms", "GFLOP", "GFLOP/s");
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    const OpStats& row = rows[i];
    std::fprintf(out,
                 "%-22s %-4s %-40s %8" PRIu64 " %10.2f %10.2f %9.2f %9.2f\n",
                 row.op.c_str(), row.backward ? "bwd" : "fwd",
                 row.module.empty() ? "(untagged)" : row.module.c_str(),
                 row.calls, row.self_us / 1e3, row.total_us / 1e3,
                 row.flops / 1e9, rate(row.flops, row.self_us));
  }
  const std::vector<ModuleStats> modules = ModuleRollup();
  std::fprintf(out, "--- module rollup (inclusive over dotted paths) ---\n");
  std::fprintf(out, "%-46s %8s %10s %10s %9s %9s\n", "module", "calls",
               "self_ms", "incl_ms", "GFLOP", "GFLOP/s");
  for (size_t i = 0; i < modules.size() && i < max_rows; ++i) {
    const ModuleStats& stats = modules[i];
    std::fprintf(out, "%-46s %8" PRIu64 " %10.2f %10.2f %9.2f %9.2f\n",
                 stats.module.empty() ? "(untagged)" : stats.module.c_str(),
                 stats.calls, stats.self_us / 1e3, stats.total_us / 1e3,
                 stats.flops / 1e9, rate(stats.flops, stats.self_us));
  }
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  generation_ = next_generation.fetch_add(1);
}

}  // namespace bigcity::obs
