#ifndef BIGCITY_OBS_PROFILER_H_
#define BIGCITY_OBS_PROFILER_H_

// Autograd op profiler (DESIGN.md §4.10). Every primitive op in
// src/nn/ops.cc (and the fused kernels) opens a ScopedOp naming the op;
// layer Forward methods open a ScopedModule carrying their
// Module::NamedParameters()-style dotted path. Together they attribute
// every op invocation — forward and backward — to (module, op, direction)
// rows holding call counts, self/total wall time, FLOPs, and bytes moved.
//
// Two-tier activation, so the always-on tier stays within timing noise:
//   * BIGCITY_OBS=ON: ScopedOp/ScopedModule maintain thread-local tag
//     stacks (no clock reads) so autograd nodes always carry op/module
//     tags — that is what lets a non-finite guard trip name the offending
//     module even when nobody asked for a profile.
//   * ProfilerEnabled() (armed by `bigcity_cli --profile`): adds
//     timestamps, FLOP/byte costs, aggregation into the Profiler table,
//     and op spans in the chrome-trace buffer.
// BIGCITY_OBS=OFF compiles every probe below out to nothing.
//
// Like the rest of src/obs this header depends on nothing outside the
// obs library.

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#if !defined(BIGCITY_OBS)
#define BIGCITY_OBS 1
#endif

namespace bigcity::obs {

/// Arms/disarms timing + aggregation (one relaxed load per op when off).
void SetProfilerEnabled(bool enabled);
bool ProfilerEnabled();

namespace internal {

/// One live op invocation on the calling thread's op stack.
struct OpFrame {
  const char* op = "";
  const char* module = "";
  bool backward = false;
  bool timed = false;  // Profiler was enabled when the frame opened.
  uint64_t start_us = 0;
  uint64_t child_us = 0;  // Total time of directly nested ops.
  uint64_t flops = 0;
  uint64_t bytes = 0;
  // Estimated backward cost, stashed at forward time so the autograd
  // layer can bill the node's backward_fn without re-deriving shapes.
  uint64_t bwd_flops = 0;
  uint64_t bwd_bytes = 0;
};

/// Innermost live op on this thread, or nullptr outside any ScopedOp.
const OpFrame* CurrentOpFrame();

/// Innermost ScopedModule path on this thread ("" outside any scope).
const char* CurrentModulePath();

}  // namespace internal

/// Per-(module, op, direction) accumulated cost.
struct OpStats {
  std::string module;  // NamedParameters()-style dotted path, "" = untagged.
  std::string op;
  bool backward = false;
  uint64_t calls = 0;
  uint64_t self_us = 0;   // Wall time minus directly nested ops.
  uint64_t total_us = 0;  // Inclusive wall time.
  uint64_t flops = 0;
  uint64_t bytes = 0;
};

/// Per-module rollup. `self_us` covers ops attributed exactly to `module`;
/// `total_us` additionally includes every descendant path (dotted-prefix
/// children), so the root row equals the whole profiled op time.
struct ModuleStats {
  std::string module;
  uint64_t calls = 0;
  uint64_t self_us = 0;
  uint64_t total_us = 0;
  uint64_t flops = 0;
  uint64_t bytes = 0;
};

/// Process-wide profile aggregation. RecordOp is mutex-guarded; it is only
/// reached when ProfilerEnabled(), so the disabled path stays lock-free.
class Profiler {
 public:
  Profiler();

  static Profiler& Global();

  void RecordOp(const char* op, const char* module, bool backward,
                uint64_t self_us, uint64_t total_us, uint64_t flops,
                uint64_t bytes);

  /// All rows, heaviest self time first.
  std::vector<OpStats> Rows() const;
  /// Module rollup, heaviest inclusive time first.
  std::vector<ModuleStats> ModuleRollup() const;
  /// Sum of self_us over all rows == total profiled wall time (self times
  /// partition inclusive time exactly, so this is double-count free).
  uint64_t TotalSelfUs() const;

  /// {"ops":[...],"modules":[...],"total_self_us":N}.
  std::string ToJson() const;
  /// Human-readable op table + module rollup (top `max_rows` each). GFLOP
  /// is a row's total work, GFLOP/s that work over the row's self time.
  void PrintTable(std::FILE* out, size_t max_rows = 32) const;

  void Reset();

 private:
  /// The row for (module, op, backward), inserted on first use. Requires mu_.
  OpStats& Row(const char* op, const char* module, bool backward);

  mutable std::mutex mu_;
  // Keyed by (module, op, backward); strings are copied on first insert so
  // rows never dangle on module destruction.
  std::map<std::tuple<std::string, std::string, bool>, OpStats> rows_;
  // Process-unique tag of rows_' current contents, renewed by Reset(); a
  // thread's cached row pointers are valid only while it matches.
  uint64_t generation_;
};

/// RAII op scope. Always pushes a tag frame under BIGCITY_OBS=ON (cheap:
/// two thread-local writes, no clock); times and records only when
/// ProfilerEnabled(). `module` defaults to the innermost ScopedModule.
class ScopedOp {
 public:
  explicit ScopedOp(const char* op, bool backward = false,
                    const char* module = nullptr);
  ~ScopedOp();

  /// Estimated cost of this invocation (this direction).
  void SetCost(uint64_t flops, uint64_t bytes);
  /// Estimated cost of the matching backward pass, picked up by the
  /// autograd layer when it wraps the node's backward_fn.
  void SetBackwardCost(uint64_t flops, uint64_t bytes);

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;
};

/// RAII module-attribution scope; ops opened inside attribute to `path`
/// (innermost scope wins). `path` must outlive the scope — in practice it
/// is Module::module_path().c_str() of a live module.
class ScopedModule {
 public:
  explicit ScopedModule(const char* path);
  ~ScopedModule();

  ScopedModule(const ScopedModule&) = delete;
  ScopedModule& operator=(const ScopedModule&) = delete;
};

}  // namespace bigcity::obs

#if BIGCITY_OBS

/// Opens an op scope for the rest of the enclosing block. One per
/// function body (fixed variable name, so cost macros can find it).
#define BIGCITY_PROFILE_OP(op_name) \
  ::bigcity::obs::ScopedOp bigcity_profile_op_((op_name))

/// Attaches forward / backward cost estimates to the enclosing
/// BIGCITY_PROFILE_OP. Arguments are not evaluated under BIGCITY_OBS=OFF,
/// so compute them inline in the macro call.
#define BIGCITY_PROFILE_OP_COST(flops, bytes) \
  bigcity_profile_op_.SetCost((flops), (bytes))
#define BIGCITY_PROFILE_OP_BWD_COST(flops, bytes) \
  bigcity_profile_op_.SetBackwardCost((flops), (bytes))

/// Attributes ops for the rest of the enclosing block to `path_cstr`.
#define BIGCITY_PROFILE_MODULE(path_cstr) \
  ::bigcity::obs::ScopedModule bigcity_profile_module_((path_cstr))

#else  // !BIGCITY_OBS

#define BIGCITY_PROFILE_OP(op_name) \
  do {                              \
  } while (0)
#define BIGCITY_PROFILE_OP_COST(flops, bytes) \
  do {                                        \
  } while (0)
#define BIGCITY_PROFILE_OP_BWD_COST(flops, bytes) \
  do {                                            \
  } while (0)
#define BIGCITY_PROFILE_MODULE(path_cstr) \
  do {                                    \
  } while (0)

#endif  // BIGCITY_OBS

#endif  // BIGCITY_OBS_PROFILER_H_
