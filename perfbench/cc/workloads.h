// The benchmark's three workloads (see README.md for why each exists):
//   serve_walk   autoregressive next-hop decoding at serve scale,
//   serve_mixed  all eight tasks in a seeded mix on the default model,
//   train        the two-stage training schedule on the default model.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "ledger.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Adds a traced phase and the per-layer probe; the ledger then holds
  /// the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Tiny models and budgets, for the benchmark's own tests.
  bool smoke = false;
  /// Corrupts one checked output (a served output's first value, or the
  /// train schedule's final loss) so the tests can see the gate fail.
  bool inject_mismatch = false;
  /// Directory (inside the checkout) for the trainer's run reports and
  /// the chrome://tracing file of a traced run.
  std::string out_dir = ".";
};

struct RunResult {
  /// Empty when every correctness check passed; otherwise what failed.
  std::string error;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string digest;  // Of the generated inputs.
  Ledger ledger;
};

bool KnownWorkload(const std::string& name);

/// Digest of the inputs `seed` generates for `workload`, without running.
std::string InputDigest(const std::string& workload, uint64_t seed,
                        bool smoke);

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
