// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload serve_walk|serve_mixed|train --seed N --seconds S
//             --trace 0|1 [--smoke] [--out-dir DIR]
//             [--git-sha SHA] [--source-digest HEX] [--digest-only]
//             [--inject-mismatch]
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": M, "metrics": {...}}
// A failed correctness check prints a message to standard error and exits
// with status 1 without printing a result. perfbench/run.py builds this
// binary and is the command the benchmark is run with.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "nn/kernels/kernels.h"
#include "workloads.h"

namespace {

/// The widest SIMD level the CPU reports (the GEMM dispatcher uses it).
const char* WidestSimd() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("avx")) return "avx";
  if (__builtin_cpu_supports("sse4.2")) return "sse4.2";
  return "baseline";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_walk|serve_mixed|train "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--out-dir DIR] [--git-sha SHA] [--source-digest HEX] "
               "[--digest-only] [--inject-mismatch]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace kernels = bigcity::nn::kernels;
  perfbench::RunOptions options;
  std::string git_sha = "unknown", source_digest = "unknown";
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--digest-only") {
      digest_only = true;
    } else if (arg == "--inject-mismatch") {
      options.inject_mismatch = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else if (arg == "--source-digest" && has_value) {
      source_digest = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!perfbench::KnownWorkload(options.workload) || !(options.seconds > 0)) {
    return Usage();
  }
  if (digest_only) {
    std::printf("%s\n", perfbench::InputDigest(options.workload, options.seed,
                                               options.smoke)
                            .c_str());
    return 0;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  // Every workload runs its kernels on one thread (serving: per worker).
  kernels::SetNumThreads(1);

  char provenance[1024];
  std::snprintf(
      provenance, sizeof provenance,
      "{\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"build_type\": "
      "\"%s\", \"bigcity_obs\": %d, \"bigcity_native_arch\": %d, "
      "\"gemm_backend\": \"%s\", \"simd\": \"%s\", \"nproc\": %u, "
      "\"kernel_threads\": %d, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"smoke\": %d}",
      git_sha.c_str(), source_digest.c_str(), PERFBENCH_BUILD_TYPE,
      BIGCITY_OBS, PERFBENCH_NATIVE_ARCH,
      kernels::backend() == kernels::GemmBackend::kNaive ? "naive" : "blocked",
      WidestSimd(), std::thread::hardware_concurrency(), kernels::NumThreads(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? 1 : 0);
  std::printf("provenance %s\n", provenance);
  std::fflush(stdout);

  perfbench::RunResult result = perfbench::RunWorkload(options);
  std::printf("inputs digest %s\n", result.digest.c_str());
  if (!result.error.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s: correctness check failed: %s\n",
                 options.workload.c_str(), result.error.c_str());
    return 1;
  }
  result.ledger.Print(stdout);
  const std::string line =
      "{\"correct\": true, \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + result.ledger.Json() + "}";
  // The full record (provenance, input digest, metrics) for the ledger.
  const std::string record_path =
      options.out_dir + "/" + options.workload + "-seed" +
      std::to_string(options.seed) + (options.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"provenance\": %s, \"inputs_digest\": \"%s\", "
                 "\"result\": %s}\n",
                 provenance, result.digest.c_str(), line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
