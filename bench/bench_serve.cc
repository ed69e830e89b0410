// Closed-loop load benchmark for the inference serving runtime: N clients
// per worker issue back-to-back next-hop requests at 1x/2x/4x the worker
// count and the harness reports throughput, latency percentiles, and the
// shed rate per load level, plus
//   - a batching A/B: an autoregressive walk workload (clients decode
//     trajectories hop by hop) at the same three load levels against a
//     batching-off server (batch max 1, no KV sessions) and a batching-on
//     server (DESIGN.md §4.14), both with a deadline and a queue wide
//     enough to admit the whole closed loop, reporting the 4x-load
//     throughput ratio and the mean batch size, and
//   - a "reload under load" section measuring the same numbers across a
//     live hot-swap (a version published mid-run at 2x load; §4.12).
// Prints tables and writes BENCH_serve.json in the working directory;
// tools/bench_gate --serve-current/--serve-baseline gates the batching
// section's ratios against bench/baselines/BENCH_serve.json.
//
// The primary levels' queue is deliberately sized at the worker count so
// the 2x/4x levels overload it: the interesting number is how the runtime
// degrades (fast kResourceExhausted sheds, bounded latency for admitted
// work), not peak throughput. The A/B queue is sized at the 4x client
// count instead — batching exists to absorb exactly the backlog the tight
// queue would shed.
//
// Usage: bench_serve [--city XA|BJ|CD] [--workers N] [--requests N]
//                    [--threads N] [--batch-max N] [--batch-window-us F]
//                    [--deadline-ms F] [--no-batching] [--fast] [--out PATH]
//                    [--trace-out PATH]
//
// --trace-out arms request-scoped tracing for the whole run and writes a
// chrome://tracing JSON at exit: each request renders as one connected
// flow (submit -> batch forward -> finish) across threads, which
// ci/validate_artifacts.py trace asserts on the 4x-load smoke.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "nn/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "util/table_printer.h"

namespace {

struct LevelResult {
  int multiplier = 1;
  int clients = 0;
  int issued = 0;
  int ok = 0;
  int shed = 0;
  int other = 0;
  double seconds = 0;
  double batch_size_sum = 0;         // Over OK responses.
  std::vector<double> latencies_us;  // Completed (OK) requests only.

  double Percentile(double q) const {
    if (latencies_us.empty()) return 0;
    const size_t rank = std::min(
        latencies_us.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies_us.size())));
    return latencies_us[rank];
  }
  double Throughput() const { return seconds > 0 ? ok / seconds : 0; }
  double ShedRate() const {
    return issued > 0 ? static_cast<double>(shed) / issued : 0;
  }
  double MeanBatchSize() const { return ok > 0 ? batch_size_sum / ok : 0; }
};

/// One closed-loop level: `multiplier * workers` clients each issue
/// `requests_per_client` back-to-back sync requests from the pool.
LevelResult RunLevel(bigcity::serve::InferenceServer& server,
                     const std::vector<bigcity::data::Trajectory>& pool,
                     int multiplier, int workers, int requests_per_client) {
  using namespace bigcity;  // NOLINT — bench brevity.
  LevelResult level;
  level.multiplier = multiplier;
  level.clients = multiplier * workers;
  std::vector<std::vector<double>> per_client_latencies(
      static_cast<size_t>(level.clients));
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::atomic<uint64_t> batch_sum{0};
  obs::WallTimer watch;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(level.clients));
  for (int c = 0; c < level.clients; ++c) {
    clients.emplace_back([&, c] {
      auto& latencies = per_client_latencies[static_cast<size_t>(c)];
      latencies.reserve(static_cast<size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        serve::Request request;
        request.task = core::Task::kNextHop;
        request.trajectory =
            pool[static_cast<size_t>(c * requests_per_client + r) %
                 pool.size()];
        serve::Response response = server.ServeSync(std::move(request));
        if (response.status.ok()) {
          ok++;
          batch_sum += static_cast<uint64_t>(response.batch_size);
          latencies.push_back(response.total_us);
        } else if (response.outcome == serve::Outcome::kShed) {
          shed++;
        } else {
          other++;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  level.seconds = watch.ElapsedSeconds();
  level.issued = level.clients * requests_per_client;
  level.ok = ok.load();
  level.shed = shed.load();
  level.other = other.load();
  level.batch_size_sum = static_cast<double>(batch_sum.load());
  for (auto& latencies : per_client_latencies) {
    level.latencies_us.insert(level.latencies_us.end(), latencies.begin(),
                              latencies.end());
  }
  std::sort(level.latencies_us.begin(), level.latencies_us.end());
  return level;
}

/// Autoregressive closed-loop level: each client decodes trajectories hop
/// by hop — request r extends request r-1 by one point, the workload the
/// KV sessions and batched prefill exist for. Both A/B arms run this same
/// walk, so the only variable is the engine.
LevelResult RunLevelWalk(bigcity::serve::InferenceServer& server,
                         const std::vector<bigcity::data::Trajectory>& pool,
                         int multiplier, int workers, int requests_per_client,
                         int max_prefix) {
  using namespace bigcity;  // NOLINT — bench brevity.
  LevelResult level;
  level.multiplier = multiplier;
  level.clients = multiplier * workers;
  std::vector<std::vector<double>> per_client_latencies(
      static_cast<size_t>(level.clients));
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::atomic<uint64_t> batch_sum{0};
  obs::WallTimer watch;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(level.clients));
  for (int c = 0; c < level.clients; ++c) {
    clients.emplace_back([&, c] {
      auto& latencies = per_client_latencies[static_cast<size_t>(c)];
      latencies.reserve(static_cast<size_t>(requests_per_client));
      size_t next_traj = static_cast<size_t>(c);
      int mine = 0;
      while (mine < requests_per_client) {
        const data::Trajectory& full = pool[next_traj % pool.size()];
        next_traj += static_cast<size_t>(level.clients);
        const int cap = std::min(full.length(), max_prefix);
        if (cap < 2) continue;
        for (int len = 2; len <= cap && mine < requests_per_client; ++len) {
          serve::Request request;
          request.task = core::Task::kNextHop;
          request.trajectory = full;
          request.trajectory.points.resize(static_cast<size_t>(len));
          ++mine;
          serve::Response response = server.ServeSync(std::move(request));
          if (response.status.ok()) {
            ok++;
            batch_sum += static_cast<uint64_t>(response.batch_size);
            latencies.push_back(response.total_us);
          } else if (response.outcome == serve::Outcome::kShed) {
            shed++;
          } else {
            other++;
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  level.seconds = watch.ElapsedSeconds();
  level.issued = level.clients * requests_per_client;
  level.ok = ok.load();
  level.shed = shed.load();
  level.other = other.load();
  level.batch_size_sum = static_cast<double>(batch_sum.load());
  for (auto& latencies : per_client_latencies) {
    level.latencies_us.insert(level.latencies_us.end(), latencies.begin(),
                              latencies.end());
  }
  std::sort(level.latencies_us.begin(), level.latencies_us.end());
  return level;
}

uint64_t CounterValue(const char* name) {
  return bigcity::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Cache/batch counter deltas over one A/B arm (all zero in obs-off
/// builds, where the probes compile out; the validator treats that build
/// flavor accordingly).
struct ArmCounters {
  uint64_t kv_hit = 0, kv_miss = 0, tok_hit = 0, tok_miss = 0;
  uint64_t batch_fallback = 0;

  static ArmCounters Capture() {
    ArmCounters counters;
    counters.kv_hit = CounterValue("serve.cache.kv.hit");
    counters.kv_miss = CounterValue("serve.cache.kv.miss");
    counters.tok_hit = CounterValue("serve.cache.tokenizer.hit");
    counters.tok_miss = CounterValue("serve.cache.tokenizer.miss");
    counters.batch_fallback = CounterValue("serve.batch.fallback");
    return counters;
  }
  ArmCounters DeltaSince(const ArmCounters& before) const {
    ArmCounters delta;
    delta.kv_hit = kv_hit - before.kv_hit;
    delta.kv_miss = kv_miss - before.kv_miss;
    delta.tok_hit = tok_hit - before.tok_hit;
    delta.tok_miss = tok_miss - before.tok_miss;
    delta.batch_fallback = batch_fallback - before.batch_fallback;
    return delta;
  }
};

void PrintJsonLevel(std::FILE* f, const char* indent, const LevelResult& level,
                    bool trailing_comma) {
  std::fprintf(f,
               "%s{\"load_multiplier\": %d, \"clients\": %d, "
               "\"issued\": %d, \"ok\": %d, \"shed\": %d, \"other\": %d, "
               "\"seconds\": %.4f, \"throughput_rps\": %.2f, "
               "\"shed_rate\": %.4f, \"mean_batch_size\": %.2f, "
               "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}%s\n",
               indent, level.multiplier, level.clients, level.issued,
               level.ok, level.shed, level.other, level.seconds,
               level.Throughput(), level.ShedRate(), level.MeanBatchSize(),
               level.Percentile(0.5), level.Percentile(0.95),
               level.Percentile(0.99), trailing_comma ? "," : "");
}

void AddTableRow(bigcity::util::TablePrinter* table, const std::string& label,
                 const LevelResult& level) {
  using bigcity::util::TablePrinter;
  table->AddRow({label, TablePrinter::Num(level.clients, 0),
                 TablePrinter::Num(level.issued, 0),
                 TablePrinter::Num(level.ok, 0),
                 TablePrinter::Num(level.ShedRate(), 3),
                 TablePrinter::Num(level.MeanBatchSize(), 2),
                 TablePrinter::Num(level.Throughput(), 1),
                 TablePrinter::Num(level.Percentile(0.5) / 1e3, 2),
                 TablePrinter::Num(level.Percentile(0.95) / 1e3, 2),
                 TablePrinter::Num(level.Percentile(0.99) / 1e3, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bigcity;  // NOLINT — bench brevity.
  std::string out = "BENCH_serve.json";
  std::string city = "XA";
  int workers = 2;
  int requests_per_client = 32;
  int threads = nn::kernels::NumThreads();
  int batch_max = 8;
  double batch_window_us = 200.0;
  double deadline_ms = 250.0;
  bool batching = true;
  bool fast = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--no-batching") == 0) {
      batching = false;
    } else if (i + 1 < argc && std::strcmp(argv[i], "--city") == 0) {
      city = argv[++i];
    } else if (i + 1 < argc && std::strcmp(argv[i], "--workers") == 0) {
      workers = std::atoi(argv[++i]);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--requests") == 0) {
      requests_per_client = std::atoi(argv[++i]);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(argv[++i]);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--batch-max") == 0) {
      batch_max = std::atoi(argv[++i]);
    } else if (i + 1 < argc &&
               std::strcmp(argv[i], "--batch-window-us") == 0) {
      batch_window_us = std::atof(argv[++i]);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = std::atof(argv[++i]);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--out") == 0) {
      out = argv[++i];
    } else if (i + 1 < argc && std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: bench_serve [--city XA|BJ|CD] [--workers N] "
          "[--requests N] [--threads N] [--batch-max N] "
          "[--batch-window-us F] [--deadline-ms F] [--no-batching] "
          "[--fast] [--out PATH] [--trace-out PATH]\n");
      return 2;
    }
  }
  if (fast) requests_per_client = std::min(requests_per_client, 8);
  if (!trace_out.empty()) {
    // Arm before the servers exist so submit-side spans trace too. A 1M
    // ring keeps every span of a --fast smoke; a full run keeps the tail.
    obs::TraceBuffer::Global().SetCapacity(size_t{1} << 20);
    obs::SetTracingEnabled(true);
  }
  nn::kernels::SetNumThreads(threads);
  threads = nn::kernels::NumThreads();

  data::CityDataset dataset(bench::BenchCity(city));
  core::BigCityConfig model_config;
  model_config.threads = threads;
  if (fast) {
    model_config.d_model = 32;
    model_config.num_heads = 2;
    model_config.num_layers = 1;
    model_config.spatial_dim = 16;
    model_config.gat_hidden = 16;
  }
  std::printf("BIGCity serving benchmark (%s, %d worker%s, %d kernel "
              "thread%s%s%s).\n",
              city.c_str(), workers, workers == 1 ? "" : "s", threads,
              threads == 1 ? "" : "s", fast ? ", fast" : "",
              batching ? "" : ", batching off");

  serve::ServeOptions options;
  options.num_workers = workers;
  options.queue_capacity = workers;  // Tight bound: overload must shed.
  options.batch_max = batching ? batch_max : 1;
  options.batch_window_us = batch_window_us;
  serve::InferenceServer server(&dataset, model_config, options);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  const std::vector<data::Trajectory>& pool = dataset.test();
  std::vector<LevelResult> levels;
  for (int multiplier : {1, 2, 4}) {
    levels.push_back(
        RunLevel(server, pool, multiplier, workers, requests_per_client));
  }
  server.Stop();

  // --- Batching A/B ------------------------------------------------------
  // An autoregressive closed loop (clients decode trajectories hop by
  // hop), twice: once against the pre-batching runtime shape (batches of
  // one, no KV sessions) and once with the continuous-batching engine
  // (batched prefill + KV extension decodes).
  // Both arms get the serving deadline and a queue wide enough to admit
  // every 4x client, so the only variable is the engine — the headline
  // number is the 4x throughput ratio.
  serve::ServeOptions ab_options = options;
  ab_options.queue_capacity = 4 * workers;
  ab_options.default_deadline_ms = deadline_ms;
  // The A/B runs a serve-scale backbone (the paper's is GPT-2-sized; the
  // default config here is sized for single-core training): the engine
  // targets the regime where forwards are dominated by transformer
  // compute, which a d_model-64 two-layer stack never reaches — its
  // requests are all tokenizer, head, and queueing overhead. --fast keeps
  // the tiny config so CI smoke stays cheap.
  core::BigCityConfig ab_config = model_config;
  if (!fast) {
    ab_config.d_model = 256;
    ab_config.num_heads = 8;
    ab_config.num_layers = 6;
  }
  std::vector<LevelResult> arm_off, arm_on;
  ArmCounters on_counters;
  for (int arm = 0; arm < 2; ++arm) {
    serve::ServeOptions arm_options = ab_options;
    const bool arm_batching = arm == 1;
    if (arm_batching) {
      // Every 4x client's walk may land on any worker; size each worker's
      // session store to hold them all.
      arm_options.kv_sessions = std::max(arm_options.kv_sessions,
                                         4 * workers);
    } else {
      arm_options.batch_max = 1;
      arm_options.kv_sessions = 0;
    }
    serve::InferenceServer ab_server(&dataset, ab_config, arm_options);
    if (auto status = ab_server.Start(); !status.ok()) {
      std::fprintf(stderr, "A/B server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::vector<LevelResult>& arm_levels = arm_batching ? arm_on : arm_off;
    const ArmCounters before = ArmCounters::Capture();
    for (int multiplier : {1, 2, 4}) {
      arm_levels.push_back(RunLevelWalk(ab_server, pool, multiplier, workers,
                                        requests_per_client,
                                        model_config.max_trajectory_tokens));
    }
    if (arm_batching) on_counters = ArmCounters::Capture().DeltaSince(before);
    ab_server.Stop();
  }
  const LevelResult& off_4x = arm_off.back();
  const LevelResult& on_4x = arm_on.back();
  const double speedup_4x = off_4x.Throughput() > 0
                                ? on_4x.Throughput() / off_4x.Throughput()
                                : 0;
  const bool p99_within_deadline =
      on_4x.Percentile(0.99) <= deadline_ms * 1e3;

  // --- Reload under load -------------------------------------------------
  // 2x clients hammer a second server while a new version is published
  // mid-run: the canary/rolling swap must complete with every request
  // still getting a definite outcome, and the latency percentiles across
  // the whole phase (staging, canary, swap) are the interesting number.
  LevelResult reload;
  reload.multiplier = 2;
  reload.clients = 2 * workers;
  bool swap_completed = false;
  int served_by_new_version = 0;
  {
    const std::string model_dir =
        (std::filesystem::temp_directory_path() / "bigcity_bench_reload")
            .string();
    std::filesystem::remove_all(model_dir);
    std::filesystem::create_directories(model_dir);
    serve::ServeOptions reload_options = options;
    // A real deployment swaps under a latency SLO; give every request the
    // deadline the JSON reports so "p99 within deadline" is checkable.
    reload_options.default_deadline_ms = 250;
    reload_options.rollout.model_dir = model_dir;
    reload_options.rollout.poll_interval_ms = 20;
    // The latency criterion is effectively disabled (the staged version
    // keeps hitting cold per-trajectory KV sessions for the whole canary
    // window under this pool, which is exactly the false-positive the
    // gate's slow-start exists for, magnified by 2x overload): this is a
    // throughput bench measuring swap mechanics, not gate sensitivity —
    // rollout_test and chaos_soak cover the gate.
    reload_options.rollout.canary_min_requests = 32;
    reload_options.rollout.canary_slow_start_samples = 16;
    reload_options.rollout.canary_latency_inflation = 1000.0;
    serve::InferenceServer reload_server(&dataset, model_config,
                                         reload_options);
    if (auto status = reload_server.Start(); !status.ok()) {
      std::fprintf(stderr, "reload server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::vector<std::vector<double>> per_client_latencies(
        static_cast<size_t>(reload.clients));
    std::atomic<bool> stop{false};
    std::atomic<int> ok{0}, shed{0}, other{0}, issued{0}, new_version{0};
    obs::WallTimer watch;
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(reload.clients));
    for (int c = 0; c < reload.clients; ++c) {
      clients.emplace_back([&, c] {
        auto& latencies = per_client_latencies[static_cast<size_t>(c)];
        for (int r = 0; !stop.load(std::memory_order_relaxed); ++r) {
          serve::Request request;
          request.task = core::Task::kNextHop;
          request.trajectory =
              pool[static_cast<size_t>(c * 131 + r) % pool.size()];
          issued++;
          serve::Response response = reload_server.ServeSync(
              std::move(request));
          if (response.status.ok()) {
            ok++;
            latencies.push_back(response.total_us);
            if (response.model_version == 1) new_version++;
          } else if (response.outcome == serve::Outcome::kShed) {
            shed++;
            // Back off instead of spin-retrying into the full queue, so
            // the issue rate (and hence the shed rate) stays a property
            // of the 2x overload, not of how fast sheds bounce.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } else {
            other++;
          }
        }
      });
    }
    // Let the load settle, then publish a same-architecture variant and
    // wait for the rollout to promote it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    core::BigCityConfig variant_config = model_config;
    variant_config.seed = model_config.seed + 17;
    auto published = serve::PublishModel(
        model_dir, core::BigCityModel(&dataset, variant_config));
    if (published.ok()) {
      swap_completed =
          reload_server.WaitForStableVersion(published.value(), 60000);
    } else {
      std::fprintf(stderr, "reload publish failed: %s\n",
                   published.status().ToString().c_str());
    }
    // A short post-swap tail so the percentiles include new-version serving.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true, std::memory_order_relaxed);
    for (auto& client : clients) client.join();
    reload_server.Stop();
    reload.seconds = watch.ElapsedSeconds();
    reload.issued = issued.load();
    reload.ok = ok.load();
    reload.shed = shed.load();
    reload.other = other.load();
    served_by_new_version = new_version.load();
    for (auto& latencies : per_client_latencies) {
      reload.latencies_us.insert(reload.latencies_us.end(),
                                 latencies.begin(), latencies.end());
    }
    std::sort(reload.latencies_us.begin(), reload.latencies_us.end());
    std::filesystem::remove_all(model_dir);
  }
  if (reload.ok + reload.shed + reload.other != reload.issued) {
    std::fprintf(stderr,
                 "reload: %d requests without a definite outcome\n",
                 reload.issued - reload.ok - reload.shed - reload.other);
    return 1;
  }

  // --- Hang under load ---------------------------------------------------
  // 2x clients hammer a watchdog-enabled server while one worker is wedged
  // mid-request by the stall fault: the watchdog must reap the hung worker
  // (its in-flight requests fail fast with kDeadlineExceeded), spin up a
  // replacement, and throughput must recover to the pre-hang baseline —
  // recovery_ms is the headline number.
  LevelResult hang;
  hang.multiplier = 2;
  hang.clients = 2 * workers;
  double prehang_rps = 0, posthang_rps = 0, recovery_ms = -1;
  uint64_t hang_reaps = 0, hang_replacements = 0;
  int hang_deadline = 0;
  const double hang_threshold_ms = 100;
  {
    serve::ServeOptions hang_options = options;
    // Queue wide enough for the closed loop so sheds don't muddy the
    // throughput signal; the variable under test is the reap.
    hang_options.queue_capacity = 4 * workers;
    hang_options.hang_threshold_ms = hang_threshold_ms;
    hang_options.watchdog_poll_ms = 5;
    serve::InferenceServer hang_server(&dataset, model_config, hang_options);
    if (auto status = hang_server.Start(); !status.ok()) {
      std::fprintf(stderr, "hang server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::vector<std::vector<double>> per_client_latencies(
        static_cast<size_t>(hang.clients));
    std::atomic<bool> stop{false};
    std::atomic<int> ok{0}, shed{0}, other{0}, issued{0}, deadline_failed{0};
    obs::WallTimer watch;
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(hang.clients));
    for (int c = 0; c < hang.clients; ++c) {
      clients.emplace_back([&, c] {
        auto& latencies = per_client_latencies[static_cast<size_t>(c)];
        for (int r = 0; !stop.load(std::memory_order_relaxed); ++r) {
          serve::Request request;
          request.task = core::Task::kNextHop;
          request.trajectory =
              pool[static_cast<size_t>(c * 131 + r) % pool.size()];
          issued++;
          serve::Response response =
              hang_server.ServeSync(std::move(request));
          if (response.status.ok()) {
            ok++;
            latencies.push_back(response.total_us);
          } else if (response.outcome == serve::Outcome::kShed) {
            shed++;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } else if (response.status.code() ==
                     util::StatusCode::kDeadlineExceeded) {
            deadline_failed++;
          } else {
            other++;
          }
        }
      });
    }
    // OK-responses-per-second over one observation window of the loop.
    auto ok_rate = [&ok](double window_ms) {
      const int before = ok.load(std::memory_order_relaxed);
      obs::WallTimer window;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(window_ms));
      const double seconds = window.ElapsedSeconds();
      return seconds > 0
                 ? (ok.load(std::memory_order_relaxed) - before) / seconds
                 : 0.0;
    };
    // Baseline: the smaller of two windows, so one lucky window can't set
    // an unreachable recovery bar.
    prehang_rps = std::min(ok_rate(300), ok_rate(300));
    // Wedge one worker far past the threshold; Disarm below releases the
    // parked thread once the reap is confirmed.
    util::FaultInjection::Arm(util::kFaultServeWorkerStall, 0, 1, 60000);
    obs::WallTimer reap_watch;
    while (hang_server.watchdog_reaps() == 0 &&
           reap_watch.ElapsedSeconds() < 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
    if (hang_server.watchdog_reaps() == 0) {
      std::fprintf(stderr, "hang: wedged worker was never reaped\n");
      stop.store(true, std::memory_order_relaxed);
      for (auto& client : clients) client.join();
      hang_server.Stop();
      return 1;
    }
    obs::WallTimer recovery_watch;
    while (recovery_watch.ElapsedSeconds() < 10) {
      if (ok_rate(100) >= 0.9 * prehang_rps) {
        recovery_ms = recovery_watch.ElapsedSeconds() * 1e3;
        break;
      }
    }
    posthang_rps = ok_rate(300);
    stop.store(true, std::memory_order_relaxed);
    for (auto& client : clients) client.join();
    hang_reaps = hang_server.watchdog_reaps();
    hang_replacements = hang_server.watchdog_replacements();
    hang_server.Stop();
    hang.seconds = watch.ElapsedSeconds();
    hang.issued = issued.load();
    hang.ok = ok.load();
    hang.shed = shed.load();
    hang.other = other.load();
    hang_deadline = deadline_failed.load();
    for (auto& latencies : per_client_latencies) {
      hang.latencies_us.insert(hang.latencies_us.end(), latencies.begin(),
                               latencies.end());
    }
    std::sort(hang.latencies_us.begin(), hang.latencies_us.end());
  }
  if (hang.ok + hang.shed + hang.other + hang_deadline != hang.issued) {
    std::fprintf(stderr, "hang: %d requests without a definite outcome\n",
                 hang.issued - hang.ok - hang.shed - hang.other -
                     hang_deadline);
    return 1;
  }

  util::TablePrinter table(
      {"Load", "Clients", "Issued", "OK", "Shed rate", "Batch", "Req/s",
       "p50 ms", "p95 ms", "p99 ms"});
  for (const LevelResult& level : levels) {
    AddTableRow(&table, std::to_string(level.multiplier) + "x", level);
  }
  for (const LevelResult& level : arm_off) {
    AddTableRow(&table, std::to_string(level.multiplier) + "x off", level);
  }
  for (const LevelResult& level : arm_on) {
    AddTableRow(&table, std::to_string(level.multiplier) + "x on", level);
  }
  AddTableRow(&table, "2x+swap", reload);
  AddTableRow(&table, "2x+hang", hang);
  table.Print();
  std::printf("batching A/B at 4x load: %.1f -> %.1f req/s (%.2fx), mean "
              "batch %.2f, p99 %s %.0fms deadline\n",
              off_4x.Throughput(), on_4x.Throughput(), speedup_4x,
              on_4x.MeanBatchSize(),
              p99_within_deadline ? "within" : "OVER", deadline_ms);
  std::printf("batching-on caches: kv %llu hit / %llu miss, ST feature "
              "library %llu hit / %llu miss, %llu batch fallbacks\n",
              static_cast<unsigned long long>(on_counters.kv_hit),
              static_cast<unsigned long long>(on_counters.kv_miss),
              static_cast<unsigned long long>(on_counters.tok_hit),
              static_cast<unsigned long long>(on_counters.tok_miss),
              static_cast<unsigned long long>(on_counters.batch_fallback));
  std::printf("reload under load: swap %s, %d responses served by the new "
              "version\n",
              swap_completed ? "completed" : "DID NOT COMPLETE",
              served_by_new_version);
  if (recovery_ms >= 0) {
    std::printf("hang under load: %.1f -> %.1f req/s, recovered to 90%% of "
                "baseline in %.0f ms (%llu reap%s, %llu replacement%s, "
                "%d reaped requests)\n",
                prehang_rps, posthang_rps, recovery_ms,
                static_cast<unsigned long long>(hang_reaps),
                hang_reaps == 1 ? "" : "s",
                static_cast<unsigned long long>(hang_replacements),
                hang_replacements == 1 ? "" : "s", hang_deadline);
  } else {
    std::printf("hang under load: %.1f -> %.1f req/s, DID NOT RECOVER to "
                "90%% of baseline within 10s (%llu reaps)\n",
                prehang_rps, posthang_rps,
                static_cast<unsigned long long>(hang_reaps));
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"city\": \"%s\",\n"
               "  \"workers\": %d,\n"
               "  \"kernel_threads\": %d,\n"
               "  \"queue_capacity\": %d,\n"
               "  \"requests_per_client\": %d,\n"
               "  \"levels\": [\n",
               city.c_str(), workers, threads, workers, requests_per_client);
  for (size_t i = 0; i < levels.size(); ++i) {
    PrintJsonLevel(f, "    ", levels[i], i + 1 < levels.size());
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"batching\": {\n"
               "    \"batch_max\": %d,\n"
               "    \"batch_window_us\": %.1f,\n"
               "    \"deadline_ms\": %.1f,\n"
               "    \"queue_capacity\": %d,\n"
               "    \"d_model\": %lld,\n"
               "    \"num_layers\": %lld,\n"
               "    \"off\": [\n",
               batch_max, batch_window_us, deadline_ms,
               ab_options.queue_capacity,
               static_cast<long long>(ab_config.d_model),
               static_cast<long long>(ab_config.num_layers));
  for (size_t i = 0; i < arm_off.size(); ++i) {
    PrintJsonLevel(f, "      ", arm_off[i], i + 1 < arm_off.size());
  }
  std::fprintf(f, "    ],\n    \"on\": [\n");
  for (size_t i = 0; i < arm_on.size(); ++i) {
    PrintJsonLevel(f, "      ", arm_on[i], i + 1 < arm_on.size());
  }
  std::fprintf(f,
               "    ],\n"
               "    \"speedup_4x\": %.3f,\n"
               "    \"mean_batch_size_4x\": %.3f,\n"
               "    \"p99_within_deadline\": %s,\n"
               "    \"counters\": {\"serve.cache.kv.hit\": %llu, "
               "\"serve.cache.kv.miss\": %llu, "
               "\"serve.cache.tokenizer.hit\": %llu, "
               "\"serve.cache.tokenizer.miss\": %llu, "
               "\"serve.batch.fallback\": %llu}\n"
               "  },\n",
               speedup_4x, on_4x.MeanBatchSize(),
               p99_within_deadline ? "true" : "false",
               static_cast<unsigned long long>(on_counters.kv_hit),
               static_cast<unsigned long long>(on_counters.kv_miss),
               static_cast<unsigned long long>(on_counters.tok_hit),
               static_cast<unsigned long long>(on_counters.tok_miss),
               static_cast<unsigned long long>(on_counters.batch_fallback));
  std::fprintf(f,
               "  \"reload\": {\"load_multiplier\": 2, \"clients\": %d, "
               "\"issued\": %d, \"ok\": %d, \"shed\": %d, \"other\": %d, "
               "\"seconds\": %.4f, \"throughput_rps\": %.2f, "
               "\"shed_rate\": %.4f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
               "\"p99_us\": %.1f, \"deadline_ms\": 250, "
               "\"swap_completed\": %s, "
               "\"served_by_new_version\": %d},\n",
               reload.clients, reload.issued, reload.ok, reload.shed,
               reload.other, reload.seconds, reload.Throughput(),
               reload.ShedRate(), reload.Percentile(0.5),
               reload.Percentile(0.95), reload.Percentile(0.99),
               swap_completed ? "true" : "false", served_by_new_version);
  std::fprintf(f,
               "  \"hang\": {\"load_multiplier\": 2, \"clients\": %d, "
               "\"issued\": %d, \"ok\": %d, \"shed\": %d, "
               "\"reaped\": %d, \"other\": %d, \"seconds\": %.4f, "
               "\"hang_threshold_ms\": %.1f, "
               "\"prehang_rps\": %.2f, \"posthang_rps\": %.2f, "
               "\"recovery_ms\": %.1f, \"recovered\": %s, "
               "\"reaps\": %llu, \"replacements\": %llu, "
               "\"p50_us\": %.1f, \"p99_us\": %.1f}\n",
               hang.clients, hang.issued, hang.ok, hang.shed, hang_deadline,
               hang.other, hang.seconds, hang_threshold_ms, prehang_rps,
               posthang_rps, recovery_ms,
               recovery_ms >= 0 ? "true" : "false",
               static_cast<unsigned long long>(hang_reaps),
               static_cast<unsigned long long>(hang_replacements),
               hang.Percentile(0.5), hang.Percentile(0.99));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  if (!trace_out.empty()) {
    std::string error;
    if (!obs::TraceBuffer::Global().WriteJson(trace_out, &error)) {
      std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote trace (%zu events, %llu dropped) to %s\n",
                obs::TraceBuffer::Global().size(),
                static_cast<unsigned long long>(
                    obs::TraceBuffer::Global().dropped()),
                trace_out.c_str());
  }
  return 0;
}
