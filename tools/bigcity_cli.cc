// Command-line interface for the BIGCity library.
//
// Subcommands:
//   generate --city XA --scale 0.5 --out trips.csv
//       Generate a synthetic city's trajectory corpus and export it as CSV.
//   train    --city XA --scale 0.5 --save model.bin [--epochs1 N --epochs2 N]
//       Run the full two-stage training pipeline and checkpoint the model.
//   eval     --city XA --scale 0.5 --load model.bin
//       Evaluate a checkpoint on all eight tasks and print a report.
//   serve    --city XA --scale 0.5 --requests trips.csv [--task next]
//       Drive the resilient inference server with a trajectory request
//       file and print an outcome/latency summary. With --model-dir the
//       server watches the versioned model directory and hot-swaps
//       published versions through the canary gate while serving; add
//       --watch-seconds to keep replaying the request mix for that long.
//   publish  --city XA --scale 0.5 --model-dir models/ [--load model.bin]
//       Publish a checkpoint into a versioned model directory (weights +
//       CRC manifest, atomic CURRENT flip) for a watching server to pick
//       up. Without --load the freshly initialized weights are published.
//   metrics  --in snapshot.json
//       Render the serving sections of a metrics snapshot (--metrics-out
//       of a previous run): per-task SLO gauges and every serve.*
//       histogram's count/mean/p50/p95/p99 in one table.
//   top      --in telemetry.jsonl [--follow]
//       Per-task serving dashboard (QPS, p50/p99, success/burn rate,
//       outcome mix, batch occupancy, cache hit rates) aggregated from a
//       telemetry JSONL stream (serve --telemetry-out). --follow
//       re-renders every --telemetry-interval-ms until interrupted.
//
// The --city/--scale pair must match between train and eval/serve/publish
// (the model's label space is city-specific). A checkpoint produced by
// `train` carries LoRA adapters: pass --load on both the publish and the
// serve side (or neither) so the served model's parameter set lines up.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <algorithm>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/bigcity_model.h"
#include "data/csv_io.h"
#include "data/dataset.h"
#include "obs/obs.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/model_dir.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "util/table_printer.h"

namespace bigcity {
namespace {

struct CliOptions {
  std::string command;
  std::string city = "XA";
  double scale = 0.5;
  std::string out;
  std::string save;
  std::string load;
  std::string checkpoint_dir;
  int epochs1 = 2;
  int epochs2 = 6;
  int threads = 0;  // 0 = keep the default (single-threaded kernels).
  bool plans = true;  // Execution plans + tensor arenas (DESIGN.md §4.13).
  // Observability sinks (DESIGN.md §4.9); empty = off.
  std::string trace_out;    // chrome://tracing JSON of the whole run.
  std::string run_report;   // train: per-epoch JSONL run report.
  std::string metrics_out;  // metrics-registry snapshot JSON.
  std::string profile_out;  // autograd op profile: table on stdout + JSON.
  int health_every = 0;     // train: health record every N applied steps.
  // Serving (DESIGN.md §4.11).
  std::string requests;       // serve: trajectory CSV driving the request mix.
  std::string serve_task = "next";  // next | tte | class | embed.
  int workers = 2;
  int queue_capacity = 16;
  double deadline_ms = 0;     // <= 0: no per-request deadline.
  // Continuous batching (DESIGN.md §4.14).
  bool batching = true;       // --no-batching: batch_max 1, no KV sessions.
  int batch_max = 8;          // Coalesce at most this many requests.
  double batch_window_us = 200.0;  // Max wait for batch-mates.
  // Model lifecycle (DESIGN.md §4.12).
  std::string model_dir;      // serve: watch; publish: destination.
  double watch_seconds = 0;   // serve: keep replaying this long (0 = once).
  double hang_threshold_ms = 5000.0;  // serve: watchdog reap threshold.
  double mem_budget_mb = 0;   // serve: memory budget; 0 = no overload control.
  // Live telemetry + dashboards (DESIGN.md §4.15).
  std::string telemetry_out;  // serve: periodic JSONL metric deltas.
  double telemetry_interval_ms = 1000.0;
  std::string in_path;        // metrics/top: input snapshot / JSONL path.
  bool follow = false;        // top: keep re-rendering until interrupted.
};

void PrintUsage() {
  std::printf(
      "usage: bigcity_cli "
      "<generate|train|eval|serve|publish|metrics|top> [options]\n"
      "  --city BJ|XA|CD   city preset (default XA)\n"
      "  --scale F         trajectory-count scale factor (default 0.5)\n"
      "  --out PATH        generate: CSV output path\n"
      "  --save PATH       train: checkpoint output path\n"
      "  --load PATH       eval: checkpoint input path\n"
      "  --epochs1 N       train: stage-1 epochs (default 2)\n"
      "  --epochs2 N       train: stage-2 epochs (default 6)\n"
      "  --checkpoint-dir D train: per-epoch crash-safe snapshots; an\n"
      "                    interrupted run resumes from D automatically\n"
      "  --threads N       kernel worker threads (default 1); results are\n"
      "                    bit-identical for any N\n"
      "  --plans on|off    train/serve: execution plans + tensor arenas\n"
      "                    (default on); off falls back to eager heap\n"
      "                    allocation — results are bit-identical either way\n"
      "  --trace-out PATH  write a chrome://tracing JSON of the run\n"
      "  --run-report PATH train: write a per-epoch JSONL run report\n"
      "                    (tokens/sec, GEMM FLOPs, guard/checkpoint counts)\n"
      "  --metrics-out PATH write the final metrics snapshot as JSON\n"
      "  --profile PATH    profile autograd ops (forward + backward): print\n"
      "                    a per-op/per-module table and write it as JSON\n"
      "  --health-every N  train: per-layer gradient/update telemetry every\n"
      "                    N applied steps, written to the run report\n"
      "  --requests PATH   serve: trajectory CSV (see generate) to replay\n"
      "  --task NAME       serve: next|tte|class|embed (default next)\n"
      "  --workers N       serve: worker threads (default 2)\n"
      "  --queue N         serve: bound on requests waiting for a worker\n"
      "                    (default 16)\n"
      "  --deadline-ms F   serve: per-request deadline; 0 = none\n"
      "  --batch-max N     serve: coalesce up to N same-task requests per\n"
      "                    forward (default 8); outputs are bit-identical\n"
      "                    to per-request forwards for any N\n"
      "  --batch-window-us F serve: max wait for batch-mates (default 200)\n"
      "  --no-batching     serve: batch max 1 (every request forwards\n"
      "                    alone; no KV sessions)\n"
      "  --model-dir D     serve: watch D for published versions and\n"
      "                    hot-swap them through the canary gate;\n"
      "                    publish: versioned destination directory\n"
      "  --watch-seconds F serve: keep replaying the request mix for F\n"
      "                    seconds (0 = one replay pass)\n"
      "  --hang-threshold-ms F serve: watchdog reaps a worker wedged\n"
      "                    mid-request past F ms and replaces it from the\n"
      "                    stable weights (default 5000; 0 = off)\n"
      "  --mem-budget-mb F serve: memory budget for overload control —\n"
      "                    above 75%% capacity halves, above 90%% new\n"
      "                    admissions shed until usage falls back under\n"
      "                    75%% (default 0 = off)\n"
      "  --telemetry-out PATH serve: append periodic JSONL deltas of the\n"
      "                    serve.*/slo.* metrics (consumed by `top`)\n"
      "  --telemetry-interval-ms F serve: telemetry tick period; top:\n"
      "                    --follow refresh period (default 1000)\n"
      "  --in PATH         metrics: snapshot JSON (--metrics-out of a\n"
      "                    previous run); top: telemetry JSONL stream\n"
      "  --follow          top: clear and re-render every interval\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  if (argc < 2) return false;
  options->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--no-batching") {  // Valueless flags first.
      options->batching = false;
      continue;
    }
    if (flag == "--follow") {
      options->follow = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--city") {
      options->city = value;
    } else if (flag == "--scale") {
      options->scale = std::atof(value.c_str());
    } else if (flag == "--out") {
      options->out = value;
    } else if (flag == "--save") {
      options->save = value;
    } else if (flag == "--load") {
      options->load = value;
    } else if (flag == "--epochs1") {
      options->epochs1 = std::atoi(value.c_str());
    } else if (flag == "--epochs2") {
      options->epochs2 = std::atoi(value.c_str());
    } else if (flag == "--checkpoint-dir") {
      options->checkpoint_dir = value;
    } else if (flag == "--threads") {
      options->threads = std::atoi(value.c_str());
    } else if (flag == "--plans") {
      options->plans = value != "off";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--run-report") {
      options->run_report = value;
    } else if (flag == "--metrics-out") {
      options->metrics_out = value;
    } else if (flag == "--profile") {
      options->profile_out = value;
    } else if (flag == "--health-every") {
      options->health_every = std::atoi(value.c_str());
    } else if (flag == "--requests") {
      options->requests = value;
    } else if (flag == "--task") {
      options->serve_task = value;
    } else if (flag == "--workers") {
      options->workers = std::atoi(value.c_str());
    } else if (flag == "--queue") {
      options->queue_capacity = std::atoi(value.c_str());
    } else if (flag == "--deadline-ms") {
      options->deadline_ms = std::atof(value.c_str());
    } else if (flag == "--batch-max") {
      options->batch_max = std::atoi(value.c_str());
    } else if (flag == "--batch-window-us") {
      options->batch_window_us = std::atof(value.c_str());
    } else if (flag == "--model-dir") {
      options->model_dir = value;
    } else if (flag == "--watch-seconds") {
      options->watch_seconds = std::atof(value.c_str());
    } else if (flag == "--hang-threshold-ms") {
      options->hang_threshold_ms = std::atof(value.c_str());
    } else if (flag == "--mem-budget-mb") {
      options->mem_budget_mb = std::atof(value.c_str());
    } else if (flag == "--telemetry-out") {
      options->telemetry_out = value;
    } else if (flag == "--telemetry-interval-ms") {
      options->telemetry_interval_ms = std::atof(value.c_str());
    } else if (flag == "--in") {
      options->in_path = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

data::CityDatasetConfig CityConfig(const CliOptions& options) {
  data::CityDatasetConfig config;
  if (options.city == "BJ") {
    config = data::BeijingLikeConfig();
  } else if (options.city == "CD") {
    config = data::ChengduLikeConfig();
  } else {
    config = data::XianLikeConfig();
  }
  return data::ScaleConfig(config, options.scale);
}

int RunGenerate(const CliOptions& options) {
  data::CityDataset dataset(CityConfig(options));
  std::vector<data::Trajectory> all = dataset.train();
  all.insert(all.end(), dataset.val().begin(), dataset.val().end());
  all.insert(all.end(), dataset.test().begin(), dataset.test().end());
  const std::string path =
      options.out.empty() ? options.city + "_trips.csv" : options.out;
  if (auto status = data::SaveTrajectoriesCsv(path, all); !status.ok()) {
    std::fprintf(stderr, "export failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu trajectories over %d segments to %s\n", all.size(),
              dataset.network().num_segments(), path.c_str());
  return 0;
}

/// Flushes the observability sinks the run asked for; called before every
/// successful or failed exit so a crash-adjacent run still leaves a trace.
void ExportObs(const CliOptions& options) {
  if (!options.trace_out.empty()) {
    std::string error;
    if (!obs::TraceBuffer::Global().WriteJson(options.trace_out, &error)) {
      std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
    } else {
      std::printf("wrote trace (%zu spans, %llu dropped) to %s\n",
                  obs::TraceBuffer::Global().size(),
                  static_cast<unsigned long long>(
                      obs::TraceBuffer::Global().dropped()),
                  options.trace_out.c_str());
    }
  }
  if (!options.profile_out.empty()) {
    auto& profiler = obs::Profiler::Global();
    profiler.PrintTable(stdout);
    const std::string json = profiler.ToJson();
    std::FILE* f = std::fopen(options.profile_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.profile_out.c_str());
    } else {
      std::fputs(json.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote op profile to %s\n", options.profile_out.c_str());
    }
  }
  if (!options.metrics_out.empty()) {
    // Fold the memory-tracker totals in as gauges so one snapshot carries
    // the full picture.
    obs::MemoryTracker::Global().PublishGauges();
    const std::string json =
        obs::MetricsRegistry::Global().Snapshot().ToJson();
    std::FILE* f = std::fopen(options.metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.metrics_out.c_str());
    } else {
      std::fputs(json.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote metrics snapshot to %s\n",
                  options.metrics_out.c_str());
    }
  }
}

int RunTrain(const CliOptions& options) {
  data::CityDataset dataset(CityConfig(options));
  core::BigCityConfig model_config;
  model_config.threads = options.threads;
  core::BigCityModel model(&dataset, model_config);
  train::TrainConfig config;
  config.stage1_epochs = options.epochs1;
  config.stage2_epochs = options.epochs2;
  config.verbose = true;
  config.checkpoint_dir = options.checkpoint_dir;
  config.run_report_path = options.run_report;
  config.health_every_steps = options.health_every;
  config.plans = options.plans;
  train::Trainer trainer(&model, config);
  if (!options.checkpoint_dir.empty()) {
    const std::string snapshot =
        options.checkpoint_dir + "/train_state.ckpt";
    if (std::filesystem::exists(snapshot)) {
      if (auto status = trainer.ResumeFrom(snapshot); !status.ok()) {
        std::fprintf(stderr, "resume failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("resumed from %s (phase %d, epoch %d)\n",
                  snapshot.c_str(), trainer.phase(), trainer.epoch());
    }
  }
  if (auto status = trainer.RunAll(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    ExportObs(options);  // A failed run's trace is the interesting one.
    return 1;
  }
  ExportObs(options);
  const std::string path =
      options.save.empty() ? options.city + "_model.bin" : options.save;
  if (auto status = model.SaveStateToFile(path); !status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %lld parameters to %s\n",
              static_cast<long long>(model.NumParameters()), path.c_str());
  return 0;
}

int RunEval(const CliOptions& options) {
  data::CityDataset dataset(CityConfig(options));
  core::BigCityConfig model_config;
  model_config.threads = options.threads;
  core::BigCityModel model(&dataset, model_config);
  if (options.load.empty()) {
    std::fprintf(stderr, "eval requires --load PATH\n");
    return 1;
  }
  // Checkpoints carry LoRA adapters; attach before loading.
  util::Rng lora_rng(train::TrainConfig{}.seed ^ 0xabc);
  model.backbone()->EnableLora(&lora_rng);
  if (auto status = model.LoadStateFromFile(options.load); !status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }

  train::Evaluator evaluator(&model);
  util::TablePrinter table({"Task", "Metric", "Value"});
  const auto tte = evaluator.EvaluateTravelTime();
  table.AddRow({"TTE", "MAE (min)", util::TablePrinter::Num(tte.mae, 2)});
  table.AddRow({"TTE", "MAPE (%)", util::TablePrinter::Num(tte.mape, 1)});
  const auto next = evaluator.EvaluateNextHop();
  table.AddRow({"Next hop", "ACC", util::TablePrinter::Num(next.accuracy)});
  table.AddRow({"Next hop", "MRR@5", util::TablePrinter::Num(next.mrr5)});
  if (model.classifies_users()) {
    const auto clas = evaluator.EvaluateUserClassification();
    table.AddRow({"User link", "Micro-F1",
                  util::TablePrinter::Num(clas.micro_f1)});
  } else {
    const auto clas = evaluator.EvaluateBinaryClassification();
    table.AddRow({"Pattern", "ACC", util::TablePrinter::Num(clas.accuracy)});
  }
  const auto simi = evaluator.EvaluateSimilarity();
  table.AddRow({"Similarity", "HR@10", util::TablePrinter::Num(simi.hr10)});
  const auto reco = evaluator.EvaluateRecovery(0.85);
  table.AddRow({"Recovery", "ACC@85%",
                util::TablePrinter::Num(reco.accuracy)});
  if (dataset.config().has_dynamic_features) {
    const auto one = evaluator.EvaluateTrafficPrediction(1);
    table.AddRow({"Traffic 1-step", "MAE (m/s)",
                  util::TablePrinter::Num(one.mae, 2)});
    const auto multi = evaluator.EvaluateTrafficPrediction(6);
    table.AddRow({"Traffic 6-step", "MAE (m/s)",
                  util::TablePrinter::Num(multi.mae, 2)});
    const auto tsi = evaluator.EvaluateTrafficImputation(0.25);
    table.AddRow({"Imputation", "MAE (m/s)",
                  util::TablePrinter::Num(tsi.mae, 2)});
  }
  table.Print();
  ExportObs(options);
  return 0;
}

int RunServe(const CliOptions& options) {
  data::CityDataset dataset(CityConfig(options));
  core::BigCityConfig model_config;
  model_config.threads = options.threads;

  // Request mix: a trajectory CSV (possibly from `generate`, possibly
  // hand-edited / corrupt — the server quarantines bad rows) or, with no
  // --requests, the dataset's own test split.
  std::vector<data::Trajectory> trajectories;
  if (!options.requests.empty()) {
    auto loaded = data::LoadTrajectoriesCsv(options.requests);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", options.requests.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    trajectories = std::move(loaded).value();
  } else {
    trajectories = dataset.test();
  }
  if (trajectories.empty()) {
    std::fprintf(stderr, "no requests to serve\n");
    return 1;
  }

  core::Task task = core::Task::kNextHop;
  if (options.serve_task == "tte") {
    task = core::Task::kTravelTimeEstimation;
  } else if (options.serve_task == "class") {
    task = core::Task::kTrajClassification;
  } else if (options.serve_task == "embed") {
    task = core::Task::kMostSimilarSearch;
  } else if (options.serve_task != "next") {
    std::fprintf(stderr, "unknown serve task: %s\n",
                 options.serve_task.c_str());
    return 1;
  }

  serve::ServeOptions serve_options;
  serve_options.num_workers = std::max(1, options.workers);
  serve_options.queue_capacity = std::max(1, options.queue_capacity);
  serve_options.default_deadline_ms = options.deadline_ms;
  serve_options.batch_max = std::max(1, options.batch_max);
  serve_options.batch_window_us = std::max(0.0, options.batch_window_us);
  if (!options.batching) {
    // Batches of one all the way down, no KV sessions (matches
    // bench_serve's batching-off arm).
    serve_options.batch_max = 1;
    serve_options.kv_sessions = 0;
  }
  serve_options.checkpoint_path = options.load;
  serve_options.attach_lora = !options.load.empty();  // Matches eval.
  serve_options.plans = options.plans;
  serve_options.rollout.model_dir = options.model_dir;
  serve_options.hang_threshold_ms = options.hang_threshold_ms;
  serve_options.mem_budget_bytes =
      static_cast<int64_t>(options.mem_budget_mb * (1 << 20));
  serve::InferenceServer server(&dataset, model_config, serve_options);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Live telemetry: ship serve.*/slo.* deltas every tick so `top` (or any
  // log tailer) can watch the run. The prelude refreshes the slo.* gauges
  // right before each snapshot, so the stream never lags a publish cycle.
  obs::TelemetryExporter telemetry;
  if (!options.telemetry_out.empty()) {
    telemetry.SetPrelude([&server] { server.PublishSlo(); });
    obs::TelemetryExporter::Options telemetry_options;
    telemetry_options.interval_ms = std::max(1.0, options.telemetry_interval_ms);
    std::string error;
    if (!telemetry.Start(options.telemetry_out, telemetry_options, &error)) {
      std::fprintf(stderr, "telemetry start failed: %s\n", error.c_str());
      server.Stop();
      return 1;
    }
  }

  int counts[serve::kNumOutcomes] = {};
  std::vector<double> latencies_us;
  latencies_us.reserve(trajectories.size());
  const auto watch_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options.watch_seconds));
  size_t replayed = 0;
  // Watch mode replays the mix until the deadline so the poller has live
  // traffic to canary against; otherwise one pass.
  do {
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(trajectories.size());
    for (size_t i = 0; i < trajectories.size(); ++i) {
      serve::Request request;
      request.task = task;
      request.trajectory = trajectories[i];
      request.id = replayed + i;
      futures.push_back(server.Submit(std::move(request)));
    }
    replayed += trajectories.size();
    for (auto& future : futures) {
      serve::Response response = future.get();
      counts[static_cast<int>(response.outcome)]++;
      if (response.status.ok()) latencies_us.push_back(response.total_us);
    }
  } while (std::chrono::steady_clock::now() < watch_deadline);
  server.Stop();
  telemetry.Stop();  // Final tick captures the post-drain state.
  if (telemetry.ticks() > 0) {
    std::printf("wrote %llu telemetry ticks to %s\n",
                static_cast<unsigned long long>(telemetry.ticks()),
                options.telemetry_out.c_str());
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const size_t rank = std::min(
        latencies_us.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies_us.size())));
    return latencies_us[rank];
  };

  util::TablePrinter table({"Outcome", "Count"});
  const char* names[serve::kNumOutcomes] = {
      "ok",          "degraded", "shed",   "deadline",
      "quarantined", "rejected", "failed", "reaped"};
  for (int i = 0; i < serve::kNumOutcomes; ++i) {
    table.AddRow({names[i], util::TablePrinter::Num(counts[i], 0)});
  }
  table.AddRow({"p50 ms", util::TablePrinter::Num(percentile(0.5) / 1e3, 2)});
  table.AddRow({"p95 ms", util::TablePrinter::Num(percentile(0.95) / 1e3, 2)});
  table.AddRow({"p99 ms", util::TablePrinter::Num(percentile(0.99) / 1e3, 2)});
  table.Print();

  if (!options.model_dir.empty()) {
    const auto quarantined = server.registry()->Quarantined();
    util::TablePrinter lifecycle({"Lifecycle", "Value"});
    lifecycle.AddRow(
        {"state", serve::RolloutStateName(server.rollout_state())});
    lifecycle.AddRow({"stable version",
                      util::TablePrinter::Num(
                          static_cast<double>(server.stable_version()), 0)});
    lifecycle.AddRow({"generation",
                      util::TablePrinter::Num(
                          static_cast<double>(server.generation()), 0)});
    lifecycle.AddRow({"quarantined",
                      util::TablePrinter::Num(
                          static_cast<double>(quarantined.size()), 0)});
    lifecycle.Print();
    for (const auto& [version, reason] : quarantined) {
      std::printf("  quarantined v%llu: %s\n",
                  static_cast<unsigned long long>(version), reason.c_str());
    }
  }
  ExportObs(options);
  return 0;
}

int RunPublish(const CliOptions& options) {
  if (options.model_dir.empty()) {
    std::fprintf(stderr, "publish requires --model-dir PATH\n");
    return 1;
  }
  data::CityDataset dataset(CityConfig(options));
  core::BigCityConfig model_config;
  model_config.threads = options.threads;
  core::BigCityModel model(&dataset, model_config);
  if (!options.load.empty()) {
    // Checkpoints carry LoRA adapters; attach before loading (same key
    // derivation as eval/serve).
    util::Rng lora_rng(train::TrainConfig{}.seed ^ 0xabc);
    model.backbone()->EnableLora(&lora_rng);
    if (auto status = model.LoadStateFromFile(options.load); !status.ok()) {
      std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  const auto current = util::ReadCurrent(options.model_dir);
  const int64_t parent =
      current.ok() ? static_cast<int64_t>(current.value()) : -1;
  auto published = serve::PublishModel(options.model_dir, model, parent);
  if (!published.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  std::printf("published version %llu (parent %lld, fingerprint %s) to %s\n",
              static_cast<unsigned long long>(published.value()),
              static_cast<long long>(parent),
              core::ConfigFingerprint(model_config).c_str(),
              options.model_dir.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// metrics / top: hand-rolled scraping of the repo's own JSON output (same
// idiom as bench_gate) — the snapshot and telemetry formats are flat enough
// that brace matching plus "key":number scanning covers them.

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buffer[1 << 16];
  out->clear();
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, n);
  }
  std::fclose(f);
  return true;
}

/// Returns the balanced {...} object following `label` (quotes + colon
/// included, e.g. "\"gauges\":"), or "" when absent / unbalanced.
std::string JsonObjectAfter(const std::string& json, const std::string& label) {
  const size_t pos = json.find(label);
  if (pos == std::string::npos) return "";
  const size_t open = json.find('{', pos + label.size());
  if (open == std::string::npos) return "";
  int depth = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(open, i - open + 1);
    }
  }
  return "";
}

/// Collects "key":number pairs from a JSON object, skipping nested objects
/// wholesale (array-valued keys parse as 0 and are simply never read).
void ParseFlatNumbers(const std::string& object,
                      std::map<std::string, double>* out) {
  size_t i = 0;
  while (true) {
    const size_t k0 = object.find('"', i);
    if (k0 == std::string::npos) break;
    const size_t k1 = object.find('"', k0 + 1);
    if (k1 == std::string::npos) break;
    const std::string key = object.substr(k0 + 1, k1 - k0 - 1);
    size_t v = object.find(':', k1);
    if (v == std::string::npos) break;
    ++v;
    while (v < object.size() && object[v] == ' ') ++v;
    if (v < object.size() && object[v] == '{') {
      int depth = 0;
      while (v < object.size()) {
        if (object[v] == '{') ++depth;
        if (object[v] == '}' && --depth == 0) break;
        ++v;
      }
      i = v + 1;
      continue;
    }
    (*out)[key] = std::atof(object.c_str() + v);
    const size_t comma = object.find(',', v);
    if (comma == std::string::npos) break;
    i = comma + 1;
  }
}

/// One histogram's scalar fields as emitted by MetricsSnapshot::ToJson /
/// the telemetry stream ("count", "sum", "p50", "p95", "p99").
void ParseHistogramStats(const std::string& histograms_object,
                         std::map<std::string, std::map<std::string, double>>*
                             out) {
  size_t i = 1;  // Skip the outer '{'.
  while (true) {
    const size_t k0 = histograms_object.find('"', i);
    if (k0 == std::string::npos) break;
    const size_t k1 = histograms_object.find('"', k0 + 1);
    if (k1 == std::string::npos) break;
    const std::string name = histograms_object.substr(k0 + 1, k1 - k0 - 1);
    const size_t open = histograms_object.find('{', k1);
    if (open == std::string::npos) break;
    int depth = 0;
    size_t end = open;
    while (end < histograms_object.size()) {
      if (histograms_object[end] == '{') ++depth;
      if (histograms_object[end] == '}' && --depth == 0) break;
      ++end;
    }
    if (end >= histograms_object.size()) break;
    ParseFlatNumbers(histograms_object.substr(open, end - open + 1),
                     &(*out)[name]);
    i = end + 1;
  }
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Task names found in `slo.<task>.<field>` keys, registration order lost
/// (map iteration is alphabetical) but stable across renders.
std::vector<std::string> SloTaskNames(
    const std::map<std::string, double>& gauges) {
  std::vector<std::string> tasks;
  for (const auto& [name, value] : gauges) {
    (void)value;
    if (!StartsWith(name, "slo.")) continue;
    const size_t dot = name.find('.', 4);
    if (dot == std::string::npos) continue;
    const std::string task = name.substr(4, dot - 4);
    if (std::find(tasks.begin(), tasks.end(), task) == tasks.end()) {
      tasks.push_back(task);
    }
  }
  return tasks;
}

double GaugeOr(const std::map<std::string, double>& gauges,
               const std::string& name, double fallback) {
  const auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

int RunMetrics(const CliOptions& options) {
  if (options.in_path.empty()) {
    std::fprintf(stderr, "metrics requires --in snapshot.json\n");
    return 1;
  }
  std::string json;
  if (!ReadFileToString(options.in_path, &json)) {
    std::fprintf(stderr, "cannot read %s\n", options.in_path.c_str());
    return 1;
  }
  std::map<std::string, double> gauges;
  ParseFlatNumbers(JsonObjectAfter(json, "\"gauges\":"), &gauges);
  std::map<std::string, std::map<std::string, double>> histograms;
  ParseHistogramStats(JsonObjectAfter(json, "\"histograms\":"), &histograms);

  const std::vector<std::string> tasks = SloTaskNames(gauges);
  if (!tasks.empty()) {
    util::TablePrinter slo_table({"Task", "Success", "Burn", "p50 ms",
                                  "p99 ms", "p99 OK", "Window"});
    for (const std::string& task : tasks) {
      const std::string prefix = "slo." + task + ".";
      slo_table.AddRow(
          {task,
           util::TablePrinter::Num(GaugeOr(gauges, prefix + "success_rate", 0)),
           util::TablePrinter::Num(GaugeOr(gauges, prefix + "burn_rate", 0), 2),
           util::TablePrinter::Num(
               GaugeOr(gauges, prefix + "p50_us", 0) / 1e3, 2),
           util::TablePrinter::Num(
               GaugeOr(gauges, prefix + "p99_us", 0) / 1e3, 2),
           GaugeOr(gauges, prefix + "p99_within_objective", 0) > 0 ? "yes"
                                                                   : "no",
           util::TablePrinter::Num(
               GaugeOr(gauges, prefix + "window_requests", 0), 0)});
    }
    slo_table.Print();
  }

  // Every serve.* histogram in one table; values in the histogram's own
  // unit (latency histograms are µs, serve.batch.size is a batch size).
  util::TablePrinter hist_table(
      {"Histogram", "Count", "Mean", "p50", "p95", "p99"});
  size_t rows = 0;
  for (const auto& [name, stats] : histograms) {
    if (!StartsWith(name, "serve.")) continue;
    const double count = GaugeOr(stats, "count", 0);
    hist_table.AddRow(
        {name, util::TablePrinter::Num(count, 0),
         util::TablePrinter::Num(count > 0 ? GaugeOr(stats, "sum", 0) / count
                                           : 0.0, 2),
         util::TablePrinter::Num(GaugeOr(stats, "p50", 0), 2),
         util::TablePrinter::Num(GaugeOr(stats, "p95", 0), 2),
         util::TablePrinter::Num(GaugeOr(stats, "p99", 0), 2)});
    ++rows;
  }
  if (rows > 0) hist_table.Print();
  if (tasks.empty() && rows == 0) {
    std::printf("no slo.* gauges or serve.* histograms in %s\n",
                options.in_path.c_str());
  }
  return 0;
}

/// Everything one `top` render needs, folded from the telemetry stream.
struct TopState {
  std::map<std::string, double> counters;   // Cumulative over all ticks.
  std::map<std::string, double> last_gauges;  // Latest absolute values.
  double batch_size_sum = 0;  // serve.batch.size Δsum/Δcount accumulation.
  double batch_size_count = 0;
  double first_wall_ms = 0;
  double last_wall_ms = 0;
  double last_interval_ms = 1000.0;
  size_t ticks = 0;
};

void FoldTelemetryLine(const std::string& line, TopState* state) {
  if (line.find("\"event\":\"telemetry\"") == std::string::npos) return;
  std::map<std::string, double> header;
  // A flat scan over the whole line skips the nested sections and the
  // string-valued "event", leaving exactly the header numbers.
  ParseFlatNumbers(line, &header);
  const double wall_ms = GaugeOr(header, "wall_ms", 0);
  if (state->ticks == 0) state->first_wall_ms = wall_ms;
  state->last_wall_ms = wall_ms;
  state->last_interval_ms =
      GaugeOr(header, "interval_ms", state->last_interval_ms);
  ++state->ticks;

  std::map<std::string, double> deltas;
  ParseFlatNumbers(JsonObjectAfter(line, "\"counters\":"), &deltas);
  for (const auto& [name, delta] : deltas) state->counters[name] += delta;

  std::map<std::string, double> gauges;
  ParseFlatNumbers(JsonObjectAfter(line, "\"gauges\":"), &gauges);
  for (const auto& [name, value] : gauges) state->last_gauges[name] = value;

  std::map<std::string, std::map<std::string, double>> histograms;
  ParseHistogramStats(JsonObjectAfter(line, "\"histograms\":"), &histograms);
  const auto batch = histograms.find("serve.batch.size");
  if (batch != histograms.end()) {
    state->batch_size_sum += GaugeOr(batch->second, "sum", 0);
    state->batch_size_count += GaugeOr(batch->second, "count", 0);
  }
}

void RenderTop(const TopState& state, const std::string& path) {
  // Elapsed covers the interval before the first tick too — each tick's
  // deltas describe the window ending at its wall_ms.
  const double elapsed_s =
      std::max(state.last_interval_ms,
               state.last_wall_ms - state.first_wall_ms +
                   state.last_interval_ms) /
      1e3;
  static const char* kOutcomes[serve::kNumOutcomes] = {
      "ok",          "degraded", "shed",   "deadline",
      "quarantined", "rejected", "failed", "reaped"};
  const std::vector<std::string> tasks = SloTaskNames(state.last_gauges);
  double total_requests = 0;
  util::TablePrinter table({"Task", "QPS", "Success", "Burn", "p50 ms",
                            "p99 ms", "OK", "Deg", "Shed", "Ddl", "Quar",
                            "Rej", "Fail", "Reap"});
  for (const std::string& task : tasks) {
    double outcome_counts[serve::kNumOutcomes] = {};
    double task_requests = 0;
    for (int o = 0; o < serve::kNumOutcomes; ++o) {
      outcome_counts[o] = GaugeOr(
          state.counters, "serve.outcome." + task + "." + kOutcomes[o], 0);
      task_requests += outcome_counts[o];
    }
    total_requests += task_requests;
    const std::string prefix = "slo." + task + ".";
    std::vector<std::string> row = {
        task, util::TablePrinter::Num(task_requests / elapsed_s, 1),
        util::TablePrinter::Num(
            GaugeOr(state.last_gauges, prefix + "success_rate", 0)),
        util::TablePrinter::Num(
            GaugeOr(state.last_gauges, prefix + "burn_rate", 0), 2),
        util::TablePrinter::Num(
            GaugeOr(state.last_gauges, prefix + "p50_us", 0) / 1e3, 2),
        util::TablePrinter::Num(
            GaugeOr(state.last_gauges, prefix + "p99_us", 0) / 1e3, 2)};
    for (int o = 0; o < serve::kNumOutcomes; ++o) {
      row.push_back(util::TablePrinter::Num(outcome_counts[o], 0));
    }
    table.AddRow(row);
  }
  std::printf("%s: %zu ticks, %.1fs window\n", path.c_str(), state.ticks,
              elapsed_s);
  if (tasks.empty()) {
    std::printf("no slo.* gauges yet — is the server past its first tick?\n");
  } else {
    table.Print();
  }

  auto hit_rate = [&state](const std::string& cache) {
    const double hits =
        GaugeOr(state.counters, "serve.cache." + cache + ".hit", 0);
    const double misses =
        GaugeOr(state.counters, "serve.cache." + cache + ".miss", 0);
    const double lookups = hits + misses;
    return lookups > 0 ? hits / lookups : 0.0;
  };
  util::TablePrinter summary({"Totals", "Value"});
  summary.AddRow(
      {"QPS", util::TablePrinter::Num(total_requests / elapsed_s, 1)});
  summary.AddRow(
      {"mean batch occupancy",
       util::TablePrinter::Num(state.batch_size_count > 0
                                   ? state.batch_size_sum /
                                         state.batch_size_count
                                   : 0.0, 2)});
  summary.AddRow({"ST library hit rate",
                  util::TablePrinter::Num(hit_rate("tokenizer"))});
  summary.AddRow({"kv cache hit rate", util::TablePrinter::Num(hit_rate("kv"))});
  summary.Print();
}

int RunTop(const CliOptions& options) {
  if (options.in_path.empty()) {
    std::fprintf(stderr, "top requires --in telemetry.jsonl\n");
    return 1;
  }
  while (true) {
    std::string contents;
    if (!ReadFileToString(options.in_path, &contents)) {
      std::fprintf(stderr, "cannot read %s\n", options.in_path.c_str());
      return 1;
    }
    TopState state;
    size_t start = 0;
    while (start < contents.size()) {
      size_t end = contents.find('\n', start);
      if (end == std::string::npos) end = contents.size();
      FoldTelemetryLine(contents.substr(start, end - start), &state);
      start = end + 1;
    }
    if (options.follow) std::printf("\033[2J\033[H");
    RenderTop(state, options.in_path);
    if (!options.follow) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(100.0, options.telemetry_interval_ms)));
  }
  return 0;
}

}  // namespace
}  // namespace bigcity

int main(int argc, char** argv) {
  bigcity::CliOptions options;
  if (!bigcity::ParseArgs(argc, argv, &options)) {
    bigcity::PrintUsage();
    return 2;
  }
  // Arm tracing before any work (dataset generation traces too). The
  // default 64K-event ring only keeps the tail of a training run (per-GEMM
  // spans dominate); a run that asked for a trace gets a 2M-event ring
  // (~80 MB peak) so the per-phase spans of a short run all survive.
  if (!options.trace_out.empty()) {
    bigcity::obs::TraceBuffer::Global().SetCapacity(size_t{1} << 21);
    bigcity::obs::SetTracingEnabled(true);
  }
  // Arm the op profiler before model construction so its GEMMs profile too.
  if (!options.profile_out.empty()) {
    bigcity::obs::SetProfilerEnabled(true);
  }
  if (options.command == "generate") return bigcity::RunGenerate(options);
  if (options.command == "train") return bigcity::RunTrain(options);
  if (options.command == "eval") return bigcity::RunEval(options);
  if (options.command == "serve") return bigcity::RunServe(options);
  if (options.command == "publish") return bigcity::RunPublish(options);
  if (options.command == "metrics") return bigcity::RunMetrics(options);
  if (options.command == "top") return bigcity::RunTop(options);
  bigcity::PrintUsage();
  return 2;
}
