#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "inputs.h"
#include "load.h"
#include "obs/memory.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "probe.h"
#include "serve/server.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using bigcity::core::BigCityConfig;
using bigcity::core::BigCityModel;
using bigcity::data::CityDataset;
using bigcity::serve::InferenceServer;
using bigcity::serve::Request;
using bigcity::serve::Response;
using Clock = std::chrono::steady_clock;

// Warm-up inputs are the same for every workload seed, so set-up is the
// same work in every run.
constexpr uint64_t kWarmupSeed = 0x5eed;
// A request counts as a success only when the full model answered it
// within the server's default SLO objective (ServeOptions::slo_p99_ms).
constexpr double kSloMs = 250.0;
constexpr int kWalkPlanWalks = 8192;
constexpr int kMixedDigestRequests = 4096;
// Mixed-stream requests below this id are always served, so the served
// next-hop loss is computed over the same requests in every run.
constexpr uint64_t kMixedLossRequests = 512;
// Completed requests whose spans the traced run checks for one trace id.
constexpr size_t kTraceCheckRequests = 32;

bigcity::data::CityDatasetConfig BenchCity() {
  // The XA bench city of bench/common.cc (BenchCity("XA")).
  return bigcity::data::ScaleConfig(bigcity::data::XianLikeConfig(), 0.45);
}

bool IsWalk(const std::string& workload) { return workload == "serve_walk"; }
bool IsTrain(const std::string& workload) { return workload == "train"; }

BigCityConfig ModelFor(const std::string& workload, bool smoke) {
  BigCityConfig config;  // The default model: d_model 64, two layers.
  config.threads = 1;
  if (IsWalk(workload)) {
    // Serve scale: forwards dominated by transformer compute.
    config.d_model = smoke ? 32 : 256;
    config.num_heads = smoke ? 2 : 8;
    config.num_layers = smoke ? 1 : 6;
  }
  return config;
}

int SlotsFor(const std::string& workload) { return IsWalk(workload) ? 16 : 4; }

bigcity::serve::ServeOptions ServeOptionsFor(int slots) {
  bigcity::serve::ServeOptions options;
  options.num_workers = 2;
  // Admit every in-flight request: a closed loop never needs to shed.
  options.queue_capacity = 4 * slots;
  // Replicas carry the LoRA adapters the pretrained prototype has.
  options.attach_lora = true;
  // Total sessions (per worker x workers) hold every walk at once.
  options.kv_sessions = slots;
  return options;
}

/// Share of the guest's CPU time the host left it, given the stolen share;
/// timings are scaled by it to CPU-available time. Floored at one half so
/// a near-total stall cannot more than double a figure.
double Available(double steal_share) {
  return std::max(1.0 - steal_share, 0.5);
}

struct SetupTimes {
  double dataset_s = 0, replicas_s = 0, pretrain_s = 0, warmup_s = 0;
  double total_s = 0;
  Clock::time_point start, end;
};

/// Medians over the set-ups the host stole the least CPU time from, each
/// in CPU-available seconds.
void AddSetupMetrics(const std::vector<SetupTimes>& reps, bool end_to_end,
                     const StealMeter& steal, Ledger* ledger) {
  std::vector<double> shares;
  for (const SetupTimes& rep : reps) {
    shares.push_back(steal.Share(rep.start, rep.end));
  }
  const std::vector<size_t> quiet = QuietIntervals(shares);
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (size_t i : quiet) {
      values.push_back(reps[i].*field * Available(shares[i]));
    }
    return Median(values);
  };
  if (end_to_end) {
    ledger->Add("setup_s", median(&SetupTimes::total_s), "s");
    return;
  }
  ledger->Add("setup.dataset_s", median(&SetupTimes::dataset_s), "s");
  ledger->Add("setup.replicas_s", median(&SetupTimes::replicas_s), "s");
  ledger->Add("setup.pretrain_s", median(&SetupTimes::pretrain_s), "s");
  ledger->Add("setup.warmup_s", median(&SetupTimes::warmup_s), "s");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// --- Serving -------------------------------------------------------------

/// What a traffic source says about a request it produced.
struct Tag {
  bool keep = false;   // Keep the output for the parity check.
  int cover = -1;      // Also keep the first OK output per cover key.
  int target = -1;     // True next segment (next-hop loss), or -1.
};
using Source = std::function<bool(int slot, Request* request, Tag* tag)>;

struct ServePhase {
  Clock::time_point start;
  double seconds = 0;
  int64_t sent = 0, ok = 0, within_slo = 0, degraded = 0, shed = 0;
  std::vector<double> latency_ms, queue_wait_ms, batch_wait_ms, tokenize_ms;
  std::vector<double> completed_s;  // Of each OK request, from phase start.
  double batch_size_sum = 0;
  std::vector<ServedOutput> kept;
  std::vector<size_t> loss_kept;  // Indices into `kept` of scored outputs.
  std::vector<int> loss_targets;
  std::deque<uint64_t> recent_trace_ids;
  std::string error;
};

ServePhase RunServePhase(InferenceServer* server, int slots, double seconds,
                         const Source& source) {
  ServePhase phase;
  std::vector<Tag> tags(static_cast<size_t>(slots));
  std::set<int> covered;
  ClosedLoop loop(server, slots);
  phase.start = Clock::now();
  phase.seconds = loop.Run(
      seconds,
      [&](int slot, Request* request) {
        return source(slot, request, &tags[static_cast<size_t>(slot)]);
      },
      [&](int slot, Request request, Response response, double latency_us,
          double completed_s) {
        ++phase.sent;
        const Tag& tag = tags[static_cast<size_t>(slot)];
        if (response.outcome == bigcity::serve::Outcome::kShed) ++phase.shed;
        if (response.status.ok() && response.degraded) ++phase.degraded;
        if (!response.status.ok() || response.degraded) return;
        ++phase.ok;
        // The server stamps total_us inside the span the generator times.
        if (latency_us + 1.0 < response.total_us && phase.error.empty()) {
          phase.error = "generator latency " + std::to_string(latency_us) +
                        " us below the server's total_us " +
                        std::to_string(response.total_us);
        }
        phase.latency_ms.push_back(latency_us / 1e3);
        phase.completed_s.push_back(completed_s);
        if (latency_us <= kSloMs * 1e3) ++phase.within_slo;
        phase.queue_wait_ms.push_back(response.stages.queue_wait_us / 1e3);
        phase.batch_wait_ms.push_back(response.stages.batch_wait_us / 1e3);
        phase.tokenize_ms.push_back(response.stages.tokenize_us / 1e3);
        phase.batch_size_sum += response.batch_size;
        phase.recent_trace_ids.push_back(response.trace_id);
        if (phase.recent_trace_ids.size() > kTraceCheckRequests) {
          phase.recent_trace_ids.pop_front();
        }
        const bool first_of_key =
            tag.cover >= 0 && covered.insert(tag.cover).second;
        if (tag.keep || first_of_key) {
          phase.kept.push_back(KeepOutput(request, response.output));
          if (tag.target >= 0) {
            phase.loss_kept.push_back(phase.kept.size() - 1);
            phase.loss_targets.push_back(tag.target);
          }
        }
      });
  return phase;
}

constexpr double kWindowS = 0.5;

struct ServeFigures {
  double throughput_per_s = 0;
  double latency_p50_ms = 0;
  double steal_share = 0;  // Over the whole timed phase.
};

/// Throughput and median latency over the quieter half of the phase's
/// kWindowS windows in [0, horizon_s): the median window rate, and the
/// median latency of the requests those windows completed, both scaled to
/// the CPU time the host left the guest in each window. A window the
/// hypervisor stole CPU time from measures the host, not the program.
ServeFigures QuietFigures(const ServePhase& phase, double horizon_s,
                          const StealMeter& steal) {
  const auto windows =
      std::max<size_t>(static_cast<size_t>(horizon_s / kWindowS), 1);
  auto at = [&](size_t w) {
    return phase.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kWindowS * w));
  };
  std::vector<double> shares;
  for (size_t w = 0; w < windows; ++w) {
    shares.push_back(steal.Share(at(w), at(w + 1)));
  }
  std::vector<size_t> window_of(phase.completed_s.size(), windows);
  std::vector<double> counts(windows, 0);
  for (size_t i = 0; i < phase.completed_s.size(); ++i) {
    const auto w = static_cast<size_t>(phase.completed_s[i] / kWindowS);
    if (w < windows) {
      window_of[i] = w;
      counts[w] += 1;
    }
  }
  std::vector<bool> is_quiet(windows, false);
  std::vector<double> rates, latencies;
  for (size_t w : QuietIntervals(shares)) {
    is_quiet[w] = true;
    rates.push_back(counts[w] / kWindowS / Available(shares[w]));
  }
  for (size_t i = 0; i < window_of.size(); ++i) {
    if (window_of[i] < windows && is_quiet[window_of[i]]) {
      latencies.push_back(phase.latency_ms[i] *
                          Available(shares[window_of[i]]));
    }
  }
  return {Median(rates), Median(latencies), steal.Share(at(0), at(windows))};
}

/// Closed-loop walkers: slot s walks plan[s], plan[s + slots], ... one
/// point per request. Outputs of every walker's first walk are kept (and
/// scored against the true next point), plus the first of each prefix
/// length. `walks_per_slot` < 0 walks forever.
Source WalkSource(const CityDataset* dataset, std::vector<Walk> plan,
                  int slots, int walks_per_slot) {
  struct State {
    int64_t position = 0;
    int prefix = 2;
  };
  auto states =
      std::make_shared<std::vector<State>>(static_cast<size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    (*states)[static_cast<size_t>(s)].position = s;
  }
  auto shared_plan = std::make_shared<std::vector<Walk>>(std::move(plan));
  return [=](int slot, Request* request, Tag* tag) {
    State& state = (*states)[static_cast<size_t>(slot)];
    if (walks_per_slot >= 0 &&
        state.position >= int64_t{walks_per_slot} * slots) {
      return false;
    }
    const Walk& walk = (*shared_plan)[static_cast<size_t>(
        state.position % static_cast<int64_t>(shared_plan->size()))];
    *request = WalkRequest(*dataset, walk, state.prefix);
    request->id = static_cast<uint64_t>(state.position) * 64 +
                  static_cast<uint64_t>(state.prefix);
    const auto& full = dataset->test()[static_cast<size_t>(walk.trajectory)];
    const bool first_walk = state.position < slots;
    tag->keep = first_walk;
    tag->cover = state.prefix;
    tag->target = first_walk && state.prefix < full.length()
                      ? full.points[static_cast<size_t>(state.prefix)].segment
                      : -1;
    if (++state.prefix > walk.length) {
      state.position += slots;
      state.prefix = 2;
    }
    return true;
  };
}

/// The seeded task mix. Keeps the first requests, every 97th, the first
/// of each task, and the early next-hop requests it scores. `limit` < 0
/// sends forever.
Source MixedSource(const CityDataset* dataset, const BigCityConfig& config,
                   uint64_t seed, int64_t limit) {
  auto stream = std::make_shared<MixedStream>(dataset, config, seed);
  auto produced = std::make_shared<int64_t>(0);
  return [=](int, Request* request, Tag* tag) {
    if (limit >= 0 && *produced >= limit) return false;
    ++*produced;
    int target = -1;
    *request = stream->Next(&target);
    const uint64_t id = request->id;
    tag->target = id < kMixedLossRequests ? target : -1;
    tag->keep = id < 64 || id % 97 == 0 || tag->target >= 0;
    tag->cover = 100 + static_cast<int>(request->task);
    return true;
  };
}

void AddServeLayerMetrics(const ServePhase& phase, const ObsWindow& window,
                          Ledger* ledger) {
  const double sent = static_cast<double>(std::max<int64_t>(phase.sent, 1));
  ledger->Add("serve.queue_wait_ms.p50", Median(phase.queue_wait_ms), "ms");
  ledger->Add("serve.batch_wait_ms.p50", Median(phase.batch_wait_ms), "ms");
  ledger->Add("serve.batch_size.mean",
              phase.ok > 0
                  ? phase.batch_size_sum / static_cast<double>(phase.ok)
                  : 0,
              "count");
  const uint64_t kv_hit = window.Counter("serve.cache.kv.hit");
  const uint64_t kv_miss = window.Counter("serve.cache.kv.miss");
  ledger->Add("serve.kv_hit_share", Share(kv_hit, kv_hit + kv_miss), "ratio");
  ledger->Add("serve.forward_ms.p50",
              window.HistogramQuantile("serve.forward_us", 0.5) / 1e3, "ms");
  ledger->Add("serve.tokenize_ms.p50", Median(phase.tokenize_ms), "ms");
  const uint64_t tok_hit = window.Counter("serve.cache.tokenizer.hit");
  const uint64_t tok_miss = window.Counter("serve.cache.tokenizer.miss");
  ledger->Add("serve.tokenizer_cache_hit_share",
              Share(tok_hit, tok_hit + tok_miss), "ratio");
  ledger->Add("serve.degraded_share",
              static_cast<double>(phase.degraded) / sent, "ratio");
  ledger->Add("serve.shed_share", static_cast<double>(phase.shed) / sent,
              "ratio");
  ledger->Add("serve.failed_share",
              static_cast<double>(phase.sent - phase.ok - phase.degraded -
                                  phase.shed) /
                  sent,
              "ratio");
  ledger->Add("serve.latency_p99_ms", Quantile(phase.latency_ms, 0.99), "ms");
  ledger->Add("serve.latency_samples",
              static_cast<double>(phase.latency_ms.size()), "count");
}

/// Every sampled request's benchmark span and the server's submit,
/// forward and finish records must carry one trace id.
std::string CheckTraceIds(const std::deque<uint64_t>& trace_ids) {
  constexpr int kBench = 1, kSubmit = 2, kForward = 4, kFinish = 8;
  std::unordered_map<uint64_t, int> seen;
  for (const auto& event : bigcity::obs::TraceBuffer::Global().Events()) {
    if (event.trace_id == 0) continue;
    int bit = 0;
    if (event.phase == 'X') {
      if (std::strcmp(event.name, "bench.request") == 0) bit = kBench;
      if (std::strcmp(event.name, "serve.submit") == 0) bit = kSubmit;
      if (std::strcmp(event.name, "serve.process") == 0) bit = kForward;
      if (std::strcmp(event.name, "serve.finish") == 0) bit = kFinish;
    } else if (event.phase == 't' &&
               std::strcmp(event.name, "serve.request") == 0) {
      bit = kForward;  // A batch member's step inside the batch forward.
    }
    seen[event.trace_id] |= bit;
  }
  if (trace_ids.empty()) return "no traced request to check";
  for (uint64_t id : trace_ids) {
    if (seen[id] != (kBench | kSubmit | kForward | kFinish)) {
      return "trace id " + std::to_string(id) +
             " lacks one of bench.request / serve.submit / forward / "
             "serve.finish (mask " + std::to_string(seen[id]) + ")";
    }
  }
  return "";
}

void AddCommonLayerMetrics(const ObsWindow& window, double busy_seconds,
                           double items, Ledger* ledger) {
  items = std::max(items, 1.0);
  ledger->Add("kernels.gemm_gflops",
              static_cast<double>(window.Counter("kernels.gemm.flops")) /
                  std::max(busy_seconds, 1e-9) / 1e9,
              "GFLOP/s");
  ledger->Add("kernels.gemm_calls_per_item",
              static_cast<double>(window.Counter("kernels.gemm.calls")) / items,
              "count");
  const uint64_t hit = window.Counter("plan.cache.hit");
  const uint64_t miss = window.Counter("plan.cache.miss");
  ledger->Add("plan.cache_hit_share", Share(hit, hit + miss), "ratio");
  ledger->Add("mem.allocs_per_item",
              static_cast<double>(window.alloc_count()) / items, "count");
  ledger->Add("mem.alloc_bytes_per_item",
              static_cast<double>(window.alloc_bytes()) / items, "B");
  ledger->Add("mem.peak_live_mb",
              static_cast<double>(
                  bigcity::obs::MemoryTracker::Global().peak_bytes()) /
                  (1024.0 * 1024.0),
              "MB");
}

void AddProfileMetrics(const ProfileShares& shares, Ledger* ledger) {
  ledger->Add("profile.tokenizer.share", shares.tokenizer, "ratio");
  ledger->Add("profile.tokenizer.fusion.share", shares.tokenizer_fusion,
              "ratio");
  ledger->Add("profile.tokenizer.dynamic_encoder.share",
              shares.tokenizer_dynamic_encoder, "ratio");
  ledger->Add("profile.backbone.attn.share", shares.backbone_attn, "ratio");
  ledger->Add("profile.backbone.ffn.share", shares.backbone_ffn, "ratio");
  ledger->Add("profile.heads.share", shares.heads, "ratio");
  ledger->Add("profile.gemm_share", shares.gemm, "ratio");
}

/// Arms request tracing and the op profiler for one phase.
class TracedScope {
 public:
  TracedScope() {
    bigcity::obs::TraceBuffer::Global().SetCapacity(size_t{1} << 17);
    bigcity::obs::Profiler::Global().Reset();
    bigcity::obs::SetTracingEnabled(true);
    bigcity::obs::SetProfilerEnabled(true);
  }
  ~TracedScope() {
    bigcity::obs::SetProfilerEnabled(false);
    bigcity::obs::SetTracingEnabled(false);
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
};

// --- Training ------------------------------------------------------------

/// A fresh model holding `pretrained`'s weights with the structure
/// Trainer::PretrainBackbone leaves behind: adapters attached, base frozen.
std::unique_ptr<BigCityModel> CopyPretrained(const CityDataset* dataset,
                                             const BigCityConfig& config,
                                             const BigCityModel& pretrained) {
  auto model = std::make_unique<BigCityModel>(dataset, config);
  bigcity::util::Rng lora_rng(0);  // Overwritten by the copy below.
  model->backbone()->EnableLora(&lora_rng);
  model->backbone()->FreezeBase();
  model->CopyStateFrom(pretrained);
  return model;
}

struct TrainRep {
  Clock::time_point start;
  double stage1_s = 0, stage2_s = 0;
  Clock::time_point end() const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(stage1_s + stage2_s));
  }
  float final_loss = 0;
  std::vector<double> stage2_losses;
  std::string error;
  std::unique_ptr<BigCityModel> model;
};

/// One timed repetition of `schedule` on a copy of `pretrained`; reads the
/// epoch losses back from the trainer's run report.
TrainRep RunTrainRep(const CityDataset* dataset, const BigCityConfig& config,
                     const BigCityModel& pretrained,
                     bigcity::train::TrainConfig schedule,
                     const std::string& report_path) {
  TrainRep rep;
  rep.model = CopyPretrained(dataset, config, pretrained);
  schedule.run_report_path = report_path;
  bigcity::train::Trainer trainer(rep.model.get(), schedule);
  bigcity::util::Status status;
  rep.start = Clock::now();
  {
    bigcity::obs::TraceSpan span("bench.train.stage1", "bench");
    const auto start = Clock::now();
    status = trainer.RunStage1();
    rep.stage1_s = SecondsSince(start);
  }
  if (status.ok()) {
    bigcity::obs::TraceSpan span("bench.train.stage2", "bench");
    const auto start = Clock::now();
    status = trainer.RunStage2();
    rep.stage2_s = SecondsSince(start);
  }
  if (!status.ok()) {
    rep.error = "training failed: " + status.ToString();
    return rep;
  }
  rep.final_loss = trainer.last_stage2_loss();
  if (trainer.total_skipped_steps() != 0 || trainer.rollbacks() != 0) {
    rep.error = "training guard skipped " +
                std::to_string(trainer.total_skipped_steps()) +
                " steps and rolled back " +
                std::to_string(trainer.rollbacks()) + " times";
    return rep;
  }
  std::ifstream report(report_path);
  std::string line;
  while (std::getline(report, line)) {
    if (line.find("\"event\":\"epoch\"") == std::string::npos) continue;
    const size_t at = line.find("\"loss\":");
    if (at == std::string::npos) continue;
    const double loss = std::strtod(line.c_str() + at + 7, nullptr);
    if (!std::isfinite(loss)) {
      rep.error = "non-finite epoch loss in " + line;
      return rep;
    }
    if (line.find("\"phase\":\"stage2\"") != std::string::npos) {
      rep.stage2_losses.push_back(loss);
    }
  }
  if (rep.stage2_losses.size() != static_cast<size_t>(schedule.stage2_epochs) ||
      !std::isfinite(rep.final_loss)) {
    rep.error = "run report holds " + std::to_string(rep.stage2_losses.size()) +
                " stage-2 epochs, expected " +
                std::to_string(schedule.stage2_epochs);
  }
  return rep;
}


struct TrainPhase {
  std::vector<TrainRep> reps;
  double busy_s = 0;  // Sum of the repetitions' training time.
  std::string error;

  /// Mean last stage-2 epoch loss of the first `count` repetitions.
  double MeanFinalLoss(int count) const {
    double sum = 0;
    for (int i = 0; i < count; ++i) {
      sum += reps[static_cast<size_t>(i)].final_loss;
    }
    return sum / count;
  }

  /// The schedule must learn: over the first `count` repetitions, the
  /// mean last stage-2 epoch loss ends below the mean first epoch's.
  std::string CheckProgress(int count) const {
    double first = 0;
    for (int i = 0; i < count; ++i) {
      first += reps[static_cast<size_t>(i)].stage2_losses.front() / count;
    }
    const double last = MeanFinalLoss(count);
    if (last < first) return "";
    return "mean final stage-2 loss " + std::to_string(last) +
           " is not below the mean first epoch's " + std::to_string(first);
  }
};

/// Repeats the schedule, repetition i with trainer seed
/// RepetitionSeed(schedule.seed, i), until at least `min_reps` ran and
/// `seconds` have passed.
TrainPhase RunTrainPhase(const CityDataset* dataset,
                         const BigCityConfig& config,
                         const BigCityModel& pretrained,
                         const bigcity::train::TrainConfig& schedule,
                         int min_reps, double seconds,
                         const std::string& report_path) {
  TrainPhase phase;
  const auto start = Clock::now();
  while (static_cast<int>(phase.reps.size()) < min_reps ||
         SecondsSince(start) < seconds) {
    // Only the last repetition's model is kept (the probe reads it).
    if (!phase.reps.empty()) phase.reps.back().model.reset();
    bigcity::train::TrainConfig repetition = schedule;
    repetition.seed =
        RepetitionSeed(schedule.seed, static_cast<int>(phase.reps.size()));
    TrainRep rep = RunTrainRep(dataset, config, pretrained, repetition,
                               report_path);
    phase.busy_s += rep.stage1_s + rep.stage2_s;
    if (!rep.error.empty()) {
      phase.error = rep.error;
      return phase;
    }
    phase.reps.push_back(std::move(rep));
  }
  return phase;
}

struct TrainFigures {
  double throughput_per_s = 0;
  double step_ms = 0;
  double steal_share = 0;  // Over the whole timed phase.
};

/// Sequences per second and mean step time: medians over the quieter half
/// of the repetitions by CPU time the host stole, each scaled to the CPU
/// time the host left the guest.
TrainFigures QuietFigures(const TrainPhase& phase, const ScheduleSize& size,
                          const StealMeter& steal) {
  std::vector<double> shares;
  for (const TrainRep& rep : phase.reps) {
    shares.push_back(steal.Share(rep.start, rep.end()));
  }
  std::vector<double> throughput, step_ms;
  for (size_t i : QuietIntervals(shares)) {
    const double seconds = (phase.reps[i].stage1_s + phase.reps[i].stage2_s) *
                           Available(shares[i]);
    throughput.push_back(static_cast<double>(size.sequences) / seconds);
    step_ms.push_back(seconds * 1e3 / static_cast<double>(size.steps));
  }
  return {Median(throughput), Median(step_ms),
          steal.Share(phase.reps.front().start, phase.reps.back().end())};
}

void AddTrainLayerMetrics(const TrainPhase& phase, const ObsWindow& window,
                          Ledger* ledger) {
  std::vector<double> stage1, stage2;
  for (const TrainRep& rep : phase.reps) {
    stage1.push_back(rep.stage1_s);
    stage2.push_back(rep.stage2_s);
  }
  ledger->Add("train.stage1_s", Median(stage1), "s");
  ledger->Add("train.stage2_s", Median(stage2), "s");
  ledger->Add("train.forward_ms.p50",
              window.HistogramQuantile("train.forward_us", 0.5) / 1e3, "ms");
  ledger->Add("train.backward_ms.p50",
              window.HistogramQuantile("train.backward_us", 0.5) / 1e3, "ms");
  ledger->Add("train.optim_ms.p50",
              window.HistogramQuantile("train.optim_us", 0.5) / 1e3, "ms");
  ledger->Add("train.tokens_per_s",
              static_cast<double>(window.Counter("train.tokens")) /
                  std::max(phase.busy_s, 1e-9),
              "1/s");
}

/// The per-layer probe's inputs, drawn from the workload seed's mix.
void ProbeInputs(const CityDataset* dataset, const BigCityConfig& config,
                 uint64_t seed,
                 std::vector<bigcity::data::Trajectory>* prefixes,
                 std::vector<Request>* requests) {
  MixedStream stream(dataset, config, seed);
  std::vector<int> per_task(bigcity::core::kNumTasks, 0);
  while (prefixes->size() < 16 ||
         *std::min_element(per_task.begin(), per_task.end()) < 4) {
    Request request = stream.Next();
    int& count = per_task[static_cast<size_t>(request.task)];
    if (request.task == bigcity::core::Task::kNextHop &&
        request.trajectory.length() >= 3 && prefixes->size() < 16) {
      prefixes->push_back(request.trajectory);
    }
    if (count < 4) {
      ++count;
      requests->push_back(std::move(request));
    }
  }
}

std::string ProbeModel(BigCityModel* model, const CityDataset* dataset,
                       const BigCityConfig& config, uint64_t seed,
                       Ledger* ledger) {
  std::vector<bigcity::data::Trajectory> prefixes;
  std::vector<Request> requests;
  ProbeInputs(dataset, config, seed, &prefixes, &requests);
  return ProbeLayers(model, prefixes, requests, ledger);
}

// --- Workloads -----------------------------------------------------------

struct ServeStack {
  std::unique_ptr<CityDataset> dataset;
  std::unique_ptr<BigCityModel> reference;  // Prototype of every replica.
  std::unique_ptr<InferenceServer> server;

  /// Tears down in dependency order: the server reads both the others.
  void Reset() {
    server.reset();
    reference.reset();
    dataset.reset();
  }
};

std::string BuildServeStack(const RunOptions& options, ServeStack* stack,
                            SetupTimes* times) {
  const BigCityConfig config = ModelFor(options.workload, options.smoke);
  const int slots = SlotsFor(options.workload);
  const auto start = Clock::now();
  times->start = start;
  auto mark = start;
  auto lap = [&] {
    const double seconds = SecondsSince(mark);
    mark = Clock::now();
    return seconds;
  };
  stack->dataset = std::make_unique<CityDataset>(BenchCity());
  times->dataset_s = lap();
  stack->reference =
      std::make_unique<BigCityModel>(stack->dataset.get(), config);
  times->replicas_s = lap();
  {
    // Serving needs no language-model quality, only the served structure:
    // PretrainBackbone with zero LM epochs attaches the LoRA adapters and
    // freezes the base, as after training.
    bigcity::train::TrainConfig pretrain;
    pretrain.pretrain_lm_epochs = 0;
    bigcity::train::Trainer trainer(stack->reference.get(), pretrain);
    if (auto status = trainer.PretrainBackbone(); !status.ok()) {
      return "pretraining failed: " + status.ToString();
    }
  }
  times->pretrain_s = lap();
  stack->server = std::make_unique<InferenceServer>(
      stack->dataset.get(), config, ServeOptionsFor(slots),
      stack->reference.get());
  if (auto status = stack->server->Start(); !status.ok()) {
    return "server start failed: " + status.ToString();
  }
  times->replicas_s += lap();
  const Source warmup =
      IsWalk(options.workload)
          ? WalkSource(stack->dataset.get(),
                       MakeWalkPlan(*stack->dataset,
                                    config.max_trajectory_tokens, kWarmupSeed,
                                    slots),
                       slots, 1)
          : MixedSource(stack->dataset.get(), config, kWarmupSeed, 64 * slots);
  ServePhase phase = RunServePhase(stack->server.get(), slots, -1, warmup);
  if (phase.ok != phase.sent) return "warm-up requests failed";
  times->warmup_s = lap();
  times->end = Clock::now();
  times->total_s = SecondsSince(start);
  return "";
}

Source WorkloadSource(const RunOptions& options, const ServeStack& stack) {
  const BigCityConfig config = ModelFor(options.workload, options.smoke);
  const int slots = SlotsFor(options.workload);
  if (IsWalk(options.workload)) {
    return WalkSource(stack.dataset.get(),
                      MakeWalkPlan(*stack.dataset, config.max_trajectory_tokens,
                                   options.seed, kWalkPlanWalks),
                      slots, -1);
  }
  return MixedSource(stack.dataset.get(), config, options.seed, -1);
}

std::string CheckServePhase(const ServePhase& phase, BigCityModel* reference,
                            bool walk, int max_prefix) {
  if (!phase.error.empty()) return phase.error;
  if (phase.sent == 0) return "no request was sent";
  std::set<int> tasks, prefixes;
  for (const ServedOutput& kept : phase.kept) {
    tasks.insert(static_cast<int>(kept.request.task));
    prefixes.insert(kept.request.trajectory.length());
  }
  if (!walk && static_cast<int>(tasks.size()) != bigcity::core::kNumTasks) {
    return "parity sample covers " + std::to_string(tasks.size()) +
           " of the eight tasks";
  }
  if (walk && static_cast<int>(prefixes.size()) != max_prefix - 1) {
    return "parity sample covers " + std::to_string(prefixes.size()) +
           " walk prefix lengths of " + std::to_string(max_prefix - 1);
  }
  if (phase.loss_kept.empty()) return "no scored next-hop request";
  return CheckParity(reference, phase.kept);
}

RunResult RunServe(const RunOptions& options, const StealMeter& steal) {
  RunResult result;
  const bool walk = IsWalk(options.workload);
  const int slots = SlotsFor(options.workload);
  const BigCityConfig config = ModelFor(options.workload, options.smoke);
  std::vector<SetupTimes> setups(options.smoke ? 1 : walk ? 5 : 7);
  ServeStack stack;
  for (SetupTimes& times : setups) {
    stack.Reset();  // Tear the previous set-up down first.
    if (std::string error = BuildServeStack(options, &stack, &times);
        !error.empty()) {
      result.error = error;
      return result;
    }
  }
  // Walks longer than any test trajectory cannot occur: cover what can.
  int max_prefix = 2;
  for (const auto& trip : stack.dataset->test()) {
    max_prefix = std::max(
        max_prefix, std::min(trip.length(), config.max_trajectory_tokens));
  }
  result.digest = InputDigest(options.workload, options.seed, options.smoke);
  // A traced run splits its time between an untraced and a traced phase.
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;

  ObsWindow window_a;
  window_a.Open();
  ServePhase phase_a = RunServePhase(stack.server.get(), slots, phase_s,
                                     WorkloadSource(options, stack));
  window_a.Close();
  if (options.inject_mismatch && !phase_a.kept.empty()) {
    float& value = phase_a.kept.front().values.front();
    value = std::nextafter(value, INFINITY);
  }
  result.attempted = phase_a.sent;
  result.failed = phase_a.sent - phase_a.within_slo;
  if (std::string error =
          CheckServePhase(phase_a, stack.reference.get(), walk, max_prefix);
      !error.empty()) {
    result.error = error;
    return result;
  }
  const ServeFigures figures_a = QuietFigures(phase_a, phase_s, steal);
  std::printf("host steal share %.4f over the timed phase\n",
              figures_a.steal_share);
  if (!options.trace) {
    Ledger& ledger = result.ledger;
    AddSetupMetrics(setups, /*end_to_end=*/true, steal, &ledger);
    ledger.Add("throughput_per_s", figures_a.throughput_per_s, "1/s");
    ledger.Add("latency_p50_ms", figures_a.latency_p50_ms, "ms");
    ledger.Add("success_share",
               static_cast<double>(phase_a.within_slo) /
                   static_cast<double>(phase_a.sent),
               "ratio");
    ledger.Add("peak_rss_mb", PeakRssMb(), "MB");
    ledger.Add("final_loss",
               NextHopLoss(phase_a.kept, phase_a.loss_kept,
                           phase_a.loss_targets),
               "loss");
    return result;
  }

  // Traced run: the same inputs again with tracing and the profiler armed.
  ServePhase phase_b;
  ProfileShares shares;
  {
    TracedScope traced;
    phase_b = RunServePhase(stack.server.get(), slots, phase_s,
                            WorkloadSource(options, stack));
    shares = ReadProfileShares();
  }
  result.attempted += phase_b.sent;
  result.failed += phase_b.sent - phase_b.within_slo;
  std::string error =
      CheckServePhase(phase_b, stack.reference.get(), walk, max_prefix);
  if (error.empty()) error = CheckTraceIds(phase_b.recent_trace_ids);
  if (!error.empty()) {
    result.error = error;
    return result;
  }
  stack.server->Stop();
  Ledger& ledger = result.ledger;
  AddServeLayerMetrics(phase_a, window_a, &ledger);
  AddCommonLayerMetrics(window_a, phase_a.seconds,
                        static_cast<double>(phase_a.ok), &ledger);
  AddProfileMetrics(shares, &ledger);
  AddSetupMetrics(setups, /*end_to_end=*/false, steal, &ledger);
  ledger.Add("trace.overhead_share",
             1.0 - QuietFigures(phase_b, phase_s, steal).throughput_per_s /
                       figures_a.throughput_per_s,
             "ratio");
  {
    bigcity::obs::SetTracingEnabled(true);
    error = ProbeModel(stack.reference.get(), stack.dataset.get(), config,
                       options.seed, &ledger);
    bigcity::obs::SetTracingEnabled(false);
  }
  if (!error.empty()) {
    result.error = error;
    return result;
  }
  // This workload runs no training: a minimal schedule on the served model
  // fills the training layers' rows.
  ObsWindow window;
  window.Open();
  TrainPhase leg = RunTrainPhase(
      stack.dataset.get(), config, *stack.reference,
      TrainSchedule(options.seed, /*smoke=*/true), 1, 0,
      options.out_dir + "/train_leg_report.jsonl");
  window.Close();
  if (!leg.error.empty()) {
    result.error = "training leg: " + leg.error;
    return result;
  }
  AddTrainLayerMetrics(leg, window, &ledger);
  return result;
}

struct TrainStack {
  std::unique_ptr<CityDataset> dataset;
  std::unique_ptr<BigCityModel> pretrained;  // Reads the dataset.
};

std::string BuildTrainStack(const RunOptions& options,
                            const bigcity::train::TrainConfig& schedule,
                            TrainStack* stack, SetupTimes* times) {
  const BigCityConfig config = ModelFor(options.workload, options.smoke);
  const auto start = Clock::now();
  times->start = start;
  auto mark = start;
  auto lap = [&] {
    const double seconds = SecondsSince(mark);
    mark = Clock::now();
    return seconds;
  };
  stack->dataset = std::make_unique<CityDataset>(BenchCity());
  times->dataset_s = lap();
  stack->pretrained =
      std::make_unique<BigCityModel>(stack->dataset.get(), config);
  times->replicas_s = lap();
  {
    // The in-repo LM pre-training stands in for loading GPT-2 weights.
    bigcity::train::Trainer trainer(stack->pretrained.get(), schedule);
    if (auto status = trainer.PretrainBackbone(); !status.ok()) {
      return "pretraining failed: " + status.ToString();
    }
  }
  times->pretrain_s = lap();
  TrainRep warmup = RunTrainRep(
      stack->dataset.get(), config, *stack->pretrained,
      TrainSchedule(kWarmupSeed, /*smoke=*/true),
      options.out_dir + "/train_warmup_report.jsonl");
  if (!warmup.error.empty()) return "warm-up: " + warmup.error;
  times->warmup_s = lap();
  times->end = Clock::now();
  times->total_s = SecondsSince(start);
  return "";
}

RunResult RunTrain(const RunOptions& options, const StealMeter& steal) {
  RunResult result;
  const BigCityConfig config = ModelFor(options.workload, options.smoke);
  const bigcity::train::TrainConfig schedule =
      TrainSchedule(options.seed, options.smoke);
  const std::string report = options.out_dir + "/train_report.jsonl";
  std::vector<SetupTimes> setups(options.smoke ? 1 : 7);
  TrainStack stack;
  for (SetupTimes& times : setups) {
    stack.pretrained.reset();
    stack.dataset.reset();
    if (std::string error = BuildTrainStack(options, schedule, &stack, &times);
        !error.empty()) {
      result.error = error;
      return result;
    }
  }
  result.digest = InputDigest(options.workload, options.seed, options.smoke);
  const ScheduleSize size = SizeOfSchedule(*stack.dataset, schedule);
  // A traced run splits its time between an untraced and a traced phase.
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;

  ObsWindow window_a;
  window_a.Open();
  const int min_reps = options.smoke ? 1 : kLossRepetitions;
  TrainPhase phase_a =
      RunTrainPhase(stack.dataset.get(), config, *stack.pretrained, schedule,
                    min_reps, phase_s, report);
  window_a.Close();
  if (options.inject_mismatch && phase_a.error.empty()) {
    for (TrainRep& rep : phase_a.reps) {
      rep.final_loss = std::nextafter(
          static_cast<float>(rep.stage2_losses.front()), INFINITY);
    }
  }
  if (phase_a.error.empty()) phase_a.error = phase_a.CheckProgress(min_reps);
  if (!phase_a.error.empty()) {
    result.error = phase_a.error;
    return result;
  }
  const auto reps = static_cast<int64_t>(phase_a.reps.size());
  result.attempted = size.steps * reps;
  result.failed = 0;  // RunTrainRep fails the run on any skipped step.
  const uint64_t applied = window_a.Counter("train.steps.applied");
  if (BIGCITY_OBS && applied != static_cast<uint64_t>(result.attempted)) {
    result.error = "trainer applied " + std::to_string(applied) +
                   " steps; the schedule has " +
                   std::to_string(result.attempted);
    return result;
  }
  const TrainFigures figures_a = QuietFigures(phase_a, size, steal);
  std::printf("host steal share %.4f over the timed phase\n",
              figures_a.steal_share);
  if (!options.trace) {
    Ledger& ledger = result.ledger;
    AddSetupMetrics(setups, /*end_to_end=*/true, steal, &ledger);
    ledger.Add("throughput_per_s", figures_a.throughput_per_s, "1/s");
    ledger.Add("latency_p50_ms", figures_a.step_ms, "ms");
    ledger.Add("success_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "ratio");
    ledger.Add("peak_rss_mb", PeakRssMb(), "MB");
    ledger.Add("final_loss", phase_a.MeanFinalLoss(min_reps), "loss");
    return result;
  }

  TrainPhase phase_b;
  ProfileShares shares;
  {
    TracedScope traced;
    phase_b = RunTrainPhase(stack.dataset.get(), config, *stack.pretrained,
                            schedule, 1, phase_s, report);
    shares = ReadProfileShares();
  }
  // Tracing and the profiler must not change what training computes.
  for (size_t i = 0; phase_b.error.empty() && i < phase_b.reps.size() &&
                     i < phase_a.reps.size();
       ++i) {
    if (std::memcmp(&phase_a.reps[i].final_loss, &phase_b.reps[i].final_loss,
                    sizeof(float)) != 0) {
      phase_b.error = "traced repetition " + std::to_string(i) +
                      " ended with a different loss than the untraced one";
    }
  }
  if (!phase_b.error.empty()) {
    result.error = phase_b.error;
    return result;
  }
  result.attempted += size.steps * static_cast<int64_t>(phase_b.reps.size());
  // The profiler partitions op time into module self times; together they
  // must account for the profiled training time.
  if (std::fabs(shares.total_self_s - phase_b.busy_s) > 0.10 * phase_b.busy_s) {
    char message[160];
    std::snprintf(message, sizeof message,
                  "profiled self time %.3f s is not within 10%% of the "
                  "profiled phase's %.3f s",
                  shares.total_self_s, phase_b.busy_s);
    result.error = message;
    return result;
  }
  Ledger& ledger = result.ledger;
  AddTrainLayerMetrics(phase_a, window_a, &ledger);
  AddCommonLayerMetrics(window_a, phase_a.busy_s,
                        static_cast<double>(size.sequences * reps), &ledger);
  AddProfileMetrics(shares, &ledger);
  AddSetupMetrics(setups, /*end_to_end=*/false, steal, &ledger);
  ledger.Add("trace.overhead_share",
             1.0 - QuietFigures(phase_b, size, steal).throughput_per_s /
                       figures_a.throughput_per_s,
             "ratio");
  BigCityModel* trained = phase_b.reps.back().model.get();
  bigcity::obs::SetTracingEnabled(true);
  std::string error = ProbeModel(trained, stack.dataset.get(), config,
                                 options.seed, &ledger);
  bigcity::obs::SetTracingEnabled(false);
  if (!error.empty()) {
    result.error = error;
    return result;
  }
  // This workload serves nothing: the trained model served through the
  // runtime under the seeded mix fills the serving layers' rows, and its
  // outputs must match the trained model's own.
  const int slots = SlotsFor("serve_mixed");
  InferenceServer server(stack.dataset.get(), config, ServeOptionsFor(slots),
                         trained);
  if (auto status = server.Start(); !status.ok()) {
    result.error = "serving leg start failed: " + status.ToString();
    return result;
  }
  ObsWindow window;
  window.Open();
  ServePhase leg = RunServePhase(
      &server, slots, -1,
      MixedSource(stack.dataset.get(), config, options.seed,
                  options.smoke ? 128 : 600));
  window.Close();
  server.Stop();
  error = CheckServePhase(leg, trained, /*walk=*/false, 0);
  if (!error.empty()) {
    result.error = "serving leg: " + error;
    return result;
  }
  AddServeLayerMetrics(leg, window, &ledger);
  return result;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "serve_walk" || name == "serve_mixed" || name == "train";
}

std::string InputDigest(const std::string& workload, uint64_t seed,
                        bool smoke) {
  const CityDataset dataset(BenchCity());
  const BigCityConfig config = ModelFor(workload, smoke);
  if (IsWalk(workload)) {
    return DigestWalkPlan(
        dataset, MakeWalkPlan(dataset, config.max_trajectory_tokens, seed,
                              kWalkPlanWalks));
  }
  if (IsTrain(workload)) {
    return DigestTrainSchedule(dataset, TrainSchedule(seed, smoke));
  }
  return DigestMixedStream(&dataset, config, seed, kMixedDigestRequests);
}

RunResult RunWorkload(const RunOptions& options) {
  const StealMeter steal;
  RunResult result = IsTrain(options.workload) ? RunTrain(options, steal)
                                               : RunServe(options, steal);
  if (options.trace) {
    std::string error;
    const std::string path =
        options.out_dir + "/" + options.workload + ".trace.json";
    if (!bigcity::obs::TraceBuffer::Global().WriteJson(path, &error) &&
        result.error.empty()) {
      result.error = "cannot write " + path + ": " + error;
    }
  }
  return result;
}

}  // namespace perfbench
