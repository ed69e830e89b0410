#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <utility>

#include "data/masking.h"
#include "nn/introspect.h"
#include "nn/ops.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/checkpoint.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/logging.h"

namespace bigcity::train {

using core::Task;
using data::StUnitSequence;
using nn::Tensor;

namespace {

/// All tasks that carry a stage-2 training loss (similarity search is
/// representation-based and has no dedicated loss).
std::vector<Task> TrainableTasks(bool has_dynamic) {
  std::vector<Task> tasks = {Task::kNextHop, Task::kTrajClassification,
                             Task::kTravelTimeEstimation, Task::kTrajRecovery};
  if (has_dynamic) {
    tasks.push_back(Task::kTrafficOneStep);
    tasks.push_back(Task::kTrafficMultiStep);
    tasks.push_back(Task::kTrafficImputation);
  }
  return tasks;
}

/// Distinguishes full training-state snapshots from plain module files.
constexpr char kTrainerStateTag[] = "bigcity-trainer-state";

constexpr int kPhasePretrain = 0;
constexpr int kPhaseStage1 = 1;
constexpr int kPhaseStage2 = 2;
constexpr int kPhaseDone = 3;

}  // namespace

std::vector<std::string> PretrainCorpus() {
  return core::InstructionCorpus();
}

Trainer::Trainer(core::BigCityModel* model, TrainConfig config)
    : model_(model), config_(config), rng_(config.seed),
      // Capacity 1: training stages run sequentially, so holding one plan
      // at a time means each stage transition evicts (and frees) the
      // previous stage's arena instead of keeping all three resident.
      plan_cache_(/*capacity=*/1, config.plans) {
  BIGCITY_CHECK(model != nullptr);
  if (config_.tasks.empty()) {
    config_.tasks =
        TrainableTasks(model_->dataset()->config().has_dynamic_features);
  }
  // Handles are process-stable; the names match the instrumentation macros
  // below, so ReportEpoch can read what the probes recorded.
  auto& registry = obs::MetricsRegistry::Global();
  h_data_us_ = registry.GetHistogram("train.data_us");
  h_forward_us_ = registry.GetHistogram("train.forward_us");
  h_backward_us_ = registry.GetHistogram("train.backward_us");
  h_optim_us_ = registry.GetHistogram("train.optim_us");
  h_checkpoint_us_ = registry.GetHistogram("train.checkpoint_us");
  c_gemm_flops_ = registry.GetCounter("kernels.gemm.flops");
  c_gemm_calls_ = registry.GetCounter("kernels.gemm.calls");
  reported_.gemm_flops = c_gemm_flops_->Value();
  reported_.gemm_calls = c_gemm_calls_->Value();
  reported_.data_us = h_data_us_->Sum();
  reported_.forward_us = h_forward_us_->Sum();
  reported_.backward_us = h_backward_us_->Sum();
  reported_.optim_us = h_optim_us_->Sum();
  reported_.checkpoint_us = h_checkpoint_us_->Sum();
  // Memory churn is process-global (model construction already allocated),
  // so the cursor starts at the current totals like the other metrics.
  reported_.mem_alloc_bytes = obs::MemoryTracker::Global().alloc_bytes();
  reported_.mem_allocs = obs::MemoryTracker::Global().alloc_count();
  if (!config_.run_report_path.empty() &&
      !report_.Open(config_.run_report_path)) {
    BIGCITY_LOG(Warning) << "cannot open run report "
                         << config_.run_report_path << "; disabled";
  }
}

// --- Run report -------------------------------------------------------------

void Trainer::ReportEpoch(const char* stage, int epoch, float loss,
                          double seconds) {
  BIGCITY_COUNTER_INC("train.epochs");
  BIGCITY_COUNTER_ADD("train.tokens", static_cast<uint64_t>(epoch_tokens_));
  if (!report_.is_open()) return;
  auto& memory = obs::MemoryTracker::Global();
  ObsCursor now;
  now.gemm_flops = c_gemm_flops_->Value();
  now.gemm_calls = c_gemm_calls_->Value();
  now.data_us = h_data_us_->Sum();
  now.forward_us = h_forward_us_->Sum();
  now.backward_us = h_backward_us_->Sum();
  now.optim_us = h_optim_us_->Sum();
  now.checkpoint_us = h_checkpoint_us_->Sum();
  now.skipped_steps = total_skipped_steps_;
  now.rollbacks = rollbacks_;
  now.checkpoint_writes = checkpoint_writes_;
  now.mem_alloc_bytes = memory.alloc_bytes();
  now.mem_allocs = memory.alloc_count();
  obs::RunReport::Record record;
  record.Str("event", "epoch")
      .Str("phase", stage)
      .Int("epoch", epoch)
      .Num("loss", loss)
      .Num("seconds", seconds)
      .Int("tokens", epoch_tokens_)
      .Num("tokens_per_sec",
           seconds > 0 ? static_cast<double>(epoch_tokens_) / seconds : 0.0)
      .Int("gemm_flops",
           static_cast<int64_t>(now.gemm_flops - reported_.gemm_flops))
      .Int("gemm_calls",
           static_cast<int64_t>(now.gemm_calls - reported_.gemm_calls))
      .Num("data_us", now.data_us - reported_.data_us)
      .Num("forward_us", now.forward_us - reported_.forward_us)
      .Num("backward_us", now.backward_us - reported_.backward_us)
      .Num("optim_us", now.optim_us - reported_.optim_us)
      .Num("checkpoint_us", now.checkpoint_us - reported_.checkpoint_us)
      .Int("guard_skipped_steps", now.skipped_steps - reported_.skipped_steps)
      .Int("rollbacks", now.rollbacks - reported_.rollbacks)
      .Int("checkpoint_writes",
           now.checkpoint_writes - reported_.checkpoint_writes)
      .Int("mem_live_bytes", memory.live_bytes())
      .Int("mem_peak_bytes", memory.peak_bytes())
      .Int("mem_alloc_bytes", now.mem_alloc_bytes - reported_.mem_alloc_bytes)
      .Int("mem_allocs", now.mem_allocs - reported_.mem_allocs);
  report_.Write(record);
  reported_ = now;
}

void Trainer::ReportSummary() {
  if (!report_.is_open()) return;
  // Queue-wait percentiles over the whole run: the histogram is populated
  // by the thread pool; single-threaded runs leave it empty and the
  // percentiles report 0.
  auto* queue_wait =
      obs::MetricsRegistry::Global().GetHistogram("threadpool.queue_wait_us");
  const auto queue_buckets = queue_wait->BucketCounts();
  const auto& queue_bounds = queue_wait->bounds();
  auto& memory = obs::MemoryTracker::Global();
  obs::RunReport::Record record;
  record.Str("event", "summary")
      .Int("phase", phase_)
      .Int("gemm_flops_total", static_cast<int64_t>(c_gemm_flops_->Value()))
      .Int("gemm_calls_total", static_cast<int64_t>(c_gemm_calls_->Value()))
      .Int("applied_steps", applied_steps_)
      .Int("guard_skipped_steps", total_skipped_steps_)
      .Int("rollbacks", rollbacks_)
      .Int("checkpoint_writes", checkpoint_writes_)
      .Num("queue_wait_p50_us",
           obs::HistogramPercentile(queue_bounds, queue_buckets, 0.50))
      .Num("queue_wait_p95_us",
           obs::HistogramPercentile(queue_bounds, queue_buckets, 0.95))
      .Num("queue_wait_p99_us",
           obs::HistogramPercentile(queue_bounds, queue_buckets, 0.99))
      .Int("mem_live_bytes", memory.live_bytes())
      .Int("mem_peak_bytes", memory.peak_bytes())
      // Events the trace ring overwrote before export; nonzero means the
      // run's trace JSON is missing its oldest spans.
      .Int("trace_dropped",
           static_cast<int64_t>(obs::TraceBuffer::Global().dropped()))
      .Num("stage1_seconds_per_epoch", stage1_epoch_seconds_)
      .Num("stage2_seconds_per_epoch", stage2_epoch_seconds_)
      .Num("stage1_loss", last_stage1_loss_)
      .Num("stage2_loss", last_stage2_loss_);
  report_.Write(record);
}

namespace {

/// Parameter name minus its trailing segment — the owning module's dotted
/// path as produced by Module::NamedParameters() / AssignModulePaths()
/// ("backbone.blocks.0.attn.wq.base.weight" -> ".../wq.base").
std::string LayerOf(const std::string& parameter_name) {
  const auto dot = parameter_name.rfind('.');
  return dot == std::string::npos ? parameter_name
                                  : parameter_name.substr(0, dot);
}

}  // namespace

void Trainer::ReportHealth(
    float loss, float grad_norm,
    const std::vector<std::pair<std::string, nn::Tensor>>& params,
    const std::vector<std::vector<float>>& before) {
  struct LayerAccumulator {
    double grad_sq = 0, weight_sq = 0, update_sq = 0;
    bool finite = true;
  };
  std::map<std::string, LayerAccumulator> layers;
  for (size_t i = 0; i < params.size(); ++i) {
    const auto& [name, parameter] = params[i];
    auto& acc = layers[LayerOf(name)];
    for (const float g : parameter.grad()) {
      acc.grad_sq += static_cast<double>(g) * g;
      if (!std::isfinite(g)) acc.finite = false;
    }
    const auto& after = parameter.data();
    const auto& prev = before[i];
    for (size_t j = 0; j < after.size(); ++j) {
      acc.weight_sq += static_cast<double>(prev[j]) * prev[j];
      const double d = static_cast<double>(after[j]) - prev[j];
      acc.update_sq += d * d;
    }
  }
  std::vector<std::pair<std::string, LayerAccumulator>> rows(layers.begin(),
                                                             layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.grad_sq > b.second.grad_sq;
  });
  if (config_.health_top_layers > 0 &&
      rows.size() > static_cast<size_t>(config_.health_top_layers)) {
    rows.resize(static_cast<size_t>(config_.health_top_layers));
  }
  std::string json = "[";
  char buffer[320];
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& [layer, acc] = rows[i];
    const double weight_norm = std::sqrt(acc.weight_sq);
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"module\":\"%s\",\"grad_norm\":%.6g,"
                  "\"weight_norm\":%.6g,\"update_ratio\":%.6g,\"finite\":%s}",
                  i == 0 ? "" : ",", layer.c_str(), std::sqrt(acc.grad_sq),
                  weight_norm,
                  std::sqrt(acc.update_sq) / (weight_norm + 1e-12),
                  acc.finite ? "true" : "false");
    json += buffer;
  }
  json += "]";
  obs::RunReport::Record record;
  record.Str("event", "health")
      .Int("phase", phase_)
      .Int("epoch", epoch_)
      .Int("step", applied_steps_)
      .Num("loss", loss)
      .Num("grad_norm", grad_norm)
      .Raw("layers", json);
  report_.Write(record);
}

void Trainer::ReportNonFinite(const char* kind, const Tensor& batch_loss) {
  nn::NonFiniteSite site;
  if (std::strcmp(kind, "grad") == 0) {
    // A non-finite clip norm means some parameter gradient went bad; the
    // parameter's dotted name localizes it directly.
    for (const auto& [name, parameter] : model_->NamedParameters()) {
      if (!parameter.requires_grad()) continue;
      bool hit = false;
      for (const float g : parameter.grad()) {
        if (!std::isfinite(g)) {
          hit = true;
          break;
        }
      }
      if (hit) {
        site.found = true;
        site.module = LayerOf(name);
        site.op = name.substr(name.rfind('.') + 1);
        site.in_grad = true;
        break;
      }
    }
    if (!site.found) {
      site = nn::FindFirstNonFinite(batch_loss, /*check_grads=*/true);
    }
  } else {
    site = nn::FindFirstNonFinite(batch_loss);
  }
  if (site.found) {
    BIGCITY_LOG(Warning) << "first non-finite value: op " << site.op
                         << " module "
                         << (site.module.empty() ? "(untagged)" : site.module)
                         << (site.in_grad ? " (gradient)" : "");
  }
  if (!report_.is_open()) return;
  obs::RunReport::Record record;
  record.Str("event", "nonfinite")
      .Str("kind", kind)
      .Int("phase", phase_)
      .Int("epoch", epoch_)
      .Int("found", site.found ? 1 : 0)
      .Str("module", site.module)
      .Str("op", site.op)
      .Int("seq", static_cast<int64_t>(site.seq))
      .Str("shape", site.shape)
      .Int("in_grad", site.in_grad ? 1 : 0);
  report_.Write(record);
}

// --- Guarded stepping + snapshots ------------------------------------------

/// Ends the step for the model's tokenizer library when the scope exits —
/// on every path, including divergence early returns. EndStep() drops the
/// arena-backed entries the step's forward filled, so none survives the
/// enclosing PlanScope's rewind, and keeps the heap-held graph-free ones
/// while the spatial path is frozen.
class StepCacheRelease {
 public:
  explicit StepCacheRelease(core::BigCityModel* model) : model_(model) {}
  ~StepCacheRelease() { model_->EndStep(); }
  StepCacheRelease(const StepCacheRelease&) = delete;
  StepCacheRelease& operator=(const StepCacheRelease&) = delete;

 private:
  core::BigCityModel* model_;
};

util::Status Trainer::GuardedStep(Tensor batch_loss, bool* applied,
                                  float* loss_value) {
  if (util::FaultInjection::Fire(util::kFaultTrainerNanLoss)) {
    batch_loss.data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  const float value = batch_loss.item();
  const char* bad_kind = nullptr;
  if (config_.guard_non_finite && !std::isfinite(value)) bad_kind = "loss";
  if (bad_kind == nullptr) {
    float norm = 0;
    {
      // Backward phase includes gradient clipping: both walk the full
      // parameter set and neither updates weights.
      BIGCITY_TIMED_SCOPE_NAMED("train.backward_us", "backward", "train");
      BIGCITY_MEM_PHASE(kBackward);
      batch_loss.Backward();
      if (util::FaultInjection::Fire(util::kFaultTrainerNanGrad)) {
        for (auto p : optimizer_->parameters()) {
          if (p.requires_grad() && !p.grad().empty()) {
            p.grad()[0] = std::numeric_limits<float>::quiet_NaN();
            break;
          }
        }
      }
      norm = optimizer_->ClipGradNorm(config_.clip_norm);
    }
    if (config_.guard_non_finite && !std::isfinite(norm)) bad_kind = "grad";
    if (bad_kind == nullptr) {
      // Health sampling needs the pre-step weights for the update ratio,
      // so the (cheap, sampled) copy happens before Step().
      const bool sample_health =
          config_.health_every_steps > 0 && report_.is_open() &&
          (applied_steps_ + 1) % config_.health_every_steps == 0;
      std::vector<std::pair<std::string, Tensor>> health_params;
      std::vector<std::vector<float>> health_before;
      if (sample_health) {
        for (const auto& [name, parameter] : model_->NamedParameters()) {
          if (parameter.requires_grad() && !parameter.grad().empty()) {
            health_before.emplace_back(parameter.data().begin(),
                                       parameter.data().end());
            health_params.emplace_back(name, parameter);
          }
        }
      }
      {
        BIGCITY_TIMED_SCOPE_NAMED("train.optim_us", "optim", "train");
        BIGCITY_MEM_PHASE(kOptim);
        optimizer_->Step();
      }
      consecutive_bad_ = 0;
      ++applied_steps_;
      *applied = true;
      *loss_value = value;
      BIGCITY_COUNTER_INC("train.steps.applied");
      BIGCITY_GAUGE_SET("train.lr", optimizer_->lr());
      if (sample_health) {
        ReportHealth(value, norm, health_params, health_before);
      }
      return util::Status::Ok();
    }
  }
  // Non-finite loss or gradients: localize and report the first bad value,
  // skip the update, back off the LR, and report divergence once the bad
  // streak exceeds the budget.
  *applied = false;
  *loss_value = 0;
  ++consecutive_bad_;
  ++total_skipped_steps_;
  BIGCITY_COUNTER_INC("train.guard.skipped_steps");
  ReportNonFinite(bad_kind, batch_loss);
  optimizer_->set_lr(optimizer_->lr() * config_.lr_backoff);
  BIGCITY_GAUGE_SET("train.lr", optimizer_->lr());
  BIGCITY_LOG(Warning) << "non-finite loss/gradient at phase " << phase_
                       << " epoch " << epoch_ << "; skipped step ("
                       << consecutive_bad_ << " consecutive), lr -> "
                       << optimizer_->lr();
  if (consecutive_bad_ >= config_.max_bad_steps) {
    // Divergence is transient-retryable by contract: RunWithRollback
    // reloads the last good snapshot and retries, so it is kUnavailable,
    // not kInternal (which is reserved for library bugs).
    return util::Status::Unavailable(
        "training diverged: " + std::to_string(consecutive_bad_) +
        " consecutive non-finite steps at phase " + std::to_string(phase_) +
        " epoch " + std::to_string(epoch_));
  }
  return util::Status::Ok();
}

std::string Trainer::SnapshotPath() const {
  return config_.checkpoint_dir + "/train_state.ckpt";
}

util::Status Trainer::MaybeCheckpoint() const {
  if (config_.checkpoint_dir.empty()) return util::Status::Ok();
  BIGCITY_TIMED_SCOPE_NAMED("train.checkpoint_us", "checkpoint", "train");
  std::error_code ec;
  std::filesystem::create_directories(config_.checkpoint_dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create checkpoint dir " +
                                 config_.checkpoint_dir + ": " + ec.message());
  }
  auto status = SaveTrainingState(SnapshotPath());
  if (status.ok()) {
    ++checkpoint_writes_;
    BIGCITY_COUNTER_INC("train.checkpoint.writes");
  }
  return status;
}

util::Status Trainer::FinishEpoch(int next_epoch) {
  epoch_ = next_epoch;
  if (auto s = MaybeCheckpoint(); !s.ok()) return s;
  if (util::FaultInjection::Fire(util::kFaultTrainerInterrupt)) {
    return util::Status::FailedPrecondition(
        "training interrupted (fault injection) at phase " +
        std::to_string(phase_) + " epoch " + std::to_string(epoch_));
  }
  return util::Status::Ok();
}

util::Status Trainer::SaveTrainingState(const std::string& path) const {
  util::CheckpointWriter writer;
  auto& out = writer.stream();
  util::WriteString(out, kTrainerStateTag);
  util::WriteI32(out, phase_);
  util::WriteI32(out, epoch_);
  util::WriteI32(out, consecutive_bad_);
  util::WriteFloat(out, lr_penalty_);
  util::WriteString(out, rng_.SaveState());
  util::WriteString(out, stage_entry_rng_);
  model_->SaveState(out);
  util::WriteI32(out, optimizer_ ? 1 : 0);
  if (optimizer_) optimizer_->SaveState(out);
  return writer.Commit(path);
}

util::Status Trainer::ResumeFrom(const std::string& path) {
  return LoadTrainingState(path, /*replay_structure=*/true);
}

util::Status Trainer::LoadTrainingState(const std::string& path,
                                        bool replay_structure) {
  util::CheckpointReader reader;
  if (auto s = reader.Open(path); !s.ok()) return s;
  auto& in = reader.stream();

  std::string tag;
  if (auto s = util::ReadString(in, &tag); !s.ok()) return s;
  if (tag != kTrainerStateTag) {
    return util::Status::InvalidArgument(
        "not a trainer-state checkpoint (model-only file?): " + path);
  }
  int32_t phase = 0, epoch = 0, bad = 0;
  float penalty = 1.0f;
  if (auto s = util::ReadI32(in, &phase); !s.ok()) return s;
  if (auto s = util::ReadI32(in, &epoch); !s.ok()) return s;
  if (auto s = util::ReadI32(in, &bad); !s.ok()) return s;
  if (auto s = util::ReadFloat(in, &penalty); !s.ok()) return s;
  if (phase < kPhasePretrain || phase > kPhaseDone || epoch < 0) {
    return util::Status::InvalidArgument(
        "corrupt phase/epoch cursor in checkpoint: " + path);
  }
  std::string rng_state, entry_rng;
  if (auto s = util::ReadString(in, &rng_state); !s.ok()) return s;
  if (auto s = util::ReadString(in, &entry_rng); !s.ok()) return s;

  if (replay_structure) {
    // Replay the structural transitions completed phases applied, so the
    // parameter tree and trainable set match the snapshot before loading.
    if (phase >= kPhaseStage1) {
      util::Rng lora_rng(config_.seed ^ 0xabc);
      model_->backbone()->EnableLora(&lora_rng);
      model_->backbone()->FreezeBase();
    }
    if (phase >= kPhaseStage2) model_->tokenizer()->SetTrainable(false);
  }
  // The tokenizer library was computed from the weights about to change.
  model_->BeginStep();
  if (auto s = model_->LoadState(in); !s.ok()) return s;

  int32_t has_optimizer = 0;
  if (auto s = util::ReadI32(in, &has_optimizer); !s.ok()) return s;
  if (has_optimizer != 0) {
    auto parameters = phase == kPhasePretrain
                          ? model_->backbone()->TrainableParameters()
                          : model_->TrainableParameters();
    auto optimizer =
        std::make_unique<nn::Adam>(std::move(parameters), 0.0f);
    if (auto s = optimizer->LoadState(in); !s.ok()) return s;
    optimizer_ = std::move(optimizer);
  } else {
    optimizer_.reset();
  }
  if (!rng_.LoadState(rng_state)) {
    return util::Status::InvalidArgument("corrupt RNG state in checkpoint: " +
                                         path);
  }
  phase_ = phase;
  epoch_ = epoch;
  consecutive_bad_ = bad;
  lr_penalty_ = penalty;
  stage_entry_rng_ = std::move(entry_rng);
  return util::Status::Ok();
}

util::Status Trainer::RunWithRollback(
    const std::function<util::Status()>& stage) {
  const int expected_phase = phase_;
  for (;;) {
    util::Status status = stage();
    if (status.ok() || status.code() != util::StatusCode::kUnavailable) {
      return status;
    }
    // Divergence: reload the last good snapshot with an extra LR backoff.
    if (config_.checkpoint_dir.empty() ||
        rollbacks_ >= config_.max_rollbacks) {
      return status;
    }
    ++rollbacks_;
    BIGCITY_COUNTER_INC("train.guard.rollbacks");
    lr_penalty_ *= config_.lr_backoff;
    if (auto s = LoadTrainingState(SnapshotPath(), false); !s.ok()) {
      return status;  // No usable snapshot: surface the divergence.
    }
    if (phase_ != expected_phase) return status;
    consecutive_bad_ = 0;
    if (optimizer_) {
      optimizer_->set_lr(optimizer_->lr() * config_.lr_backoff);
    }
    BIGCITY_LOG(Warning) << "rolled back to snapshot (phase " << phase_
                         << ", epoch " << epoch_ << ") after divergence, "
                         << "lr penalty " << lr_penalty_;
  }
}

// --- Phase 0: backbone LM pre-training -------------------------------------

util::Status Trainer::PretrainBackbone() {
  if (phase_ != kPhasePretrain) {
    phase_ = kPhasePretrain;
    epoch_ = 0;
    optimizer_.reset();
  }
  return RunWithRollback([this] { return DoPretrain(); });
}

util::Status Trainer::DoPretrain() {
  // Next-word prediction over the fixed corpus — the GPT-2 substitute.
  auto* backbone = model_->backbone();
  std::vector<std::vector<int>> corpus;
  for (const auto& line : PretrainCorpus()) {
    auto ids = model_->text_tokenizer().Encode(line);
    if (ids.size() >= 2) corpus.push_back(std::move(ids));
  }
  if (epoch_ == 0 || !optimizer_) {
    optimizer_ = std::make_unique<nn::Adam>(
        backbone->TrainableParameters(), config_.lr_pretrain * lr_penalty_);
  }
  obs::WallTimer epoch_watch;
  for (int epoch = epoch_; epoch < config_.pretrain_lm_epochs; ++epoch) {
    BIGCITY_TRACE_SPAN("pretrain.epoch", "train");
    epoch_watch.Restart();
    epoch_tokens_ = 0;
    float epoch_loss = 0;
    for (const auto& ids : corpus) {
      BIGCITY_TRACE_SPAN("step", "train");
      nn::PlanScope plan_scope(&plan_cache_, {"pretrain", 0});
      StepCacheRelease cache_release(model_);
      optimizer_->ZeroGrad();
      Tensor loss;
      {
        BIGCITY_TIMED_SCOPE_NAMED("train.forward_us", "forward", "train");
        BIGCITY_MEM_PHASE(kForward);
        Tensor logits = backbone->TextLmLogits(ids);
        // Predict token t+1 from position t.
        Tensor inputs = nn::SliceRows(logits, 0,
                                      static_cast<int64_t>(ids.size()) - 1);
        std::vector<int> targets(ids.begin() + 1, ids.end());
        loss = nn::CrossEntropy(inputs, targets);
      }
      epoch_tokens_ += static_cast<int64_t>(ids.size());
      bool applied = false;
      float value = 0;
      if (auto s = GuardedStep(loss, &applied, &value); !s.ok()) return s;
      epoch_loss += value;
      loss = nn::Tensor();  // Release the graph before the arena rewinds.
    }
    if (config_.verbose) {
      BIGCITY_LOG(Info) << "LM pretrain epoch " << epoch << " loss "
                        << epoch_loss / corpus.size();
    }
    ReportEpoch("pretrain", epoch,
                epoch_loss / static_cast<float>(corpus.size()),
                epoch_watch.ElapsedSeconds());
    if (auto s = FinishEpoch(epoch + 1); !s.ok()) return s;
  }
  // Attach adapters and freeze the pre-trained base (Sec. V-B).
  util::Rng lora_rng(config_.seed ^ 0xabc);
  backbone->EnableLora(&lora_rng);
  backbone->FreezeBase();
  phase_ = kPhaseStage1;
  epoch_ = 0;
  optimizer_.reset();
  return MaybeCheckpoint();
}

// --- Stage-1 masked reconstruction ------------------------------------------

Tensor Trainer::Stage1Loss(const StUnitSequence& sequence,
                           const std::vector<int>& masked) {
  auto reconstruction = model_->MaskedReconstruct(sequence, masked);
  const auto& config = model_->config();
  const data::CityDataset* dataset = model_->dataset();
  const bool has_dynamic = dataset->config().has_dynamic_features;

  // Ground truths (Eq. 15): segment id, dynamic features, timestamp delta.
  std::vector<int> segment_targets;
  std::vector<float> state_targets;
  std::vector<float> time_targets;
  for (int index : masked) {
    segment_targets.push_back(
        sequence.segments[static_cast<size_t>(index)]);
    if (has_dynamic) {
      const int slice = dataset->traffic().SliceOf(
          sequence.timestamps[static_cast<size_t>(index)]);
      auto features = dataset->traffic().Features(
          slice, sequence.segments[static_cast<size_t>(index)]);
      state_targets.insert(state_targets.end(), features.begin(),
                           features.end());
    }
    const double delta =
        index == 0 ? 0.0
                   : sequence.timestamps[static_cast<size_t>(index)] -
                         sequence.timestamps[static_cast<size_t>(index - 1)];
    time_targets.push_back(data::MinutesTarget(delta));
  }

  Tensor loss =
      nn::CrossEntropy(reconstruction.segment_logits, segment_targets);
  if (has_dynamic) {
    Tensor state_target = Tensor::FromData(
        {static_cast<int64_t>(masked.size()), data::kTrafficChannels},
        std::move(state_targets));
    loss = nn::Add(loss, nn::Scale(nn::Mse(reconstruction.states,
                                           state_target),
                                   config.lambda_reg));
  }
  // Timestamp reconstruction only applies to trajectories: traffic-state
  // series have constant 30-minute gaps, which would dominate the loss
  // without carrying information.
  if (sequence.is_trajectory) {
    const auto num_masked = static_cast<int64_t>(masked.size());
    Tensor time_target =
        Tensor::FromData({num_masked, 1}, std::move(time_targets));
    loss = nn::Add(loss, nn::Scale(nn::Mse(reconstruction.times, time_target),
                                   config.lambda_tim));
  }
  return loss;
}

std::vector<StUnitSequence> Trainer::BuildStage1Pool(util::Rng* rng) {
  const data::CityDataset* dataset = model_->dataset();
  const bool has_dynamic = dataset->config().has_dynamic_features;

  // Mixed sequence pool: clipped trajectories + random traffic windows.
  std::vector<StUnitSequence> pool;
  for (const auto& trip : dataset->train()) {
    if (trip.length() < 4) continue;
    pool.push_back(
        StUnitSequence::FromTrajectory(model_->ClipTrajectory(trip)));
    if (static_cast<int>(pool.size()) >= config_.max_stage1_sequences) break;
  }
  if (has_dynamic) {
    const int window = model_->config().traffic_input_steps;
    const int extra = config_.max_stage1_sequences / 3;
    for (int k = 0; k < extra; ++k) {
      const int segment =
          rng->UniformInt(0, dataset->network().num_segments() - 1);
      const int start = rng->UniformInt(
          0, std::max(0, dataset->num_slices() - window - 1));
      pool.push_back(StUnitSequence::FromTrafficSeries(
          dataset->traffic(), segment, start, window));
    }
  }
  return pool;
}

util::Status Trainer::RunStage1() {
  if (phase_ != kPhaseStage1) {
    phase_ = kPhaseStage1;
    epoch_ = 0;
    optimizer_.reset();
  }
  return RunWithRollback([this] { return DoStage1(); });
}

util::Status Trainer::DoStage1() {
  std::vector<StUnitSequence> pool;
  if (epoch_ == 0) {
    // Fresh entry: the pool consumes draws from the training RNG; record
    // the entry state so an interrupted run can rebuild the same pool.
    stage_entry_rng_ = rng_.SaveState();
    pool = BuildStage1Pool(&rng_);
    optimizer_ = std::make_unique<nn::Adam>(model_->TrainableParameters(),
                                            config_.lr_stage1 * lr_penalty_);
  } else {
    // Resume: replay the pool draws from the recorded entry state; the
    // training RNG already sits at the epoch boundary.
    util::Rng pool_rng;
    if (stage_entry_rng_.empty() || !pool_rng.LoadState(stage_entry_rng_)) {
      return util::Status::FailedPrecondition(
          "cannot resume stage 1: missing stage-entry RNG state");
    }
    pool = BuildStage1Pool(&pool_rng);
    if (!optimizer_) {
      optimizer_ = std::make_unique<nn::Adam>(
          model_->TrainableParameters(), config_.lr_stage1 * lr_penalty_);
    }
  }

  obs::WallTimer epoch_watch;
  for (int epoch = epoch_; epoch < config_.stage1_epochs; ++epoch) {
    BIGCITY_TRACE_SPAN("stage1.epoch", "train");
    epoch_watch.Restart();
    epoch_tokens_ = 0;
    // Visit the canonical pool through a fresh permutation instead of
    // shuffling it in place: the epoch's order then depends only on the
    // RNG state at the epoch boundary (which snapshots capture), not on
    // the compounded shuffles of earlier epochs.
    const std::vector<int> order =
        rng_.Permutation(static_cast<int>(pool.size()));
    float epoch_loss = 0;
    int batches = 0;
    for (size_t begin = 0; begin < pool.size();
         begin += static_cast<size_t>(config_.batch_size)) {
      BIGCITY_TRACE_SPAN("step", "train");
      nn::PlanScope plan_scope(&plan_cache_, {"stage1", 0});
      StepCacheRelease cache_release(model_);
      optimizer_->ZeroGrad();
      const size_t end = std::min(
          pool.size(), begin + static_cast<size_t>(config_.batch_size));
      // Data phase: draw the batch's mask indices. This consumes rng_ in
      // the same per-sequence order as drawing inside the loss loop would
      // (the forward pass draws nothing), so the training stream is
      // unchanged by the phase split.
      std::vector<std::vector<int>> batch_masks;
      batch_masks.reserve(end - begin);
      {
        BIGCITY_TIMED_SCOPE_NAMED("train.data_us", "data", "train");
        BIGCITY_MEM_PHASE(kData);
        for (size_t s = begin; s < end; ++s) {
          const auto& sequence = pool[static_cast<size_t>(order[s])];
          const int k = std::max(
              1, static_cast<int>(sequence.length() *
                                  config_.stage1_mask_fraction));
          batch_masks.push_back(
              data::RandomMaskIndices(sequence.length(), k, &rng_));
          epoch_tokens_ += sequence.length();
        }
      }
      Tensor batch_loss;
      {
        BIGCITY_TIMED_SCOPE_NAMED("train.forward_us", "forward", "train");
        BIGCITY_MEM_PHASE(kForward);
        for (size_t s = begin; s < end; ++s) {
          const auto& sequence = pool[static_cast<size_t>(order[s])];
          Tensor loss = Stage1Loss(sequence, batch_masks[s - begin]);
          batch_loss =
              batch_loss.is_valid() ? nn::Add(batch_loss, loss) : loss;
        }
        batch_loss = nn::Scale(batch_loss,
                               1.0f / static_cast<float>(end - begin));
      }
      bool applied = false;
      float value = 0;
      if (auto s = GuardedStep(batch_loss, &applied, &value); !s.ok()) {
        return s;
      }
      if (applied) {
        epoch_loss += value;
        ++batches;
      }
      // Release the loss graph before the arena rewinds (the tokenizer
      // library is ended by cache_release above).
      batch_loss = nn::Tensor();
    }
    last_stage1_loss_ = batches > 0 ? epoch_loss / batches : 0.0f;
    stage1_epoch_seconds_ = epoch_watch.ElapsedSeconds();
    if (config_.verbose) {
      BIGCITY_LOG(Info) << "stage-1 epoch " << epoch << " loss "
                        << last_stage1_loss_ << " ("
                        << stage1_epoch_seconds_ << "s)";
    }
    ReportEpoch("stage1", epoch, last_stage1_loss_, stage1_epoch_seconds_);
    if (auto s = FinishEpoch(epoch + 1); !s.ok()) return s;
  }
  model_->BeginStep();
  phase_ = kPhaseStage2;
  epoch_ = 0;
  optimizer_.reset();
  return MaybeCheckpoint();
}

// --- Stage-2 prompt tuning ---------------------------------------------------

std::vector<Trainer::TaskSample> Trainer::BuildTaskSamples() {
  const data::CityDataset* dataset = model_->dataset();
  std::vector<TaskSample> samples;
  const auto& train = dataset->train();

  for (Task task : config_.tasks) {
    // Traffic tasks are over-sampled: each sample covers ONE segment while
    // the task-specific baselines consume all segments jointly per sample,
    // so parity requires more draws.
    const bool is_traffic = task == Task::kTrafficOneStep ||
                            task == Task::kTrafficMultiStep ||
                            task == Task::kTrafficImputation;
    const int budget =
        is_traffic ? 2 * config_.max_task_samples : config_.max_task_samples;
    int produced = 0;
    int cursor = 0;
    while (produced < budget &&
           cursor < static_cast<int>(train.size()) * 2) {
      const auto& trip = train[static_cast<size_t>(cursor++ % train.size())];
      TaskSample sample;
      sample.task = task;
      switch (task) {
        case Task::kNextHop:
        case Task::kTrajClassification:
        case Task::kTravelTimeEstimation: {
          if (trip.length() < 4) continue;
          sample.trajectory = model_->ClipTrajectory(trip);
          break;
        }
        case Task::kTrajRecovery: {
          if (trip.length() < 6) continue;
          sample.trajectory = model_->ClipTrajectory(trip);
          sample.kept = data::DownsampleKeepIndices(
              sample.trajectory.length(), config_.recovery_train_mask,
              &rng_);
          if (static_cast<int>(sample.kept.size()) ==
              sample.trajectory.length()) {
            continue;  // Nothing masked.
          }
          break;
        }
        case Task::kTrafficOneStep:
        case Task::kTrafficMultiStep:
        case Task::kTrafficImputation: {
          const int window = model_->config().traffic_input_steps;
          const int horizon = model_->config().traffic_horizon;
          sample.segment =
              rng_.UniformInt(0, dataset->network().num_segments() - 1);
          sample.start_slice = rng_.UniformInt(
              0, std::max(0, dataset->num_slices() - window - horizon - 1));
          if (task == Task::kTrafficImputation) {
            const int k = std::max(
                1, static_cast<int>(window * config_.imputation_mask));
            sample.masked = data::RandomMaskIndices(window, k, &rng_);
          }
          break;
        }
        case Task::kMostSimilarSearch:
          continue;  // No direct loss.
      }
      samples.push_back(std::move(sample));
      ++produced;
    }
  }
  rng_.Shuffle(&samples);
  return samples;
}

Tensor Trainer::TaskLoss(const TaskSample& sample) {
  const data::CityDataset* dataset = model_->dataset();
  const auto& config = model_->config();
  switch (sample.task) {
    case Task::kNextHop: {
      data::Trajectory prefix = sample.trajectory;
      const int target = prefix.points.back().segment;
      prefix.points.pop_back();
      return nn::CrossEntropy(model_->NextHopLogits(prefix), {target});
    }
    case Task::kTrajClassification: {
      const int label = model_->classifies_users()
                            ? sample.trajectory.user_id
                            : sample.trajectory.pattern_label;
      return nn::CrossEntropy(model_->ClassifyLogits(sample.trajectory),
                              {label});
    }
    case Task::kTravelTimeEstimation: {
      Tensor predicted = model_->TravelTimeDeltas(sample.trajectory);
      std::vector<float> targets;
      for (int l = 1; l < sample.trajectory.length(); ++l) {
        targets.push_back(data::MinutesTarget(
            sample.trajectory.points[static_cast<size_t>(l)].timestamp -
            sample.trajectory.points[static_cast<size_t>(l - 1)].timestamp));
      }
      const auto num_targets = static_cast<int64_t>(targets.size());
      Tensor target =
          Tensor::FromData({num_targets, 1}, std::move(targets));
      return nn::Scale(nn::Mse(predicted, target), config.lambda_tim);
    }
    case Task::kTrajRecovery: {
      Tensor logits = model_->RecoverLogits(sample.trajectory, sample.kept);
      auto dropped = data::ComplementIndices(sample.trajectory.length(),
                                             sample.kept);
      std::vector<int> targets;
      for (int index : dropped) {
        targets.push_back(
            sample.trajectory.points[static_cast<size_t>(index)].segment);
      }
      return nn::Scale(nn::CrossEntropy(logits, targets),
                       config.lambda_gen);
    }
    case Task::kTrafficOneStep:
    case Task::kTrafficMultiStep: {
      const int horizon =
          sample.task == Task::kTrafficOneStep ? 1 : config.traffic_horizon;
      Tensor predicted = model_->PredictTraffic(
          sample.segment, sample.start_slice, horizon);
      std::vector<float> targets;
      for (int h = 0; h < horizon; ++h) {
        auto features = dataset->traffic().Features(
            sample.start_slice + config.traffic_input_steps + h,
            sample.segment);
        targets.insert(targets.end(), features.begin(), features.end());
      }
      Tensor target = Tensor::FromData(
          {horizon, data::kTrafficChannels}, std::move(targets));
      return nn::Scale(nn::Mse(predicted, target), config.lambda_reg * 20.0f);
    }
    case Task::kTrafficImputation: {
      Tensor predicted = model_->ImputeTraffic(
          sample.segment, sample.start_slice, config.traffic_input_steps,
          sample.masked);
      std::vector<float> targets;
      for (int index : sample.masked) {
        auto features = dataset->traffic().Features(
            sample.start_slice + index, sample.segment);
        targets.insert(targets.end(), features.begin(), features.end());
      }
      Tensor target = Tensor::FromData(
          {static_cast<int64_t>(sample.masked.size()),
           data::kTrafficChannels},
          std::move(targets));
      return nn::Scale(nn::Mse(predicted, target), config.lambda_reg * 20.0f);
    }
    case Task::kMostSimilarSearch:
      break;
  }
  BIGCITY_CHECK(false) << "task has no training loss";
  return Tensor();
}

util::Status Trainer::RunStage2() {
  if (phase_ != kPhaseStage2) {
    phase_ = kPhaseStage2;
    epoch_ = 0;
    optimizer_.reset();
  }
  return RunWithRollback([this] { return DoStage2(); });
}

util::Status Trainer::DoStage2() {
  // Tokenizer frozen; only LoRA adapters (+ placeholders + heads) update.
  model_->tokenizer()->SetTrainable(false);
  if (epoch_ == 0 || !optimizer_) {
    optimizer_ = std::make_unique<nn::Adam>(model_->TrainableParameters(),
                                            config_.lr_stage2 * lr_penalty_);
  }
  const int traffic_window = model_->config().traffic_input_steps;
  obs::WallTimer epoch_watch;
  for (int epoch = epoch_; epoch < config_.stage2_epochs; ++epoch) {
    BIGCITY_TRACE_SPAN("stage2.epoch", "train");
    // Step decay stabilizes the late co-training epochs.
    if (config_.stage2_epochs >= 6 &&
        epoch == config_.stage2_epochs * 2 / 3) {
      optimizer_->set_lr(config_.lr_stage2 * 0.5f * lr_penalty_);
    }
    epoch_watch.Restart();
    epoch_tokens_ = 0;
    std::vector<TaskSample> samples;
    {
      // Data phase: stage 2 rebuilds its whole sample set per epoch.
      BIGCITY_TIMED_SCOPE_NAMED("train.data_us", "data", "train");
        BIGCITY_MEM_PHASE(kData);
      samples = BuildTaskSamples();
    }
    float epoch_loss = 0;
    int batches = 0;
    for (size_t begin = 0; begin < samples.size();
         begin += static_cast<size_t>(config_.batch_size)) {
      BIGCITY_TRACE_SPAN("step", "train");
      nn::PlanScope plan_scope(&plan_cache_, {"stage2", 0});
      StepCacheRelease cache_release(model_);
      optimizer_->ZeroGrad();
      Tensor batch_loss;
      const size_t end = std::min(
          samples.size(), begin + static_cast<size_t>(config_.batch_size));
      {
        BIGCITY_TIMED_SCOPE_NAMED("train.forward_us", "forward", "train");
        BIGCITY_MEM_PHASE(kForward);
        for (size_t s = begin; s < end; ++s) {
          Tensor loss = TaskLoss(samples[s]);
          batch_loss =
              batch_loss.is_valid() ? nn::Add(batch_loss, loss) : loss;
          epoch_tokens_ += samples[s].trajectory.length() > 0
                               ? samples[s].trajectory.length()
                               : traffic_window;
        }
        batch_loss = nn::Scale(batch_loss,
                               1.0f / static_cast<float>(end - begin));
      }
      bool applied = false;
      float value = 0;
      if (auto s = GuardedStep(batch_loss, &applied, &value); !s.ok()) {
        return s;
      }
      if (applied) {
        epoch_loss += value;
        ++batches;
      }
      // Release the loss graph before the arena rewinds (the tokenizer
      // library is ended by cache_release above).
      batch_loss = nn::Tensor();
    }
    last_stage2_loss_ = batches > 0 ? epoch_loss / batches : 0.0f;
    stage2_epoch_seconds_ = epoch_watch.ElapsedSeconds();
    if (config_.verbose) {
      BIGCITY_LOG(Info) << "stage-2 epoch " << epoch << " loss "
                        << last_stage2_loss_ << " ("
                        << stage2_epoch_seconds_ << "s)";
    }
    ReportEpoch("stage2", epoch, last_stage2_loss_, stage2_epoch_seconds_);
    if (auto s = FinishEpoch(epoch + 1); !s.ok()) return s;
  }
  model_->BeginStep();
  phase_ = kPhaseDone;
  epoch_ = 0;
  optimizer_.reset();
  return MaybeCheckpoint();
}

util::Status Trainer::RunAll() {
  if (phase_ <= kPhasePretrain) {
    if (auto s = PretrainBackbone(); !s.ok()) return s;
  }
  if (phase_ <= kPhaseStage1) {
    if (auto s = RunStage1(); !s.ok()) return s;
  }
  if (phase_ <= kPhaseStage2) {
    if (auto s = RunStage2(); !s.ok()) return s;
  }
  ReportSummary();
  return util::Status::Ok();
}

}  // namespace bigcity::train
