#ifndef BIGCITY_TRAIN_TRAINER_H_
#define BIGCITY_TRAIN_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bigcity_model.h"
#include "core/task.h"
#include "nn/optim.h"
#include "nn/plan.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/rng.h"
#include "util/status.h"

namespace bigcity::train {

/// Training-schedule configuration for the two-stage strategy (Sec. VI)
/// plus the in-repo backbone pre-training (the GPT-2 substitute).
struct TrainConfig {
  int pretrain_lm_epochs = 8;
  int stage1_epochs = 2;
  int stage2_epochs = 3;
  int batch_size = 8;
  float lr_pretrain = 3e-3f;
  float lr_stage1 = 2e-3f;
  float lr_stage2 = 2e-3f;
  float clip_norm = 5.0f;
  /// Mixed trajectory + traffic sequences per stage-1 epoch.
  int max_stage1_sequences = 300;
  /// Prompt-tuning samples per task per stage-2 epoch.
  int max_task_samples = 150;
  double stage1_mask_fraction = 0.2;
  double recovery_train_mask = 0.5;
  double imputation_mask = 0.25;
  /// Tasks included in stage-2 co-training (Table VIII ablation). Empty
  /// means all trainable tasks.
  std::vector<core::Task> tasks;
  uint64_t seed = 31;
  bool verbose = false;

  // --- Resilience (crash-safe snapshots + divergence guards) -------------
  /// Directory for training-state snapshots, written crash-safely after
  /// every epoch and phase boundary. Empty disables checkpointing (and
  /// with it, divergence rollback).
  std::string checkpoint_dir;
  /// Detect non-finite losses / gradient norms per step; skip the update
  /// and back off the LR instead of corrupting the weights.
  bool guard_non_finite = true;
  /// LR multiplier applied on every skipped (non-finite) step and on every
  /// rollback.
  float lr_backoff = 0.5f;
  /// Consecutive bad steps tolerated before declaring divergence.
  int max_bad_steps = 3;
  /// Divergence rollbacks (to the last good snapshot) before giving up.
  int max_rollbacks = 2;

  // --- Observability (DESIGN.md §4.9) ------------------------------------
  /// JSONL run-report path: one record per finished epoch (loss, wall
  /// time, tokens/sec, GEMM FLOPs, per-phase µs, guard/checkpoint event
  /// counts) plus a final summary. Empty disables the report. The file is
  /// truncated when the trainer is constructed.
  std::string run_report_path;
  /// Training-health sampling (DESIGN.md §4.10): every N applied optimizer
  /// steps, append an event:"health" record with per-layer gradient norms,
  /// weight norms, and update-to-weight ratios. 0 disables sampling; the
  /// records go to run_report_path, so both must be set.
  int health_every_steps = 0;
  /// Layers kept per health record (largest gradient norm first).
  int health_top_layers = 8;

  // --- Execution plans (DESIGN.md §4.13) ---------------------------------
  /// Route every training step through a cached ExecutionPlan whose
  /// TensorArena recycles the step's entire allocation footprint. Replay
  /// is bit-identical to eager execution; disabling falls back to plain
  /// heap allocation (the pre-plan behavior).
  bool plans = true;
};

/// Orchestrates BIGCity training: backbone LM pre-training, LoRA
/// attachment + base freeze, stage-1 masked reconstruction, and stage-2
/// multi-task prompt tuning.
///
/// The trainer tracks a phase/epoch cursor (phase 0 = LM pre-training,
/// 1 = stage 1, 2 = stage 2, 3 = done). With `checkpoint_dir` set it
/// snapshots the full training state — model parameters, Adam moments,
/// RNG state, and the cursor — after every epoch; a run killed at any
/// epoch boundary resumes via ResumeFrom to bit-identical final weights.
class Trainer {
 public:
  Trainer(core::BigCityModel* model, TrainConfig config);

  /// Pre-trains the backbone as a tiny causal language model on a fixed
  /// instruction-style corpus — the stand-in for loading GPT-2 weights —
  /// then attaches LoRA adapters and freezes the base weights.
  util::Status PretrainBackbone();

  /// Stage 1 (Sec. VI-A): self-supervised masked reconstruction over mixed
  /// trajectory / traffic-state ST-unit sequences. Trains the tokenizer,
  /// LoRA adapters, placeholders, and task heads.
  util::Status RunStage1();

  /// Stage 2 (Sec. VI-B): task-oriented prompt tuning over the full
  /// multi-task training set. Tokenizer frozen; LoRA + heads train.
  util::Status RunStage2();

  /// Full pipeline: PretrainBackbone -> RunStage1 -> RunStage2. After a
  /// ResumeFrom, completed phases are skipped and the in-progress phase
  /// continues from its saved epoch.
  util::Status RunAll();

  /// Writes a crash-safe snapshot of the full training state (container
  /// format of util/checkpoint.h).
  util::Status SaveTrainingState(const std::string& path) const;

  /// Restores a snapshot into a freshly constructed model + trainer pair
  /// (same dataset, model config, and TrainConfig as the saved run),
  /// replaying structural transitions (LoRA attach, freezes) of completed
  /// phases before loading parameters. Continue with RunAll().
  util::Status ResumeFrom(const std::string& path);

  double stage1_seconds_per_epoch() const { return stage1_epoch_seconds_; }
  double stage2_seconds_per_epoch() const { return stage2_epoch_seconds_; }
  float last_stage1_loss() const { return last_stage1_loss_; }
  float last_stage2_loss() const { return last_stage2_loss_; }

  /// Phase/epoch cursor: the next unit of work (phase 3 = all done).
  int phase() const { return phase_; }
  int epoch() const { return epoch_; }
  /// Steps skipped by the non-finite guard since construction.
  int total_skipped_steps() const { return total_skipped_steps_; }
  /// Divergence rollbacks performed since construction.
  int rollbacks() const { return rollbacks_; }
  /// Snapshots committed since construction.
  int64_t checkpoint_writes() const { return checkpoint_writes_; }
  /// The per-stage execution plans (read-only, for arena introspection).
  const nn::PlanCache& plan_cache() const { return plan_cache_; }

  /// One stage-2 prompt-tuning sample (public for the ablation benches).
  struct TaskSample {
    core::Task task = core::Task::kNextHop;
    data::Trajectory trajectory;       // Trajectory tasks (clipped).
    std::vector<int> kept;             // Recovery: surviving indices.
    int segment = 0;                   // Traffic tasks.
    int start_slice = 0;
    std::vector<int> masked;           // Imputation mask positions.
  };

  /// Builds the stage-2 "full training set" for the configured tasks.
  std::vector<TaskSample> BuildTaskSamples();

  /// Loss for one prompt-tuning sample (graph-bearing).
  nn::Tensor TaskLoss(const TaskSample& sample);

 private:
  nn::Tensor Stage1Loss(const data::StUnitSequence& sequence,
                        const std::vector<int>& masked);

  /// Stage bodies: run the remaining epochs from the current cursor.
  util::Status DoPretrain();
  util::Status DoStage1();
  util::Status DoStage2();

  /// The stage-1 mixed sequence pool (clipped trajectories + random
  /// traffic windows); draws windows from `rng`.
  std::vector<data::StUnitSequence> BuildStage1Pool(util::Rng* rng);

  /// One guarded optimizer step: backward + clip + step on a finite loss
  /// (*applied = true, *loss_value = loss). On a non-finite loss or
  /// gradient norm, skips the update and backs off the LR
  /// (*applied = false); returns a divergence (kUnavailable — retryable
  /// via snapshot rollback) Status after max_bad_steps consecutive skips.
  util::Status GuardedStep(nn::Tensor batch_loss, bool* applied,
                           float* loss_value);

  /// Runs a stage body, rolling back to the last good snapshot (with an
  /// extra LR backoff) when it reports divergence, up to max_rollbacks.
  util::Status RunWithRollback(const std::function<util::Status()>& stage);

  /// Advances the cursor past a finished epoch, snapshots, and honors the
  /// injected-interrupt fault site.
  util::Status FinishEpoch(int next_epoch);

  /// Snapshot after every epoch when checkpoint_dir is configured.
  util::Status MaybeCheckpoint() const;
  util::Status LoadTrainingState(const std::string& path,
                                 bool replay_structure);
  std::string SnapshotPath() const;

  /// Appends one JSONL record for a finished epoch: schedule position,
  /// loss, wall time, tokens/sec, and deltas of the obs counters,
  /// per-phase duration histograms, guard/checkpoint event counts, and
  /// memory churn since the previous record (every count in an epoch
  /// record describes that epoch alone; the summary holds the totals).
  void ReportEpoch(const char* stage, int epoch, float loss, double seconds);
  /// Appends the final cumulative summary record, including queue-wait
  /// latency percentiles and the tensor-memory high-water mark.
  void ReportSummary();
  /// Appends an event:"health" record after a sampled applied step:
  /// per-layer gradient norm, weight norm, and update-to-weight ratio for
  /// the top-K layers by gradient norm. `params` lists the trainable
  /// parameters that took the step and `before` their pre-step values
  /// (parallel arrays).
  void ReportHealth(float loss, float grad_norm,
                    const std::vector<std::pair<std::string, nn::Tensor>>&
                        params,
                    const std::vector<std::vector<float>>& before);
  /// On a guard trip, walks the loss graph (or the parameter gradients,
  /// for kind == "grad") for the most upstream non-finite value and
  /// appends an event:"nonfinite" record naming the offending op/module.
  void ReportNonFinite(const char* kind, const nn::Tensor& batch_loss);

  core::BigCityModel* model_;
  TrainConfig config_;
  util::Rng rng_;
  std::unique_ptr<nn::Adam> optimizer_;
  /// Per-stage execution plans ("pretrain"/"stage1"/"stage2" keys; the
  /// trainer thread is the only user). Disabled when !config_.plans.
  nn::PlanCache plan_cache_;
  int phase_ = 0;
  int epoch_ = 0;
  int consecutive_bad_ = 0;
  int total_skipped_steps_ = 0;
  int rollbacks_ = 0;
  /// Cumulative LR reduction from backoffs/rollbacks, applied to fresh
  /// per-phase optimizers.
  float lr_penalty_ = 1.0f;
  /// RNG state at the current phase's entry; lets a resume rebuild the
  /// stage-1 pool with the exact draws of the interrupted run.
  std::string stage_entry_rng_;
  double stage1_epoch_seconds_ = 0;
  double stage2_epoch_seconds_ = 0;
  float last_stage1_loss_ = 0;
  float last_stage2_loss_ = 0;

  // --- Observability (run report + cached metric handles) ----------------
  obs::RunReport report_;
  /// ST units / text tokens consumed by the current epoch (reset per
  /// epoch; feeds the report's tokens/sec).
  int64_t epoch_tokens_ = 0;
  /// Mutable: MaybeCheckpoint() is const but the write count is pure
  /// bookkeeping.
  mutable int64_t checkpoint_writes_ = 0;
  /// Registry handles are stable for the process lifetime; with
  /// BIGCITY_OBS=OFF the instrumentation macros record nothing and these
  /// report zeros, which keeps the report valid in both build flavors.
  obs::Histogram* h_data_us_ = nullptr;
  obs::Histogram* h_forward_us_ = nullptr;
  obs::Histogram* h_backward_us_ = nullptr;
  obs::Histogram* h_optim_us_ = nullptr;
  obs::Histogram* h_checkpoint_us_ = nullptr;
  obs::Counter* c_gemm_flops_ = nullptr;
  obs::Counter* c_gemm_calls_ = nullptr;
  /// Optimizer steps actually applied (guard skips excluded); drives the
  /// health-sampling cadence.
  int64_t applied_steps_ = 0;
  /// Values already attributed to earlier report records (delta cursor).
  struct ObsCursor {
    double data_us = 0, forward_us = 0, backward_us = 0, optim_us = 0,
           checkpoint_us = 0;
    uint64_t gemm_flops = 0, gemm_calls = 0;
    int skipped_steps = 0, rollbacks = 0;
    int64_t checkpoint_writes = 0;
    int64_t mem_alloc_bytes = 0, mem_allocs = 0;
  };
  ObsCursor reported_;
};

/// The fixed pre-training corpus (instructions + templated mobility
/// sentences). Exposed for tests.
std::vector<std::string> PretrainCorpus();

}  // namespace bigcity::train

#endif  // BIGCITY_TRAIN_TRAINER_H_
