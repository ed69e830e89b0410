// Integration tests: the full two-stage training pipeline on a tiny city,
// followed by evaluation of all eight tasks and the transfer protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "core/bigcity_model.h"
#include "obs/profiler.h"
#include "train/evaluator.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "train/transfer.h"
#include "scratch_dir.h"
#include "util/fault_injection.h"

namespace bigcity::train {
namespace {

data::CityDatasetConfig TinyCity(const char* name, uint64_t seed) {
  auto config = data::ScaleConfig(data::XianLikeConfig(), 0.15);
  config.name = name;
  config.city.grid_width = 5;
  config.city.grid_height = 5;
  config.city.seed = seed;
  config.generator.seed = seed + 1;
  config.generator.num_users = 8;
  return config;
}

core::BigCityConfig TinyModelConfig() {
  core::BigCityConfig config;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_layers = 1;
  config.spatial_dim = 16;
  config.gat_hidden = 16;
  config.lora_rank = 4;
  return config;
}

TrainConfig QuickTrainConfig() {
  TrainConfig config;
  config.pretrain_lm_epochs = 3;
  config.stage1_epochs = 2;
  config.stage2_epochs = 4;
  config.max_stage1_sequences = 80;
  config.max_task_samples = 60;
  return config;
}

class TrainPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::CityDataset(TinyCity("XA-tiny", 900));
    model_ = new core::BigCityModel(dataset_, TinyModelConfig());
    trainer_ = new Trainer(model_, QuickTrainConfig());
    ASSERT_TRUE(trainer_->RunAll().ok());
  }
  static void TearDownTestSuite() {
    delete trainer_;
    delete model_;
    delete dataset_;
  }

  static data::CityDataset* dataset_;
  static core::BigCityModel* model_;
  static Trainer* trainer_;
};

data::CityDataset* TrainPipelineTest::dataset_ = nullptr;
core::BigCityModel* TrainPipelineTest::model_ = nullptr;
Trainer* TrainPipelineTest::trainer_ = nullptr;

TEST_F(TrainPipelineTest, LossesAreFinite) {
  EXPECT_TRUE(std::isfinite(trainer_->last_stage1_loss()));
  EXPECT_TRUE(std::isfinite(trainer_->last_stage2_loss()));
  EXPECT_GT(trainer_->last_stage1_loss(), 0.0f);
}

TEST_F(TrainPipelineTest, Stage2FreezesTokenizer) {
  // After RunAll, tokenizer params must be frozen; LoRA + heads trainable.
  for (auto& p : model_->tokenizer()->Parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  EXPECT_FALSE(model_->TrainableParameters().empty());
}

TEST_F(TrainPipelineTest, NextHopBeatsUniformRandom) {
  Evaluator evaluator(model_);
  RankingMetrics metrics = evaluator.EvaluateNextHop();
  // Even a briefly trained model must beat random over ~100 segments,
  // because next-hop candidates are network-constrained.
  const double random = 1.0 / dataset_->network().num_segments();
  EXPECT_GT(metrics.accuracy, 5 * random);
  EXPECT_GE(metrics.mrr5, metrics.accuracy);
  EXPECT_GE(metrics.ndcg5, metrics.mrr5 - 1e-9);
}

TEST_F(TrainPipelineTest, TravelTimeFinitePositive) {
  Evaluator evaluator(model_);
  RegressionMetrics metrics = evaluator.EvaluateTravelTime();
  EXPECT_GT(metrics.mae, 0.0);
  EXPECT_GE(metrics.rmse, metrics.mae);
  EXPECT_TRUE(std::isfinite(metrics.mape));
}

TEST_F(TrainPipelineTest, UserClassificationRuns) {
  Evaluator evaluator(model_);
  MultiClassMetrics metrics = evaluator.EvaluateUserClassification();
  EXPECT_GE(metrics.micro_f1, 0.0);
  EXPECT_LE(metrics.micro_f1, 1.0);
}

TEST_F(TrainPipelineTest, SimilaritySearchRanksOwnHalfHighly) {
  Evaluator evaluator(model_);
  SimilarityMetrics metrics = evaluator.EvaluateSimilarity();
  // Queries share half their ST-units with the positive; embeddings should
  // beat random ranking by a wide margin.
  EXPECT_GT(metrics.hr10, 0.2);
  EXPECT_GE(metrics.hr10, metrics.hr5);
  EXPECT_GE(metrics.hr5, metrics.hr1);
}

TEST_F(TrainPipelineTest, RecoveryDegradesWithMaskRatio) {
  Evaluator evaluator(model_);
  RecoveryMetrics easy = evaluator.EvaluateRecovery(0.5);
  RecoveryMetrics hard = evaluator.EvaluateRecovery(0.95);
  EXPECT_GE(easy.accuracy, 0.0);
  // Generally easier with fewer masks; allow slack for a tiny model.
  EXPECT_GE(easy.accuracy + 0.15, hard.accuracy);
}

TEST_F(TrainPipelineTest, TrafficTasksProduceSaneErrors) {
  Evaluator evaluator(model_);
  RegressionMetrics one = evaluator.EvaluateTrafficPrediction(1);
  RegressionMetrics multi = evaluator.EvaluateTrafficPrediction(6);
  RegressionMetrics imputed = evaluator.EvaluateTrafficImputation(0.25);
  // Errors in m/s: must be far below the 20 m/s normalization scale.
  EXPECT_LT(one.mae, 8.0);
  EXPECT_LT(multi.mae, 8.0);
  EXPECT_LT(imputed.mae, 8.0);
  EXPECT_GT(one.mae, 0.0);
}

TEST_F(TrainPipelineTest, EvaluationPassMatchesPerSampleReference) {
  // Reference: the per-sample protocol, in grad mode with the tokenizer
  // library dropped before every sample.
  const EvalConfig config;
  std::vector<double> predictions, targets;
  for (const auto& trip : dataset_->test()) {
    if (trip.length() < 4) continue;
    const data::Trajectory clipped = model_->ClipTrajectory(trip);
    model_->BeginStep();
    nn::Tensor deltas = model_->TravelTimeDeltas(clipped);
    double minutes = 0;
    for (int64_t l = 0; l < deltas.shape()[0]; ++l) {
      minutes += std::max(0.0f, deltas.at(l, 0));
    }
    predictions.push_back(minutes);
    targets.push_back(clipped.duration_seconds() / 60.0);
    if (static_cast<int>(predictions.size()) >= config.max_samples) break;
  }
  Evaluator evaluator(model_, config);
  const RegressionMetrics metrics = evaluator.EvaluateTravelTime();
  EXPECT_EQ(metrics.mae, MeanAbsoluteError(predictions, targets));
  EXPECT_EQ(metrics.rmse, RootMeanSquaredError(predictions, targets));
  EXPECT_EQ(metrics.mape, MeanAbsolutePercentageError(predictions, targets));
}

TEST_F(TrainPipelineTest, TransferKeepsBackboneFrozen) {
  data::CityDataset target_data(TinyCity("CD-tiny", 1900));
  core::BigCityModel target(&target_data, TinyModelConfig());
  util::Rng rng(1);
  target.backbone()->EnableLora(&rng);  // Match source architecture.
  TransferBackbone(model_, &target);
  for (auto& p : target.backbone()->Parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  // Trainable: tokenizer temporal MLP + heads only.
  auto trainable = target.TrainableParameters();
  EXPECT_FALSE(trainable.empty());
  auto quick = QuickTrainConfig();
  quick.max_task_samples = 8;
  FineTuneTransferred(&target, quick);
  Evaluator evaluator(&target);
  RankingMetrics metrics = evaluator.EvaluateNextHop();
  EXPECT_GE(metrics.accuracy, 0.0);
}

TEST(TrainerTest, BuildTaskSamplesCoversConfiguredTasks) {
  data::CityDataset dataset(TinyCity("XA-samples", 300));
  core::BigCityModel model(&dataset, TinyModelConfig());
  TrainConfig config = QuickTrainConfig();
  config.tasks = {core::Task::kNextHop, core::Task::kTrafficMultiStep};
  Trainer trainer(&model, config);
  auto samples = trainer.BuildTaskSamples();
  bool has_next = false, has_multi = false, has_other = false;
  for (const auto& s : samples) {
    if (s.task == core::Task::kNextHop) has_next = true;
    else if (s.task == core::Task::kTrafficMultiStep) has_multi = true;
    else has_other = true;
  }
  EXPECT_TRUE(has_next);
  EXPECT_TRUE(has_multi);
  EXPECT_FALSE(has_other);
}

TEST(TrainerTest, PretrainReducesLmLoss) {
  data::CityDataset dataset(TinyCity("XA-lm", 301));
  core::BigCityModel model(&dataset, TinyModelConfig());
  auto corpus_loss = [&]() {
    float total = 0;
    int count = 0;
    for (const auto& line : PretrainCorpus()) {
      auto ids = model.text_tokenizer().Encode(line);
      if (ids.size() < 2) continue;
      nn::Tensor logits = model.backbone()->TextLmLogits(ids);
      nn::Tensor inputs = nn::SliceRows(
          logits, 0, static_cast<int64_t>(ids.size()) - 1);
      std::vector<int> targets(ids.begin() + 1, ids.end());
      total += nn::CrossEntropy(inputs, targets).item();
      ++count;
    }
    return total / count;
  };
  const float before = corpus_loss();
  TrainConfig config = QuickTrainConfig();
  config.pretrain_lm_epochs = 5;
  Trainer trainer(&model, config);
  ASSERT_TRUE(trainer.PretrainBackbone().ok());
  const float after = corpus_loss();
  EXPECT_LT(after, before);
}

// ---------------------------------------------------------------------------
// Resilience: crash-safe checkpointing, resume, and non-finite guards.

/// Small-but-complete pipeline config so resume crosses every phase quickly.
TrainConfig ResilienceConfig(const std::string& checkpoint_dir = "") {
  TrainConfig config;
  config.pretrain_lm_epochs = 2;
  config.stage1_epochs = 2;
  config.stage2_epochs = 2;
  config.max_stage1_sequences = 40;
  config.max_task_samples = 16;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

/// `leaf` under this process's scratch directory.
std::string ScratchPath(const char* leaf) {
  return (testing_util::ProcessScratchDir("bigcity_train_") / leaf).string();
}

TEST(ResilienceTest, InterruptedRunResumesBitIdentical) {
  const std::string dir = ScratchPath("bigcity_resume_test");
  const std::string snapshot = dir + "/train_state.ckpt";

  // Reference run: never interrupted, no checkpointing.
  data::CityDataset dataset(TinyCity("XA-resume", 77));
  core::BigCityModel reference(&dataset, TinyModelConfig());
  Trainer reference_trainer(&reference, ResilienceConfig());
  ASSERT_TRUE(reference_trainer.RunAll().ok());
  const auto expected = reference.NamedParameters();

  // Six epoch boundaries total (2 per phase); kill at one in each phase.
  for (const int interrupt_after : {1, 3, 5}) {
    std::filesystem::remove_all(dir);
    core::BigCityModel victim(&dataset, TinyModelConfig());
    Trainer victim_trainer(&victim, ResilienceConfig(dir));
    {
      util::ScopedFault interrupt(util::kFaultTrainerInterrupt,
                                  /*skip=*/interrupt_after - 1);
      const util::Status status = victim_trainer.RunAll();
      ASSERT_FALSE(status.ok()) << "boundary " << interrupt_after;
      EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
    }

    // Brand-new model and trainer, as after a process restart.
    core::BigCityModel resumed(&dataset, TinyModelConfig());
    Trainer resumed_trainer(&resumed, ResilienceConfig(dir));
    ASSERT_TRUE(resumed_trainer.ResumeFrom(snapshot).ok())
        << "boundary " << interrupt_after;
    ASSERT_TRUE(resumed_trainer.RunAll().ok());

    const auto actual = resumed.NamedParameters();
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i].first, actual[i].first);
      // Bit-identical, not approximately equal: resume must replay the
      // exact optimizer, RNG, and schedule state of the original run.
      ASSERT_EQ(expected[i].second.data(), actual[i].second.data())
          << expected[i].first << " after boundary " << interrupt_after;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, ResumeRejectsCorruptedSnapshot) {
  const std::string dir = ScratchPath("bigcity_corrupt_resume_test");
  std::filesystem::remove_all(dir);
  const std::string snapshot = dir + "/train_state.ckpt";
  data::CityDataset dataset(TinyCity("XA-corrupt", 78));
  {
    core::BigCityModel model(&dataset, TinyModelConfig());
    TrainConfig config = ResilienceConfig(dir);
    config.stage1_epochs = 0;
    config.stage2_epochs = 0;
    Trainer trainer(&model, config);
    ASSERT_TRUE(trainer.PretrainBackbone().ok());
    ASSERT_TRUE(std::filesystem::exists(snapshot));
  }
  // Truncate the snapshot; resume must fail loudly, never abort.
  const auto size = std::filesystem::file_size(snapshot);
  std::filesystem::resize_file(snapshot, size / 2);
  core::BigCityModel model(&dataset, TinyModelConfig());
  Trainer trainer(&model, ResilienceConfig(dir));
  const util::Status status = trainer.ResumeFrom(snapshot);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.message().empty());
  std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, NanGradientStepSkippedAndRunRecovers) {
  data::CityDataset dataset(TinyCity("XA-nangrad", 123));
  core::BigCityModel model(&dataset, TinyModelConfig());
  Trainer trainer(&model, ResilienceConfig());
  util::ScopedFault nan_grad(util::kFaultTrainerNanGrad, /*skip=*/2,
                             /*count=*/1);
  ASSERT_TRUE(trainer.RunAll().ok());
  EXPECT_EQ(nan_grad.fire_count(), 1);
  EXPECT_EQ(trainer.total_skipped_steps(), 1);
  EXPECT_TRUE(std::isfinite(trainer.last_stage2_loss()));
  for (const auto& [name, parameter] : model.NamedParameters()) {
    for (const float value : parameter.data()) {
      ASSERT_TRUE(std::isfinite(value)) << name;
    }
  }
}

TEST(ResilienceTest, DivergenceRollsBackToLastGoodSnapshot) {
  const std::string dir = ScratchPath("bigcity_rollback_test");
  std::filesystem::remove_all(dir);
  data::CityDataset dataset(TinyCity("XA-rollback", 124));
  core::BigCityModel model(&dataset, TinyModelConfig());
  TrainConfig config = ResilienceConfig(dir);
  config.pretrain_lm_epochs = 0;  // Snapshot lands at stage-1 entry.
  config.max_bad_steps = 2;
  Trainer trainer(&model, config);
  // Poison the first max_bad_steps stage-1 losses: the trainer declares
  // divergence, reloads the stage-entry snapshot, and the retry succeeds
  // because the fault budget is exhausted.
  util::ScopedFault nan_loss(util::kFaultTrainerNanLoss, /*skip=*/0,
                             /*count=*/2);
  ASSERT_TRUE(trainer.RunAll().ok());
  EXPECT_EQ(nan_loss.fire_count(), 2);
  EXPECT_GE(trainer.rollbacks(), 1);
  EXPECT_TRUE(std::isfinite(trainer.last_stage2_loss()));
  std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, DivergenceWithoutCheckpointDirFailsCleanly) {
  data::CityDataset dataset(TinyCity("XA-diverge", 125));
  core::BigCityModel model(&dataset, TinyModelConfig());
  TrainConfig config = ResilienceConfig();  // No checkpoint_dir.
  config.pretrain_lm_epochs = 0;
  config.max_bad_steps = 2;
  Trainer trainer(&model, config);
  util::ScopedFault nan_loss(util::kFaultTrainerNanLoss, /*skip=*/0,
                             /*count=*/2);
  const util::Status status = trainer.RunAll();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("diverged"), std::string::npos);
}

TEST(ResilienceTest, TornCheckpointWriteSurfacesErrorAndKeepsOldSnapshot) {
  const std::string dir = ScratchPath("bigcity_torn_snapshot_test");
  std::filesystem::remove_all(dir);
  const std::string snapshot = dir + "/train_state.ckpt";
  data::CityDataset dataset(TinyCity("XA-torn", 126));
  core::BigCityModel model(&dataset, TinyModelConfig());
  Trainer trainer(&model, ResilienceConfig(dir));
  {
    // First snapshot commits; the second is torn mid-write.
    util::ScopedFault torn(util::kFaultCheckpointTornWrite, /*skip=*/1,
                           /*count=*/1, /*param=*/16);
    const util::Status status = trainer.RunAll();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(torn.fire_count(), 1);
  }
  // The epoch-1 snapshot survived the torn write and still resumes.
  core::BigCityModel resumed(&dataset, TinyModelConfig());
  Trainer resumed_trainer(&resumed, ResilienceConfig(dir));
  ASSERT_TRUE(resumed_trainer.ResumeFrom(snapshot).ok());
  ASSERT_TRUE(resumed_trainer.RunAll().ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ST feature library lifetime across optimizer steps (StTokenizer).

#if BIGCITY_OBS
/// Forward op calls per module, submodules included, while `body` runs
/// under the op profiler.
template <typename Body>
std::map<std::string, uint64_t> ForwardCallsByModule(Body body) {
  auto& profiler = obs::Profiler::Global();
  profiler.Reset();
  obs::SetProfilerEnabled(true);
  body();
  obs::SetProfilerEnabled(false);
  std::map<std::string, uint64_t> calls;
  for (const auto& row : profiler.Rows()) {
    if (row.backward) continue;
    for (std::string path = row.module;;) {
      calls[path] += row.calls;
      const auto dot = path.rfind('.');
      if (dot == std::string::npos) break;
      path.resize(dot);
    }
  }
  profiler.Reset();
  return calls;
}
#endif

TEST(LibraryLifetimeTest, Stage2FillsEachSliceOnceWithCleanArenas) {
#if !BIGCITY_OBS
  GTEST_SKIP() << "encoder forwards are counted by the op profiler";
#else
  data::CityDataset dataset(TinyCity("XA-library", 431));
  core::BigCityModel model(&dataset, TinyModelConfig());
  Trainer trainer(&model, ResilienceConfig());  // Plans on.
  ASSERT_TRUE(trainer.PretrainBackbone().ok());
  ASSERT_TRUE(trainer.RunStage1().ok());
  util::Status status;
  const auto stage2 =
      ForwardCallsByModule([&] { status = trainer.RunStage2(); });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(trainer.plan_cache().poisoned_resets(), 0u);

  // Op calls of one cold fill: one static, dynamic and fusion forward each.
  const auto cold = ForwardCallsByModule([&] {
    model.BeginStep();
    model.tokenizer()->SpatialRepresentations(0);
  });
  const uint64_t static_calls = cold.at("tokenizer.static_encoder");
  const uint64_t fusion_calls = cold.at("tokenizer.fusion");
  ASSERT_GT(static_calls, 0u);
  ASSERT_GT(fusion_calls, 0u);
  // The static encoder ran once: stage 2 never dropped its library, so no
  // slice was filled twice.
  EXPECT_EQ(stage2.at("tokenizer.static_encoder"), static_calls);
  const uint64_t fusion_forwards =
      stage2.at("tokenizer.fusion") / fusion_calls;
  EXPECT_GT(fusion_forwards, 0u);
  EXPECT_LE(fusion_forwards, static_cast<uint64_t>(dataset.num_slices()));
#endif
}

TEST(LibraryLifetimeTest, LoadingTrainingStateRebuildsLibrary) {
  const std::string dir = ScratchPath("bigcity_library_load_test");
  std::filesystem::remove_all(dir);
  data::CityDataset dataset(TinyCity("XA-library-load", 432));
  TrainConfig config = ResilienceConfig(dir);
  config.stage2_epochs = 0;
  // The snapshot holds stage-1-trained tokenizer weights.
  core::BigCityModel source(&dataset, TinyModelConfig());
  Trainer source_trainer(&source, config);
  ASSERT_TRUE(source_trainer.RunAll().ok());
  source.BeginStep();
  const nn::Tensor expected = source.tokenizer()->SpatialRepresentations(0);

  // A model at its initial weights keeps a frozen library across a step.
  core::BigCityModel target(&dataset, TinyModelConfig());
  target.tokenizer()->SetTrainable(false);
  const nn::Tensor stale = target.tokenizer()->SpatialRepresentations(0);
  target.EndStep();
  ASSERT_EQ(target.tokenizer()->SpatialRepresentations(0).impl(),
            stale.impl());
  ASSERT_NE(stale.data(), expected.data());

  Trainer target_trainer(&target, config);
  ASSERT_TRUE(target_trainer.ResumeFrom(dir + "/train_state.ckpt").ok());
  const nn::Tensor reloaded = target.tokenizer()->SpatialRepresentations(0);
  EXPECT_NE(reloaded.impl(), stale.impl());
  ASSERT_EQ(reloaded.data().size(), expected.data().size());
  EXPECT_EQ(0, std::memcmp(reloaded.data().data(), expected.data().data(),
                           expected.data().size() * sizeof(float)));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Introspection: training-health telemetry + non-finite localization
// (DESIGN.md §4.10). The records land in the JSONL run report.

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(IntrospectionTest, HealthRecordsCarryPerLayerNorms) {
  const std::string report = ScratchPath("bigcity_health_report.jsonl");
  std::filesystem::remove(report);
  data::CityDataset dataset(TinyCity("XA-health", 222));
  core::BigCityModel model(&dataset, TinyModelConfig());
  TrainConfig config = ResilienceConfig();
  config.pretrain_lm_epochs = 1;
  config.stage1_epochs = 1;
  config.stage2_epochs = 0;
  config.run_report_path = report;
  config.health_every_steps = 5;
  config.health_top_layers = 4;
  Trainer trainer(&model, config);
  ASSERT_TRUE(trainer.RunAll().ok());
  const std::string contents = ReadWholeFile(report);
  EXPECT_NE(contents.find("\"event\":\"health\""), std::string::npos);
  EXPECT_NE(contents.find("\"grad_norm\""), std::string::npos);
  EXPECT_NE(contents.find("\"weight_norm\""), std::string::npos);
  EXPECT_NE(contents.find("\"update_ratio\""), std::string::npos);
  // Layer keys are NamedParameters() prefixes; the embedding trains during
  // pretraining, so its module should show up in some record.
  EXPECT_NE(contents.find("backbone."), std::string::npos);
  std::filesystem::remove(report);
}

TEST(IntrospectionTest, NanGradGuardTripNamesOffendingModule) {
  const std::string report = ScratchPath("bigcity_nonfinite.jsonl");
  std::filesystem::remove(report);
  data::CityDataset dataset(TinyCity("XA-nonfinite", 223));
  core::BigCityModel model(&dataset, TinyModelConfig());
  TrainConfig config = ResilienceConfig();
  config.run_report_path = report;
  Trainer trainer(&model, config);
  util::ScopedFault nan_grad(util::kFaultTrainerNanGrad, /*skip=*/2,
                             /*count=*/1);
  ASSERT_TRUE(trainer.RunAll().ok());
  EXPECT_EQ(nan_grad.fire_count(), 1);

  // Exactly the tripped step produced a nonfinite record, with kind
  // "grad" and a non-empty module path naming the poisoned layer.
  const std::string contents = ReadWholeFile(report);
  const auto at = contents.find("\"event\":\"nonfinite\"");
  ASSERT_NE(at, std::string::npos);
  const auto line_end = contents.find('\n', at);
  const std::string line = contents.substr(at, line_end - at);
  EXPECT_NE(line.find("\"kind\":\"grad\""), std::string::npos);
  EXPECT_NE(line.find("\"found\":1"), std::string::npos);
  EXPECT_NE(line.find("\"in_grad\":1"), std::string::npos);
  EXPECT_EQ(line.find("\"module\":\"\""), std::string::npos)
      << "nonfinite record must name the offending module: " << line;
  std::filesystem::remove(report);
}

TEST(IntrospectionTest, EpochRecordsEmitPerEpochDeltas) {
  const std::string report = ScratchPath("bigcity_delta_report.jsonl");
  std::filesystem::remove(report);
  const std::string dir = ScratchPath("bigcity_delta_ckpt");
  std::filesystem::remove_all(dir);
  data::CityDataset dataset(TinyCity("XA-deltas", 224));
  core::BigCityModel model(&dataset, TinyModelConfig());
  TrainConfig config = ResilienceConfig(dir);
  config.run_report_path = report;
  Trainer trainer(&model, config);
  ASSERT_TRUE(trainer.RunAll().ok());

  // Each record reports the snapshots committed since the previous record:
  // 0, 1, or 2 (an end-of-epoch write plus possibly a phase-boundary one).
  // Cumulative-since-construction reporting would grow monotonically past
  // 2 by the fourth epoch. The deltas over all records plus the two writes
  // after the last record (final epoch + phase end) equal the total.
  std::ifstream in(report);
  std::string line;
  int epoch_records = 0;
  int64_t delta_sum = 0;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"epoch\"") == std::string::npos) continue;
    ++epoch_records;
    const auto key = line.find("\"checkpoint_writes\":");
    ASSERT_NE(key, std::string::npos) << line;
    const int64_t delta =
        std::atoll(line.c_str() + key + sizeof("\"checkpoint_writes\":") - 1);
    EXPECT_LE(delta, 2) << line;
    delta_sum += delta;
    EXPECT_NE(line.find("\"guard_skipped_steps\":0,"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"mem_peak_bytes\""), std::string::npos) << line;
  }
  EXPECT_GE(epoch_records, 4);
  EXPECT_EQ(delta_sum, trainer.checkpoint_writes() - 2);
  // The summary keeps cumulative totals and the queue-wait percentiles.
  const std::string contents = ReadWholeFile(report);
  EXPECT_NE(contents.find("\"queue_wait_p95_us\""), std::string::npos);
  EXPECT_NE(contents.find("\"applied_steps\""), std::string::npos);
  std::filesystem::remove(report);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bigcity::train
