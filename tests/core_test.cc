#include <gtest/gtest.h>

#include <cstring>

#include "core/bigcity_model.h"
#include "core/st_tokenizer.h"
#include "core/task.h"
#include "core/text_tokenizer.h"
#include "data/dataset.h"
#include "data/masking.h"
#include "nn/arena.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace bigcity::core {
namespace {

// Shared tiny dataset/model fixture: constructing a CityDataset generates
// trajectories and traffic states, so build once for the whole suite.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = data::ScaleConfig(data::XianLikeConfig(), 0.1);
    config.city.grid_width = 5;
    config.city.grid_height = 5;
    dataset_ = new data::CityDataset(config);
    BigCityConfig model_config;
    model_config.d_model = 32;
    model_config.num_heads = 2;
    model_config.num_layers = 1;
    model_config.spatial_dim = 16;
    model_config.gat_hidden = 16;
    model_ = new BigCityModel(dataset_, model_config);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }
  void SetUp() override { model_->BeginStep(); }
  // Tests that freeze the shared tokenizer may stop at a failed ASSERT;
  // later tests must still see it trainable and with an empty library.
  void TearDown() override {
    model_->tokenizer()->SetTrainable(true);
    model_->BeginStep();
  }

  const data::Trajectory& AnyTrajectory(int min_len = 5) {
    for (const auto& t : dataset_->train()) {
      if (t.length() >= min_len) return t;
    }
    return dataset_->train().front();
  }

  static data::CityDataset* dataset_;
  static BigCityModel* model_;
};

data::CityDataset* CoreTest::dataset_ = nullptr;
BigCityModel* CoreTest::model_ = nullptr;

TEST(TextTokenizerTest, NormalizeLowercasesAndStripsPunctuation) {
  auto words = TextTokenizer::Normalize("Where is, the Next-Hop?");
  EXPECT_EQ(words, (std::vector<std::string>{"where", "is", "the", "next",
                                             "hop"}));
}

TEST(TextTokenizerTest, InstructionsFullyInVocab) {
  TextTokenizer tokenizer;
  for (int t = 0; t < kNumTasks; ++t) {
    auto ids = tokenizer.Encode(InstructionFor(static_cast<Task>(t)));
    EXPECT_FALSE(ids.empty());
    for (int id : ids) EXPECT_NE(id, tokenizer.unk_id());
  }
}

TEST(TextTokenizerTest, UnknownWordsMapToUnk) {
  TextTokenizer tokenizer;
  auto ids = tokenizer.Encode("zzzqqq");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], tokenizer.unk_id());
}

TEST(TaskTest, DistinctInstructionsPerTask) {
  std::set<std::string> seen;
  for (int t = 0; t < kNumTasks; ++t) {
    seen.insert(InstructionFor(static_cast<Task>(t)));
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kNumTasks));
}

TEST_F(CoreTest, TokenizerProducesTokenPerUnit) {
  auto seq = data::StUnitSequence::FromTrajectory(AnyTrajectory());
  nn::Tensor tokens = model_->tokenizer()->Tokenize(seq);
  EXPECT_EQ(tokens.shape()[0], seq.length());
  EXPECT_EQ(tokens.shape()[1], model_->config().d_model);
}

TEST_F(CoreTest, TokenizerUnifiedAcrossModalities) {
  // Trajectories and traffic series produce tokens in the same space.
  auto traj_seq = data::StUnitSequence::FromTrajectory(AnyTrajectory());
  auto traffic_seq = data::StUnitSequence::FromTrafficSeries(
      dataset_->traffic(), 0, 0, 8);
  nn::Tensor a = model_->tokenizer()->Tokenize(traj_seq);
  nn::Tensor b = model_->tokenizer()->Tokenize(traffic_seq);
  EXPECT_EQ(a.shape()[1], b.shape()[1]);
}

TEST_F(CoreTest, SpatialRepresentationCacheIsPerSlice) {
  nn::Tensor r0 = model_->tokenizer()->SpatialRepresentations(0);
  nn::Tensor r0_again = model_->tokenizer()->SpatialRepresentations(0);
  EXPECT_EQ(r0.impl().get(), r0_again.impl().get());  // Cached object.
  nn::Tensor r1 = model_->tokenizer()->SpatialRepresentations(1);
  EXPECT_NE(r0.impl().get(), r1.impl().get());
  model_->tokenizer()->BeginStep();
  nn::Tensor r0_new = model_->tokenizer()->SpatialRepresentations(0);
  EXPECT_NE(r0.impl().get(), r0_new.impl().get());
}

// --- ST feature library lifetime (StTokenizer class comment) ---------------

bool GraphFree(const nn::Tensor& tensor) {
  return tensor.impl()->parents.empty() && !tensor.impl()->backward_fn &&
         !tensor.impl()->needs_grad;
}

TEST_F(CoreTest, FrozenLibraryIsHeapHeldGraphFreeAndMatchesFreshFills) {
  StTokenizer* tokenizer = model_->tokenizer();
  const int num_slices = dataset_->traffic().num_slices();
  // Reference: a fresh graph fill per slice, as a trainable tokenizer
  // computes it after BeginStep().
  std::vector<std::vector<float>> fresh;
  for (int s = 0; s < num_slices; ++s) {
    model_->BeginStep();
    nn::Tensor rep = tokenizer->SpatialRepresentations(s);
    ASSERT_FALSE(GraphFree(rep));
    fresh.emplace_back(rep.data().begin(), rep.data().end());
  }

  tokenizer->SetTrainable(false);
  model_->BeginStep();
  nn::TensorArena arena;  // Declared first: outlives the entries below.
  std::vector<nn::Tensor> kept;
  {
    // A training step's arena: what the library keeps across the step
    // must be on the heap.
    nn::ArenaScope step(&arena);
    for (int s = 0; s < num_slices; ++s) {
      kept.push_back(tokenizer->SpatialRepresentations(s));
    }
    model_->EndStep();
  }
  EXPECT_EQ(arena.outstanding(), 0) << "a kept entry lives in the arena";
  for (int s = 0; s < num_slices; ++s) {
    EXPECT_TRUE(GraphFree(kept[s])) << "slice " << s;
    nn::Tensor again = tokenizer->SpatialRepresentations(s);
    EXPECT_EQ(again.impl(), kept[s].impl()) << "slice " << s << " refilled";
    ASSERT_EQ(again.data().size(), fresh[s].size());
    EXPECT_EQ(0, std::memcmp(again.data().data(), fresh[s].data(),
                             fresh[s].size() * sizeof(float)))
        << "slice " << s;
  }
  // Trainable again: the step may have moved the weights, so EndStep()
  // drops even a graph-free library (read back here without a graph).
  tokenizer->SetTrainable(true);
  model_->EndStep();
  {
    nn::NoGradGuard no_grad;
    EXPECT_NE(tokenizer->SpatialRepresentations(0).impl(), kept[0].impl());
  }
}

TEST_F(CoreTest, UnfrozenForwardRebuildsLibraryWithGradients) {
  StTokenizer* tokenizer = model_->tokenizer();
  data::Trajectory prefix = AnyTrajectory(6);
  const int target = prefix.points.back().segment;
  prefix.points.pop_back();
  const int slice =
      dataset_->traffic().SliceOf(prefix.points.front().timestamp);

  tokenizer->SetTrainable(false);
  nn::Tensor frozen = tokenizer->SpatialRepresentations(slice);
  model_->EndStep();
  ASSERT_EQ(tokenizer->SpatialRepresentations(slice).impl(), frozen.impl());

  tokenizer->SetTrainable(true);
  nn::Tensor query;
  for (const auto& [name, parameter] : tokenizer->NamedParameters()) {
    if (name == "fusion.query") query = parameter;
  }
  ASSERT_TRUE(query.is_valid());
  query.ZeroGrad();
  nn::CrossEntropy(model_->NextHopLogits(prefix), {target}).Backward();
  nn::Tensor rebuilt = tokenizer->SpatialRepresentations(slice);
  EXPECT_NE(rebuilt.impl(), frozen.impl());
  EXPECT_FALSE(GraphFree(rebuilt));
  float grad_norm = 0;
  for (float g : query.grad()) grad_norm += g * g;
  EXPECT_GT(grad_norm, 0.0f);
  for (auto& parameter : model_->Parameters()) parameter.ZeroGrad();
}

TEST_F(CoreTest, HiddenTimesZeroTimeFeatures) {
  auto seq = data::StUnitSequence::FromTrajectory(AnyTrajectory());
  std::vector<bool> hide(seq.segments.size(), true);
  hide[0] = false;
  nn::Tensor hidden = model_->tokenizer()->TokenizeWithHiddenTimes(seq, hide);
  model_->tokenizer()->BeginStep();
  nn::Tensor visible = model_->tokenizer()->Tokenize(seq);
  // Tokens must differ at positions where time was hidden.
  float diff = 0;
  for (int j = 0; j < hidden.shape()[1]; ++j) {
    diff += std::fabs(hidden.at(1, j) - visible.at(1, j));
  }
  EXPECT_GT(diff, 1e-6f);
}

TEST_F(CoreTest, NextHopLogitsShape) {
  data::Trajectory prefix = AnyTrajectory();
  prefix.points.pop_back();
  nn::Tensor logits = model_->NextHopLogits(prefix);
  EXPECT_EQ(logits.shape()[0], 1);
  EXPECT_EQ(logits.shape()[1], dataset_->network().num_segments());
}

TEST_F(CoreTest, TravelTimeDeltasShape) {
  const auto& trip = AnyTrajectory();
  nn::Tensor deltas = model_->TravelTimeDeltas(trip);
  EXPECT_EQ(deltas.shape()[0], trip.length() - 1);
  EXPECT_EQ(deltas.shape()[1], 1);
}

TEST_F(CoreTest, ClassifyLogitsMatchUserSpace) {
  nn::Tensor logits = model_->ClassifyLogits(AnyTrajectory());
  ASSERT_TRUE(model_->classifies_users());
  EXPECT_EQ(logits.shape()[1], dataset_->num_users());
}

TEST_F(CoreTest, EmbedIsFixedWidth) {
  nn::Tensor e1 = model_->Embed(AnyTrajectory(5));
  EXPECT_EQ(e1.shape(), (std::vector<int64_t>{1, model_->config().d_model}));
}

TEST_F(CoreTest, RecoverLogitsOnePerMaskedPosition) {
  const auto& trip = AnyTrajectory(8);
  util::Rng rng(3);
  auto kept = data::DownsampleKeepIndices(trip.length(), 0.5, &rng);
  auto dropped = data::ComplementIndices(trip.length(), kept);
  if (dropped.empty()) GTEST_SKIP();
  nn::Tensor logits = model_->RecoverLogits(trip, kept);
  EXPECT_EQ(logits.shape()[0], static_cast<int64_t>(dropped.size()));
  EXPECT_EQ(logits.shape()[1], dataset_->network().num_segments());
}

TEST_F(CoreTest, PredictTrafficShapes) {
  nn::Tensor one = model_->PredictTraffic(0, 0, 1);
  EXPECT_EQ(one.shape(), (std::vector<int64_t>{1, data::kTrafficChannels}));
  nn::Tensor multi = model_->PredictTraffic(0, 0, 6);
  EXPECT_EQ(multi.shape(), (std::vector<int64_t>{6, data::kTrafficChannels}));
}

TEST_F(CoreTest, ImputeTrafficShape) {
  nn::Tensor imputed = model_->ImputeTraffic(1, 0, 12, {2, 5, 9});
  EXPECT_EQ(imputed.shape(), (std::vector<int64_t>{3, data::kTrafficChannels}));
}

TEST_F(CoreTest, MaskedReconstructOutputs) {
  auto seq = data::StUnitSequence::FromTrajectory(AnyTrajectory(6));
  auto rec = model_->MaskedReconstruct(seq, {1, 3});
  EXPECT_EQ(rec.segment_logits.shape()[0], 2);
  EXPECT_EQ(rec.states.shape(),
            (std::vector<int64_t>{2, data::kTrafficChannels}));
  EXPECT_EQ(rec.times.shape(), (std::vector<int64_t>{2, 1}));
}

TEST_F(CoreTest, ClipTrajectoryKeepsEndpoints) {
  data::Trajectory trip;
  for (int i = 0; i < 100; ++i) trip.points.push_back({i % 7, i * 10.0});
  data::Trajectory clipped = model_->ClipTrajectory(trip);
  EXPECT_LE(clipped.length(), model_->config().max_trajectory_tokens);
  EXPECT_EQ(clipped.points.front().timestamp, 0.0);
  EXPECT_EQ(clipped.points.back().timestamp, 990.0);
}

TEST_F(CoreTest, TrainingStepReducesNextHopLoss) {
  // One trajectory, several Adam steps on the full model: loss must drop.
  data::Trajectory trip = AnyTrajectory(6);
  data::Trajectory prefix = trip;
  prefix.points.pop_back();
  const int target = trip.points.back().segment;

  nn::Adam opt(model_->TrainableParameters(), 1e-3f);
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 8; ++step) {
    model_->BeginStep();
    opt.ZeroGrad();
    nn::Tensor loss =
        nn::CrossEntropy(model_->NextHopLogits(prefix), {target});
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last_loss, first_loss);
}

TEST_F(CoreTest, BackboneLoraFreeze) {
  // On a fresh small model: freezing the base then enabling LoRA leaves far
  // fewer trainable parameters while keeping forward intact.
  BigCityConfig config;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_layers = 1;
  config.spatial_dim = 8;
  config.gat_hidden = 8;
  BigCityModel model(dataset_, config);
  const int64_t full = static_cast<int64_t>(
      model.backbone()->TrainableParameters().size());
  util::Rng rng(1);
  model.backbone()->EnableLora(&rng);
  model.backbone()->FreezeBase();
  const int64_t adapted = static_cast<int64_t>(
      model.backbone()->TrainableParameters().size());
  EXPECT_LT(adapted, full);
  model.BeginStep();
  nn::Tensor logits = model.NextHopLogits(dataset_->train().front());
  EXPECT_EQ(logits.shape()[1], dataset_->network().num_segments());
}

TEST_F(CoreTest, TextLmLogitsShape) {
  // Use the model's own tokenizer (built with the full InstructionCorpus).
  const auto& tokenizer = model_->text_tokenizer();
  auto ids = tokenizer.Encode("predict the traffic state");
  nn::Tensor logits = model_->backbone()->TextLmLogits(ids);
  EXPECT_EQ(logits.shape()[0], static_cast<int64_t>(ids.size()));
  EXPECT_EQ(logits.shape()[1], tokenizer.vocab_size());
}

// --- Validated (Try*) inference entry points --------------------------------

TEST_F(CoreTest, TryNextHopMatchesDirectCallBitwise) {
  const data::Trajectory& trajectory = AnyTrajectory();
  auto result = model_->TryNextHopLogits(trajectory);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  model_->BeginStep();
  nn::Tensor direct = model_->NextHopLogits(model_->ClipTrajectory(trajectory));
  ASSERT_EQ(result.value().shape(), direct.shape());
  EXPECT_EQ(result.value().data(), direct.data());
}

TEST_F(CoreTest, TryEntryPointsRejectCorruptTrajectory) {
  data::Trajectory corrupt = AnyTrajectory();
  corrupt.points[1].segment = dataset_->network().num_segments() + 3;
  EXPECT_EQ(model_->TryNextHopLogits(corrupt).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->TryTravelTimeDeltas(corrupt).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->TryClassifyLogits(corrupt).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->TryEmbed(corrupt).status().code(),
            util::StatusCode::kInvalidArgument);

  data::Trajectory backwards = AnyTrajectory();
  backwards.points[2].timestamp = backwards.points[1].timestamp - 10.0;
  EXPECT_EQ(model_->TryTravelTimeDeltas(backwards).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(CoreTest, TryRecoverValidatesKeptIndices) {
  data::Trajectory trajectory = AnyTrajectory(6);
  // Recovery bounds length by max_trajectory_tokens instead of clipping.
  if (trajectory.length() > 10) trajectory.points.resize(10);
  // Valid: endpoints kept, interior masked.
  auto ok = model_->TryRecoverLogits(trajectory,
                                     {0, trajectory.length() - 1});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().shape()[0],
            static_cast<int64_t>(trajectory.length() - 2));

  EXPECT_EQ(model_->TryRecoverLogits(trajectory, {0}).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(
      model_->TryRecoverLogits(trajectory, {0, trajectory.length()})
          .status()
          .code(),
      util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->TryRecoverLogits(trajectory, {3, 1}).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(CoreTest, TryTrafficEntryPointsValidateWindows) {
  auto ok = model_->TryPredictTraffic(0, 0, 2);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().shape()[0], 2);

  EXPECT_EQ(model_->TryPredictTraffic(0, 0, 0).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->TryPredictTraffic(-1, 0, 1).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_
                ->TryPredictTraffic(0, dataset_->traffic().num_slices(), 1)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);

  auto imputed = model_->TryImputeTraffic(0, 0, 8, {2, 5});
  ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
  EXPECT_EQ(model_->TryImputeTraffic(0, 0, 8, {}).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->TryImputeTraffic(0, 0, 8, {8}).status().code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bigcity::core
