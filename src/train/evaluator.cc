#include "train/evaluator.h"

#include <algorithm>
#include <cmath>

#include "data/masking.h"
#include "data/traffic_aggregator.h"
#include "nn/ops.h"
#include "train/metrics.h"
#include "util/check.h"

namespace bigcity::train {

using data::Trajectory;
using nn::Tensor;

namespace {

/// Cosine similarity between two [1, D] tensors.
double Cosine(const Tensor& a, const Tensor& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    dot += static_cast<double>(a.data()[i]) * b.data()[i];
    na += static_cast<double>(a.data()[i]) * a.data()[i];
    nb += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0 ? dot / denom : 0.0;
}

/// Every-other-point split used by the similarity protocol: the query is
/// the even-index subsequence, the database entry the odd-index one.
Trajectory EveryOther(const Trajectory& trip, int parity) {
  Trajectory result;
  result.user_id = trip.user_id;
  result.pattern_label = trip.pattern_label;
  for (int l = parity; l < trip.length(); l += 2) {
    result.points.push_back(trip.points[static_cast<size_t>(l)]);
  }
  return result;
}

/// One evaluation pass: no autograd graphs, and a tokenizer library
/// rebuilt from the current weights once, then shared by every sample.
class EvalPass {
 public:
  explicit EvalPass(core::BigCityModel* model) { model->BeginStep(); }

 private:
  nn::NoGradGuard no_grad_;
};

}  // namespace

Evaluator::Evaluator(core::BigCityModel* model, EvalConfig config)
    : model_(model), config_(config), rng_(config.seed) {
  BIGCITY_CHECK(model != nullptr);
}

std::vector<Trajectory> Evaluator::TestTrips(int min_len) {
  std::vector<Trajectory> trips;
  for (const auto& trip : model_->dataset()->test()) {
    if (trip.length() < min_len) continue;
    trips.push_back(model_->ClipTrajectory(trip));
    if (static_cast<int>(trips.size()) >= config_.max_samples) break;
  }
  return trips;
}

RegressionMetrics Evaluator::EvaluateTravelTime() {
  EvalPass pass(model_);
  std::vector<double> predictions, targets;
  for (const auto& trip : TestTrips(4)) {
    Tensor deltas = model_->TravelTimeDeltas(trip);
    // Whole-trip ETA in minutes: sum of predicted per-hop intervals
    // (MLP_t outputs are in minutes).
    double predicted_minutes = 0;
    for (int l = 0; l < deltas.shape()[0]; ++l) {
      predicted_minutes += std::max(0.0f, deltas.at(l, 0));
    }
    predictions.push_back(predicted_minutes);
    targets.push_back(trip.duration_seconds() / 60.0);
  }
  RegressionMetrics metrics;
  metrics.mae = MeanAbsoluteError(predictions, targets);
  metrics.rmse = RootMeanSquaredError(predictions, targets);
  metrics.mape = MeanAbsolutePercentageError(predictions, targets);
  return metrics;
}

RankingMetrics Evaluator::EvaluateNextHop() {
  EvalPass pass(model_);
  std::vector<std::vector<int>> ranked;
  std::vector<int> targets;
  for (const auto& trip : TestTrips(4)) {
    Trajectory prefix = trip;
    const int target = prefix.points.back().segment;
    prefix.points.pop_back();
    Tensor logits = model_->NextHopLogits(prefix);
    ranked.push_back(nn::TopKRow(logits, 0, 5));
    targets.push_back(target);
  }
  RankingMetrics metrics;
  std::vector<int> top1;
  for (const auto& r : ranked) top1.push_back(r.empty() ? -1 : r[0]);
  metrics.accuracy = Accuracy(top1, targets);
  metrics.mrr5 = MrrAtK(ranked, targets, 5);
  metrics.ndcg5 = NdcgAtK(ranked, targets, 5);
  return metrics;
}

BinaryClassMetrics Evaluator::EvaluateBinaryClassification() {
  EvalPass pass(model_);
  BIGCITY_CHECK(!model_->classifies_users());
  std::vector<int> predictions, targets;
  std::vector<double> scores;
  for (const auto& trip : TestTrips(4)) {
    Tensor logits = model_->ClassifyLogits(trip);
    Tensor probs = nn::Softmax(logits);
    predictions.push_back(probs.at(0, 1) > probs.at(0, 0) ? 1 : 0);
    scores.push_back(probs.at(0, 1));
    targets.push_back(trip.pattern_label);
  }
  BinaryClassMetrics metrics;
  metrics.accuracy = Accuracy(predictions, targets);
  metrics.f1 = BinaryF1(predictions, targets);
  metrics.auc = BinaryAuc(scores, targets);
  return metrics;
}

MultiClassMetrics Evaluator::EvaluateUserClassification() {
  EvalPass pass(model_);
  BIGCITY_CHECK(model_->classifies_users());
  std::vector<int> predictions, targets;
  for (const auto& trip : TestTrips(4)) {
    Tensor logits = model_->ClassifyLogits(trip);
    predictions.push_back(nn::ArgmaxRows(logits)[0]);
    targets.push_back(trip.user_id);
  }
  MultiClassMetrics metrics;
  const int num_users = model_->dataset()->num_users();
  metrics.micro_f1 = MicroF1(predictions, targets, num_users);
  metrics.macro_f1 = MacroF1(predictions, targets, num_users);
  metrics.macro_recall = MacroRecall(predictions, targets, num_users);
  return metrics;
}

SimilarityMetrics Evaluator::EvaluateSimilarity() {
  EvalPass pass(model_);
  // Standard odd/even protocol: query = even points, ground truth = the odd
  // half of the SAME trip among all odd halves.
  std::vector<Trajectory> queries, database;
  for (const auto& trip : model_->dataset()->test()) {
    if (trip.length() < 8) continue;
    Trajectory clipped = model_->ClipTrajectory(trip);
    queries.push_back(EveryOther(clipped, 0));
    database.push_back(EveryOther(clipped, 1));
    if (static_cast<int>(queries.size()) >= config_.max_queries) break;
  }
  SimilarityMetrics metrics;
  if (queries.empty()) return metrics;

  std::vector<Tensor> db_embeddings;
  for (const auto& entry : database) {
    db_embeddings.push_back(model_->Embed(entry));
  }
  std::vector<std::vector<int>> ranked;
  std::vector<int> targets;
  for (size_t q = 0; q < queries.size(); ++q) {
    Tensor query_embedding = model_->Embed(queries[q]);
    std::vector<std::pair<double, int>> scored;
    for (size_t d = 0; d < db_embeddings.size(); ++d) {
      scored.emplace_back(Cosine(query_embedding, db_embeddings[d]),
                          static_cast<int>(d));
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<int> order;
    for (const auto& [score, index] : scored) order.push_back(index);
    ranked.push_back(std::move(order));
    targets.push_back(static_cast<int>(q));
  }
  metrics.hr1 = HitRateAtK(ranked, targets, 1);
  metrics.hr5 = HitRateAtK(ranked, targets, 5);
  metrics.hr10 = HitRateAtK(ranked, targets, 10);
  metrics.mean_rank = MeanRank(ranked, targets);
  return metrics;
}

RecoveryMetrics Evaluator::EvaluateRecovery(double mask_ratio) {
  EvalPass pass(model_);
  std::vector<int> predictions, targets;
  for (const auto& trip : TestTrips(8)) {
    auto kept = data::DownsampleKeepIndices(trip.length(), mask_ratio, &rng_);
    auto dropped = data::ComplementIndices(trip.length(), kept);
    if (dropped.empty()) continue;
    Tensor logits = model_->RecoverLogits(trip, kept);
    auto predicted = nn::ArgmaxRows(logits);
    for (size_t k = 0; k < dropped.size(); ++k) {
      predictions.push_back(predicted[k]);
      targets.push_back(
          trip.points[static_cast<size_t>(dropped[k])].segment);
    }
  }
  RecoveryMetrics metrics;
  if (predictions.empty()) return metrics;
  metrics.accuracy = Accuracy(predictions, targets);
  metrics.macro_f1 = MacroF1(predictions, targets,
                             model_->dataset()->network().num_segments());
  return metrics;
}

RegressionMetrics Evaluator::EvaluateTrafficPrediction(int horizon) {
  EvalPass pass(model_);
  const auto* dataset = model_->dataset();
  BIGCITY_CHECK(dataset->config().has_dynamic_features);
  const int window = model_->config().traffic_input_steps;
  std::vector<double> predictions, targets;
  for (int s = 0; s < config_.traffic_samples; ++s) {
    const int segment =
        rng_.UniformInt(0, dataset->network().num_segments() - 1);
    // Evaluate on the later half of the timeline (held-out in time).
    const int start = rng_.UniformInt(
        dataset->num_slices() / 2,
        std::max(dataset->num_slices() / 2,
                 dataset->num_slices() - window - horizon - 1));
    Tensor predicted = model_->PredictTraffic(segment, start, horizon);
    for (int h = 0; h < horizon; ++h) {
      // Speed channel, de-normalized to m/s.
      predictions.push_back(predicted.at(h, 0) *
                            data::TrafficAggregator::kSpeedScale);
      targets.push_back(dataset->traffic().Get(start + window + h, segment,
                                               0) *
                        data::TrafficAggregator::kSpeedScale);
    }
  }
  RegressionMetrics metrics;
  metrics.mae = MeanAbsoluteError(predictions, targets);
  metrics.rmse = RootMeanSquaredError(predictions, targets);
  metrics.mape = MeanAbsolutePercentageError(predictions, targets);
  return metrics;
}

RegressionMetrics Evaluator::EvaluateTrafficImputation(double mask_ratio) {
  EvalPass pass(model_);
  const auto* dataset = model_->dataset();
  BIGCITY_CHECK(dataset->config().has_dynamic_features);
  const int window = model_->config().traffic_input_steps;
  std::vector<double> predictions, targets;
  for (int s = 0; s < config_.traffic_samples; ++s) {
    const int segment =
        rng_.UniformInt(0, dataset->network().num_segments() - 1);
    const int start = rng_.UniformInt(
        0, std::max(0, dataset->num_slices() - window - 1));
    const int k = std::max(1, static_cast<int>(window * mask_ratio));
    auto masked = data::RandomMaskIndices(window, k, &rng_);
    Tensor imputed = model_->ImputeTraffic(segment, start, window, masked);
    for (size_t m = 0; m < masked.size(); ++m) {
      predictions.push_back(imputed.at(static_cast<int64_t>(m), 0) *
                            data::TrafficAggregator::kSpeedScale);
      targets.push_back(
          dataset->traffic().Get(start + masked[m], segment, 0) *
          data::TrafficAggregator::kSpeedScale);
    }
  }
  RegressionMetrics metrics;
  metrics.mae = MeanAbsoluteError(predictions, targets);
  metrics.rmse = RootMeanSquaredError(predictions, targets);
  metrics.mape = MeanAbsolutePercentageError(predictions, targets);
  return metrics;
}

}  // namespace bigcity::train
