#ifndef BIGCITY_TRAIN_EVALUATOR_H_
#define BIGCITY_TRAIN_EVALUATOR_H_

#include <vector>

#include "core/bigcity_model.h"
#include "util/rng.h"

namespace bigcity::train {

// Per-task evaluation results mirroring the paper's metric columns.

struct RegressionMetrics {
  double mae = 0, rmse = 0, mape = 0;  // TTE in minutes; traffic in m/s.
};

struct RankingMetrics {
  double accuracy = 0, mrr5 = 0, ndcg5 = 0;
};

struct BinaryClassMetrics {
  double accuracy = 0, f1 = 0, auc = 0;
};

struct MultiClassMetrics {
  double micro_f1 = 0, macro_f1 = 0, macro_recall = 0;
};

struct SimilarityMetrics {
  double hr1 = 0, hr5 = 0, hr10 = 0, mean_rank = 0;
};

struct RecoveryMetrics {
  double accuracy = 0, macro_f1 = 0;
};

/// Evaluation options; max_samples bounds per-task cost on one core.
struct EvalConfig {
  int max_samples = 150;
  int max_queries = 60;       // Similarity search queries.
  int traffic_samples = 120;  // (segment, start) pairs for traffic tasks.
  uint64_t seed = 77;
};

/// Runs the eight ST tasks against a trained BIGCity model on a dataset's
/// test split. Each method is one pass under a NoGradGuard that drops the
/// tokenizer library once (model->BeginStep()) before its first sample.
class Evaluator {
 public:
  Evaluator(core::BigCityModel* model, EvalConfig config = {});

  RegressionMetrics EvaluateTravelTime();
  RankingMetrics EvaluateNextHop();
  BinaryClassMetrics EvaluateBinaryClassification();
  MultiClassMetrics EvaluateUserClassification();
  SimilarityMetrics EvaluateSimilarity();
  RecoveryMetrics EvaluateRecovery(double mask_ratio);
  RegressionMetrics EvaluateTrafficPrediction(int horizon);
  RegressionMetrics EvaluateTrafficImputation(double mask_ratio);

 private:
  /// Test trajectories with length >= min_len, clipped, up to max_samples.
  std::vector<data::Trajectory> TestTrips(int min_len);

  core::BigCityModel* model_;
  EvalConfig config_;
  util::Rng rng_;
};

}  // namespace bigcity::train

#endif  // BIGCITY_TRAIN_EVALUATOR_H_
