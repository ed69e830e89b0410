#include "core/st_tokenizer.h"

#include <algorithm>
#include <optional>

#include "nn/ops.h"
#include "obs/obs.h"
#include "util/check.h"

namespace bigcity::core {

using nn::Tensor;

StTokenizer::StTokenizer(const roadnet::RoadNetwork* network,
                         const data::TrafficStateSeries* traffic,
                         const BigCityConfig& config, util::Rng* rng,
                         const roadnet::PoiLayer* poi)
    : network_(network), traffic_(traffic), config_(config) {
  BIGCITY_CHECK(network != nullptr);
  graph_ = network_->ToGraphEdges();
  static_features_ = network_->StaticFeatureMatrix();
  int64_t static_dim = roadnet::RoadNetwork::StaticFeatureDim();
  if (poi != nullptr) {
    // POI extension: append per-segment POI category features.
    static_features_ =
        nn::Concat({static_features_, poi->SegmentPoiFeatures()}, 1);
    static_dim += roadnet::kNumPoiCategories;
  }

  if (config_.use_static_encoder) {
    static_encoder_ = std::make_unique<nn::GatEncoder>(
        static_dim, config_.gat_hidden, config_.spatial_dim,
        config_.gat_heads, rng);
    RegisterModule("static_encoder", static_encoder_.get());
  }
  if (config_.use_dynamic_encoder && traffic_ != nullptr) {
    dynamic_encoder_ = std::make_unique<nn::GatEncoder>(
        config_.dynamic_window * data::kTrafficChannels, config_.gat_hidden,
        config_.spatial_dim, config_.gat_heads, rng);
    RegisterModule("dynamic_encoder", dynamic_encoder_.get());
  }
  if (config_.use_fusion_encoder) {
    fusion_ = std::make_unique<nn::LearnedQueryAttention>(
        network_->num_segments(), 2 * config_.spatial_dim, rng);
    RegisterModule("fusion", fusion_.get());
  }
  // Temporal integration: (s_{i,t} || iota_tau || delta) -> ST token.
  temporal_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{2 * config_.spatial_dim + data::kTimeFeatureDim + 1,
                           config_.d_model, config_.d_model},
      rng);
  RegisterModule("temporal_mlp", temporal_mlp_.get());

  null_static_ = RegisterParameter(
      "null_static", Tensor::Randn({1, config_.spatial_dim}, rng, 0.02f,
                                   /*requires_grad=*/true));
  null_dynamic_ = RegisterParameter(
      "null_dynamic", Tensor::Randn({1, config_.spatial_dim}, rng, 0.02f,
                                    /*requires_grad=*/true));
  for (const auto& [name, parameter] : NamedParameters()) {
    if (name.rfind("temporal_mlp.", 0) != 0) {
      spatial_parameters_.push_back(parameter);
    }
  }
}

void StTokenizer::BeginStep() {
  cached_static_ = Tensor();
  slice_cache_.clear();
}

void StTokenizer::EndStep() {
  if (library_has_graph_ || !SpatialPathFrozen()) BeginStep();
}

void StTokenizer::FillLibrary() {
  BeginStep();
  nn::NoGradGuard no_grad;
  // SpatialRepresentations maps every slice to 0 without dynamics, and
  // TrafficStateSeries::SliceOf clamps into [0, num_slices).
  const int slices = traffic_ != nullptr && dynamic_encoder_ != nullptr
                         ? traffic_->num_slices()
                         : 1;
  for (int slice = 0; slice < slices; ++slice) SpatialRepresentations(slice);
  BIGCITY_GAUGE_SET("core.st_library.slices", slices);
}

bool StTokenizer::SpatialPathFrozen() const {
  return std::none_of(spatial_parameters_.begin(), spatial_parameters_.end(),
                      [](const Tensor& p) { return p.requires_grad(); });
}

Tensor StTokenizer::DynamicWindowFeatures(int slice) const {
  BIGCITY_CHECK(traffic_ != nullptr);
  const int num_segments = network_->num_segments();
  const int window = config_.dynamic_window;
  const int channels = data::kTrafficChannels;
  std::vector<float> data(static_cast<size_t>(num_segments) * window *
                          channels);
  for (int i = 0; i < num_segments; ++i) {
    for (int w = 0; w < window; ++w) {
      // Window W = (t - T' + 1, ..., t); clamp early slices.
      const int t = std::max(0, slice - (window - 1) + w);
      for (int c = 0; c < channels; ++c) {
        data[(static_cast<size_t>(i) * window + w) * channels + c] =
            traffic_->Get(t, i, c);
      }
    }
  }
  return Tensor::FromData({num_segments, window * channels},
                          std::move(data));
}

Tensor StTokenizer::SpatialRepresentations(int slice) {
  if (traffic_ == nullptr || dynamic_encoder_ == nullptr) slice = 0;
  const bool grad = nn::GradEnabled();
  const bool graph = grad && !SpatialPathFrozen();
  if (graph != library_has_graph_) {
    BeginStep();
    library_has_graph_ = graph;
  }
  if (auto it = slice_cache_.find(slice); it != slice_cache_.end()) {
    if (!grad) BIGCITY_COUNTER_INC("serve.cache.tokenizer.hit");
    return it->second;
  }
  if (!grad) BIGCITY_COUNTER_INC("serve.cache.tokenizer.miss");
  // A graph fill stays in the step arena; EndStep() drops it before the
  // arena rewinds. A graph-free fill outlives the step or request, so it
  // is pinned to the heap.
  std::optional<nn::ArenaPin> pin;
  if (!graph) pin.emplace();
  const int num_segments = network_->num_segments();

  // Static representations H^(s) (Eq. 4) — slice-independent, cached once.
  if (!cached_static_.is_valid()) {
    if (static_encoder_ != nullptr) {
      cached_static_ = static_encoder_->Forward(static_features_, graph_);
    } else {
      // Ablation w/o-Sta: broadcast the learned null static vector.
      std::vector<int> zeros(static_cast<size_t>(num_segments), 0);
      cached_static_ = nn::Rows(null_static_, zeros);
    }
  }

  // Dynamic representations H^(d)_t (Eq. 5).
  Tensor dynamic;
  if (dynamic_encoder_ != nullptr && traffic_ != nullptr) {
    const int clamped =
        std::min(slice, traffic_->num_slices() - 1);
    dynamic = dynamic_encoder_->Forward(DynamicWindowFeatures(clamped),
                                        graph_);
  } else {
    // NULL dynamic features (Def. 8) / ablation w/o-Dyn.
    std::vector<int> zeros(static_cast<size_t>(num_segments), 0);
    dynamic = nn::Rows(null_dynamic_, zeros);
  }

  // Fusion (Eq. 6-7) over h_{i,t} = (h_i^(s) || h_{i,t}^(d)).
  Tensor fused = nn::Concat({cached_static_, dynamic}, /*axis=*/1);
  if (fusion_ != nullptr) fused = fusion_->Forward(fused);

  slice_cache_.emplace(slice, fused);
  return fused;
}

Tensor StTokenizer::Tokenize(const data::StUnitSequence& sequence) {
  return TokenizeWithHiddenTimes(
      sequence, std::vector<bool>(sequence.segments.size(), false));
}

Tensor StTokenizer::TokenizeWithHiddenTimes(
    const data::StUnitSequence& sequence,
    const std::vector<bool>& hide_time) {
  // Stage attribution for the serving breakdown.
  BIGCITY_REQUEST_STAGE_TIMED(kTokenize);
  const int length = sequence.length();
  BIGCITY_CHECK_GT(length, 0);
  BIGCITY_CHECK_EQ(static_cast<int>(hide_time.size()), length);

  // Gather s_{i, t_l} for every position. Timestamps ascend, so positions
  // sharing a slice are adjacent and share one library lookup.
  std::vector<Tensor> position_reps;
  position_reps.reserve(static_cast<size_t>(length));
  int reps_slice = -1;
  Tensor reps;
  for (int l = 0; l < length; ++l) {
    const int slice =
        traffic_ != nullptr ? traffic_->SliceOf(sequence.timestamps[
                                  static_cast<size_t>(l)])
                            : 0;
    if (slice != reps_slice) {
      reps = SpatialRepresentations(slice);
      reps_slice = slice;
    }
    position_reps.push_back(
        nn::Rows(reps, {sequence.segments[static_cast<size_t>(l)]}));
  }
  Tensor spatial = nn::Concat(position_reps, /*axis=*/0);  // [L, 2*Dh]

  // Time features iota_tau and delta_tau (Eq. 8).
  std::vector<float> time_data(static_cast<size_t>(length) *
                               (data::kTimeFeatureDim + 1));
  for (int l = 0; l < length; ++l) {
    float* row = time_data.data() +
                 static_cast<size_t>(l) * (data::kTimeFeatureDim + 1);
    if (!hide_time[static_cast<size_t>(l)]) {
      auto features =
          data::TimeFeatures(sequence.timestamps[static_cast<size_t>(l)]);
      std::copy(features.begin(), features.end(), row);
      const double delta =
          l == 0 ? 0.0
                 : sequence.timestamps[static_cast<size_t>(l)] -
                       sequence.timestamps[static_cast<size_t>(l - 1)];
      row[data::kTimeFeatureDim] = data::DeltaFeature(delta);
    }
    // Hidden times leave the row zeroed — the TTE prompt protocol.
  }
  Tensor time = Tensor::FromData({length, data::kTimeFeatureDim + 1},
                                 std::move(time_data));

  return temporal_mlp_->Forward(nn::Concat({spatial, time}, /*axis=*/1));
}

void StTokenizer::FreezeAllButTemporalMlp() {
  SetTrainable(false);
  temporal_mlp_->SetTrainable(true);
}

}  // namespace bigcity::core
