#ifndef BIGCITY_CORE_ST_TOKENIZER_H_
#define BIGCITY_CORE_ST_TOKENIZER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "data/st_unit.h"
#include "data/traffic_state.h"
#include "nn/attention.h"
#include "nn/gat.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "roadnet/poi.h"
#include "roadnet/road_network.h"

namespace bigcity::core {

/// The Spatiotemporal Tokenizer (Sec. IV-B): converts ST-unit sequences into
/// ST-token sequences. Pipeline per Eq. 4-8:
///   1. Static encoder: GAT over the road network on static features.
///   2. Dynamic encoder: GAT over the same graph on a T'-slice window of
///      traffic states (per time slice).
///   3. Fusion encoder: learned-query cross attention over ALL segments
///      (long-range, unlike the adjacency-restricted GATs).
///   4. Temporal integration: MLP over (spatial rep || time features ||
///      delta-tau) producing the ST token.
///
/// Spatial representations are cached per time slice in the "ST feature
/// library", which lives as long as the weights it was computed from:
///   * A fill needs an autograd graph when grad is enabled and some
///     parameter of the spatial path (static, dynamic and fusion encoders,
///     null placeholders) requires grad. Its entries stay in the step
///     arena and are dropped by EndStep().
///   * Any other fill is graph-free and pinned to the heap whole. Its
///     entries survive EndStep() while the spatial path stays frozen
///     (stage-2 prompt tuning, transfer fine-tuning), so every slice is
///     computed once.
///   * The library holds one kind at a time: a fill that needs a graph
///     never reads a graph-free entry, and vice versa.
///   * Weight loads do not reach the library: call BeginStep() after
///     loading or copying the tokenizer's weights.
///   * Serving fills the whole library once per model version
///     (FillLibrary()). After that a no-grad lookup only reads it, so
///     concurrent autograd-free forwards can share one model.
///   * No-grad lookups count `serve.cache.tokenizer.hit` when the library
///     holds the slice and `serve.cache.tokenizer.miss` when they fill it;
///     lookups with grad on count nothing.
class StTokenizer : public nn::Module {
 public:
  /// `poi` is optional (the future-work POI extension): when given, its
  /// per-segment category features are appended to the static features.
  StTokenizer(const roadnet::RoadNetwork* network,
              const data::TrafficStateSeries* traffic,  // null => no dynamics
              const BigCityConfig& config, util::Rng* rng,
              const roadnet::PoiLayer* poi = nullptr);

  /// Drops the whole library. Call after loading or copying weights, and
  /// wherever a cold library is wanted (each evaluation pass).
  void BeginStep();

  /// Must be called at the end of every optimizer step, before changing
  /// which parameters train. Keeps a graph-free library while the spatial
  /// path is frozen (the step cannot have moved its weights) and drops
  /// anything else.
  void EndStep();

  /// Drops the library and refills it graph-free for every slice a lookup
  /// can reach: [0, num_slices), or slice 0 alone without a traffic series
  /// or a dynamic encoder. Sets the `core.st_library.slices` gauge to the
  /// number filled. Call once the weights are final.
  void FillLibrary();

  /// Tokenizes a full ST-unit sequence -> [L, d_model].
  nn::Tensor Tokenize(const data::StUnitSequence& sequence);

  /// Tokenizes with per-position overrides used by the task prompts:
  /// positions in `hide_time` get zeroed time features and delta (TTE);
  /// this does NOT replace tokens with [MASK] — the backbone does that.
  nn::Tensor TokenizeWithHiddenTimes(const data::StUnitSequence& sequence,
                                     const std::vector<bool>& hide_time);

  /// Spatial representation s_{i,t} for every segment at a slice:
  /// [I, 2 * spatial_dim]. Exposed for baselines-style probing and tests.
  nn::Tensor SpatialRepresentations(int slice);

  int64_t token_dim() const { return config_.d_model; }
  int64_t spatial_rep_dim() const { return 2 * config_.spatial_dim; }

  /// The final MLP (the only part fine-tuned in cross-city transfer).
  nn::Mlp* temporal_mlp() { return temporal_mlp_.get(); }

  /// Freezes everything except the temporal MLP (Table VI protocol).
  void FreezeAllButTemporalMlp();

  const BigCityConfig& config() const { return config_; }

 private:
  /// Builds the [I, T' * C] windowed dynamic feature matrix for slice t.
  nn::Tensor DynamicWindowFeatures(int slice) const;
  /// True when no spatial-path parameter requires grad.
  bool SpatialPathFrozen() const;

  const roadnet::RoadNetwork* network_;
  const data::TrafficStateSeries* traffic_;
  BigCityConfig config_;

  nn::GraphEdges graph_;
  nn::Tensor static_features_;  // [I, static_dim] constant.

  std::unique_ptr<nn::GatEncoder> static_encoder_;
  std::unique_ptr<nn::GatEncoder> dynamic_encoder_;
  std::unique_ptr<nn::LearnedQueryAttention> fusion_;
  std::unique_ptr<nn::Mlp> temporal_mlp_;
  // Learned placeholders when an encoder is absent/ablated (paper: NULL
  // dynamic features on BJ).
  nn::Tensor null_static_;   // [1, spatial_dim]
  nn::Tensor null_dynamic_;  // [1, spatial_dim]

  // Everything but the temporal MLP: what the library is computed from.
  std::vector<nn::Tensor> spatial_parameters_;

  // The ST feature library; `library_has_graph_` names the kind of every
  // entry it holds.
  nn::Tensor cached_static_;                       // [I, spatial_dim]
  std::unordered_map<int, nn::Tensor> slice_cache_;  // slice -> [I, 2*Dh]
  bool library_has_graph_ = false;
};

}  // namespace bigcity::core

#endif  // BIGCITY_CORE_ST_TOKENIZER_H_
