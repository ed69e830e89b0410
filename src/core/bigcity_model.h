#ifndef BIGCITY_CORE_BIGCITY_MODEL_H_
#define BIGCITY_CORE_BIGCITY_MODEL_H_

#include <memory>
#include <vector>

#include "core/backbone.h"
#include "core/config.h"
#include "core/st_tokenizer.h"
#include "core/task.h"
#include "core/task_heads.h"
#include "core/text_tokenizer.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "roadnet/poi.h"
#include "util/status.h"

namespace bigcity::core {

/// Stable fingerprint of the architecture-relevant BigCityConfig fields
/// (widths, depths, LoRA shape, task limits, ablation switches — not
/// runtime knobs like threads). Two configs with equal fingerprints
/// produce weight-compatible models; version manifests
/// (util::VersionManifest) carry it so the serving runtime can reject a
/// checkpoint built for a different architecture before loading a byte.
std::string ConfigFingerprint(const BigCityConfig& config);

/// The assembled BIGCity model (Fig. 2): Unified ST Tokenizer + Versatile
/// Model with Task-oriented Prompts (backbone LLM + general task heads).
/// One instance serves all eight tasks with a single parameter set; the
/// task to execute is selected by the textual instruction in the prompt.
class BigCityModel : public nn::Module {
 public:
  BigCityModel(const data::CityDataset* dataset, BigCityConfig config);

  // --- Trajectory tasks ------------------------------------------------

  /// Next-hop: logits over all segments for the segment following the
  /// given prefix. `prefix` must contain at least 2 points. A one-element
  /// BatchNextHopLogits.
  nn::Tensor NextHopLogits(const data::Trajectory& prefix);

  /// TTE: predicted normalized time deltas [L-1, 1] for positions 1..L-1
  /// (every timestamp but the first is hidden from the model). A
  /// one-element BatchTravelTimeDeltas.
  nn::Tensor TravelTimeDeltas(const data::Trajectory& trajectory);

  /// Trajectory classification: user-linkage logits (XA/CD) or binary
  /// traffic-pattern logits (BJ), per the dataset's user count.
  nn::Tensor ClassifyLogits(const data::Trajectory& trajectory);
  bool classifies_users() const;

  /// Similarity-search representation: mean-pooled backbone ST outputs
  /// [1, d_model].
  nn::Tensor Embed(const data::Trajectory& trajectory);

  /// Recovery: segment logits [K, I] for the masked (dropped) positions of
  /// a downsampled trajectory. `kept` are the surviving indices within the
  /// original trajectory (sorted, including endpoints).
  nn::Tensor RecoverLogits(const data::Trajectory& original,
                           const std::vector<int>& kept);

  // --- Traffic-state tasks ---------------------------------------------

  /// Predicts the next `horizon` slices of one segment's states given
  /// slices [start, start+input_steps): [horizon, kTrafficChannels],
  /// normalized units. A one-element BatchPredictTraffic.
  nn::Tensor PredictTraffic(int segment, int start_slice, int horizon);

  /// Imputes masked positions of a traffic window: [K, kTrafficChannels].
  nn::Tensor ImputeTraffic(int segment, int start_slice, int window,
                           const std::vector<int>& masked);

  // --- Batched inference entry points ------------------------------------
  //
  // Cross-request batching for the serving runtime: prompts are assembled
  // per request, row-concatenated through the backbone (row-wise layers run
  // as one tall GEMM; attention per sequence), and the task heads run once
  // over the stacked placeholder outputs. Every returned tensor is
  // bit-identical to a one-element batch of the same input.

  /// One [1, I] logits tensor per prefix. When `caches` is given (one
  /// entry per prefix, entries may be null) each non-null empty KvCache
  /// receives that prefix's backbone attention state — a prefill — while
  /// a non-null cache holding the state of a served prefix of the same
  /// trajectory (the caller guarantees the cached positions match, e.g. by
  /// keying the cache on the trajectory prefix) is truncated to the shared
  /// region — text instruction plus the prefix's first L-1 ST tokens — and
  /// only the suffix rows and the [CLAS] placeholder decode against it.
  /// Mixed batches are fine; results are bit-identical either way.
  std::vector<nn::Tensor> BatchNextHopLogits(
      const std::vector<data::Trajectory>& prefixes,
      const std::vector<nn::KvCache*>* caches = nullptr);
  /// One [L_i - 1, 1] delta tensor per trajectory.
  std::vector<nn::Tensor> BatchTravelTimeDeltas(
      const std::vector<data::Trajectory>& trajectories);

  struct TrafficQuery {
    int segment;
    int start_slice;
    int horizon;
  };
  /// One [horizon_i, kTrafficChannels] tensor per query.
  std::vector<nn::Tensor> BatchPredictTraffic(
      const std::vector<TrafficQuery>& queries);

  /// Validated batch variants: screen every input exactly like the
  /// single-request Try* methods; any invalid member fails the whole batch
  /// (callers split and retry per item to attribute the error).
  util::Result<std::vector<nn::Tensor>> TryBatchNextHopLogits(
      const std::vector<data::Trajectory>& prefixes,
      const std::vector<nn::KvCache*>* caches = nullptr);
  util::Result<std::vector<nn::Tensor>> TryBatchTravelTimeDeltas(
      const std::vector<data::Trajectory>& trajectories);
  util::Result<std::vector<nn::Tensor>> TryBatchPredictTraffic(
      const std::vector<TrafficQuery>& queries);

  // --- Validated (Status-returning) inference entry points --------------
  //
  // The serving runtime (src/serve) must survive malformed requests, so
  // each task has a Try* variant that validates the input against the
  // bound dataset (segment ranges, timestamp monotonicity, window bounds,
  // task-specific length minima) and returns kInvalidArgument instead of
  // CHECK-aborting the process. On success they delegate to the plain
  // method above — results are bit-identical.

  util::Result<nn::Tensor> TryNextHopLogits(const data::Trajectory& prefix);
  util::Result<nn::Tensor> TryTravelTimeDeltas(
      const data::Trajectory& trajectory);
  util::Result<nn::Tensor> TryClassifyLogits(
      const data::Trajectory& trajectory);
  util::Result<nn::Tensor> TryEmbed(const data::Trajectory& trajectory);
  util::Result<nn::Tensor> TryRecoverLogits(const data::Trajectory& original,
                                            const std::vector<int>& kept);
  util::Result<nn::Tensor> TryPredictTraffic(int segment, int start_slice,
                                             int horizon);
  util::Result<nn::Tensor> TryImputeTraffic(int segment, int start_slice,
                                            int window,
                                            const std::vector<int>& masked);

  // --- Stage-1 masked reconstruction (Sec. VI-A) ------------------------

  struct Reconstruction {
    nn::Tensor segment_logits;  // [K, I]
    nn::Tensor states;          // [K, C]
    nn::Tensor times;           // [K, 1] normalized delta units.
  };
  /// Masks the given positions of an ST-unit sequence and reconstructs
  /// them via ([CLAS], [REG]) placeholder pairs (Eq. 12-14).
  Reconstruction MaskedReconstruct(const data::StUnitSequence& sequence,
                                   const std::vector<int>& masked);

  // --- Plumbing -----------------------------------------------------------

  /// Drops the tokenizer's ST feature library (after weight loads, and
  /// before each evaluation pass). See StTokenizer for the lifetime rules.
  void BeginStep() { tokenizer_->BeginStep(); }
  /// Must be called at the end of every optimizer step: keeps the library
  /// while the tokenizer's spatial path is frozen, drops it otherwise.
  void EndStep() { tokenizer_->EndStep(); }

  /// Truncates long trajectories to config.max_trajectory_tokens by
  /// uniform subsampling that keeps both endpoints.
  data::Trajectory ClipTrajectory(const data::Trajectory& trajectory) const;

  StTokenizer* tokenizer() { return tokenizer_.get(); }
  Backbone* backbone() { return backbone_.get(); }
  GeneralTaskHeads* heads() { return heads_.get(); }
  const TextTokenizer& text_tokenizer() const { return *text_tokenizer_; }
  const BigCityConfig& config() const { return config_; }
  const data::CityDataset* dataset() const { return dataset_; }

  /// Swaps the dataset binding (cross-city transfer: new tokenizer data
  /// sources but retained backbone weights is done by constructing a new
  /// model and CopyStateFrom on the backbone).

 private:
  nn::Tensor StTokensFor(const data::StUnitSequence& sequence,
                         const std::vector<bool>& hide_time);
  PromptInput MakePrompt(Task task, nn::Tensor st_tokens) const;

  const data::CityDataset* dataset_;
  BigCityConfig config_;
  util::Rng rng_;
  std::unique_ptr<roadnet::PoiLayer> poi_layer_;  // Optional POI extension.
  std::unique_ptr<TextTokenizer> text_tokenizer_;
  std::unique_ptr<StTokenizer> tokenizer_;
  std::unique_ptr<Backbone> backbone_;
  std::unique_ptr<GeneralTaskHeads> heads_;
};

}  // namespace bigcity::core

#endif  // BIGCITY_CORE_BIGCITY_MODEL_H_
