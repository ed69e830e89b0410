#include "core/bigcity_model.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "data/validate.h"
#include "util/checkpoint.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "util/check.h"

namespace bigcity::core {

using data::StUnitSequence;
using nn::Tensor;

std::string ConfigFingerprint(const BigCityConfig& config) {
  // Field order is part of the fingerprint contract: append-only. Runtime
  // knobs (threads, seed) are deliberately excluded — they do not change
  // the parameter set a checkpoint must match.
  std::string canonical;
  canonical += "spatial_dim=" + std::to_string(config.spatial_dim);
  canonical += ";gat_hidden=" + std::to_string(config.gat_hidden);
  canonical += ";gat_heads=" + std::to_string(config.gat_heads);
  canonical += ";dynamic_window=" + std::to_string(config.dynamic_window);
  canonical += ";d_model=" + std::to_string(config.d_model);
  canonical += ";num_heads=" + std::to_string(config.num_heads);
  canonical += ";num_layers=" + std::to_string(config.num_layers);
  canonical += ";max_sequence=" + std::to_string(config.max_sequence);
  canonical += ";lora_rank=" + std::to_string(config.lora_rank);
  canonical += ";lora_alpha=" + std::to_string(config.lora_alpha);
  canonical += ";lora_rate=" + std::to_string(config.lora_rate);
  canonical +=
      ";max_traj_tokens=" + std::to_string(config.max_trajectory_tokens);
  canonical +=
      ";traffic_input_steps=" + std::to_string(config.traffic_input_steps);
  canonical += ";traffic_horizon=" + std::to_string(config.traffic_horizon);
  canonical += ";static=" + std::to_string(config.use_static_encoder);
  canonical += ";dynamic=" + std::to_string(config.use_dynamic_encoder);
  canonical += ";fusion=" + std::to_string(config.use_fusion_encoder);
  canonical += ";prompts=" + std::to_string(config.use_prompts);
  canonical += ";poi=" + std::to_string(config.use_poi_features);
  canonical += ";num_pois=" + std::to_string(config.num_pois);
  const uint32_t crc =
      util::Crc32(canonical.data(), canonical.size());
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "cfg-%08x", crc);
  return buffer;
}

BigCityModel::BigCityModel(const data::CityDataset* dataset,
                           BigCityConfig config)
    : dataset_(dataset), config_(config), rng_(config.seed) {
  BIGCITY_CHECK(dataset != nullptr);
  if (config_.threads > 0) nn::kernels::SetNumThreads(config_.threads);
  text_tokenizer_ = std::make_unique<TextTokenizer>(InstructionCorpus());
  const data::TrafficStateSeries* traffic =
      dataset->config().has_dynamic_features ? &dataset->traffic() : nullptr;
  if (config_.use_poi_features) {
    poi_layer_ = std::make_unique<roadnet::PoiLayer>(
        &dataset->network(), config_.num_pois, config_.seed ^ 0x9090);
  }
  tokenizer_ = std::make_unique<StTokenizer>(&dataset->network(), traffic,
                                             config_, &rng_,
                                             poi_layer_.get());
  backbone_ = std::make_unique<Backbone>(text_tokenizer_->vocab_size(),
                                         config_, &rng_);
  LabelSpace labels;
  labels.num_segments = dataset->network().num_segments();
  labels.num_users = dataset->num_users();
  heads_ = std::make_unique<GeneralTaskHeads>(config_.d_model, labels, &rng_);
  RegisterModule("tokenizer", tokenizer_.get());
  RegisterModule("backbone", backbone_.get());
  RegisterModule("heads", heads_.get());
  // The module tree is static from here on (EnableLora adds parameters,
  // not modules), so profiler/health attribution paths can be assigned
  // once and match NamedParameters() prefixes for the model's lifetime.
  AssignModulePaths();
}

bool BigCityModel::classifies_users() const {
  return dataset_->config().has_dynamic_features;  // XA/CD style datasets.
}

data::Trajectory BigCityModel::ClipTrajectory(
    const data::Trajectory& trajectory) const {
  const int max_len = config_.max_trajectory_tokens;
  if (trajectory.length() <= max_len) return trajectory;
  data::Trajectory clipped;
  clipped.user_id = trajectory.user_id;
  clipped.pattern_label = trajectory.pattern_label;
  clipped.points.reserve(static_cast<size_t>(max_len));
  const double step = static_cast<double>(trajectory.length() - 1) /
                      static_cast<double>(max_len - 1);
  int previous = -1;
  for (int k = 0; k < max_len; ++k) {
    int index = static_cast<int>(k * step + 0.5);
    index = std::clamp(index, 0, trajectory.length() - 1);
    if (index == previous) continue;
    previous = index;
    clipped.points.push_back(
        trajectory.points[static_cast<size_t>(index)]);
  }
  return clipped;
}

Tensor BigCityModel::StTokensFor(const StUnitSequence& sequence,
                                 const std::vector<bool>& hide_time) {
  return tokenizer_->TokenizeWithHiddenTimes(sequence, hide_time);
}

PromptInput BigCityModel::MakePrompt(Task task, Tensor st_tokens) const {
  PromptInput prompt;
  if (config_.use_prompts) {
    prompt.text_ids = text_tokenizer_->Encode(InstructionFor(task));
  }
  prompt.st_tokens = std::move(st_tokens);
  return prompt;
}

// --- Trajectory tasks ------------------------------------------------------

Tensor BigCityModel::NextHopLogits(const data::Trajectory& prefix) {
  return BatchNextHopLogits({prefix})[0];
}

Tensor BigCityModel::TravelTimeDeltas(const data::Trajectory& trajectory) {
  return BatchTravelTimeDeltas({trajectory})[0];
}

Tensor BigCityModel::ClassifyLogits(const data::Trajectory& trajectory) {
  StUnitSequence seq = StUnitSequence::FromTrajectory(trajectory);
  PromptInput prompt = MakePrompt(
      Task::kTrajClassification,
      StTokensFor(seq, std::vector<bool>(seq.segments.size(), false)));
  prompt.task_tokens = {TaskTokenKind::kClas};
  BackboneOutput out = backbone_->Forward(prompt);
  return classifies_users() ? heads_->UserLogits(out.task_outputs)
                            : heads_->PatternLogits(out.task_outputs);
}

Tensor BigCityModel::Embed(const data::Trajectory& trajectory) {
  StUnitSequence seq = StUnitSequence::FromTrajectory(trajectory);
  PromptInput prompt = MakePrompt(
      Task::kMostSimilarSearch,
      StTokensFor(seq, std::vector<bool>(seq.segments.size(), false)));
  BackboneOutput out = backbone_->Forward(prompt);
  return nn::MeanRows(out.st_outputs);
}

Tensor BigCityModel::RecoverLogits(const data::Trajectory& original,
                                   const std::vector<int>& kept) {
  const int length = original.length();
  BIGCITY_CHECK_GE(length, 2);
  BIGCITY_CHECK_GE(static_cast<int>(kept.size()), 2);

  // Tokens for the kept sub-trajectory; masked slots become [MASK] rows in
  // the backbone (Fig. 3d).
  data::Trajectory kept_trajectory;
  kept_trajectory.user_id = original.user_id;
  for (int index : kept) {
    BIGCITY_CHECK(index >= 0 && index < length);
    kept_trajectory.points.push_back(
        original.points[static_cast<size_t>(index)]);
  }
  StUnitSequence kept_seq = StUnitSequence::FromTrajectory(kept_trajectory);
  Tensor kept_tokens = StTokensFor(
      kept_seq, std::vector<bool>(kept_seq.segments.size(), false));

  // Interleave kept tokens with zero rows at masked positions; the backbone
  // replaces masked rows by the learnable [MASK] vector.
  std::vector<bool> is_kept(static_cast<size_t>(length), false);
  for (int index : kept) is_kept[static_cast<size_t>(index)] = true;
  std::vector<Tensor> rows;
  std::vector<int> mask_positions;
  Tensor zero_row = Tensor::Zeros({1, config_.d_model});
  int kept_cursor = 0;
  for (int l = 0; l < length; ++l) {
    if (is_kept[static_cast<size_t>(l)]) {
      rows.push_back(nn::SliceRows(kept_tokens, kept_cursor, kept_cursor + 1));
      ++kept_cursor;
    } else {
      rows.push_back(zero_row);
      mask_positions.push_back(l);
    }
  }
  BIGCITY_CHECK(!mask_positions.empty()) << "nothing to recover";

  PromptInput prompt =
      MakePrompt(Task::kTrajRecovery, nn::Concat(rows, /*axis=*/0));
  prompt.mask_positions = mask_positions;
  prompt.task_tokens.assign(mask_positions.size(), TaskTokenKind::kClas);
  BackboneOutput out = backbone_->Forward(prompt);
  return heads_->SegmentLogits(out.task_outputs);
}

// --- Validated entry points -------------------------------------------------
//
// Each Try* validates against the bound dataset and clips over-long
// trajectories (the backbone's positional table is finite), then delegates
// to the CHECK-based method — identical numerics on valid input.

namespace {

/// Shared trajectory screening: structural validity plus a task-specific
/// minimum length (checked before clipping; clipping preserves >= 2).
util::Status ScreenTrajectory(const data::Trajectory& trajectory,
                              int num_segments, int min_len,
                              const char* task) {
  if (auto s = data::ValidateTrajectory(trajectory, num_segments); !s.ok()) {
    return s;
  }
  if (trajectory.length() < min_len) {
    return util::Status::InvalidArgument(
        std::string(task) + " needs at least " + std::to_string(min_len) +
        " points, got " + std::to_string(trajectory.length()));
  }
  return util::Status::Ok();
}

/// The lone member of a one-element batch result.
util::Result<Tensor> Only(util::Result<std::vector<Tensor>> batch) {
  if (!batch.ok()) return batch.status();
  return batch.value()[0];
}

/// Runs `head` once over the stacked placeholder outputs of `outs` and
/// splits its rows back per member, `rows[i]` for member i. A lone
/// member's head output is returned as it is, with no stacking copy.
template <typename Head>
std::vector<Tensor> SplitHead(const std::vector<BackboneOutput>& outs,
                              const std::vector<int64_t>& rows,
                              const Head& head) {
  if (outs.size() == 1) return {head(outs[0].task_outputs)};
  std::vector<Tensor> stacked;
  stacked.reserve(outs.size());
  for (const BackboneOutput& out : outs) stacked.push_back(out.task_outputs);
  // One head GEMM over the stacked placeholder outputs.
  Tensor all = head(nn::Concat(stacked, /*axis=*/0));
  std::vector<Tensor> results;
  results.reserve(outs.size());
  int64_t off = 0;
  for (int64_t count : rows) {
    results.push_back(nn::SliceRows(all, off, off + count));
    off += count;
  }
  return results;
}

}  // namespace

util::Result<Tensor> BigCityModel::TryNextHopLogits(
    const data::Trajectory& prefix) {
  return Only(TryBatchNextHopLogits({prefix}));
}

util::Result<Tensor> BigCityModel::TryTravelTimeDeltas(
    const data::Trajectory& trajectory) {
  return Only(TryBatchTravelTimeDeltas({trajectory}));
}

util::Result<Tensor> BigCityModel::TryClassifyLogits(
    const data::Trajectory& trajectory) {
  if (auto s = ScreenTrajectory(trajectory,
                                dataset_->network().num_segments(), 1,
                                "classification");
      !s.ok()) {
    return s;
  }
  return ClassifyLogits(ClipTrajectory(trajectory));
}

util::Result<Tensor> BigCityModel::TryEmbed(
    const data::Trajectory& trajectory) {
  if (auto s = ScreenTrajectory(trajectory,
                                dataset_->network().num_segments(), 1,
                                "similarity embedding");
      !s.ok()) {
    return s;
  }
  return Embed(ClipTrajectory(trajectory));
}

util::Result<Tensor> BigCityModel::TryRecoverLogits(
    const data::Trajectory& original, const std::vector<int>& kept) {
  // Recovery indexes the *unclipped* trajectory, so length is bounded by
  // the positional table rather than silently subsampled.
  if (auto s = ScreenTrajectory(original,
                                dataset_->network().num_segments(), 2,
                                "recovery");
      !s.ok()) {
    return s;
  }
  if (original.length() > config_.max_trajectory_tokens) {
    return util::Status::InvalidArgument(
        "recovery trajectory length " + std::to_string(original.length()) +
        " exceeds max_trajectory_tokens " +
        std::to_string(config_.max_trajectory_tokens));
  }
  if (kept.size() < 2) {
    return util::Status::InvalidArgument("recovery needs >= 2 kept indices");
  }
  if (static_cast<int>(kept.size()) >= original.length()) {
    return util::Status::InvalidArgument(
        "recovery has no masked positions (kept covers the trajectory)");
  }
  int previous = -1;
  for (int index : kept) {
    if (index < 0 || index >= original.length()) {
      return util::Status::InvalidArgument(
          "kept index " + std::to_string(index) + " outside [0, " +
          std::to_string(original.length()) + ")");
    }
    if (index <= previous) {
      return util::Status::InvalidArgument(
          "kept indices must be strictly increasing");
    }
    previous = index;
  }
  return RecoverLogits(original, kept);
}

util::Result<Tensor> BigCityModel::TryPredictTraffic(int segment,
                                                     int start_slice,
                                                     int horizon) {
  return Only(TryBatchPredictTraffic({{segment, start_slice, horizon}}));
}

util::Result<Tensor> BigCityModel::TryImputeTraffic(
    int segment, int start_slice, int window,
    const std::vector<int>& masked) {
  if (auto s = data::ValidateTrafficWindow(dataset_->traffic(), segment,
                                           start_slice, window);
      !s.ok()) {
    return s;
  }
  if (masked.empty()) {
    return util::Status::InvalidArgument("imputation mask is empty");
  }
  for (int index : masked) {
    if (index < 0 || index >= window) {
      return util::Status::InvalidArgument(
          "imputation mask index " + std::to_string(index) +
          " outside [0, " + std::to_string(window) + ")");
    }
  }
  return ImputeTraffic(segment, start_slice, window, masked);
}

// --- Traffic-state tasks -----------------------------------------------------

Tensor BigCityModel::PredictTraffic(int segment, int start_slice,
                                    int horizon) {
  return BatchPredictTraffic({{segment, start_slice, horizon}})[0];
}

Tensor BigCityModel::ImputeTraffic(int segment, int start_slice, int window,
                                   const std::vector<int>& masked) {
  BIGCITY_CHECK(!masked.empty());
  StUnitSequence seq = StUnitSequence::FromTrafficSeries(
      dataset_->traffic(), segment, start_slice, window);
  PromptInput prompt = MakePrompt(
      Task::kTrafficImputation,
      StTokensFor(seq, std::vector<bool>(seq.segments.size(), false)));
  prompt.mask_positions = masked;
  prompt.task_tokens.assign(masked.size(), TaskTokenKind::kReg);
  BackboneOutput out = backbone_->Forward(prompt);
  return heads_->StateRegression(out.task_outputs);
}

// --- Batched inference -------------------------------------------------------

std::vector<Tensor> BigCityModel::BatchNextHopLogits(
    const std::vector<data::Trajectory>& prefixes,
    const std::vector<nn::KvCache*>* caches) {
  BIGCITY_CHECK(!prefixes.empty());
  if (caches != nullptr) BIGCITY_CHECK_EQ(caches->size(), prefixes.size());
  std::vector<PromptInput> prompts;
  prompts.reserve(prefixes.size());
  for (size_t i = 0; i < prefixes.size(); ++i) {
    const data::Trajectory& prefix = prefixes[i];
    BIGCITY_CHECK_GE(prefix.length(), 1);
    StUnitSequence seq = StUnitSequence::FromTrajectory(prefix);
    PromptInput prompt = MakePrompt(
        Task::kNextHop,
        StTokensFor(seq, std::vector<bool>(seq.segments.size(), false)));
    prompt.task_tokens = {TaskTokenKind::kClas};
    // A member arriving with the cached attention state of a served
    // prefix of this trajectory decodes only its suffix. Every cached row
    // except the last — the previous call's [CLAS] placeholder, which sat
    // where a new ST token now goes — holds exactly this prompt's content
    // at the same position. The reusable region is additionally capped at
    // the text instruction plus all but the last ST token (a same-length
    // re-serve still re-decodes its final token and placeholder).
    if (caches != nullptr && (*caches)[i] != nullptr &&
        (*caches)[i]->length() > 0) {
      const int64_t text_len = static_cast<int64_t>(prompt.text_ids.size());
      const int64_t shared_max =
          std::min<int64_t>((*caches)[i]->length() - 1,
                            text_len + static_cast<int64_t>(seq.length()) - 1);
      (*caches)[i]->Truncate(shared_max);
    }
    prompts.push_back(std::move(prompt));
  }
  return SplitHead(
      backbone_->ForwardBatched(
          prompts, caches != nullptr ? *caches : std::vector<nn::KvCache*>()),
      std::vector<int64_t>(prefixes.size(), 1),
      [&](const Tensor& z) { return heads_->SegmentLogits(z); });
}

std::vector<Tensor> BigCityModel::BatchTravelTimeDeltas(
    const std::vector<data::Trajectory>& trajectories) {
  BIGCITY_CHECK(!trajectories.empty());
  std::vector<PromptInput> prompts;
  prompts.reserve(trajectories.size());
  std::vector<int64_t> counts;
  counts.reserve(trajectories.size());
  for (const data::Trajectory& trajectory : trajectories) {
    BIGCITY_CHECK_GE(trajectory.length(), 2);
    StUnitSequence seq = StUnitSequence::FromTrajectory(trajectory);
    // Hide every timestamp except the departure (Sec. VII-B protocol).
    std::vector<bool> hide(seq.segments.size(), true);
    hide[0] = false;
    PromptInput prompt =
        MakePrompt(Task::kTravelTimeEstimation, StTokensFor(seq, hide));
    prompt.task_tokens.assign(static_cast<size_t>(seq.length() - 1),
                              TaskTokenKind::kReg);
    counts.push_back(seq.length() - 1);
    prompts.push_back(std::move(prompt));
  }
  return SplitHead(backbone_->ForwardBatched(prompts), counts,
                   [&](const Tensor& z) { return heads_->TimeRegression(z); });
}

std::vector<Tensor> BigCityModel::BatchPredictTraffic(
    const std::vector<TrafficQuery>& queries) {
  BIGCITY_CHECK(!queries.empty());
  std::vector<PromptInput> prompts;
  prompts.reserve(queries.size());
  std::vector<int64_t> horizons;
  horizons.reserve(queries.size());
  for (const TrafficQuery& query : queries) {
    BIGCITY_CHECK_GT(query.horizon, 0);
    StUnitSequence seq = StUnitSequence::FromTrafficSeries(
        dataset_->traffic(), query.segment, query.start_slice,
        config_.traffic_input_steps);
    PromptInput prompt = MakePrompt(
        query.horizon == 1 ? Task::kTrafficOneStep : Task::kTrafficMultiStep,
        StTokensFor(seq, std::vector<bool>(seq.segments.size(), false)));
    prompt.task_tokens.assign(static_cast<size_t>(query.horizon),
                              TaskTokenKind::kReg);
    horizons.push_back(query.horizon);
    prompts.push_back(std::move(prompt));
  }
  return SplitHead(backbone_->ForwardBatched(prompts), horizons,
                   [&](const Tensor& z) { return heads_->StateRegression(z); });
}

util::Result<std::vector<Tensor>> BigCityModel::TryBatchNextHopLogits(
    const std::vector<data::Trajectory>& prefixes,
    const std::vector<nn::KvCache*>* caches) {
  if (prefixes.empty()) {
    return util::Status::InvalidArgument("empty next-hop batch");
  }
  std::vector<data::Trajectory> clipped;
  clipped.reserve(prefixes.size());
  for (size_t i = 0; i < prefixes.size(); ++i) {
    const data::Trajectory& prefix = prefixes[i];
    if (auto s = ScreenTrajectory(prefix, dataset_->network().num_segments(),
                                  1, "next-hop");
        !s.ok()) {
      return s;
    }
    clipped.push_back(ClipTrajectory(prefix));
    if (caches != nullptr && (*caches)[i] != nullptr &&
        clipped.back().length() != prefix.length()) {
      // Clipping resamples interior points, so cached positions no longer
      // correspond to this member's tokens.
      (*caches)[i]->Clear();
    }
  }
  return BatchNextHopLogits(clipped, caches);
}

util::Result<std::vector<Tensor>> BigCityModel::TryBatchTravelTimeDeltas(
    const std::vector<data::Trajectory>& trajectories) {
  if (trajectories.empty()) {
    return util::Status::InvalidArgument("empty TTE batch");
  }
  std::vector<data::Trajectory> clipped;
  clipped.reserve(trajectories.size());
  for (const data::Trajectory& trajectory : trajectories) {
    if (auto s = ScreenTrajectory(trajectory,
                                  dataset_->network().num_segments(), 2,
                                  "TTE");
        !s.ok()) {
      return s;
    }
    clipped.push_back(ClipTrajectory(trajectory));
  }
  return BatchTravelTimeDeltas(clipped);
}

util::Result<std::vector<Tensor>> BigCityModel::TryBatchPredictTraffic(
    const std::vector<TrafficQuery>& queries) {
  if (queries.empty()) {
    return util::Status::InvalidArgument("empty traffic batch");
  }
  for (const TrafficQuery& query : queries) {
    if (query.horizon < 1 ||
        query.horizon > static_cast<int>(config_.max_sequence)) {
      return util::Status::InvalidArgument(
          "traffic horizon " + std::to_string(query.horizon) +
          " out of range");
    }
    if (auto s = data::ValidateTrafficWindow(dataset_->traffic(),
                                             query.segment, query.start_slice,
                                             config_.traffic_input_steps);
        !s.ok()) {
      return s;
    }
  }
  return BatchPredictTraffic(queries);
}

// --- Stage-1 masked reconstruction ---------------------------------------------

BigCityModel::Reconstruction BigCityModel::MaskedReconstruct(
    const StUnitSequence& sequence, const std::vector<int>& masked) {
  BIGCITY_CHECK(!masked.empty());
  Tensor tokens = StTokensFor(
      sequence, std::vector<bool>(sequence.segments.size(), false));
  // Prompt without instruction text (pre-training stage) but with
  // ([CLAS], [REG]) placeholder pairs per mask (Eq. 12).
  PromptInput prompt;
  prompt.st_tokens = tokens;
  prompt.mask_positions = masked;
  for (size_t k = 0; k < masked.size(); ++k) {
    prompt.task_tokens.push_back(TaskTokenKind::kClas);
    prompt.task_tokens.push_back(TaskTokenKind::kReg);
  }
  BackboneOutput out = backbone_->Forward(prompt);
  // De-interleave CLAS / REG outputs.
  std::vector<int> clas_rows, reg_rows;
  for (int k = 0; k < static_cast<int>(masked.size()); ++k) {
    clas_rows.push_back(2 * k);
    reg_rows.push_back(2 * k + 1);
  }
  Tensor z_clas = nn::Rows(out.task_outputs, clas_rows);
  Tensor z_reg = nn::Rows(out.task_outputs, reg_rows);
  Reconstruction result;
  result.segment_logits = heads_->SegmentLogits(z_clas);
  result.states = heads_->StateRegression(z_reg);
  result.times = heads_->TimeRegression(z_reg);
  return result;
}

}  // namespace bigcity::core
