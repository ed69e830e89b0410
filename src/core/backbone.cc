#include "core/backbone.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/task.h"
#include "nn/kernels/fused.h"
#include "nn/ops.h"
#include "obs/obs.h"
#include "util/check.h"

namespace bigcity::core {

using nn::Tensor;

/// Per-layer keys/values of one instruction's rows, with what they were
/// computed from. Immutable once filled; caches seeded from it share its
/// storage by handle and copy it on their first append.
struct Backbone::InstructionKv {
  std::vector<int> text_ids;
  std::vector<nn::AttentionKv> layers;
  /// Module::RegistrationCount() and every backbone parameter's write
  /// count at fill time. The entry is valid while all of them still hold.
  uint64_t registrations = 0;
  std::vector<std::pair<const nn::PackedWeight*, uint64_t>> versions;

  InstructionKv() { BIGCITY_GAUGE_ADD("core.instruction_kv.live", 1); }
  ~InstructionKv() { BIGCITY_GAUGE_ADD("core.instruction_kv.live", -1); }
  InstructionKv(const InstructionKv&) = delete;
  InstructionKv& operator=(const InstructionKv&) = delete;

  bool Fresh() const {
    if (registrations != nn::Module::RegistrationCount()) return false;
    for (const auto& [weight, version] : versions) {
      if (weight->version.load(std::memory_order_relaxed) != version) {
        return false;
      }
    }
    return true;
  }
};

Backbone::Backbone(int text_vocab_size, const BigCityConfig& config,
                   util::Rng* rng)
    : config_(config) {
  text_embedding_ = std::make_unique<nn::EmbeddingTable>(
      text_vocab_size, config.d_model, rng);
  RegisterModule("text_embedding", text_embedding_.get());
  positional_ = RegisterParameter(
      "positional", Tensor::Randn({config.max_sequence, config.d_model}, rng,
                                  0.02f, /*requires_grad=*/true));
  transformer_ = std::make_unique<nn::Transformer>(
      config.d_model, config.num_heads, config.num_layers, rng,
      /*causal=*/true);
  RegisterModule("transformer", transformer_.get());
  clas_token_ = RegisterParameter(
      "clas_token", Tensor::Randn({1, config.d_model}, rng, 0.02f, true));
  reg_token_ = RegisterParameter(
      "reg_token", Tensor::Randn({1, config.d_model}, rng, 0.02f, true));
  mask_token_ = RegisterParameter(
      "mask_token", Tensor::Randn({1, config.d_model}, rng, 0.02f, true));
}

Tensor Backbone::AssembleInput(const PromptInput& prompt, int64_t* text_len,
                               int64_t* st_len) const {
  std::vector<Tensor> parts;
  *text_len = 0;
  if (!prompt.text_ids.empty()) {
    parts.push_back(text_embedding_->Forward(prompt.text_ids));
    *text_len = static_cast<int64_t>(prompt.text_ids.size());
  }

  BIGCITY_CHECK(prompt.st_tokens.is_valid());
  *st_len = prompt.st_tokens.shape()[0];
  if (prompt.mask_positions.empty()) {
    parts.push_back(prompt.st_tokens);
  } else {
    std::vector<bool> is_masked(static_cast<size_t>(*st_len), false);
    for (int m : prompt.mask_positions) {
      BIGCITY_CHECK(m >= 0 && m < *st_len);
      is_masked[static_cast<size_t>(m)] = true;
    }
    // Replace masked rows with the learnable [MASK] vector, keeping runs of
    // unmasked rows as single slices.
    int64_t run_start = 0;
    for (int64_t l = 0; l <= *st_len; ++l) {
      const bool boundary = l == *st_len || is_masked[static_cast<size_t>(l)];
      if (boundary) {
        if (run_start < l) {
          parts.push_back(nn::SliceRows(prompt.st_tokens, run_start, l));
        }
        if (l < *st_len) parts.push_back(mask_token_);
        run_start = l + 1;
      }
    }
  }

  for (TaskTokenKind kind : prompt.task_tokens) {
    parts.push_back(kind == TaskTokenKind::kClas ? clas_token_ : reg_token_);
  }

  Tensor input = nn::Concat(parts, /*axis=*/0);
  BIGCITY_CHECK_LE(input.shape()[0], config_.max_sequence)
      << "prompt longer than positional table";
  return input;
}

BackboneOutput Backbone::Forward(const PromptInput& prompt) const {
  return ForwardBatched({prompt})[0];
}

std::vector<BackboneOutput> Backbone::ForwardBatched(
    const std::vector<PromptInput>& prompts,
    const std::vector<nn::KvCache*>& caches) const {
  BIGCITY_CHECK(!prompts.empty());
  if (!caches.empty()) BIGCITY_CHECK_EQ(caches.size(), prompts.size());
  // Members without a prefix start from their instruction's K/V; a member
  // the caller gave no cache gets a local one.
  std::vector<nn::KvCache> local(prompts.size());
  std::vector<nn::KvCache*> seeded(prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    seeded[i] = SeedInstructionKv(
        prompts[i], caches.empty() ? nullptr : caches[i], &local[i]);
  }
  struct Layout {
    int64_t text_len, st_len, num_task, total, cached;
  };
  std::vector<Layout> layouts;
  layouts.reserve(prompts.size());
  std::vector<Tensor> inputs;
  inputs.reserve(prompts.size());
  std::vector<int64_t> lens;
  lens.reserve(prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    const PromptInput& prompt = prompts[i];
    Layout layout{};
    Tensor input = AssembleInput(prompt, &layout.text_len, &layout.st_len);
    layout.num_task = static_cast<int64_t>(prompt.task_tokens.size());
    layout.total = input.shape()[0];
    // A sequence with a non-empty cache contributes only its uncached
    // suffix rows (a decode); everything else rides whole. Positions are
    // added per sequence before slicing (elementwise, so
    // batching-neutral); the concatenated rows then share every row-wise
    // layer downstream.
    layout.cached = seeded[i] != nullptr ? seeded[i]->length() : 0;
    BIGCITY_CHECK_LT(layout.cached, layout.total)
        << "KV cache already covers the whole prompt; truncate it first";
    BIGCITY_CHECK_LE(layout.num_task, layout.total - layout.cached)
        << "task placeholders must lie in the uncached suffix";
    Tensor x =
        nn::Add(input, nn::SliceRows(positional_, 0, layout.total));
    inputs.push_back(layout.cached > 0
                         ? nn::SliceRows(x, layout.cached, layout.total)
                         : x);
    lens.push_back(layout.total - layout.cached);
    layouts.push_back(layout);
  }
  Tensor tall = inputs.size() == 1 ? inputs[0] : nn::Concat(inputs, 0);
  Tensor hidden = transformer_->ForwardBatched(tall, lens, seeded);

  std::vector<BackboneOutput> outputs;
  outputs.reserve(prompts.size());
  int64_t off = 0;
  for (const Layout& layout : layouts) {
    const int64_t suffix_len = layout.total - layout.cached;
    BackboneOutput output;
    if (layout.cached <= layout.text_len) {
      const int64_t st_begin = off + layout.text_len - layout.cached;
      output.st_outputs =
          nn::SliceRows(hidden, st_begin, st_begin + layout.st_len);
    }
    if (layout.num_task > 0) {
      output.task_outputs = nn::SliceRows(
          hidden, off + suffix_len - layout.num_task, off + suffix_len);
    }
    outputs.push_back(std::move(output));
    off += suffix_len;
  }
  return outputs;
}

BackboneOutput Backbone::ForwardCached(const PromptInput& prompt,
                                       nn::KvCache* cache) const {
  return ForwardBatched({prompt}, {cache})[0];
}

nn::KvCache* Backbone::SeedInstructionKv(const PromptInput& prompt,
                                         nn::KvCache* cache,
                                         nn::KvCache* local) const {
  if (nn::GradEnabled() || prompt.text_ids.empty() ||
      (cache != nullptr && cache->length() > 0)) {
    return cache;
  }
  std::shared_ptr<const InstructionKv> entry;
  {
    std::lock_guard<std::mutex> lock(instruction_kv_mu_);
    auto it = std::find_if(
        instruction_kv_.begin(), instruction_kv_.end(),
        [&](const auto& e) { return e->text_ids == prompt.text_ids; });
    if (it != instruction_kv_.end() && (*it)->Fresh()) {
      BIGCITY_COUNTER_INC("core.instruction_kv.hit");
      entry = *it;
    } else {
      // Filled under the lock, so concurrent first forwards fill once.
      BIGCITY_COUNTER_INC("core.instruction_kv.fill");
      entry = FillInstructionKv(prompt.text_ids);
      if (it != instruction_kv_.end()) {
        *it = entry;
      } else {
        if (instruction_kv_.size() >= static_cast<size_t>(kNumTasks)) {
          instruction_kv_.erase(instruction_kv_.begin());
        }
        instruction_kv_.push_back(entry);
      }
    }
  }
  nn::KvCache* seeded = cache != nullptr ? cache : local;
  seeded->layers = entry->layers;
  return seeded;
}

std::shared_ptr<const Backbone::InstructionKv> Backbone::FillInstructionKv(
    const std::vector<int>& text_ids) const {
  // Graph-free, and its K/V rows live on the heap (nn::AttentionKv), so
  // the entry outlives the request or plan step that fills it.
  nn::NoGradGuard no_grad;
  auto entry = std::make_shared<InstructionKv>();
  entry->text_ids = text_ids;
  entry->registrations = nn::Module::RegistrationCount();
  for (const Tensor& p : Parameters()) {
    const nn::PackedWeight* weight = p.impl()->packed.get();
    entry->versions.emplace_back(
        weight, weight->version.load(std::memory_order_relaxed));
  }
  // The instruction rows exactly as a whole-prompt forward embeds them:
  // rows [0, T) of AssembleInput plus positions [0, T).
  const auto len = static_cast<int64_t>(text_ids.size());
  nn::KvCache kv;
  transformer_->ForwardCached(
      nn::Add(text_embedding_->Forward(text_ids),
              nn::SliceRows(positional_, 0, len)),
      &kv);
  entry->layers = std::move(kv.layers);
  return entry;
}

Tensor Backbone::TextLmLogits(const std::vector<int>& text_ids) const {
  BIGCITY_CHECK(!text_ids.empty());
  BIGCITY_CHECK_LE(static_cast<int64_t>(text_ids.size()),
                   config_.max_sequence);
  Tensor embedded = text_embedding_->Forward(text_ids);
  Tensor positions =
      nn::SliceRows(positional_, 0, static_cast<int64_t>(text_ids.size()));
  Tensor hidden = transformer_->Forward(nn::Add(embedded, positions));
  // Weight-tied output projection; MatMulNT avoids materializing the
  // transposed [D, V] copy of the embedding table.
  return nn::MatMulNT(hidden, text_embedding_->table());
}

void Backbone::EnableLora(util::Rng* rng) {
  const auto blocks = static_cast<int64_t>(
      std::ceil(config_.lora_rate * static_cast<double>(config_.num_layers)));
  transformer_->EnableLora(config_.lora_rank, config_.lora_alpha,
                           std::min(blocks, config_.num_layers), rng);
}

void Backbone::FreezeBase() {
  transformer_->FreezeBase();
  for (auto& p : text_embedding_->Parameters()) p.set_requires_grad(false);
  positional_.set_requires_grad(false);
  // Placeholder vectors stay trainable: they are part of the prompt
  // mechanism, not the pre-trained base.
}

}  // namespace bigcity::core
