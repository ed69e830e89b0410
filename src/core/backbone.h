#ifndef BIGCITY_CORE_BACKBONE_H_
#define BIGCITY_CORE_BACKBONE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/config.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/transformer.h"

namespace bigcity::core {

/// Kind of a task placeholder token (Sec. V-A).
enum class TaskTokenKind { kClas, kReg };

/// One task-oriented prompt (Eq. 9): textual instruction tokens, the ST
/// token sequence (with [MASK]-ed positions), and the task placeholder
/// tokens whose outputs the heads decode.
struct PromptInput {
  std::vector<int> text_ids;           // X^(txt); may be empty (w/o-Pro).
  nn::Tensor st_tokens;                // X^(st): [L, d_model].
  std::vector<int> mask_positions;     // ST positions replaced by [MASK].
  std::vector<TaskTokenKind> task_tokens;  // X^(tsk).
};

/// Backbone outputs: Z (one row per task token) plus the transformed ST
/// token region V_st (used for representation/similarity tasks).
struct BackboneOutput {
  nn::Tensor task_outputs;  // [K, d_model]; invalid when K == 0.
  nn::Tensor st_outputs;    // [L, d_model].
};

/// The LLM-style backbone (Sec. V-B): a causal pre-LN transformer over the
/// combined prompt sequence with learned positions and learnable [CLAS],
/// [REG], [MASK] token vectors. LoRA adapters attach to Wq/Wk/Wv and the
/// FFN of each block; after pre-training the base weights freeze and only
/// the adapters (plus placeholder vectors) train.
///
/// Instruction K/V (DESIGN.md §4.3): a prompt's leading instruction rows
/// see only themselves (causal attention, absolute positions), so their
/// per-layer keys and values depend on the weights alone. The backbone
/// computes them once per distinct instruction and weight version, and an
/// autograd-free forward whose cache is null or empty starts from them:
/// only the rows after the instruction run through the transformer, with
/// bit-identical outputs. Forwards with autograd on always run the whole
/// prompt. Safe for concurrent autograd-free forwards on one model.
class Backbone : public nn::Module {
 public:
  Backbone(int text_vocab_size, const BigCityConfig& config, util::Rng* rng);

  /// ForwardBatched over the one prompt.
  BackboneOutput Forward(const PromptInput& prompt) const;

  /// Batched forward over independent prompts: the assembled prompt
  /// sequences are row-concatenated, all row-wise layers (embeddings, LN,
  /// projections, FFN) run on the tall matrix, and attention runs per
  /// sequence — so outputs[i] is bit-identical to a forward over
  /// prompts[i] alone. When `caches` is non-empty (one entry per prompt,
  /// entries may be null) each non-null EMPTY KvCache receives that
  /// prompt's full attention state — a prefill for later extension
  /// decodes — while a non-null cache that already holds a prefix of the
  /// assembled sequence (the caller guarantees the prefix tokens are
  /// identical, truncating the cache first if needed) makes that prompt
  /// decode only its suffix rows against the cached state, batched
  /// alongside the others. st_outputs is populated for a sequence whose
  /// cache ended inside its instruction (an empty cache, or one seeded
  /// with the instruction K/V), and left invalid when the cache covered ST
  /// rows.
  std::vector<BackboneOutput> ForwardBatched(
      const std::vector<PromptInput>& prompts,
      const std::vector<nn::KvCache*>& caches = {}) const;

  /// KV-cached incremental forward: ForwardBatched over the one prompt
  /// with `cache`.
  BackboneOutput ForwardCached(const PromptInput& prompt,
                               nn::KvCache* cache) const;

  /// Next-word logits over the text vocabulary for language-model
  /// pre-training (weight-tied to the text embedding).
  nn::Tensor TextLmLogits(const std::vector<int>& text_ids) const;

  /// Attaches LoRA adapters to ceil(lora_rate * num_layers) blocks.
  void EnableLora(util::Rng* rng);
  /// Freezes base transformer + embeddings; LoRA and placeholders train.
  void FreezeBase();

  nn::Transformer* transformer() { return transformer_.get(); }
  int64_t d_model() const { return config_.d_model; }

 private:
  /// Assembles [text][st tokens with MASK substitution][task placeholders]
  /// into one [total, d_model] matrix (no positional add). Outputs the
  /// text/st region lengths for slicing the transformer output.
  nn::Tensor AssembleInput(const PromptInput& prompt, int64_t* text_len,
                           int64_t* st_len) const;

  struct InstructionKv;
  /// The cache a forward over `prompt` runs with. When autograd is off,
  /// the prompt has an instruction and `cache` is null or empty, the
  /// instruction's K/V seed `cache` (or `local` when `cache` is null),
  /// which is returned; otherwise `cache` itself.
  nn::KvCache* SeedInstructionKv(const PromptInput& prompt,
                                 nn::KvCache* cache,
                                 nn::KvCache* local) const;
  /// Computes the K/V of the instruction rows `text_ids`, recording the
  /// parameter write counts they depend on.
  std::shared_ptr<const InstructionKv> FillInstructionKv(
      const std::vector<int>& text_ids) const;

  BigCityConfig config_;
  std::unique_ptr<nn::EmbeddingTable> text_embedding_;
  nn::Tensor positional_;   // [max_sequence, d_model].
  std::unique_ptr<nn::Transformer> transformer_;
  nn::Tensor clas_token_;   // [1, d_model].
  nn::Tensor reg_token_;
  nn::Tensor mask_token_;

  /// At most one entry per distinct instruction; a stale entry is
  /// replaced by the next fill.
  mutable std::mutex instruction_kv_mu_;
  mutable std::vector<std::shared_ptr<const InstructionKv>> instruction_kv_;
};

}  // namespace bigcity::core

#endif  // BIGCITY_CORE_BACKBONE_H_
