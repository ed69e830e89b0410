#ifndef BIGCITY_NN_TRANSFORMER_H_
#define BIGCITY_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/lora.h"
#include "nn/module.h"

namespace bigcity::nn {

/// Per-layer attention KV state of a causal Transformer, for incremental
/// decoding. `length()` is the number of already-processed sequence
/// positions; Truncate() rolls the cache back to a shared prefix (O(1))
/// before extending with different suffix tokens. Its rows live on the heap
/// (AttentionKv), so a cache outlives the plan step that extended it.
struct KvCache {
  std::vector<AttentionKv> layers;

  int64_t length() const { return layers.empty() ? 0 : layers[0].length(); }
  void Truncate(int64_t rows) {
    for (auto& layer : layers) layer.Truncate(rows);
  }
  void Clear() { layers.clear(); }
};

/// Pre-LayerNorm transformer block (GPT-2 style):
///   x = x + Attn(LN(x));  x = x + FFN(LN(x)),  FFN = GELU MLP (4x dim).
/// Attention projections and FFN matrices are LoraLinear so adapters can be
/// attached per the paper's LoRA placement.
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t dim, int64_t num_heads, util::Rng* rng,
                   bool causal);

  /// x [L, dim] -> [L, dim]: ForwardBatched over the one sequence x.
  Tensor Forward(const Tensor& x) const;
  /// Batched forward over row-concatenated independent sequences (see
  /// MultiHeadSelfAttention::ForwardBatched); LN/FFN run on the tall
  /// matrix, attention per sequence. Bit-identical per row to a forward
  /// over each sequence alone. Non-null `kv` entries receive (or extend)
  /// their sequence's attention state.
  Tensor ForwardBatched(const Tensor& x, const std::vector<int64_t>& lens,
                        const std::vector<AttentionKv*>& kv = {}) const;

  /// Attaches LoRA adapters (rank, alpha) to Wq/Wk/Wv and both FFN layers.
  void EnableLora(int64_t rank, float alpha, util::Rng* rng);
  /// Freezes all base (non-LoRA) weights in the block.
  void FreezeBase();
  bool lora_enabled() const;

  MultiHeadSelfAttention* attn() { return attn_.get(); }

 private:
  std::unique_ptr<LayerNormLayer> ln1_;
  std::unique_ptr<MultiHeadSelfAttention> attn_;
  std::unique_ptr<LayerNormLayer> ln2_;
  std::unique_ptr<LoraLinear> ffn_up_;
  std::unique_ptr<LoraLinear> ffn_down_;
};

/// Stack of transformer blocks with a final layer norm. This is the shared
/// sequence encoder for the BIGCity backbone (causal) and several baselines
/// (bidirectional).
class Transformer : public Module {
 public:
  Transformer(int64_t dim, int64_t num_heads, int64_t num_layers,
              util::Rng* rng, bool causal);

  /// x [L, dim] -> [L, dim]: ForwardBatched over the one sequence x.
  Tensor Forward(const Tensor& x) const;
  /// Row-concatenation of independent sequences [sum(lens), dim] ->
  /// [sum(lens), dim], every row bit-identical to a forward over its
  /// sequence alone. When `caches` is non-empty (one entry per sequence,
  /// entries may be null) each non-null KvCache is initialized on first
  /// use and filled with that sequence's per-layer attention state — a
  /// batched prefill — or, when it already holds a prefix, that
  /// sequence's rows are its suffix and are decoded against it.
  Tensor ForwardBatched(const Tensor& x, const std::vector<int64_t>& lens,
                        const std::vector<KvCache*>& caches = {}) const;
  /// Suffix rows [S, dim] of a sequence whose first cache->length()
  /// positions are cached -> suffix outputs [S, dim]: ForwardBatched over
  /// the one sequence with `cache`. Causal stacks only.
  Tensor ForwardCached(const Tensor& x, KvCache* cache) const;

  int64_t num_layers() const { return static_cast<int64_t>(blocks_.size()); }
  TransformerBlock* block(int64_t i) { return blocks_[i].get(); }

  /// Attaches LoRA to the first `num_blocks` blocks (the paper's rate n
  /// sweep attaches adapters to a fraction of blocks).
  void EnableLora(int64_t rank, float alpha, int64_t num_blocks,
                  util::Rng* rng);
  void FreezeBase();

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<LayerNormLayer> final_ln_;
};

}  // namespace bigcity::nn

#endif  // BIGCITY_NN_TRANSFORMER_H_
