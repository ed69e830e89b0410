#ifndef BIGCITY_NN_ATTENTION_H_
#define BIGCITY_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/kernels/fused.h"
#include "nn/lora.h"
#include "nn/module.h"

namespace bigcity::nn {

/// Multi-head (optionally causal) self-attention over a single sequence
/// x [L, D]. Q/K/V/output projections are LoraLinear so the BIGCity
/// backbone can attach adapters (Sec. V-B); plain models simply never call
/// EnableLora.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads, util::Rng* rng,
                         bool causal);

  /// x [L, D] -> [L, D]: ForwardBatched over the one sequence x.
  Tensor Forward(const Tensor& x) const;

  /// Batched forward over the row-concatenation of independent sequences:
  /// x [sum(lens), D] stacks the sequences back to back, and `residual`
  /// (when valid) is fused into the output projection (the transformer
  /// block's pre-norm skip connection). All projections run on the tall
  /// matrix (one GEMM instead of lens.size()); one MultiHeadAttention node
  /// attends each sequence on its row span, so every output row is
  /// bit-identical to a forward over that sequence alone. When `kv` is
  /// non-empty (one entry per sequence, entries may be null) each non-null
  /// EMPTY entry receives that sequence's projected keys/values (a
  /// prefill). A non-null entry that already holds state is a prefix: that
  /// sequence's rows in x are its suffix, attended with the causal offset
  /// (a decode), and their keys/values are appended to the entry. Either
  /// way later decodes stay bit-identical.
  Tensor ForwardBatched(const Tensor& x, const Tensor& residual,
                        const std::vector<int64_t>& lens,
                        const std::vector<AttentionKv*>& kv = {}) const;

  LoraLinear* wq() { return wq_.get(); }
  LoraLinear* wk() { return wk_.get(); }
  LoraLinear* wv() { return wv_.get(); }
  LoraLinear* wo() { return wo_.get(); }

  int64_t dim() const { return dim_; }
  int64_t num_heads() const { return num_heads_; }
  bool causal() const { return causal_; }

 private:
  int64_t dim_;
  int64_t num_heads_;
  bool causal_;
  std::unique_ptr<LoraLinear> wq_;
  std::unique_ptr<LoraLinear> wk_;
  std::unique_ptr<LoraLinear> wv_;
  std::unique_ptr<LoraLinear> wo_;
};

/// Cross-attention with learnable per-query-slot query matrix, used by the
/// ST tokenizer's fusion encoder (Eq. 6-7): queries are I learned vectors,
/// keys/values are the fused segment representations. Unlike GAT this
/// attends across ALL segments (long-range dependencies).
class LearnedQueryAttention : public Module {
 public:
  /// num_queries learned query slots of dimension dim.
  LearnedQueryAttention(int64_t num_queries, int64_t dim, util::Rng* rng);

  /// h [I, dim] (I == num_queries) -> fused representations [I, dim].
  Tensor Forward(const Tensor& h) const;

 private:
  int64_t dim_;
  Tensor query_;  // [num_queries, dim] learnable W_Q.
};

}  // namespace bigcity::nn

#endif  // BIGCITY_NN_ATTENTION_H_
