#include "nn/attention.h"

#include <cmath>

#include "nn/arena.h"
#include "nn/kernels/fused.h"
#include "nn/ops.h"
#include "util/check.h"
#include "obs/profiler.h"

namespace bigcity::nn {

void AttentionKv::Truncate(int64_t rows) {
  BIGCITY_CHECK_GE(rows, 0);
  if (rows == 0) {
    k = Tensor();
    v = Tensor();
    return;
  }
  if (!k.is_valid() || k.shape()[0] <= rows) return;
  k = SliceRows(k, 0, rows);
  v = SliceRows(v, 0, rows);
}

void AttentionKv::DetachToHeap() {
  ArenaPin pin;
  if (k.is_valid()) k = k.Detached();
  if (v.is_valid()) v = v.Detached();
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               util::Rng* rng, bool causal)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads),
      causal_(causal) {
  BIGCITY_CHECK_EQ(head_dim_ * num_heads_, dim_)
      << "dim must be divisible by num_heads";
  wq_ = std::make_unique<LoraLinear>(dim, dim, rng);
  wk_ = std::make_unique<LoraLinear>(dim, dim, rng);
  wv_ = std::make_unique<LoraLinear>(dim, dim, rng);
  wo_ = std::make_unique<LoraLinear>(dim, dim, rng);
  RegisterModule("wq", wq_.get());
  RegisterModule("wk", wk_.get());
  RegisterModule("wv", wv_.get());
  RegisterModule("wo", wo_.get());
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x) const {
  return ForwardBatched(x, Tensor(), {x.shape()[0]});
}

Tensor MultiHeadSelfAttention::ForwardBatched(
    const Tensor& x, const Tensor& residual,
    const std::vector<int64_t>& lens,
    const std::vector<AttentionKv*>& kv) const {
  BIGCITY_PROFILE_MODULE(module_path().c_str());
  BIGCITY_CHECK_EQ(x.shape().size(), 2u);
  BIGCITY_CHECK_EQ(x.shape()[1], dim_);
  if (!kv.empty()) BIGCITY_CHECK_EQ(kv.size(), lens.size());
  int64_t total = 0;
  for (int64_t len : lens) {
    BIGCITY_CHECK_GT(len, 0);
    total += len;
  }
  BIGCITY_CHECK_EQ(total, x.shape()[0]);
  // One tall projection GEMM per matrix; each output row only depends on
  // its own input row, so rows match a per-sequence forward bit for bit.
  Tensor q = wq_->Forward(x);
  Tensor k = wk_->Forward(x);
  Tensor v = wv_->Forward(x);

  // A single sequence spans all of q/k/v: it is attended in place, with no
  // row-slice copies and no one-element concat (each would add a copy and
  // a backward node to every training forward).
  const bool single = lens.size() == 1;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Tensor> seq_outputs;
  seq_outputs.reserve(lens.size());
  int64_t off = 0;
  for (size_t seq = 0; seq < lens.size(); ++seq) {
    const int64_t len = lens[seq];
    Tensor qs = single ? q : SliceRows(q, off, off + len);
    Tensor ks = single ? k : SliceRows(k, off, off + len);
    Tensor vs = single ? v : SliceRows(v, off, off + len);
    // A non-empty cache entry holds the projected prefix state of this
    // sequence: its rows in x are the suffix, attended with the causal
    // offset. An empty (or absent) entry means the rows are the whole
    // sequence, and the cache — if any — captures a prefill.
    AttentionKv* cache = kv.empty() ? nullptr : kv[seq];
    const int64_t offset = cache != nullptr ? cache->length() : 0;
    if (offset > 0) {
      BIGCITY_CHECK(causal_) << "KV-cached decode requires causal attention";
      ks = Concat({cache->k, ks}, /*axis=*/0);
      vs = Concat({cache->v, vs}, /*axis=*/0);
    }
    if (cache != nullptr) {
      cache->k = ks;
      cache->v = vs;
    }
    std::vector<Tensor> head_outputs;
    head_outputs.reserve(static_cast<size_t>(num_heads_));
    for (int64_t h = 0; h < num_heads_; ++h) {
      const int64_t lo = h * head_dim_, hi = (h + 1) * head_dim_;
      Tensor qh = SliceCols(qs, lo, hi);
      Tensor kh = SliceCols(ks, lo, hi);
      Tensor vh = SliceCols(vs, lo, hi);
      // q·k^T, scaling, the (offset-)causal mask and softmax in one fused
      // node — no transposed copy of K and no [L,L] mask tensor. Suffix
      // row i is global position offset + i, so the mask keeps exactly
      // the entries a full-sequence forward would.
      Tensor attn =
          ScaledMaskedSoftmax(MatMulNT(qh, kh), inv_sqrt, causal_, offset);
      head_outputs.push_back(MatMul(attn, vh));
    }
    seq_outputs.push_back(Concat(head_outputs, /*axis=*/1));
    off += len;
  }
  Tensor merged = single ? seq_outputs[0] : Concat(seq_outputs, /*axis=*/0);
  return residual.is_valid() ? wo_->ForwardResidual(merged, residual)
                             : wo_->Forward(merged);
}

LearnedQueryAttention::LearnedQueryAttention(int64_t num_queries, int64_t dim,
                                             util::Rng* rng)
    : dim_(dim) {
  query_ = RegisterParameter(
      "query", Tensor::Randn({num_queries, dim}, rng, 0.02f,
                             /*requires_grad=*/true));
}

Tensor LearnedQueryAttention::Forward(const Tensor& h) const {
  BIGCITY_PROFILE_MODULE(module_path().c_str());
  BIGCITY_CHECK_EQ(h.shape().size(), 2u);
  BIGCITY_CHECK_EQ(h.shape()[0], query_.shape()[0]);
  BIGCITY_CHECK_EQ(h.shape()[1], dim_);
  // alpha_ij = (q_i . h_j) / sqrt(2 * D_h) per Eq. 6; rows softmax (Eq. 7).
  const float inv = 1.0f / std::sqrt(2.0f * static_cast<float>(dim_));
  Tensor attn = ScaledMaskedSoftmax(MatMulNT(query_, h), inv,
                                    /*causal=*/false);
  return MatMul(attn, h);
}

}  // namespace bigcity::nn
