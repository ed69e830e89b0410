#include "nn/attention.h"

#include <cmath>

#include "nn/kernels/fused.h"
#include "nn/ops.h"
#include "util/check.h"
#include "obs/profiler.h"

namespace bigcity::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               util::Rng* rng, bool causal)
    : dim_(dim), num_heads_(num_heads), causal_(causal) {
  BIGCITY_CHECK_EQ(dim % num_heads, 0) << "dim must be divisible by num_heads";
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
  // One tall projection GEMM per matrix; each output row only depends on
  // its own input row, so rows match a per-sequence forward bit for bit.
  Tensor q = wq_->Forward(x);
  Tensor k = wk_->Forward(x);
  Tensor v = wv_->Forward(x);
  Tensor attended =
      MultiHeadAttention(q, k, v, lens, num_heads_, causal_, kv);
  return residual.is_valid() ? wo_->ForwardResidual(attended, residual)
                             : wo_->Forward(attended);
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
