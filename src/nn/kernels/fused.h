#ifndef BIGCITY_NN_KERNELS_FUSED_H_
#define BIGCITY_NN_KERNELS_FUSED_H_

#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace bigcity::nn {

/// Cached projected keys/values of one attention layer (all heads packed in
/// columns), covering the first `length()` positions of a causal sequence.
/// Used for incremental decoding: a forward over just the suffix rows reuses
/// the cached prefix state and is bit-identical to a fresh full forward.
///
/// The rows live in heap storage whatever arena is active, so a cache
/// outlives the plan step that extends it. Copies share the storage by
/// handle and mark it shared; the next Append copies the live rows out of
/// shared storage, so an append never writes rows another handle reads.
/// Owned storage that is full grows with headroom.
class AttentionKv {
 public:
  AttentionKv() = default;
  AttentionKv(const AttentionKv& other);
  AttentionKv& operator=(const AttentionKv& other);
  AttentionKv(AttentionKv&& other) noexcept;
  AttentionKv& operator=(AttentionKv&& other) noexcept;

  int64_t length() const { return rows_; }
  /// Drops cached positions >= rows (no-op when already shorter). O(1): the
  /// storage keeps the rows until an append overwrites them.
  void Truncate(int64_t rows);
  /// Appends `rows` rows of `dim` floats to the keys and the values.
  void Append(const float* keys, const float* values, int64_t rows,
              int64_t dim);
  /// Row-major [length(), dim] keys and values (null while empty).
  const float* keys() const;
  const float* values() const;

 private:
  struct Storage;
  std::shared_ptr<Storage> storage_;
  int64_t rows_ = 0;
};

// Fused autograd ops over the kernel layer. Each call builds ONE graph node
// where the unfused formulation builds two or three, materializes no
// intermediate tensors, and runs both its forward and backward as single
// passes. Shapes follow ops.h conventions (row-major 2-D [rows, cols]).

/// y = x·W + b in one node: the bias row is broadcast into the output and
/// the GEMM accumulates on top of it. `bias` {M} may be an invalid handle
/// (no bias), making this a write-mode matmul.
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& bias);

/// y = x·W + b + residual in one node (the transformer's bias+residual
/// chain). residual must match the output shape [N,M]; bias {M} may be
/// invalid.
Tensor AffineResidual(const Tensor& x, const Tensor& w, const Tensor& bias,
                      const Tensor& residual);

/// y = GELU(x + b), b either {M} (row-wise broadcast) or x-shaped. The
/// pre-activation is never materialized; backward recomputes it from the
/// inputs instead of storing it.
Tensor BiasGelu(const Tensor& x, const Tensor& b);

/// y = LeakyReLU(x + b, slope), same broadcast rules as BiasGelu (the GAT
/// edge-score chain).
Tensor BiasLeakyRelu(const Tensor& x, const Tensor& b, float slope = 0.2f);

/// Row-wise softmax(scale * scores) with an optional causal mask, fused
/// into one node: no scaled copy, no mask tensor, no masked-scores copy.
/// With causal=true (requires square scores [L,L]) entries j > i get
/// probability exactly 0.
Tensor ScaledMaskedSoftmax(const Tensor& scores, float scale, bool causal);

/// Offset-causal variant: scores are [S, P+S] where row i is global
/// sequence position row_offset + i, so entries j > row_offset + i get
/// probability exactly 0. Requires row_offset + S == cols when causal;
/// row_offset 0 is the plain causal softmax. Learned-query attention calls
/// the non-causal form. MultiHeadAttention computes its rows with the same
/// helper, so attention_test's per-head reference calls the offset form to
/// check the op's cached decodes.
Tensor ScaledMaskedSoftmax(const Tensor& scores, float scale, bool causal,
                           int64_t row_offset);

/// Multi-head scaled dot-product attention over row-concatenated sequences
/// in one node. q, k, v are [sum(lens), D] with each head's columns side by
/// side (D = num_heads · head_dim); sequence s owns rows [off_s, off_s +
/// lens[s]). Each (sequence, head) computes softmax(q·kᵀ / √head_dim) with
/// the (offset-)causal mask of ScaledMaskedSoftmax, times v, reading q/k/v
/// in place through strided GEMMs and writing its columns of the [sum(lens),
/// D] result; nothing is sliced, copied per head or concatenated.
///
/// `kv` (empty, or one entry per sequence, entries may be null): a non-null
/// entry receives its sequence's k/v rows by AttentionKv::Append, and the
/// sequence attends over all of the entry's rows, so a non-empty entry
/// makes its rows a decode at causal offset length() (causal only).
///
/// Outputs, cache contents and q/k/v gradients are bit-identical to the
/// per-head graph (SliceCols, MatMulNT, ScaledMaskedSoftmax, MatMul,
/// Concat): the same products in the same order (DESIGN.md §4.8). The
/// backward reads k and v, never a cache, and CHECK-fails when a sequence
/// had a cached prefix: cached rows are not tensors, so a cached decode
/// may run with autograd on but cannot be backpropagated.
Tensor MultiHeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const std::vector<int64_t>& lens, int64_t num_heads,
                          bool causal,
                          const std::vector<AttentionKv*>& kv = {});

/// a[N,K] · b[M,K]^T -> [N,M] without materializing the transpose
/// (learned-query attention scores and tied-embedding logit projections).
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// out[n,M] (+)= a[n,K] · b[K,M] through kernels::GemmAB: the forward
/// product of MatMul, Affine and AffineResidual. When b is a registered
/// parameter this forward does not train (it is frozen, or grad is off)
/// and the product reads packed panels, b's cached packing is used. It is
/// (re)made, shared by content, when b was written since (DESIGN.md §4.8).
/// Same bits as the plain GemmAB either way.
void GemmABOperand(const float* a, const Tensor& b, float* out, int64_t n,
                   bool accumulate);

}  // namespace bigcity::nn

#endif  // BIGCITY_NN_KERNELS_FUSED_H_
