#ifndef BIGCITY_NN_KERNELS_FUSED_H_
#define BIGCITY_NN_KERNELS_FUSED_H_

#include "nn/tensor.h"

namespace bigcity::nn {

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

/// Offset-causal variant for KV-cached incremental decoding: scores are
/// [S, P+S] where row i is global sequence position row_offset + i, so
/// entries j > row_offset + i get probability exactly 0. Requires
/// row_offset + S == cols when causal; row_offset 0 is the plain causal
/// softmax. Computes each kept entry with the exact same operation order as
/// the full-sequence path, so cached decoding is bit-identical to a fresh
/// forward.
Tensor ScaledMaskedSoftmax(const Tensor& scores, float scale, bool causal,
                           int64_t row_offset);

/// a[N,K] · b[M,K]^T -> [N,M] without materializing the transpose
/// (attention q·k^T and tied-embedding logit projections).
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
