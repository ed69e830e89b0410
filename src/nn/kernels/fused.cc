#include "nn/kernels/fused.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/kernels/kernels.h"
#include "obs/profiler.h"
#include "util/check.h"

namespace bigcity::nn {

namespace {

inline uint64_t U64(int64_t value) { return static_cast<uint64_t>(value); }

/// Stack scratch (in floats) for backward passes that recompute an input.
constexpr int64_t kChunk = 256;

inline float LeakyFwd(float x, float slope) { return x > 0.0f ? x : slope * x; }
inline float LeakyGrad(float x, float slope) { return x > 0.0f ? 1.0f : slope; }

/// Fills out[N,M] with bias rows ({M} broadcast), residual, their sum, or
/// zero — the epilogue values the GEMM then accumulates onto.
void FillEpilogue(float* out, int64_t n, int64_t m, const float* bias,
                  const float* residual) {
  const size_t row_bytes = static_cast<size_t>(m) * sizeof(float);
  if (residual != nullptr) {
    std::memcpy(out, residual, static_cast<size_t>(n) * row_bytes);
    if (bias != nullptr) {
      for (int64_t i = 0; i < n; ++i) {
        float* row = out + i * m;
        for (int64_t j = 0; j < m; ++j) row[j] += bias[j];
      }
    }
  } else if (bias != nullptr) {
    for (int64_t i = 0; i < n; ++i) std::memcpy(out + i * m, bias, row_bytes);
  } else {
    std::memset(out, 0, static_cast<size_t>(n) * row_bytes);
  }
}

/// Shared core of Affine / AffineResidual. residual may be invalid.
Tensor AffineImpl(const char* name, const Tensor& x, const Tensor& w,
                  const Tensor& bias, const Tensor& residual) {
  BIGCITY_CHECK_EQ(x.shape().size(), 2u);
  BIGCITY_CHECK_EQ(w.shape().size(), 2u);
  const int64_t n = x.shape()[0], k = x.shape()[1], m = w.shape()[1];
  BIGCITY_CHECK_EQ(k, w.shape()[0]) << "affine inner dims mismatch";
  BIGCITY_PROFILE_OP(name);
  BIGCITY_PROFILE_OP_COST(U64(2 * n * k * m + 2 * n * m),
                          U64(n * k + k * m + 2 * n * m) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * n * k * m + 2 * n * m),
                              U64(2 * (n * k + k * m + n * m)) * 4);
  const bool has_bias = bias.is_valid();
  const bool has_residual = residual.is_valid();
  if (has_bias) BIGCITY_CHECK_EQ(bias.numel(), m);
  if (has_residual) {
    BIGCITY_CHECK(residual.shape() == (std::vector<int64_t>{n, m}));
  }
  FloatVec out(static_cast<size_t>(n * m));
  const bool epilogue = has_bias || has_residual;
  if (epilogue) {
    FillEpilogue(out.data(), n, m,
                 has_bias ? bias.data().data() : nullptr,
                 has_residual ? residual.data().data() : nullptr);
  }
  // Write mode fully overwrites `out` when there is no epilogue to
  // accumulate onto — the kernel never reads the zero-initialized buffer.
  GemmABOperand(x.data().data(), w, out.data(), n, /*accumulate=*/epilogue);
  auto xi = x.impl();
  auto wi = w.impl();
  auto bi = has_bias ? bias.impl() : nullptr;
  auto ri = has_residual ? residual.impl() : nullptr;
  ParentVec parents{xi, wi};
  if (bi) parents.push_back(bi);
  if (ri) parents.push_back(ri);
  return MakeOpResult(
      {n, m}, std::move(out), std::move(parents),
      [xi, wi, bi, ri, n, k, m](TensorImpl& self) {
        const float* g = self.grad.data();
        if (xi->needs_grad) {
          xi->EnsureGrad();
          // dX = G · W^T.
          kernels::GemmABt(g, wi->data.data(), xi->grad.data(), n, m, k,
                           /*accumulate=*/true);
        }
        if (wi->needs_grad) {
          wi->EnsureGrad();
          // dW = X^T · G.
          kernels::GemmAtB(xi->data.data(), g, wi->grad.data(), n, k, m,
                           /*accumulate=*/true);
        }
        if (bi && bi->needs_grad) {
          bi->EnsureGrad();
          for (int64_t i = 0; i < n; ++i) {
            const float* g_row = g + i * m;
            for (int64_t j = 0; j < m; ++j) bi->grad[j] += g_row[j];
          }
        }
        if (ri && ri->needs_grad) {
          ri->EnsureGrad();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            ri->grad[i] += self.grad[i];
          }
        }
      });
}

enum class AddBroadcast { kSame, kRowwise };

AddBroadcast ResolveAddBroadcast(const Tensor& x, const Tensor& b) {
  if (x.shape() == b.shape()) return AddBroadcast::kSame;
  BIGCITY_CHECK(x.shape().size() == 2 && b.shape().size() == 1 &&
                x.shape()[1] == b.shape()[0])
      << "fused bias op: b must match x or be a {cols} row vector";
  return AddBroadcast::kRowwise;
}

/// Shared core of BiasGelu / BiasLeakyRelu: y = act(x + b). `slope` < 0
/// selects GELU, otherwise LeakyReLU with that slope.
Tensor BiasActImpl(const char* name, const Tensor& x, const Tensor& b,
                   float slope) {
  BIGCITY_PROFILE_OP(name);
  BIGCITY_PROFILE_OP_COST(U64(8 * x.numel()), U64(3 * x.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(10 * x.numel()), U64(4 * x.numel()) * 4);
  // A same-shape bias is one long row, so b's index is always the column.
  const bool same = ResolveAddBroadcast(x, b) == AddBroadcast::kSame;
  const int64_t rows = same ? 1 : x.shape()[0];
  const int64_t cols = same ? x.numel() : x.shape()[1];
  const float* xd = x.data().data();
  const float* bd = b.data().data();
  FloatVec out(x.data().size());
  for (int64_t r = 0; r < rows; ++r) {
    const float* x_row = xd + r * cols;
    float* out_row = out.data() + r * cols;
    for (int64_t j = 0; j < cols; ++j) out_row[j] = x_row[j] + bd[j];
  }
  const bool gelu = slope < 0.0f;
  if (gelu) {
    kernels::GeluForward(out.data(), out.data(), x.numel());
  } else {
    for (float& v : out) v = LeakyFwd(v, slope);
  }
  auto xi = x.impl();
  auto bi = b.impl();
  return MakeOpResult(
      x.shape(), std::move(out), {xi, bi},
      [xi, bi, rows, cols, gelu, slope](TensorImpl& self) {
        if (!xi->needs_grad && !bi->needs_grad) return;
        if (xi->needs_grad) xi->EnsureGrad();
        if (bi->needs_grad) bi->EnsureGrad();
        // Recompute the pre-activation a chunk at a time instead of having
        // stored it.
        float u[kChunk];
        float d[kChunk];
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t j0 = 0; j0 < cols; j0 += kChunk) {
            const int64_t len = std::min(kChunk, cols - j0);
            const int64_t base = r * cols + j0;
            const float* g = self.grad.data() + base;
            for (int64_t j = 0; j < len; ++j) {
              u[j] = xi->data[base + j] + bi->data[j0 + j];
            }
            if (gelu) {
              kernels::GeluBackward(u, g, d, len);
            } else {
              for (int64_t j = 0; j < len; ++j) {
                d[j] = g[j] * LeakyGrad(u[j], slope);
              }
            }
            if (xi->needs_grad) {
              for (int64_t j = 0; j < len; ++j) xi->grad[base + j] += d[j];
            }
            if (bi->needs_grad) {
              for (int64_t j = 0; j < len; ++j) bi->grad[j0 + j] += d[j];
            }
          }
        }
      });
}

}  // namespace

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& bias) {
  return AffineImpl("Affine", x, w, bias, Tensor());
}

Tensor AffineResidual(const Tensor& x, const Tensor& w, const Tensor& bias,
                      const Tensor& residual) {
  BIGCITY_CHECK(residual.is_valid());
  return AffineImpl("AffineResidual", x, w, bias, residual);
}

Tensor BiasGelu(const Tensor& x, const Tensor& b) {
  return BiasActImpl("BiasGelu", x, b, /*slope=*/-1.0f);
}

Tensor BiasLeakyRelu(const Tensor& x, const Tensor& b, float slope) {
  BIGCITY_CHECK_GE(slope, 0.0f);
  return BiasActImpl("BiasLeakyRelu", x, b, slope);
}

Tensor ScaledMaskedSoftmax(const Tensor& scores, float scale, bool causal) {
  return ScaledMaskedSoftmax(scores, scale, causal, /*row_offset=*/0);
}

Tensor ScaledMaskedSoftmax(const Tensor& scores, float scale, bool causal,
                           int64_t row_offset) {
  BIGCITY_CHECK_EQ(scores.shape().size(), 2u);
  BIGCITY_CHECK_GE(row_offset, 0);
  const int64_t n = scores.shape()[0], d = scores.shape()[1];
  if (causal) {
    BIGCITY_CHECK_EQ(row_offset + n, d)
        << "causal softmax: queries must be the trailing rows of the keys";
  }
  BIGCITY_PROFILE_OP("ScaledMaskedSoftmax");
  BIGCITY_PROFILE_OP_COST(U64(6 * n * d), U64(2 * n * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(5 * n * d), U64(3 * n * d) * 4);
  const auto& sd = scores.data();
  FloatVec out(sd.size());
  for (int64_t i = 0; i < n; ++i) {
    const float* row = sd.data() + i * d;
    float* out_row = out.data() + i * d;
    const int64_t limit = causal ? row_offset + i + 1 : d;
    float mx = scale * row[0];
    for (int64_t j = 1; j < limit; ++j) mx = std::max(mx, scale * row[j]);
    for (int64_t j = 0; j < limit; ++j) out_row[j] = scale * row[j] - mx;
    kernels::Exp(out_row, out_row, limit);
    float sum = 0.0f;
    for (int64_t j = 0; j < limit; ++j) sum += out_row[j];
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < limit; ++j) out_row[j] *= inv;
    for (int64_t j = limit; j < d; ++j) out_row[j] = 0.0f;
  }
  auto si = scores.impl();
  return MakeOpResult(
      scores.shape(), std::move(out), {si},
      [si, n, d, scale, causal, row_offset](TensorImpl& self) {
        if (!si->needs_grad) return;
        si->EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          const float* yr = self.data.data() + i * d;
          const float* gr = self.grad.data() + i * d;
          const int64_t limit = causal ? row_offset + i + 1 : d;
          float dot = 0.0f;
          for (int64_t j = 0; j < limit; ++j) dot += yr[j] * gr[j];
          float* sr = si->grad.data() + i * d;
          for (int64_t j = 0; j < limit; ++j) {
            sr[j] += scale * yr[j] * (gr[j] - dot);
          }
        }
      });
}

void GemmABOperand(const float* a, const Tensor& b, float* out, int64_t n,
                   bool accumulate) {
  const int64_t k = b.shape()[0], m = b.shape()[1];
  const float* bd = b.data().data();
  TensorImpl& impl = *b.impl();
  if (impl.packed != nullptr && (!impl.requires_grad || !GradEnabled()) &&
      b.numel() > 0 && kernels::GemmABReadsPanels(n)) {
    PackedWeight& cache = *impl.packed;
    std::shared_ptr<const kernels::PackedB> panels;
    {
      std::lock_guard<std::mutex> lock(cache.mu);
      const uint64_t version = cache.version.load(std::memory_order_relaxed);
      if (cache.panels == nullptr || cache.packed_version != version) {
        cache.panels = kernels::SharedPackB(bd, k, m);
        cache.packed_version = version;
      }
      panels = cache.panels;
    }
    kernels::GemmAB(a, bd, *panels, out, n, accumulate);
    return;
  }
  kernels::GemmAB(a, bd, out, n, k, m, accumulate);
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  BIGCITY_CHECK_EQ(b.shape().size(), 2u);
  const int64_t n = a.shape()[0], k = a.shape()[1], m = b.shape()[0];
  BIGCITY_CHECK_EQ(k, b.shape()[1]) << "matmul-NT inner dims mismatch";
  BIGCITY_PROFILE_OP("MatMulNT");
  BIGCITY_PROFILE_OP_COST(U64(2 * n * k * m),
                          U64(n * k + k * m + n * m) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * n * k * m),
                              U64(2 * (n * k + k * m + n * m)) * 4);
  FloatVec out(static_cast<size_t>(n * m));
  kernels::GemmABt(a.data().data(), b.data().data(), out.data(), n, k, m,
                   /*accumulate=*/false);
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult(
      {n, m}, std::move(out), {ai, bi},
      [ai, bi, n, k, m](TensorImpl& self) {
        const float* g = self.grad.data();
        if (ai->needs_grad) {
          ai->EnsureGrad();
          // dA = G · B.
          kernels::GemmAB(g, bi->data.data(), ai->grad.data(), n, m, k,
                          /*accumulate=*/true);
        }
        if (bi->needs_grad) {
          bi->EnsureGrad();
          // dB = G^T · A.
          kernels::GemmAtB(g, ai->data.data(), bi->grad.data(), n, m, k,
                          /*accumulate=*/true);
        }
      });
}

}  // namespace bigcity::nn
