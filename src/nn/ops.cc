#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/kernels/fused.h"
#include "nn/kernels/kernels.h"
#include "obs/profiler.h"
#include "util/check.h"

namespace bigcity::nn {

namespace {

// Profiling convention (DESIGN.md §4.10): every *primitive* op — one that
// calls MakeOpResult directly — opens a BIGCITY_PROFILE_OP scope with FLOP
// and byte estimates for both directions. Composites built from primitives
// (Neg, Mean, Embedding, Mse, L1) deliberately do not, so per-op self
// times partition wall time without double counting.
inline uint64_t U64(int64_t value) { return static_cast<uint64_t>(value); }

/// Stack scratch (in floats) for backward passes that need a transformed
/// copy of a row.
constexpr int64_t kChunk = 256;

enum class BroadcastMode { kSame, kRowwise, kScalarRhs };

BroadcastMode ResolveBroadcast(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) return BroadcastMode::kSame;
  if (b.numel() == 1) return BroadcastMode::kScalarRhs;
  if (a.shape().size() == 2 && b.shape().size() == 1 &&
      a.shape()[1] == b.shape()[0]) {
    return BroadcastMode::kRowwise;
  }
  BIGCITY_CHECK(false) << "incompatible shapes for broadcast";
  return BroadcastMode::kSame;
}

/// Calls fn(i, j) for every flat index i of a, in ascending order, with j
/// the index of b's matching element. Row-wise broadcast walks rows x
/// columns, so no element pays for a modulo.
template <typename Fn>
inline void ForEachBroadcast(BroadcastMode mode, int64_t size, int64_t cols,
                             Fn&& fn) {
  switch (mode) {
    case BroadcastMode::kSame:
      for (int64_t i = 0; i < size; ++i) fn(i, i);
      return;
    case BroadcastMode::kRowwise:
      for (int64_t row = 0; row < size; row += cols) {
        for (int64_t j = 0; j < cols; ++j) fn(row + j, j);
      }
      return;
    case BroadcastMode::kScalarRhs:
      for (int64_t i = 0; i < size; ++i) fn(i, int64_t{0});
      return;
  }
}

/// The op and its two partial derivatives are template parameters (stateless
/// lambdas), so every loop inlines them and can vectorize.
template <typename Fwd, typename BwdA, typename BwdB>
Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b, Fwd fwd,
                BwdA bwd_a, BwdB bwd_b) {
  BIGCITY_PROFILE_OP(name);
  const BroadcastMode mode = ResolveBroadcast(a, b);
  const int64_t size = a.numel();
  const int64_t cols = a.shape().size() == 2 ? a.shape()[1] : size;
  BIGCITY_PROFILE_OP_COST(U64(size), U64(3 * size) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(2 * size), U64(4 * size) * 4);
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  FloatVec out(static_cast<size_t>(size));
  float* od = out.data();
  ForEachBroadcast(mode, size, cols,
                   [&](int64_t i, int64_t j) { od[i] = fwd(ad[i], bd[j]); });
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {ai, bi},
      [ai, bi, mode, size, cols, bwd_a, bwd_b](TensorImpl& self) {
        const float* g = self.grad.data();
        const float* x = ai->data.data();
        const float* y = bi->data.data();
        if (ai->needs_grad) {
          ai->EnsureGrad();
          float* gx = ai->grad.data();
          ForEachBroadcast(mode, size, cols, [&](int64_t i, int64_t j) {
            gx[i] += bwd_a(x[i], y[j], g[i]);
          });
        }
        if (bi->needs_grad) {
          bi->EnsureGrad();
          float* gy = bi->grad.data();
          ForEachBroadcast(mode, size, cols, [&](int64_t i, int64_t j) {
            gy[j] += bwd_b(x[i], y[j], g[i]);
          });
        }
      });
}

using UnaryFwd = float (*)(float);
/// Derivative expressed in terms of input x and output y.
using UnaryBwd = float (*)(float x, float y);

Tensor UnaryOp(const char* name, const Tensor& a, UnaryFwd fwd,
               UnaryBwd bwd) {
  BIGCITY_PROFILE_OP(name);
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(2 * a.numel()), U64(3 * a.numel()) * 4);
  const auto& ad = a.data();
  FloatVec out(ad.size());
  for (size_t i = 0; i < ad.size(); ++i) out[i] = fwd(ad[i]);
  auto ai = a.impl();
  // The derivative reads the output from the node itself (self.data):
  // op outputs are never written in place, so no copy is kept.
  return MakeOpResult(
      a.shape(), std::move(out), {ai}, [ai, bwd](TensorImpl& self) {
        if (!ai->needs_grad) return;
        ai->EnsureGrad();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          ai->grad[i] += self.grad[i] * bwd(ai->data[i], self.data[i]);
        }
      });
}

}  // namespace

// --- Elementwise / arithmetic ------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Add", a, b, [](float x, float y) { return x + y; },
      [](float, float, float g) { return g; },
      [](float, float, float g) { return g; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Sub", a, b, [](float x, float y) { return x - y; },
      [](float, float, float g) { return g; },
      [](float, float, float g) { return -g; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y, float g) { return g * y; },
      [](float x, float, float g) { return g * x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Div", a, b, [](float x, float y) { return x / y; },
      [](float, float y, float g) { return g / y; },
      [](float x, float y, float g) { return -g * x / (y * y); });
}

Tensor Neg(const Tensor& a) { return Scale(a, -1.0f); }

Tensor Scale(const Tensor& a, float factor) {
  BIGCITY_PROFILE_OP("Scale");
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  const auto& ad = a.data();
  FloatVec out(ad.size());
  for (size_t i = 0; i < ad.size(); ++i) out[i] = ad[i] * factor;
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {ai},
                      [ai, factor](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < self.grad.size(); ++i) {
                          ai->grad[i] += self.grad[i] * factor;
                        }
                      });
}

Tensor AddConst(const Tensor& a, float value) {
  BIGCITY_PROFILE_OP("AddConst");
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  const auto& ad = a.data();
  FloatVec out(ad.size());
  for (size_t i = 0; i < ad.size(); ++i) out[i] = ad[i] + value;
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {ai},
                      [ai](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < self.grad.size(); ++i) {
                          ai->grad[i] += self.grad[i];
                        }
                      });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      "Log", a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "Exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "Sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "Square", a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "Abs", a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

// --- Activations ----------------------------------------------------------------

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      "Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  BIGCITY_PROFILE_OP("LeakyRelu");
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(2 * a.numel()), U64(3 * a.numel()) * 4);
  const auto& ad = a.data();
  FloatVec out(ad.size());
  for (size_t i = 0; i < ad.size(); ++i) {
    out[i] = ad[i] > 0.0f ? ad[i] : negative_slope * ad[i];
  }
  auto ai = a.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {ai},
      [ai, negative_slope](TensorImpl& self) {
        if (!ai->needs_grad) return;
        ai->EnsureGrad();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          ai->grad[i] +=
              self.grad[i] * (ai->data[i] > 0.0f ? 1.0f : negative_slope);
        }
      });
}

Tensor Gelu(const Tensor& a) {
  BIGCITY_PROFILE_OP("Gelu");
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(2 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(2 * a.numel()), U64(3 * a.numel()) * 4);
  FloatVec out(a.data().size());
  kernels::GeluForward(a.data().data(), out.data(), a.numel());
  auto ai = a.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {ai}, [ai](TensorImpl& self) {
        if (!ai->needs_grad) return;
        ai->EnsureGrad();
        const int64_t size = static_cast<int64_t>(self.grad.size());
        float d[kChunk];
        for (int64_t i0 = 0; i0 < size; i0 += kChunk) {
          const int64_t len = std::min(kChunk, size - i0);
          kernels::GeluBackward(ai->data.data() + i0, self.grad.data() + i0,
                                d, len);
          for (int64_t i = 0; i < len; ++i) ai->grad[i0 + i] += d[i];
        }
      });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "Tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "Sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

// --- Linear algebra ----------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  BIGCITY_CHECK_EQ(b.shape().size(), 2u);
  const int64_t n = a.shape()[0], k = a.shape()[1], m = b.shape()[1];
  BIGCITY_CHECK_EQ(k, b.shape()[0]) << "matmul inner dims mismatch";
  BIGCITY_PROFILE_OP("MatMul");
  BIGCITY_PROFILE_OP_COST(U64(2 * n * k * m),
                          U64(n * k + k * m + n * m) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * n * k * m),
                              U64(2 * (n * k + k * m + n * m)) * 4);
  // Write-mode GEMM: the kernel fully overwrites `out`, so no zero-filled
  // accumulation pass over the buffer is ever read.
  FloatVec out(static_cast<size_t>(n * m));
  GemmABOperand(a.data().data(), b, out.data(), n, /*accumulate=*/false);
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult(
      {n, m}, std::move(out), {ai, bi}, [ai, bi, n, k, m](TensorImpl& self) {
        if (ai->needs_grad) {
          ai->EnsureGrad();
          // dA += G * B^T : [N,M] x [M,K]^T-of-[K,M].
          kernels::GemmABt(self.grad.data(), bi->data.data(),
                           ai->grad.data(), n, m, k, /*accumulate=*/true);
        }
        if (bi->needs_grad) {
          bi->EnsureGrad();
          // dB += A^T * G.
          kernels::GemmAtB(ai->data.data(), self.grad.data(),
                           bi->grad.data(), n, k, m, /*accumulate=*/true);
        }
      });
}

Tensor Transpose(const Tensor& a) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], m = a.shape()[1];
  BIGCITY_PROFILE_OP("Transpose");
  BIGCITY_PROFILE_OP_COST(0, U64(2 * n * m) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(0, U64(2 * n * m) * 4);
  // Write-through in destination order: reserve + push_back instead of
  // value-initializing a buffer that is then fully overwritten.
  FloatVec out;
  out.reserve(static_cast<size_t>(n * m));
  const auto& ad = a.data();
  for (int64_t j = 0; j < m; ++j) {
    for (int64_t i = 0; i < n; ++i) {
      out.push_back(ad[static_cast<size_t>(i * m + j)]);
    }
  }
  auto ai = a.impl();
  return MakeOpResult({m, n}, std::move(out), {ai},
                      [ai, n, m](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < n; ++i) {
                          for (int64_t j = 0; j < m; ++j) {
                            ai->grad[static_cast<size_t>(i * m + j)] +=
                                self.grad[static_cast<size_t>(j * n + i)];
                          }
                        }
                      });
}

// --- Reductions ------------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  BIGCITY_PROFILE_OP("Sum");
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(a.numel()), U64(a.numel()) * 4);
  float total = std::accumulate(a.data().begin(), a.data().end(), 0.0f);
  auto ai = a.impl();
  return MakeOpResult({1}, {total}, {ai}, [ai](TensorImpl& self) {
    if (!ai->needs_grad) return;
    ai->EnsureGrad();
    const float g = self.grad[0];
    for (auto& v : ai->grad) v += g;
  });
}

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor MeanRows(const Tensor& a) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_CHECK_GT(n, 0);
  BIGCITY_PROFILE_OP("MeanRows");
  BIGCITY_PROFILE_OP_COST(U64(n * d), U64(n * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(n * d), U64(n * d) * 4);
  FloatVec out(static_cast<size_t>(d), 0.0f);
  const auto& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      out[static_cast<size_t>(j)] += ad[static_cast<size_t>(i * d + j)];
    }
  }
  const float inv = 1.0f / static_cast<float>(n);
  for (auto& v : out) v *= inv;
  auto ai = a.impl();
  return MakeOpResult({1, d}, std::move(out), {ai},
                      [ai, n, d, inv](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < n; ++i) {
                          for (int64_t j = 0; j < d; ++j) {
                            ai->grad[static_cast<size_t>(i * d + j)] +=
                                self.grad[static_cast<size_t>(j)] * inv;
                          }
                        }
                      });
}

Tensor SumCols(const Tensor& a) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_PROFILE_OP("SumCols");
  BIGCITY_PROFILE_OP_COST(U64(n * d), U64(n * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(n * d), U64(n * d) * 4);
  FloatVec out(static_cast<size_t>(n), 0.0f);
  const auto& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      out[static_cast<size_t>(i)] += ad[static_cast<size_t>(i * d + j)];
    }
  }
  auto ai = a.impl();
  return MakeOpResult({n}, std::move(out), {ai},
                      [ai, n, d](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < n; ++i) {
                          for (int64_t j = 0; j < d; ++j) {
                            ai->grad[static_cast<size_t>(i * d + j)] +=
                                self.grad[static_cast<size_t>(i)];
                          }
                        }
                      });
}

// --- Softmax family -----------------------------------------------------------------

Tensor Softmax(const Tensor& a) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_PROFILE_OP("Softmax");
  BIGCITY_PROFILE_OP_COST(U64(5 * n * d), U64(2 * n * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * n * d), U64(3 * n * d) * 4);
  FloatVec out(a.data().size());
  const auto& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = ad.data() + i * d;
    float* out_row = out.data() + i * d;
    float mx = row[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, row[j]);
    for (int64_t j = 0; j < d; ++j) out_row[j] = row[j] - mx;
    kernels::Exp(out_row, out_row, d);
    float sum = 0.0f;
    for (int64_t j = 0; j < d; ++j) sum += out_row[j];
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < d; ++j) out_row[j] *= inv;
  }
  auto ai = a.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {ai}, [ai, n, d](TensorImpl& self) {
        if (!ai->needs_grad) return;
        ai->EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          const float* yr = self.data.data() + i * d;
          const float* gr = self.grad.data() + i * d;
          float dot = 0.0f;
          for (int64_t j = 0; j < d; ++j) dot += yr[j] * gr[j];
          float* ar = ai->grad.data() + i * d;
          for (int64_t j = 0; j < d; ++j) ar[j] += yr[j] * (gr[j] - dot);
        }
      });
}

Tensor LogSoftmax(const Tensor& a) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_PROFILE_OP("LogSoftmax");
  BIGCITY_PROFILE_OP_COST(U64(5 * n * d), U64(2 * n * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * n * d), U64(3 * n * d) * 4);
  FloatVec out(a.data().size());
  const auto& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = ad.data() + i * d;
    float* out_row = out.data() + i * d;
    float mx = row[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, row[j]);
    // The output row holds exp(row - mx) until it is overwritten below.
    for (int64_t j = 0; j < d; ++j) out_row[j] = row[j] - mx;
    kernels::Exp(out_row, out_row, d);
    float sum = 0.0f;
    for (int64_t j = 0; j < d; ++j) sum += out_row[j];
    const float lse = mx + std::log(sum);
    for (int64_t j = 0; j < d; ++j) out_row[j] = row[j] - lse;
  }
  auto ai = a.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {ai}, [ai, n, d](TensorImpl& self) {
        if (!ai->needs_grad) return;
        ai->EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          const float* yr = self.data.data() + i * d;
          const float* gr = self.grad.data() + i * d;
          float gsum = 0.0f;
          for (int64_t j = 0; j < d; ++j) gsum += gr[j];
          float* ar = ai->grad.data() + i * d;
          float e[kChunk];
          for (int64_t j0 = 0; j0 < d; j0 += kChunk) {
            const int64_t len = std::min(kChunk, d - j0);
            kernels::Exp(yr + j0, e, len);
            for (int64_t j = 0; j < len; ++j) {
              ar[j0 + j] += gr[j0 + j] - e[j] * gsum;
            }
          }
        }
      });
}

// --- Normalization --------------------------------------------------------------------

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  BIGCITY_CHECK_EQ(x.shape().size(), 2u);
  const int64_t n = x.shape()[0], d = x.shape()[1];
  BIGCITY_CHECK_EQ(gamma.numel(), d);
  BIGCITY_CHECK_EQ(beta.numel(), d);
  BIGCITY_PROFILE_OP("LayerNorm");
  BIGCITY_PROFILE_OP_COST(U64(8 * n * d), U64(4 * n * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(12 * n * d), U64(5 * n * d) * 4);
  const auto& xd = x.data();
  const auto& gd = gamma.data();
  const auto& bd = beta.data();
  FloatVec out(xd.size());
  FloatVec xhat(xd.size());
  FloatVec inv_std(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = xd.data() + i * d;
    float mean = 0.0f;
    for (int64_t j = 0; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      const float c = row[j] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    const float istd = 1.0f / std::sqrt(var + eps);
    inv_std[static_cast<size_t>(i)] = istd;
    for (int64_t j = 0; j < d; ++j) {
      const float xh = (row[j] - mean) * istd;
      xhat[static_cast<size_t>(i * d + j)] = xh;
      out[static_cast<size_t>(i * d + j)] = gd[j] * xh + bd[j];
    }
  }
  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  return MakeOpResult(
      x.shape(), std::move(out), {xi, gi, bi},
      [xi, gi, bi, n, d, xhat = std::move(xhat),
       inv_std = std::move(inv_std)](TensorImpl& self) {
        const auto& g = self.grad;
        if (gi->needs_grad) gi->EnsureGrad();
        if (bi->needs_grad) bi->EnsureGrad();
        if (xi->needs_grad) xi->EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          const float* gr = g.data() + i * d;
          const float* xh = xhat.data() + i * d;
          if (gi->needs_grad || bi->needs_grad) {
            for (int64_t j = 0; j < d; ++j) {
              if (gi->needs_grad) gi->grad[j] += gr[j] * xh[j];
              if (bi->needs_grad) bi->grad[j] += gr[j];
            }
          }
          if (xi->needs_grad) {
            // dx = istd * (dy*gamma - mean(dy*gamma) - xhat*mean(dy*gamma*xhat))
            float m1 = 0.0f, m2 = 0.0f;
            for (int64_t j = 0; j < d; ++j) {
              const float dg = gr[j] * gi->data[j];
              m1 += dg;
              m2 += dg * xh[j];
            }
            m1 /= static_cast<float>(d);
            m2 /= static_cast<float>(d);
            const float istd = inv_std[static_cast<size_t>(i)];
            float* xr = xi->grad.data() + i * d;
            for (int64_t j = 0; j < d; ++j) {
              const float dg = gr[j] * gi->data[j];
              xr[j] += istd * (dg - m1 - xh[j] * m2);
            }
          }
        }
      });
}

// --- Shape manipulation ------------------------------------------------------------------

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  BIGCITY_CHECK(!parts.empty());
  BIGCITY_CHECK(axis == 0 || axis == 1);
  BIGCITY_PROFILE_OP("Concat");
  ParentVec parents;
  parents.reserve(parts.size());
  for (const auto& p : parts) {
    BIGCITY_CHECK_EQ(p.shape().size(), 2u);
    parents.push_back(p.impl());
  }
  int64_t rows = 0, cols = 0;
  if (axis == 0) {
    cols = parts[0].shape()[1];
    for (const auto& p : parts) {
      BIGCITY_CHECK_EQ(p.shape()[1], cols);
      rows += p.shape()[0];
    }
  } else {
    rows = parts[0].shape()[0];
    for (const auto& p : parts) {
      BIGCITY_CHECK_EQ(p.shape()[0], rows);
      cols += p.shape()[1];
    }
  }
  FloatVec out(static_cast<size_t>(rows * cols));
  BIGCITY_PROFILE_OP_COST(0, U64(2 * rows * cols) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(0, U64(2 * rows * cols) * 4);
  if (axis == 0) {
    size_t offset = 0;
    for (const auto& p : parts) {
      std::copy(p.data().begin(), p.data().end(), out.begin() + offset);
      offset += p.data().size();
    }
  } else {
    int64_t col_offset = 0;
    for (const auto& p : parts) {
      const int64_t pc = p.shape()[1];
      for (int64_t i = 0; i < rows; ++i) {
        std::copy(p.data().begin() + i * pc, p.data().begin() + (i + 1) * pc,
                  out.begin() + i * cols + col_offset);
      }
      col_offset += pc;
    }
  }
  return MakeOpResult(
      {rows, cols}, std::move(out), parents,
      [parents, axis, rows, cols](TensorImpl& self) {
        if (axis == 0) {
          size_t offset = 0;
          for (const auto& p : parents) {
            if (p->needs_grad) {
              p->EnsureGrad();
              for (size_t i = 0; i < p->data.size(); ++i) {
                p->grad[i] += self.grad[offset + i];
              }
            }
            offset += p->data.size();
          }
        } else {
          int64_t col_offset = 0;
          for (const auto& p : parents) {
            const int64_t pc = p->shape[1];
            if (p->needs_grad) {
              p->EnsureGrad();
              for (int64_t i = 0; i < rows; ++i) {
                for (int64_t j = 0; j < pc; ++j) {
                  p->grad[static_cast<size_t>(i * pc + j)] +=
                      self.grad[static_cast<size_t>(i * cols + col_offset + j)];
                }
              }
            }
            col_offset += pc;
          }
        }
      });
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t end) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_CHECK(0 <= start && start <= end && end <= n);
  const int64_t m = end - start;
  BIGCITY_PROFILE_OP("SliceRows");
  BIGCITY_PROFILE_OP_COST(0, U64(2 * m * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(0, U64(2 * m * d) * 4);
  FloatVec out(a.data().begin() + start * d,
                         a.data().begin() + end * d);
  auto ai = a.impl();
  return MakeOpResult({m, d}, std::move(out), {ai},
                      [ai, start, d, m](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < m * d; ++i) {
                          ai->grad[static_cast<size_t>(start * d + i)] +=
                              self.grad[static_cast<size_t>(i)];
                        }
                      });
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t end) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_CHECK(0 <= start && start <= end && end <= d);
  const int64_t m = end - start;
  BIGCITY_PROFILE_OP("SliceCols");
  BIGCITY_PROFILE_OP_COST(0, U64(2 * n * m) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(0, U64(2 * n * m) * 4);
  FloatVec out(static_cast<size_t>(n * m));
  const auto& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    std::copy(ad.begin() + i * d + start, ad.begin() + i * d + end,
              out.begin() + i * m);
  }
  auto ai = a.impl();
  return MakeOpResult({n, m}, std::move(out), {ai},
                      [ai, start, n, d, m](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < n; ++i) {
                          for (int64_t j = 0; j < m; ++j) {
                            ai->grad[static_cast<size_t>(i * d + start + j)] +=
                                self.grad[static_cast<size_t>(i * m + j)];
                          }
                        }
                      });
}

Tensor Rows(const Tensor& a, const std::vector<int>& indices) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  BIGCITY_PROFILE_OP("Rows");
  BIGCITY_PROFILE_OP_COST(0, U64(2 * static_cast<int64_t>(indices.size()) *
                                 d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(
      0, U64(2 * static_cast<int64_t>(indices.size()) * d) * 4);
  FloatVec out(indices.size() * static_cast<size_t>(d));
  const auto& ad = a.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    BIGCITY_CHECK(indices[i] >= 0 && indices[i] < n);
    std::copy(ad.begin() + indices[i] * d, ad.begin() + (indices[i] + 1) * d,
              out.begin() + static_cast<int64_t>(i) * d);
  }
  auto ai = a.impl();
  return MakeOpResult(
      {static_cast<int64_t>(indices.size()), d}, std::move(out), {ai},
      [ai, indices, d](TensorImpl& self) {
        if (!ai->needs_grad) return;
        ai->EnsureGrad();
        for (size_t i = 0; i < indices.size(); ++i) {
          for (int64_t j = 0; j < d; ++j) {
            ai->grad[static_cast<size_t>(indices[i] * d + j)] +=
                self.grad[i * static_cast<size_t>(d) + static_cast<size_t>(j)];
          }
        }
      });
}

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  BIGCITY_PROFILE_OP("Reshape");
  BIGCITY_PROFILE_OP_COST(0, U64(2 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(0, U64(2 * a.numel()) * 4);
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  BIGCITY_CHECK_EQ(n, a.numel());
  auto ai = a.impl();
  return MakeOpResult(std::move(shape), a.data(), {ai},
                      [ai](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < self.grad.size(); ++i) {
                          ai->grad[i] += self.grad[i];
                        }
                      });
}

// --- Lookup / graph ops --------------------------------------------------------------------

Tensor Embedding(const Tensor& table, const std::vector<int>& indices) {
  return Rows(table, indices);
}

Tensor SegmentSoftmax(const Tensor& scores, const std::vector<int>& segment_ids,
                      int num_segments) {
  BIGCITY_CHECK_EQ(scores.numel(), static_cast<int64_t>(segment_ids.size()));
  BIGCITY_PROFILE_OP("SegmentSoftmax");
  BIGCITY_PROFILE_OP_COST(U64(5 * scores.numel()),
                          U64(3 * scores.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * scores.numel()),
                              U64(3 * scores.numel()) * 4);
  const auto& sd = scores.data();
  const size_t e = sd.size();
  FloatVec seg_max(static_cast<size_t>(num_segments),
                             -1e30f);
  for (size_t i = 0; i < e; ++i) {
    BIGCITY_CHECK(segment_ids[i] >= 0 && segment_ids[i] < num_segments);
    seg_max[segment_ids[i]] = std::max(seg_max[segment_ids[i]], sd[i]);
  }
  FloatVec out(e);
  FloatVec seg_sum(static_cast<size_t>(num_segments), 0.0f);
  for (size_t i = 0; i < e; ++i) out[i] = sd[i] - seg_max[segment_ids[i]];
  kernels::Exp(out.data(), out.data(), static_cast<int64_t>(e));
  for (size_t i = 0; i < e; ++i) seg_sum[segment_ids[i]] += out[i];
  for (size_t i = 0; i < e; ++i) out[i] /= seg_sum[segment_ids[i]];
  auto si = scores.impl();
  return MakeOpResult(
      scores.shape(), std::move(out), {si},
      [si, segment_ids, num_segments](TensorImpl& self) {
        if (!si->needs_grad) return;
        si->EnsureGrad();
        const FloatVec& y = self.data;
        FloatVec seg_dot(static_cast<size_t>(num_segments), 0.0f);
        for (size_t i = 0; i < y.size(); ++i) {
          seg_dot[segment_ids[i]] += y[i] * self.grad[i];
        }
        for (size_t i = 0; i < y.size(); ++i) {
          si->grad[i] += y[i] * (self.grad[i] - seg_dot[segment_ids[i]]);
        }
      });
}

Tensor SegmentWeightedSum(const Tensor& weights, const Tensor& values,
                          const std::vector<int>& segment_ids,
                          int num_segments) {
  BIGCITY_CHECK_EQ(values.shape().size(), 2u);
  const int64_t e = values.shape()[0], d = values.shape()[1];
  BIGCITY_CHECK_EQ(weights.numel(), e);
  BIGCITY_CHECK_EQ(static_cast<int64_t>(segment_ids.size()), e);
  BIGCITY_PROFILE_OP("SegmentWeightedSum");
  BIGCITY_PROFILE_OP_COST(U64(2 * e * d), U64(3 * e * d) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(4 * e * d), U64(4 * e * d) * 4);
  FloatVec out(static_cast<size_t>(num_segments) *
                             static_cast<size_t>(d),
                         0.0f);
  const auto& wd = weights.data();
  const auto& vd = values.data();
  for (int64_t i = 0; i < e; ++i) {
    float* out_row = out.data() + segment_ids[static_cast<size_t>(i)] * d;
    const float* v_row = vd.data() + i * d;
    const float w = wd[static_cast<size_t>(i)];
    for (int64_t j = 0; j < d; ++j) out_row[j] += w * v_row[j];
  }
  auto wi = weights.impl();
  auto vi = values.impl();
  return MakeOpResult(
      {num_segments, d}, std::move(out), {wi, vi},
      [wi, vi, segment_ids, e, d](TensorImpl& self) {
        if (wi->needs_grad) wi->EnsureGrad();
        if (vi->needs_grad) vi->EnsureGrad();
        for (int64_t i = 0; i < e; ++i) {
          const float* g_row =
              self.grad.data() + segment_ids[static_cast<size_t>(i)] * d;
          if (wi->needs_grad) {
            const float* v_row = vi->data.data() + i * d;
            float acc = 0.0f;
            for (int64_t j = 0; j < d; ++j) acc += g_row[j] * v_row[j];
            wi->grad[static_cast<size_t>(i)] += acc;
          }
          if (vi->needs_grad) {
            const float w = wi->data[static_cast<size_t>(i)];
            float* v_grad = vi->grad.data() + i * d;
            for (int64_t j = 0; j < d; ++j) v_grad[j] += w * g_row[j];
          }
        }
      });
}

// --- Regularization ----------------------------------------------------------------------

Tensor Dropout(const Tensor& a, float p, util::Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  BIGCITY_CHECK_LT(p, 1.0f);
  BIGCITY_PROFILE_OP("Dropout");
  BIGCITY_PROFILE_OP_COST(U64(a.numel()), U64(3 * a.numel()) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(a.numel()), U64(3 * a.numel()) * 4);
  const float scale = 1.0f / (1.0f - p);
  FloatVec mask(a.data().size());
  for (auto& m : mask) m = rng->Bernoulli(p) ? 0.0f : scale;
  const auto& ad = a.data();
  FloatVec out(ad.size());
  for (size_t i = 0; i < ad.size(); ++i) out[i] = ad[i] * mask[i];
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {ai},
                      [ai, mask = std::move(mask)](TensorImpl& self) {
                        if (!ai->needs_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < self.grad.size(); ++i) {
                          ai->grad[i] += self.grad[i] * mask[i];
                        }
                      });
}

// --- Losses ------------------------------------------------------------------------------

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets) {
  BIGCITY_CHECK_EQ(logits.shape().size(), 2u);
  const int64_t n = logits.shape()[0], c = logits.shape()[1];
  BIGCITY_CHECK_EQ(static_cast<int64_t>(targets.size()), n);
  BIGCITY_PROFILE_OP("CrossEntropy");
  BIGCITY_PROFILE_OP_COST(U64(5 * n * c), U64(2 * n * c) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(U64(2 * n * c), U64(2 * n * c) * 4);
  const auto& ld = logits.data();
  // Forward: mean of -log softmax at target indices; store probs for bwd.
  FloatVec probs(ld.size());
  float loss = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    BIGCITY_CHECK(targets[static_cast<size_t>(i)] >= 0 &&
                  targets[static_cast<size_t>(i)] < c);
    const float* row = ld.data() + i * c;
    float* prow = probs.data() + i * c;
    float mx = row[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    for (int64_t j = 0; j < c; ++j) prow[j] = row[j] - mx;
    kernels::Exp(prow, prow, c);
    float sum = 0.0f;
    for (int64_t j = 0; j < c; ++j) sum += prow[j];
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < c; ++j) prow[j] *= inv;
    loss -= std::log(
        std::max(prow[targets[static_cast<size_t>(i)]], 1e-12f));
  }
  loss /= static_cast<float>(n);
  auto li = logits.impl();
  return MakeOpResult(
      {1}, {loss}, {li},
      [li, targets, n, c, probs = std::move(probs)](TensorImpl& self) {
        if (!li->needs_grad) return;
        li->EnsureGrad();
        const float g = self.grad[0] / static_cast<float>(n);
        for (int64_t i = 0; i < n; ++i) {
          const float* prow = probs.data() + i * c;
          float* grow = li->grad.data() + i * c;
          for (int64_t j = 0; j < c; ++j) grow[j] += g * prow[j];
          grow[targets[static_cast<size_t>(i)]] -= g;
        }
      });
}

Tensor Mse(const Tensor& pred, const Tensor& target) {
  BIGCITY_CHECK_EQ(pred.numel(), target.numel());
  return Mean(Square(Sub(pred, target)));
}

Tensor L1(const Tensor& pred, const Tensor& target) {
  BIGCITY_CHECK_EQ(pred.numel(), target.numel());
  return Mean(Abs(Sub(pred, target)));
}

// --- Non-differentiable helpers ---------------------------------------------------------------

std::vector<int> ArgmaxRows(const Tensor& a) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t n = a.shape()[0], d = a.shape()[1];
  std::vector<int> result(static_cast<size_t>(n));
  const auto& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = ad.data() + i * d;
    result[static_cast<size_t>(i)] = static_cast<int>(
        std::max_element(row, row + d) - row);
  }
  return result;
}

std::vector<int> TopKRow(const Tensor& a, int64_t row, int k) {
  BIGCITY_CHECK_EQ(a.shape().size(), 2u);
  const int64_t d = a.shape()[1];
  BIGCITY_CHECK(row >= 0 && row < a.shape()[0]);
  k = static_cast<int>(std::min<int64_t>(k, d));
  const float* r = a.data().data() + row * d;
  std::vector<int> order(static_cast<size_t>(d));
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [r](int x, int y) { return r[x] > r[y]; });
  order.resize(static_cast<size_t>(k));
  return order;
}

}  // namespace bigcity::nn
