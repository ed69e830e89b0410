#include "nn/kernels/fused.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>
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

/// One row of the scaled (offset-)causal softmax: out[j] = softmax(scale ·
/// row)[j] for j < limit and 0 for limit <= j < d. out may alias row.
/// ScaledMaskedSoftmax and MultiHeadAttention both call it, so they give
/// the same bits.
void SoftmaxRow(const float* row, float* out, int64_t limit, int64_t d,
                float scale) {
  float mx = scale * row[0];
  for (int64_t j = 1; j < limit; ++j) mx = std::max(mx, scale * row[j]);
  for (int64_t j = 0; j < limit; ++j) out[j] = scale * row[j] - mx;
  kernels::Exp(out, out, limit);
  float sum = 0.0f;
  for (int64_t j = 0; j < limit; ++j) sum += out[j];
  const float inv = 1.0f / sum;
  for (int64_t j = 0; j < limit; ++j) out[j] *= inv;
  for (int64_t j = limit; j < d; ++j) out[j] = 0.0f;
}

/// The backward of SoftmaxRow: grad[j] += scale · y[j] · (g[j] − y·g) for
/// j < limit, given its output y and the output gradient g.
void SoftmaxRowBackward(const float* y, const float* g, float* grad,
                        int64_t limit, float scale) {
  float dot = 0.0f;
  for (int64_t j = 0; j < limit; ++j) dot += y[j] * g[j];
  for (int64_t j = 0; j < limit; ++j) grad[j] += scale * y[j] * (g[j] - dot);
}

/// Where MultiHeadAttention finds one sequence: its rows [off, off + len)
/// of q/k/v and of the output, the cached positions before them, and the
/// prefix + len keys and values it attends over (rows dim apart).
struct AttentionSeq {
  int64_t off, len, prefix;
  const float* keys;
  const float* values;
};

/// t.grad += d when t needs a gradient.
void AddGrad(TensorImpl& t, const FloatVec& d) {
  if (!t.needs_grad) return;
  t.EnsureGrad();
  for (size_t i = 0; i < d.size(); ++i) t.grad[i] += d[i];
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
    SoftmaxRow(sd.data() + i * d, out.data() + i * d,
               causal ? row_offset + i + 1 : d, d, scale);
  }
  auto si = scores.impl();
  return MakeOpResult(
      scores.shape(), std::move(out), {si},
      [si, n, d, scale, causal, row_offset](TensorImpl& self) {
        if (!si->needs_grad) return;
        si->EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          SoftmaxRowBackward(self.data.data() + i * d,
                             self.grad.data() + i * d,
                             si->grad.data() + i * d,
                             causal ? row_offset + i + 1 : d, scale);
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

struct AttentionKv::Storage {
  /// One heap block (whatever arena is active, tracked like any heap
  /// payload) holding the keys then the values, left uninitialized: an
  /// append writes every row before length() covers it.
  Storage(int64_t capacity, int64_t dim)
      : capacity(capacity),
        dim(dim),
        keys(ArenaAllocator<float>(nullptr).allocate(Floats())),
        values(keys + capacity * dim) {}
  ~Storage() { ArenaAllocator<float>(nullptr).deallocate(keys, Floats()); }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  size_t Floats() const { return static_cast<size_t>(2 * capacity * dim); }

  const int64_t capacity;  // Rows.
  const int64_t dim;
  float* const keys;  // [capacity, dim].
  float* const values;
  /// Set when a second handle is made, never cleared.
  std::atomic<bool> shared{false};
};

AttentionKv::AttentionKv(const AttentionKv& other)
    : storage_(other.storage_), rows_(other.rows_) {
  if (storage_ != nullptr) {
    storage_->shared.store(true, std::memory_order_relaxed);
  }
}

AttentionKv& AttentionKv::operator=(const AttentionKv& other) {
  if (this != &other) *this = AttentionKv(other);
  return *this;
}

AttentionKv::AttentionKv(AttentionKv&& other) noexcept
    : storage_(std::move(other.storage_)),
      rows_(std::exchange(other.rows_, 0)) {}

AttentionKv& AttentionKv::operator=(AttentionKv&& other) noexcept {
  storage_ = std::move(other.storage_);
  rows_ = std::exchange(other.rows_, 0);
  return *this;
}

void AttentionKv::Truncate(int64_t rows) {
  BIGCITY_CHECK_GE(rows, 0);
  rows_ = std::min(rows_, rows);
}

void AttentionKv::Append(const float* keys, const float* values,
                         int64_t rows, int64_t dim) {
  BIGCITY_CHECK(rows > 0 && dim > 0);
  if (storage_ != nullptr) BIGCITY_CHECK_EQ(storage_->dim, dim);
  const int64_t need = rows_ + rows;
  const bool owned = storage_ != nullptr &&
                     !storage_->shared.load(std::memory_order_relaxed);
  if (!owned || need > storage_->capacity) {
    // Owned storage that is full grows by half again, so a decode adding a
    // row or two per call copies its prefix only every few calls. A fresh
    // cache, or one leaving shared storage (a forward's local copy of an
    // instruction entry often dies with the forward), gets exactly its rows.
    auto grown = std::make_shared<Storage>(owned ? need + need / 2 : need,
                                           dim);
    const auto live = static_cast<size_t>(rows_ * dim) * sizeof(float);
    if (live > 0) {
      std::memcpy(grown->keys, storage_->keys, live);
      std::memcpy(grown->values, storage_->values, live);
    }
    storage_ = std::move(grown);
  }
  const auto at = static_cast<size_t>(rows_ * dim);
  const auto bytes = static_cast<size_t>(rows * dim) * sizeof(float);
  std::memcpy(storage_->keys + at, keys, bytes);
  std::memcpy(storage_->values + at, values, bytes);
  rows_ = need;
}

const float* AttentionKv::keys() const {
  return rows_ > 0 ? storage_->keys : nullptr;
}

const float* AttentionKv::values() const {
  return rows_ > 0 ? storage_->values : nullptr;
}

Tensor MultiHeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const std::vector<int64_t>& lens, int64_t num_heads,
                          bool causal, const std::vector<AttentionKv*>& kv) {
  BIGCITY_CHECK_EQ(q.shape().size(), 2u);
  BIGCITY_CHECK(k.shape() == q.shape() && v.shape() == q.shape())
      << "attention q, k and v must share one shape";
  const int64_t total = q.shape()[0], dim = q.shape()[1];
  BIGCITY_CHECK(num_heads > 0 && dim % num_heads == 0)
      << "dim must be divisible by num_heads";
  if (!kv.empty()) BIGCITY_CHECK_EQ(kv.size(), lens.size());
  const int64_t head_dim = dim / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  BIGCITY_PROFILE_OP("MultiHeadAttention");
  auto qi = q.impl();
  auto ki = k.impl();
  auto vi = v.impl();
  const bool grad =
      GradEnabled() && (qi->needs_grad || ki->needs_grad || vi->needs_grad);

  // A sequence with a cache appends its rows to it and attends over all of
  // the cache's rows; the others attend over their own rows of k and v.
  std::vector<AttentionSeq> seqs;
  seqs.reserve(lens.size());
  int64_t off = 0, score_size = 0, max_scores = 0;
  for (size_t s = 0; s < lens.size(); ++s) {
    const int64_t len = lens[s];
    BIGCITY_CHECK(len > 0 && off + len <= total)
        << "attention lens must tile the rows of q";
    AttentionSeq seq{off, len, 0, k.data().data() + off * dim,
                     v.data().data() + off * dim};
    AttentionKv* cache = kv.empty() ? nullptr : kv[s];
    if (cache != nullptr) {
      seq.prefix = cache->length();
      BIGCITY_CHECK(causal || seq.prefix == 0)
          << "KV-cached decode requires causal attention";
      cache->Append(seq.keys, seq.values, len, dim);
      seq.keys = cache->keys();
      seq.values = cache->values();
    }
    const int64_t scores = len * (seq.prefix + len);
    score_size += scores;
    max_scores = std::max(max_scores, scores);
    seqs.push_back(seq);
    off += len;
  }
  BIGCITY_CHECK_EQ(off, total) << "attention lens must tile the rows of q";
  BIGCITY_PROFILE_OP_COST(U64(score_size * (4 * dim + 6 * num_heads)),
                          U64(4 * total * dim + score_size * num_heads) * 4);
  BIGCITY_PROFILE_OP_BWD_COST(
      U64(score_size * (8 * dim + 5 * num_heads)),
      U64(8 * total * dim + 3 * score_size * num_heads) * 4);

  // Per (sequence, head): scores = q_h·k_hᵀ, the row softmax in place, then
  // probabilities · v_h into the head's output columns. The probabilities
  // are kept for the backward when it will run, else one scratch is reused.
  FloatVec probs(static_cast<size_t>(grad ? score_size * num_heads
                                          : max_scores));
  FloatVec out(static_cast<size_t>(total * dim));
  const float* qd = q.data().data();
  int64_t at = 0;
  for (const AttentionSeq& seq : seqs) {
    const int64_t width = seq.prefix + seq.len;
    for (int64_t h = 0; h < num_heads; ++h) {
      const int64_t col = h * head_dim;
      float* p = probs.data() + (grad ? at : 0);
      // B element (c, j) of k_hᵀ is key j's column c.
      kernels::GemmStrided(qd + seq.off * dim + col, dim, 1, seq.keys + col,
                           1, dim, p, width, seq.len, head_dim, width,
                           /*accumulate=*/false);
      for (int64_t i = 0; i < seq.len; ++i) {
        SoftmaxRow(p + i * width, p + i * width,
                   causal ? seq.prefix + i + 1 : width, width, scale);
      }
      kernels::GemmStrided(p, width, 1, seq.values + col, dim, 1,
                           out.data() + seq.off * dim + col, dim, seq.len,
                           width, head_dim, /*accumulate=*/false);
      at += seq.len * width;
    }
  }
  if (!grad) return MakeOpResult({total, dim}, std::move(out), {}, nullptr);

  // The backward reads each sequence's keys and values from k and v, not
  // from a cache a later append may overwrite. A cached prefix's rows are
  // no tensor a gradient could reach, so a backward through a cached decode
  // fails; its grad-on forward alone is fine.
  const bool cached_prefix =
      std::any_of(seqs.begin(), seqs.end(),
                  [](const AttentionSeq& seq) { return seq.prefix > 0; });
  return MakeOpResult(
      {total, dim}, std::move(out), {qi, ki, vi},
      [qi, ki, vi, lens, cached_prefix, probs = std::move(probs), total, dim,
       num_heads, head_dim, max_scores, scale, causal](TensorImpl& self) {
        BIGCITY_CHECK(!cached_prefix)
            << "MultiHeadAttention cannot backpropagate into a cached prefix";
        const bool score_grad = qi->needs_grad || ki->needs_grad;
        const float* g = self.grad.data();
        const float* qd = qi->data.data();
        const float* kd = ki->data.data();
        const float* vd = vi->data.data();
        const auto size = static_cast<size_t>(total * dim);
        FloatVec dq(qi->needs_grad ? size : 0);
        FloatVec dk(ki->needs_grad ? size : 0);
        FloatVec dv(vi->needs_grad ? size : 0);
        FloatVec dp(static_cast<size_t>(score_grad ? max_scores : 0));
        FloatVec ds(dp.size());
        int64_t off = 0, at = 0;
        for (const int64_t len : lens) {
          for (int64_t h = 0; h < num_heads; ++h) {
            // The head's column block of the sequence's rows.
            const int64_t block = off * dim + h * head_dim;
            const float* p = probs.data() + at;
            at += len * len;
            if (vi->needs_grad) {
              // dv_h = pᵀ · dout_h.
              kernels::GemmStrided(p, 1, len, g + block, dim, 1,
                                   dv.data() + block, dim, len, len, head_dim,
                                   /*accumulate=*/false);
            }
            if (!score_grad) continue;
            // dp = dout_h · v_hᵀ, then the softmax backward into zeroed ds
            // (masked entries stay 0).
            kernels::GemmStrided(g + block, dim, 1, vd + block, 1, dim,
                                 dp.data(), len, len, head_dim, len,
                                 /*accumulate=*/false);
            std::fill_n(ds.data(), len * len, 0.0f);
            for (int64_t i = 0; i < len; ++i) {
              SoftmaxRowBackward(p + i * len, dp.data() + i * len,
                                 ds.data() + i * len, causal ? i + 1 : len,
                                 scale);
            }
            if (qi->needs_grad) {
              kernels::GemmStrided(ds.data(), len, 1, kd + block, dim, 1,
                                   dq.data() + block, dim, len, len, head_dim,
                                   /*accumulate=*/false);
            }
            if (ki->needs_grad) {
              kernels::GemmStrided(ds.data(), 1, len, qd + block, dim, 1,
                                   dk.data() + block, dim, len, len, head_dim,
                                   /*accumulate=*/false);
            }
          }
          off += len;
        }
        // Every element above is one +0-seeded sum, never −0, so adding it
        // gives what the per-head graph's slice and concat backwards add.
        AddGrad(*qi, dq);
        AddGrad(*ki, dk);
        AddGrad(*vi, dv);
      });
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
