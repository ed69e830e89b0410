// Parity of the fused MultiHeadAttention op with the per-head graph it
// replaced: outputs, KV cache rows and q/k/v gradients must match bit for
// bit, on any backend (ci/run_ci.sh also runs this suite under
// BIGCITY_GEMM=naive) and at 1 and 4 kernel threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "nn/kernels/fused.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace bigcity::nn {
namespace {

constexpr int64_t kHeadDim = 8;

/// The per-head graph's KV state: cached rows as tensors, truncated by row
/// slices.
struct ReferenceKv {
  Tensor k, v;

  int64_t length() const { return k.is_valid() ? k.shape()[0] : 0; }
  void Truncate(int64_t rows) {
    if (rows == 0) {
      k = Tensor();
      v = Tensor();
    } else if (length() > rows) {
      k = SliceRows(k, 0, rows);
      v = SliceRows(v, 0, rows);
    }
  }
};

/// The composition MultiHeadAttention replaced: per sequence, row slices of
/// q/k/v with its cached prefix concatenated in front of k and v; per head
/// SliceCols, MatMulNT, ScaledMaskedSoftmax and MatMul; then the head and
/// sequence Concats. The cache keeps its rows detached.
Tensor ReferenceAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          const std::vector<int64_t>& lens, int64_t num_heads,
                          bool causal,
                          const std::vector<ReferenceKv*>& kv = {}) {
  const int64_t head_dim = q.shape()[1] / num_heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool single = lens.size() == 1;
  std::vector<Tensor> seq_outputs;
  int64_t off = 0;
  for (size_t seq = 0; seq < lens.size(); ++seq) {
    const int64_t len = lens[seq];
    Tensor qs = single ? q : SliceRows(q, off, off + len);
    Tensor ks = single ? k : SliceRows(k, off, off + len);
    Tensor vs = single ? v : SliceRows(v, off, off + len);
    ReferenceKv* cache = kv.empty() ? nullptr : kv[seq];
    const int64_t offset = cache != nullptr ? cache->length() : 0;
    if (offset > 0) {
      ks = Concat({cache->k, ks}, /*axis=*/0);
      vs = Concat({cache->v, vs}, /*axis=*/0);
    }
    if (cache != nullptr) {
      cache->k = ks.Detached();
      cache->v = vs.Detached();
    }
    std::vector<Tensor> head_outputs;
    for (int64_t h = 0; h < num_heads; ++h) {
      const int64_t lo = h * head_dim, hi = lo + head_dim;
      Tensor attn = ScaledMaskedSoftmax(
          MatMulNT(SliceCols(qs, lo, hi), SliceCols(ks, lo, hi)), inv_sqrt,
          causal, offset);
      head_outputs.push_back(MatMul(attn, SliceCols(vs, lo, hi)));
    }
    seq_outputs.push_back(Concat(head_outputs, /*axis=*/1));
    off += len;
  }
  return single ? seq_outputs[0] : Concat(seq_outputs, /*axis=*/0);
}

std::vector<float> RandomValues(int64_t count, util::Rng* rng) {
  std::vector<float> values(static_cast<size_t>(count));
  for (float& value : values) value = static_cast<float>(rng->Normal(0, 1));
  return values;
}

void ExpectSameBits(const float* actual, const float* expected, int64_t count,
                    const char* what) {
  ASSERT_NE(actual, nullptr) << what;
  ASSERT_NE(expected, nullptr) << what;
  EXPECT_EQ(std::memcmp(actual, expected,
                        static_cast<size_t>(count) * sizeof(float)),
            0)
      << what;
}

void ExpectSameBits(const Tensor& actual, const Tensor& expected,
                    const char* what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  ExpectSameBits(actual.data().data(), expected.data().data(),
                 actual.numel(), what);
}

void ExpectSameRows(const AttentionKv& cache, const ReferenceKv& reference,
                    int64_t dim) {
  ASSERT_EQ(cache.length(), reference.length());
  if (cache.length() == 0) return;
  ExpectSameBits(cache.keys(), reference.k.data().data(),
                 cache.length() * dim, "cached keys");
  ExpectSameBits(cache.values(), reference.v.data().data(),
                 cache.length() * dim, "cached values");
}

/// One step's inputs: q/k/v rows and a loss weight, as leaves of their own
/// for each side so the two graphs accumulate into separate gradients.
struct Inputs {
  Tensor q, k, v, weight;

  static Inputs Make(const std::vector<float>& q, const std::vector<float>& k,
                     const std::vector<float>& v, const std::vector<float>& w,
                     int64_t rows, int64_t dim, bool grad) {
    const std::vector<int64_t> shape = {rows, dim};
    return {Tensor::FromData(shape, q, grad), Tensor::FromData(shape, k, grad),
            Tensor::FromData(shape, v, grad), Tensor::FromData(shape, w)};
  }
};

/// Runs the op and the reference on the same values; with `grad` also
/// backpropagates Σ out ⊙ w through both and compares the q/k/v gradients,
/// unless a sequence decodes from a cached prefix (the op refuses that
/// backward; its grad-on forward must still match).
void ExpectParity(const std::vector<int64_t>& lens, int64_t num_heads,
                  bool causal, bool grad, util::Rng* rng,
                  const std::vector<AttentionKv*>& kv = {},
                  const std::vector<ReferenceKv*>& reference_kv = {}) {
  const int64_t dim = num_heads * kHeadDim;
  int64_t rows = 0;
  for (int64_t len : lens) rows += len;
  const std::vector<float> q = RandomValues(rows * dim, rng);
  const std::vector<float> k = RandomValues(rows * dim, rng);
  const std::vector<float> v = RandomValues(rows * dim, rng);
  const std::vector<float> w = RandomValues(rows * dim, rng);
  Inputs fused = Inputs::Make(q, k, v, w, rows, dim, grad);
  Inputs graph = Inputs::Make(q, k, v, w, rows, dim, grad);
  const bool cached_prefix = std::any_of(
      kv.begin(), kv.end(),
      [](const AttentionKv* cache) {
        return cache != nullptr && cache->length() > 0;
      });
  Tensor out, expected;
  {
    // Autograd-free forwards build no graph on either side.
    std::unique_ptr<NoGradGuard> no_grad;
    if (!grad) no_grad = std::make_unique<NoGradGuard>();
    out = MultiHeadAttention(fused.q, fused.k, fused.v, lens, num_heads,
                             causal, kv);
    expected = ReferenceAttention(graph.q, graph.k, graph.v, lens, num_heads,
                                  causal, reference_kv);
  }
  ExpectSameBits(out, expected, "output");
  for (size_t s = 0; s < kv.size(); ++s) {
    if (kv[s] != nullptr) ExpectSameRows(*kv[s], *reference_kv[s], dim);
  }
  if (!grad || cached_prefix) return;
  Sum(Mul(out, fused.weight)).Backward();
  Sum(Mul(expected, graph.weight)).Backward();
  ExpectSameBits(fused.q.grad().data(), graph.q.grad().data(), rows * dim,
                 "q gradient");
  ExpectSameBits(fused.k.grad().data(), graph.k.grad().data(), rows * dim,
                 "k gradient");
  ExpectSameBits(fused.v.grad().data(), graph.v.grad().data(), rows * dim,
                 "v gradient");
}

/// Restores the kernel thread count; the backend is whatever the process
/// runs with (BIGCITY_GEMM), so the naive CI lane checks the naive path.
class AttentionParityTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = kernels::NumThreads(); }
  void TearDown() override { kernels::SetNumThreads(saved_threads_); }

 private:
  int saved_threads_ = 1;
};

TEST_F(AttentionParityTest, RaggedBatchesMatchPerHeadGraph) {
  util::Rng rng(2024);
  for (int threads : {1, 4}) {
    kernels::SetNumThreads(threads);
    for (int64_t heads : {1, 4, 8}) {
      for (bool causal : {false, true}) {
        for (bool grad : {true, false}) {
          for (int trial = 0; trial < 3; ++trial) {
            std::vector<int64_t> lens(
                static_cast<size_t>(rng.UniformInt(1, 4)));
            for (int64_t& len : lens) len = rng.UniformInt(1, 25);
            SCOPED_TRACE(testing::Message()
                         << "threads " << threads << " heads " << heads
                         << " causal " << causal << " grad " << grad
                         << " sequences " << lens.size() << " first len "
                         << lens[0]);
            ExpectParity(lens, heads, causal, grad, &rng);
          }
        }
      }
    }
  }
}

// Three sequences keep caches across a chain of forwards (a prefill, then
// decodes of one to three rows, each after a random Truncate, sometimes to
// zero), batched with a fourth sequence that has none.
TEST_F(AttentionParityTest, DecodeChainsMatchPerHeadGraph) {
  util::Rng rng(77);
  for (int threads : {1, 4}) {
    kernels::SetNumThreads(threads);
    for (int64_t heads : {1, 4, 8}) {
      std::vector<AttentionKv> caches(3);
      std::vector<ReferenceKv> references(3);
      for (int step = 0; step < 8; ++step) {
        SCOPED_TRACE(testing::Message() << "threads " << threads << " heads "
                                        << heads << " step " << step);
        std::vector<int64_t> lens;
        std::vector<AttentionKv*> kv;
        std::vector<ReferenceKv*> reference_kv;
        for (size_t s = 0; s < caches.size(); ++s) {
          if (step > 0 && rng.Bernoulli(0.6)) {
            const int rows =
                rng.UniformInt(0, static_cast<int>(caches[s].length()));
            caches[s].Truncate(rows);
            references[s].Truncate(rows);
          }
          lens.push_back(caches[s].length() == 0 ? rng.UniformInt(1, 25)
                                                 : rng.UniformInt(1, 3));
          kv.push_back(&caches[s]);
          reference_kv.push_back(&references[s]);
        }
        lens.push_back(rng.UniformInt(1, 25));
        kv.push_back(nullptr);
        reference_kv.push_back(nullptr);
        ExpectParity(lens, heads, /*causal=*/true, /*grad=*/step % 2 == 0,
                     &rng, kv, reference_kv);
      }
    }
  }
}

// Cached rows are not tensors a gradient could reach: a backward through a
// decode with a cached prefix fails instead of dropping their gradient.
TEST(AttentionDeathTest, BackwardThroughCachedPrefixFails) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  util::Rng rng(5);
  const int64_t heads = 2, dim = heads * kHeadDim;
  AttentionKv cache;
  {
    NoGradGuard no_grad;
    MultiHeadAttention(Tensor::FromData({4, dim}, RandomValues(4 * dim, &rng)),
                       Tensor::FromData({4, dim}, RandomValues(4 * dim, &rng)),
                       Tensor::FromData({4, dim}, RandomValues(4 * dim, &rng)),
                       {4}, heads, /*causal=*/true, {&cache});
  }
  Tensor q = Tensor::FromData({1, dim}, RandomValues(dim, &rng), true);
  Tensor k = Tensor::FromData({1, dim}, RandomValues(dim, &rng), true);
  Tensor v = Tensor::FromData({1, dim}, RandomValues(dim, &rng), true);
  Tensor out = MultiHeadAttention(q, k, v, {1}, heads, true, {&cache});
  EXPECT_EQ(cache.length(), 5);
  EXPECT_DEATH(Sum(out).Backward(), "cached prefix");
}

/// Appends `rows` random rows to `cache` through the op (autograd-free).
void Extend(AttentionKv* cache, int64_t rows, int64_t heads, util::Rng* rng) {
  const int64_t dim = heads * kHeadDim;
  NoGradGuard no_grad;
  const std::vector<int64_t> shape = {rows, dim};
  MultiHeadAttention(Tensor::FromData(shape, RandomValues(rows * dim, rng)),
                     Tensor::FromData(shape, RandomValues(rows * dim, rng)),
                     Tensor::FromData(shape, RandomValues(rows * dim, rng)),
                     {rows}, heads, /*causal=*/true, {cache});
}

std::vector<float> Snapshot(const float* data, int64_t count) {
  return std::vector<float>(data, data + count);
}

// An instruction-K/V entry seeds caches by handle, and a cache can be
// copied; neither changes when a cache sharing its storage extends. An
// owned cache with room appends in place, and one without grows with
// headroom.
TEST_F(AttentionParityTest, SharedStorageKeepsItsBytes) {
  util::Rng rng(9);
  const int64_t heads = 2, dim = heads * kHeadDim;
  AttentionKv entry;
  Extend(&entry, 6, heads, &rng);
  const std::vector<float> entry_keys = Snapshot(entry.keys(), 6 * dim);
  const std::vector<float> entry_values = Snapshot(entry.values(), 6 * dim);

  AttentionKv seeded = entry;
  EXPECT_EQ(seeded.keys(), entry.keys());
  Extend(&seeded, 2, heads, &rng);
  EXPECT_NE(seeded.keys(), entry.keys());
  EXPECT_EQ(entry.length(), 6);
  EXPECT_EQ(seeded.length(), 8);
  ExpectSameBits(entry.keys(), entry_keys.data(), 6 * dim, "entry keys");
  ExpectSameBits(entry.values(), entry_values.data(), 6 * dim,
                 "entry values");
  ExpectSameBits(seeded.keys(), entry_keys.data(), 6 * dim, "seeded prefix");

  // The copy owns its storage: Truncate + append in place.
  const float* storage = seeded.keys();
  seeded.Truncate(7);
  Extend(&seeded, 1, heads, &rng);
  EXPECT_EQ(seeded.keys(), storage);
  EXPECT_EQ(seeded.length(), 8);

  // It was copied at exactly its rows, so the next row moves it to storage
  // with headroom, where the rows after that append in place.
  Extend(&seeded, 1, heads, &rng);
  EXPECT_NE(seeded.keys(), storage);
  storage = seeded.keys();
  Extend(&seeded, 2, heads, &rng);
  EXPECT_EQ(seeded.keys(), storage);
  EXPECT_EQ(seeded.length(), 11);
  ExpectSameBits(seeded.keys(), entry_keys.data(), 6 * dim, "grown prefix");

  AttentionKv copied = seeded;
  const std::vector<float> copied_keys = Snapshot(copied.keys(), 11 * dim);
  const std::vector<float> copied_values =
      Snapshot(copied.values(), 11 * dim);
  seeded.Truncate(5);
  Extend(&seeded, 2, heads, &rng);
  EXPECT_NE(seeded.keys(), copied.keys());
  EXPECT_EQ(copied.length(), 11);
  ExpectSameBits(copied.keys(), copied_keys.data(), 11 * dim, "copied keys");
  ExpectSameBits(copied.values(), copied_values.data(), 11 * dim,
                 "copied values");
  ExpectSameBits(entry.keys(), entry_keys.data(), 6 * dim, "entry keys");
}

}  // namespace
}  // namespace bigcity::nn
