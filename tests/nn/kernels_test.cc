// Kernel-layer verification: bit-exact blocked-vs-naive equivalence across
// edge-tile shapes, thread-count-invariance, IEEE special-value propagation
// (no zero-skip), write-mode overwrite semantics, the ThreadPool's static
// partitioning contract, the transcendental loops' error bounds and
// same-bits-on-every-ISA contract, position invariance of the fused ops,
// the prepacked-B path and its content-shared store, and gradients of
// every fused op under both backends.
#include "nn/kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/grad_check.h"
#include "nn/kernels/fused.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bigcity::nn::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

using KernelFn = void (*)(const float*, const float*, float*, int64_t,
                          int64_t, int64_t, bool);

struct Shape {
  int64_t n, k, m;
};

/// Odd/edge-tile shapes: single element, primes straddling the MR=4 /
/// NR=16 / MC=64 tile boundaries, K=1, tall, wide, and K=300 > KC=256 so
/// the blocked path crosses a depth-panel boundary.
const std::vector<Shape> kShapes = {
    {1, 1, 1},  {3, 5, 7},    {4, 16, 64},  {1, 7, 1},   {13, 1, 17},
    {5, 300, 9}, {64, 64, 64}, {67, 129, 31}, {130, 17, 5}, {5, 17, 130},
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double GaugeValue(const char* name) {
  return obs::MetricsRegistry::Global().GetGauge(name)->Value();
}

/// Metric-delta checks; no-ops in the obs-off build flavor, where the
/// probes compile out and the registry never moves.
void ExpectCounterDelta(const char* name, uint64_t before, uint64_t delta) {
#if BIGCITY_OBS
  EXPECT_EQ(CounterValue(name), before + delta) << name;
#else
  (void)name;
  (void)before;
  (void)delta;
#endif
}

void ExpectGaugeDelta(const char* name, double before, double delta) {
#if BIGCITY_OBS
  EXPECT_EQ(GaugeValue(name), before + delta) << name;
#else
  (void)name;
  (void)before;
  (void)delta;
#endif
}

std::vector<float> RandomVec(size_t size, util::Rng* rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

/// Restores the process-global backend + thread count after each test so
/// ordering cannot leak state between tests.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = backend();
    saved_threads_ = NumThreads();
  }
  void TearDown() override {
    SetBackend(saved_backend_);
    SetNumThreads(saved_threads_);
  }

 private:
  GemmBackend saved_backend_ = GemmBackend::kBlocked;
  int saved_threads_ = 1;
};

/// Runs naive and blocked on identical inputs and asserts bit equality.
/// Write mode starts from a sentinel-filled C (flushing stale contents is
/// part of the contract); accumulate mode starts from random C.
void ExpectBitEqual(KernelFn naive, KernelFn blocked, const Shape& s,
                    size_t b_size, size_t c_size, bool accumulate) {
  util::Rng rng(41 + s.n + 3 * s.k + 7 * s.m + (accumulate ? 1 : 0));
  const std::vector<float> a = RandomVec(static_cast<size_t>(s.n * s.k),
                                         &rng);
  const std::vector<float> b = RandomVec(b_size, &rng);
  std::vector<float> c0 = accumulate ? RandomVec(c_size, &rng)
                                     : std::vector<float>(c_size, 123.25f);
  std::vector<float> c1 = c0;
  naive(a.data(), b.data(), c0.data(), s.n, s.k, s.m, accumulate);
  blocked(a.data(), b.data(), c1.data(), s.n, s.k, s.m, accumulate);
  for (size_t i = 0; i < c_size; ++i) {
    ASSERT_EQ(c0[i], c1[i])
        << "element " << i << " shape {" << s.n << "," << s.k << "," << s.m
        << "} accumulate=" << accumulate;
    if (!accumulate) {
      ASSERT_NE(c1[i], 123.25f) << "stale output survived";
    }
  }
}

TEST_F(KernelsTest, BlockedMatchesNaiveAB) {
  for (const Shape& s : kShapes) {
    for (bool acc : {false, true}) {
      ExpectBitEqual(GemmABNaive, GemmABBlocked, s,
                     static_cast<size_t>(s.k * s.m),
                     static_cast<size_t>(s.n * s.m), acc);
    }
  }
}

TEST_F(KernelsTest, BlockedMatchesNaiveABt) {
  for (const Shape& s : kShapes) {
    for (bool acc : {false, true}) {
      ExpectBitEqual(GemmABtNaive, GemmABtBlocked, s,
                     static_cast<size_t>(s.m * s.k),
                     static_cast<size_t>(s.n * s.m), acc);
    }
  }
}

TEST_F(KernelsTest, BlockedMatchesNaiveAtB) {
  for (const Shape& s : kShapes) {
    for (bool acc : {false, true}) {
      ExpectBitEqual(GemmAtBNaive, GemmAtBBlocked, s,
                     static_cast<size_t>(s.n * s.m),
                     static_cast<size_t>(s.k * s.m), acc);
    }
  }
}

TEST_F(KernelsTest, BlockedIsThreadCountInvariant) {
  const Shape s{200, 70, 90};
  util::Rng rng(99);
  const std::vector<float> a = RandomVec(static_cast<size_t>(s.n * s.k),
                                         &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(s.k * s.m),
                                         &rng);
  SetNumThreads(1);
  std::vector<float> c1(static_cast<size_t>(s.n * s.m));
  GemmABBlocked(a.data(), b.data(), c1.data(), s.n, s.k, s.m, false);
  for (int threads : {2, 4, 7}) {
    SetNumThreads(threads);
    std::vector<float> cn(static_cast<size_t>(s.n * s.m));
    GemmABBlocked(a.data(), b.data(), cn.data(), s.n, s.k, s.m, false);
    EXPECT_EQ(c1, cn) << threads << " threads diverged from 1 thread";
  }
}

/// 0 * Inf must be NaN in every backend and pattern: the old per-op loops
/// skipped zero multiplicands, silently masking Inf/NaN operands from the
/// trainer's non-finite guards.
TEST_F(KernelsTest, ZeroTimesInfPropagatesNan) {
  const KernelFn kernels[][2] = {{GemmABNaive, GemmABBlocked},
                                 {GemmABtNaive, GemmABtBlocked},
                                 {GemmAtBNaive, GemmAtBBlocked}};
  // 2x2 square case: every operand position participates in every pattern.
  const std::vector<float> a = {0.0f, 1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {kInf, 1.0f, 1.0f, 1.0f};
  for (const auto& pair : kernels) {
    for (const KernelFn fn : pair) {
      std::vector<float> c(4, 0.0f);
      fn(a.data(), b.data(), c.data(), 2, 2, 2, false);
      bool has_nan = false;
      for (float v : c) has_nan = has_nan || std::isnan(v);
      EXPECT_TRUE(has_nan) << "0*Inf was skipped";
    }
  }
}

TEST_F(KernelsTest, DispatchHonorsBackendSelection) {
  const Shape s{9, 11, 13};
  util::Rng rng(7);
  const std::vector<float> a = RandomVec(static_cast<size_t>(s.n * s.k),
                                         &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(s.k * s.m),
                                         &rng);
  std::vector<float> c_naive(static_cast<size_t>(s.n * s.m));
  std::vector<float> c_blocked(c_naive.size());
  SetBackend(GemmBackend::kNaive);
  EXPECT_EQ(backend(), GemmBackend::kNaive);
  GemmAB(a.data(), b.data(), c_naive.data(), s.n, s.k, s.m, false);
  SetBackend(GemmBackend::kBlocked);
  EXPECT_EQ(backend(), GemmBackend::kBlocked);
  GemmAB(a.data(), b.data(), c_blocked.data(), s.n, s.k, s.m, false);
  EXPECT_EQ(c_naive, c_blocked);
}

// --- Prepacked B operands ---------------------------------------------------

/// The prepacked GemmAB against GemmABNaive and GemmABBlocked, memcmp-equal
/// in write and accumulate modes at 1 and 4 threads. n covers every short
/// product up to the unpacked rank-one cut (8 | 9), so the prepacked cut
/// (1 | 2 with AVX-512) too, and MC (64 | 65); (K, M) covers K > KC,
/// M > NC and M not a multiple of NR.
TEST_F(KernelsTest, PrepackedMatchesNaiveAndBlocked) {
  const std::vector<std::pair<int64_t, int64_t>> depth_width = {
      {300, 37}, {64, 300}, {300, 270}, {17, 16}, {1, 5}};
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const auto& [k, m] : depth_width) {
      util::Rng rng(7 + k + 3 * m);
      const std::vector<float> b =
          RandomVec(static_cast<size_t>(k * m), &rng);
      const PackedB packed(b.data(), k, m);
      EXPECT_TRUE(packed.Holds(b.data()));
      for (int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 200}) {
        for (bool accumulate : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "threads " << threads << " n " << n << " k " << k
                       << " m " << m << " accumulate " << accumulate);
          const std::vector<float> a =
              RandomVec(static_cast<size_t>(n * k), &rng);
          const size_t c_size = static_cast<size_t>(n * m);
          const std::vector<float> c0 =
              accumulate ? RandomVec(c_size, &rng)
                         : std::vector<float>(c_size, 123.25f);
          std::vector<float> naive = c0, blocked = c0, prepacked = c0;
          GemmABNaive(a.data(), b.data(), naive.data(), n, k, m, accumulate);
          GemmABBlocked(a.data(), b.data(), blocked.data(), n, k, m,
                        accumulate);
          const uint64_t calls =
              CounterValue("kernels.gemm.prepacked_calls");
          GemmAB(a.data(), b.data(), packed, prepacked.data(), n,
                 accumulate);
          // The panels are read above the rank-one cut only: always from
          // nine rows, never for one, and in between as GemmABReadsPanels
          // (which GemmABOperand asks before fetching a packing) says.
          ExpectCounterDelta(
              "kernels.gemm.prepacked_calls", calls,
              n > 8 || (n > 1 && GemmABReadsPanels(n)) ? 1 : 0);
          const size_t bytes = c_size * sizeof(float);
          ASSERT_EQ(std::memcmp(naive.data(), prepacked.data(), bytes), 0);
          ASSERT_EQ(std::memcmp(blocked.data(), prepacked.data(), bytes), 0);
          // Under the naive backend the entry is the naive reference.
          std::vector<float> reference = c0;
          SetBackend(GemmBackend::kNaive);
          GemmAB(a.data(), b.data(), packed, reference.data(), n,
                 accumulate);
          SetBackend(GemmBackend::kBlocked);
          ASSERT_EQ(std::memcmp(naive.data(), reference.data(), bytes), 0);
        }
      }
    }
  }
}

/// GemmStrided over strided A and B into C rows ldc apart, against
/// GemmABNaive on contiguous copies: memcmp-equal under both backends at 1
/// and 4 threads, in write and accumulate modes, with every C element
/// outside the product left as it was. The shapes cover the rank-one path
/// (unit B column stride, n <= 8), the blocked nest, K > KC and M > NC.
TEST_F(KernelsTest, StridedMatchesContiguousNaive) {
  struct Case {
    int64_t n, k, m;
    bool b_transposed;  // B read down its columns (an attention k_hᵀ).
  };
  const std::vector<Case> cases = {{1, 8, 30, true},   {6, 30, 8, false},
                                   {8, 16, 16, false}, {9, 16, 16, true},
                                   {70, 300, 37, false}, {5, 40, 270, true}};
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (GemmBackend backend : {GemmBackend::kBlocked, GemmBackend::kNaive}) {
      for (const Case& t : cases) {
        for (bool accumulate : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "threads " << threads << " naive "
                       << (backend == GemmBackend::kNaive) << " n " << t.n
                       << " k " << t.k << " m " << t.m << " accumulate "
                       << accumulate);
          util::Rng rng(11 + t.n + 7 * t.k + 3 * t.m);
          // A lives in columns [3, 3 + k) of rows k + 5 wide; B is stored
          // [k, m] in columns [2, 2 + m) of rows m + 4 wide, or as its
          // transpose [m, k] in columns [1, 1 + k) of rows k + 3 wide.
          const int64_t a_rs = t.k + 5;
          const std::vector<float> a_buf =
              RandomVec(static_cast<size_t>(t.n * a_rs), &rng);
          const float* a = a_buf.data() + 3;
          const int64_t b_ld = t.b_transposed ? t.k + 3 : t.m + 4;
          const std::vector<float> b_buf = RandomVec(
              static_cast<size_t>((t.b_transposed ? t.m : t.k) * b_ld), &rng);
          const float* b = b_buf.data() + (t.b_transposed ? 1 : 2);
          const int64_t b_rs = t.b_transposed ? 1 : b_ld;
          const int64_t b_cs = t.b_transposed ? b_ld : 1;
          std::vector<float> a_flat, b_flat;
          for (int64_t i = 0; i < t.n; ++i) {
            for (int64_t p = 0; p < t.k; ++p) a_flat.push_back(a[i * a_rs + p]);
          }
          for (int64_t p = 0; p < t.k; ++p) {
            for (int64_t j = 0; j < t.m; ++j) {
              b_flat.push_back(b[p * b_rs + j * b_cs]);
            }
          }
          const int64_t ldc = t.m + 6;
          const std::vector<float> c0 =
              RandomVec(static_cast<size_t>(t.n * ldc), &rng);
          std::vector<float> expected(static_cast<size_t>(t.n * t.m));
          for (int64_t i = 0; i < t.n; ++i) {
            for (int64_t j = 0; j < t.m; ++j) {
              expected[static_cast<size_t>(i * t.m + j)] =
                  c0[static_cast<size_t>(i * ldc + 2 + j)];
            }
          }
          GemmABNaive(a_flat.data(), b_flat.data(), expected.data(), t.n, t.k,
                      t.m, accumulate);
          std::vector<float> c = c0;
          SetBackend(backend);
          GemmStrided(a, a_rs, 1, b, b_rs, b_cs, c.data() + 2, ldc, t.n, t.k,
                      t.m, accumulate);
          SetBackend(GemmBackend::kBlocked);
          for (int64_t i = 0; i < t.n; ++i) {
            for (int64_t j = 0; j < ldc; ++j) {
              const auto at = static_cast<size_t>(i * ldc + j);
              const bool inside = j >= 2 && j < 2 + t.m;
              const float want =
                  inside ? expected[static_cast<size_t>(i * t.m + j - 2)]
                         : c0[at];
              ASSERT_EQ(std::memcmp(&c[at], &want, sizeof(float)), 0)
                  << "row " << i << " column " << j;
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelsTest, PackedBHoldsExactlyItsBytes) {
  util::Rng rng(3);
  const int64_t k = 260, m = 45;
  std::vector<float> b = RandomVec(static_cast<size_t>(k * m), &rng);
  b[100] = 0.0f;
  const PackedB packed(b.data(), k, m);
  EXPECT_EQ(packed.bytes(), static_cast<size_t>(k * 48) * sizeof(float));
  EXPECT_TRUE(packed.Holds(b.data()));
  for (size_t index : {size_t{0}, size_t{44}, b.size() - 1}) {
    std::vector<float> flipped = b;
    uint32_t bits = 0;
    std::memcpy(&bits, &flipped[index], sizeof(bits));
    bits ^= 1u << 3;
    std::memcpy(&flipped[index], &bits, sizeof(bits));
    EXPECT_FALSE(packed.Holds(flipped.data())) << "bit flip at " << index;
  }
  std::vector<float> negative_zero = b;
  negative_zero[100] = -0.0f;
  EXPECT_FALSE(packed.Holds(negative_zero.data()));
}

TEST_F(KernelsTest, SharedPackBSharesByContent) {
  util::Rng rng(4);
  const int64_t k = 33, m = 70;
  const std::vector<float> b = RandomVec(static_cast<size_t>(k * m), &rng);
  const std::vector<float> copy = b;
  const uint64_t lookups = CounterValue("kernels.pack.lookups");
  const uint64_t packings = CounterValue("kernels.pack.packings");
  const double live = GaugeValue("kernels.pack.live_packings");
  const double live_bytes = GaugeValue("kernels.pack.live_bytes");
  std::shared_ptr<const PackedB> first = SharedPackB(b.data(), k, m);
  std::shared_ptr<const PackedB> second = SharedPackB(copy.data(), k, m);
  EXPECT_EQ(first, second);
  ExpectCounterDelta("kernels.pack.lookups", lookups, 2);
  ExpectCounterDelta("kernels.pack.packings", packings, 1);
  ExpectGaugeDelta("kernels.pack.live_packings", live, 1);
  ExpectGaugeDelta("kernels.pack.live_bytes", live_bytes,
                   static_cast<double>(first->bytes()));
  // Same bytes read as another shape is another packing.
  std::shared_ptr<const PackedB> reshaped = SharedPackB(b.data(), m, k);
  EXPECT_NE(reshaped, first);
  std::vector<float> signed_zero = b;
  signed_zero[5] = 0.0f;
  std::vector<float> negative_zero = b;
  negative_zero[5] = -0.0f;
  EXPECT_NE(SharedPackB(signed_zero.data(), k, m),
            SharedPackB(negative_zero.data(), k, m));
  // The zero-signed packings died with their temporaries.
  ExpectGaugeDelta("kernels.pack.live_packings", live, 2);
  const std::weak_ptr<const PackedB> watched = first;
  first.reset();
  EXPECT_FALSE(watched.expired()) << "`second` still holds the packing";
  second.reset();
  EXPECT_TRUE(watched.expired());
  reshaped.reset();
  ExpectGaugeDelta("kernels.pack.live_packings", live, 0);
  ExpectGaugeDelta("kernels.pack.live_bytes", live_bytes, 0);
  // The content is gone from the store too: the next lookup packs again.
  const uint64_t repacked = CounterValue("kernels.pack.packings");
  std::shared_ptr<const PackedB> again = SharedPackB(b.data(), k, m);
  ExpectCounterDelta("kernels.pack.packings", repacked, 1);
}

// --- ThreadPool contract ----------------------------------------------------

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  auto collect = [](int num_threads) {
    util::ThreadPool pool(num_threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(0, 103, 10, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(lo, hi);
    });
    return chunks;
  };
  const auto single = collect(1);
  ASSERT_EQ(single.size(), 11u);  // ceil(103 / 10).
  for (const auto& [lo, hi] : single) {
    EXPECT_EQ(lo % 10, 0);
    EXPECT_EQ(hi, std::min<int64_t>(lo + 10, 103));
  }
  EXPECT_EQ(collect(3), single);
  EXPECT_EQ(collect(8), single);
}

TEST(ThreadPoolTest, EveryIterationRunsExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeAndReuse) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 10, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The pool stays usable across many consecutive jobs.
  std::vector<int> hits(64, 0);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(0, 64, 8, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
    });
  }
  for (int h : hits) ASSERT_EQ(h, 50);
}

// --- Fused ops: forward semantics -------------------------------------------

TEST_F(KernelsTest, BiasGeluMatchesUnfusedExactly) {
  util::Rng rng(5);
  Tensor x = Tensor::Randn({6, 9}, &rng);
  Tensor b_row = Tensor::Randn({9}, &rng);
  Tensor b_same = Tensor::Randn({6, 9}, &rng);
  EXPECT_EQ(BiasGelu(x, b_row).data(), Gelu(Add(x, b_row)).data());
  EXPECT_EQ(BiasGelu(x, b_same).data(), Gelu(Add(x, b_same)).data());
  EXPECT_EQ(BiasLeakyRelu(x, b_same, 0.2f).data(),
            LeakyRelu(Add(x, b_same), 0.2f).data());
}

TEST_F(KernelsTest, MatMulNTMatchesTransposedMatMulExactly) {
  util::Rng rng(6);
  Tensor a = Tensor::Randn({7, 12}, &rng);
  Tensor b = Tensor::Randn({5, 12}, &rng);
  // Both sum a[i,p]*b[j,p] in ascending p from a zero seed, so the fused
  // node is bit-identical to the transpose-then-matmul formulation.
  EXPECT_EQ(MatMulNT(a, b).data(), MatMul(a, Transpose(b)).data());
}

TEST_F(KernelsTest, AffineMatchesUnfusedClosely) {
  util::Rng rng(8);
  Tensor x = Tensor::Randn({5, 11}, &rng);
  Tensor w = Tensor::Randn({11, 6}, &rng);
  Tensor b = Tensor::Randn({6}, &rng);
  Tensor r = Tensor::Randn({5, 6}, &rng);
  const Tensor fused = Affine(x, w, b);
  const Tensor unfused = Add(MatMul(x, w), b);
  ASSERT_EQ(fused.data().size(), unfused.data().size());
  // The bias is the first summand in the fused node and the last in the
  // unfused chain, so agreement is near, not bitwise.
  for (size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], unfused.data()[i], 1e-5f);
  }
  const Tensor fused_res = AffineResidual(x, w, b, r);
  const Tensor unfused_res = Add(Add(MatMul(x, w), b), r);
  for (size_t i = 0; i < fused_res.data().size(); ++i) {
    EXPECT_NEAR(fused_res.data()[i], unfused_res.data()[i], 1e-5f);
  }
  // Without bias, Affine is a plain write-mode matmul: exact.
  EXPECT_EQ(Affine(x, w, Tensor()).data(), MatMul(x, w).data());
}

TEST_F(KernelsTest, ScaledMaskedSoftmaxMatchesUnfusedClosely) {
  util::Rng rng(9);
  Tensor scores = Tensor::Randn({6, 6}, &rng);
  const float scale = 0.37f;
  Tensor fused = ScaledMaskedSoftmax(scores, scale, /*causal=*/true);
  // Reference: additive -1e9 mask (the pre-kernel-layer formulation).
  std::vector<float> mask_data(36, 0.0f);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = i + 1; j < 6; ++j) mask_data[i * 6 + j] = -1e9f;
  }
  Tensor mask = Tensor::FromData({6, 6}, std::move(mask_data));
  Tensor ref = Softmax(Add(Scale(scores, scale), mask));
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      const float got = fused.data()[i * 6 + j];
      if (j > i) {
        EXPECT_EQ(got, 0.0f) << "masked entry must be exactly zero";
      } else {
        EXPECT_NEAR(got, ref.data()[i * 6 + j], 1e-6f);
      }
    }
  }
  // Rows sum to 1.
  for (int64_t i = 0; i < 6; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 6; ++j) sum += fused.data()[i * 6 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Non-causal path against plain softmax of scaled scores.
  Tensor plain = ScaledMaskedSoftmax(scores, scale, /*causal=*/false);
  Tensor plain_ref = Softmax(Scale(scores, scale));
  for (size_t i = 0; i < plain.data().size(); ++i) {
    EXPECT_NEAR(plain.data()[i], plain_ref.data()[i], 1e-6f);
  }
}

// --- Transcendental loops ----------------------------------------------------

constexpr double kSqrt2OverPi = 0.79788456080286535588;

double GeluReference(double x) {
  return 0.5 * x * (1.0 + std::tanh(kSqrt2OverPi * (x + 0.044715 * x * x * x)));
}

double GeluDerivativeReference(double x) {
  const double t = std::tanh(kSqrt2OverPi * (x + 0.044715 * x * x * x));
  const double du = kSqrt2OverPi * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}

/// k / per_unit as floats for k = first..last. A division rounds once and
/// cannot be contracted into an FMA, so the inputs are the same in every
/// build flavor (-march=native included).
std::vector<float> Sweep(int64_t first, int64_t last, double per_unit) {
  std::vector<float> xs;
  xs.reserve(static_cast<size_t>(last - first + 1));
  for (int64_t k = first; k <= last; ++k) {
    xs.push_back(static_cast<float>(static_cast<double>(k) / per_unit));
  }
  return xs;
}

template <typename A, typename B>
bool SameBits(const A& a, const B& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The ISA variants this CPU can run, baseline first.
std::vector<const TranscendentalLoops*> SupportedLoops() {
  std::vector<const TranscendentalLoops*> loops;
  for (SimdLevel level :
       {SimdLevel::kBaseline, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (const TranscendentalLoops* l = TranscendentalLoopsFor(level)) {
      loops.push_back(l);
    }
  }
  return loops;
}

TEST(TranscendentalTest, ErrorBoundsAgainstDoubleReference) {
  const std::vector<float> gelu_x = Sweep(-200000, 200000, 1e4);
  const size_t n = gelu_x.size();
  std::vector<float> y(n), dx(n);
  const std::vector<float> ones(n, 1.0f);
  GeluForward(gelu_x.data(), y.data(), static_cast<int64_t>(n));
  GeluBackward(gelu_x.data(), ones.data(), dx.data(), static_cast<int64_t>(n));
  double gelu_err = 0.0, grad_err = 0.0, libm_err = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const float x = gelu_x[i];
    gelu_err = std::max(gelu_err, std::fabs(y[i] - GeluReference(x)));
    grad_err =
        std::max(grad_err, std::fabs(dx[i] - GeluDerivativeReference(x)));
    const float libm = 0.5f * x *
                       (1.0f + std::tanh(static_cast<float>(kSqrt2OverPi) *
                                         (x + 0.044715f * x * x * x)));
    libm_err = std::max(libm_err, std::fabs(libm - GeluReference(x)));
  }
  EXPECT_LE(gelu_err, 2e-6);
  EXPECT_LE(grad_err, 1e-5);

  const std::vector<float> exp_x = Sweep(-870000, 100000, 1e4);
  std::vector<float> e(exp_x.size());
  Exp(exp_x.data(), e.data(), static_cast<int64_t>(exp_x.size()));
  double exp_err = 0.0, libm_exp_err = 0.0;
  for (size_t i = 0; i < exp_x.size(); ++i) {
    const double want = std::exp(static_cast<double>(exp_x[i]));
    exp_err = std::max(exp_err, std::fabs(e[i] - want) / want);
    libm_exp_err = std::max(
        libm_exp_err, std::fabs(std::exp(exp_x[i]) - want) / want);
  }
  EXPECT_LE(exp_err, 2e-7);
  std::printf(
      "max error: GELU abs %.2e (float libm formula %.2e), GELU' abs %.2e, "
      "exp rel %.2e (float libm %.2e)\n",
      gelu_err, libm_err, grad_err, exp_err, libm_exp_err);
}

TEST(TranscendentalTest, EveryIsaGivesTheBaselineBits) {
  const auto loops = SupportedLoops();
  const TranscendentalLoops& base = *loops.front();
  // Dense sweeps, then every length 0..67 at unaligned offsets so every
  // vector body, masked or scalar tail and alias-check path runs.
  for (const std::vector<float>& xs :
       {Sweep(-200000, 200000, 1e4), Sweep(-110000, 95000, 1e3)}) {
    const auto n = static_cast<int64_t>(xs.size());
    std::vector<float> g(xs.size());
    for (size_t i = 0; i < g.size(); ++i) g[i] = xs[(i * 7919) % xs.size()];
    std::vector<float> want_y(xs.size()), want_dx(xs.size()),
        want_e(xs.size());
    base.gelu_forward(xs.data(), want_y.data(), n);
    base.gelu_backward(xs.data(), g.data(), want_dx.data(), n);
    base.exp(xs.data(), want_e.data(), n);
    for (const TranscendentalLoops* l : loops) {
      std::vector<float> y(xs.size()), dx(xs.size()), e(xs.size());
      l->gelu_forward(xs.data(), y.data(), n);
      l->gelu_backward(xs.data(), g.data(), dx.data(), n);
      l->exp(xs.data(), e.data(), n);
      EXPECT_TRUE(SameBits(y, want_y));
      EXPECT_TRUE(SameBits(dx, want_dx));
      EXPECT_TRUE(SameBits(e, want_e));
      // In place (y aliases x), as the softmaxes call it.
      std::vector<float> inplace = xs;
      l->exp(inplace.data(), inplace.data(), n);
      EXPECT_TRUE(SameBits(inplace, want_e));
    }
  }
  util::Rng rng(31);
  std::vector<float> src(80), grad(80);
  for (auto& v : src) v = static_cast<float>(rng.Uniform(-12.0, 12.0));
  for (auto& v : grad) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  constexpr float kSentinel = -1234.5f;
  for (int64_t offset = 0; offset < 4; ++offset) {
    for (int64_t len = 0; len <= 67; ++len) {
      std::vector<float> want(src.size(), kSentinel);
      base.gelu_forward(src.data() + offset, want.data() + offset, len);
      for (int64_t i = 0; i < static_cast<int64_t>(want.size()); ++i) {
        const bool inside = i >= offset && i < offset + len;
        ASSERT_EQ(want[static_cast<size_t>(i)] == kSentinel, !inside)
            << "write outside [offset, offset + len)";
      }
      for (const TranscendentalLoops* l : loops) {
        std::vector<float> y(src.size(), kSentinel);
        std::vector<float> dx(src.size(), kSentinel);
        std::vector<float> want_dx(src.size(), kSentinel);
        std::vector<float> e(src.size(), kSentinel);
        std::vector<float> want_e(src.size(), kSentinel);
        l->gelu_forward(src.data() + offset, y.data() + offset, len);
        l->gelu_backward(src.data() + offset, grad.data() + offset,
                         dx.data() + offset, len);
        base.gelu_backward(src.data() + offset, grad.data() + offset,
                           want_dx.data() + offset, len);
        l->exp(src.data() + offset, e.data() + offset, len);
        base.exp(src.data() + offset, want_e.data() + offset, len);
        ASSERT_TRUE(SameBits(y, want)) << "len " << len << " off " << offset;
        ASSERT_TRUE(SameBits(dx, want_dx))
            << "len " << len << " off " << offset;
        ASSERT_TRUE(SameBits(e, want_e)) << "len " << len << " off " << offset;
      }
    }
  }
}

TEST(TranscendentalTest, SpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min() * 1000.0f;
  const std::vector<float> xs = {nan,   -nan,      kInf,   -kInf, 0.0f,
                                 -0.0f, denormal, -denormal, -1e9f, 1e9f};
  const auto n = static_cast<int64_t>(xs.size());
  const std::vector<float> ones(xs.size(), 1.0f);
  for (const TranscendentalLoops* l : SupportedLoops()) {
    std::vector<float> y(xs.size()), dx(xs.size()), e(xs.size());
    l->gelu_forward(xs.data(), y.data(), n);
    l->gelu_backward(xs.data(), ones.data(), dx.data(), n);
    l->exp(xs.data(), e.data(), n);
    for (int i : {0, 1}) {
      EXPECT_TRUE(std::isnan(y[i]) && std::isnan(dx[i]) && std::isnan(e[i]));
    }
    // exp: 0 and +inf at the infinities, 1 at zero and denormals, the
    // additive-mask value -1e9 gives exactly 0.
    EXPECT_EQ(e[2], kInf);
    EXPECT_EQ(e[3], 0.0f);
    for (int i : {4, 5, 6, 7}) EXPECT_EQ(e[i], 1.0f);
    EXPECT_EQ(e[8], 0.0f);
    EXPECT_EQ(e[9], kInf);
    // GELU keeps the sign of zero, is 0.5·x on denormals (tanh passes
    // through), and does at the infinities what the formula does:
    // +inf·(1 + 1) = +inf and -inf·(1 - 1) = NaN, as with libm's tanh.
    EXPECT_EQ(y[2], kInf);
    EXPECT_TRUE(std::isnan(y[3]));
    EXPECT_EQ(y[4], 0.0f);
    EXPECT_FALSE(std::signbit(y[4]));
    EXPECT_TRUE(std::signbit(y[5]));
    EXPECT_EQ(y[6], 0.5f * denormal);
    EXPECT_EQ(y[7], -0.5f * denormal);
    EXPECT_EQ(y[8], 0.0f);  // -1e9·(1 + tanh(-inf)) = -0.
    EXPECT_EQ(y[9], 1e9f);
    EXPECT_EQ(dx[4], 0.5f);
    EXPECT_EQ(dx[8], 0.0f);
    EXPECT_EQ(dx[9], 1.0f);
  }
}

/// FNV-1a over the bytes of `values`.
uint64_t BitsDigest(const std::vector<float>& values) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  }
  return hash;
}

// One polynomial, one order of operations and no FMA fix every output bit,
// whatever the ISA or -march. Digests recorded from the baseline variant;
// a contracted multiply-add (e.g. a -march=native build without
// -ffp-contract=off) changes them even when every lane agrees.
TEST(TranscendentalTest, BitsMatchTheRecordedNoFmaResults) {
  const std::vector<float> xs = Sweep(-110000, 95000, 1e3);
  const auto n = static_cast<int64_t>(xs.size());
  std::vector<float> y(xs.size()), dx(xs.size()), e(xs.size());
  const std::vector<float> ones(xs.size(), 1.0f);
  GeluForward(xs.data(), y.data(), n);
  GeluBackward(xs.data(), ones.data(), dx.data(), n);
  Exp(xs.data(), e.data(), n);
  EXPECT_EQ(BitsDigest(y), 0xf11269ae93356ed2ull);
  EXPECT_EQ(BitsDigest(dx), 0xe78a98a312f7afcbull);
  EXPECT_EQ(BitsDigest(e), 0x730fa582cece0c2dull);
}

/// Three blocks with odd row counts and 37 columns (not a multiple of any
/// vector width), so vector lanes straddle row boundaries when the blocks
/// are stacked. Every row must come out the same, byte for byte, wherever
/// it sits.
TEST_F(KernelsTest, FusedOpsArePositionInvariant) {
  util::Rng rng(33);
  const int64_t cols = 37;
  const std::vector<int64_t> block_rows = {3, 5, 7};
  std::vector<Tensor> xs, biases;
  for (int64_t rows : block_rows) {
    xs.push_back(Tensor::Randn({rows, cols}, &rng, 2.0f, true));
    biases.push_back(Tensor::Randn({rows, cols}, &rng, 0.5f, true));
  }
  const Tensor b_row = Tensor::Randn({cols}, &rng);
  const Tensor stacked = Concat(xs, 0);
  const Tensor stacked_bias = Concat(biases, 0);
  auto stacked_rows = [&](const Tensor& t, size_t block) {
    int64_t start = 0;
    for (size_t k = 0; k < block; ++k) start += block_rows[k];
    const Tensor rows = SliceRows(t, start, start + block_rows[block]);
    return std::vector<float>(rows.data().begin(), rows.data().end());
  };
  const Tensor gelu_row = BiasGelu(stacked, b_row);
  const Tensor gelu_same = BiasGelu(stacked, stacked_bias);
  const Tensor softmax = ScaledMaskedSoftmax(stacked, 0.3f, false);
  for (size_t k = 0; k < xs.size(); ++k) {
    EXPECT_TRUE(SameBits(stacked_rows(gelu_row, k),
                         BiasGelu(xs[k], b_row).data()));
    EXPECT_TRUE(SameBits(stacked_rows(gelu_same, k),
                         BiasGelu(xs[k], biases[k]).data()));
    EXPECT_TRUE(SameBits(stacked_rows(softmax, k),
                         ScaledMaskedSoftmax(xs[k], 0.3f, false).data()));
  }
  // Gradients too: the backward recomputes x + b in fixed-size chunks, and
  // with a same-shape bias those chunks straddle rows.
  const Tensor upstream = Tensor::Randn(stacked.shape(), &rng);
  Sum(Mul(BiasGelu(stacked, stacked_bias), upstream)).Backward();
  std::vector<std::vector<float>> grads;
  for (auto& x : xs) grads.emplace_back(x.grad().begin(), x.grad().end());
  for (auto& x : xs) x.ZeroGrad();
  for (size_t k = 0; k < xs.size(); ++k) {
    Sum(Mul(BiasGelu(xs[k], biases[k]),
            Tensor::FromData(xs[k].shape(), stacked_rows(upstream, k))))
        .Backward();
    EXPECT_TRUE(SameBits(xs[k].grad(), grads[k])) << "block " << k;
  }
}

// --- Fused ops: gradients under both backends -------------------------------

class FusedGradTest : public KernelsTest,
                      public ::testing::WithParamInterface<GemmBackend> {
 protected:
  void SetUp() override {
    KernelsTest::SetUp();
    SetBackend(GetParam());
  }
};

constexpr float kGradTolerance = 3e-2f;

TEST_P(FusedGradTest, Affine) {
  util::Rng rng(21);
  Tensor x = Tensor::Randn({3, 5}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn({5, 4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor r = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  auto loss = [&]() { return Sum(Square(Affine(x, w, b))); };
  EXPECT_LT(MaxGradError(x, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(w, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(b, loss), kGradTolerance);
  auto loss_res = [&]() {
    return Sum(Square(AffineResidual(x, w, b, r)));
  };
  EXPECT_LT(MaxGradError(x, loss_res), kGradTolerance);
  EXPECT_LT(MaxGradError(r, loss_res), kGradTolerance);
}

TEST_P(FusedGradTest, BiasActivations) {
  util::Rng rng(22);
  Tensor x = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b_row = Tensor::Randn({4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b_same = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  // Keep pre-activations away from the LeakyReLU kink at 0.
  auto nudge = [](Tensor* t) {
    for (auto& v : t->data()) {
      if (std::fabs(v) < 0.05f) v = v < 0 ? -0.1f : 0.1f;
    }
  };
  nudge(&x);
  auto gelu_row = [&]() { return Sum(Square(BiasGelu(x, b_row))); };
  EXPECT_LT(MaxGradError(x, gelu_row), kGradTolerance);
  EXPECT_LT(MaxGradError(b_row, gelu_row), kGradTolerance);
  auto gelu_same = [&]() { return Sum(Square(BiasGelu(x, b_same))); };
  EXPECT_LT(MaxGradError(b_same, gelu_same), kGradTolerance);
  auto leaky = [&]() { return Sum(Square(BiasLeakyRelu(x, b_row, 0.2f))); };
  EXPECT_LT(MaxGradError(x, leaky), kGradTolerance);
  EXPECT_LT(MaxGradError(b_row, leaky), kGradTolerance);
}

TEST_P(FusedGradTest, ScaledMaskedSoftmax) {
  util::Rng rng(23);
  Tensor scores = Tensor::Randn({4, 4}, &rng, 0.8f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn({4, 4}, &rng);
  for (bool causal : {false, true}) {
    auto loss = [&]() {
      return Sum(Mul(ScaledMaskedSoftmax(scores, 0.7f, causal), w));
    };
    EXPECT_LT(MaxGradError(scores, loss), kGradTolerance)
        << "causal=" << causal;
  }
}

TEST_P(FusedGradTest, MatMulNT) {
  util::Rng rng(24);
  Tensor a = Tensor::Randn({3, 6}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({4, 6}, &rng, 0.5f, /*requires_grad=*/true);
  auto loss = [&]() { return Sum(Square(MatMulNT(a, b))); };
  EXPECT_LT(MaxGradError(a, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(b, loss), kGradTolerance);
}

TEST_P(FusedGradTest, MultiHeadAttention) {
  util::Rng rng(26);
  // Two heads of width 3 over two sequences of 2 and 3 rows.
  Tensor q = Tensor::Randn({5, 6}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor k = Tensor::Randn({5, 6}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor v = Tensor::Randn({5, 6}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn({5, 6}, &rng);
  for (bool causal : {false, true}) {
    auto loss = [&]() {
      return Sum(Mul(MultiHeadAttention(q, k, v, {2, 3}, 2, causal), w));
    };
    SCOPED_TRACE(testing::Message() << "causal " << causal);
    EXPECT_LT(MaxGradError(q, loss), kGradTolerance);
    EXPECT_LT(MaxGradError(k, loss), kGradTolerance);
    EXPECT_LT(MaxGradError(v, loss), kGradTolerance);
  }
}

TEST_P(FusedGradTest, MatMulThroughKernels) {
  util::Rng rng(25);
  Tensor a = Tensor::Randn({4, 7}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({7, 3}, &rng, 0.5f, /*requires_grad=*/true);
  auto loss = [&]() { return Sum(Square(MatMul(a, b))); };
  EXPECT_LT(MaxGradError(a, loss), kGradTolerance);
  EXPECT_LT(MaxGradError(b, loss), kGradTolerance);
}

INSTANTIATE_TEST_SUITE_P(Backends, FusedGradTest,
                         ::testing::Values(GemmBackend::kBlocked,
                                           GemmBackend::kNaive),
                         [](const auto& info) {
                           return info.param == GemmBackend::kBlocked
                                      ? "Blocked"
                                      : "Naive";
                         });

}  // namespace
}  // namespace bigcity::nn::kernels
