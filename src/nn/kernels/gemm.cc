#include "nn/kernels/kernels.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"
#include "util/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define BIGCITY_KERNEL_X86 1
#include <immintrin.h>
#else
#define BIGCITY_KERNEL_X86 0
#endif

namespace bigcity::nn::kernels {

namespace {

// Blocking parameters. MR x NR is the register tile; a full tile keeps 64
// accumulators live across the whole inner loop. MC rows is both the L2
// panel height and the static parallel-partition grain (fixed so chunk
// boundaries never depend on the thread count). KC bounds the packed-panel
// depth so an A panel (MC x KC) stays L2-resident and a B slab (KC x NR)
// stays L1-resident.
constexpr int64_t MR = 4;
constexpr int64_t NR = 16;
constexpr int64_t MC = 64;
constexpr int64_t KC = 256;
constexpr int64_t NC = 256;

inline int64_t RoundUp(int64_t x, int64_t to) {
  return (x + to - 1) / to * to;
}

/// Packs the mc x kc block of a logical matrix whose element (i, p) lives at
/// src[i*rs + p*cs] into MR-row slabs: dst slab s holds rows
/// [s*MR, s*MR+MR) laid out p-major (dst[s*kc*MR + p*MR + i]). Rows past mc
/// are zero-padded; padded lanes are never stored back to C.
void PackA(const float* src, int64_t rs, int64_t cs, int64_t mc, int64_t kc,
           float* dst) {
  for (int64_t i0 = 0; i0 < mc; i0 += MR) {
    const int64_t mr = std::min(MR, mc - i0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t i = 0; i < mr; ++i) {
        dst[p * MR + i] = src[(i0 + i) * rs + p * cs];
      }
      for (int64_t i = mr; i < MR; ++i) dst[p * MR + i] = 0.0f;
    }
    dst += kc * MR;
  }
}

/// Packs the kc x nc block of a logical matrix whose element (p, j) lives at
/// src[p*rs + j*cs] into NR-column slabs (dst[s*kc*NR + p*NR + j]), columns
/// past nc zero-padded.
void PackB(const float* src, int64_t rs, int64_t cs, int64_t kc, int64_t nc,
           float* dst) {
  for (int64_t j0 = 0; j0 < nc; j0 += NR) {
    const int64_t nr = std::min(NR, nc - j0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t j = 0; j < nr; ++j) {
        dst[p * NR + j] = src[p * rs + (j0 + j) * cs];
      }
      for (int64_t j = nr; j < NR; ++j) dst[p * NR + j] = 0.0f;
    }
    dst += kc * NR;
  }
}

// MR x NR register-tiled micro-kernels over a depth-kc packed pair.
// Accumulators are seeded from C (load_c) or zero, advance in ascending p
// order, and only the live mr x nr sub-tile is stored back — this is what
// makes the blocked backend bit-identical to the naive reference.
//
// The SIMD variants use explicit mul-then-add intrinsics, NEVER fused
// multiply-add: an FMA's single rounding would break bit-equality with the
// scalar reference. Vector width only changes how many independent output
// elements advance per instruction, not any element's summation order, so
// every variant produces identical bits. The widest ISA the CPU supports
// is picked once at startup (the build stays baseline-portable).

using MicroKernelFn = void (*)(const float* pa, const float* pb, float* c,
                               int64_t ldc, int64_t kc, int64_t mr,
                               int64_t nr, bool load_c);

void MicroKernelScalar(const float* pa, const float* pb, float* c,
                       int64_t ldc, int64_t kc, int64_t mr, int64_t nr,
                       bool load_c) {
  float acc[MR][NR] = {};
  if (load_c) {
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) acc[i][j] = c[i * ldc + j];
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = pa + p * MR;
    const float* b = pb + p * NR;
    for (int64_t i = 0; i < MR; ++i) {
      const float av = a[i];
      for (int64_t j = 0; j < NR; ++j) acc[i][j] += av * b[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
  }
}

#if BIGCITY_KERNEL_X86

/// One 512-bit lane covers a full NR=16 output row, so the tile is 4 zmm
/// accumulators + 1 b vector + 1 broadcast — far inside the register file.
/// Partial tiles stage through a zero-padded stack buffer (padded lanes are
/// computed but never reach C).
__attribute__((target("avx512f"))) void MicroKernelAvx512(
    const float* pa, const float* pb, float* c, int64_t ldc, int64_t kc,
    int64_t mr, int64_t nr, bool load_c) {
  static_assert(NR == 16, "one zmm register per tile row");
  const bool full = mr == MR && nr == NR;
  float tmp[MR][NR] = {};
  if (load_c && !full) {
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) tmp[i][j] = c[i * ldc + j];
    }
  }
  __m512 acc[MR];
  for (int64_t i = 0; i < MR; ++i) {
    acc[i] = !load_c ? _mm512_setzero_ps()
                     : full ? _mm512_loadu_ps(c + i * ldc)
                            : _mm512_loadu_ps(tmp[i]);
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m512 b = _mm512_loadu_ps(pb + p * NR);
    const float* a = pa + p * MR;
    for (int64_t i = 0; i < MR; ++i) {
      acc[i] = _mm512_add_ps(acc[i], _mm512_mul_ps(_mm512_set1_ps(a[i]), b));
    }
  }
  if (full) {
    for (int64_t i = 0; i < MR; ++i) _mm512_storeu_ps(c + i * ldc, acc[i]);
  } else {
    for (int64_t i = 0; i < MR; ++i) _mm512_storeu_ps(tmp[i], acc[i]);
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = tmp[i][j];
    }
  }
}

/// Two 256-bit lanes per NR=16 row: 8 ymm accumulators + 2 b vectors + 1
/// broadcast also fit the 16-register file.
__attribute__((target("avx2"))) void MicroKernelAvx2(
    const float* pa, const float* pb, float* c, int64_t ldc, int64_t kc,
    int64_t mr, int64_t nr, bool load_c) {
  static_assert(NR == 16, "two ymm registers per tile row");
  const bool full = mr == MR && nr == NR;
  float tmp[MR][NR] = {};
  if (load_c && !full) {
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) tmp[i][j] = c[i * ldc + j];
    }
  }
  __m256 lo[MR], hi[MR];
  for (int64_t i = 0; i < MR; ++i) {
    const float* src = full ? c + i * ldc : tmp[i];
    lo[i] = !load_c ? _mm256_setzero_ps() : _mm256_loadu_ps(src);
    hi[i] = !load_c ? _mm256_setzero_ps() : _mm256_loadu_ps(src + 8);
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b_lo = _mm256_loadu_ps(pb + p * NR);
    const __m256 b_hi = _mm256_loadu_ps(pb + p * NR + 8);
    const float* a = pa + p * MR;
    for (int64_t i = 0; i < MR; ++i) {
      const __m256 av = _mm256_set1_ps(a[i]);
      lo[i] = _mm256_add_ps(lo[i], _mm256_mul_ps(av, b_lo));
      hi[i] = _mm256_add_ps(hi[i], _mm256_mul_ps(av, b_hi));
    }
  }
  if (full) {
    for (int64_t i = 0; i < MR; ++i) {
      _mm256_storeu_ps(c + i * ldc, lo[i]);
      _mm256_storeu_ps(c + i * ldc + 8, hi[i]);
    }
  } else {
    for (int64_t i = 0; i < MR; ++i) {
      _mm256_storeu_ps(tmp[i], lo[i]);
      _mm256_storeu_ps(tmp[i] + 8, hi[i]);
    }
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = tmp[i][j];
    }
  }
}

#endif  // BIGCITY_KERNEL_X86

MicroKernelFn PickMicroKernel() {
#if BIGCITY_KERNEL_X86
  if (__builtin_cpu_supports("avx512f")) return MicroKernelAvx512;
  if (__builtin_cpu_supports("avx2")) return MicroKernelAvx2;
#endif
  return MicroKernelScalar;
}

const MicroKernelFn g_micro_kernel = PickMicroKernel();

inline void MicroKernel(const float* pa, const float* pb, float* c,
                        int64_t ldc, int64_t kc, int64_t mr, int64_t nr,
                        bool load_c) {
  g_micro_kernel(pa, pb, c, ldc, kc, mr, nr, load_c);
}

// Rank-1-update kernels for short outputs (decode-sized calls: a KV-cached
// extension runs the whole backbone over two rows, so n*k*m work rides on
// an O(k*m) weight read). The blocked path packs all of B — O(k*m) extra
// traffic that dwarfs the math when n is tiny — so instead stream each B
// row exactly once, in order, and axpy it into every (L1-resident) output
// row. Each C element still accumulates in ascending p order with separate
// mul-then-add, so results are bit-identical to the blocked and naive
// backends. Requires unit B column stride; C rows are ldc apart.

using RankOneFn = void (*)(const float* a, int64_t a_rs, int64_t a_cs,
                           const float* b, int64_t b_rs, float* c,
                           int64_t ldc, int64_t n, int64_t k, int64_t m,
                           bool accumulate);

/// Write mode's zero seed for n rows of m floats, ldc apart.
void ZeroRows(float* c, int64_t ldc, int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    std::memset(c + i * ldc, 0, static_cast<size_t>(m) * sizeof(float));
  }
}

void RankOneScalar(const float* a, int64_t a_rs, int64_t a_cs,
                   const float* b, int64_t b_rs, float* c, int64_t ldc,
                   int64_t n, int64_t k, int64_t m, bool accumulate) {
  if (!accumulate) ZeroRows(c, ldc, n, m);
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * b_rs;
    for (int64_t i = 0; i < n; ++i) {
      const float av = a[i * a_rs + p * a_cs];
      float* c_row = c + i * ldc;
      for (int64_t j = 0; j < m; ++j) c_row[j] += av * b_row[j];
    }
  }
}

#if BIGCITY_KERNEL_X86

__attribute__((target("avx512f"))) void RankOneAvx512(
    const float* a, int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
    float* c, int64_t ldc, int64_t n, int64_t k, int64_t m, bool accumulate) {
  if (!accumulate) ZeroRows(c, ldc, n, m);
  const int64_t mv = m / 16 * 16;
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * b_rs;
    for (int64_t i = 0; i < n; ++i) {
      const float av_s = a[i * a_rs + p * a_cs];
      const __m512 av = _mm512_set1_ps(av_s);
      float* c_row = c + i * ldc;
      int64_t j = 0;
      for (; j < mv; j += 16) {
        const __m512 prod = _mm512_mul_ps(av, _mm512_loadu_ps(b_row + j));
        _mm512_storeu_ps(c_row + j,
                         _mm512_add_ps(_mm512_loadu_ps(c_row + j), prod));
      }
      for (; j < m; ++j) c_row[j] += av_s * b_row[j];
    }
  }
}

__attribute__((target("avx2"))) void RankOneAvx2(
    const float* a, int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
    float* c, int64_t ldc, int64_t n, int64_t k, int64_t m, bool accumulate) {
  if (!accumulate) ZeroRows(c, ldc, n, m);
  const int64_t mv = m / 8 * 8;
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * b_rs;
    for (int64_t i = 0; i < n; ++i) {
      const float av_s = a[i * a_rs + p * a_cs];
      const __m256 av = _mm256_set1_ps(av_s);
      float* c_row = c + i * ldc;
      int64_t j = 0;
      for (; j < mv; j += 8) {
        const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(b_row + j));
        _mm256_storeu_ps(c_row + j,
                         _mm256_add_ps(_mm256_loadu_ps(c_row + j), prod));
      }
      for (; j < m; ++j) c_row[j] += av_s * b_row[j];
    }
  }
}

#endif  // BIGCITY_KERNEL_X86

RankOneFn PickRankOne() {
#if BIGCITY_KERNEL_X86
  if (__builtin_cpu_supports("avx512f")) return RankOneAvx512;
  if (__builtin_cpu_supports("avx2")) return RankOneAvx2;
#endif
  return RankOneScalar;
}

const RankOneFn g_rank_one = PickRankOne();

/// Rows up to which a product over prepacked panels still takes the
/// rank-one path. Packing then costs nothing, and the AVX-512 micro-kernel
/// beats streaming B from two rows on at every weight shape measured; the
/// AVX2 one loses at some short shapes (k = 8, or two rows of a 64×64
/// weight) and the scalar one at all of them, so they keep the unpacked
/// cut (DESIGN.md §4.8).
int64_t PickPrepackedRankOneRows() {
#if BIGCITY_KERNEL_X86
  if (g_micro_kernel == MicroKernelAvx512) return 1;
#endif
  return 2 * MR;
}

const int64_t g_prepacked_rank_one_rows = PickPrepackedRankOneRows();

/// The rank-one cut: a short product over a row-major B streams B's rows
/// through g_rank_one and never packs it. Short means at most two
/// micro-tiles of rows, or g_prepacked_rank_one_rows when B's panels are
/// prepacked.
inline bool IsRankOne(int64_t n, int64_t b_cs, bool prepacked) {
  return b_cs == 1 && n <= (prepacked ? g_prepacked_rank_one_rows : 2 * MR);
}

/// Offset of the (jc, pc) panel in a full packing of B[k, m]: every column
/// block before jc is NC wide (a multiple of NR), and within a block the
/// depth panels are stacked at its padded width.
inline int64_t PanelOffset(int64_t k, int64_t m, int64_t jc, int64_t pc) {
  return k * jc + pc * RoundUp(std::min(NC, m - jc), NR);
}

/// Blocked, panel-packed GEMM over logical operands given by strides:
/// C[n,m] (+)= A·B with A element (i,p) at a[i*a_rs + p*a_cs], B element
/// (p,j) at b[p*b_rs + j*b_cs] and C row i at c + i*ldc (unit column
/// stride). B's panels come from `packed` when given (it must hold this
/// B), else they are packed here one (jc, pc) panel at a time; the loop
/// nest is the same either way.
void GemmBlockedStrided(const float* a, int64_t a_rs, int64_t a_cs,
                        const float* b, int64_t b_rs, int64_t b_cs, float* c,
                        int64_t ldc, int64_t n, int64_t k, int64_t m,
                        bool accumulate, const PackedB* packed = nullptr) {
  if (n <= 0 || m <= 0) return;
  if (k <= 0) {
    // Empty inner dimension: write mode must still define the output.
    if (!accumulate) ZeroRows(c, ldc, n, m);
    return;
  }
  if (IsRankOne(n, b_cs, packed != nullptr)) {
    BIGCITY_TRACE_SPAN("gemm.compute", "kernels");
    g_rank_one(a, a_rs, a_cs, b, b_rs, c, ldc, n, k, m, accumulate);
    return;
  }
  // The pack buffer is thread-local: at serve sizes it exceeds the malloc
  // mmap threshold, and a fresh mmap/munmap plus page faults per GEMM call
  // costs more than the math of a small forward.
  thread_local std::vector<float> pb;
  if (packed == nullptr) {
    pb.resize(static_cast<size_t>(std::min(KC, k) *
                                  RoundUp(std::min(NC, m), NR)));
  }
  util::ThreadPool& pool = util::GlobalThreadPool();
  for (int64_t jc = 0; jc < m; jc += NC) {
    const int64_t nc = std::min(NC, m - jc);
    for (int64_t pc = 0; pc < k; pc += KC) {
      const int64_t kc = std::min(KC, k - pc);
      // A raw pointer, not the thread_local vector: a lambda body resolves
      // a thread_local to the *executing* thread's instance, and pooled
      // chunks run on worker threads that never packed anything.
      const float* pb_data = nullptr;
      if (packed != nullptr) {
        pb_data = packed->Panel(jc, pc);
      } else {
        // Pack/compute split per depth panel. Compute includes the
        // per-chunk A packing done inside the parallel body. Trace-only
        // (inert unless tracing is on): this loop runs hundreds of
        // thousands of times per training run and always-on clock reads
        // here cost several percent of total wall time.
        BIGCITY_TRACE_SPAN("gemm.pack", "kernels");
        PackB(b + pc * b_rs + jc * b_cs, b_rs, b_cs, kc, nc, pb.data());
        pb_data = pb.data();
      }
      BIGCITY_TRACE_SPAN("gemm.compute", "kernels");
      const bool load_c = accumulate || pc > 0;
      pool.ParallelFor(0, n, MC, [&](int64_t row_begin, int64_t row_end) {
        thread_local std::vector<float> pa;
        const int64_t mc = row_end - row_begin;
        pa.resize(static_cast<size_t>(RoundUp(mc, MR) * kc));
        PackA(a + row_begin * a_rs + pc * a_cs, a_rs, a_cs, mc, kc,
              pa.data());
        for (int64_t i0 = 0; i0 < mc; i0 += MR) {
          const float* pa_slab = pa.data() + (i0 / MR) * kc * MR;
          for (int64_t j0 = 0; j0 < nc; j0 += NR) {
            MicroKernel(pa_slab, pb_data + (j0 / NR) * kc * NR,
                        c + (row_begin + i0) * ldc + jc + j0, ldc, kc,
                        std::min(MR, mc - i0), std::min(NR, nc - j0),
                        load_c);
          }
        }
      });
    }
  }
}

GemmBackend DefaultBackend() {
  const char* env = std::getenv("BIGCITY_GEMM");
  if (env != nullptr && std::strcmp(env, "naive") == 0) {
    return GemmBackend::kNaive;
  }
  return GemmBackend::kBlocked;
}

GemmBackend g_backend = DefaultBackend();

// --- Packing store -----------------------------------------------------------

/// 64-bit hash of a float buffer's bytes, eight at a time. Each step
/// ((h ^ w) * odd, then an xor-shift) is a bijection of h for a fixed w, so
/// two equal-length buffers that differ in exactly one word (one flipped
/// bit, -0 against +0) always hash differently.
uint64_t HashFloats(const float* values, int64_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  const size_t size = static_cast<size_t>(count) * sizeof(float);
  uint64_t h = 0x9e3779b97f4a7c15ull ^ size;
  auto mix = [&h](uint64_t w) {
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  };
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, bytes + i, 8);
    mix(w);
  }
  if (i < size) {
    uint32_t w = 0;
    std::memcpy(&w, bytes + i, 4);
    mix(w);
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

struct PackKey {
  int64_t k, m;
  uint64_t hash;
  bool operator==(const PackKey&) const = default;
};

struct PackKeyHash {
  size_t operator()(const PackKey& key) const {
    return static_cast<size_t>(key.hash ^
                               (static_cast<uint64_t>(key.k) << 32) ^
                               static_cast<uint64_t>(key.m));
  }
};

/// Content-addressed map from (K, M, hash) to the live packing. Entries
/// hold weak references, so a packing dies with its last holder; dead
/// entries are swept as the map grows.
class PackStore {
 public:
  static PackStore& Global() {
    // Leaked: packings may be released during static destruction.
    static PackStore* store = new PackStore();
    return *store;
  }

  std::shared_ptr<const PackedB> Get(const float* b, int64_t k, int64_t m) {
    BIGCITY_COUNTER_INC("kernels.pack.lookups");
    const PackKey key{k, m, HashFloats(b, k * m)};
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      std::shared_ptr<const PackedB> live = it->second.lock();
      if (live != nullptr && live->Holds(b)) return live;
    }
    auto packed = std::make_shared<const PackedB>(b, k, m);
    BIGCITY_COUNTER_INC("kernels.pack.packings");
    entries_[key] = packed;
    if (entries_.size() > 2 * swept_size_ + 16) {
      std::erase_if(entries_,
                    [](const auto& entry) { return entry.second.expired(); });
      swept_size_ = entries_.size();
    }
    return packed;
  }

 private:
  std::mutex mu_;
  std::unordered_map<PackKey, std::weak_ptr<const PackedB>, PackKeyHash>
      entries_;
  size_t swept_size_ = 0;  // Entries left by the last sweep.
};

}  // namespace

PackedB::PackedB(const float* b, int64_t k, int64_t m)
    : k_(k),
      m_(m),
      bytes_(static_cast<size_t>(k * RoundUp(m, NR)) * sizeof(float)) {
  BIGCITY_CHECK(k > 0 && m > 0) << "empty packed operand " << k << "x" << m;
  // A private anonymous mapping rather than the heap: munmap hands the
  // pages back at once, where a freed multi-megabyte heap block may stay
  // in the allocator's arenas.
  void* pages = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  BIGCITY_CHECK(pages != MAP_FAILED)
      << "cannot map " << bytes_ << " bytes of packed panels";
  panels_ = static_cast<float*>(pages);
  for (int64_t jc = 0; jc < m; jc += NC) {
    const int64_t nc = std::min(NC, m - jc);
    for (int64_t pc = 0; pc < k; pc += KC) {
      PackB(b + pc * m + jc, m, 1, std::min(KC, k - pc), nc,
            panels_ + PanelOffset(k, m, jc, pc));
    }
  }
  BIGCITY_GAUGE_ADD("kernels.pack.live_packings", 1);
  BIGCITY_GAUGE_ADD("kernels.pack.live_bytes", bytes_);
}

PackedB::~PackedB() {
  munmap(panels_, bytes_);
  BIGCITY_GAUGE_ADD("kernels.pack.live_packings", -1);
  BIGCITY_GAUGE_ADD("kernels.pack.live_bytes", -static_cast<double>(bytes_));
}

const float* PackedB::Panel(int64_t jc, int64_t pc) const {
  return panels_ + PanelOffset(k_, m_, jc, pc);
}

bool PackedB::Holds(const float* b) const {
  // Walks the panels in PackB's order; padding columns are always zero and
  // are not compared.
  for (int64_t jc = 0; jc < m_; jc += NC) {
    const int64_t nc = std::min(NC, m_ - jc);
    for (int64_t pc = 0; pc < k_; pc += KC) {
      const int64_t kc = std::min(KC, k_ - pc);
      const float* slab = Panel(jc, pc);
      for (int64_t j0 = 0; j0 < nc; j0 += NR) {
        const size_t live =
            static_cast<size_t>(std::min(NR, nc - j0)) * sizeof(float);
        const float* src = b + pc * m_ + jc + j0;
        for (int64_t p = 0; p < kc; ++p) {
          if (std::memcmp(slab + p * NR, src + p * m_, live) != 0) {
            return false;
          }
        }
        slab += kc * NR;
      }
    }
  }
  return true;
}

std::shared_ptr<const PackedB> SharedPackB(const float* b, int64_t k,
                                           int64_t m) {
  return PackStore::Global().Get(b, k, m);
}

void SetBackend(GemmBackend backend) { g_backend = backend; }

GemmBackend backend() { return g_backend; }

void SetNumThreads(int num_threads) {
  util::SetGlobalThreadCount(num_threads);
}

int NumThreads() { return util::GlobalThreadCount(); }

// --- Naive reference --------------------------------------------------------

// The scalar triple-loop kernels the blocked backend must match bit-for-bit.
// No zero-skip shortcuts: 0 * Inf must produce NaN, not silently vanish.

void GemmABNaive(const float* a, const float* b, float* c, int64_t n,
                 int64_t k, int64_t m, bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    float* c_row = c + i * m;
    if (!accumulate) {
      std::memset(c_row, 0, static_cast<size_t>(m) * sizeof(float));
    }
    const float* a_row = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      const float* b_row = b + p * m;
      for (int64_t j = 0; j < m; ++j) c_row[j] += av * b_row[j];
    }
  }
}

void GemmABtNaive(const float* a, const float* b, float* c, int64_t n,
                  int64_t k, int64_t m, bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * m;
    for (int64_t j = 0; j < m; ++j) {
      const float* b_row = b + j * k;
      float acc = accumulate ? c_row[j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] = acc;
    }
  }
}

void GemmAtBNaive(const float* a, const float* b, float* c, int64_t n,
                  int64_t k, int64_t m, bool accumulate) {
  if (!accumulate) {
    for (int64_t p = 0; p < k; ++p) {
      std::memset(c + p * m, 0, static_cast<size_t>(m) * sizeof(float));
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * m;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      float* c_row = c + p * m;
      for (int64_t j = 0; j < m; ++j) c_row[j] += av * b_row[j];
    }
  }
}

namespace {

/// GemmStrided's naive backend: the same per-element ascending-p sums,
/// read through the strides.
void GemmStridedNaive(const float* a, int64_t a_rs, int64_t a_cs,
                      const float* b, int64_t b_rs, int64_t b_cs, float* c,
                      int64_t ldc, int64_t n, int64_t k, int64_t m,
                      bool accumulate) {
  for (int64_t i = 0; i < n; ++i) {
    float* c_row = c + i * ldc;
    for (int64_t j = 0; j < m; ++j) {
      float acc = accumulate ? c_row[j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a[i * a_rs + p * a_cs] * b[p * b_rs + j * b_cs];
      }
      c_row[j] = acc;
    }
  }
}

}  // namespace

// --- Blocked backend --------------------------------------------------------

void GemmABBlocked(const float* a, const float* b, float* c, int64_t n,
                   int64_t k, int64_t m, bool accumulate) {
  GemmBlockedStrided(a, k, 1, b, m, 1, c, m, n, k, m, accumulate);
}

void GemmABtBlocked(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m, bool accumulate) {
  // B[M,K] read as its transpose: element (p, j) of the logical [K,M]
  // operand is b[j*k + p].
  GemmBlockedStrided(a, k, 1, b, 1, k, c, m, n, k, m, accumulate);
}

void GemmAtBBlocked(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m, bool accumulate) {
  // A[N,K] read as its transpose: output rows are K, inner dimension is N,
  // and element (i, p) of the logical [K,N] operand is a[p*k + i].
  GemmBlockedStrided(a, 1, k, b, m, 1, c, m, k, n, m, accumulate);
}

bool GemmABReadsPanels(int64_t n) {
  return g_backend == GemmBackend::kBlocked &&
         !IsRankOne(n, /*b_cs=*/1, /*prepacked=*/true);
}

// --- Dispatch ----------------------------------------------------------------

// Dispatch-tier probes: every product in the library flows through these
// functions, so one call counter + one FLOP counter here gives exact
// model-level arithmetic totals (all three patterns do 2*n*k*m flops).

void GemmAB(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m, bool accumulate) {
  BIGCITY_COUNTER_INC("kernels.gemm.calls");
  BIGCITY_COUNTER_ADD("kernels.gemm.flops",
                      2ull * static_cast<uint64_t>(n * k * m));
  BIGCITY_TRACE_SPAN("gemm.AB", "kernels");
  if (g_backend == GemmBackend::kNaive) {
    GemmABNaive(a, b, c, n, k, m, accumulate);
  } else {
    GemmABBlocked(a, b, c, n, k, m, accumulate);
  }
}

void GemmAB(const float* a, const float* b, const PackedB& packed, float* c,
            int64_t n, bool accumulate) {
  const int64_t k = packed.k(), m = packed.m();
  BIGCITY_COUNTER_INC("kernels.gemm.calls");
  BIGCITY_COUNTER_ADD("kernels.gemm.flops",
                      2ull * static_cast<uint64_t>(n * k * m));
  BIGCITY_TRACE_SPAN("gemm.AB", "kernels");
  if (g_backend == GemmBackend::kNaive) {
    GemmABNaive(a, b, c, n, k, m, accumulate);
    return;
  }
  if (GemmABReadsPanels(n)) {
    BIGCITY_COUNTER_INC("kernels.gemm.prepacked_calls");
  }
  GemmBlockedStrided(a, k, 1, b, m, 1, c, m, n, k, m, accumulate, &packed);
}

void GemmStrided(const float* a, int64_t a_rs, int64_t a_cs, const float* b,
                 int64_t b_rs, int64_t b_cs, float* c, int64_t ldc, int64_t n,
                 int64_t k, int64_t m, bool accumulate) {
  BIGCITY_COUNTER_INC("kernels.gemm.calls");
  BIGCITY_COUNTER_ADD("kernels.gemm.flops",
                      2ull * static_cast<uint64_t>(n * k * m));
  BIGCITY_TRACE_SPAN("gemm.strided", "kernels");
  if (g_backend == GemmBackend::kNaive) {
    GemmStridedNaive(a, a_rs, a_cs, b, b_rs, b_cs, c, ldc, n, k, m,
                     accumulate);
  } else {
    GemmBlockedStrided(a, a_rs, a_cs, b, b_rs, b_cs, c, ldc, n, k, m,
                       accumulate);
  }
}

void GemmABt(const float* a, const float* b, float* c, int64_t n, int64_t k,
             int64_t m, bool accumulate) {
  BIGCITY_COUNTER_INC("kernels.gemm.calls");
  BIGCITY_COUNTER_ADD("kernels.gemm.flops",
                      2ull * static_cast<uint64_t>(n * k * m));
  BIGCITY_TRACE_SPAN("gemm.ABt", "kernels");
  if (g_backend == GemmBackend::kNaive) {
    GemmABtNaive(a, b, c, n, k, m, accumulate);
  } else {
    GemmABtBlocked(a, b, c, n, k, m, accumulate);
  }
}

void GemmAtB(const float* a, const float* b, float* c, int64_t n, int64_t k,
             int64_t m, bool accumulate) {
  BIGCITY_COUNTER_INC("kernels.gemm.calls");
  BIGCITY_COUNTER_ADD("kernels.gemm.flops",
                      2ull * static_cast<uint64_t>(n * k * m));
  BIGCITY_TRACE_SPAN("gemm.AtB", "kernels");
  if (g_backend == GemmBackend::kNaive) {
    GemmAtBNaive(a, b, c, n, k, m, accumulate);
  } else {
    GemmAtBBlocked(a, b, c, n, k, m, accumulate);
  }
}

}  // namespace bigcity::nn::kernels
