#ifndef BIGCITY_NN_KERNELS_KERNELS_H_
#define BIGCITY_NN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace bigcity::nn::kernels {

// High-performance GEMM layer shared by every nn op. Three access patterns
// cover the forward/backward products over whole tensors:
//
//   GemmAB  : C[N,M] (+)= A[N,K]  · B[K,M]
//   GemmABt : C[N,M] (+)= A[N,K]  · B[M,K]^T
//   GemmAtB : C[K,M] (+)= A[N,K]^T · B[N,M]
//
// GemmStrided is their general case over strided operands and output rows
// (the attention op's per-head column blocks).
//
// `accumulate` selects += (gradient accumulation) vs = (write mode; the
// destination is fully overwritten and need not be initialized).
//
// Numerical contract: for every output element, products are added in
// ascending order of the inner dimension, starting from the destination
// value (accumulate) or 0 (write). The blocked and naive backends follow
// this contract exactly, so they produce bit-identical results for any
// shape, and the blocked backend is bit-identical for any thread count
// (rows are partitioned statically; see util/thread_pool.h).
//
// Unlike the pre-kernel-layer loops, no backend skips zero multiplicands:
// 0 · Inf and 0 · NaN propagate NaN per IEEE-754, which the trainer's
// non-finite step guards rely on.

/// Backend selection. The blocked backend packs operand panels and uses a
/// register-tiled micro-kernel; the naive backend is the scalar triple-loop
/// reference. Default is blocked, overridable via the BIGCITY_GEMM
/// environment variable ("naive" or "blocked") read at first use.
enum class GemmBackend { kBlocked, kNaive };

void SetBackend(GemmBackend backend);
GemmBackend backend();

/// Sets the worker-thread count for the blocked backend (clamped to >= 1).
/// Any value yields bit-identical results.
void SetNumThreads(int num_threads);
int NumThreads();

// --- Dispatching entry points (honor backend()) ----------------------------

void GemmAB(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m, bool accumulate);
void GemmABt(const float* a, const float* b, float* c, int64_t n, int64_t k,
             int64_t m, bool accumulate);
void GemmAtB(const float* a, const float* b, float* c, int64_t n, int64_t k,
             int64_t m, bool accumulate);

/// C[N,M] (+)= A[N,K] · B[K,M] over strided operands: A element (i,p) at
/// a[i*a_rs + p*a_cs], B element (p,j) at b[p*b_rs + j*b_cs], and C row i
/// at c + i*ldc (unit column stride). The three entries above are its
/// contiguous cases; the fused attention op reads each head's Q/K/V columns
/// and writes its output columns in place through it. Same contract.
void GemmStrided(const float* a, int64_t a_rs, int64_t a_cs, const float* b,
                 int64_t b_rs, int64_t b_cs, float* c, int64_t ldc, int64_t n,
                 int64_t k, int64_t m, bool accumulate);

// --- Prepacked B operands ----------------------------------------------------
//
// The blocked backend copies B into NR-column panels on every call. When B
// is a weight that does not change between calls, the copy can be made
// once: PackedB holds every panel the loop nest of one GemmAB call would
// pack, and the GemmAB overload below reads them instead. The panels feed
// the same micro-kernel through the same loop nest, so the bits equal
// GemmAB(a, b, ...) for every shape, backend and thread count.

/// Row-major B[K,M] packed into the blocked backend's panel layout.
/// Immutable once built. The panels live in their own page mapping, so
/// destroying a packing returns its pages to the OS.
class PackedB {
 public:
  PackedB(const float* b, int64_t k, int64_t m);
  ~PackedB();
  PackedB(const PackedB&) = delete;
  PackedB& operator=(const PackedB&) = delete;

  int64_t k() const { return k_; }
  int64_t m() const { return m_; }
  size_t bytes() const { return bytes_; }
  /// True when b[K,M] has exactly the bytes these panels were packed from
  /// (so -0 and +0 differ). Compares the panels' live columns in place.
  bool Holds(const float* b) const;
  /// The panel of column block `jc` and depth block `pc` (both multiples of
  /// the backend's blocking; internal to the loop nest).
  const float* Panel(int64_t jc, int64_t pc) const;

 private:
  int64_t k_, m_;
  size_t bytes_;
  float* panels_ = nullptr;
};

/// The live packing of row-major b[K,M], shared by content: a packing is
/// made only when no live one holds the same bytes (found by shape and a
/// 64-bit content hash, then verified with PackedB::Holds). Each distinct
/// content is therefore packed once while any holder keeps it alive.
/// Thread-safe. Counts kernels.pack.lookups (calls) and
/// kernels.pack.packings (misses); the gauges kernels.pack.live_packings
/// and kernels.pack.live_bytes follow every PackedB made and freed.
std::shared_ptr<const PackedB> SharedPackB(const float* b, int64_t k,
                                           int64_t m);

/// Whether a prepacked GemmAB with `n` output rows under the current
/// backend reads packed panels. Short products (the rank-one path) and the
/// naive backend read row-major B, so a caller need not fetch a packing
/// for them. Short means one row with the AVX-512 micro-kernel, else up to
/// eight rows as for an unpacked B.
bool GemmABReadsPanels(int64_t n);

/// C[N,M] (+)= A[N,K] · B[K,M] with B also given as its packing (built from
/// the same bytes as `b`, K = packed.k(), M = packed.m()). Honors backend()
/// like GemmAB and gives the same bits; the naive backend and the rank-one
/// path read `b`, the blocked loop nest reads the panels (counted by
/// kernels.gemm.prepacked_calls).
void GemmAB(const float* a, const float* b, const PackedB& packed, float* c,
            int64_t n, bool accumulate);

// --- Fixed-backend variants (equivalence tests, benchmarks) ----------------

void GemmABNaive(const float* a, const float* b, float* c, int64_t n,
                 int64_t k, int64_t m, bool accumulate);
void GemmABtNaive(const float* a, const float* b, float* c, int64_t n,
                  int64_t k, int64_t m, bool accumulate);
void GemmAtBNaive(const float* a, const float* b, float* c, int64_t n,
                  int64_t k, int64_t m, bool accumulate);

void GemmABBlocked(const float* a, const float* b, float* c, int64_t n,
                   int64_t k, int64_t m, bool accumulate);
void GemmABtBlocked(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m, bool accumulate);
void GemmAtBBlocked(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m, bool accumulate);

// --- Transcendental loops ----------------------------------------------------
//
// Elementwise loops over n floats behind every GELU and softmax. The output
// may alias the input. Each ISA variant is compiled from one scalar source
// without FMA contraction, so every variant, every vector lane and the
// scalar tail give the same bits: a value never depends on its position in
// the buffer (DESIGN.md §4.8). The widest variant the CPU supports is
// picked once at startup. NaN propagates through all three.

/// y = GELU(x), GPT-2's tanh approximation
/// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))). Absolute error <= 2e-6
/// against the same formula in double on [-20, 20].
void GeluForward(const float* x, float* y, int64_t n);

/// dx = dy · GELU'(x) (write mode). Absolute error of GELU' <= 1e-5.
void GeluBackward(const float* x, const float* dy, float* dx, int64_t n);

/// y = exp(x). Relative error <= 2e-7 on [-87, 10]; exp(-inf) = 0,
/// exp(+inf) = +inf, results below FLT_MIN underflow gradually.
void Exp(const float* x, float* y, int64_t n);

// --- Fixed-ISA variants (equivalence tests) ---------------------------------

enum class SimdLevel { kBaseline, kAvx2, kAvx512 };

struct TranscendentalLoops {
  void (*gelu_forward)(const float* x, float* y, int64_t n);
  void (*gelu_backward)(const float* x, const float* dy, float* dx,
                        int64_t n);
  void (*exp)(const float* x, float* y, int64_t n);
};

/// The loops above built for `level`, or nullptr when this CPU (or this
/// build's target) cannot run it.
const TranscendentalLoops* TranscendentalLoopsFor(SimdLevel level);

}  // namespace bigcity::nn::kernels

#endif  // BIGCITY_NN_KERNELS_KERNELS_H_
