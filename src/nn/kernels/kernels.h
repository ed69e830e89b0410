#ifndef BIGCITY_NN_KERNELS_KERNELS_H_
#define BIGCITY_NN_KERNELS_KERNELS_H_

#include <cstdint>

namespace bigcity::nn::kernels {

// High-performance GEMM layer shared by every nn op. Three access patterns
// cover all forward/backward products in the models:
//
//   GemmAB  : C[N,M] (+)= A[N,K]  · B[K,M]
//   GemmABt : C[N,M] (+)= A[N,K]  · B[M,K]^T
//   GemmAtB : C[K,M] (+)= A[N,K]^T · B[N,M]
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
