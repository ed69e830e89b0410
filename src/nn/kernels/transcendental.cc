// Transcendental loops: GELU forward, GELU backward and exp (DESIGN.md §4.8).
//
// Each function is written once, as a branch-free scalar inline function,
// and each ISA variant is the same loop compiled under a different target
// attribute. This translation unit is built with -ffp-contract=off, so no
// variant contracts a multiply-add into an FMA (not even under
// -march=native), and with -fno-trapping-math, which lets GCC if-convert
// the selects and vectorize every variant. IEEE add, multiply, divide,
// compare and select round the same in every lane and in the scalar tail,
// so all variants give the same bits and a value never depends on where it
// sits in a buffer. No float is ever converted to an integer: the exponent
// of 2^n comes from the rounding shifter's bit pattern, which is defined
// for NaN too.
#include "nn/kernels/kernels.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#if defined(__x86_64__) && defined(__GNUC__)
#define BIGCITY_VMATH_X86 1
#else
#define BIGCITY_VMATH_X86 0
#endif

#define BIGCITY_VMATH_INLINE inline __attribute__((always_inline))

namespace bigcity::nn::kernels {

namespace {

// NaN-propagating clamps: a comparison with NaN is false, so a NaN operand
// is what both return.
BIGCITY_VMATH_INLINE float ClampAbove(float a, float hi) {
  return hi < a ? hi : a;
}
BIGCITY_VMATH_INLINE float ClampBelow(float a, float lo) {
  return a < lo ? lo : a;
}

/// tanh: Eigen's odd/even rational approximation (degree 13 over 6). The
/// input is clamped to ±7.90531110763549805, where the rational reaches ±1
/// in float; below |x| < 4e-4 tanh(x) rounds to x and passes through.
BIGCITY_VMATH_INLINE float ScalarTanh(float x) {
  constexpr float kClamp = 7.90531110763549805f;
  const float xc = ClampBelow(ClampAbove(x, kClamp), -kClamp);
  const float x2 = xc * xc;
  float p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = xc * p;
  float q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  const float t = p / q;
  return std::fabs(x) < 4e-4f ? x : t;
}

constexpr float kSqrt2OverPi = 0.7978845608028654f;

/// GPT-2's tanh-approximate GELU:
/// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
BIGCITY_VMATH_INLINE float ScalarGelu(float x) {
  const float t = ScalarTanh(kSqrt2OverPi * (x + 0.044715f * x * x * x));
  return 0.5f * x * (1.0f + t);
}

/// d GELU / dx of the same approximation.
BIGCITY_VMATH_INLINE float ScalarGeluDerivative(float x) {
  const float t = ScalarTanh(kSqrt2OverPi * (x + 0.044715f * x * x * x));
  const float du = kSqrt2OverPi * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

/// exp: Cephes' expf polynomial on r = x - n·ln2, |r| <= ln2/2. n is
/// rounded to nearest by adding 1.5·2^23, which also leaves n in the low
/// mantissa bits. 2^n is applied as two normal factors, so with x clamped
/// to [-104, 89] (n in [-150, 129]) overflow to +inf and gradual underflow
/// to 0 both come out of the final, single-rounding multiply.
BIGCITY_VMATH_INLINE float ScalarExp(float x) {
  constexpr float kShifter = 12582912.0f;  // 1.5 * 2^23.
  constexpr uint32_t kShifterBits = 0x4B400000u;
  const float xc = ClampBelow(ClampAbove(x, 89.0f), -104.0f);
  const float shifted = xc * 1.44269504088896341f + kShifter;
  const float n = shifted - kShifter;
  float r = xc - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  const float r2 = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r2 + r;
  p = p + 1.0f;
  const auto ni =
      static_cast<int32_t>(std::bit_cast<uint32_t>(shifted) - kShifterBits);
  const int32_t n_lo = ni >> 1;
  const int32_t n_hi = ni - n_lo;
  const float scale_lo =
      std::bit_cast<float>(static_cast<uint32_t>(n_lo + 127) << 23);
  const float scale_hi =
      std::bit_cast<float>(static_cast<uint32_t>(n_hi + 127) << 23);
  return p * scale_lo * scale_hi;
}

BIGCITY_VMATH_INLINE void GeluForwardLoop(const float* x, float* y,
                                          int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = ScalarGelu(x[i]);
}

BIGCITY_VMATH_INLINE void GeluBackwardLoop(const float* x, const float* dy,
                                           float* dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * ScalarGeluDerivative(x[i]);
}

BIGCITY_VMATH_INLINE void ExpLoop(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = ScalarExp(x[i]);
}

// One ISA's build of the three loops: the same inline source under `attr`.
#define BIGCITY_VMATH_VARIANT(attr, suffix)                                  \
  attr void GeluForward##suffix(const float* x, float* y, int64_t n) {      \
    GeluForwardLoop(x, y, n);                                               \
  }                                                                         \
  attr void GeluBackward##suffix(const float* x, const float* dy,          \
                                 float* dx, int64_t n) {                    \
    GeluBackwardLoop(x, dy, dx, n);                                         \
  }                                                                         \
  attr void Exp##suffix(const float* x, float* y, int64_t n) {              \
    ExpLoop(x, y, n);                                                       \
  }                                                                         \
  constexpr TranscendentalLoops kLoops##suffix = {                          \
      GeluForward##suffix, GeluBackward##suffix, Exp##suffix};

BIGCITY_VMATH_VARIANT(, Baseline)
#if BIGCITY_VMATH_X86
BIGCITY_VMATH_VARIANT(__attribute__((target("avx2"))), Avx2)
BIGCITY_VMATH_VARIANT(__attribute__((target("avx512f"))), Avx512)
#endif

#undef BIGCITY_VMATH_VARIANT

}  // namespace

const TranscendentalLoops* TranscendentalLoopsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kBaseline:
      return &kLoopsBaseline;
#if BIGCITY_VMATH_X86
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2") ? &kLoopsAvx2 : nullptr;
    case SimdLevel::kAvx512:
      return __builtin_cpu_supports("avx512f") ? &kLoopsAvx512 : nullptr;
#else
    case SimdLevel::kAvx2:
    case SimdLevel::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

namespace {

/// The widest variant this CPU runs, picked once at startup.
const TranscendentalLoops* PickLoops() {
  for (SimdLevel level : {SimdLevel::kAvx512, SimdLevel::kAvx2}) {
    if (const TranscendentalLoops* loops = TranscendentalLoopsFor(level)) {
      return loops;
    }
  }
  return &kLoopsBaseline;
}

const TranscendentalLoops* const g_loops = PickLoops();

}  // namespace

void GeluForward(const float* x, float* y, int64_t n) {
  g_loops->gelu_forward(x, y, n);
}

void GeluBackward(const float* x, const float* dy, float* dx, int64_t n) {
  g_loops->gelu_backward(x, dy, dx, n);
}

void Exp(const float* x, float* y, int64_t n) { g_loops->exp(x, y, n); }

}  // namespace bigcity::nn::kernels
