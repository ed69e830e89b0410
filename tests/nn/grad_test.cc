// Finite-difference gradient verification for every differentiable op.
#include "nn/grad_check.h"

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "nn/kernels/fused.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace bigcity::nn {
namespace {

constexpr float kTolerance = 3e-2f;  // float32 finite differences are noisy.

struct GradCase {
  std::string name;
  // Builds a scalar loss from the test input x [3,4].
  std::function<Tensor(const Tensor&)> loss;
};

class OpGradTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradTest, MatchesFiniteDifferences) {
  util::Rng rng(123);
  Tensor x = Tensor::Randn({3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  // Keep values away from kinks (relu/abs at 0) for stable numerics.
  for (auto& v : x.data()) {
    if (std::fabs(v) < 0.05f) v = v < 0 ? -0.1f : 0.1f;
  }
  const auto& param = GetParam();
  float err = MaxGradError(x, [&]() { return param.loss(x); });
  EXPECT_LT(err, kTolerance) << "op: " << param.name;
}

Tensor Weights34() {
  return Tensor::FromData({3, 4}, {0.3f, -0.2f, 0.5f, 0.1f, -0.4f, 0.2f,
                                   0.7f, -0.1f, 0.2f, 0.6f, -0.3f, 0.4f});
}

std::vector<GradCase> MakeCases() {
  return {
      {"add", [](const Tensor& x) { return Sum(Mul(Add(x, Weights34()), Weights34())); }},
      {"sub", [](const Tensor& x) { return Sum(Mul(Sub(Weights34(), x), Weights34())); }},
      {"mul", [](const Tensor& x) { return Sum(Mul(x, Weights34())); }},
      {"div", [](const Tensor& x) { return Sum(Div(Weights34(), AddConst(Square(x), 1.0f))); }},
      {"div_num", [](const Tensor& x) { return Sum(Div(x, AddConst(Square(Weights34()), 0.5f))); }},
      {"scale", [](const Tensor& x) { return Sum(Scale(x, -2.5f)); }},
      {"addconst", [](const Tensor& x) { return Sum(Square(AddConst(x, 3.0f))); }},
      {"exp", [](const Tensor& x) { return Sum(Exp(x)); }},
      {"log", [](const Tensor& x) { return Sum(Log(AddConst(Square(x), 1.0f))); }},
      {"sqrt", [](const Tensor& x) { return Sum(Sqrt(AddConst(Square(x), 1.0f))); }},
      {"square", [](const Tensor& x) { return Sum(Square(x)); }},
      {"abs", [](const Tensor& x) { return Sum(Abs(x)); }},
      {"relu", [](const Tensor& x) { return Sum(Mul(Relu(x), Weights34())); }},
      {"leakyrelu", [](const Tensor& x) { return Sum(Mul(LeakyRelu(x), Weights34())); }},
      {"gelu", [](const Tensor& x) { return Sum(Mul(Gelu(x), Weights34())); }},
      {"tanh", [](const Tensor& x) { return Sum(Mul(Tanh(x), Weights34())); }},
      {"sigmoid", [](const Tensor& x) { return Sum(Mul(Sigmoid(x), Weights34())); }},
      {"matmul_lhs", [](const Tensor& x) {
         Tensor w = Tensor::FromData({4, 2}, {0.1f, 0.2f, -0.3f, 0.4f,
                                              0.5f, -0.6f, 0.7f, 0.8f});
         return Sum(Square(MatMul(x, w)));
       }},
      {"matmul_rhs", [](const Tensor& x) {
         Tensor a = Tensor::FromData({2, 3}, {0.5f, -0.2f, 0.3f,
                                              0.1f, 0.4f, -0.6f});
         return Sum(Square(MatMul(a, x)));
       }},
      {"transpose", [](const Tensor& x) { return Sum(Square(Transpose(x))); }},
      {"mean", [](const Tensor& x) { return Mean(Square(x)); }},
      {"meanrows", [](const Tensor& x) { return Sum(Square(MeanRows(x))); }},
      {"sumcols", [](const Tensor& x) { return Sum(Square(SumCols(x))); }},
      {"softmax", [](const Tensor& x) { return Sum(Mul(Softmax(x), Weights34())); }},
      {"logsoftmax", [](const Tensor& x) { return Sum(Mul(LogSoftmax(x), Weights34())); }},
      {"layernorm_x", [](const Tensor& x) {
         Tensor gamma = Tensor::FromData({4}, {1.0f, 0.8f, 1.2f, 0.9f});
         Tensor beta = Tensor::FromData({4}, {0.1f, -0.1f, 0.0f, 0.2f});
         return Sum(Mul(LayerNorm(x, gamma, beta), Weights34()));
       }},
      {"concat0", [](const Tensor& x) {
         return Sum(Square(Concat({x, Weights34()}, 0)));
       }},
      {"concat1", [](const Tensor& x) {
         return Sum(Square(Concat({x, x}, 1)));
       }},
      {"slice_rows", [](const Tensor& x) { return Sum(Square(SliceRows(x, 1, 3))); }},
      {"slice_cols", [](const Tensor& x) { return Sum(Square(SliceCols(x, 1, 4))); }},
      {"rows", [](const Tensor& x) { return Sum(Square(Rows(x, {2, 0, 2}))); }},
      {"reshape", [](const Tensor& x) { return Sum(Square(Reshape(x, {4, 3}))); }},
      {"segment_softmax", [](const Tensor& x) {
         Tensor flat = Reshape(x, {12});
         Tensor w = Reshape(Weights34(), {12});
         return Sum(Mul(SegmentSoftmax(flat, {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}, 4), w));
       }},
      {"segment_weighted_sum_w", [](const Tensor& x) {
         Tensor flat = Reshape(SliceRows(x, 0, 1), {4});
         Tensor v = Tensor::FromData({4, 2}, {0.4f, -0.1f, 0.3f, 0.2f,
                                              -0.5f, 0.6f, 0.1f, 0.7f});
         return Sum(Square(SegmentWeightedSum(flat, v, {0, 1, 0, 1}, 2)));
       }},
      {"segment_weighted_sum_v", [](const Tensor& x) {
         Tensor w = Tensor::FromData({3}, {0.5f, -0.3f, 0.8f});
         return Sum(Square(SegmentWeightedSum(w, x, {0, 1, 0}, 2)));
       }},
      {"cross_entropy", [](const Tensor& x) {
         return CrossEntropy(x, {1, 3, 0});
       }},
      {"mse", [](const Tensor& x) { return Mse(x, Weights34()); }},
      {"l1", [](const Tensor& x) { return L1(x, Weights34()); }},
  };
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

TEST(GradCheckTest, LayerNormGammaBetaGrads) {
  util::Rng rng(7);
  Tensor x = Tensor::Randn({3, 4}, &rng, 1.0f);
  Tensor gamma = Tensor::FromData({4}, {1.0f, 0.8f, 1.2f, 0.9f},
                                  /*requires_grad=*/true);
  Tensor beta = Tensor::FromData({4}, {0.0f, 0.1f, -0.1f, 0.2f},
                                 /*requires_grad=*/true);
  auto loss = [&]() {
    return Sum(Mul(LayerNorm(x, gamma, beta), Weights34()));
  };
  EXPECT_LT(MaxGradError(gamma, loss), kTolerance);
  EXPECT_LT(MaxGradError(beta, loss), kTolerance);
}

// The GELU kernel's tanh is clamped where its argument
// √(2/π)·(x + 0.044715·x³) reaches ±7.9053 (|x| ≈ 4.84), and passes its
// input through below 4e-4. Check the analytic gradient on both sides of
// each switch.
TEST(GradCheckTest, GeluAtTanhClampAndPassThrough) {
  Tensor x = Tensor::FromData({3, 4},
                              {4.835f, 4.84f, 4.845f, -4.84f,   //
                               -4.835f, -4.845f, 1e-4f, -2e-4f,  //
                               3e-4f, 4.5e-4f, -4.5e-4f, 0.0f},
                              /*requires_grad=*/true);
  const Tensor b = Tensor::FromData({4}, {0.0f, 0.0f, 0.0f, 0.0f});
  auto gelu = [&]() { return Sum(Mul(Gelu(x), Weights34())); };
  EXPECT_LT(MaxGradError(x, gelu), kTolerance);
  auto bias_gelu = [&]() { return Sum(Mul(BiasGelu(x, b), Weights34())); };
  EXPECT_LT(MaxGradError(x, bias_gelu), kTolerance);
}

TEST(GradCheckTest, EmbeddingGradScattersIntoTable) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6},
                                  /*requires_grad=*/true);
  Tensor out = Embedding(table, {1, 1, 2});
  Sum(out).Backward();
  // Row 1 gathered twice -> grad 2; row 2 once; row 0 never.
  EXPECT_EQ(table.grad(), (std::vector<float>{0, 0, 2, 2, 1, 1}));
}

}  // namespace
}  // namespace bigcity::nn
