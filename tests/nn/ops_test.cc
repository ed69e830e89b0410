#include "nn/ops.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/tensor.h"
#include "util/rng.h"

namespace bigcity::nn {
namespace {

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.data(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromData({3}, {10, 20, 30});
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.data(), (std::vector<float>{11, 22, 33, 14, 25, 36}));

  // Row-broadcast Add walks rows x columns; on a random odd shape, forward
  // and gradients must equal, bit for bit, the flat-index formulation
  // (b[i % cols], b's gradient summed over rows in ascending order).
  util::Rng rng(17);
  const int64_t rows = 7, cols = 37;
  Tensor x = Tensor::Randn({rows, cols}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({cols}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn({rows, cols}, &rng);
  Tensor y = Add(x, b);
  Sum(Mul(y, w)).Backward();
  std::vector<float> want_y(static_cast<size_t>(rows * cols));
  std::vector<float> want_b_grad(static_cast<size_t>(cols), 0.0f);
  for (size_t i = 0; i < want_y.size(); ++i) {
    const size_t j = i % static_cast<size_t>(cols);
    want_y[i] = x.data()[i] + b.data()[j];
    want_b_grad[j] += w.data()[i];
  }
  auto same_bits = [](const auto& got, const auto& want) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
               0;
  };
  EXPECT_TRUE(same_bits(y.data(), want_y));
  EXPECT_TRUE(same_bits(x.grad(), w.data()));
  EXPECT_TRUE(same_bits(b.grad(), want_b_grad));
}

TEST(OpsTest, AddScalarBroadcast) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor s = Tensor::Scalar(5.0f);
  EXPECT_EQ(Add(a, s).data(), (std::vector<float>{6, 7}));
}

TEST(OpsTest, MulDivSubNeg) {
  Tensor a = Tensor::FromData({2}, {6, 8});
  Tensor b = Tensor::FromData({2}, {2, 4});
  EXPECT_EQ(Mul(a, b).data(), (std::vector<float>{12, 32}));
  EXPECT_EQ(Div(a, b).data(), (std::vector<float>{3, 2}));
  EXPECT_EQ(Sub(a, b).data(), (std::vector<float>{4, 4}));
  EXPECT_EQ(Neg(a).data(), (std::vector<float>{-6, -8}));
}

TEST(OpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.data(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsTest, TransposeRoundTrip) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(Transpose(t).data(), a.data());
}

TEST(OpsTest, SumMean) {
  Tensor a = Tensor::FromData({4}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
}

TEST(OpsTest, MeanRows) {
  Tensor a = Tensor::FromData({2, 2}, {1, 3, 5, 7});
  Tensor m = MeanRows(a);
  EXPECT_EQ(m.shape(), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(m.data(), (std::vector<float>{3, 5}));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float sum = s.at(r, 0) + s.at(r, 1) + s.at(r, 2);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(s.at(r, 2), s.at(r, 1));
    EXPECT_GT(s.at(r, 1), s.at(r, 0));
  }
}

TEST(OpsTest, SoftmaxNumericallyStableForLargeLogits) {
  Tensor a = Tensor::FromData({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a);
  EXPECT_FALSE(std::isnan(s.at(0, 0)));
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1), 1.0f, 1e-6f);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::FromData({1, 3}, {0.3f, -1.2f, 2.0f});
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(ls.at(0, j), std::log(s.at(0, j)), 1e-5f);
  }
}

TEST(OpsTest, ActivationsKnownValues) {
  Tensor a = Tensor::FromData({3}, {-1, 0, 2});
  EXPECT_EQ(Relu(a).data(), (std::vector<float>{0, 0, 2}));
  auto lr = LeakyRelu(a, 0.1f).data();
  EXPECT_FLOAT_EQ(lr[0], -0.1f);
  EXPECT_FLOAT_EQ(lr[2], 2.0f);
  EXPECT_NEAR(Sigmoid(Tensor::Scalar(0.0f)).item(), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(Tensor::Scalar(0.0f)).item(), 0.0f, 1e-6f);
  // GELU(0) = 0; GELU is approximately identity for large x.
  EXPECT_NEAR(Gelu(Tensor::Scalar(0.0f)).item(), 0.0f, 1e-6f);
  EXPECT_NEAR(Gelu(Tensor::Scalar(10.0f)).item(), 10.0f, 1e-3f);
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  Tensor x = Tensor::FromData({1, 4}, {1, 2, 3, 4});
  Tensor gamma = Tensor::Ones({4});
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNorm(x, gamma, beta);
  float mean = 0, var = 0;
  for (int j = 0; j < 4; ++j) mean += y.at(0, j);
  mean /= 4;
  for (int j = 0; j < 4; ++j) var += (y.at(0, j) - mean) * (y.at(0, j) - mean);
  var /= 4;
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var, 1.0f, 1e-3f);
}

TEST(OpsTest, ConcatAxis0) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(c.data(), (std::vector<float>{1, 2, 3, 4, 5, 6}));
}

TEST(OpsTest, ConcatAxis1) {
  Tensor a = Tensor::FromData({2, 1}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(c.data(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
}

TEST(OpsTest, SliceRowsCols) {
  Tensor a = Tensor::FromData({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(SliceRows(a, 1, 3).data(), (std::vector<float>{4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(SliceCols(a, 0, 2).data(), (std::vector<float>{1, 2, 4, 5, 7, 8}));
}

TEST(OpsTest, RowsGather) {
  Tensor a = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = Rows(a, {2, 0, 2});
  EXPECT_EQ(g.data(), (std::vector<float>{5, 6, 1, 2, 5, 6}));
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(r.data(), a.data());
}

TEST(OpsTest, SegmentSoftmaxPerSegment) {
  Tensor scores = Tensor::FromData({4}, {1, 1, 2, 2});
  // Segments: {0,0}, {1,1} -> each pair uniform within its segment.
  Tensor s = SegmentSoftmax(scores, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(s.at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at(1), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at(2), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at(3), 0.5f, 1e-6f);
}

TEST(OpsTest, SegmentWeightedSum) {
  Tensor w = Tensor::FromData({3}, {1, 2, 3});
  Tensor v = Tensor::FromData({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor out = SegmentWeightedSum(w, v, {0, 0, 1}, 2);
  EXPECT_EQ(out.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(out.data(), (std::vector<float>{1, 2, 3, 3}));
}

TEST(OpsTest, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = CrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(OpsTest, CrossEntropyPerfectPrediction) {
  Tensor logits = Tensor::FromData({1, 3}, {100, 0, 0});
  EXPECT_NEAR(CrossEntropy(logits, {0}).item(), 0.0f, 1e-4f);
}

TEST(OpsTest, MseL1) {
  Tensor a = Tensor::FromData({2}, {1, 3});
  Tensor b = Tensor::FromData({2}, {2, 1});
  EXPECT_FLOAT_EQ(Mse(a, b).item(), (1.0f + 4.0f) / 2);
  EXPECT_FLOAT_EQ(L1(a, b).item(), (1.0f + 2.0f) / 2);
}

TEST(OpsTest, DropoutInferenceIsIdentity) {
  util::Rng rng(1);
  Tensor a = Tensor::FromData({4}, {1, 2, 3, 4});
  Tensor d = Dropout(a, 0.5f, &rng, /*training=*/false);
  EXPECT_EQ(d.data(), a.data());
}

TEST(OpsTest, DropoutTrainingMasksAndScales) {
  util::Rng rng(1);
  Tensor a = Tensor::Ones({10000});
  Tensor d = Dropout(a, 0.4f, &rng, /*training=*/true);
  int zeros = 0;
  for (float v : d.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros / 10000.0, 0.4, 0.03);
}

TEST(OpsTest, ArgmaxAndTopK) {
  Tensor a = Tensor::FromData({2, 4}, {1, 5, 3, 2, 9, 0, 8, 7});
  EXPECT_EQ(ArgmaxRows(a), (std::vector<int>{1, 0}));
  EXPECT_EQ(TopKRow(a, 1, 3), (std::vector<int>{0, 2, 3}));
}

}  // namespace
}  // namespace bigcity::nn
