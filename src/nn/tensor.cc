#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_set>

#include "obs/profiler.h"
#include "util/check.h"

namespace bigcity::nn {

namespace {

/// Process-wide creation order for autograd nodes (1-based; 0 = untagged).
/// Always on: one relaxed fetch_add per tensor is noise next to the
/// allocation it accompanies, and keeping it unconditional means a
/// BIGCITY_OBS=OFF binary still has a stable node ordering.
uint64_t NextSeq() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Grad-construction switch flipped by NoGradGuard (thread-local so a
/// no-grad serve worker never affects a concurrently training thread).
thread_local bool g_grad_enabled = true;

/// Allocates the graph node itself through the arena allocator, so inside
/// a plan scope the node + shared_ptr control block are recycled with the
/// payloads they manage.
std::shared_ptr<TensorImpl> NewImpl() {
  return std::allocate_shared<TensorImpl>(ArenaAllocator<TensorImpl>());
}

std::shared_ptr<TensorImpl> NewLeaf(std::vector<int64_t> shape,
                                    FloatVec data, bool requires_grad) {
  auto impl = NewImpl();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  impl->needs_grad = requires_grad;
  impl->seq = NextSeq();
  BIGCITY_CHECK_EQ(static_cast<int64_t>(impl->data.size()), impl->numel())
      << "data size " << impl->data.size() << " vs numel " << impl->numel()
      << " (rank " << impl->shape.size() << ")";
  return impl;
}

}  // namespace

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return Tensor(NewLeaf(std::move(shape), FloatVec(n, 0.0f),
                        requires_grad));
}

Tensor Tensor::Ones(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value,
                    bool requires_grad) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return Tensor(NewLeaf(std::move(shape), FloatVec(n, value),
                        requires_grad));
}

Tensor Tensor::FromData(std::vector<int64_t> shape, std::vector<float> data,
                        bool requires_grad) {
  return Tensor(NewLeaf(std::move(shape),
                        FloatVec(data.begin(), data.end()), requires_grad));
}

Tensor Tensor::FromSpan(std::vector<int64_t> shape, const float* values,
                        size_t count, bool requires_grad) {
  return Tensor(
      NewLeaf(std::move(shape), FloatVec(values, values + count),
              requires_grad));
}

Tensor Tensor::Randn(std::vector<int64_t> shape, util::Rng* rng, float stddev,
                     bool requires_grad) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  FloatVec data(n);
  for (auto& v : data) v = static_cast<float>(rng->Normal(0.0, stddev));
  return Tensor(NewLeaf(std::move(shape), std::move(data), requires_grad));
}

Tensor Tensor::RandUniform(std::vector<int64_t> shape, util::Rng* rng,
                           float bound, bool requires_grad) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  FloatVec data(n);
  for (auto& v : data) v = static_cast<float>(rng->Uniform(-bound, bound));
  return Tensor(NewLeaf(std::move(shape), std::move(data), requires_grad));
}

Tensor Tensor::Xavier(int64_t fan_in, int64_t fan_out, util::Rng* rng,
                      bool requires_grad) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandUniform({fan_in, fan_out}, rng, bound, requires_grad);
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

const std::vector<int64_t>& Tensor::shape() const {
  BIGCITY_CHECK(is_valid());
  return impl_->shape;
}

int64_t Tensor::numel() const {
  BIGCITY_CHECK(is_valid());
  return impl_->numel();
}

int64_t Tensor::rows() const {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK_EQ(impl_->shape.size(), 2u);
  return impl_->shape[0];
}

int64_t Tensor::cols() const {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK_EQ(impl_->shape.size(), 2u);
  return impl_->shape[1];
}

FloatVec& Tensor::data() {
  BIGCITY_CHECK(is_valid());
  if (impl_->packed != nullptr) {
    impl_->packed->version.fetch_add(1, std::memory_order_relaxed);
  }
  return impl_->data;
}

const FloatVec& Tensor::data() const {
  BIGCITY_CHECK(is_valid());
  return impl_->data;
}

FloatVec& Tensor::grad() {
  BIGCITY_CHECK(is_valid());
  impl_->EnsureGrad();
  return impl_->grad;
}

const FloatVec& Tensor::grad() const {
  BIGCITY_CHECK(is_valid());
  impl_->EnsureGrad();
  return impl_->grad;
}

float Tensor::at(int64_t r, int64_t c) const {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK_EQ(impl_->shape.size(), 2u);
  BIGCITY_CHECK(r >= 0 && r < impl_->shape[0]);
  BIGCITY_CHECK(c >= 0 && c < impl_->shape[1]);
  return impl_->data[static_cast<size_t>(r * impl_->shape[1] + c)];
}

float Tensor::at(int64_t i) const {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK(i >= 0 && i < impl_->numel());
  return impl_->data[static_cast<size_t>(i)];
}

float Tensor::item() const {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK_EQ(impl_->numel(), 1);
  return impl_->data[0];
}

bool Tensor::requires_grad() const {
  BIGCITY_CHECK(is_valid());
  return impl_->requires_grad;
}

void Tensor::set_requires_grad(bool value) {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK(impl_->parents.empty())
      << "set_requires_grad is only meaningful on leaf tensors";
  impl_->requires_grad = value;
  impl_->needs_grad = value;
}

void Tensor::Backward() {
  BIGCITY_CHECK(is_valid());
  BIGCITY_CHECK_EQ(impl_->numel(), 1)
      << "Backward() must start from a scalar loss";

  // Iterative post-order DFS producing a topological order (parents before
  // children in `topo`, so we execute in reverse). The walk is profiled as
  // its own op; the backward ops below open their own scopes.
  std::vector<TensorImpl*> topo;
  {
    BIGCITY_PROFILE_OP("BackwardGraphWalk");
    std::unordered_set<TensorImpl*> visited;
    struct Frame {
      TensorImpl* node;
      size_t next_parent;
    };
    std::vector<Frame> stack;
    stack.push_back({impl_.get(), 0});
    visited.insert(impl_.get());
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_parent < frame.node->parents.size()) {
        TensorImpl* parent = frame.node->parents[frame.next_parent].get();
        ++frame.next_parent;
        if (parent->needs_grad && visited.insert(parent).second) {
          stack.push_back({parent, 0});
        }
      } else {
        topo.push_back(frame.node);
        stack.pop_back();
      }
    }
  }

  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) {
      node->EnsureGrad();
      node->backward_fn(*node);
    }
  }
}

void Tensor::ZeroGrad() {
  BIGCITY_CHECK(is_valid());
  if (impl_->grad.size() != impl_->data.size()) {
    impl_->EnsureGrad();
  } else {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

Tensor Tensor::Detached() const {
  BIGCITY_CHECK(is_valid());
  // The copy re-captures the CURRENT allocation scope: detaching under an
  // ArenaPin is how a result escapes its step arena onto the heap.
  return Tensor(NewLeaf(impl_->shape,
                        FloatVec(impl_->data.begin(), impl_->data.end()),
                        /*requires_grad=*/false));
}

Tensor MakeOpResult(std::vector<int64_t> shape, FloatVec data,
                    ParentVec parents,
                    std::function<void(TensorImpl&)> backward_fn) {
  auto impl = NewImpl();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  BIGCITY_CHECK_EQ(static_cast<int64_t>(impl->data.size()), impl->numel());
  bool needs = false;
  if (g_grad_enabled) {
    for (const auto& p : parents) needs = needs || p->needs_grad;
  }
  impl->needs_grad = needs;
  if (needs) {
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward_fn);
  }
  impl->seq = NextSeq();
#if BIGCITY_OBS
  // Tag the node with the producing op and innermost module scope; when
  // the profiler is armed, also wrap backward_fn so the backward pass is
  // billed to the same (module, op) row with the cost estimate the
  // forward op stashed.
  if (const obs::internal::OpFrame* frame =
          obs::internal::CurrentOpFrame()) {
    impl->op_name = frame->op;
    impl->module_path = frame->module;
    if (obs::ProfilerEnabled() && impl->backward_fn) {
      impl->backward_fn = [op = frame->op, module = frame->module,
                           bwd_flops = frame->bwd_flops,
                           bwd_bytes = frame->bwd_bytes,
                           inner = std::move(impl->backward_fn)](
                              TensorImpl& self) {
        obs::ScopedOp profile_op(op, /*backward=*/true, module);
        profile_op.SetCost(bwd_flops, bwd_bytes);
        inner(self);
      };
    }
  }
#endif
  return Tensor(std::move(impl));
}

}  // namespace bigcity::nn
