#ifndef BIGCITY_NN_TENSOR_H_
#define BIGCITY_NN_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/arena.h"
#include "obs/memory.h"
#include "util/rng.h"

namespace bigcity::nn {

namespace kernels {
class PackedB;
}  // namespace kernels

struct TensorImpl;

/// A registered parameter's write count and cached GEMM B-operand packing
/// (DESIGN.md §4.8).
struct PackedWeight {
  /// Bumped by every non-const Tensor::data() of the parameter, which makes
  /// a packing made at an older count stale. A write through a reference
  /// kept from before a forward is not seen; take data() again to write.
  std::atomic<uint64_t> version{0};
  /// Guards the packing below: forwards on several threads may share one
  /// model.
  std::mutex mu;
  uint64_t packed_version = 0;
  std::shared_ptr<const kernels::PackedB> panels;
};

/// Parent edges of a graph node; arena-backed inside a plan scope like
/// the payloads they keep alive.
using ParentVec =
    std::vector<std::shared_ptr<TensorImpl>,
                ArenaAllocator<std::shared_ptr<TensorImpl>>>;

/// Internal node of the autograd graph. Users interact with Tensor handles.
/// All payload storage (data, grad, parent edges, and — via
/// allocate_shared — the node itself) is allocator-routed: inside a
/// PlanScope it lands in the step's TensorArena and is recycled at the
/// step boundary; outside (parameters, persistent caches) it lives on the
/// heap with obs::MemoryTracker accounting at the allocator level.
struct TensorImpl {
  std::vector<int64_t> shape;
  FloatVec data;
  FloatVec grad;  // Same size as data once materialized.

  /// True for leaf parameters the optimizer should update.
  bool requires_grad = false;
  /// True if gradients must flow through this node (requires_grad for
  /// leaves; "any parent needs grad" for op outputs).
  bool needs_grad = false;

  ParentVec parents;
  /// Accumulates this node's grad into its parents' grads.
  std::function<void(TensorImpl&)> backward_fn;

  /// Introspection tags (DESIGN.md §4.10): creation order (monotonic per
  /// process, 0 = untagged) plus, under BIGCITY_OBS, the producing op and
  /// the innermost module scope active when the node was created. They let
  /// a non-finite guard trip name the first offending node/module.
  uint64_t seq = 0;
  const char* op_name = "";      // String literal; "" = untagged.
  const char* module_path = "";  // Owned by the module tree; "" = untagged.

  /// Set by Module::RegisterParameter, and only there: activations are
  /// created fresh by every call, so caching their packing would pack on
  /// every call anyway. Kept to one pointer: every graph node carries it
  /// (DESIGN.md §4.8, Memory).
  std::unique_ptr<PackedWeight> packed;

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return n;
  }
  /// Zero-fills and sizes the gradient buffer if not yet materialized.
  /// The buffer comes from grad's own allocator — the arena for step
  /// tensors, the heap for parameters created outside any scope — so a
  /// backward pass never needs a pinning dance.
  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// True unless a NoGradGuard is active on this thread. Ops skip graph
/// construction (parents/backward_fn) entirely while disabled, so
/// inference forwards free every intermediate as soon as its handle dies.
bool GradEnabled();

/// Thread-local RAII guard disabling autograd graph construction — the
/// serving hot path runs under one, which is what gives inference plans
/// their fixed arena footprint.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Value-semantic handle to a node in the autograd graph. Copies share the
/// underlying storage (like torch.Tensor). Tensors are dense row-major
/// float32, typically 1-D (vectors) or 2-D (matrices [rows, cols]).
class Tensor {
 public:
  /// Null handle; most APIs check for validity with is_valid().
  Tensor() = default;

  // --- Factories -----------------------------------------------------------

  /// All-zero tensor of the given shape.
  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);
  /// All-one tensor.
  static Tensor Ones(std::vector<int64_t> shape, bool requires_grad = false);
  /// Constant-filled tensor.
  static Tensor Full(std::vector<int64_t> shape, float value,
                     bool requires_grad = false);
  /// Tensor initialized from an explicit buffer (size must match shape).
  static Tensor FromData(std::vector<int64_t> shape, std::vector<float> data,
                         bool requires_grad = false);
  /// Same, from a payload with any allocator flavor (e.g. another
  /// tensor's data()).
  template <typename Alloc>
  static Tensor FromData(std::vector<int64_t> shape,
                         const std::vector<float, Alloc>& data,
                         bool requires_grad = false) {
    return FromSpan(std::move(shape), data.data(), data.size(),
                    requires_grad);
  }
  /// Same, from a raw (pointer, count) span.
  static Tensor FromSpan(std::vector<int64_t> shape, const float* values,
                         size_t count, bool requires_grad = false);
  /// Gaussian-initialized tensor (mean 0).
  static Tensor Randn(std::vector<int64_t> shape, util::Rng* rng,
                      float stddev = 1.0f, bool requires_grad = false);
  /// Uniform[-bound, bound]-initialized tensor.
  static Tensor RandUniform(std::vector<int64_t> shape, util::Rng* rng,
                            float bound, bool requires_grad = false);
  /// Xavier/Glorot-uniform initialization for a [fan_in, fan_out] matrix.
  static Tensor Xavier(int64_t fan_in, int64_t fan_out, util::Rng* rng,
                       bool requires_grad = true);
  /// 1-element tensor holding a scalar.
  static Tensor Scalar(float value, bool requires_grad = false);

  // --- Introspection -------------------------------------------------------

  bool is_valid() const { return impl_ != nullptr; }
  const std::vector<int64_t>& shape() const;
  int64_t numel() const;
  /// 2-D conveniences; CHECK-fail on other ranks.
  int64_t rows() const;
  int64_t cols() const;

  /// Mutable access counts as a write (PackedWeight::version).
  FloatVec& data();
  const FloatVec& data() const;
  FloatVec& grad();
  const FloatVec& grad() const;

  /// Element accessors (2-D and flat).
  float at(int64_t r, int64_t c) const;
  float at(int64_t i) const;
  /// Scalar value of a 1-element tensor.
  float item() const;

  bool requires_grad() const;
  /// Marks/unmarks this tensor as a trainable leaf. Only meaningful on
  /// leaves (no parents).
  void set_requires_grad(bool value);

  // --- Autograd ------------------------------------------------------------

  /// Runs reverse-mode differentiation from this (scalar) tensor, seeding
  /// d(self)/d(self) = 1 and accumulating into the .grad of every reachable
  /// node that needs gradients.
  void Backward();

  /// Clears this tensor's gradient buffer.
  void ZeroGrad();

  /// Returns a leaf copy of the data (no graph history, no grad).
  Tensor Detached() const;

  std::shared_ptr<TensorImpl> impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Creates an op-output node: shape/data as given, wired to parents with the
/// given backward function. needs_grad is derived from the parents and
/// forced off (graph edges dropped) while a NoGradGuard is active.
Tensor MakeOpResult(std::vector<int64_t> shape, FloatVec data,
                    ParentVec parents,
                    std::function<void(TensorImpl&)> backward_fn);

}  // namespace bigcity::nn

#endif  // BIGCITY_NN_TENSOR_H_
