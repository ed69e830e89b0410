#ifndef BIGCITY_NN_MODULE_H_
#define BIGCITY_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "util/status.h"

namespace bigcity::nn {

/// Base class for neural-network modules. Subclasses register their
/// parameters and child modules so that Parameters()/NamedParameters()
/// enumerate the full tree (used by optimizers, freezing, checkpointing).
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its registered children.
  std::vector<Tensor> Parameters() const;

  /// Parameters with hierarchical dotted names ("block0.attn.wq").
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;

  /// Only parameters with requires_grad == true.
  std::vector<Tensor> TrainableParameters() const;

  /// Sets requires_grad on every parameter in the subtree (freezing).
  void SetTrainable(bool trainable);

  /// Total number of scalar parameters in the subtree.
  int64_t NumParameters() const;

  /// Walks the subtree assigning module_path(): this module gets
  /// `root_path`, each child "<parent path>.<registered name>" — the same
  /// dotted prefixes NamedParameters() produces, so profiler and health
  /// attribution share one key space. Call once on the root after the
  /// module tree is fully constructed (it is static afterwards; LoRA only
  /// adds parameters, not modules).
  void AssignModulePaths(const std::string& root_path = "");

  /// Dotted path assigned by AssignModulePaths ("" before assignment and
  /// for the root itself).
  const std::string& module_path() const { return module_path_; }

  /// Serializes all named parameters to a binary stream / file.
  void SaveState(std::ostream& out) const;
  util::Status LoadState(std::istream& in);
  util::Status SaveStateToFile(const std::string& path) const;
  util::Status LoadStateFromFile(const std::string& path);

  /// Copies parameter values from another module with an identical
  /// parameter tree (shape-checked).
  void CopyStateFrom(const Module& other);

  /// Process-wide number of RegisterParameter calls so far. A cache of
  /// values computed from a module tree's parameters records it to notice
  /// parameters added after the fill (LoraLinear::EnableLora) without
  /// walking the tree.
  static uint64_t RegistrationCount();

 protected:
  /// Registers a parameter tensor under this module; returns it for
  /// convenient member initialization.
  Tensor RegisterParameter(std::string name, Tensor parameter);

  /// Registers a child module (not owned).
  void RegisterModule(std::string name, Module* child);

 private:
  std::vector<std::pair<std::string, Tensor>> parameters_;
  std::vector<std::pair<std::string, Module*>> children_;
  std::string module_path_;
};

}  // namespace bigcity::nn

#endif  // BIGCITY_NN_MODULE_H_
