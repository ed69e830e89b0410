#include "nn/module.h"

#include <atomic>

#include "util/check.h"
#include "util/checkpoint.h"
#include "util/io.h"

namespace bigcity::nn {

namespace {
std::atomic<uint64_t> g_registrations{0};
}  // namespace

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> result;
  for (const auto& [name, p] : NamedParameters()) result.push_back(p);
  return result;
}

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> result;
  for (const auto& [name, p] : parameters_) result.emplace_back(name, p);
  for (const auto& [name, child] : children_) {
    for (auto& [child_name, p] : child->NamedParameters()) {
      result.emplace_back(name + "." + child_name, p);
    }
  }
  return result;
}

std::vector<Tensor> Module::TrainableParameters() const {
  std::vector<Tensor> result;
  for (const auto& p : Parameters()) {
    if (p.requires_grad()) result.push_back(p);
  }
  return result;
}

void Module::SetTrainable(bool trainable) {
  for (auto& p : Parameters()) p.set_requires_grad(trainable);
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : Parameters()) total += p.numel();
  return total;
}

void Module::AssignModulePaths(const std::string& root_path) {
  module_path_ = root_path;
  for (const auto& [name, child] : children_) {
    child->AssignModulePaths(root_path.empty() ? name
                                               : root_path + "." + name);
  }
}

void Module::SaveState(std::ostream& out) const {
  const auto named = NamedParameters();
  util::WriteU64(out, named.size());
  for (const auto& [name, p] : named) {
    util::WriteString(out, name);
    util::WriteFloatSpan(out, p.data().data(), p.data().size());
  }
}

util::Status Module::LoadState(std::istream& in) {
  uint64_t count = 0;
  if (auto s = util::ReadU64(in, &count); !s.ok()) return s;
  auto named = NamedParameters();
  if (count != named.size()) {
    return util::Status::InvalidArgument(
        "checkpoint parameter count mismatch");
  }
  for (auto& [name, p] : named) {
    std::string stored_name;
    std::vector<float> values;
    if (auto s = util::ReadString(in, &stored_name); !s.ok()) return s;
    if (auto s = util::ReadFloatVector(in, &values); !s.ok()) return s;
    if (stored_name != name) {
      return util::Status::InvalidArgument("checkpoint name mismatch: " +
                                           stored_name + " vs " + name);
    }
    if (values.size() != p.data().size()) {
      return util::Status::InvalidArgument("checkpoint shape mismatch for " +
                                           name);
    }
    p.data().assign(values.begin(), values.end());
  }
  return util::Status::Ok();
}

util::Status Module::SaveStateToFile(const std::string& path) const {
  // Crash-safe container write: header + CRC, temp file, fsync, rename.
  util::CheckpointWriter writer;
  SaveState(writer.stream());
  return writer.Commit(path);
}

util::Status Module::LoadStateFromFile(const std::string& path) {
  util::CheckpointReader reader;
  if (auto s = reader.Open(path); !s.ok()) return s;
  return LoadState(reader.stream());
}

void Module::CopyStateFrom(const Module& other) {
  auto dst = NamedParameters();
  // Const: a mutable data() counts as a write, which would invalidate the
  // source's cached packings.
  const auto src = other.NamedParameters();
  BIGCITY_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    BIGCITY_CHECK_EQ(dst[i].second.data().size(), src[i].second.data().size())
        << "parameter " << dst[i].first;
    dst[i].second.data() = src[i].second.data();
  }
}

uint64_t Module::RegistrationCount() {
  return g_registrations.load(std::memory_order_relaxed);
}

Tensor Module::RegisterParameter(std::string name, Tensor parameter) {
  BIGCITY_CHECK(parameter.is_valid());
  g_registrations.fetch_add(1, std::memory_order_relaxed);
  // The mark that lets forward GEMMs cache this tensor's packing.
  TensorImpl& impl = *parameter.impl();
  if (impl.packed == nullptr) impl.packed = std::make_unique<PackedWeight>();
  parameters_.emplace_back(std::move(name), parameter);
  return parameter;
}

void Module::RegisterModule(std::string name, Module* child) {
  BIGCITY_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace bigcity::nn
