#ifndef BIGCITY_NN_PLAN_H_
#define BIGCITY_NN_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/arena.h"
#include "obs/obs.h"

namespace bigcity::nn {

/// Identity of a reusable execution plan: the task (training stage or
/// serving task name) plus a shape bucket (0 when the task's footprint is
/// shape-independent; serving buckets a dequeue's batch size by power of
/// two, so a handful of plans cover every batch).
struct PlanKey {
  std::string task;
  int64_t bucket = 0;

  bool operator==(const PlanKey& other) const {
    return bucket == other.bucket && task == other.task;
  }
};

/// One captured (task, shape-bucket) execution: the arena sized by the
/// first step ("capture") and recycled by every later one ("replay"),
/// plus the footprint fingerprint the capture recorded. Replay is
/// bit-identical to eager execution by construction — the same op code
/// runs either way, only the allocator behind the buffers differs.
struct ExecutionPlan {
  TensorArena arena;
  uint64_t captures = 0;  // Steps that grew the arena (first + regrowth).
  uint64_t replays = 0;   // Steps served entirely from recycled slabs.
  size_t footprint_bytes = 0;   // Largest step seen (bump bytes).
  uint64_t footprint_allocs = 0;  // Allocations in that step.
};

/// Small LRU cache of ExecutionPlans, one per owner thread (the trainer
/// owns one; each serve worker owns one — plans are never shared across
/// threads). Not thread-safe by design.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 8, bool enabled = true)
      : capacity_(capacity), enabled_(enabled) {}

  /// Looks up (or admits, evicting the least-recently-used plan at
  /// capacity) the plan for `key`. Returns null when the cache is
  /// disabled or has zero capacity — the caller falls back to eager
  /// heap execution. Counts plan.cache.{hit,miss,evict}.
  ExecutionPlan* Acquire(const PlanKey& key);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  /// Poisoned resets (TensorArena::poisoned_resets) summed over the plans
  /// the cache holds: steps that ended with live arena tensors.
  uint64_t poisoned_resets() const;

 private:
  struct Entry {
    PlanKey key;
    std::unique_ptr<ExecutionPlan> plan;
    uint64_t tick = 0;
  };

  size_t capacity_;
  bool enabled_;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// RAII step scope: acquires the plan for `key` and routes every tensor
/// allocation in the enclosing scope into its arena; the destructor
/// updates the plan's footprint statistics and rewinds the arena for the
/// next step. Inert (transparent eager fallback) when `cache` is null or
/// disabled. The first scope on a key is the capture phase — it sizes the
/// arena and, under BIGCITY_OBS, is wrapped in a "plan.capture" span.
class PlanScope {
 public:
  PlanScope(PlanCache* cache, PlanKey key);
  ~PlanScope();

  PlanScope(const PlanScope&) = delete;
  PlanScope& operator=(const PlanScope&) = delete;

  /// True when a plan arena is active (false on eager fallback).
  bool active() const { return plan_ != nullptr; }
  bool capturing() const { return capturing_; }

 private:
  ExecutionPlan* plan_ = nullptr;
  bool capturing_ = false;
  size_t entry_capacity_ = 0;
#if BIGCITY_OBS
  std::optional<obs::TraceSpan> capture_span_;
#endif
  std::optional<ArenaScope> arena_scope_;
};

}  // namespace bigcity::nn

#endif  // BIGCITY_NN_PLAN_H_
