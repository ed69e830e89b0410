#include "nn/plan.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace bigcity::nn {

ExecutionPlan* PlanCache::Acquire(const PlanKey& key) {
  if (!enabled_ || capacity_ == 0) return nullptr;
  ++tick_;
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      entry.tick = tick_;
      ++hits_;
      BIGCITY_COUNTER_INC("plan.cache.hit");
      return entry.plan.get();
    }
  }
  ++misses_;
  BIGCITY_COUNTER_INC("plan.cache.miss");
  if (entries_.size() >= capacity_) {
    auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.tick < b.tick; });
    // Eviction only happens between scopes, where the plan's arena is
    // fully drained; a poisoned arena (stale tensors alive) must not be
    // destroyed, so it is deliberately leaked into a fresh entry swap.
    BIGCITY_CHECK_EQ(lru->plan->arena.outstanding(), 0)
        << "evicting a plan whose arena still has live allocations";
    ++evictions_;
    BIGCITY_COUNTER_INC("plan.cache.evict");
    entries_.erase(lru);
  }
  entries_.push_back(Entry{key, std::make_unique<ExecutionPlan>(), tick_});
  return entries_.back().plan.get();
}

uint64_t PlanCache::poisoned_resets() const {
  uint64_t total = 0;
  for (const Entry& entry : entries_) {
    total += entry.plan->arena.poisoned_resets();
  }
  return total;
}

PlanScope::PlanScope(PlanCache* cache, PlanKey key) {
  if (cache == nullptr) return;
  plan_ = cache->Acquire(key);
  if (plan_ == nullptr) return;  // Disabled cache: eager fallback.
  capturing_ = plan_->captures == 0;
  entry_capacity_ = plan_->arena.capacity_bytes();
#if BIGCITY_OBS
  if (capturing_) capture_span_.emplace("plan.capture", "plan");
#endif
  arena_scope_.emplace(&plan_->arena);
}

PlanScope::~PlanScope() {
  if (plan_ == nullptr) return;
  arena_scope_.reset();  // Deactivate before touching statistics.
  TensorArena& arena = plan_->arena;
  // A step that had to grow the arena is a (re)capture, not a replay:
  // replays are the steps served entirely from recycled slabs.
  const bool grew = arena.capacity_bytes() > entry_capacity_;
  plan_->footprint_bytes = std::max(plan_->footprint_bytes,
                                    arena.step_bytes());
  plan_->footprint_allocs =
      std::max(plan_->footprint_allocs, arena.step_allocs());
  if (capturing_ || grew) {
    ++plan_->captures;
  } else {
    ++plan_->replays;
  }
  arena.Reset();
  BIGCITY_GAUGE_SET("plan.arena.bytes", TensorArena::TotalBytes());
}

}  // namespace bigcity::nn
