#ifndef BIGCITY_SERVE_OVERLOAD_H_
#define BIGCITY_SERVE_OVERLOAD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>

namespace bigcity::serve {

/// Memory-aware overload control for the serving runtime (DESIGN.md
/// §4.16). The controller turns a configurable process memory budget into
/// *pre-failure* back-pressure: the supervisor thread samples tensor
/// memory (mem.* tracker), plan-arena bytes, and injected leak bytes
/// against the budget every tick, and the server consults the resulting
/// state to shed at admission, shrink the continuous batcher's batch_max,
/// trim KV-session capacity, and tighten the queue bound on waiting
/// requests — before an allocation ever fails.
///
/// State machine (one-way per tick, hysteresis on the way down):
///
///   kNormal --pressure >= low--> kPressure --pressure >= high--> kShedding
///   kShedding --pressure < low--> kNormal (never back to kPressure first)
///   kPressure --pressure < low--> kNormal
///
/// The gap between the high and low watermarks makes recovery monotone: a
/// shedding server keeps shedding until pressure falls all the way below
/// the low watermark, so the state never flaps across the shed threshold
/// while memory hovers there.
///
/// Queue residency gets a CoDel-style sojourn bound: when dequeued
/// requests have waited above `sojourn_target_ms` continuously for one
/// `sojourn_interval_ms`, the controller starts dropping stale requests at
/// dequeue (next drops at interval/sqrt(n), the CoDel control law), so a
/// backlog drains by shedding its oldest entries early instead of burning
/// a worker forward on requests that will miss their deadline anyway.
///
/// Thread safety: Sample runs on the supervisor thread; AdmitOk /
/// EffectiveBatchMax / EffectiveKvCapacity / EffectiveQueueCapacity are
/// lock-free reads from any thread; ShouldDropStale serializes the CoDel
/// law under its own mutex (workers call it once per dequeued item).
class OverloadController {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Process memory budget in bytes; <= 0 disables memory-based control
    /// (the sojourn bound still applies when configured).
    int64_t mem_budget_bytes = 0;
    /// Enter kShedding at pressure >= high_watermark (fraction of budget).
    double high_watermark = 0.90;
    /// Enter kPressure at pressure >= low_watermark; leave any degraded
    /// state only when pressure < low_watermark.
    double low_watermark = 0.75;
    /// Smallest batch_max the pressure shrink may impose.
    int min_batch_max = 1;
    /// CoDel queue-sojourn target; <= 0 disables stale-request dropping.
    double sojourn_target_ms = 0;
    /// CoDel initial interval: sojourn must stay above target this long
    /// before the first drop.
    double sojourn_interval_ms = 100.0;
  };

  enum class State : int {
    kNormal = 0,    // Full batch/KV/queue capacity, admission open.
    kPressure = 1,  // Above low watermark: halve batch/KV/queue capacity.
    kShedding = 2,  // Above high watermark: additionally shed at admission.
  };

  explicit OverloadController(Options options);

  /// Sums the live tensor bytes (obs::MemoryTracker), the plan.arena.bytes
  /// gauge, and util::FaultInjection::LeakedBytes() — the serving
  /// process's tensor-memory picture in every build flavor.
  static int64_t CurrentMemoryBytes();

  /// Supervisor tick: samples CurrentMemoryBytes, runs the hysteresis
  /// state machine, publishes the serve.overload.* gauges.
  State Sample() { return SampleBytes(CurrentMemoryBytes()); }
  /// Testable core of Sample with an explicit byte sample.
  State SampleBytes(int64_t bytes);

  /// False while shedding: the server rejects new admissions with
  /// kResourceExhausted instead of letting them allocate.
  bool AdmitOk() const { return state() != State::kShedding; }

  /// Configured limit while kNormal; halved (floored at min_batch_max)
  /// under pressure so in-flight batch footprints shrink first.
  int EffectiveBatchMax(int configured) const;

  /// KV-session capacity under the same halving policy (0 stays 0).
  size_t EffectiveKvCapacity(size_t configured) const;

  /// Bound on requests waiting for a worker, under the same halving
  /// policy (floored at 1 so the server never wedges with a queue that
  /// admits nothing).
  size_t EffectiveQueueCapacity(size_t configured) const;

  /// CoDel stale-drop decision for one dequeued request that waited
  /// `sojourn_us` in the queue. True means drop it now with
  /// kDeadlineExceeded instead of forwarding.
  bool ShouldDropStale(double sojourn_us, Clock::time_point now);

  State state() const {
    return static_cast<State>(state_.load(std::memory_order_relaxed));
  }
  int64_t sampled_bytes() const {
    return sampled_bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of sampled bytes since construction — the "peak RSS
  /// stays under budget" invariant is checked against this.
  int64_t peak_sampled_bytes() const {
    return peak_sampled_bytes_.load(std::memory_order_relaxed);
  }
  /// Last sample as a fraction of the budget (0 when no budget is set).
  double pressure() const;
  const Options& options() const { return options_; }

  /// Stable lowercase state label ("normal", "pressure", "shedding").
  static const char* StateName(State state);

 private:
  const Options options_;
  std::atomic<int> state_{static_cast<int>(State::kNormal)};
  std::atomic<int64_t> sampled_bytes_{0};
  std::atomic<int64_t> peak_sampled_bytes_{0};

  // CoDel law state, serialized because drop spacing is sequential by
  // definition.
  std::mutex sojourn_mu_;
  std::optional<Clock::time_point> first_above_;  // When sojourn crossed
                                                  // target + interval ends.
  bool dropping_ = false;
  int drop_count_ = 0;
  Clock::time_point drop_next_{};
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_OVERLOAD_H_
