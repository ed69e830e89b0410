#ifndef BIGCITY_SERVE_ROLLOUT_H_
#define BIGCITY_SERVE_ROLLOUT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bigcity::serve {

/// Lifecycle state of the model-version rollout machinery (DESIGN.md
/// §4.12):
///
///   IDLE ──publish──▶ STAGED ──load ok──▶ CANARY ──gate pass──▶ ROLLING
///     ▲                  │                   │                     │
///     │              load fail           gate fail             all swapped
///     │                  ▼                   ▼                     ▼
///     └── QUARANTINED ◀──┘              ROLLED_BACK             STABLE
///
/// QUARANTINED / ROLLED_BACK / STABLE are terminal per candidate; the
/// controller returns to IDLE and keeps polling. Numeric values are
/// stable (exported as the `serve.rollout.state` gauge).
enum class RolloutState {
  kIdle = 0,
  kStaged = 1,
  kCanary = 2,
  kRolling = 3,
  kStable = 4,
  kRolledBack = 5,
  kQuarantined = 6,
};

const char* RolloutStateName(RolloutState state);

/// Knobs of the canary health gate and version poller.
struct RolloutOptions {
  /// Model directory to watch (util/model_dir layout). Empty disables the
  /// whole lifecycle machinery.
  std::string model_dir;

  /// Version-poll cadence of the controller thread.
  double poll_interval_ms = 50;

  /// Requests the canary cohort must serve before the gate decides.
  int canary_min_requests = 8;

  /// Gate fails when canary error rate exceeds stable error rate by more
  /// than this margin (absolute, 0..1).
  double canary_error_margin = 0.05;

  /// Gate fails when the canary produced more than this many non-finite
  /// outputs (default: any NaN/Inf output fails the candidate).
  int canary_max_nonfinite = 0;

  /// Gate fails when canary p95 forward latency exceeds stable p95 by
  /// this factor. While the stable cohort has latency samples the gate
  /// waits until both cohorts hold kMinLatencySamples; without any the
  /// criterion is mute. With one worker every dequeue is the canary's, and
  /// the server judges it against an empty stable cohort.
  double canary_latency_inflation = 3.0;

  /// Slow start: the canary cohort discards its first this-many latency
  /// samples before the latency criterion judges (a candidate's first
  /// forwards still fill its remaining lazy caches, and can look
  /// pathological under a diverse load mix). Requests/failures/non-finite
  /// counts are never discarded. The canary then needs this many plus
  /// kMinLatencySamples successful forwards before the latency criterion
  /// can judge.
  int canary_slow_start_samples = 0;

  /// Wall-clock cap on the canary phase; a canary that cannot accumulate
  /// canary_min_requests in time is rolled back (starvation is treated as
  /// failure — never promote without evidence).
  double canary_timeout_ms = 10000;

  /// SLO burn-rate gate (DESIGN.md §4.15): the gate fails when the live
  /// max slo.*.burn_rate across tasks exceeds this during the canary
  /// window. 0 disables the criterion (error-budget math only means
  /// something once SLO objectives are configured for the deployment).
  double canary_max_burn_rate = 0;
};

/// Thread-safe per-cohort (stable vs canary) health accumulator: request
/// and failure counts, non-finite output count, and a sliding window of
/// forward latencies for percentile comparison.
class CohortStats {
 public:
  struct Snapshot {
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t nonfinite = 0;
    double p95_us = 0;       // 0 until at least one latency sample.
    uint64_t latency_samples = 0;

    double ErrorRate() const {
      return requests > 0
                 ? static_cast<double>(failures) / static_cast<double>(requests)
                 : 0.0;
    }
  };

  void RecordSuccess(double forward_us);
  void RecordFailure();
  void RecordNonFinite();
  Snapshot Get() const;
  /// Zeroes all counts; the next `discard_latency_samples` successful
  /// forwards contribute to `requests` but not to the latency window
  /// (canary slow start).
  void Reset(int discard_latency_samples = 0);

 private:
  static constexpr size_t kWindow = 128;
  mutable std::mutex mu_;
  uint64_t requests_ = 0;
  uint64_t failures_ = 0;
  uint64_t nonfinite_ = 0;
  int discard_latency_ = 0;
  std::vector<double> latencies_;  // Ring once kWindow is reached.
  size_t next_ = 0;
  uint64_t latency_count_ = 0;
};

enum class GateVerdict {
  kNotReady = 0,  // Too little canary evidence to judge yet.
  kPass,
  kFail,
};

/// Latency samples each cohort needs before the latency criterion judges:
/// the smallest window whose p95 (rank floor(0.95 n)) is not its maximum.
inline constexpr uint64_t kMinLatencySamples = 21;

/// Pure decision function of the canary health gate: compares the canary
/// cohort against the stable cohort over the current window. kNotReady
/// until the canary served canary_min_requests and, while the stable
/// cohort has latency samples, both hold kMinLatencySamples. On kFail,
/// `reason` names the tripped criterion (quarantine bookkeeping).
/// `slo_burn_rate` is the serving fleet's current max SLO burn rate
/// (SloTracker::MaxBurnRate); judged against canary_max_burn_rate when
/// that knob is set, ignored otherwise.
GateVerdict EvaluateCanary(const CohortStats::Snapshot& stable,
                           const CohortStats::Snapshot& canary,
                           const RolloutOptions& options,
                           std::string* reason,
                           double slo_burn_rate = 0.0);

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_ROLLOUT_H_
