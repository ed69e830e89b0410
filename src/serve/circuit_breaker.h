#ifndef BIGCITY_SERVE_CIRCUIT_BREAKER_H_
#define BIGCITY_SERVE_CIRCUIT_BREAKER_H_

#include <chrono>
#include <mutex>

namespace bigcity::serve {

/// Per-task circuit breaker. Closed until `failure_threshold` consecutive
/// request failures, then open for `cooldown_ms`; after the cooldown one
/// probe request is let through (half-open). A successful probe closes the
/// breaker, a failed probe re-opens it and restarts the cooldown. While
/// open, the server answers eligible tasks from the baseline predictor
/// (degraded) and rejects the rest with kUnavailable — the expensive
/// forward path is never entered, so a persistently failing task cannot
/// drag down the worker pool.
class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen, kHalfOpen };
  enum class Decision { kAllow = 0, kProbe, kReject };

  CircuitBreaker(int failure_threshold, double cooldown_ms)
      : failure_threshold_(failure_threshold), cooldown_ms_(cooldown_ms) {}

  /// Admission decision for a new request. kProbe claims the single
  /// half-open probe slot; concurrent requests during the probe reject.
  Decision Admit(std::chrono::steady_clock::time_point now);

  /// Call exactly once per request that reached the forward stage.
  void RecordSuccess();
  /// Returns true when this failure transitioned the breaker to open
  /// (callers count open events without re-reading state racily).
  bool RecordFailure(std::chrono::steady_clock::time_point now);
  /// Returns the half-open probe slot without a verdict, for a probe that
  /// ended in neither (a quarantined input, a non-finite output): the
  /// state is unchanged, so the next Admit probes again. Every exit after
  /// a kProbe admission calls exactly one of these three.
  void ReleaseProbe();

  State state() const;
  int consecutive_failures() const;

 private:
  const int failure_threshold_;
  const double cooldown_ms_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  std::chrono::steady_clock::time_point opened_at_{};
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_CIRCUIT_BREAKER_H_
