#include "serve/rollout.h"

#include <algorithm>

namespace bigcity::serve {

const char* RolloutStateName(RolloutState state) {
  switch (state) {
    case RolloutState::kIdle:
      return "IDLE";
    case RolloutState::kStaged:
      return "STAGED";
    case RolloutState::kCanary:
      return "CANARY";
    case RolloutState::kRolling:
      return "ROLLING";
    case RolloutState::kStable:
      return "STABLE";
    case RolloutState::kRolledBack:
      return "ROLLED_BACK";
    case RolloutState::kQuarantined:
      return "QUARANTINED";
  }
  return "UNKNOWN";
}

void CohortStats::RecordSuccess(double forward_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  if (discard_latency_ > 0) {
    --discard_latency_;
    return;
  }
  if (latencies_.size() < kWindow) {
    latencies_.push_back(forward_us);
  } else {
    latencies_[next_] = forward_us;
    next_ = (next_ + 1) % kWindow;
  }
  ++latency_count_;
}

void CohortStats::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  ++failures_;
}

void CohortStats::RecordNonFinite() {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  ++failures_;
  ++nonfinite_;
}

CohortStats::Snapshot CohortStats::Get() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.requests = requests_;
  snapshot.failures = failures_;
  snapshot.nonfinite = nonfinite_;
  snapshot.latency_samples = latency_count_;
  if (!latencies_.empty()) {
    std::vector<double> sorted = latencies_;
    const size_t rank = std::min(
        sorted.size() - 1,
        static_cast<size_t>(0.95 * static_cast<double>(sorted.size())));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(rank),
                     sorted.end());
    snapshot.p95_us = sorted[rank];
  }
  return snapshot;
}

void CohortStats::Reset(int discard_latency_samples) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_ = 0;
  failures_ = 0;
  nonfinite_ = 0;
  discard_latency_ = std::max(0, discard_latency_samples);
  latencies_.clear();
  next_ = 0;
  latency_count_ = 0;
}

GateVerdict EvaluateCanary(const CohortStats::Snapshot& stable,
                           const CohortStats::Snapshot& canary,
                           const RolloutOptions& options,
                           std::string* reason, double slo_burn_rate) {
  // Non-finite outputs fail immediately — no reason to wait for the full
  // window once the candidate has produced NaN/Inf.
  if (canary.nonfinite > static_cast<uint64_t>(options.canary_max_nonfinite)) {
    if (reason != nullptr) {
      *reason = "canary produced " + std::to_string(canary.nonfinite) +
                " non-finite outputs (limit " +
                std::to_string(options.canary_max_nonfinite) + ")";
    }
    return GateVerdict::kFail;
  }
  if (canary.requests < static_cast<uint64_t>(options.canary_min_requests)) {
    return GateVerdict::kNotReady;
  }
  // Error-budget burn during the canary window: burning faster than the
  // configured multiple of provisioned budget fails the candidate even
  // when the relative error-margin criterion below would tolerate it
  // (both cohorts degrading together is still an SLO violation).
  if (options.canary_max_burn_rate > 0 &&
      slo_burn_rate > options.canary_max_burn_rate) {
    if (reason != nullptr) {
      *reason = "slo burn rate " + std::to_string(slo_burn_rate) +
                " exceeds canary_max_burn_rate " +
                std::to_string(options.canary_max_burn_rate);
    }
    return GateVerdict::kFail;
  }
  if (canary.ErrorRate() > stable.ErrorRate() + options.canary_error_margin) {
    if (reason != nullptr) {
      *reason = "canary error rate " + std::to_string(canary.ErrorRate()) +
                " exceeds stable " + std::to_string(stable.ErrorRate()) +
                " by more than margin " +
                std::to_string(options.canary_error_margin);
    }
    return GateVerdict::kFail;
  }
  if (stable.latency_samples > 0 &&
      std::min(stable.latency_samples, canary.latency_samples) <
          kMinLatencySamples) {
    // The p95 of a smaller window is its maximum, so one preempted
    // forward would decide; wait for both cohorts to fill it.
    return GateVerdict::kNotReady;
  }
  if (stable.latency_samples > 0 && stable.p95_us > 0 &&
      canary.p95_us > stable.p95_us * options.canary_latency_inflation) {
    if (reason != nullptr) {
      *reason = "canary p95 forward " + std::to_string(canary.p95_us) +
                "us exceeds stable p95 " + std::to_string(stable.p95_us) +
                "us x" + std::to_string(options.canary_latency_inflation);
    }
    return GateVerdict::kFail;
  }
  return GateVerdict::kPass;
}

}  // namespace bigcity::serve
