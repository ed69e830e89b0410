#include "serve/circuit_breaker.h"

namespace bigcity::serve {

CircuitBreaker::Decision CircuitBreaker::Admit(
    std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return Decision::kAllow;
    case State::kOpen: {
      const double open_ms =
          std::chrono::duration<double, std::milli>(now - opened_at_)
              .count();
      if (open_ms < cooldown_ms_) return Decision::kReject;
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      return Decision::kProbe;
    }
    case State::kHalfOpen:
      if (probe_in_flight_) return Decision::kReject;
      probe_in_flight_ = true;
      return Decision::kProbe;
  }
  return Decision::kAllow;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
}

bool CircuitBreaker::RecordFailure(
    std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen ||
      consecutive_failures_ >= failure_threshold_) {
    const bool newly_opened = state_ != State::kOpen;
    state_ = State::kOpen;
    opened_at_ = now;
    return newly_opened;
  }
  return false;
}

void CircuitBreaker::ReleaseProbe() {
  std::lock_guard<std::mutex> lock(mu_);
  probe_in_flight_ = false;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

}  // namespace bigcity::serve
