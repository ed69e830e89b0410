#ifndef BIGCITY_OBS_STAGES_H_
#define BIGCITY_OBS_STAGES_H_

#include <algorithm>
#include <chrono>

namespace bigcity::obs {

/// Thread-local per-request stage attribution (DESIGN.md §4.15). The
/// serving worker clears the accumulator before a forward and reads it
/// afterwards to split the forward's wall time into sub-stages (tokenize)
/// that happen deep inside the model, without threading a context object
/// through every layer. Each worker processes one request
/// (or one batch) at a time, so thread-local is exactly request-local.
enum class RequestStage : int {
  kTokenize = 0,  // ST-tokenizer sequence building (GAT + fusion + MLP).
};

inline constexpr int kNumRequestStages = 1;

namespace internal {
inline thread_local double g_request_stage_us[kNumRequestStages] = {};
}  // namespace internal

inline void RequestStagesClear() {
  for (int i = 0; i < kNumRequestStages; ++i) {
    internal::g_request_stage_us[i] = 0;
  }
}

inline void RequestStageAdd(RequestStage stage, double us) {
  internal::g_request_stage_us[static_cast<int>(stage)] += us;
}

inline double RequestStageValue(RequestStage stage) {
  return internal::g_request_stage_us[static_cast<int>(stage)];
}

/// RAII: adds the scope's wall time to `stage`, minus whatever any nested
/// RequestStageTimer (same stage or another) already claimed — so nested
/// timers partition instead of double-counting: a recursive kTokenize
/// scope contributes only once.
class RequestStageTimer {
 public:
  explicit RequestStageTimer(RequestStage stage)
      : stage_(static_cast<int>(stage)),
        start_(std::chrono::steady_clock::now()) {
    for (int i = 0; i < kNumRequestStages; ++i) {
      before_[i] = internal::g_request_stage_us[i];
    }
  }

  ~RequestStageTimer() {
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_)
            .count();
    double nested_us = 0;
    for (int i = 0; i < kNumRequestStages; ++i) {
      nested_us += internal::g_request_stage_us[i] - before_[i];
    }
    internal::g_request_stage_us[stage_] +=
        std::max(0.0, elapsed_us - nested_us);
  }

  RequestStageTimer(const RequestStageTimer&) = delete;
  RequestStageTimer& operator=(const RequestStageTimer&) = delete;

 private:
  int stage_;
  std::chrono::steady_clock::time_point start_;
  double before_[kNumRequestStages];
};

}  // namespace bigcity::obs

#endif  // BIGCITY_OBS_STAGES_H_
