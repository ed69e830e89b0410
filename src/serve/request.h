#ifndef BIGCITY_SERVE_REQUEST_H_
#define BIGCITY_SERVE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "core/task.h"
#include "data/trajectory.h"
#include "nn/tensor.h"
#include "util/status.h"

namespace bigcity::serve {

/// One inference request against the task-prompted BIGCity model. Which
/// fields are read depends on `task`:
///   trajectory tasks  — `trajectory` (+ `kept` for recovery)
///   traffic tasks     — `segment`, `start_slice`, `horizon` / `window`
///                       (+ `masked` for imputation)
struct Request {
  core::Task task = core::Task::kNextHop;

  data::Trajectory trajectory;  // Trajectory tasks.
  std::vector<int> kept;        // Recovery: surviving indices (sorted).

  int segment = 0;              // Traffic tasks.
  int start_slice = 0;
  int horizon = 1;              // Prediction steps.
  int window = 12;              // Imputation window length.
  std::vector<int> masked;      // Imputation mask positions.

  /// Wall-clock budget from submission; <= 0 means no deadline (the
  /// server's default_deadline_ms still applies if set).
  double deadline_ms = 0;

  /// Caller-chosen correlation id, echoed in the response.
  uint64_t id = 0;
};

/// Where a request's lifecycle ended; `util::Status` carries the matching
/// code (kResourceExhausted for kShed, kDeadlineExceeded for kDeadline,
/// kInvalidArgument for kQuarantined, kUnavailable for kRejected/kFailed).
enum class Outcome {
  kOk = 0,       // Full-model result.
  kDegraded,     // Baseline fallback result (status is still OK).
  kShed,         // Admission queue full.
  kDeadline,     // Deadline expired at a cancellation checkpoint.
  kQuarantined,  // Malformed input.
  kRejected,     // Circuit breaker open, no fallback eligible.
  kFailed,       // Transient failures exhausted retries.
  kReaped,       // Watchdog reaped it off a hung worker (status carries
                 // kDeadlineExceeded; the replacement serves later load).
};

inline constexpr int kNumOutcomes = 8;

/// Stable lowercase outcome label ("ok", "degraded", ...), used in
/// serve.outcome.<task>.<outcome> metric names and CLI tables.
inline const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kShed:
      return "shed";
    case Outcome::kDeadline:
      return "deadline";
    case Outcome::kQuarantined:
      return "quarantined";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kFailed:
      return "failed";
    case Outcome::kReaped:
      return "reaped";
  }
  return "unknown";
}

/// Per-stage latency attribution for one request (DESIGN.md §4.15). The
/// stages partition the request's wall time against the same steady
/// clock as total_us, so Total() ≈ Response::total_us; stages a request
/// never reached stay 0. `forward_us` is the forward wall time minus the
/// tokenize time carved out of it; in a build with probes compiled out
/// (BIGCITY_OBS=OFF) tokenize_us reads 0 and forward_us absorbs it, so
/// the partition still holds.
struct StageBreakdown {
  double queue_wait_us = 0;    // Submit -> a worker's first look at it.
  double batch_wait_us = 0;    // That first look -> batch dispatch.
  double validate_us = 0;      // Input validation.
  double tokenize_us = 0;      // ST tokenization inside the forward.
  double forward_us = 0;       // Model forward minus tokenize.
  double retry_us = 0;         // Backoff sleeps + failed attempts.

  double Total() const {
    return queue_wait_us + batch_wait_us + validate_us + tokenize_us +
           forward_us + retry_us;
  }
};

struct Response {
  util::Status status;
  Outcome outcome = Outcome::kOk;
  /// Task output tensor; invalid (is_valid() == false) unless the status
  /// is OK. Bit-identical to the direct model call when not degraded.
  nn::Tensor output;
  /// True when the baseline predictor answered instead of the model.
  bool degraded = false;
  /// Transient-failure retries consumed by this request.
  int retries = 0;
  double queue_wait_us = 0;  // Admission-to-dequeue.
  double total_us = 0;       // Submission-to-completion.
  uint64_t id = 0;           // Echo of Request::id.
  /// Process-unique trace id allocated at Submit; stamps every span the
  /// request touches and binds its chrome://tracing flow. Never 0.
  uint64_t trace_id = 0;
  /// Where the time went (stages sum to ~total_us; see StageBreakdown).
  StageBreakdown stages;
  /// Model version that served this request (0 = initial in-memory
  /// weights; pre-worker failures like shed/expired keep 0).
  uint64_t model_version = 0;
  /// Requests that shared this request's batched forward (1 for a batch
  /// of one and for requests that never reached a worker).
  int batch_size = 1;
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_REQUEST_H_
