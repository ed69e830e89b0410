#ifndef BIGCITY_OBS_OBS_H_
#define BIGCITY_OBS_OBS_H_

// Umbrella header + instrumentation macros for the observability layer
// (DESIGN.md §4.9). All hot-path instrumentation goes through these macros
// so a -DBIGCITY_OBS=OFF build compiles every probe out to nothing; the
// underlying classes (MetricsRegistry, TraceBuffer, RunReport, WallTimer)
// stay available in both build flavors for cold-path consumers like the
// trainer's run report.
//
// Metric handles are resolved once per call site (function-local static)
// and then hit only the metric's lock-free fast path. MetricsRegistry
// never invalidates handles, so this is safe across Reset().

#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/stages.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"

#if !defined(BIGCITY_OBS)
#define BIGCITY_OBS 1
#endif

#define BIGCITY_OBS_CONCAT_INNER_(a, b) a##b
#define BIGCITY_OBS_CONCAT_(a, b) BIGCITY_OBS_CONCAT_INNER_(a, b)

#if BIGCITY_OBS

/// Counts `delta` events on counter `name` (a string literal).
#define BIGCITY_COUNTER_ADD(name, delta)                                   \
  do {                                                                     \
    static ::bigcity::obs::Counter* const BIGCITY_OBS_CONCAT_(             \
        obs_counter_, __LINE__) =                                          \
        ::bigcity::obs::MetricsRegistry::Global().GetCounter(name);        \
    BIGCITY_OBS_CONCAT_(obs_counter_, __LINE__)                            \
        ->Add(static_cast<uint64_t>(delta));                               \
  } while (0)

#define BIGCITY_COUNTER_INC(name) BIGCITY_COUNTER_ADD(name, 1)

/// Sets gauge `name` to `value`.
#define BIGCITY_GAUGE_SET(name, value)                                     \
  do {                                                                     \
    static ::bigcity::obs::Gauge* const BIGCITY_OBS_CONCAT_(obs_gauge_,    \
                                                            __LINE__) =    \
        ::bigcity::obs::MetricsRegistry::Global().GetGauge(name);          \
    BIGCITY_OBS_CONCAT_(obs_gauge_, __LINE__)                              \
        ->Set(static_cast<double>(value));                                 \
  } while (0)

/// Adds `delta` to gauge `name` (a live count's +1 / -1).
#define BIGCITY_GAUGE_ADD(name, delta)                                     \
  do {                                                                     \
    static ::bigcity::obs::Gauge* const BIGCITY_OBS_CONCAT_(obs_gauge_,    \
                                                            __LINE__) =    \
        ::bigcity::obs::MetricsRegistry::Global().GetGauge(name);          \
    BIGCITY_OBS_CONCAT_(obs_gauge_, __LINE__)                              \
        ->Add(static_cast<double>(delta));                                 \
  } while (0)

/// Records `value` into histogram `name` (default latency buckets).
#define BIGCITY_HISTOGRAM_RECORD(name, value)                              \
  do {                                                                     \
    static ::bigcity::obs::Histogram* const BIGCITY_OBS_CONCAT_(           \
        obs_histogram_, __LINE__) =                                        \
        ::bigcity::obs::MetricsRegistry::Global().GetHistogram(name);      \
    BIGCITY_OBS_CONCAT_(obs_histogram_, __LINE__)                          \
        ->Record(static_cast<double>(value));                              \
  } while (0)

/// RAII trace span for the rest of the enclosing scope (trace buffer only).
#define BIGCITY_TRACE_SPAN(name, category)           \
  ::bigcity::obs::TraceSpan BIGCITY_OBS_CONCAT_(     \
      obs_span_, __LINE__)((name), (category))

/// RAII span that records its duration (µs) into histogram `hist_name`
/// and appears as `span_name` in the trace. This is the workhorse probe:
/// histogram always on, trace event only when tracing is enabled.
#define BIGCITY_TIMED_SCOPE_NAMED(hist_name, span_name, category)          \
  static ::bigcity::obs::Histogram* const BIGCITY_OBS_CONCAT_(             \
      obs_scope_histogram_, __LINE__) =                                    \
      ::bigcity::obs::MetricsRegistry::Global().GetHistogram(hist_name);   \
  ::bigcity::obs::TraceSpan BIGCITY_OBS_CONCAT_(obs_scope_, __LINE__)(     \
      (span_name), (category),                                             \
      BIGCITY_OBS_CONCAT_(obs_scope_histogram_, __LINE__))

/// Shorthand: histogram and span share one name.
#define BIGCITY_TIMED_SCOPE(name, category) \
  BIGCITY_TIMED_SCOPE_NAMED(name, name, category)

/// Makes `trace_id` the active trace id for the rest of the enclosing
/// scope: spans recorded inside are stamped with it (DESIGN.md §4.15).
#define BIGCITY_TRACE_ID_SCOPE(trace_id)             \
  ::bigcity::obs::TraceIdScope BIGCITY_OBS_CONCAT_(  \
      obs_trace_id_scope_, __LINE__)((trace_id))

/// Emits one chrome://tracing flow event (`phase` = 's' start, 't' step,
/// 'f' finish) bound to `trace_id`, linking the enclosing spans of one
/// request into a single connected flow across threads.
#define BIGCITY_TRACE_FLOW(name, category, phase, trace_id)             \
  do {                                                                  \
    if (::bigcity::obs::TracingEnabled()) {                             \
      ::bigcity::obs::RecordFlowEvent((name), (category), (phase),      \
                                      (trace_id));                      \
    }                                                                   \
  } while (0)

/// RAII: attributes the scope's wall time (minus nested stage scopes) to
/// the thread-local per-request stage accumulator; the serving worker
/// reads it after the forward to fill Response::stages.
#define BIGCITY_REQUEST_STAGE_TIMED(stage)                 \
  ::bigcity::obs::RequestStageTimer BIGCITY_OBS_CONCAT_(   \
      obs_stage_timer_, __LINE__)(::bigcity::obs::RequestStage::stage)

#else  // !BIGCITY_OBS

#define BIGCITY_COUNTER_ADD(name, delta) \
  do {                                   \
  } while (0)
#define BIGCITY_COUNTER_INC(name) \
  do {                            \
  } while (0)
#define BIGCITY_GAUGE_SET(name, value) \
  do {                                 \
  } while (0)
#define BIGCITY_GAUGE_ADD(name, delta) \
  do {                                 \
  } while (0)
#define BIGCITY_HISTOGRAM_RECORD(name, value) \
  do {                                        \
  } while (0)
#define BIGCITY_TRACE_SPAN(name, category) \
  do {                                     \
  } while (0)
#define BIGCITY_TIMED_SCOPE_NAMED(hist_name, span_name, category) \
  do {                                                            \
  } while (0)
#define BIGCITY_TIMED_SCOPE(name, category) \
  do {                                      \
  } while (0)
#define BIGCITY_TRACE_ID_SCOPE(trace_id) \
  do {                                   \
  } while (0)
#define BIGCITY_TRACE_FLOW(name, category, phase, trace_id) \
  do {                                                      \
  } while (0)
#define BIGCITY_REQUEST_STAGE_TIMED(stage) \
  do {                                     \
  } while (0)

#endif  // BIGCITY_OBS

#endif  // BIGCITY_OBS_OBS_H_
