#ifndef BIGCITY_SERVE_SERVER_H_
#define BIGCITY_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/bigcity_model.h"
#include "nn/plan.h"
#include "core/config.h"
#include "core/task.h"
#include "data/dataset.h"
#include "serve/baseline.h"
#include "serve/batcher.h"
#include "serve/circuit_breaker.h"
#include "obs/slo.h"
#include "serve/model_registry.h"
#include "serve/overload.h"
#include "serve/request.h"
#include "serve/rollout.h"
#include "util/status.h"

namespace bigcity::obs {
class Counter;
class Gauge;
}  // namespace bigcity::obs

namespace bigcity::serve {

/// Knobs of the inference serving runtime. Defaults favor determinism and
/// small-footprint tests; bench/bench_serve.cc and `bigcity_cli serve`
/// override them from the command line.
struct ServeOptions {
  /// Worker threads. Every worker serves from the same immutable model per
  /// version (DESIGN.md §4.11); a canary takes every num_workers-th
  /// dequeue.
  int num_workers = 2;

  /// Bound on requests waiting for a worker, grouped for a batch or not;
  /// a full queue sheds with kResourceExhausted.
  int queue_capacity = 16;

  /// Deadline applied to requests that do not carry their own
  /// (Request::deadline_ms <= 0). <= 0 disables the server default too.
  double default_deadline_ms = 0;

  /// Transient-failure retries per request (attempts = max_retries + 1).
  int max_retries = 2;

  /// First retry backoff; doubles per attempt, capped at 8x. Sleeps never
  /// exceed the remaining deadline budget.
  double retry_backoff_ms = 1.0;

  /// Consecutive forward failures that open a task's circuit breaker.
  int breaker_failure_threshold = 5;

  /// Open-state cooldown before the breaker admits a half-open probe.
  /// While the breaker rejects, degradable tasks are answered by the
  /// baseline predictor and the rest fail with kUnavailable.
  double breaker_cooldown_ms = 1000.0;

  /// Degrade when the remaining deadline budget is below the observed p95
  /// forward time (only once `latency_min_samples` forwards were seen).
  bool degrade_on_tight_budget = true;
  int latency_min_samples = 16;

  /// Seeds the forward-latency estimator so budget degradation is testable
  /// before any real samples exist. <= 0 leaves the estimator empty.
  double initial_forward_estimate_us = 0;

  /// Optional checkpoint loaded into the served model at Start(), with
  /// bounded retries around transient read failures.
  std::string checkpoint_path;

  /// Attach LoRA adapters to each version's backbone before weight copy /
  /// checkpoint load (must match how the source weights were produced).
  bool attach_lora = false;

  /// Continuous batching (DESIGN.md §4.14): the queue between Submit and
  /// the workers hands out queued same-task requests as one batched
  /// forward of at most batch_max requests. Outputs are
  /// bit-identical to a batch of one; dispatch is deadline-aware, so a
  /// nearly-expired request never waits for batch fill. batch_max = 1
  /// turns batching off: every request dispatches alone, immediately.
  int batch_max = 8;

  /// How long a request may wait for co-batchable peers before its group
  /// dispatches anyway.
  double batch_window_us = 200.0;

  /// KV decode sessions for autoregressive next-hop serving: a client
  /// extending a trajectory hop by hop reuses the frozen backbone's
  /// cached attention state for the shared prompt prefix. The store is
  /// shared across workers (checkout/checkin, so a walk keeps hitting no
  /// matter which worker serves each step) with total capacity
  /// kv_sessions * num_workers. 0 disables KV caching.
  int kv_sessions = 8;

  /// Per-worker inference execution plans (DESIGN.md §4.13): each worker
  /// caches a no-autograd ExecutionPlan per (task, batch-size bucket) and
  /// replays the hot-path forward into its recycled TensorArena. Outputs
  /// are bit-identical either way; disabling falls back to plain heap
  /// allocation.
  bool plans = true;

  /// Model lifecycle (hot-swap / canary rollout) knobs. Setting
  /// rollout.model_dir enables the version poller and controller thread;
  /// when the directory already holds a valid CURRENT version at Start(),
  /// the server boots from it.
  RolloutOptions rollout;

  /// Worker watchdog (DESIGN.md §4.16): each worker publishes a heartbeat
  /// every loop iteration; a supervisor thread reaps a worker whose beat
  /// stalls mid-request past this threshold — resolving its in-flight
  /// requests with kDeadlineExceeded without touching the wedged thread,
  /// then starting a replacement worker on the same models. <= 0 disables
  /// supervision.
  double hang_threshold_ms = 5000.0;

  /// Supervisor tick: heartbeat scan + overload sample cadence.
  double watchdog_poll_ms = 10.0;

  /// Memory-aware overload control (DESIGN.md §4.16): process tensor-memory
  /// budget in bytes. Above the low watermark (OverloadController::Options)
  /// the server halves batch_max / KV capacity / queue bound; above the
  /// high watermark it additionally sheds new admissions with
  /// kResourceExhausted, and recovery is hysteretic (shedding ends only
  /// below the low watermark). 0 disables memory-based control.
  int64_t mem_budget_bytes = 0;

  /// CoDel-style queue-residency bound: once dequeued requests have spent
  /// more than sojourn_target_ms queued continuously for one
  /// sojourn_interval_ms, workers start dropping the stalest entries at
  /// dequeue with kDeadlineExceeded. <= 0 disables the bound.
  double sojourn_target_ms = 0;
  double sojourn_interval_ms = 100.0;

  /// Per-task SLO objectives (DESIGN.md §4.15): every task is registered
  /// with the server's SloTracker at Start() using these values, and each
  /// finished request feeds its task's sliding window (success = OK
  /// status, latency = total_us). The tracker exports slo.<task>.*
  /// gauges; rollout.canary_max_burn_rate gates canaries on them.
  double slo_success_objective = 0.99;
  double slo_p99_ms = 250.0;
  int slo_window = 512;
};

/// Multi-threaded inference server over core::BigCityModel (DESIGN.md
/// §4.11, lifecycle §4.12). The request path is
///
///   Submit -> [deadline] -> bounded batching queue -> worker, per
///   dequeued batch of one or more same-task requests: per member
///   [deadline] -> validate -> [deadline]; one breaker admission; per
///   member budget; forward (retries) -> head
///
/// with explicit, typed failure at every stage: kResourceExhausted when
/// queue_capacity requests already wait for a worker (grouped for a batch
/// or not), kDeadlineExceeded at the three cancellation checkpoints,
/// kInvalidArgument for malformed inputs (quarantined before
/// they can reach a CHECK in the model), kUnavailable when retries are
/// exhausted or a breaker rejects, kInternal when the model emits a
/// non-finite output. Degradable tasks fall back to BaselinePredictor
/// instead of failing when the breaker is open or the remaining budget
/// cannot fit a p95 forward.
///
/// Models: each version is built once (weights loaded, ST feature library
/// filled) before any worker sees it, and is never written afterwards, so
/// every worker serves from the same model. The server holds the stable
/// version and, while a candidate is on trial, the canary.
///
/// Model lifecycle: when options.rollout.model_dir is set, a controller
/// thread polls the versioned model directory. A validated new version is
/// STAGED (built off the request path) and serves every num_workers-th
/// dequeue as a CANARY, health-gated against the stable cohort (error
/// rate, non-finite outputs, p95 forward latency). A passing canary
/// becomes the stable model (ROLLING is one pointer store); a failing one
/// is dropped and the version quarantined, and the untouched stable model
/// serves on. Each dequeue picks its model once — a swap never happens
/// mid-forward, and a retired version is freed by shared_ptr refcount
/// once its last in-flight request completes.
///
/// Thread safety: Submit/ServeSync may be called from any thread. Workers
/// share each version's model, whose forwards only read it once built
/// (the lazily filled instruction K/V and packed panels are safe under
/// concurrent forwards, DESIGN.md §4.3 and §4.8); the dataset is
/// read-only.
class InferenceServer {
 public:
  /// `dataset` must outlive the server. When `prototype` is non-null its
  /// weights are copied into the served model (it must have been built with
  /// a matching config, including LoRA attachment per options.attach_lora).
  InferenceServer(const data::CityDataset* dataset,
                  core::BigCityConfig model_config, ServeOptions options,
                  const core::BigCityModel* prototype = nullptr);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Builds the served model once (checkpoint reload with bounded retries
  /// when options.checkpoint_path is set; model-dir CURRENT version when
  /// the rollout machinery is enabled and one is published) and launches
  /// the worker threads plus, if enabled, the rollout controller.
  util::Status Start();

  /// Drain-then-stop: stops the rollout controller (rolling back an
  /// undecided canary), closes admissions, serves what is already queued,
  /// joins the workers. Idempotent; also run by the destructor.
  void Stop();

  /// Non-blocking admission. The future always becomes ready — shed,
  /// expired, and failed requests resolve it with the matching error
  /// status rather than abandoning it.
  std::future<Response> Submit(Request request);

  /// Convenience: Submit + wait.
  Response ServeSync(Request request);

  // --- Introspection (tests, bench, CLI) ---------------------------------

  size_t queue_depth() const { return queue_.depth(); }
  const ServeOptions& options() const { return options_; }
  bool running() const { return running_; }

  /// Breaker state for one task (kClosed for tasks never seen).
  CircuitBreaker::State breaker_state(core::Task task) const;

  /// Current forward-time estimate consulted by budget degradation, in
  /// microseconds; 0 while below latency_min_samples.
  double forward_p95_us() const;

  /// Lifecycle introspection. rollout_state() is sticky: it holds the
  /// terminal state of the last candidate (STABLE / ROLLED_BACK /
  /// QUARANTINED) between rollouts and the live state during one.
  RolloutState rollout_state() const {
    return static_cast<RolloutState>(
        rollout_state_.load(std::memory_order_relaxed));
  }
  /// Version the stable cohort serves (0 = initial in-memory weights).
  uint64_t stable_version() const;
  /// Completed hot-swaps since Start(); tags the serve.rollout.* metrics.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }
  /// Null unless options.rollout.model_dir was set.
  ModelRegistry* registry() { return registry_.get(); }

  /// Polls rollout_state() until it equals `state` or `timeout_ms`
  /// elapses. Returns whether the state was reached.
  bool WaitForRolloutState(RolloutState state, double timeout_ms) const;
  /// Same for stable_version() == `version`.
  bool WaitForStableVersion(uint64_t version, double timeout_ms) const;

  /// Watchdog introspection (plain code, valid in every build flavor):
  /// hung-worker incidents detected, requests reaped off hung workers,
  /// replacement workers started.
  uint64_t watchdog_hangs() const {
    return watchdog_hangs_.load(std::memory_order_relaxed);
  }
  uint64_t watchdog_reaps() const {
    return watchdog_reaps_.load(std::memory_order_relaxed);
  }
  uint64_t watchdog_replacements() const {
    return watchdog_replacements_.load(std::memory_order_relaxed);
  }
  /// Admissions shed by the overload controller (kShedding state) and
  /// stale requests dropped at dequeue by the CoDel sojourn bound.
  uint64_t overload_sheds() const {
    return overload_sheds_.load(std::memory_order_relaxed);
  }
  uint64_t stale_drops() const {
    return stale_drops_.load(std::memory_order_relaxed);
  }
  /// Memory-aware overload controller; null before Start().
  const OverloadController* overload() const { return overload_.get(); }

  /// Live per-task SLO windows (success rate, burn rate, p50/p99);
  /// task handles equal core::Task indices after Start().
  const obs::SloTracker& slo_tracker() const { return slo_; }
  /// Pushes every task's current SLO window into the slo.* gauges (the
  /// tracker also self-publishes periodically; telemetry exporters call
  /// this as their prelude so short windows are never stale).
  void PublishSlo() { slo_.Publish(); }

 private:
  /// Shared resolution point for one request's promise. Either the owning
  /// worker (via Finish) or the watchdog (via reap) resolves it — never
  /// both: the winner of done.exchange(true) sets the value, the loser's
  /// result becomes a no-op. This is what lets the supervisor hand the
  /// caller a definite kDeadlineExceeded while the wedged worker still
  /// holds the WorkItem.
  struct Completion {
    std::promise<Response> promise;
    std::atomic<bool> done{false};
  };

  struct WorkItem {
    Request request;
    std::shared_ptr<Completion> completion;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    double queue_wait_us = 0;  // Set at dequeue; echoed in the response.
    int batch_size = 1;        // Requests sharing this item's forward.
    /// Version of the model the worker serves this item with, stamped at
    /// dequeue (0 for requests that never reached a worker).
    uint64_t model_version = 0;
    /// Process-unique id allocated at Submit; stamps this request's spans
    /// and binds its chrome://tracing flow events (DESIGN.md §4.15).
    uint64_t trace_id = 0;
    /// Time from a worker's first look at this request to its batch's
    /// dispatch, stamped by the queue's dispatch callback.
    double batch_wait_us = 0;
    /// Per-stage latency attribution accumulated along the request path.
    StageBreakdown stages;
  };

  /// One KV decode session: the exact trajectory it served, the model
  /// version that computed the state, and the cached attention
  /// keys/values. Reuse is gated on full point-for-point prefix
  /// comparison — bit-identity is never entrusted to a probabilistic
  /// match.
  struct KvSession {
    uint64_t version = 0;
    data::Trajectory served;
    nn::KvCache cache;
    uint64_t tick = 0;
  };
  /// LRU of KV sessions, shared by every worker so an autoregressive walk
  /// keeps hitting no matter which worker serves each step. The mutex
  /// only guards the checkout/checkin list operations: a checked-out
  /// session is exclusively owned by one worker, which mutates its cache
  /// lock-free during the forward and checks it back in afterwards.
  struct KvSessionStore {
    /// Atomic because the hot path peeks at it lock-free (use_kv gate)
    /// while ApplyOverloadState shrinks it under memory pressure.
    std::atomic<size_t> capacity{0};
    std::mutex mu;
    uint64_t tick = 0;
    std::list<KvSession> sessions;
  };

  /// One model version, built by BuildVersion and never written after.
  /// Held by shared_ptr: a dequeue's copy keeps a retired version alive
  /// exactly until its last in-flight forward returns.
  struct ServedModel {
    uint64_t version = 0;
    std::unique_ptr<core::BigCityModel> model;
  };

  /// One dequeue's pick (PickModel): the version it serves with, and
  /// whether its requests feed the canary cohort or the stable one.
  struct Route {
    std::shared_ptr<const ServedModel> served;
    bool canary = false;
  };

  /// What the watchdog needs to resolve one in-flight request without
  /// touching the WorkItem the wedged worker still owns.
  struct InflightRecord {
    std::shared_ptr<Completion> completion;
    uint64_t id = 0;
    uint64_t trace_id = 0;
    core::Task task = core::Task::kNextHop;
    std::chrono::steady_clock::time_point submitted;
    double queue_wait_us = 0;
    uint64_t model_version = 0;
  };

  /// Per-worker heartbeat slot (DESIGN.md §4.16). The worker bumps `epoch`
  /// at every loop iteration and flags `busy` around request processing;
  /// the supervisor polls the epochs and declares a hang when a busy
  /// worker's epoch has not moved for hang_threshold_ms. `generation`
  /// counts worker incarnations in this slot: the supervisor bumps it when
  /// replacing a wedged worker, and the superseded thread sees the
  /// mismatch and exits instead of double-serving. `inflight` mirrors the
  /// requests the current incarnation is processing so a reap can resolve
  /// them from outside the wedged thread.
  struct alignas(64) Heartbeat {
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> busy{false};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> generation{0};
    std::mutex inflight_mu;
    std::vector<InflightRecord> inflight;
  };

  /// Sliding window of forward times; p95 over the last `kWindow` samples.
  class LatencyEstimator {
   public:
    void Record(double us);
    void Seed(double us, int copies);
    double P95(int min_samples) const;

   private:
    static constexpr size_t kWindow = 128;
    mutable std::mutex mu_;
    std::vector<double> samples_;  // Ring once kWindow is reached.
    size_t next_ = 0;
    size_t count_ = 0;
  };

  void WorkerLoop(int worker_index, uint64_t generation);
  void Finish(WorkItem& item, Response response);
  /// Watchdog-side completion of one reaped request: claims the shared
  /// Completion and resolves it with kDeadlineExceeded / Outcome::kReaped,
  /// feeding the same outcome counters and SLO window as Finish.
  void FinishReaped(const InflightRecord& record);
  /// Registers / clears the worker's current requests in its heartbeat
  /// slot so the supervisor can reap them without the worker's help.
  void RegisterInflight(Heartbeat& hb, const std::vector<WorkItem*>& items);
  void ClearInflight(Heartbeat& hb);
  /// Supervisor thread body: heartbeat hang scan + overload sampling at
  /// watchdog_poll_ms cadence.
  void SupervisorLoop();
  /// Reaps a hung worker: resolves its in-flight requests, supersedes the
  /// wedged incarnation (generation bump), parks its thread, and starts a
  /// replacement worker, which picks its models like every other worker.
  void ReapWorker(size_t worker);
  /// Applies the overload controller's current state to the live knobs
  /// (queue bound, KV capacity); the queue reads its shrunken batch_max
  /// through its own callback.
  void ApplyOverloadState();
  /// The request path: every dequeue is a batch of one or more same-task
  /// requests (DESIGN.md §4.11, §4.14). Per-member deadline checkpoints
  /// and validation, one breaker admission, per-member budget degradation,
  /// then one forward attempt for the survivors. A batch of two or more
  /// that fails splits into batches of one, each with its full retry
  /// budget under the same breaker decision. Finishes every item.
  void ProcessBatch(std::vector<WorkItem>& items, const Route& route,
                    nn::PlanCache* plans, KvSessionStore* kv);
  /// Deadline checkpoints 2 and 3 around ValidateRequest; counts the exit.
  util::Status Screen(WorkItem& item) const;
  util::Status ValidateRequest(const Request& request) const;
  /// One forward attempt over `items` (one task): the transient-fault
  /// sites, then RunModelBatch inside the worker's plan, with the outputs
  /// detached from the plan arena.
  util::Result<std::vector<nn::Tensor>> Forward(
      const std::vector<WorkItem*>& items, const ServedModel& served,
      nn::PlanCache* plans, KvSessionStore* kv);
  /// Model dispatch for one forward attempt: the batched entry point of
  /// next-hop, TTE and traffic prediction, the Try* call of a lone member
  /// of any other task. For next-hop with KV enabled every member checks
  /// out (or starts) a KV session, so a hit decodes only its new suffix
  /// and a miss prefills a session for its extensions.
  util::Result<std::vector<nn::Tensor>> RunModelBatch(
      const std::vector<WorkItem*>& items, const ServedModel& served,
      KvSessionStore* kv);
  /// Responses for the members of a successful forward attempt that
  /// started at `forward_start`: stage split, per-member non-finite screen
  /// and cohort sample, and the verdict on the dequeue's breaker
  /// `decision` (success when any output is finite; a probe whose outputs
  /// are all non-finite is released without one).
  std::vector<Response> Deliver(const std::vector<WorkItem*>& items,
                                std::vector<nn::Tensor> outputs,
                                std::chrono::steady_clock::time_point
                                    forward_start,
                                const Route& route,
                                CircuitBreaker::Decision decision);
  /// Serves one admitted request alone: forward attempts with bounded
  /// backoff retries, quarantine on kInvalidArgument, and exactly one
  /// breaker resolution of `decision` on every exit.
  Response ServeAlone(WorkItem& item, const Route& route,
                      CircuitBreaker::Decision decision,
                      nn::PlanCache* plans, KvSessionStore* kv);
  /// Longest-prefix session checkout: among stored sessions of `version`
  /// whose served trajectory is a point-for-point prefix of `trajectory`,
  /// removes and returns the one covering the most points (nullopt when
  /// none qualifies). The caller owns the session — and mutates its cache
  /// without locking — until CheckinKvSession.
  static std::optional<KvSession> CheckoutKvSession(
      KvSessionStore* kv, uint64_t version,
      const data::Trajectory& trajectory);
  /// Returns a session to the store, evicting the least-recently-used
  /// stored session at capacity and stamping the LRU tick.
  static void CheckinKvSession(KvSessionStore* kv, KvSession session);
  /// The baseline predictor's answer (OK and degraded), or kUnavailable
  /// for a task without one.
  Response Degrade(const Request& request) const;
  CircuitBreaker& BreakerFor(core::Task task);
  void PublishBreakerState(core::Task task);
  util::Status LoadWeights(core::BigCityModel* model,
                           const std::string& path) const;

  /// Builds one version's model: constructs it (LoRA attached when
  /// attach_lora), copies `prototype` when non-null, loads each non-empty
  /// file of `weight_files` in order through LoadWeights, then fills
  /// its ST feature library. Nothing writes the model afterwards.
  util::Result<std::shared_ptr<const ServedModel>> BuildVersion(
      uint64_t version, const core::BigCityModel* prototype,
      const std::vector<std::string>& weight_files) const;
  /// The model for one dequeue: the canary for every num_workers-th
  /// dequeue while a candidate is on trial, else the stable model.
  Route PickModel();
  void RolloutLoop();
  /// Sleeps up to `ms` on the controller condvar; true when stopping.
  bool RolloutWait(double ms);
  void RunRollout(const VersionInfo& info);
  void SetRolloutState(RolloutState state);

  const data::CityDataset* dataset_;
  const core::BigCityConfig model_config_;
  const ServeOptions options_;
  const core::BigCityModel* prototype_;

  BaselinePredictor baseline_;
  /// The one queue between Submit and the workers: bounded admission and
  /// continuous batching (DESIGN.md §4.11, §4.14).
  Batcher<WorkItem> queue_;
  KvSessionStore kv_sessions_;  // Capacity 0 when KV caching is off.
  LatencyEstimator forward_latency_;
  /// The served models. models_mu_ guards both pointers and the canary's
  /// dequeue count; a dequeue holds it for one pointer copy, never for a
  /// forward. canary_ is null unless a candidate is on trial.
  mutable std::mutex models_mu_;
  std::shared_ptr<const ServedModel> stable_;
  std::shared_ptr<const ServedModel> canary_;
  uint64_t canary_dequeues_ = 0;
  /// Worker threads by slot, guarded by workers_mu_ because the supervisor
  /// replaces entries while Stop may be joining. A replaced (wedged)
  /// thread moves to parked_ and is joined at Stop — stalls are finite and
  /// disarm-released, so the joins terminate.
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> parked_;
  std::vector<std::unique_ptr<Heartbeat>> heartbeats_;

  // Watchdog + overload machinery (DESIGN.md §4.16).
  std::unique_ptr<OverloadController> overload_;
  std::thread supervisor_thread_;
  std::mutex supervisor_mu_;
  std::condition_variable supervisor_cv_;
  bool supervisor_stop_ = false;
  // Plain-code introspection for tests in the probes-compiled-out flavor.
  std::atomic<uint64_t> watchdog_hangs_{0};
  std::atomic<uint64_t> watchdog_reaps_{0};
  std::atomic<uint64_t> watchdog_replacements_{0};
  std::atomic<uint64_t> overload_sheds_{0};
  std::atomic<uint64_t> stale_drops_{0};
  // One breaker per task, indexed by core::Task. Constructed in Start()
  // (breaker knobs come from options_), read-only pointers afterwards.
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  // Per-task serve.breaker.state.<name> gauge handles; null when the obs
  // build flavor compiles probes out.
  std::array<obs::Gauge*, core::kNumTasks> breaker_gauges_{};
  // serve.outcome.<TaskName>.<outcome> counter handles, resolved once in
  // Start() (names are dynamic, so the macro fast path cannot cache
  // them); null in the probes-compiled-out flavor.
  std::array<std::array<obs::Counter*, kNumOutcomes>, core::kNumTasks>
      outcome_counters_{};
  // Per-task SLO sliding windows; task handles equal core::Task indices.
  obs::SloTracker slo_;

  // Lifecycle machinery (all unused when rollout.model_dir is empty).
  std::unique_ptr<ModelRegistry> registry_;
  CohortStats stable_stats_;
  CohortStats canary_stats_;
  std::thread rollout_thread_;
  std::mutex rollout_mu_;
  std::condition_variable rollout_cv_;
  bool rollout_stop_ = false;
  std::atomic<int> rollout_state_{static_cast<int>(RolloutState::kIdle)};
  std::atomic<uint64_t> generation_{0};

  bool running_ = false;
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_SERVER_H_
