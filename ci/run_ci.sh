#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: every CI job runs this script
# with its job name, so "works in CI" and "works locally" are the same code
# path by construction.
#
# usage: ci/run_ci.sh [release|sanitize|tsan|obs-off|all]
#
# Jobs:
#   release  Release build, full ctest (includes the bench_gate perf smoke
#            with its kernel/train/serve gates), the batch, core, serve,
#            plan, watchdog, packed-weight and attention suites again on the
#            naive GEMM oracle (BIGCITY_GEMM=naive), format_check, a 2-epoch
#            bigcity_cli train smoke on --threads 2 that validates the
#            trace / run-report / metrics outputs, a high-concurrency serve
#            smoke (bench_serve --fast + bigcity_cli serve) that validates
#            BENCH_serve.json and the serve metrics snapshot — including
#            that the continuous batcher actually coalesced (mean batch
#            size > 1), that the replay read shared packed weights (no
#            more packings than live ones per weight version), that
#            autograd-free forwards started from cached instruction K/V
#            (hits, and no more fills than live entries per weight
#            version), and that the hang-injection section saw the
#            watchdog reap + replace a wedged worker — and a fixed-seed
#            rollout smoke (chaos_soak) validating the hot-swap/canary/
#            rollback and self-healing (stall/leak) invariants and report
#            JSON, and the benchmark's own tests (perfbench/tests: smoke
#            runs of every workload, traced and untraced, with all
#            correctness gates), and kernels_check in a -DBIGCITY_NATIVE_ARCH=ON build:
#            under -march=native the compiler could contract a scalar tail's
#            multiply-add into an FMA, and the transcendental loops'
#            same-bits-in-every-lane contract must hold there too. Artifact
#            JSON checks live in ci/validate_artifacts.py.
#   sanitize Debug build with ASan+UBSan running the resilience_check,
#            kernels_check, and serve_check suites (the latter includes the
#            watchdog/overload tests) plus a short --threads 2 CLI smoke
#            and a short rollout smoke whose schedule includes the
#            leak-site memory-pressure scenario.
#   tsan     RelWithDebInfo build with TSan running the serve_check suite
#            (server, the one bounded batching queue under concurrent
#            producers and workers, KV session store, thread pool,
#            watchdog, and four threads filling one backbone's
#            instruction K/V at once)
#            and the packed-weight suite (four threads racing to pack one
#            shared model's weights on their first forwards),
#            plus a short batched serve smoke — the batching engine's
#            cross-thread handoffs (the one request queue, shared
#            tokenizer/KV caches, promise completion) and the watchdog's
#            hang-injection reap/replace path must be clean under the
#            race detector.
#   obs-off  Release build with -DBIGCITY_OBS=OFF proving every probe
#            compiles out and the full suite still passes.
set -euo pipefail
cd "$(dirname "$0")/.."

JOB="${1:-all}"
PAR="${CI_PARALLELISM:-$(nproc)}"

log() { printf '\n=== %s ===\n' "$*"; }

# Validates the observability artifacts of a CLI train smoke run.
check_obs_outputs() {
  local dir="$1"
  local span
  grep -q '"traceEvents"' "$dir/trace.json"
  for span in data forward backward optim; do
    grep -q "\"name\":\"$span\"" "$dir/trace.json" ||
      { echo "missing $span span in trace.json" >&2; return 1; }
  done
  grep -q '"tokens_per_sec"' "$dir/report.jsonl"
  grep -q '"gemm_flops"' "$dir/report.jsonl"
  grep -q '"event":"summary"' "$dir/report.jsonl"
  grep -q '"event":"health"' "$dir/report.jsonl"
  grep -q '"kernels.gemm.flops"' "$dir/metrics.json"
  grep -q '"p95"' "$dir/metrics.json"
  # Execution plans (DESIGN.md §4.13) must actually engage: a training
  # smoke with plans on replays from the cache after one capture per stage.
  grep -q '"plan.cache.hit"' "$dir/metrics.json"
  grep -q '"plan.arena.bytes"' "$dir/metrics.json"
  grep -q '"ops"' "$dir/profile.json"
  grep -q '"modules"' "$dir/profile.json"
  # Every artifact must be machine-readable, not just grep-able: the JSON
  # files parse whole, the report parses line by line.
  if command -v python3 > /dev/null; then
    python3 ci/validate_artifacts.py train "$dir"
  fi
  echo "obs outputs ok: $(wc -l < "$dir/report.jsonl") report records"
}

train_smoke() {
  local build="$1" job="$2"; shift 2
  # Persistent artifact dir (uploaded by CI, .gitignored locally) instead
  # of a temp dir, so the trace/report/metrics/profile of every smoke run
  # are inspectable after the job finishes.
  local out="ci-artifacts/$job"
  rm -rf "$out"
  mkdir -p "$out"
  "$build/tools/bigcity_cli" train --city XA --scale 0.2 --threads 2 \
    --save "$out/model.bin" --trace-out "$out/trace.json" \
    --run-report "$out/report.jsonl" --metrics-out "$out/metrics.json" \
    --profile "$out/profile.json" --health-every 5 "$@"
  check_obs_outputs "$out"
}

# High-concurrency serve smoke: closed-loop bench at 1x/2x/4x load (at 4x
# the client count is 4x the worker count, so the continuous batcher must
# coalesce — the validator asserts mean batch size > 1) plus a CLI serve
# replay, validating that BENCH_serve.json and the serve metrics snapshot
# are machine-readable and carry the batching/cache fields.
serve_smoke() {
  local build="$1" job="$2"
  local out="ci-artifacts/$job"
  mkdir -p "$out"
  log "$job: serve smoke (bench_serve --fast, 4 workers x 3 load levels)"
  (cd "$out" && "../../$build/bench/bench_serve" --fast --workers 4 \
    --requests 8 --trace-out serve_trace.json)
  grep -q '"shed_rate"' "$out/BENCH_serve.json"
  grep -q '"throughput_rps"' "$out/BENCH_serve.json"
  grep -q '"p95_us"' "$out/BENCH_serve.json"
  grep -q '"mean_batch_size"' "$out/BENCH_serve.json"
  # The hang-injection section ran: a wedged worker was reaped and
  # replaced, and throughput recovered (asserted by the watchdog check).
  grep -q '"recovery_ms"' "$out/BENCH_serve.json"
  log "$job: serve smoke (bigcity_cli serve replay)"
  "$build/tools/bigcity_cli" generate --city XA --scale 0.05 \
    --out "$out/serve_trips.csv"
  "$build/tools/bigcity_cli" serve --city XA --scale 0.05 \
    --requests "$out/serve_trips.csv" --task next --workers 2 --queue 64 \
    --metrics-out "$out/serve_metrics.json" \
    --telemetry-out "$out/serve_telemetry.jsonl" --telemetry-interval-ms 200
  grep -q '"serve.submitted"' "$out/serve_metrics.json"
  grep -q '"serve.e2e_us"' "$out/serve_metrics.json"
  # Per-worker inference plans engaged during the replay.
  grep -q '"plan.cache.hit"' "$out/serve_metrics.json"
  # Batching engaged during the replay, and requests read the served
  # version's ST feature library (filled once when the version was built).
  grep -q '"serve.batch.size"' "$out/serve_metrics.json"
  grep -q '"serve.cache.tokenizer.hit"' "$out/serve_metrics.json"
  # Live SLO telemetry (DESIGN.md §4.15): the exporter streamed deltas and
  # the snapshot carries the slo.* gauges + batch-wait histogram; the
  # dashboard subcommands render both artifacts.
  grep -q '"event":"telemetry"' "$out/serve_telemetry.jsonl"
  grep -q '"slo.' "$out/serve_metrics.json"
  grep -q '"serve.batch.wait_us"' "$out/serve_metrics.json"
  "$build/tools/bigcity_cli" metrics --in "$out/serve_metrics.json" \
    > "$out/metrics_render.txt"
  grep -q 'serve.e2e_us' "$out/metrics_render.txt"
  "$build/tools/bigcity_cli" top --in "$out/serve_telemetry.jsonl" \
    > "$out/top_render.txt"
  grep -q 'QPS' "$out/top_render.txt"
  if command -v python3 > /dev/null; then
    python3 ci/validate_artifacts.py serve "$out"
    python3 ci/validate_artifacts.py trace "$out"
    python3 ci/validate_artifacts.py watchdog "$out"
  fi
  echo "serve smoke ok"
}

# Model-lifecycle + self-healing gate: a fixed-seed chaos soak (hot-swap,
# canary, rollback, quarantine, wedged-worker stall, injected memory leak
# under mixed-task load) capped well under 150s, then a
# machine-readability + invariant check of its JSON report.
rollout_smoke() {
  local build="$1" job="$2" seconds="$3"
  local out="ci-artifacts/$job"
  mkdir -p "$out"
  log "$job: rollout smoke (chaos_soak --seconds $seconds, fixed seed)"
  timeout 150 "$build/tools/chaos_soak" --seconds "$seconds" --seed 7 \
    --model-dir "$out/chaos_models" --json "$out/chaos_report.json"
  if command -v python3 > /dev/null; then
    python3 ci/validate_artifacts.py rollout "$out"
    python3 ci/validate_artifacts.py watchdog "$out"
  fi
  echo "rollout smoke ok"
}

run_release() {
  log "release: configure + build"
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci-release -j"$PAR"
  log "release: full test suite"
  ctest --test-dir build-ci-release --output-on-failure -j"$PAR"
  log "release: parity suites on the naive GEMM oracle (BIGCITY_GEMM=naive)"
  BIGCITY_GEMM=naive ctest --test-dir build-ci-release --output-on-failure \
    -j"$PAR" \
    -R '^(batch_test|core_test|serve_test|plan_test|watchdog_test|packed_weight_test|attention_test)$'
  log "release: format check"
  cmake --build build-ci-release --target format_check
  log "release: CLI train smoke (--threads 2, obs outputs)"
  train_smoke build-ci-release release --epochs1 1 --epochs2 1
  serve_smoke build-ci-release release
  rollout_smoke build-ci-release release 30
  log "release: perfbench tests (smoke runs of every workload, all gates)"
  python3 -m unittest discover -s perfbench/tests
  log "release: kernel suite under -march=native (no-FMA contract)"
  cmake -B build-ci-native -S . -DCMAKE_BUILD_TYPE=Release \
    -DBIGCITY_NATIVE_ARCH=ON
  cmake --build build-ci-native -j"$PAR" --target kernels_check
}

run_sanitize() {
  log "sanitize: configure + build (ASan+UBSan, Debug)"
  cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    "-DBIGCITY_SANITIZE=address;undefined"
  log "sanitize: resilience suite"
  cmake --build build-ci-asan -j"$PAR" --target resilience_check
  log "sanitize: kernel suite"
  cmake --build build-ci-asan -j"$PAR" --target kernels_check
  log "sanitize: serving suite (queue/deadline/retry/breaker/degrade)"
  cmake --build build-ci-asan -j"$PAR" --target serve_check
  log "sanitize: CLI train smoke (--threads 2)"
  cmake --build build-ci-asan -j"$PAR" --target bigcity_cli
  # Pretrain + one stage-1 epoch only: Debug+ASan makes stage 2 too slow
  # for a smoke, and the guarded-step / kernel paths are all hit by here.
  train_smoke build-ci-asan sanitize --epochs1 1 --epochs2 0
  # Short budget: the soak always completes one full schedule cycle (all
  # nine event kinds, including the stall-reap and leak-shed scenarios)
  # even when Debug+ASan eats the whole time budget.
  cmake --build build-ci-asan -j"$PAR" --target chaos_soak
  rollout_smoke build-ci-asan sanitize 3
}

run_tsan() {
  log "tsan: configure + build (TSan, RelWithDebInfo)"
  # RelWithDebInfo, not Debug: TSan already costs 5-15x and the serving
  # suite spins real worker/batcher/watcher threads under load.
  cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBIGCITY_SANITIZE=thread
  log "tsan: serving suite (server, request queue, KV sessions, thread pool)"
  cmake --build build-ci-tsan -j"$PAR" --target serve_check
  log "tsan: packed-weight suite (concurrent first forwards, one model)"
  cmake --build build-ci-tsan -j"$PAR" --target packed_weight_test
  ctest --test-dir build-ci-tsan --output-on-failure -R packed_weight_test
  log "tsan: batched serve smoke (bench_serve --fast, 4 workers)"
  cmake --build build-ci-tsan -j"$PAR" --target bench_serve
  local out="ci-artifacts/tsan"
  rm -rf "$out"
  mkdir -p "$out"
  # The smoke drives the full engine — the bounded batching queue, one
  # model per version shared by every worker, KV sessions, hot-swap
  # reload — with every cross-thread handoff under the race detector. TSan
  # aborts the run on a report.
  (cd "$out" && "../../build-ci-tsan/bench/bench_serve" --fast --workers 4 \
    --requests 4 --trace-out serve_trace.json)
  grep -q '"mean_batch_size"' "$out/BENCH_serve.json"
  # Request flows must stay connected even under TSan interleavings (no
  # serve_metrics.json here, so the validator checks the trace alone), and
  # the hang-injection section's reap/replace must hold under the race
  # detector too.
  if command -v python3 > /dev/null; then
    python3 ci/validate_artifacts.py trace "$out"
    python3 ci/validate_artifacts.py watchdog "$out"
  fi
  echo "tsan smoke ok"
}

run_obs_off() {
  log "obs-off: configure + build (-DBIGCITY_OBS=OFF)"
  cmake -B build-ci-obsoff -S . -DCMAKE_BUILD_TYPE=Release -DBIGCITY_OBS=OFF
  cmake --build build-ci-obsoff -j"$PAR"
  log "obs-off: full test suite"
  # bench_gate is excluded: its speedup baselines are recorded under the
  # OBS=ON release build (tools/bench_gate --write-baseline), where probe
  # overhead in the naive reference inflates the blocked-kernel speedup.
  # The ratios are not comparable across OBS flavors.
  ctest --test-dir build-ci-obsoff --output-on-failure -j"$PAR" -E bench_gate
}

case "$JOB" in
  release) run_release ;;
  sanitize) run_sanitize ;;
  tsan) run_tsan ;;
  obs-off) run_obs_off ;;
  all)
    run_release
    run_sanitize
    run_tsan
    run_obs_off
    ;;
  *)
    echo "usage: ci/run_ci.sh [release|sanitize|tsan|obs-off|all]" >&2
    exit 2
    ;;
esac

log "ci job '$JOB' passed"
