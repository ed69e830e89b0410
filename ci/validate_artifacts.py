#!/usr/bin/env python3
"""Machine-readability + invariant checks for CI smoke artifacts.

usage: validate_artifacts.py <train|serve|rollout|trace|watchdog> <artifact-dir>

Each subcommand validates the JSON artifacts one ci/run_ci.sh smoke
leaves in its ci-artifacts/<job> directory. The checks go beyond
grep-ability: every file must parse whole, and the fields the serving
and training subsystems promise (DESIGN.md §4.9-§4.15) must be present
and non-trivial.
"""
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def validate_train(d):
    """Trace/report/metrics/profile of a bigcity_cli train smoke."""
    for name in ("trace.json", "metrics.json", "profile.json"):
        load(f"{d}/{name}")
    with open(f"{d}/report.jsonl") as f:
        records = [json.loads(line) for line in f]
    assert any(r.get("event") == "epoch" for r in records)
    assert any(r.get("event") == "health" for r in records)
    assert records[-1]["event"] == "summary"
    assert "queue_wait_p95_us" in records[-1]
    metrics = load(f"{d}/metrics.json")
    assert metrics["counters"]["plan.cache.hit"] > 0, "plan cache never hit"
    print(f"train json validation ok: {len(records)} report records")


def validate_serve(d):
    """BENCH_serve.json (bench_serve) + serve_metrics.json (CLI replay)."""
    bench = load(f"{d}/BENCH_serve.json")
    levels = bench["levels"]
    assert [l["load_multiplier"] for l in levels] == [1, 2, 4], levels
    for l in levels:
        assert l["ok"] + l["shed"] + l["other"] == l["issued"], l
        assert l["throughput_rps"] >= 0 and 0 <= l["shed_rate"] <= 1, l
    # The batcher must actually coalesce under backlog: at 4x load the
    # smoke's client count exceeds the worker count, so per-request
    # forwards (mean batch size 1.0) mean the batching engine is off or
    # broken.
    assert levels[-1]["mean_batch_size"] > 1, levels[-1]
    batching = bench["batching"]
    assert batching["mean_batch_size_4x"] > 1, batching
    assert batching["p99_within_deadline"] is True, batching
    counters = batching["counters"]
    # Requests read the served version's ST feature library.
    assert counters["serve.cache.tokenizer.hit"] > 0, counters
    assert counters["serve.cache.kv.hit"] > 0, counters
    reload_ = bench["reload"]
    assert reload_["swap_completed"] is True, reload_
    assert reload_["served_by_new_version"] > 0, reload_
    assert (reload_["ok"] + reload_["shed"] + reload_["other"]
            == reload_["issued"])
    assert reload_["p99_us"] > 0 and 0 <= reload_["shed_rate"] <= 1, reload_
    # The hot-swap must not push admitted-request p99 past the serving SLO.
    assert reload_["p99_us"] <= reload_["deadline_ms"] * 1000, reload_
    metrics = load(f"{d}/serve_metrics.json")
    batch_size = metrics["histograms"]["serve.batch.size"]
    assert batch_size["count"] > 0, batch_size
    assert batch_size["sum"] / batch_size["count"] > 1, batch_size
    # Each version's ST feature library is filled once, when the version
    # is built (DESIGN.md §4.11): the replay's requests read it, and its
    # fills number at most one library per weight version served. A slice
    # filled on the request path breaks the bound.
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    assert counters["serve.cache.tokenizer.hit"] > 0, counters
    versions = 1 + int(gauges.get("serve.rollout.generation", 0))
    library_slices = int(gauges["core.st_library.slices"])
    library_fills = counters.get("serve.cache.tokenizer.miss", 0)
    assert 0 < library_fills <= library_slices * versions, (
        library_fills, library_slices, versions)
    # Frozen weights are packed once and shared (DESIGN.md §4.8): the replay
    # read prepacked panels, and it packed each weight once per weight
    # version served. The bound is the packings still alive at the end (the
    # served model, which outlives the snapshot, shares one per weight
    # content), a count that a forward repacking a weight does not raise:
    # the new packing replaces the old one in the weight's slot.
    prepacked = counters.get("kernels.gemm.prepacked_calls", 0)
    assert prepacked > 0, counters
    weights = int(gauges["kernels.pack.live_packings"])
    packings = counters["kernels.pack.packings"]
    assert 0 < packings <= weights * versions, (packings, weights, versions)
    # Autograd-free forwards start from each instruction's cached K/V
    # (DESIGN.md §4.3): the replay read entries, and it filled each entry
    # once per weight version served. The bound is the entries still alive
    # at the end (a model keeps one per distinct instruction and replaces a
    # stale one in place), a count that refilling on every request does not
    # raise.
    kv_hits = counters.get("core.instruction_kv.hit", 0)
    kv_fills = counters.get("core.instruction_kv.fill", 0)
    kv_entries = int(gauges.get("core.instruction_kv.live", 0))
    assert kv_hits > 0, counters
    assert 0 < kv_fills <= kv_entries * versions, (kv_fills, kv_entries,
                                                   versions)
    print(f"serve json validation ok: {len(levels)} load levels + reload, "
          f"mean batch size {batch_size['sum'] / batch_size['count']:.2f}, "
          f"{library_fills} library fills of {library_slices} slices, "
          f"{prepacked} prepacked GEMMs, {packings} packings of "
          f"{weights} live packed weights x {versions} version(s), "
          f"{kv_hits} instruction K/V hits, {kv_fills} fills of "
          f"{kv_entries} live entries")


def validate_rollout(d):
    """chaos_soak report: lifecycle invariants + event coverage."""
    report = load(f"{d}/chaos_report.json")
    assert report["pass"] is True, report["violations"]
    assert not report["violations"]
    req = report["requests"]
    assert req["submitted"] > 0 and req["broken_promises"] == 0, req
    assert req["other_failures"] == 0, req
    ev = report["events"]
    # One full schedule cycle minimum: every event kind must have run.
    assert all(v >= 1 for v in ev.values()), ev
    counters = report["metrics"]["counters"]
    for name in ("serve.rollout.published", "serve.rollout.staged",
                 "serve.rollout.completed", "serve.rollout.rolled_back",
                 "serve.rollout.quarantined"):
        assert counters.get(name, 0) >= 1, (name, counters)
    gauges = report["metrics"]["gauges"]
    assert ("serve.rollout.state" in gauges
            and "serve.rollout.generation" in gauges)
    assert any(k.startswith("serve.breaker.state.") for k in gauges), gauges
    print(f"rollout json validation ok: {req['submitted']} requests, "
          f"{sum(ev.values())} chaos events")


def validate_watchdog(d):
    """Self-healing artifacts (DESIGN.md §4.16): the bench hang section
    and/or the chaos report's watchdog block must show a hung worker
    reaped, a replacement spun up, every reaped request definite, and
    memory pressure resolved under budget.
    """
    checked = []
    bench_path = f"{d}/BENCH_serve.json"
    if os.path.exists(bench_path):
        hang = load(bench_path)["hang"]
        assert hang["reaps"] >= 1 and hang["replacements"] >= 1, hang
        assert hang["recovered"] is True, hang
        # Reaped requests fail definitively; nothing may vanish.
        assert (hang["ok"] + hang["shed"] + hang["reaped"] + hang["other"]
                == hang["issued"]), hang
        assert hang["other"] == 0, hang
        assert hang["prehang_rps"] > 0, hang
        checked.append(f"bench hang: {hang['reaps']} reaps, recovery "
                       f"{hang['recovery_ms']:.0f} ms")
    chaos_path = f"{d}/chaos_report.json"
    if os.path.exists(chaos_path):
        report = load(chaos_path)
        wd = report["watchdog"]
        assert wd["reaps"] >= 1 and wd["replacements"] >= 1, wd
        assert wd["overload_sheds"] >= 1, wd
        assert wd["peak_sampled_bytes"] < wd["mem_budget_bytes"], wd
        assert wd["overload_state"] == "normal", wd
        ev = report["events"]
        assert ev["worker_reaps"] >= 1 and ev["leak_sheds"] >= 1, ev
        counters = report["metrics"]["counters"]
        for name in ("serve.watchdog.hangs", "serve.watchdog.reaped",
                     "serve.watchdog.replacements", "serve.overload.shed",
                     "serve.overload.entered_shedding",
                     "serve.overload.recovered"):
            assert counters.get(name, 0) >= 1, (name, counters)
        gauges = report["metrics"]["gauges"]
        for name in ("serve.overload.state", "serve.overload.budget_bytes",
                     "serve.overload.peak_bytes"):
            assert name in gauges, (name, sorted(gauges))
        checked.append(f"chaos watchdog: {wd['reaps']} reaps, peak "
                       f"{wd['peak_sampled_bytes']} / budget "
                       f"{wd['mem_budget_bytes']} bytes")
    assert checked, f"no watchdog artifacts (BENCH_serve/chaos_report) in {d}"
    print("watchdog validation ok: " + "; ".join(checked))


def validate_trace(d):
    """serve_trace.json (bench_serve --trace-out): request-scoped flows
    must render connected in chrome://tracing, and the serve metrics
    snapshot (when present) must carry the slo.* gauges (DESIGN.md §4.15).
    """
    trace = load(f"{d}/serve_trace.json")
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    flows = [e for e in events if e["ph"] in ("s", "t", "f")]
    assert spans and flows, (len(spans), len(flows))
    assert any("trace_id" in e.get("args", {}) for e in spans), \
        "no span is stamped with a trace id"

    by_id = {}
    for e in flows:
        by_id.setdefault(e["id"], set()).add(e["ph"])
    connected = [i for i, phases in by_id.items()
                 if {"s", "t", "f"} <= phases]
    assert connected, f"no fully connected flow among {len(by_id)} ids"

    # Spot-check connection details on a bounded sample: the flow must
    # cross threads, every marker must land inside a slice on its thread
    # (chrome anchors the arrows to those slices), and the finish marker
    # must bind to its enclosing slice.
    spans_by_tid = {}
    for e in spans:
        spans_by_tid.setdefault(e["tid"], []).append(e)
    for flow_id in connected[:25]:
        markers = [e for e in flows if e["id"] == flow_id]
        assert len({e["tid"] for e in markers}) >= 2, markers
        for m in markers:
            assert any(s["ts"] <= m["ts"] <= s["ts"] + s["dur"]
                       for s in spans_by_tid.get(m["tid"], [])), m
            if m["ph"] == "f":
                assert m.get("bp") == "e", m

    metrics_path = f"{d}/serve_metrics.json"
    if os.path.exists(metrics_path):
        metrics = load(metrics_path)
        gauges = metrics["gauges"]
        tasks = {k.split(".")[1] for k in gauges if k.startswith("slo.")}
        assert tasks, "no slo.* gauges in serve metrics"
        for task in tasks:
            for field in ("success_rate", "burn_rate", "p50_us", "p99_us",
                          "p99_within_objective", "window_requests"):
                assert f"slo.{task}.{field}" in gauges, (task, field)
        assert "serve.batch.wait_us" in metrics["histograms"], \
            sorted(metrics["histograms"])
    print(f"trace json validation ok: {len(connected)} connected flows "
          f"over {len(by_id)} ids, {len(spans)} spans")


def main():
    commands = {"train": validate_train,
                "serve": validate_serve,
                "rollout": validate_rollout,
                "trace": validate_trace,
                "watchdog": validate_watchdog}
    if len(sys.argv) != 3 or sys.argv[1] not in commands:
        print("usage: validate_artifacts.py "
              "<train|serve|rollout|trace|watchdog> "
              "<artifact-dir>", file=sys.stderr)
        return 2
    commands[sys.argv[1]](sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
