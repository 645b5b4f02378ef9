#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark: every workload, wrapper and check.

Usage, from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

It runs each workload untraced and traced at toy sizes (the registry at its
real profile, which is already small), and checks that

* every metric named in BENCHMARK.json is reported, with its unit;
* traced outcomes equal untraced ones, per-layer counts repeat exactly,
  every wrap target exists, and the reported layers' self times add up to
  the traced run time (all counted inside the runs), while time left
  outside the reported layers or an absent wrap target fails the run;
* the traced profile has the shape each workload was chosen for;
* ambient ``REPRO_*`` settings are dropped;
* a deliberately corrupted output is counted as a failed operation instead
  of crashing the run, for a protocol workload and for the registry.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run

FAILURES = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def log(message: str) -> None:
    print(f"     (benchmark log) {message}")


def check_metrics(label: str, metrics: dict, expected: dict) -> None:
    check(set(metrics) == set(expected), f"{label}: reports exactly the declared metrics")


def tiny_panel(workload: str, n: int, size: int) -> list:
    import workloads as wl

    return [
        wl.Instance(workload, n, seed) for seed in wl.panel_seeds(7, size)
    ]


def protocol_workload(workload: str, n: int) -> dict:
    panel = tiny_panel(workload, n, 2)
    metrics, attempted, failed, _ = run.measure_protocol(panel, 0.0, log)
    check_metrics(workload, metrics, run.END_TO_END)
    check(failed == 0 and attempted == 2, f"{workload}: untraced runs pass their checks")
    check(all(v > 0 for v in metrics.values()), f"{workload}: every end-to-end metric is non-zero")
    spans = os.path.join(run.OUT, "spans", f"selftest-{workload}.jsonl")
    layers, attempted, failed, _ = run.trace_protocol(panel, 0.0, log, spans)
    check_metrics(workload + " traced", layers, run.per_layer_units())
    check(
        failed == 0 and attempted == 8,
        f"{workload}: traced == untraced, counts repeat, self times add up",
    )
    check(os.path.getsize(spans) > 0, f"{workload}: spans written")
    return layers


def corrupted_protocol_run() -> None:
    import numpy as np
    import workloads as wl

    original = wl.informed_ids

    def with_stranger(state):
        return np.append(original(state), state.n)

    wl.informed_ids = with_stranger
    try:
        _, attempted, failed, _ = run.measure_protocol(tiny_panel("mh-gilbert", 500, 1), 0.0, log)
    finally:
        wl.informed_ids = original
    check(attempted == 1 and failed == 1, "corrupted protocol output counted as failed")


def broken_tracing() -> None:
    """An unreported layer, or a wrap target the tree lacks, fails each traced run."""

    import tracing

    panel = tiny_panel("sh-jammed", 256, 1)
    spans = os.path.join(run.OUT, "spans", "selftest-broken.jsonl")
    saved = dict(run.LAYER_SECONDS)
    del run.LAYER_SECONDS["fastengine.single_hop_s"]
    try:
        _, attempted, failed, _ = run.trace_protocol(panel, 0.0, log, spans)
    finally:
        run.LAYER_SECONDS.clear()
        run.LAYER_SECONDS.update(saved)
    check(attempted == 4 and failed == 2, "time outside the reported layers fails the traced runs")

    original = tracing.install

    def install_with_gap(*args):
        patch = original(*args)
        patch.missing.append("Topology.removed_method")
        return patch

    tracing.install = install_with_gap
    try:
        _, attempted, failed, _ = run.trace_protocol(panel, 0.0, log, spans)
    finally:
        tracing.install = original
    check(attempted == 4 and failed == 2, "an absent wrap target fails the traced runs")


def corrupted_registry_pass() -> None:
    import workloads as wl

    original = wl.render_result

    def corrupt(result):
        text = original(result)
        return text + " " if result.experiment_id == "E3" else text

    wl.render_result = corrupt
    try:
        _, attempted, failed, _, _ = run.measure_registry(0, 0.0, log)
    finally:
        wl.render_result = original
    check(attempted == 1 and failed == 1, "corrupted registry table counted as failed")


def main() -> int:
    os.environ["REPRO_JOBS"] = "7"
    dropped = run.pin_environment()
    check("REPRO_JOBS" in dropped and "REPRO_JOBS" not in os.environ, "REPRO_* settings dropped")
    sys.path.insert(0, run.SRC)
    os.makedirs(os.path.join(run.OUT, "spans"), exist_ok=True)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches the benchmark")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == run.per_layer_units(), "BENCHMARK.json per_layer matches the benchmark")
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "workload names are known")

    sh = protocol_workload("sh-jammed", 256)
    slowest = max((v, k) for k, v in sh.items() if k.endswith("_s") and not k.startswith("bench."))
    check(slowest[1] == "fastengine.single_hop_s", f"sh-jammed: single-hop engine dominates ({slowest[1]})")
    check(sh["fastengine.dense_s"] == 0 and sh["fastengine.sparse_s"] == 0, "sh-jammed: no multi-hop engine path")

    mh = protocol_workload("mh-gilbert", 5000)
    check(mh["fastengine.dense_s"] == 0 and mh["fastengine.sparse_s"] > 0, "mh-gilbert: sparse engine path only")
    check(mh["topology.frontier_reachable_calls"] > 0 and mh["topology.any_neighbor_in_calls"] > 0,
          "mh-gilbert: truncation BFS and relay retirement run")
    check(mh["jamming.materialize_s"] < 0.01 * mh["bench.traced_run_s"], "mh-gilbert: jamming is about 0")
    check(mh["topology.edges"] > 0, "mh-gilbert: edges counted")

    metrics, attempted, failed, _, _ = run.measure_registry(1, 0.0, log)
    check_metrics("registry-cold", metrics, run.END_TO_END)
    check(failed == 0, "registry-cold: tables equal EXPERIMENTS.md (rotated order)")
    spans = os.path.join(run.OUT, "spans", "selftest-registry-cold.jsonl")
    layers, attempted, failed, _ = run.trace_registry(2, 0.0, log, spans)
    check_metrics("registry-cold traced", layers, run.per_layer_units())
    check(failed == 0, "registry-cold: traced tables, counts, accounting and warm replay hold")
    check(layers["fastengine.dense_s"] > 0, "registry-cold: dense engine path runs")
    check(layers["cache.warm_hits"] == layers["runner.trials_executed"] > 0,
          "registry-cold: warm replay serves every trial from the cache")

    broken_tracing()
    corrupted_protocol_run()
    corrupted_registry_pass()

    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
