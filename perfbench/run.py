#!/usr/bin/env python3
"""Benchmark of the ε-Broadcast simulator: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sh-jammed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see perfbench/README.md for why each was chosen):

* ``sh-jammed``     single-hop EpsilonBroadcast against the phase blocker;
* ``mh-gilbert``    pipelined MultiHopBroadcast over a sparse Gilbert graph;
* ``registry-cold`` the quick experiment registry E1–E14 into an empty cache.

``--trace 0`` measures with no wrappers installed and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes, wraps each
layer's public entry points from outside the program, and prints per-layer
self times and work counts.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, every sample, the spans) goes under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibrate import kernel_seconds, rescaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sh-jammed", "mh-gilbert", "registry-cold")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "slots_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
    "delivery_ratio": "ratio",
    "slots_simulated": "slots",
    "node_cost_mean": "slots",
    "alice_cost": "slots",
}

# Per-layer self times: metric -> span name recorded by perfbench/tracing.py.
LAYER_SECONDS = {
    "topology.build_s": "topology.build",
    "network.init_s": "network.init",
    "broadcast.init_s": "broadcast.init",
    "fastengine.single_hop_s": "fastengine.single_hop",
    "fastengine.sparse_s": "fastengine.sparse",
    "fastengine.dense_s": "fastengine.dense",
    "jamming.materialize_s": "jamming.materialize",
    "topology.frontier_reachable_s": "topology.frontier_reachable",
    "topology.any_neighbor_in_s": "topology.any_neighbor_in",
    "topology.nodes_in_disk_s": "topology.nodes_in_disk",
    "energy.charge_bulk_many_s": "energy.charge_bulk_many",
    "network.node_costs_s": "network.node_costs",
    "state.transitions_s": "state.transitions",
    "state.cohort_arrays_s": "state.cohort_arrays",
    "quietrule.budgets_s": "quietrule.budgets",
    "quietrule.streaks_s": "quietrule.streaks",
    "termination.request_phase_s": "termination.request_phase",
    "adversary.plan_s": "adversary.plan",
    "phases.schedule_s": "phases.schedule",
    "broadcast.self_s": "broadcast",
    "baselines.self_s": "baselines",
    "runner.schedule_s": "runner.schedule",
    "runner.fanout_s": "runner.fanout",
    "runner.reassemble_s": "runner.reassemble",
    "runner.sweep_self_s": "runner.sweep",
    "cache.put_s": "cache.put",
    "experiments.analysis_s": "experiments.run",
}

# Per-layer counts: metric -> (kind, name) where kind is "calls" or "counter".
LAYER_COUNTS = {
    "fastengine.phases": ("counter", "fastengine.phases"),
    "fastengine.slots": ("counter", "fastengine.slots"),
    "topology.frontier_reachable_calls": ("calls", "topology.frontier_reachable"),
    "topology.any_neighbor_in_calls": ("calls", "topology.any_neighbor_in"),
    "topology.any_neighbor_in_rows": ("counter", "topology.any_neighbor_in_rows"),
    "energy.charge_rows": ("counter", "energy.charge_rows"),
    "network.node_costs_calls": ("calls", "network.node_costs"),
    "cache.put_bytes": ("counter", "cache.put_bytes"),
}

# Per-layer metrics computed by the benchmark itself: metric -> unit.
LAYER_OTHER = {
    "topology.edges": "count",
    "runner.trials_executed": "count",
    "runner.cache_hits": "count",
    "runner.retries": "count",
    "cache.get_s": "s",
    "cache.warm_replay_s": "s",
    "cache.warm_hits": "count",
    "bench.untraced_run_s": "s",
    "bench.traced_run_s": "s",
    "bench.trace_overhead": "ratio",
}

ACCOUNTING_TOLERANCE = 0.03
"""Self times of a traced pass must sum to its measured run time within this share."""


def per_layer_units() -> dict:
    units = {name: "s" for name in LAYER_SECONDS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(LAYER_OTHER)
    return units


def pin_environment() -> list:
    """Drop ambient ``REPRO_*`` settings and pin native thread pools to one thread."""

    dropped = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    for key in PINNED_THREADS:
        os.environ[key] = "1"
    return dropped


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""

    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(dropped: list) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "dropped_env": dropped,
        "pinned_env": {key: os.environ[key] for key in PINNED_THREADS},
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------- #
# Untraced measurement                                                    #
# ---------------------------------------------------------------------- #


def measure_protocol(panel: list, seconds: float, log) -> tuple:
    """Cycle the panel until ``seconds`` have passed and every instance ran.

    Between runs the workload's reference kernel and the set-up kernel are
    timed, and each run's times are rescaled by each kernel's mean time
    around the run (perfbench/calibrate.py).  Run times are then medians
    over each instance's runs, then the median over the instances, so every
    instance of the panel weighs the same whether it ran once or twice and
    one slow instance does not dominate.  A run's set-up time is its fastest
    set-up: a set-up lasts milliseconds, and on a shared host such short
    samples fall into a fast or a slow speed regime (about 2x apart).  It is
    rescaled and taken through the same medians.  Simulated outcomes are
    exact per instance; their median over the panel is reported.
    """

    import workloads as wl

    kind = wl.KERNEL[panel[0].kind]
    kinds = sorted({kind, wl.SETUP_KERNEL})
    records = []
    kernels = {k: kernel_seconds(k) for k in kinds}
    start = time.perf_counter()
    while len(records) < len(panel) or time.perf_counter() - start < seconds:
        gc.collect()
        record = wl.run_instance(panel[len(records) % len(panel)])
        before, kernels = kernels, {k: kernel_seconds(k) for k in kinds}
        record.kernel_s = {k: (before[k] + kernels[k]) / 2 for k in kinds}
        records.append(record)
    failed = failed_runs(records, len(panel), log)
    by_instance = [records[i :: len(panel)] for i in range(len(panel))]
    first = records[: len(panel)]
    run_s = median(
        median(rescaled(r.run_s, r.kernel_s[kind], kind) for r in runs) for runs in by_instance
    )
    setup_s = median(
        median(rescaled(min(r.setup_s), r.kernel_s[wl.SETUP_KERNEL], wl.SETUP_KERNEL) for r in runs)
        for runs in by_instance
    )
    slots = median(r.slots for r in first)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "slots_per_s": slots / run_s,
        "trials_per_s": 1.0 / run_s,
        "peak_rss_mib": peak_rss_mib(),
        "ok_ratio": (len(records) - failed) / len(records),
        "delivery_ratio": median(r.delivery_ratio for r in first),
        "slots_simulated": slots,
        "node_cost_mean": median(r.node_cost_mean for r in first),
        "alice_cost": median(r.alice_cost for r in first),
    }
    samples = [vars(r) for r in records]
    return metrics, len(records), failed, samples


def failed_runs(records: list, panel_size: int, log) -> int:
    """Runs failing their checks, or disagreeing with an earlier run of the same instance."""

    failed = 0
    for index, record in enumerate(records):
        problems = list(record.problems)
        first = records[index % panel_size]
        if record.fingerprint != first.fingerprint:
            problems.append("outcome differs from an earlier run of the same instance")
        if problems:
            failed += 1
            log(f"run {index}: " + "; ".join(problems))
    return failed


def child_import_seconds() -> float:
    """Import time of the registry in a fresh interpreter (waited for)."""

    code = (
        "import time; t = time.perf_counter(); "
        "import repro.experiments, repro.experiments.registry; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_registry(seed: int, seconds: float, log) -> tuple:
    import workloads as wl

    reference = wl.reference_tables(os.path.join(ROOT, "EXPERIMENTS.md"))
    order = wl.registry_order(seed)
    work_dir = os.path.join(OUT, "work")
    os.makedirs(work_dir, exist_ok=True)
    setups, import_times = [], []
    passes = []
    failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        record = wl.registry_pass(order, work_dir)
        wl.drop_cache(record)
        record.problems = wl.check_tables(record.tables, reference)
        if passes and record.outcomes != passes[0].outcomes:
            record.problems.append("simulated outcomes differ from the first pass")
        if record.problems:
            failed += 1
            log(f"pass {len(passes)}: " + "; ".join(record.problems))
        passes.append(record)
        # One import per pass, timed between two set-up kernels so that it
        # is rescaled like the experiments.  Import times of a run fall into
        # a fast and a slow mode (about 1.5x apart), so the fastest is
        # reported, as for the protocol set-ups.
        before = kernel_seconds(wl.SETUP_KERNEL)
        import_times.append(child_import_seconds())
        kernel_s = (before + kernel_seconds(wl.SETUP_KERNEL)) / 2
        setups.append(rescaled(import_times[-1] + record.setup_s, kernel_s, wl.SETUP_KERNEL))
    # Each experiment is rescaled by the kernel timed around it, so a slow
    # spell of the host cancels out; then its median over the passes, summed.
    run_s = sum(
        median(rescaled(p.experiment_s[eid], p.kernel_s[eid], wl.KERNEL["registry-cold"]) for p in passes)
        for eid in order
    )
    first = passes[0]
    metrics = {
        "setup_s": min(setups),
        "run_s": run_s,
        "slots_per_s": first.outcomes["slots"] / run_s,
        "trials_per_s": first.trials / run_s,
        "peak_rss_mib": peak_rss_mib(),
        "ok_ratio": (len(passes) - failed) / len(passes),
    }
    metrics.update(registry_outcomes(first))
    samples = [
        {k: v for k, v in vars(p).items() if k != "tables"} for p in passes
    ]
    return metrics, len(passes), failed, samples, {"import_s": import_times, "setup_rescaled_s": setups, "order": order}


def registry_outcomes(record) -> dict:
    """Simulated outcomes of one pass, summed or averaged over its protocol runs."""

    totals = record.outcomes
    return {
        "delivery_ratio": totals["informed"] / totals["n"],
        "slots_simulated": float(totals["slots"]),
        "node_cost_mean": totals["node_cost"] / totals["runs"],
        "alice_cost": totals["alice_cost"] / totals["runs"],
    }


# ---------------------------------------------------------------------- #
# Traced measurement                                                      #
# ---------------------------------------------------------------------- #


def layer_metrics(tracer, sections: tuple) -> dict:
    seconds, calls, counters = tracer.totals(sections)
    out = {metric: seconds.get(span, 0.0) for metric, span in LAYER_SECONDS.items()}
    for metric, (kind, name) in LAYER_COUNTS.items():
        out[metric] = (calls if kind == "calls" else counters).get(name, 0)
    return out


def count_edges(topologies: list) -> int:
    """Undirected edges (Alice's included) of every spatial topology built."""

    import numpy as np

    total = 0
    for topology in topologies:
        if topology.is_single_hop:
            continue
        if getattr(topology, "backend", "sparse") == "dense":
            total += int(np.count_nonzero(topology.adjacency)) // 2
        else:
            total += topology.neighbor_csr().nnz // 2
    topologies.clear()
    return total


def pass_problems(tracer, patch, measured: float) -> list:
    """Checks of one traced pass as a whole: every layer wrapped, all time attributed.

    Only spans behind a reported metric count towards the run time: time
    left in the benchmark's own ``bench.*`` spans, or in a span no metric
    reports, is unattributed.
    """

    problems = []
    if patch.missing:
        problems.append("not wrapped (absent in this tree): " + ", ".join(sorted(set(patch.missing))))
    seconds = tracer.totals(("run",))[0]
    attributed = sum(seconds.get(span, 0.0) for span in LAYER_SECONDS.values())
    if abs(attributed - measured) > ACCOUNTING_TOLERANCE * measured:
        problems.append(
            f"reported layers account for {attributed:.4f}s of the traced pass's {measured:.4f}s"
        )
    return problems


def merge_layers(passes: list, log) -> tuple:
    """Median self times over traced passes; counts must repeat exactly.

    Returns the merged metrics and 1 when some count did not repeat (the
    repeat is then one failed operation), else 0.
    """

    merged, failed = {}, 0
    for metric in passes[0]:
        values = [p[metric] for p in passes]
        if metric.endswith("_s"):
            merged[metric] = median(values)
        else:
            if len(set(values)) != 1:
                failed = 1
                log(f"count {metric} differs between traced passes: {values}")
            merged[metric] = values[0]
    return merged, failed


def trace_protocol(panel: list, seconds: float, log, spans_file: str) -> tuple:
    import tracing
    import workloads as wl

    fingerprints: list = []
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        plain = [wl.run_instance(instance) for instance in panel]
        tracer = tracing.Tracer()
        topologies: list = []
        patch = tracing.install(tracer, topologies)
        try:
            gc.collect()
            runs = [wl.run_instance(instance, tracer) for instance in panel]
        finally:
            patch.restore()
        if not fingerprints:
            fingerprints = [r.fingerprint for r in plain]
        untraced.append(sum(r.run_s for r in plain))
        traced.append(sum(r.run_s for r in runs))
        whole_pass = pass_problems(tracer, patch, traced[-1])
        for index, record in enumerate(plain + runs):
            problems = list(record.problems)
            if record.fingerprint != fingerprints[index % len(panel)]:
                problems.append("traced and untraced outcomes differ")
            if index >= len(panel):
                problems.extend(whole_pass)
            attempted += 1
            if problems:
                failed += 1
                log(f"run {index}: " + "; ".join(problems))
        layer = layer_metrics(tracer, ("setup", "run"))
        layer["topology.edges"] = count_edges(topologies)
        layers.append(layer)
        if len(traced) == 1:
            tracer.write_jsonl(spans_file)
    merged, mismatched = merge_layers(layers, log)
    merged.update(runner_zero())
    merged.update(overhead(untraced, traced))
    return merged, attempted, failed + mismatched, {"untraced_s": untraced, "traced_s": traced}


def runner_zero() -> dict:
    return {
        "runner.trials_executed": 0,
        "runner.cache_hits": 0,
        "runner.retries": 0,
        "cache.get_s": 0.0,
        "cache.warm_replay_s": 0.0,
        "cache.warm_hits": 0,
    }


def overhead(untraced: list, traced: list) -> dict:
    base, with_trace = median(untraced), median(traced)
    return {
        "bench.untraced_run_s": base,
        "bench.traced_run_s": with_trace,
        "bench.trace_overhead": with_trace / base - 1.0,
    }


def trace_registry(seed: int, seconds: float, log, spans_file: str) -> tuple:
    import tracing
    import workloads as wl

    reference = wl.reference_tables(os.path.join(ROOT, "EXPERIMENTS.md"))
    order = wl.registry_order(seed)
    work_dir = os.path.join(OUT, "work")
    os.makedirs(work_dir, exist_ok=True)
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    last = None
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        plain = wl.registry_pass(order, work_dir)
        wl.drop_cache(plain)
        tracer = tracing.Tracer()
        topologies: list = []
        patch = tracing.install(tracer, topologies)
        try:
            gc.collect()
            record = wl.registry_pass(order, work_dir)
        finally:
            patch.restore()
        if last is not None:
            wl.drop_cache(last)
        last = record
        for label, run in (("untraced", plain), ("traced", record)):
            problems = wl.check_tables(run.tables, reference)
            if run is record:
                if (run.tables, run.outcomes) != (plain.tables, plain.outcomes):
                    problems.append("traced and untraced tables or outcomes differ")
                problems.extend(pass_problems(tracer, patch, record.run_s))
            attempted += 1
            if problems:
                failed += 1
                log(f"{label} pass: " + "; ".join(problems))
        untraced.append(plain.run_s)
        traced.append(record.run_s)
        layer = layer_metrics(tracer, ("run",))
        layer["topology.edges"] = count_edges(topologies)
        layer["runner.trials_executed"] = record.executed
        layer["runner.cache_hits"] = record.cache_hits
        layer["runner.retries"] = record.retries
        layers.append(layer)
        if len(traced) == 1:
            tracer.write_jsonl(spans_file)
    # Warm replay of the last traced pass: every trial is served from the cache.
    tracer = tracing.Tracer()
    tracer.section = "warm"
    patch = tracing.install(tracer)
    try:
        warm = wl.registry_pass(order, work_dir, cache_dir=last.cache_dir)
    finally:
        patch.restore()
        wl.drop_cache(last)
    attempted += 1
    problems = wl.check_tables(warm.tables, reference)
    if warm.executed:
        problems.append(f"warm replay recomputed {warm.executed} trials")
    if problems:
        failed += 1
        log("warm replay: " + "; ".join(problems))
    merged, mismatched = merge_layers(layers, log)
    merged["cache.get_s"] = tracer.totals(("warm",))[0].get("cache.get", 0.0)
    merged["cache.warm_replay_s"] = warm.run_s
    merged["cache.warm_hits"] = warm.cache_hits
    merged.update(overhead(untraced, traced))
    return merged, attempted, failed + mismatched, {"untraced_s": untraced, "traced_s": traced}


# ---------------------------------------------------------------------- #
# Entry point                                                             #
# ---------------------------------------------------------------------- #


def run_one(args, dropped: list) -> dict:
    os.makedirs(OUT, exist_ok=True)

    def log(message: str) -> None:
        print(f"perfbench[{args.workload}]: {message}", file=sys.stderr)

    import workloads as wl

    extra: dict = {}
    registry = args.workload == "registry-cold"
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        spans = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        if registry:
            metrics, attempted, failed, samples = trace_registry(args.seed, args.seconds, log, spans)
        else:
            panel = wl.protocol_panel(args.workload, args.seed)[: wl.TRACE_PANEL]
            metrics, attempted, failed, samples = trace_protocol(panel, args.seconds, log, spans)
        units = per_layer_units()
    elif registry:
        metrics, attempted, failed, samples, extra = measure_registry(args.seed, args.seconds, log)
        units = END_TO_END
    else:
        panel = wl.protocol_panel(args.workload, args.seed)
        metrics, attempted, failed, samples = measure_protocol(panel, args.seconds, log)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(dropped),
        "result": result,
        "samples": samples,
        **extra,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print("# environment: " + json.dumps(record["environment"]))
    for name, entry in result["metrics"].items():
        print(f"# {args.workload:14s} {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    return result


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; prints one table."""

    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':34s} {'unit':6s}" + "".join(f" {w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join(f" {results[w]['metrics'][name]['value']:>16.6g}" for w in WORKLOADS)
        print(f"{name:34s} {unit:6s}{row}")
    for workload in WORKLOADS:
        r = results[workload]
        print(f"{workload}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(
        os.path.join(ROOT, "EXPERIMENTS.md")
    ):
        print(
            f"perfbench: {ROOT} holds no src/repro and EXPERIMENTS.md; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    dropped = pin_environment()
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args, dropped)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
