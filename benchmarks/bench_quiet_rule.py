"""Benchmark E13 — quiet-rule ablation (termination policies on sparse graphs).

The acceptance checks guard both quiet-rule misfire directions at once:
sub-threshold cost must stay within 2× of the uniform retry-cap reference
(and far below the paper rule's run-to-the-cap blowup), while near-threshold
delivery-vs-reachable must stay ≈ 1 — which the uniform cap destroys.

Every check reads rows pooled over a fixed panel of paired seeds derived from
the benchmark seed (the panel's first member *is* the benchmark profile, so
the warm-cache re-run of E13 still hits the store).  At the CI profile
(n=96, one trial) a single seed strands or spares a single node by chance,
which moves one seed's delivery-vs-reachable by about 0.01 — a one-seed
comparison of two rules that both sit near 1 is a coin flip.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import bench_settings

from repro.experiments import render_result
from repro.experiments.registry import run_experiment

PANEL_SEEDS = 12
"""Experiment seeds ``settings.seed + i`` pooled by every check below."""

SUB = "sub-threshold 0.6·r_c"
NEAR = "near-threshold 1.3·r_c"
PAPER = "paper"
CONSTANT = "constant R=6"
DEGREE = "degree-aware (default)"
DEGREE_HOPS_ONE = "degree hops=1"


def run_panel(settings) -> list:
    return [
        run_experiment("E13", replace(settings, seed=settings.seed + offset))
        for offset in range(PANEL_SEEDS)
    ]


def pool(results, column: str) -> dict:
    """Panel mean of one column per ``(scenario, rule)`` row."""

    values: dict = {}
    for result in results:
        for row in result.rows:
            values.setdefault((row["scenario"], row["rule"]), []).append(row[column])
    return {key: float(np.mean(column_values)) for key, column_values in values.items()}


def delivery_gate(dvr: dict, rule: str) -> list:
    """Why ``rule``'s pooled delivery rows fail the gate (empty when it passes).

    Near the threshold the rule must not trail the uniform cap by more than
    0.01, nor the paper rule by more than 0.03; below it, the reachable nodes
    of Alice's own small components must still be served (≥ 0.99).
    """

    failures = []
    if dvr[(NEAR, rule)] < dvr[(NEAR, CONSTANT)] - 0.01:
        failures.append(f"near: {dvr[(NEAR, rule)]:.4f} < constant {dvr[(NEAR, CONSTANT)]:.4f} - 0.01")
    if dvr[(NEAR, rule)] < dvr[(NEAR, PAPER)] - 0.03:
        failures.append(f"near: {dvr[(NEAR, rule)]:.4f} < paper {dvr[(NEAR, PAPER)]:.4f} - 0.03")
    if dvr[(SUB, rule)] < 0.99:
        failures.append(f"sub: {dvr[(SUB, rule)]:.4f} < 0.99")
    return failures


def test_e13_quiet_rule_ablation(benchmark):
    settings = bench_settings()
    results = benchmark.pedantic(run_panel, args=(settings,), rounds=1, iterations=1)
    print()
    print(render_result(results[0]))
    dvr = pool(results, "delivery_vs_reachable")
    cost = pool(results, "mean_node_cost")
    for (scenario, rule), value in sorted(dvr.items()):
        print(f"pooled over {PANEL_SEEDS} seeds: {scenario:<24} {rule:<24} dvr={value:.4f}")
    benchmark.extra_info["experiment"] = "E13"
    benchmark.extra_info["n"] = settings.n
    benchmark.extra_info["panel_seeds"] = PANEL_SEEDS
    benchmark.extra_info["near_dvr_degree"] = dvr[(NEAR, DEGREE)]

    # Direction 2 (sub-threshold blowup): no retry cap configured, yet the
    # degree-aware default lands within 2x of the constant-R reference and
    # multiples below the paper rule.
    assert cost[(SUB, DEGREE)] <= 2.0 * cost[(SUB, CONSTANT)]
    assert cost[(SUB, PAPER)] >= 4.0 * cost[(SUB, DEGREE)]

    # Direction 1 (near-threshold early give-up): delivery-vs-reachable stays
    # high under the degree-aware rule, level with the uniform cap and within
    # a hair of the paper rule.  Pipelined relay rounds closed most of the
    # constant rule's old near-threshold deficit (delivery now needs far
    # fewer request phases, so a uniform budget rarely binds before the
    # frontier arrives), which is why the degree-vs-constant gate is a small
    # tolerance rather than a margin.
    assert dvr[(NEAR, DEGREE)] >= 0.85
    assert delivery_gate(dvr, DEGREE) == []

    # The gate still catches the misfire it was written for: the plain-degree
    # budget strands giant-component fringe nodes near the threshold.
    assert delivery_gate(dvr, DEGREE_HOPS_ONE) != []
