"""Reusable statistical-equivalence harness for the fast/slot engine pair.

The vectorised :class:`~repro.simulation.fastengine.PhaseEngine` is required
to be *statistically* equivalent to the slot-faithful
:class:`~repro.simulation.engine.SlotEngine`: on identical scenarios the two
must agree on protocol-visible outcomes, and their cost figures must come
from matching distributions.  This module centralises the machinery every
equivalence test needs:

* :func:`paired_phase_records` — run one phase on both engines across seeded
  trials and collect per-trial scalar records;
* :func:`ks_statistic` / :func:`ks_threshold` / :func:`assert_same_distribution`
  — a dependency-free two-sample Kolmogorov–Smirnov check;
* :func:`assert_means_close` — moment (mean) comparison with mixed
  relative/absolute tolerances.

All trials are seeded, so a passing test is deterministic: tolerances guard
against *model* drift, not against run-to-run noise.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.simulation import (
    JamPlan,
    Network,
    PhaseEngine,
    PhasePlan,
    PhaseRoles,
    SimulationConfig,
    SlotEngine,
)

ENGINE_CLASSES = {"slot": SlotEngine, "fast": PhaseEngine}


# --------------------------------------------------------------------------- #
# Two-sample Kolmogorov–Smirnov                                               #
# --------------------------------------------------------------------------- #


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """The two-sample KS statistic ``sup_x |F_a(x) - F_b(x)|``."""

    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(m: int, n: int, alpha: float = 0.01) -> float:
    """Asymptotic rejection threshold for the two-sample KS test.

    Samples of sizes ``m`` and ``n`` from the same distribution exceed this
    with probability at most ``alpha`` (Smirnov's asymptotic formula
    ``c(α)·sqrt((m+n)/(m·n))`` with ``c(α) = sqrt(-ln(α/2)/2)``).

    Power note: the KS statistic is bounded by 1, so the check is vacuous
    unless the threshold sits well below that — keep ``alpha`` no smaller
    than ~0.01 and trial counts at 30+ (threshold ≈ 0.36 at 40 vs 40 trials).
    Trials are seeded, so a tighter threshold costs determinism nothing.
    """

    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


def assert_same_distribution(
    a: Sequence[float],
    b: Sequence[float],
    alpha: float = 0.01,
    label: str = "samples",
) -> None:
    """Fail when a two-sample KS test rejects that ``a`` and ``b`` match."""

    stat = ks_statistic(a, b)
    threshold = ks_threshold(len(a), len(b), alpha)
    assert stat <= threshold, (
        f"KS test rejects equivalence for {label}: statistic {stat:.3f} > "
        f"threshold {threshold:.3f} (alpha={alpha:g}, sizes {len(a)}/{len(b)})"
    )


# --------------------------------------------------------------------------- #
# Moment checks                                                               #
# --------------------------------------------------------------------------- #


def assert_means_close(
    a: Sequence[float],
    b: Sequence[float],
    rel: float = 0.25,
    abs_tol: float = 0.0,
    label: str = "metric",
) -> None:
    """Fail when the sample means differ beyond ``rel`` or ``abs_tol``.

    The comparison passes when |mean_a - mean_b| is within ``abs_tol`` *or*
    within ``rel`` of the larger magnitude — mirroring ``pytest.approx`` but
    symmetric in its arguments.
    """

    mean_a = float(np.mean(np.asarray(a, dtype=float)))
    mean_b = float(np.mean(np.asarray(b, dtype=float)))
    gap = abs(mean_a - mean_b)
    scale = max(abs(mean_a), abs(mean_b))
    assert gap <= max(abs_tol, rel * scale), (
        f"means differ for {label}: {mean_a:.4g} vs {mean_b:.4g} "
        f"(gap {gap:.4g}, allowed rel={rel:g}, abs={abs_tol:g})"
    )


# --------------------------------------------------------------------------- #
# Paired engine execution                                                     #
# --------------------------------------------------------------------------- #


def phase_record(network: Network, result) -> Dict[str, float]:
    """The standard scalar record extracted after one phase execution."""

    return {
        "informed": float(result.newly_informed.size),
        "alice_cost": float(network.alice_cost),
        "node_total": float(network.node_costs().sum()),
        "adversary": float(network.adversary_cost),
        "alice_noisy": float(result.alice_noisy_heard),
        "node_noisy_total": float(result.node_noisy_heard.sum()),
        "delivery_slots": float(result.delivery_slots),
        "busy_slots": float(result.busy_slots),
        "jammed_slots": float(result.jammed_slots),
    }


def paired_phase_records(
    plan: PhasePlan,
    roles_builder: Callable[[Network], PhaseRoles],
    jam_builder: Callable[[], JamPlan] = JamPlan.idle,
    n: int = 48,
    trials: int = 6,
    base_seed: int = 100,
    config_kwargs: Optional[dict] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Run one phase on both engines across seeded trials.

    Each trial builds a fresh :class:`Network` (so spatial topologies are
    resampled per seed, identically for the two engines), executes ``plan``
    on it, and extracts :func:`phase_record`.  Returns per-engine record
    lists suitable for :func:`column`, :func:`assert_means_close`, and
    :func:`assert_same_distribution`.
    """

    records: Dict[str, List[Dict[str, float]]] = {name: [] for name in ENGINE_CLASSES}
    for trial in range(trials):
        for name, engine_cls in ENGINE_CLASSES.items():
            config = SimulationConfig(n=n, seed=base_seed + trial, **(config_kwargs or {}))
            network = Network(config)
            engine = engine_cls(network)
            result = engine.run_phase(plan, roles_builder(network), jam_builder())
            records[name].append(phase_record(network, result))
    return records


def column(records: Iterable[Dict[str, float]], key: str) -> List[float]:
    """Extract one metric across a record list."""

    return [record[key] for record in records]


def mean_by_engine(
    records: Dict[str, List[Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Per-engine means of every metric (the legacy ``run_phase_on_both`` shape)."""

    return {
        name: {key: float(np.mean(column(rows, key))) for key in rows[0]}
        for name, rows in records.items()
    }
