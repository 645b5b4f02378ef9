"""Spend sweeps shared by the cost-scaling experiments.

The experiments sweep "Carol spends (up to) T" scenarios over one geometric
grid of spend caps; the attackers themselves come from
:mod:`repro.tournament.roster`.
"""

from __future__ import annotations

from typing import List

from ..simulation.config import SimulationConfig

# The roster's Lemma 10 blocker, under the name perfbench/workloads.py imports.
from ..tournament.roster import budget_blocker as blocking_adversary

__all__ = ["spend_sweep", "saturation_spend", "blocking_adversary"]


def saturation_spend(config: SimulationConfig) -> float:
    """Adversary spend below which the protocol is still in its saturated regime.

    In the first rounds the nodes' listening probability ``2/(ε'·2^i)`` clips
    at one, so per-node cost simply tracks elapsed slots and the asymptotic
    ``T^{1/(k+1)}`` shape is not yet visible.  Saturation ends once
    ``2^i > 2/ε'``, i.e. once a blocked phase costs Carol about
    ``(2/ε')^{1+1/k}`` slots; exponent fits should use spends above this
    point.
    """

    return (2.0 / config.eps_prime) ** (1.0 + 1.0 / config.k)


def spend_sweep(config: SimulationConfig, points: int = 5, quick: bool = True) -> List[float]:
    """A geometric sweep of adversary spend caps ``T`` for a configuration.

    The sweep spans from just below the saturation boundary (so the crossover
    is visible) up to (most of) Carol's aggregate budget, which is the regime
    where Theorem 1's ``T^{1/(k+1)}`` scaling is observable.
    """

    budget = config.adversary_total_budget
    low = min(max(64.0, saturation_spend(config) / 2.0), budget / 8.0)
    high = 0.9 * budget
    if high <= low:
        high = 2.0 * low
    if quick:
        points = min(points, 5)
    if points < 2:
        return [high]
    ratio = (high / low) ** (1.0 / (points - 1))
    return [low * ratio ** index for index in range(points)]
