#!/usr/bin/env python3
"""Dense WSN under escalating jamming: how the evildoer's bill grows.

The motivating scenario of the paper's introduction: a dense, energy-starved
sensor network where an attacker controls as many devices as the defenders.
The script sweeps the jammer's spend cap from "token effort" to "entire
aggregate budget" and prints, for each level, how long the broadcast was
delayed and how little each correct device had to pay in response — the
``T`` versus ``T^{1/3}`` asymmetry of Theorem 1.

Usage::

    python examples/dense_wsn_jamming.py [n]
"""

from __future__ import annotations

import sys

from repro import SimulationConfig, run_broadcast
from repro.adversary import PhaseBlockingAdversary
from repro.analysis import fit_cost_exponent
from repro.experiments import render_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    config = SimulationConfig(n=n, f=1.0, k=2, seed=7)
    budget = config.adversary_total_budget

    fractions = [0.0, 0.02, 0.08, 0.25, 0.6, 0.95]
    rows = []
    spends, node_costs = [], []
    for fraction in fractions:
        cap = fraction * budget
        adversary = PhaseBlockingAdversary(max_total_spend=cap) if cap > 0 else "none"
        outcome = run_broadcast(n=n, adversary=adversary, seed=7 + int(fraction * 100))
        rows.append(
            {
                "carol budget share": f"{fraction:.0%}",
                "carol spend T": outcome.adversary_spend,
                "slots to finish": outcome.slots_elapsed,
                "delivery": outcome.delivery_fraction,
                "alice cost": outcome.alice_cost,
                "node mean cost": outcome.mean_node_cost,
                "node cost / T": (
                    outcome.mean_node_cost / outcome.adversary_spend
                    if outcome.adversary_spend
                    else 0.0
                ),
            }
        )
        spends.append(outcome.adversary_spend)
        node_costs.append(outcome.mean_node_cost)

    print(f"network: {config.describe()}")
    print()
    print(
        render_table(
            [
                "carol budget share",
                "carol spend T",
                "slots to finish",
                "delivery",
                "alice cost",
                "node mean cost",
                "node cost / T",
            ],
            rows,
        )
    )
    print()
    # The unjammed run (spend 0) falls below the fit's minimum spend.
    fit = fit_cost_exponent(spends, node_costs)
    print(f"node cost vs Carol's spend: {fit}")
    print("paper's prediction for k = 2: exponent 1/3 — delaying the message forces Carol to")
    print("outspend every correct device by a polynomially growing factor.")


if __name__ == "__main__":
    main()
