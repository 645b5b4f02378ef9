"""Continuous jamming.

Carol jams every slot of every phase until her budget (or her self-imposed
spend cap) runs out.  This is the crudest possible denial-of-service attack
and the one the latency lower bound (Corollary 1) refers to: with an aggregate
budget of ``Θ(n^{1+1/k})`` slots she can silence the channel for that long,
but no longer.
"""

from __future__ import annotations

from ..simulation.phaseplan import JamPlan, PhaseContext
from .base import Adversary

__all__ = ["ContinuousJammer"]


class ContinuousJammer(Adversary):
    """Jam every slot, for every listener, until the budget is exhausted.

    Parameters
    ----------
    max_total_spend:
        Optional cap on total expenditure (the experiment knob ``T``).
    """

    name = "continuous"

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        return JamPlan(num_jam_slots=context.plan.num_slots)
