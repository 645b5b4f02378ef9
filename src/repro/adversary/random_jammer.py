"""Random (oblivious) jamming.

Carol jams a uniformly random ``rate`` share of each phase's slots, chosen
without looking at the channel, in the spirit of the random-fault model of
Pelc & Peleg cited in the paper's related work.  A random jammer wastes much
of its energy on slots nobody was using, which is exactly why the paper's
adversary model is strictly stronger.
"""

from __future__ import annotations

from typing import Optional

from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["RandomJammer"]


class RandomJammer(Adversary):
    """Jam a uniformly random subset of ``round(rate · s)`` slots per phase.

    Parameters
    ----------
    rate:
        Share of each phase's ``s`` slots to jam, in ``[0, 1]``.
    max_total_spend:
        Optional cap on total expenditure.
    """

    name = "random"

    tunable = (
        ParamSpec("rate", 0.0, 1.0,
                  description="share of each phase's slots jammed"),
    )

    def __init__(self, rate: float, max_total_spend: Optional[float] = None) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if not (0.0 <= rate <= 1.0):
            raise ConfigurationError(f"jam rate must lie in [0, 1], got {rate}")
        self.rate = rate

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        # A slot count, not per-slot coin flips: both engines jam a uniform
        # subset of exactly this many slots, so the base-class cap can bound
        # the spend in advance.
        return JamPlan(num_jam_slots=int(round(self.rate * context.plan.num_slots)))
