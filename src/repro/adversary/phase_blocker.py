"""Phase-blocking adversary.

This is the strategy the paper's cost analysis (Lemma 10) treats as Carol's
reference attack: she targets whole phases and fills them with noise, forcing
the protocol into ever longer rounds.  Because rounds grow geometrically,
every additional round she blocks costs her geometrically more, which is the
mechanism behind the ``T^{1/(k+1)}`` resource-competitive bound.

She blocks the inform phase, the cheapest effective target: with no
informed relays the whole round is sterile.  Her main knob is the fraction
of each inform phase to jam.  The paper's *analysis* calls a phase
blocked when more than half its slots are jammed; to actually prevent
delivery a non-reactive Carol must jam essentially every slot, so the
default fraction is 1.0.
"""

from __future__ import annotations

from typing import Optional

from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseKind
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["PhaseBlockingAdversary"]


class PhaseBlockingAdversary(Adversary):
    """Jam a fixed fraction of every inform phase, for every listener.

    Parameters
    ----------
    fraction:
        Fraction of each inform phase's slots to jam, in ``(0, 1]``.
    max_total_spend:
        Optional cap on total expenditure (the experiment knob ``T``).
    skip_rounds_below:
        Do not bother attacking rounds with index lower than this (attacking
        tiny early rounds wastes energy without delaying anything measurable).
    """

    name = "phase_blocker"

    tunable = (
        ParamSpec("fraction", 0.05, 1.0,
                  description="fraction of each inform phase's slots jammed"),
        ParamSpec("skip_rounds_below", 0, 32, integer=True,
                  description="rounds left untouched before the blocking starts"),
    )

    def __init__(
        self,
        fraction: float = 1.0,
        max_total_spend: Optional[float] = None,
        skip_rounds_below: int = 0,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if not (0.0 < fraction <= 1.0):
            raise ConfigurationError(f"fraction must lie in (0, 1], got {fraction}")
        if skip_rounds_below < 0:
            raise ConfigurationError(
                f"skip_rounds_below must be non-negative, got {skip_rounds_below}"
            )
        self.fraction = fraction
        self.skip_rounds_below = skip_rounds_below

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        plan = context.plan
        if plan.kind is not PhaseKind.INFORM:
            return JamPlan.idle()
        if plan.round_index < self.skip_rounds_below:
            return JamPlan.idle()
        num_jam = int(round(self.fraction * plan.num_slots))
        if num_jam <= 0:
            return JamPlan.idle()
        return JamPlan(num_jam_slots=num_jam)
