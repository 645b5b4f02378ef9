"""Reactive jamming.

A *reactive* Carol senses the channel (via RSSI / clear channel assessment)
within the current slot and jams only when she detects activity.  Against the
unmodified protocol this is devastatingly efficient: in the inform phase only
Alice transmits, so Carol can destroy every copy of ``m`` while paying exactly
as little as Alice does.  §4.1 defeats the attack by having correct nodes
generate decoy traffic that is indistinguishable from ``m`` at the RSSI level,
forcing Carol to waste energy jamming cover traffic.

:class:`ReactiveJammer` implements the attack with a per-phase energy
allotment; the engines honour the ``reactive`` flag by letting the jam land
only on slots that actually carry correct-side transmissions.
"""

from __future__ import annotations

import math
from typing import Optional

from ..simulation.channel import JamTargeting
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseKind
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["ReactiveJammer"]


class ReactiveJammer(Adversary):
    """Jam only slots that carry correct-side transmissions.

    The strategy attacks the inform and propagation phases, which is where
    reactivity pays off.

    Parameters
    ----------
    phase_budget_fraction:
        Fraction of the remaining allowance the strategy is willing to commit
        to a single phase.  ``1.0`` lets a single long phase drain everything;
        smaller values spread the attack across rounds.
    max_total_spend:
        Optional cap on total expenditure.
    """

    name = "reactive"

    tunable = (
        ParamSpec("phase_budget_fraction", 0.05, 1.0,
                  description="fraction of the per-phase listener budget spent reacting"),
    )

    def __init__(
        self,
        phase_budget_fraction: float = 1.0,
        max_total_spend: Optional[float] = None,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if not (0.0 < phase_budget_fraction <= 1.0):
            raise ConfigurationError(
                f"phase_budget_fraction must lie in (0, 1], got {phase_budget_fraction}"
            )
        self.phase_budget_fraction = phase_budget_fraction

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        plan = context.plan
        if plan.kind not in (PhaseKind.INFORM, PhaseKind.PROPAGATION):
            return JamPlan.idle()
        phase_allotment = int(math.floor(allowance * self.phase_budget_fraction))
        if phase_allotment <= 0:
            return JamPlan.idle()
        return JamPlan(
            num_jam_slots=min(phase_allotment, plan.num_slots),
            targeting=JamTargeting.everyone(),
            reactive=True,
        )
