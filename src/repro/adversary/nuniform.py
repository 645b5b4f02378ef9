"""n-uniform "split the network" adversary.

Carol's n-uniform power lets her decide *which* listeners perceive jamming in
a jammed slot.  §2.3 explains how she exploits this: by blocking the payload
phases for a chosen set of victims while letting everyone else receive ``m``,
she steers the protocol into a state where only a small group remains
uninformed — few enough that the request phase looks quiet and everyone,
including Alice, terminates.  The uninformed leftovers are exactly the
``ε``-fraction the protocol is allowed to sacrifice, and the experiments use
this strategy to measure how large Carol can make that leftover and what it
costs her.

:class:`NUniformSplitAdversary` picks a fixed victim set of size
``target_uninformed`` at the start of the run and jams every slot of every
payload-carrying phase *for those victims only*, until they have all either
terminated or (if her budget dies first) received the message.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..simulation.channel import JamTargeting
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseKind
from ..simulation.setops import isin_sorted
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["NUniformSplitAdversary"]


class NUniformSplitAdversary(Adversary):
    """Steer the protocol into terminating with a chosen number of uninformed nodes.

    Parameters
    ----------
    target_uninformed:
        How many correct nodes Carol tries to leave uninformed at
        termination.  Values at or below the protocol's quiet-termination
        threshold make the attack succeed; the experiments verify that the
        leftover can never exceed ``ε·n`` without exhausting her budget.
    max_total_spend:
        Optional cap on total expenditure.
    start_round:
        First round in which to mount the attack.
    """

    name = "nuniform_split"

    tunable = (
        ParamSpec("target_uninformed", 0, 4096, integer=True,
                  description="how many nodes the split tries to keep uninformed"),
        ParamSpec("start_round", 0, 32, integer=True,
                  description="first round the split attack engages"),
    )

    def __init__(
        self,
        target_uninformed: int,
        max_total_spend: Optional[float] = None,
        start_round: int = 0,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if target_uninformed < 0:
            raise ConfigurationError(
                f"target_uninformed must be non-negative, got {target_uninformed}"
            )
        if start_round < 0:
            raise ConfigurationError(f"start_round must be non-negative, got {start_round}")
        self.target_uninformed = target_uninformed
        self.start_round = start_round
        self._victims: Optional[np.ndarray] = None

    @property
    def victims(self) -> np.ndarray:
        """The fixed victim ids, sorted (empty until the first payload phase)."""

        return self._victims if self._victims is not None else np.empty(0, dtype=np.int64)

    def _choose_victims(self, context: PhaseContext) -> np.ndarray:
        if self._victims is None:
            # The lowest ``target_uninformed`` ids: the cohort is sorted.
            self._victims = context.roles.active_uninformed_ids[: self.target_uninformed].copy()
        return self._victims

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        plan = context.plan
        if plan.round_index < self.start_round or self.target_uninformed == 0:
            return JamPlan.idle()
        if plan.kind is PhaseKind.REQUEST:
            # Let the request phase run clean so the termination conditions
            # fire while the victims are still uninformed.
            return JamPlan.idle()
        victims = self._choose_victims(context)
        remaining_victims = victims[isin_sorted(victims, context.roles.active_uninformed_ids)]
        if not remaining_victims.size:
            # Every victim has terminated (or slipped through); nothing left
            # to gain from further jamming.
            return JamPlan.idle()
        return JamPlan(
            num_jam_slots=plan.num_slots,
            targeting=JamTargeting.only(remaining_victims),
        )
