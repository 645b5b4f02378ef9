"""Bursty jamming.

A (burst-length, duty-cycle) jammer in the spirit of the adversaries studied
by Awerbuch et al. (PODC 2008) and Richa et al. (DISC 2010): Carol alternates
between jamming bursts and quiet periods.  Burst boundaries are placed
deterministically within each phase, which makes the strategy easy to reason
about in tests while still exercising the explicit-slot-schedule path of the
engines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..simulation.channel import JamTargeting
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["BurstyJammer"]


class BurstyJammer(Adversary):
    """Jam in periodic bursts.

    Parameters
    ----------
    burst_length:
        Number of consecutive slots jammed in each burst.
    period:
        Distance (in slots) between the starts of consecutive bursts; must be
        at least ``burst_length``.
    offset:
        Slot offset of the first burst within each phase.
    max_total_spend:
        Optional cap on total expenditure.
    """

    name = "bursty"

    tunable = (
        ParamSpec("burst_length", 1, 128, integer=True,
                  description="slots jammed at the top of each period"),
        ParamSpec("period", 1, 256, integer=True,
                  description="slots between burst starts (the duty-cycle denominator)"),
    )

    def __init__(
        self,
        burst_length: int,
        period: int,
        offset: int = 0,
        max_total_spend: Optional[float] = None,
        targeting: Optional[JamTargeting] = None,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if burst_length <= 0:
            raise ConfigurationError(f"burst_length must be positive, got {burst_length}")
        if period < burst_length:
            raise ConfigurationError(
                f"period ({period}) must be at least burst_length ({burst_length})"
            )
        if offset < 0:
            raise ConfigurationError(f"offset must be non-negative, got {offset}")
        self.burst_length = burst_length
        self.period = period
        self.offset = offset
        self.targeting = targeting if targeting is not None else JamTargeting.everyone()

    def _validate_parameters(self) -> None:
        # The constructor's cross-field constraint, re-checked after a
        # with_parameters batch (each knob is in-bounds on its own, but a
        # long burst can outgrow a short period).
        if self.period < self.burst_length:
            raise ConfigurationError(
                f"period ({self.period}) must be at least burst_length ({self.burst_length})"
            )

    def burst_slots(self, num_slots: int) -> Tuple[int, ...]:
        """The explicit slot offsets jammed within a phase of ``num_slots``."""

        slots = np.arange(self.offset, num_slots, dtype=np.int64)
        return tuple(slots[(slots - self.offset) % self.period < self.burst_length].tolist())

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        return JamPlan(
            slot_indices=self.burst_slots(context.plan.num_slots),
            targeting=self.targeting,
        )
