"""Request-phase spoofing / termination-delay attack.

§2.2 of the paper analyses the attack where Carol keeps Alice (and the
informed nodes) executing the protocol past the point where everyone has the
message: correct nodes cannot be authenticated, so Carol can inject nack
messages — or simply jam — during the request phase, making the channel look
busy and tricking the listeners into believing many uninformed nodes remain.

Lemmas 4–7 show the attack is expensive: to delay termination in round ``i``
Carol must make ``Ω(2^{(b/2+1)i})`` slots noisy, so her spend grows
geometrically per extra round of delay while Alice's extra cost grows only as
``Õ(T^{a/(b/2+1)})``.  :class:`RequestSpoofingAdversary` mounts exactly this
attack so the experiments can verify the claimed cost asymmetry.
"""

from __future__ import annotations

from typing import Optional

from ..simulation.channel import JamTargeting
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseKind
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["RequestSpoofingAdversary"]


class RequestSpoofingAdversary(Adversary):
    """Keep the request phase noisy to delay termination.

    The noise is injected as spoofed nack transmissions, indistinguishable
    from legitimate nacks.  Each costs one unit, like a jammed slot, and
    defeats the "silence means done" check, which is the point of the
    lemmas.  Lemma 10's second-case strategy (block the payload phases as
    well) is this spoofer combined with the phase blocker: the tournament
    roster's ``composite``.

    Parameters
    ----------
    fraction:
        Fraction of each request phase's slots to make noisy, in ``(0, 1]``.
        The termination rules compare against a constant-fraction threshold,
        so anything above roughly ``(1 - e^{-4ε'})`` works; default is 1.0
        (make every slot noisy).
    max_total_spend:
        Optional cap on total expenditure.
    """

    name = "request_spoofer"

    tunable = (
        ParamSpec("fraction", 0.05, 1.0,
                  description="fraction of request slots attacked"),
    )

    def __init__(
        self,
        fraction: float = 1.0,
        max_total_spend: Optional[float] = None,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if not (0.0 < fraction <= 1.0):
            raise ConfigurationError(f"fraction must lie in (0, 1], got {fraction}")
        self.fraction = fraction

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        plan = context.plan
        if plan.kind is not PhaseKind.REQUEST:
            return JamPlan.idle()
        slots = int(round(self.fraction * plan.num_slots))
        if slots <= 0:
            return JamPlan.idle()
        return JamPlan(spoof_nack_slots=slots, targeting=JamTargeting.none())
