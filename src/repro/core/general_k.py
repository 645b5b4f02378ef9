"""The general-``k`` protocol (Figure 2, §3).

For ``k ≥ 3`` the single propagation phase of Figure 1 is not enough: each
round repeats the propagation step ``k - 1`` times, growing the informed sets
``S_{i,1} ⊂ S_{i,2} ⊂ … ⊂ S_{i,k-1}`` until the last one is large enough to
reach everybody.  The cost exponent improves to ``1/(k+1)`` at the price of a
``Θ(k)`` factor in latency and total cost (§3.2 explains why ``k`` cannot grow
beyond a constant).

:class:`GeneralKBroadcast` is a thin subclass of
:class:`~repro.core.broadcast.EpsilonBroadcast`: the propagation-step loop and
the Figure-2 probabilities are already handled by
:class:`~repro.core.phases.ScheduleBuilder`, so all this class does is insist
on the Figure-2 parameterisation and document the variant.
"""

from __future__ import annotations

from typing import Optional

from ..adversary.base import Adversary
from ..simulation.config import SimulationConfig
from .broadcast import EpsilonBroadcast
from .driver import EngineSpec

__all__ = ["GeneralKBroadcast"]


class GeneralKBroadcast(EpsilonBroadcast):
    """ε-Broadcast with the general-``k`` pseudocode of Figure 2.

    Works for any ``k ≥ 2``.  With ``k = 2`` its plans differ from Figure 1's
    in two probabilities, both scaled up: Alice's inform-phase sending
    (``2·c·ln² n / 2^i`` instead of ``2·ln n / 2^i``, a factor ``c·ln n``)
    and the uninformed nodes' propagation listening (``2ec / (ε'·2^i)``
    instead of ``4e(c+1) / 2^i``, a factor ``c / (2ε'(c+1))``).  This is the
    form §3 uses for its proofs.
    """

    protocol_name = "epsilon-broadcast-general-k"

    def __init__(
        self,
        config: SimulationConfig,
        adversary: Optional[Adversary] = None,
        engine: EngineSpec = "fast",
        **kwargs: object,
    ) -> None:
        kwargs.setdefault("figure", 2)
        super().__init__(
            config,
            adversary=adversary,
            engine=engine,
            **kwargs,  # type: ignore[arg-type]
        )
