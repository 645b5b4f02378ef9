"""The reactive-adversary-tolerant variant (§4.1): make your own noise.

A reactive Carol senses channel activity within the slot and jams only then,
which against the plain protocol lets her kill every copy of ``m`` while
spending no more than Alice does.  §4.1's countermeasure is for the correct
nodes to generate *decoy* traffic during the inform and propagation phases:
RSSI tells Carol that *something* is on the air but not *what*, so she must
jam (and pay for) a constant fraction of all busy slots to be sure of hitting
``m`` — restoring resource competitiveness for ``f < 1/24`` (Lemma 19).

:class:`DecoyBroadcast` enables the decoy role for every active correct node
and the boosted listening probability that compensates for decoy collisions.
"""

from __future__ import annotations

from typing import Optional

from ..adversary.base import Adversary
from ..simulation.config import SimulationConfig
from .broadcast import EpsilonBroadcast
from .driver import EngineSpec

__all__ = ["DecoyBroadcast"]


class DecoyBroadcast(EpsilonBroadcast):
    """ε-Broadcast with §4.1's decoy traffic enabled."""

    protocol_name = "epsilon-broadcast-decoy"

    def __init__(
        self,
        config: SimulationConfig,
        adversary: Optional[Adversary] = None,
        engine: EngineSpec = "fast",
        **kwargs: object,
    ) -> None:
        kwargs.setdefault("decoy_traffic", True)
        super().__init__(
            config,
            adversary=adversary,
            engine=engine,
            **kwargs,  # type: ignore[arg-type]
        )
