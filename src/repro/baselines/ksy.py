"""A King–Saia–Young-style comparator (PODC 2011, "Conflict on a Communication Channel").

The paper positions itself against the first resource-competitive
communication protocol, in which a sender defeats a jammer at expected cost
``O(T^{φ-1}) = O(T^{0.62})`` while — in the n-receiver scenario the related
work discusses — each receiving node still pays ``Θ(T)`` and the protocol is
therefore not load balanced.

We reproduce that *cost profile* (sender ``≈ T^{0.62}``, receivers ``≈ T``)
with an epoch protocol: epoch ``i`` has ``2^i`` slots, Alice transmits in a
``2^{-(2-φ)·i}``-fraction of them (so her per-epoch cost is ``≈ 2^{(φ-1)·i}``),
and uninformed receivers listen in every slot.  If the jammer disrupts at most
half of the epoch, each listening node catches one of Alice's ``≳ 2^{0.62·i}``
surviving transmissions with overwhelming probability, so the run ends within
a constant number of epochs of Carol's budget running dry — exactly the
behaviour the asymptotic comparison needs.  The reconstruction is a
simulation-scale substitution, documented in ``docs/architecture.md`` (the
original protocol's internals differ, its cost exponents do not).
"""

from __future__ import annotations

import math

from .base import EpochBaseline

__all__ = ["KSYStyleBroadcast", "GOLDEN_RATIO"]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
"""φ = (1 + √5) / 2 ≈ 1.618; the KSY sender exponent is φ - 1 ≈ 0.618."""


class KSYStyleBroadcast(EpochBaseline):
    """Sender pays ``≈ T^{φ-1}``, each receiver pays ``≈ T`` (not load balanced)."""

    protocol_name = "ksy"

    def epoch_length(self, epoch: int) -> int:
        return 2 ** epoch

    def alice_send_probability(self, epoch: int) -> float:
        # Sending in a 2^{-(2-φ)i} fraction of the 2^i slots costs 2^{(φ-1)i}.
        return min(1.0, 2.0 ** (-(2.0 - GOLDEN_RATIO) * epoch))

    def node_listen_probability(self, epoch: int) -> float:
        return 1.0
