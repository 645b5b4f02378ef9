"""A balanced epoch-backoff strawman.

Between the naive ``Θ(T)`` strategy and ε-Broadcast's ``Õ(T^{1/(k+1)})`` sits
an obvious intermediate design: both sides back off geometrically, with Alice
sending and every uninformed node listening in a ``2^{-i/2}`` fraction of the
``2^i`` slots of epoch ``i``.  Per-epoch costs are ``≈ 2^{i/2}`` for everyone
(load balanced!), and a node catches an unjammed transmission in an epoch with
constant probability, so the protocol ends a logarithmic number of epochs
after Carol's budget dies — per-device cost ``O(T^{1/2})``.

The strawman exists to make the E5 comparison three-way: it shows that simple
symmetric backoff already beats the prior art's receiver cost, and that the
paper's propagation/request machinery is what buys the further improvement to
``T^{1/3}`` (and ``T^{1/(k+1)}`` in general).  It is our construction, not a
published protocol, and is documented as such.
"""

from __future__ import annotations

from .base import EpochBaseline

__all__ = ["BalancedBackoffBroadcast"]

OVERSAMPLE = 4.0
"""Multiplies both duty cycles to keep the per-epoch success probability
comfortably constant at small epoch sizes."""


class BalancedBackoffBroadcast(EpochBaseline):
    """Alice and receivers both duty-cycle at ``2^{-i/2}`` per epoch."""

    protocol_name = "balanced-backoff"

    def epoch_length(self, epoch: int) -> int:
        return 2 ** epoch

    def alice_send_probability(self, epoch: int) -> float:
        return min(1.0, OVERSAMPLE * 2.0 ** (-epoch / 2.0))

    def node_listen_probability(self, epoch: int) -> float:
        return min(1.0, OVERSAMPLE * 2.0 ** (-epoch / 2.0))
