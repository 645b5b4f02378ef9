"""Shared cost / delivery metrics.

Both engines and every protocol (ε-Broadcast and the baselines) summarise
their runs through the same dataclasses so that experiments can compare
protocols apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = ["CostBreakdown", "DeliveryStats", "resource_competitive_ratio"]


@dataclass(frozen=True)
class CostBreakdown:
    """Energy expenditure of every side of the game at the end of a run."""

    alice: float
    node_mean: float
    node_max: float
    node_total: float
    adversary: float

    @staticmethod
    def from_snapshot(snapshot: Mapping[str, float]) -> "CostBreakdown":
        return CostBreakdown(
            alice=float(snapshot["alice"]),
            node_mean=float(snapshot["node_mean"]),
            node_max=float(snapshot["node_max"]),
            node_total=float(snapshot["node_total"]),
            adversary=float(snapshot["adversary"]),
        )

    @property
    def correct_total(self) -> float:
        """Aggregate spend of Alice plus all correct nodes (global perspective)."""

        return self.alice + self.node_total

    def as_dict(self) -> Dict[str, float]:
        return {
            "alice": self.alice,
            "node_mean": self.node_mean,
            "node_max": self.node_max,
            "node_total": self.node_total,
            "adversary": self.adversary,
        }


@dataclass(frozen=True)
class DeliveryStats:
    """Who got the message and when the protocol finished."""

    n: int
    informed: int
    terminated_informed: int
    terminated_uninformed: int
    slots_elapsed: int
    rounds_executed: int
    alice_terminated: bool

    @property
    def delivery_fraction(self) -> float:
        """Fraction of correct nodes that received the message."""

        if self.n == 0:
            return 0.0
        return self.informed / self.n

    @property
    def uninformed(self) -> int:
        return self.n - self.informed

    @property
    def all_terminated(self) -> bool:
        return self.terminated_informed + self.terminated_uninformed >= self.n

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "informed": self.informed,
            "delivery_fraction": self.delivery_fraction,
            "terminated_informed": self.terminated_informed,
            "terminated_uninformed": self.terminated_uninformed,
            "slots_elapsed": self.slots_elapsed,
            "rounds_executed": self.rounds_executed,
            "alice_terminated": float(self.alice_terminated),
        }


def resource_competitive_ratio(device_cost: float, adversary_cost: float) -> float:
    """The local resource-competitive ratio ``device_cost / adversary_cost``.

    Values well below one mean the device got away cheaply relative to Carol;
    the paper guarantees this ratio shrinks polynomially (``T^{1/(k+1)} / T``)
    as the adversary spends more.  When the adversary spends nothing the ratio
    is reported as ``inf`` unless the device also spent nothing.
    """

    if adversary_cost <= 0:
        return 0.0 if device_cost <= 0 else float("inf")
    return device_cost / adversary_cost
