"""Result object returned by every protocol run.

:class:`BroadcastOutcome` bundles everything an experiment (or a downstream
user) needs to know about one execution: who received the message, how long it
took, and — central to the paper — how much energy each side of the game
spent.  It is deliberately protocol-agnostic so that ε-Broadcast and the
baselines can be compared with identical code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..observability.trace import TraceEvent
from ..simulation.config import SimulationConfig
from ..simulation.metrics import CostBreakdown, DeliveryStats, resource_competitive_ratio

__all__ = ["BroadcastOutcome"]


@dataclass(frozen=True)
class BroadcastOutcome:
    """Summary of one protocol execution.

    Attributes
    ----------
    protocol:
        Name of the protocol that produced the run (e.g.
        ``"epsilon-broadcast"``, ``"naive"``, ``"ksy"``).
    adversary:
        Name of the adversary strategy it faced.
    config:
        The :class:`~repro.simulation.config.SimulationConfig` of the run.
    delivery:
        Delivery and termination statistics.
    costs:
        Energy expenditure of Alice, the nodes, and the adversary.
    events:
        The run's ``"phase"`` trace events in execution order, the same
        objects a recorder received (``None`` if the caller disabled them).
    terminated_by_cap:
        ``True`` if the run hit the orchestrator's safety cap on rounds rather
        than terminating through the protocol's own rules.
    extra:
        Protocol-specific annotations (e.g. the round at which Alice stopped).
    """

    protocol: str
    adversary: str
    config: SimulationConfig
    delivery: DeliveryStats
    costs: CostBreakdown
    events: Optional[Tuple[TraceEvent, ...]] = field(default=None, compare=False, repr=False)
    terminated_by_cap: bool = False
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Convenience accessors                                               #
    # ------------------------------------------------------------------ #

    @property
    def delivery_fraction(self) -> float:
        return self.delivery.delivery_fraction

    @property
    def adversary_spend(self) -> float:
        """Carol's total expenditure ``T``."""

        return self.costs.adversary

    @property
    def alice_cost(self) -> float:
        return self.costs.alice

    @property
    def max_node_cost(self) -> float:
        return self.costs.node_max

    @property
    def mean_node_cost(self) -> float:
        return self.costs.node_mean

    @property
    def slots_elapsed(self) -> int:
        return self.delivery.slots_elapsed

    @property
    def alice_competitive_ratio(self) -> float:
        """Alice's cost relative to Carol's spend (local perspective)."""

        return resource_competitive_ratio(self.costs.alice, self.costs.adversary)

    @property
    def node_competitive_ratio(self) -> float:
        """The worst node's cost relative to Carol's spend."""

        return resource_competitive_ratio(self.costs.node_max, self.costs.adversary)

    @property
    def load_balance_ratio(self) -> float:
        """Alice's cost divided by the mean node cost (≈ polylog when balanced)."""

        if self.costs.node_mean <= 0:
            return float("inf") if self.costs.alice > 0 else 1.0
        return self.costs.alice / self.costs.node_mean

    def meets_delivery_target(self, epsilon: Optional[float] = None) -> bool:
        """Whether at least ``(1 - ε)·n`` correct nodes received the message."""

        eps = self.config.epsilon if epsilon is None else epsilon
        return self.delivery.informed >= (1.0 - eps) * self.config.n

    def summary(self) -> str:
        """A one-paragraph human-readable report used by the examples."""

        lines = [
            f"protocol={self.protocol} vs adversary={self.adversary} "
            f"(n={self.config.n}, k={self.config.k}, f={self.config.f:g})",
            f"  delivered to {self.delivery.informed}/{self.config.n} nodes "
            f"({100.0 * self.delivery_fraction:.1f}%) in {self.delivery.slots_elapsed} slots "
            f"over {self.delivery.rounds_executed} rounds",
            f"  costs: Alice={self.costs.alice:.0f}, node mean={self.costs.node_mean:.1f}, "
            f"node max={self.costs.node_max:.0f}, Carol={self.costs.adversary:.0f}",
            f"  competitive ratios: Alice={self.alice_competitive_ratio:.3g}, "
            f"worst node={self.node_competitive_ratio:.3g}; "
            f"load balance (Alice/mean node)={self.load_balance_ratio:.2f}",
        ]
        if self.terminated_by_cap:
            lines.append("  NOTE: run stopped at the round-cap safety limit")
        return "\n".join(lines)

    def as_record(self) -> Dict[str, float]:
        """A flat record suitable for tabular aggregation in experiments."""

        record: Dict[str, float] = {
            "n": float(self.config.n),
            "k": float(self.config.k),
            "f": float(self.config.f),
            "delivery_fraction": self.delivery_fraction,
            "informed": float(self.delivery.informed),
            "slots": float(self.delivery.slots_elapsed),
            "rounds": float(self.delivery.rounds_executed),
            "alice_cost": self.costs.alice,
            "node_mean_cost": self.costs.node_mean,
            "node_max_cost": self.costs.node_max,
            "adversary_spend": self.costs.adversary,
            "alice_ratio": self.alice_competitive_ratio,
            "node_ratio": self.node_competitive_ratio,
            "load_balance": self.load_balance_ratio,
            "terminated_by_cap": float(self.terminated_by_cap),
        }
        record.update({f"extra_{key}": value for key, value in self.extra.items()})
        return record
