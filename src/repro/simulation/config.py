"""Simulation configuration.

:class:`SimulationConfig` collects the model-level parameters of the paper's
Alice-versus-Carol game — network size, Byzantine ratio, the budget exponent
``k``, the allowed uninformed fraction ``ε``, and the budget constant ``C`` —
and derives the per-participant energy budgets exactly as §1.1 and Lemma 11
prescribe:

* each correct (and each Byzantine) node:  ``C · n^(1/k)``
* Alice:                                   ``C · n^(1/k) · ln^(k-1+1) n``
  (``C · n^(1/2) · ln n`` for ``k = 2``, ``C · n^(1/k) · ln^k n`` in general)
* Carol herself:                           the same as Alice (symmetry)
* Carol's side in aggregate:               Carol's own budget plus
                                           ``f · n`` node budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigurationError
from .topology import TopologySpec

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Model parameters for one Alice-versus-Carol game.

    Attributes
    ----------
    n:
        Number of correct nodes (excluding Alice).  The network is "dense", so
        experiments typically use ``n`` in the hundreds to thousands.
    f:
        Ratio of Byzantine devices to correct devices; Carol controls
        ``f · n`` devices.  Any ``f >= 0`` is allowed, including ``f > 1``.
    k:
        Budget exponent; budgets are ``O(n^(1/k))`` and the protocol achieves
        per-device cost ``Õ(T^(1/(k+1)))``.  Must be an integer ``>= 2``.
    epsilon:
        Upper bound on the fraction of correct nodes that may terminate
        without the message.
    c:
        High-probability constant: guarantees hold with probability at least
        ``1 - n^(-c)``; also parameterises the ``5·c·ln n`` termination rule.
    budget_constant:
        The constant ``C`` of Lemma 11, scaling every budget.
    seed:
        Root random seed for the run.
    epsilon_prime:
        The internal constant ``ε'`` that parameterises the protocol's
        probabilities and the request-phase thresholds.  The paper's proofs
        renormalise ``ε' ≪ ε`` (as small as ``ε/1024``); at the laptop-scale
        ``n`` used by the experiments such tiny values push every probability
        into saturation, so the default is ``1/64`` — the largest value for
        which the termination thresholds of Lemmas 4-7 still discriminate —
        and the achieved delivery fraction is *measured* rather than assumed.
    topology:
        Optional :class:`~repro.simulation.topology.TopologySpec` describing
        the radio graph.  ``None`` (default) is the paper's single shared
        channel; spatial specs (Gilbert / scale-free Gilbert) are realised
        deterministically by the network from the run's seed.
    """

    n: int
    f: float = 1.0
    k: int = 2
    epsilon: float = 0.1
    c: float = 2.0
    budget_constant: float = 16.0
    seed: int = 0
    epsilon_prime: Optional[float] = None
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"n must be at least 2, got {self.n}")
        if self.f < 0:
            raise ConfigurationError(f"f must be non-negative, got {self.f}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ConfigurationError(f"k must be an integer >= 2, got {self.k!r}")
        if not (0 < self.epsilon < 1):
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.c <= 0:
            raise ConfigurationError(f"c must be positive, got {self.c}")
        if self.budget_constant <= 0:
            raise ConfigurationError(f"budget_constant must be positive, got {self.budget_constant}")
        if self.epsilon_prime is not None and not (0 < self.epsilon_prime < 1):
            raise ConfigurationError(
                f"epsilon_prime must lie in (0, 1) when given, got {self.epsilon_prime}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.topology is not None and not isinstance(self.topology, TopologySpec):
            raise ConfigurationError(
                f"topology must be a TopologySpec or None, got {type(self.topology).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities                                                  #
    # ------------------------------------------------------------------ #

    @property
    def eps_prime(self) -> float:
        """The internal ``ε'`` constant (defaults to ``1/64``; see class docs)."""

        if self.epsilon_prime is not None:
            return self.epsilon_prime
        return 1.0 / 64.0

    @property
    def log_n(self) -> float:
        """``ln n`` — the natural logarithm used throughout the protocol."""

        return math.log(self.n)

    @property
    def byzantine_count(self) -> int:
        """Number of Byzantine devices Carol controls (``⌊f · n⌋``)."""

        return int(math.floor(self.f * self.n))

    @property
    def node_budget(self) -> float:
        """Energy budget of each correct (and Byzantine) node: ``C·n^(1/k)``."""

        return self.budget_constant * self.n ** (1.0 / self.k)

    @property
    def alice_budget(self) -> float:
        """Alice's budget: ``C·n^(1/2)·ln n`` for k=2, ``C·n^(1/k)·ln^k n`` otherwise."""

        log_power = 1 if self.k == 2 else self.k
        return self.budget_constant * self.n ** (1.0 / self.k) * self.log_n ** log_power

    @property
    def carol_budget(self) -> float:
        """Carol's personal budget, granted for symmetry with Alice."""

        return self.alice_budget

    @property
    def adversary_total_budget(self) -> float:
        """Aggregate budget of Carol plus her ``f·n`` Byzantine devices."""

        return self.carol_budget + self.byzantine_count * self.node_budget

    def with_(self, **changes: object) -> "SimulationConfig":
        """Return a copy of the configuration with the given fields replaced."""

        return replace(self, **changes)

    def describe(self) -> str:
        """A compact human-readable summary used by reports and examples."""

        summary = (
            f"n={self.n}, f={self.f:g}, k={self.k}, eps={self.epsilon:g}, "
            f"node_budget={self.node_budget:.1f}, alice_budget={self.alice_budget:.1f}, "
            f"adversary_budget={self.adversary_total_budget:.1f}"
        )
        if self.topology is not None and self.topology.kind != "single_hop":
            summary += f", topology={self.topology.kind}"
        return summary
