"""Termination (quiet-rule) policies for the multi-hop request phase.

§2.2's termination protocol lets an uninformed node stop once a request phase
sounds quiet: with every transmission audible to every listener, "my channel
is quiet" and "almost nobody still wants the message" are the same statement.
Over a spatial :class:`~repro.simulation.topology.Topology` they are not, and
the rule misfires in both directions:

* **early give-up** — a node with a handful of radio neighbours hears a
  handful of nacks; its channel sounds quiet against the global ``5·c·ln n``
  threshold even while its whole component is still waiting, so it abandons a
  message that is actively relaying towards it (the near-threshold
  ``delivery_vs_reachable`` dip of E11);
* **mutual sustain** — nodes in a multi-node component *without* Alice keep
  hearing each other's nacks, never see a quiet phase, and run to the round
  cap, overspending their budgets by orders of magnitude (the sub-threshold
  ``mean_node_cost`` blowup of E11).

A :class:`QuietRule` decides, per node, when to give up instead.  The policy
is two numbers per node, both pure functions of the immutable realised graph:

* whether the paper's **channel-quiet test** still applies (it is only
  meaningful when the audible population is Θ(n)), and
* a **request-phase budget**: how many consecutive quiet/nack-only request
  phases the node sits through before giving up.  Every request phase an
  uninformed node completes is quiet or nack-only — the protocol never
  delivers ``m`` during a request phase — so the budget bounds the node's
  futile patience; ``inf`` means unlimited (the round cap bounds the run).

The rules themselves:

* :class:`PaperQuietRule` — the unmodified §2.2 behaviour (channel test, no
  budget).  Bit-identical to the pre-rule orchestrator.
* :class:`ConstantQuietRule` — the paper rule plus one global budget for
  every node.
* :class:`DegreeAwareQuietRule` (the default) — budgets derived from each
  node's *local neighbourhood size*.  The Gilbert-graph limit theory
  (arXiv:1312.4861) says local neighbourhood counts concentrate around
  ``π r² n``, so the size of a node's ``hops``-ball is a local read on which
  side of the connectivity threshold its surroundings sit: inside a
  sub-critical fragment the ball is bounded by the (small) component, while
  in the giant component it is ≈ degree × mean degree.  Sub-critical
  neighbourhoods get a small budget (stop early, curing the blowup);
  super-critical ones get unlimited patience (curing the early give-up — the
  round cap, not local silence, ends them).  The scale-free construction of
  arXiv:1411.6824 is why the rule must be per-node rather than one global
  constant: heavy-tailed radii put hub and fringe neighbourhoods in the same
  graph.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..simulation.errors import ConfigurationError
from ..simulation.topology import Topology

__all__ = [
    "QuietRule",
    "PaperQuietRule",
    "ConstantQuietRule",
    "DegreeAwareQuietRule",
    "resolve_quiet_rule",
]


class QuietRule(abc.ABC):
    """When does an uninformed node stop asking for the message?

    Instances are immutable policy values (frozen dataclasses): picklable, so
    experiments can pass them as sweep parameters, and hashable/tokenisable
    for the trial cache.  The orchestrator owns all mutable state (the
    per-node streak counters live in
    :class:`~repro.core.state.ProtocolState`).
    """

    name: str = "quiet-rule"

    #: Whether the paper's channel-quiet test (``heard <= 5·c·ln n`` after the
    #: earliest reliable round) still terminates nodes.  Rules that replace it
    #: set this to ``False``; the test stays exact on single-hop topologies,
    #: which never consult a ``QuietRule`` at all.
    channel_quiet_test: bool = True

    @abc.abstractmethod
    def budgets(self, topology: Topology) -> np.ndarray:
        """Per-node request-phase budgets, shape ``(n,)``, dtype ``float64``.

        ``budgets[i]`` is how many request phases node ``i`` may complete
        while still uninformed before it gives up; ``np.inf`` disables the
        budget for that node.  Pure function of the realised topology —
        callers may cache the result for the lifetime of the run.
        """

    def describe(self) -> str:
        """One-line human-readable summary (used by experiment tables)."""

        return self.name


@dataclass(frozen=True)
class PaperQuietRule(QuietRule):
    """The unmodified §2.2 rule: channel-quiet test only, no budget."""

    name = "paper"
    channel_quiet_test = True

    def budgets(self, topology: Topology) -> np.ndarray:
        return np.full(topology.n, np.inf)


@dataclass(frozen=True)
class ConstantQuietRule(QuietRule):
    """The paper rule plus one global budget of request phases.

    Every active uninformed node takes part in every request phase, so one
    global budget caps each node's futile patience uniformly.
    """

    retries: int = 6

    name = "constant"
    channel_quiet_test = True

    def __post_init__(self) -> None:
        if not isinstance(self.retries, int) or self.retries < 1:
            raise ConfigurationError(
                f"ConstantQuietRule.retries must be a positive integer, got {self.retries!r}"
            )

    def budgets(self, topology: Topology) -> np.ndarray:
        return np.full(topology.n, float(self.retries))

    def describe(self) -> str:
        return f"constant(R={self.retries})"


@dataclass(frozen=True)
class DegreeAwareQuietRule(QuietRule):
    """Per-node budgets from the local neighbourhood size (the default).

    A node whose ``hops``-ball holds ``m`` devices gets

    ``budget(m) = base + ceil(coefficient · log2(1 + m))``

    request phases of patience — except that a ball of at least
    ``unlimited_factor · ln n`` devices reads as super-critical (the local
    neighbourhood count sits at or above the Gilbert connectivity scale
    ``ln n`` of arXiv:1312.4861), and such nodes never self-terminate: their
    component plausibly contains Alice, the message is plausibly still
    relaying towards them, and the round cap bounds their spend.

    With the default ``hops=3`` the ball is the three-hop neighbourhood: a
    sub-critical fragment bounds the ball by its own (small) size, while in
    the giant component the ball is ≈ degree × mean degree² and clears the
    cut even for fringe nodes whose plain degree would not.  ``hops=1``
    recovers the plain degree form ``base + ceil(c · log(deg+1))``.  Alice
    counts as a device in the ball (a node whose only neighbour is Alice is
    reachable, not isolated); an isolated node's ball is empty, so it gives
    up after ``base`` phases.

    The defaults are calibrated on the E11 sweep (and re-checked by the E13
    ablation): relative to the paper rule they cut the sub-threshold
    (0.6·r_c) mean node cost ~6–20× — within 2× of a uniform
    ``ConstantQuietRule(6)`` cap — while recovering the near-threshold
    ``delivery_vs_reachable`` dip.  The recovery is sweep-specific, not a
    guarantee: the E11 draws at n = 256 go 0.90 → 0.99, while the E13
    ablation's harder draws (cap-bound graphs where even never-giving-up
    tops out below 1) go 0.68 → 0.89.  The residual sub-1 sliver is the
    locally-undecidable class: a pendant chain of the giant component and
    the fringe of a large sub-critical fragment present identical
    ``hops``-balls, so any local rule must price one against the other.

    Parameters
    ----------
    coefficient, base:
        Budget-formula constants.  ``base`` bounds the patience of an
        isolated node and must be at least 1.
    hops:
        Neighbourhood radius the ball is measured over.
    unlimited_factor:
        Super-critical cut in units of ``ln n``; ``None`` disables the cut
        (every node gets a finite formula budget).
    protect_source_neighborhood:
        A node that knows Alice is nearby (within ``2·hops`` edges) is
        reachable by construction and gets unlimited patience regardless of
        ball size (default on).  Without it, members of small Alice
        components — sub-threshold nodes the protocol can and does inform —
        would give up on tiny budgets before the message crosses the last
        hops.  The protection is effectively free: protected nodes receive
        the message and terminate informed, so they never pay the
        run-to-the-cap cost.
    """

    coefficient: float = 1.25
    base: int = 1
    hops: int = 3
    unlimited_factor: Optional[float] = 1.8
    protect_source_neighborhood: bool = True

    name = "degree-aware"
    channel_quiet_test = False

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ConfigurationError(
                f"DegreeAwareQuietRule.coefficient must be positive, got {self.coefficient}"
            )
        if not isinstance(self.base, int) or self.base < 1:
            raise ConfigurationError(
                f"DegreeAwareQuietRule.base must be an integer >= 1, got {self.base!r}"
            )
        if not isinstance(self.hops, int) or self.hops < 1:
            raise ConfigurationError(
                f"DegreeAwareQuietRule.hops must be an integer >= 1, got {self.hops!r}"
            )
        if self.unlimited_factor is not None and self.unlimited_factor <= 0:
            raise ConfigurationError(
                f"DegreeAwareQuietRule.unlimited_factor must be positive or None, "
                f"got {self.unlimited_factor}"
            )

    def budgets(self, topology: Topology) -> np.ndarray:
        if self.unlimited_factor is not None:
            # Only the threshold matters above the cut, so let the ball
            # computation saturate there: ball sizes below the cut stay
            # exact (identical budgets), and super-critical nodes stop
            # expanding the moment they clear it — the large-n fast path.
            cut = self.unlimited_factor * math.log(max(topology.n, 2))
            cap = int(math.ceil(cut))
            sizes = topology.neighborhood_sizes(self.hops, cap=cap).astype(np.float64)
        else:
            cut = None
            sizes = topology.neighborhood_sizes(self.hops).astype(np.float64)
        budgets = self.base + np.ceil(self.coefficient * np.log2(1.0 + sizes))
        if cut is not None:
            budgets = np.where(sizes >= cut, np.inf, budgets)
        if self.protect_source_neighborhood:
            budgets = np.where(topology.alice_within(2 * self.hops), np.inf, budgets)
        return budgets

    def describe(self) -> str:
        cut = "∞-cut off" if self.unlimited_factor is None else f"{self.unlimited_factor:g}·ln n"
        return (
            f"degree-aware(c={self.coefficient:g}, base={self.base}, "
            f"hops={self.hops}, unlimited at {cut})"
        )


_NAMED_RULES = {
    "paper": PaperQuietRule,
    "constant": ConstantQuietRule,
    "degree-aware": DegreeAwareQuietRule,
}


def resolve_quiet_rule(quiet_rule: Union[QuietRule, str, None]) -> QuietRule:
    """Resolve the orchestrator's quiet-rule configuration.

    ``quiet_rule`` may be a :class:`QuietRule` instance or a rule name
    (``"paper"``, ``"constant"``, ``"degree-aware"``); ``None`` selects the
    default :class:`DegreeAwareQuietRule`.
    """

    if quiet_rule is None:
        return DegreeAwareQuietRule()
    if isinstance(quiet_rule, str):
        cls = _NAMED_RULES.get(quiet_rule)
        if cls is None:
            raise ConfigurationError(
                f"unknown quiet rule {quiet_rule!r}; available: {sorted(_NAMED_RULES)}"
            )
        return cls()
    if not isinstance(quiet_rule, QuietRule):
        raise ConfigurationError(
            f"quiet_rule must be a QuietRule, a rule name, or None; got {quiet_rule!r}"
        )
    return quiet_rule
