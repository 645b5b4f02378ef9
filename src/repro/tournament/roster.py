"""The roster: the one home of every hand-picked scenario.

Each hand-picked attacker, protocol variant and Gilbert regime is defined
here once, and both the E-numbered experiments and the tournament build
theirs from it:

* the adversary factories (:func:`budget_blocker`, :func:`request_spoofer`,
  the disk family, ...) are the experiments' attackers, except the few no
  entry describes (E2's splitter, E3's continuous jammer, three of E9's
  strategies and two of E12's trajectories);
* :data:`JAM_RADIUS`, :data:`PATROL_SPEED` and :data:`QUIET_RETRIES` are the
  disk radius, patrol speed and retry horizon E11–E13 share;
* :func:`protocol_roster` holds the baselines E4/E5 compare against;
* :func:`topology_grid` holds the sub-/near-/super-threshold radius
  multipliers E11 and E13 sweep.

Everything is resolvable *by name* from a module-level registry, so the
tournament's trial function can rebuild any cell inside a worker process (the
parallel runner pickles only the names and numbers, never live strategy
objects) and the :class:`~repro.experiments.cache.TrialCache` can key on the
same names.  A tournament cell's default parameters are therefore exactly
the settings the experiments ship, and the optimiser's "beats the
hand-picked configuration" comparison is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..adversary import (
    Adversary,
    BurstyJammer,
    CompositeAdversary,
    MobileJammer,
    MultiDiskJammer,
    PhaseBlockingAdversary,
    ReactiveDiskJammer,
    ReactiveJammer,
    RequestSpoofingAdversary,
    RoundSwitchingAdversary,
    SpatialJammer,
    SpoofingAdversary,
    WaypointPatrol,
)
from ..baselines import BalancedBackoffBroadcast, KSYStyleBroadcast, NaiveBroadcast
from ..baselines.base import EpochBaseline
from ..core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from ..core.quietrule import ConstantQuietRule
from ..simulation.config import SimulationConfig
from ..simulation.errors import ConfigurationError
from ..simulation.topology import TopologySpec, gilbert_connectivity_radius

__all__ = [
    "JAM_RADIUS",
    "PATROL_SPEED",
    "QUIET_RETRIES",
    "ProtocolEntry",
    "TopologyEntry",
    "adversary_roster",
    "adversary_supports_topology",
    "budget_blocker",
    "build_adversary",
    "build_protocol",
    "build_topology_spec",
    "bursty",
    "composite",
    "mobile_disk",
    "multi_disk",
    "protocol_roster",
    "reactive",
    "reactive_disk",
    "request_spoofer",
    "round_switch",
    "static_disk",
    "sybil",
    "topology_grid",
]

JAM_RADIUS = 0.25
"""Disk radius shared by the spatial entries (E11's disk row and E12)."""

PATROL_SPEED = 0.04
"""Patrol distance per phase of the mobile entry (E12's patrol)."""

QUIET_RETRIES = 6
"""Request-phase retry horizon of the uniform ``ConstantQuietRule``.

E12 runs every scenario under it, so runs end while jamming still binds;
E13 uses it as its constant-rule reference; ``mh-constant`` runs it."""


# --------------------------------------------------------------------- #
# Adversaries                                                           #
# --------------------------------------------------------------------- #

# Each factory returns a fresh, *unbound* strategy at its hand-picked
# parameters with Carol's self-imposed spend cap (None = her ledger budget);
# the tournament applies ``with_parameters`` before binding when a cell
# overrides them.


def budget_blocker(spend_cap: Optional[float]) -> PhaseBlockingAdversary:
    """The reference attacker of Lemma 10: block inform phases until broke."""

    return PhaseBlockingAdversary(max_total_spend=spend_cap)


def bursty(spend_cap: Optional[float]) -> BurstyJammer:
    """Oblivious duty-cycle jamming (E9's comparator)."""

    return BurstyJammer(burst_length=64, period=128, max_total_spend=spend_cap)


def reactive(spend_cap: Optional[float]) -> ReactiveJammer:
    """Listens first and drains its budget on payload-carrying phases (E7, E9)."""

    return ReactiveJammer(phase_budget_fraction=0.5, max_total_spend=spend_cap)


def sybil(spend_cap: Optional[float]) -> SpoofingAdversary:
    """Fake payloads and fake nacks (E9's ``spoofing``)."""

    return SpoofingAdversary(max_total_spend=spend_cap)


def request_spoofer(spend_cap: Optional[float]) -> RequestSpoofingAdversary:
    """The request-phase spoofer of §2.2: delay termination (E9, E10)."""

    return RequestSpoofingAdversary(max_total_spend=spend_cap)


def static_disk(spend_cap: Optional[float]) -> SpatialJammer:
    """One off-centre disk (E11's disk row, E12's static disk).

    The disk avoids Alice's default centre position, so the attack targets
    relay traffic rather than silencing the source outright.
    """

    return SpatialJammer(center=(0.25, 0.25), radius=JAM_RADIUS, max_total_spend=spend_cap)


def mobile_disk(spend_cap: Optional[float]) -> MobileJammer:
    """A disk patrolling the four quadrant centres (E12's patrol)."""

    corners = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
    return MobileJammer(
        WaypointPatrol(corners, speed=PATROL_SPEED),
        radius=JAM_RADIUS,
        max_total_spend=spend_cap,
    )


def multi_disk(spend_cap: Optional[float]) -> MultiDiskJammer:
    """One budget over three disks of one disk's total area (E12's multi-disk)."""

    return MultiDiskJammer(
        centers=[(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)],
        radius=JAM_RADIUS / math.sqrt(3.0),
        max_total_spend=spend_cap,
    )


def reactive_disk(spend_cap: Optional[float]) -> ReactiveDiskJammer:
    """A disk chasing the densest active uninformed cluster (E12's reactive disk)."""

    return ReactiveDiskJammer(radius=JAM_RADIUS, max_total_spend=spend_cap)


# The combining strategies are in the roster so the conformance contract
# (every enumerable adversary exposes its tunables) covers them.


def composite(spend_cap: Optional[float]) -> CompositeAdversary:
    """The blocker and the request spoofer on one budget."""

    return CompositeAdversary(
        [budget_blocker(None), request_spoofer(None)], max_total_spend=spend_cap
    )


def round_switch(spend_cap: Optional[float]) -> RoundSwitchingAdversary:
    """The blocker up to round 4, then the request spoofer."""

    return RoundSwitchingAdversary(
        early=budget_blocker(None),
        late=request_spoofer(None),
        switch_round=4,
        max_total_spend=spend_cap,
    )


_ADVERSARIES: Tuple[Callable[[Optional[float]], Adversary], ...] = (
    budget_blocker,
    bursty,
    reactive,
    sybil,
    request_spoofer,
    static_disk,
    mobile_disk,
    multi_disk,
    reactive_disk,
    composite,
    round_switch,
)

# Disk strategies resolve victims from node positions, which only spatial
# topologies realise; everything else attacks the channel and runs anywhere.
_SPATIAL_ONLY = frozenset(
    {"static_disk", "mobile_disk", "multi_disk", "reactive_disk"}
)


def adversary_roster() -> Dict[str, Callable[[Optional[float]], Adversary]]:
    """Every roster adversary: name → factory(spend_cap) → fresh strategy."""

    return {factory.__name__: factory for factory in _ADVERSARIES}


def build_adversary(
    name: str,
    spend_cap: Optional[float],
    params: Tuple[Tuple[str, float], ...] = (),
) -> Adversary:
    """Build (and optionally re-parameterise) one roster adversary by name."""

    roster = adversary_roster()
    if name not in roster:
        raise ConfigurationError(
            f"unknown tournament adversary {name!r} (known: {', '.join(sorted(roster))})"
        )
    adversary = roster[name](spend_cap)
    if params:
        adversary = adversary.with_parameters(**dict(params))
    return adversary


# --------------------------------------------------------------------- #
# Protocol variants                                                     #
# --------------------------------------------------------------------- #


#: Any runnable protocol object the tournament can drive: the paper
#: protocol family or one of the epoch baselines (same duck-typed surface:
#: ``run()`` + ``final_state``).
ProtocolVariant = Union[EpsilonBroadcast, EpochBaseline]


@dataclass(frozen=True)
class ProtocolEntry:
    """One protocol variant: a class and its constructor keywords, plus the
    topology kinds it runs on."""

    name: str
    protocol: Callable[..., ProtocolVariant]
    topology_kinds: Tuple[str, ...]
    description: str = ""
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self, config: SimulationConfig, adversary: Adversary) -> ProtocolVariant:
        return self.protocol(config, adversary=adversary, **self.kwargs)


_SINGLE_HOP = ("single_hop",)
_SPATIAL = ("gilbert", "scale_free")


def protocol_roster() -> Dict[str, ProtocolEntry]:
    """Every tournament protocol variant, keyed by name."""

    entries = (
        ProtocolEntry("eps-broadcast", EpsilonBroadcast, _SINGLE_HOP,
                      "the paper's single-hop protocol (k = 2)"),
        ProtocolEntry("naive", NaiveBroadcast, _SINGLE_HOP,
                      "always-on baseline"),
        ProtocolEntry("ksy", KSYStyleBroadcast, _SINGLE_HOP,
                      "KSY-style epoch baseline"),
        ProtocolEntry("backoff", BalancedBackoffBroadcast, _SINGLE_HOP,
                      "balanced-backoff epoch baseline"),
        ProtocolEntry("mh-paper", MultiHopBroadcast, _SPATIAL,
                      "multi-hop, §2.2 channel-quiet rule, pipelined",
                      {"quiet_rule": "paper"}),
        ProtocolEntry("mh-constant", MultiHopBroadcast, _SPATIAL,
                      f"multi-hop, uniform {QUIET_RETRIES}-retry cap, pipelined",
                      {"quiet_rule": ConstantQuietRule(retries=QUIET_RETRIES)}),
        ProtocolEntry("mh-degree-aware", MultiHopBroadcast, _SPATIAL,
                      "multi-hop, degree-aware quiet rule, pipelined (default)"),
        ProtocolEntry("mh-sequential", MultiHopBroadcast, _SPATIAL,
                      "multi-hop, degree-aware quiet rule, pipelining off",
                      {"pipeline": False}),
    )
    return {entry.name: entry for entry in entries}


def build_protocol(name: str, config: SimulationConfig, adversary: Adversary) -> ProtocolVariant:
    roster = protocol_roster()
    if name not in roster:
        raise ConfigurationError(
            f"unknown tournament protocol {name!r} (known: {', '.join(sorted(roster))})"
        )
    return roster[name].build(config, adversary)


# --------------------------------------------------------------------- #
# Topology grid                                                         #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TopologyEntry:
    """One topology grid point; Gilbert radii scale with ``n`` at build time."""

    name: str
    kind: str  # "single_hop" | "gilbert" | "scale_free"
    radius_multiplier: Optional[float] = None
    description: str = ""


def topology_grid() -> Dict[str, TopologyEntry]:
    """The principled grid points: sub-/near-/super-threshold Gilbert radii.

    The multiples of the connectivity radius ``sqrt(ln n / (π n))`` sit
    below, at, and above the percolation threshold (arXiv:1004.1596), so each
    cell's exponent fit sits in one known connectivity regime rather than
    straddling the transition.  E11's quick sweep and E13's two regimes read
    their multipliers here.
    """

    entries = (
        TopologyEntry("single-hop", "single_hop",
                      description="the paper's shared channel"),
        TopologyEntry("gilbert-sub", "gilbert", 0.6,
                      description="sub-threshold Gilbert (fragmented)"),
        TopologyEntry("gilbert-near", "gilbert", 1.3,
                      description="near-threshold Gilbert (giant component)"),
        TopologyEntry("gilbert-super", "gilbert", 2.5,
                      description="super-threshold Gilbert (dense)"),
        TopologyEntry("scale-free", "scale_free",
                      description="heavy-tailed radii (ScaleFreeGilbert, α = 2.5)"),
    )
    return {entry.name: entry for entry in entries}


def build_topology_spec(name: str, n: int) -> TopologySpec:
    grid = topology_grid()
    if name not in grid:
        raise ConfigurationError(
            f"unknown tournament topology {name!r} (known: {', '.join(sorted(grid))})"
        )
    entry = grid[name]
    if entry.kind == "single_hop":
        return TopologySpec.single_hop()
    if entry.kind == "gilbert":
        radius = entry.radius_multiplier * gilbert_connectivity_radius(n)
        return TopologySpec.gilbert(radius=radius)
    return TopologySpec.scale_free(alpha=2.5)


def adversary_supports_topology(adversary: str, topology_kind: str) -> bool:
    """Disk strategies need realised positions; channel attacks run anywhere."""

    if adversary in _SPATIAL_ONLY:
        return topology_kind != "single_hop"
    return True
