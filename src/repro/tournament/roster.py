"""Tournament rosters: adversaries, protocol variants, and the topology grid.

Everything here is resolvable *by name* from a module-level registry, so the
tournament's trial function can rebuild any cell inside a worker process (the
parallel runner pickles only the names and numbers, never live strategy
objects) and the :class:`~repro.experiments.cache.TrialCache` can key on the
same names.

The adversary entries reuse the hand-picked configurations of the E-numbered
experiments — E1/E9's blockers, E10's spoofers, E12's disk family — so a
tournament cell's default parameters are exactly the settings those
experiments ship, and the optimiser's "beats the hand-picked configuration"
comparison is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

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
from ..core.broadcast import EngineSpec, EpsilonBroadcast, MultiHopBroadcast
from ..core.quietrule import ConstantQuietRule
from ..simulation.config import SimulationConfig
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import PhaseKind
from ..simulation.topology import TopologySpec, gilbert_connectivity_radius

__all__ = [
    "JAM_RADIUS",
    "ProtocolEntry",
    "TopologyEntry",
    "adversary_roster",
    "adversary_supports_topology",
    "build_adversary",
    "build_protocol",
    "build_topology_spec",
    "protocol_roster",
    "topology_grid",
]

JAM_RADIUS = 0.25
"""Disk radius shared by the spatial entries — the hand-picked E11/E12 value."""

PATROL_SPEED = 0.04
"""Patrol distance per phase for the mobile entry (the E12 value)."""

QUIET_RETRIES = 6
"""Retry horizon of the ``mh-constant`` variant (the E12/E13 uniform cap)."""


# --------------------------------------------------------------------- #
# Adversaries                                                           #
# --------------------------------------------------------------------- #

# Disk strategies resolve victims from node positions, which only spatial
# topologies realise; everything else attacks the channel and runs anywhere.
_SPATIAL_ONLY = frozenset(
    {"static_disk", "mobile_disk", "multi_disk", "reactive_disk"}
)


def adversary_roster() -> Dict[str, Callable[[Optional[float]], Adversary]]:
    """Every tournament adversary: name → factory(spend_cap) → fresh strategy.

    Factories return *unbound* strategies at their hand-picked (E-numbered
    experiment) parameters; the tournament applies ``with_parameters`` before
    binding when a cell overrides them.
    """

    corners = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
    return {
        # The reference budget attacker of Lemma 10 (E1/E9).
        "budget_blocker": lambda cap: PhaseBlockingAdversary(
            kinds={PhaseKind.INFORM}, fraction=1.0, max_total_spend=cap
        ),
        # Oblivious duty-cycle jamming (E9's comparator).
        "bursty": lambda cap: BurstyJammer(
            burst_length=64, period=128, max_total_spend=cap
        ),
        # Listens first, jams payload-carrying phases (E7).
        "reactive": lambda cap: ReactiveJammer(
            phase_budget_fraction=0.5, max_total_spend=cap
        ),
        # Fake payloads + fake nacks (the sybil-flavoured spoofer, E9).
        "sybil": lambda cap: SpoofingAdversary(
            payload_fraction=0.5, nack_fraction=0.5, max_total_spend=cap
        ),
        # Request-phase spoofing: delay termination (E10).
        "request_spoofer": lambda cap: RequestSpoofingAdversary(
            fraction=1.0, use_spoofed_nacks=True, max_total_spend=cap
        ),
        # The spatial family at the shared E12 radius and budget discipline.
        "static_disk": lambda cap: SpatialJammer(
            center=(0.25, 0.25), radius=JAM_RADIUS, max_total_spend=cap
        ),
        "mobile_disk": lambda cap: MobileJammer(
            WaypointPatrol(corners, speed=PATROL_SPEED),
            radius=JAM_RADIUS,
            max_total_spend=cap,
        ),
        "multi_disk": lambda cap: MultiDiskJammer(
            centers=[(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)],
            radius=JAM_RADIUS / math.sqrt(3.0),  # equal total area to one disk
            max_total_spend=cap,
        ),
        "reactive_disk": lambda cap: ReactiveDiskJammer(
            radius=JAM_RADIUS, max_total_spend=cap
        ),
        # Combining strategies — in the roster so the conformance contract
        # (every enumerable adversary exposes its tunables) covers them.
        "composite": lambda cap: CompositeAdversary(
            [
                PhaseBlockingAdversary(kinds={PhaseKind.INFORM}, fraction=1.0),
                RequestSpoofingAdversary(fraction=1.0),
            ],
            max_total_spend=cap,
        ),
        "round_switch": lambda cap: RoundSwitchingAdversary(
            early=PhaseBlockingAdversary(kinds={PhaseKind.INFORM}, fraction=1.0),
            late=RequestSpoofingAdversary(fraction=1.0),
            switch_round=4,
            max_total_spend=cap,
        ),
    }


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
ProtocolBuilder = Callable[[SimulationConfig, Adversary, EngineSpec], ProtocolVariant]


@dataclass(frozen=True)
class ProtocolEntry:
    """One protocol variant: a builder plus the topology kinds it runs on."""

    name: str
    builder: ProtocolBuilder
    topology_kinds: Tuple[str, ...]
    description: str = ""

    def build(
        self, config: SimulationConfig, adversary: Adversary, engine: EngineSpec
    ) -> ProtocolVariant:
        return self.builder(config, adversary, engine)


def _build_eps(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> EpsilonBroadcast:
    return EpsilonBroadcast(config, adversary=adversary, engine=engine)


def _build_naive(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> NaiveBroadcast:
    return NaiveBroadcast(config, adversary=adversary, engine=engine)


def _build_ksy(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> KSYStyleBroadcast:
    return KSYStyleBroadcast(config, adversary=adversary, engine=engine)


def _build_backoff(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> BalancedBackoffBroadcast:
    return BalancedBackoffBroadcast(config, adversary=adversary, engine=engine)


def _build_mh_paper(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> MultiHopBroadcast:
    return MultiHopBroadcast(config, adversary=adversary, engine=engine, quiet_rule="paper")


def _build_mh_constant(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> MultiHopBroadcast:
    return MultiHopBroadcast(
        config,
        adversary=adversary,
        engine=engine,
        quiet_rule=ConstantQuietRule(retries=QUIET_RETRIES),
    )


def _build_mh_degree_aware(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> MultiHopBroadcast:
    return MultiHopBroadcast(config, adversary=adversary, engine=engine)


def _build_mh_sequential(
    config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> MultiHopBroadcast:
    return MultiHopBroadcast(config, adversary=adversary, engine=engine, pipeline=False)


_SINGLE_HOP = ("single_hop",)
_SPATIAL = ("gilbert", "scale_free")


def protocol_roster() -> Dict[str, ProtocolEntry]:
    """Every tournament protocol variant, keyed by name."""

    entries = (
        ProtocolEntry("eps-broadcast", _build_eps, _SINGLE_HOP,
                      "the paper's single-hop protocol (k = 2)"),
        ProtocolEntry("naive", _build_naive, _SINGLE_HOP,
                      "always-on baseline"),
        ProtocolEntry("ksy", _build_ksy, _SINGLE_HOP,
                      "KSY-style epoch baseline"),
        ProtocolEntry("backoff", _build_backoff, _SINGLE_HOP,
                      "balanced-backoff epoch baseline"),
        ProtocolEntry("mh-paper", _build_mh_paper, _SPATIAL,
                      "multi-hop, §2.2 channel-quiet rule, pipelined"),
        ProtocolEntry("mh-constant", _build_mh_constant, _SPATIAL,
                      f"multi-hop, uniform {QUIET_RETRIES}-retry cap, pipelined"),
        ProtocolEntry("mh-degree-aware", _build_mh_degree_aware, _SPATIAL,
                      "multi-hop, degree-aware quiet rule, pipelined (default)"),
        ProtocolEntry("mh-sequential", _build_mh_sequential, _SPATIAL,
                      "multi-hop, degree-aware quiet rule, pipelining off"),
    )
    return {entry.name: entry for entry in entries}


def build_protocol(
    name: str, config: SimulationConfig, adversary: Adversary, engine: EngineSpec
) -> ProtocolVariant:
    roster = protocol_roster()
    if name not in roster:
        raise ConfigurationError(
            f"unknown tournament protocol {name!r} (known: {', '.join(sorted(roster))})"
        )
    return roster[name].build(config, adversary, engine)


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

    The multiples of the connectivity radius ``sqrt(ln n / (π n))`` are the
    E11 grid — below, at, and above the percolation threshold
    (arXiv:1004.1596) — so each cell's exponent fit sits in one known
    connectivity regime rather than straddling the transition.
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
