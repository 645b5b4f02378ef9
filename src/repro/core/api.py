"""High-level convenience API.

Most users only need two calls::

    from repro import run_broadcast
    outcome = run_broadcast(n=512, adversary="phase_blocker", seed=1)
    print(outcome.summary())

:func:`run_broadcast` assembles the configuration, adversary, and protocol
variant from plain keyword arguments; :func:`make_adversary` exposes the
adversary catalogue by name so experiments and examples can sweep strategies
from strings.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..adversary import (
    Adversary,
    BurstyJammer,
    ContinuousJammer,
    MobileJammer,
    MultiDiskJammer,
    NullAdversary,
    NUniformSplitAdversary,
    Orbit,
    PhaseBlockingAdversary,
    RandomJammer,
    ReactiveDiskJammer,
    ReactiveJammer,
    RequestSpoofingAdversary,
    SpatialJammer,
    SpoofingAdversary,
)
from ..simulation.config import SimulationConfig
from ..simulation.errors import ConfigurationError
from ..simulation.topology import TopologySpec
from .broadcast import EpsilonBroadcast, MultiHopBroadcast
from .decoy import DecoyBroadcast
from .estimation import SizeEstimateBroadcast
from .general_k import GeneralKBroadcast
from .outcome import BroadcastOutcome

__all__ = ["run_broadcast", "make_adversary", "ADVERSARY_CATALOGUE", "PROTOCOL_VARIANTS"]


ADVERSARY_CATALOGUE: Dict[str, Type[Adversary]] = {
    "none": NullAdversary,
    "continuous": ContinuousJammer,
    "random": RandomJammer,
    "bursty": BurstyJammer,
    "phase_blocker": PhaseBlockingAdversary,
    "nuniform_split": NUniformSplitAdversary,
    "request_spoofer": RequestSpoofingAdversary,
    "reactive": ReactiveJammer,
    "spoofing": SpoofingAdversary,
    "spatial": SpatialJammer,
    "mobile": MobileJammer,
    "multi_disk": MultiDiskJammer,
    "reactive_disk": ReactiveDiskJammer,
}
"""Adversary strategies addressable by name."""

PROTOCOL_VARIANTS = {
    "epsilon-broadcast": EpsilonBroadcast,
    "general-k": GeneralKBroadcast,
    "decoy": DecoyBroadcast,
    "size-estimate": SizeEstimateBroadcast,
    "multihop": MultiHopBroadcast,
}
"""Protocol variants addressable by name."""


def make_adversary(name: str, **kwargs: object) -> Adversary:
    """Construct an adversary from the catalogue by name.

    Extra keyword arguments are forwarded to the strategy's constructor, with
    lightweight defaults filled in for strategies that require arguments
    (``rate`` for the random jammer, burst geometry for the bursty jammer,
    ``target_uninformed`` for the n-uniform splitter).
    """

    if name not in ADVERSARY_CATALOGUE:
        raise ConfigurationError(
            f"unknown adversary {name!r}; available: {sorted(ADVERSARY_CATALOGUE)}"
        )
    cls = ADVERSARY_CATALOGUE[name]
    if cls is RandomJammer:
        kwargs.setdefault("rate", 0.5)
    elif cls is BurstyJammer:
        kwargs.setdefault("burst_length", 32)
        kwargs.setdefault("period", 64)
    elif cls is NUniformSplitAdversary:
        kwargs.setdefault("target_uninformed", 0)
    elif cls is MobileJammer:
        kwargs.setdefault("trajectory", Orbit())
    elif cls is MultiDiskJammer:
        kwargs.setdefault("centers", [(0.25, 0.25), (0.75, 0.75)])
    return cls(**kwargs)  # type: ignore[arg-type]


def run_broadcast(
    n: int,
    adversary: str | Adversary = "none",
    k: int = 2,
    f: float = 1.0,
    epsilon: float = 0.1,
    seed: int = 0,
    variant: str = "epsilon-broadcast",
    engine: str = "fast",
    adversary_kwargs: Optional[dict] = None,
    config: Optional[SimulationConfig] = None,
    topology: str | TopologySpec | None = None,
    topology_kwargs: Optional[dict] = None,
    **variant_kwargs: object,
) -> BroadcastOutcome:
    """Run one ε-Broadcast execution and return its outcome.

    Parameters
    ----------
    n, k, f, epsilon, seed:
        Shortcut model parameters; ignored when an explicit ``config`` is
        passed.
    adversary:
        Either a strategy name from :data:`ADVERSARY_CATALOGUE` or an already
        constructed :class:`~repro.adversary.Adversary`.
    variant:
        Protocol variant name from :data:`PROTOCOL_VARIANTS`.  Use
        ``"multihop"`` for spatial topologies so informed nodes relay hop by
        hop.
    engine:
        ``"fast"`` or ``"slot"``.
    adversary_kwargs:
        Extra constructor arguments when ``adversary`` is given by name.
    topology:
        Optional topology: a kind name (``"gilbert"``, ``"scale_free"``) or a
        full :class:`~repro.simulation.topology.TopologySpec`.  Mutually
        exclusive with an explicit ``config`` (put the spec on the config
        instead); combining the two raises ``ConfigurationError``.
    topology_kwargs:
        Extra :class:`~repro.simulation.topology.TopologySpec` fields when
        ``topology`` is given by name (e.g. ``radius=0.2``).
    variant_kwargs:
        Extra constructor arguments for the protocol variant (e.g.
        ``size_estimate=n**2`` for the ``"size-estimate"`` variant).
    """

    if config is not None:
        if topology is not None or topology_kwargs is not None:
            raise ConfigurationError(
                "topology/topology_kwargs cannot be combined with an explicit config; "
                "pass SimulationConfig(topology=TopologySpec(...)) instead"
            )
    else:
        topology_spec: Optional[TopologySpec] = None
        if isinstance(topology, TopologySpec):
            if topology_kwargs is not None:
                raise ConfigurationError(
                    "topology_kwargs only applies when topology is a kind name; "
                    "put the fields on the TopologySpec instead"
                )
            topology_spec = topology
        elif topology is not None:
            try:
                topology_spec = TopologySpec(kind=topology, **(topology_kwargs or {}))  # type: ignore[arg-type]
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid topology_kwargs for topology {topology!r}: {exc}"
                ) from exc
        elif topology_kwargs is not None:
            raise ConfigurationError(
                "topology_kwargs given without topology; pass topology='gilbert' "
                "or topology='scale_free'"
            )
        config = SimulationConfig(
            n=n, f=f, k=k, epsilon=epsilon, seed=seed, topology=topology_spec
        )
    if variant not in PROTOCOL_VARIANTS:
        raise ConfigurationError(
            f"unknown protocol variant {variant!r}; available: {sorted(PROTOCOL_VARIANTS)}"
        )
    if isinstance(adversary, str):
        adversary_obj = make_adversary(adversary, **(adversary_kwargs or {}))
    else:
        adversary_obj = adversary

    protocol_cls = PROTOCOL_VARIANTS[variant]
    protocol = protocol_cls(
        config,
        adversary=adversary_obj,
        engine=engine,
        **variant_kwargs,  # type: ignore[arg-type]
    )
    return protocol.run()
