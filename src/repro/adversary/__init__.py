"""Adversary ("Carol") strategies.

Every strategy subclasses :class:`~repro.adversary.base.Adversary`, whose
``observe_phase`` / ``plan_phase`` / ``observe_result`` hooks every
orchestrator calls once per phase.  The catalogue covers the attacks the
paper reasons about — phase blocking, n-uniform splitting, request-phase
spoofing, reactive jamming — plus the oblivious comparators (random, bursty,
continuous) used by the ablation experiments.
"""

from .base import Adversary
from .bursty import BurstyJammer
from .composite import CompositeAdversary, RoundSwitchingAdversary
from .continuous import ContinuousJammer
from .mobility import (
    MobileJammer,
    MultiDiskJammer,
    Orbit,
    RandomWalk,
    ReactiveDiskJammer,
    Trajectory,
    WaypointPatrol,
)
from .none import NullAdversary
from .parameters import ParamSpec
from .nuniform import NUniformSplitAdversary
from .phase_blocker import PhaseBlockingAdversary
from .random_jammer import RandomJammer
from .reactive import ReactiveJammer
from .request_spoofer import RequestSpoofingAdversary
from .spatial import SpatialJammer
from .sybil import SpoofingAdversary

__all__ = [
    "Adversary",
    "BurstyJammer",
    "CompositeAdversary",
    "ContinuousJammer",
    "MobileJammer",
    "MultiDiskJammer",
    "NullAdversary",
    "NUniformSplitAdversary",
    "Orbit",
    "ParamSpec",
    "PhaseBlockingAdversary",
    "RandomJammer",
    "RandomWalk",
    "ReactiveDiskJammer",
    "ReactiveJammer",
    "RequestSpoofingAdversary",
    "RoundSwitchingAdversary",
    "SpatialJammer",
    "SpoofingAdversary",
    "Trajectory",
    "WaypointPatrol",
]
