"""The wireless-sensor-network simulation substrate.

This subpackage implements the slotted, single-channel, energy-budgeted
network model of Gilbert & Young (PODC 2012): the network container (the
radio graph plus one energy ledger per side — Alice, the correct nodes as
rows of one array, and Carol), the collision/jamming channel with n-uniform
targeting, deterministic randomness, and two interchangeable
phase-execution engines (slot-faithful and vectorised).
"""

from .auth import ALICE_ID, Authenticator
from .channel import Channel, JamMode, JamTargeting, SlotResolution
from .config import SimulationConfig
from .energy import BudgetPolicy, EnergyLedger, EnergyOperation, LedgerArray
from .engine import SlotEngine
from .errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
)
from .fastengine import PhaseEngine
from .messages import Message, MessageKind, make_decoy, make_nack, make_payload, make_spoof
from .metrics import CostBreakdown, DeliveryStats, resource_competitive_ratio
from .network import Network
from .observation import ChannelState, Observation
from .phaseplan import (
    JamPlan,
    PhaseContext,
    PhaseKind,
    PhasePlan,
    PhaseResult,
    PhaseRoles,
    clip_probability,
)
from .rng import RandomSource, derive_seed
from .topology import (
    GilbertGraph,
    NeighborCSR,
    ScaleFreeGilbert,
    SingleHop,
    Topology,
    TopologySpec,
    build_topology,
    gilbert_connectivity_radius,
)

__all__ = [
    "ALICE_ID",
    "AuthenticationError",
    "Authenticator",
    "BudgetPolicy",
    "Channel",
    "ChannelState",
    "clip_probability",
    "ConfigurationError",
    "CostBreakdown",
    "DeliveryStats",
    "derive_seed",
    "EnergyLedger",
    "EnergyOperation",
    "LedgerArray",
    "GilbertGraph",
    "NeighborCSR",
    "JamMode",
    "JamPlan",
    "JamTargeting",
    "Message",
    "MessageKind",
    "make_decoy",
    "make_nack",
    "make_payload",
    "make_spoof",
    "Network",
    "Observation",
    "PhaseContext",
    "PhaseEngine",
    "PhaseKind",
    "PhasePlan",
    "PhaseResult",
    "PhaseRoles",
    "ProtocolViolationError",
    "RandomSource",
    "ReproError",
    "resource_competitive_ratio",
    "ScaleFreeGilbert",
    "SimulationConfig",
    "SimulationError",
    "SingleHop",
    "SlotEngine",
    "SlotResolution",
    "Topology",
    "TopologySpec",
    "build_topology",
    "gilbert_connectivity_radius",
]
