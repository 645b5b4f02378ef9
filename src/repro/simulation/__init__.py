"""The wireless-sensor-network simulation substrate.

This subpackage implements the slotted, single-channel, energy-budgeted
network model of Gilbert & Young (PODC 2012): devices, the collision/jamming
channel with n-uniform targeting, energy ledgers, deterministic randomness,
and two interchangeable phase-execution engines (slot-faithful and
vectorised).
"""

from .auth import ALICE_ID, Authenticator
from .channel import Channel, JamMode, JamTargeting, SlotResolution
from .clock import PhaseWindow, SlotClock
from .config import SimulationConfig
from .energy import BudgetPolicy, EnergyLedger, EnergyOperation, LedgerArray, LedgerView
from .engine import SlotEngine
from .errors import (
    AuthenticationError,
    BudgetExceededError,
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
)
from .events import EventLog, PhaseRecord, SlotEvent
from .fastengine import PhaseEngine
from .messages import Message, MessageKind, make_decoy, make_nack, make_payload, make_spoof
from .metrics import CostBreakdown, DeliveryStats, resource_competitive_ratio
from .network import Network
from .node import ActionKind, Device, Role, SlotAction
from .observation import ChannelState, Observation
from .phaseplan import (
    AdversaryStrategy,
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
    "ActionKind",
    "AdversaryStrategy",
    "AuthenticationError",
    "Authenticator",
    "BudgetExceededError",
    "BudgetPolicy",
    "Channel",
    "ChannelState",
    "clip_probability",
    "ConfigurationError",
    "CostBreakdown",
    "DeliveryStats",
    "derive_seed",
    "Device",
    "EnergyLedger",
    "EnergyOperation",
    "LedgerArray",
    "LedgerView",
    "EventLog",
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
    "PhaseRecord",
    "PhaseResult",
    "PhaseRoles",
    "PhaseWindow",
    "ProtocolViolationError",
    "RandomSource",
    "ReproError",
    "resource_competitive_ratio",
    "Role",
    "ScaleFreeGilbert",
    "SimulationConfig",
    "SimulationError",
    "SingleHop",
    "SlotAction",
    "SlotClock",
    "SlotEngine",
    "SlotEvent",
    "SlotResolution",
    "Topology",
    "TopologySpec",
    "build_topology",
    "gilbert_connectivity_radius",
]
