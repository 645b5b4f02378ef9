"""The paper's contribution: the ε-Broadcast protocol and its variants."""

from .api import ADVERSARY_CATALOGUE, PROTOCOL_VARIANTS, make_adversary, run_broadcast
from .broadcast import EpsilonBroadcast, MultiHopBroadcast
from .decoy import DecoyBroadcast
from .estimation import SizeEstimateBroadcast
from .general_k import GeneralKBroadcast
from .outcome import BroadcastOutcome
from .phases import ScheduleBuilder
from .quietrule import (
    ConstantQuietRule,
    DegreeAwareQuietRule,
    PaperQuietRule,
    QuietRule,
    resolve_quiet_rule,
)
from .state import NodeStatus, ProtocolState
from .termination import RequestPhaseDecision, apply_request_phase

__all__ = [
    "ADVERSARY_CATALOGUE",
    "apply_request_phase",
    "BroadcastOutcome",
    "ConstantQuietRule",
    "DecoyBroadcast",
    "DegreeAwareQuietRule",
    "EpsilonBroadcast",
    "GeneralKBroadcast",
    "make_adversary",
    "MultiHopBroadcast",
    "NodeStatus",
    "PaperQuietRule",
    "PROTOCOL_VARIANTS",
    "ProtocolState",
    "QuietRule",
    "RequestPhaseDecision",
    "resolve_quiet_rule",
    "run_broadcast",
    "ScheduleBuilder",
    "SizeEstimateBroadcast",
]
