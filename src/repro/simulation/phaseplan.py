"""Phase-level execution interface shared by the two engines.

The ε-Broadcast protocol (and every baseline we compare against) is organised
into *phases*: contiguous blocks of slots during which every participant acts
independently and identically per slot with role-specific probabilities.  The
engines therefore execute one :class:`PhasePlan` at a time and return a
:class:`PhaseResult`; the protocol orchestrators in :mod:`repro.core` own all
state transitions between phases.

The adversary participates through the hooks of
:class:`~repro.adversary.base.Adversary`: at the start of every phase she is
shown a :class:`PhaseContext` (everything an adaptive adversary is allowed to
know about the upcoming phase — the plan, the node roles, the configuration,
and her remaining budget) and must commit to a :class:`JamPlan`; afterwards
she observes the phase's :class:`PhaseResult`.
Reactive capabilities (jamming conditioned on within-slot channel activity) are
expressed by the plan's ``reactive`` flag and are honoured by both engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Tuple

import numpy as np

from .channel import JamTargeting
from .config import SimulationConfig
from .setops import as_sorted_ids

__all__ = [
    "PhaseKind",
    "PhasePlan",
    "PhaseRoles",
    "PhaseContext",
    "JamPlan",
    "PhaseResult",
    "clip_probability",
]


def clip_probability(p: float) -> float:
    """Clamp a protocol-derived probability into ``[0, 1]``.

    The paper's probabilities (e.g. ``2·ln n / 2^i``) exceed one in the very
    first rounds; the intended semantics is simply "act in every slot".
    """

    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


class PhaseKind(enum.Enum):
    """The three phase types of ε-Broadcast (baselines reuse them loosely)."""

    INFORM = "inform"
    PROPAGATION = "propagation"
    REQUEST = "request"


@dataclass(frozen=True)
class PhasePlan:
    """Per-slot action probabilities for every role during one phase.

    All probabilities are per-slot and independent across slots and devices,
    matching the protocol's design (which is what makes it immune to adaptive
    adversaries).  Probabilities are clipped to ``[0, 1]`` on construction.

    Attributes
    ----------
    name:
        Display name, e.g. ``"inform"`` or ``"propagation:2"``.
    kind:
        The :class:`PhaseKind`.
    round_index:
        The protocol round ``i`` this phase belongs to.
    num_slots:
        Number of slots in the phase.
    step:
        Propagation step index ``h`` (1-based); 0 for non-propagation phases.
    alice_send_prob:
        Probability Alice transmits ``m`` in a slot.
    alice_listen_prob:
        Probability Alice listens in a slot (request phase only).
    relay_send_prob:
        Probability each *relay* (node informed in the previous phase/step)
        transmits ``m`` in a slot.
    uninformed_listen_prob:
        Probability each active uninformed node listens in a slot.
    nack_send_prob:
        Probability each active uninformed node sends a nack in a slot
        (request phase only).
    decoy_send_prob:
        Probability each active correct node transmits a decoy in a slot
        (reactive-adversary variant of §4.1).
    """

    name: str
    kind: PhaseKind
    round_index: int
    num_slots: int
    step: int = 0
    alice_send_prob: float = 0.0
    alice_listen_prob: float = 0.0
    relay_send_prob: float = 0.0
    uninformed_listen_prob: float = 0.0
    nack_send_prob: float = 0.0
    decoy_send_prob: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice_send_prob", clip_probability(self.alice_send_prob))
        object.__setattr__(self, "alice_listen_prob", clip_probability(self.alice_listen_prob))
        object.__setattr__(self, "relay_send_prob", clip_probability(self.relay_send_prob))
        object.__setattr__(
            self, "uninformed_listen_prob", clip_probability(self.uninformed_listen_prob)
        )
        object.__setattr__(self, "nack_send_prob", clip_probability(self.nack_send_prob))
        object.__setattr__(self, "decoy_send_prob", clip_probability(self.decoy_send_prob))
        if self.num_slots < 0:
            raise ValueError(f"num_slots must be non-negative, got {self.num_slots}")

    @property
    def carries_payload(self) -> bool:
        """Whether the broadcast message can be delivered during this phase."""

        return self.alice_send_prob > 0.0 or self.relay_send_prob > 0.0


class PhaseRoles:
    """Which devices play which role during one phase.

    Each cohort is a sorted, duplicate-free ``int64`` id array (the one id
    form of :mod:`repro.simulation.setops`), which the engines consume
    directly and the adversaries intersect with ``setops``.  The constructor
    accepts any iterable of ids and normalises it with
    :func:`~repro.simulation.setops.as_sorted_ids`.

    Attributes
    ----------
    active_uninformed_ids:
        Correct node ids that are still active and have not received ``m``.
    relay_ids:
        Correct node ids that received ``m`` in the immediately preceding
        phase (or propagation step) and will relay it during this phase.
    decoy_ids:
        Correct node ids that generate decoy traffic (§4.1); usually equal to
        ``active_uninformed_ids`` in the reactive-tolerant variant, empty
        otherwise.
    alice_active:
        Whether Alice is still executing the protocol.
    """

    __slots__ = ("active_uninformed_ids", "relay_ids", "decoy_ids", "alice_active")

    def __init__(
        self,
        active_uninformed: "Iterable[int] | np.ndarray" = (),
        relays: "Iterable[int] | np.ndarray" = (),
        decoy_senders: "Iterable[int] | np.ndarray" = (),
        alice_active: bool = True,
    ) -> None:
        self.active_uninformed_ids = as_sorted_ids(active_uninformed)
        self.relay_ids = as_sorted_ids(relays)
        self.decoy_ids = as_sorted_ids(decoy_senders)
        self.alice_active = alice_active

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseRoles):
            return NotImplemented
        return (
            self.alice_active == other.alice_active
            and np.array_equal(self.active_uninformed_ids, other.active_uninformed_ids)
            and np.array_equal(self.relay_ids, other.relay_ids)
            and np.array_equal(self.decoy_ids, other.decoy_ids)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.alice_active,
                self.active_uninformed_ids.tobytes(),
                self.relay_ids.tobytes(),
                self.decoy_ids.tobytes(),
            )
        )

    def __repr__(self) -> str:
        return (
            f"PhaseRoles(active_uninformed={self.active_uninformed_ids.size}, "
            f"relays={self.relay_ids.size}, decoys={self.decoy_ids.size}, "
            f"alice_active={self.alice_active})"
        )


@dataclass(frozen=True)
class PhaseContext:
    """Everything an adaptive adversary may observe before a phase starts.

    Per §1.1, Carol "possesses full information on how nodes have behaved in
    the past" and knows the protocol and its parameters, but not the outcome
    of coin flips in the current slot.  The context therefore exposes the
    upcoming plan, the identities of active/informed nodes, and her remaining
    budget — but nothing about future randomness.  Past phases reach her
    through :meth:`~repro.adversary.base.Adversary.observe_result`, so a strategy that
    adapts to history keeps whatever it needs of it itself.
    """

    plan: PhasePlan
    roles: PhaseRoles
    config: SimulationConfig
    adversary_remaining_budget: float = float("inf")


@dataclass(frozen=True)
class JamPlan:
    """The adversary's committed attack plan for one phase.

    Carol's jammed slots are either ``slot_indices`` — explicit slots (bursty
    attacks), used when set — or ``num_jam_slots``, a count realised as a
    uniformly random subset of the phase, or as its *first* active slots
    when ``reactive`` is set.

    ``targeting`` selects the victims per jammed slot: everyone (the
    default), or only a chosen set (n-uniform jamming).  ``spoof_nack_slots`` /
    ``spoof_payload_slots`` additionally make a Byzantine device transmit
    forged frames in that many slots; each such transmission costs one unit
    like any send.
    """

    num_jam_slots: int = 0
    slot_indices: Optional[Tuple[int, ...]] = None
    targeting: JamTargeting = field(default_factory=JamTargeting.everyone)
    reactive: bool = False
    spoof_nack_slots: int = 0
    spoof_payload_slots: int = 0

    @staticmethod
    def idle() -> "JamPlan":
        """A plan that attacks nothing."""

        return JamPlan(num_jam_slots=0, targeting=JamTargeting.none())

    @property
    def attacks_anything(self) -> bool:
        return (
            self.num_jam_slots > 0
            or bool(self.slot_indices)
            or self.spoof_nack_slots > 0
            or self.spoof_payload_slots > 0
        )


def _no_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PhaseResult:
    """What happened during one executed phase.

    The engines charge energy ledgers directly; the result carries the
    protocol-visible consequences (who got informed, what the request-phase
    listeners heard) plus channel-level statistics for reporting.

    ``newly_informed`` is a sorted ``int64`` id array.  ``node_noisy_heard``
    is an ``int64`` count array aligned with the sorted ``noisy_listeners``
    ids: entry ``i`` is how many noisy slots listener ``noisy_listeners[i]``
    heard, so a result stands on its own without the phase's roles.

    ``path`` names the engine code path that executed the phase
    (``"single-hop"``, ``"multihop-sparse"`` or ``"slot"``; ``"empty"`` for
    a zero-slot phase), and ``jam_victims`` counts the active listeners
    Carol's targeting covered (0 on the slot path, which does not count
    them).
    """

    plan: PhasePlan
    newly_informed: np.ndarray
    jammed_slots: int
    adversary_spend: float
    alice_noisy_heard: int = 0
    noisy_listeners: np.ndarray = field(default_factory=_no_ids)
    node_noisy_heard: np.ndarray = field(default_factory=_no_ids)
    delivery_slots: int = 0
    busy_slots: int = 0
    alice_send_slots: int = 0
    alice_listen_slots: int = 0
    spoofed_transmissions: int = 0
    path: str = "empty"
    jam_victims: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseResult):
            return NotImplemented
        for item in fields(self):
            mine, theirs = getattr(self, item.name), getattr(other, item.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True
