"""Single-channel collision and jamming semantics.

The channel resolves, for every listener, what it perceives in a slot given

* the set of frames transmitted in that slot,
* the adversary's jamming decision, which — because Carol is an *n-uniform*
  adversary — may apply to some listeners and not others.

The rules implemented here are exactly the paper's model (§1.1):

* two or more simultaneous transmissions collide; every listener hears noise;
* jamming is indistinguishable from a collision, and any data received in a
  jammed slot is discarded;
* the absence of channel activity cannot be forged: a slot is silent for a
  listener only if nobody transmitted *and* that listener was not jammed;
* a listener cannot hear its own transmission (senders never appear among
  listeners for the same slot).

When the channel is constructed with a spatial
:class:`~repro.simulation.topology.Topology`, audibility becomes per-listener:
a listener only perceives transmissions from devices within radio range, so
the same slot can deliver a message to one listener, collide for a second,
and be silent for a third.  The single-hop (default) case takes exactly the
pre-topology code path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ProtocolViolationError
from .messages import Message
from .observation import Observation
from .setops import as_sorted_ids, isin_sorted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology

__all__ = ["JamTargeting", "JamMode", "Channel", "SlotResolution"]


class JamMode(enum.Enum):
    """How a jamming action selects its victims (n-uniform targeting)."""

    NONE = "none"
    ALL = "all"
    ONLY = "only"


@dataclass(frozen=True, eq=False)
class JamTargeting:
    """The adversary's per-slot, per-listener jamming decision.

    ``ALL`` jams every listener; ``ONLY`` jams exactly the listeners in
    ``nodes`` (this is how an n-uniform Carol "decides which nodes receive
    m": she jams a victim set and lets the rest listen); ``NONE`` jams
    nobody.  Alice is addressed by her device id (-1) like any other
    listener.  ``nodes`` is held as a sorted ``int64`` id
    array (:func:`~repro.simulation.setops.as_sorted_ids` normalises any
    iterable of ids at construction).
    """

    mode: JamMode = JamMode.NONE
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", as_sorted_ids(self.nodes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JamTargeting):
            return NotImplemented
        return self.mode is other.mode and np.array_equal(self.nodes, other.nodes)

    def __hash__(self) -> int:
        return hash((self.mode, self.nodes.tobytes()))

    @staticmethod
    def none() -> "JamTargeting":
        return JamTargeting(JamMode.NONE)

    @staticmethod
    def everyone() -> "JamTargeting":
        return JamTargeting(JamMode.ALL)

    @staticmethod
    def only(nodes: "Iterable[int] | np.ndarray") -> "JamTargeting":
        return JamTargeting(JamMode.ONLY, nodes)

    @property
    def is_active(self) -> bool:
        """Whether this decision jams at least one potential listener."""

        return self.mode is not JamMode.NONE

    def affects(self, listener_id: int) -> bool:
        """Whether ``listener_id`` perceives jamming under this decision."""

        return bool(self.affects_array(np.array([listener_id], dtype=np.int64))[0])

    def affects_array(self, listener_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`affects` over a device-id array.

        This is how the engines resolve a phase's victim mask: one sorted
        membership test (``O(m log v)``) instead of ``m`` Python lookups,
        which matters once a mobile jammer re-targets every phase at large
        ``n``.
        """

        listener_ids = np.asarray(listener_ids, dtype=np.int64)
        if self.mode is JamMode.NONE:
            return np.zeros(listener_ids.size, dtype=bool)
        if self.mode is JamMode.ALL:
            return np.ones(listener_ids.size, dtype=bool)
        return isin_sorted(listener_ids, self.nodes)


@dataclass(frozen=True)
class SlotResolution:
    """The outcome of one slot: per-listener observations plus channel facts."""

    observations: Mapping[int, Observation]
    transmission_count: int
    jammed_any: bool

    @property
    def busy(self) -> bool:
        """Whether the slot carried any transmission or jamming energy."""

        return self.transmission_count > 0 or self.jammed_any


class Channel:
    """The shared communication channel, optionally over a spatial topology.

    Parameters
    ----------
    topology:
        ``None`` (or a single-hop topology) gives the paper's shared channel:
        every transmission is audible to every listener.  A spatial topology
        restricts audibility to radio range per listener.
    """

    def __init__(self, topology: Optional["Topology"] = None) -> None:
        self.topology = topology

    def resolve_slot(
        self,
        transmissions: Sequence[Message],
        listeners: Iterable[int],
        jam: JamTargeting,
        slot: int = -1,
        senders: Iterable[int] = (),
    ) -> SlotResolution:
        """Resolve what every listener perceives in one slot.

        Parameters
        ----------
        transmissions:
            Frames transmitted this slot (one per transmitting device).
        listeners:
            Ids of the devices listening this slot.  A device both sending and
            listening is a protocol violation (half-duplex radios).
        jam:
            The adversary's :class:`JamTargeting` for this slot.
        slot:
            Global slot index recorded on the observations (for traces).
        senders:
            Ids of the transmitters, used only for the half-duplex
            sanity check; Byzantine transmitters may be omitted.
        """

        sender_set = set(senders)
        listener_set = set(listeners)
        overlap = sender_set & listener_set
        if overlap:
            raise ProtocolViolationError(
                f"devices {sorted(overlap)} attempted to send and listen in the same slot"
            )

        topology = self.topology
        spatial = topology is not None and not topology.is_single_hop

        count = len(transmissions)
        observations: Dict[int, Observation] = {}
        # Sorted so the observation mapping's insertion order depends on the
        # listener cohort's contents, never on set hash layout — the engines
        # iterate this mapping while mutating shared per-phase state.
        listener_ids = np.array(sorted(listener_set), dtype=np.int64)
        jammed_mask = jam.affects_array(listener_ids).tolist()
        for listener, jammed in zip(listener_ids.tolist(), jammed_mask):
            if spatial:
                # Synthetic Byzantine senders (ids <= -2) are audible
                # everywhere by model fiat; can_hear answers that too.
                audible = [
                    frame
                    for frame in transmissions
                    if topology.can_hear(listener, frame.sender_id)
                ]
            else:
                audible = transmissions
            heard = len(audible)
            if heard == 0:
                observations[listener] = (
                    Observation.noise(slot) if jammed else Observation.silent(slot)
                )
            elif heard == 1:
                observations[listener] = (
                    Observation.noise(slot)
                    if jammed
                    else Observation.of_message(audible[0], slot)
                )
            else:
                observations[listener] = Observation.noise(slot)
        return SlotResolution(
            observations=observations,
            transmission_count=count,
            jammed_any=jam.is_active,
        )
