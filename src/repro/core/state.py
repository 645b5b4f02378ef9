"""Per-node protocol state.

:class:`ProtocolState` tracks, for every correct node and for Alice, where it
is in the ε-Broadcast life cycle:

* **uninformed & active** — still listening for ``m``;
* **informed & active** — received ``m`` in the most recent phase and will
  relay it during the next propagation step before terminating;
* **terminated informed / terminated uninformed** — done, with or without the
  message (the latter is the ε-fraction the protocol is allowed to lose).

The orchestrators in :mod:`repro.core.broadcast` drive all transitions; the
state object only enforces their legality.

Storage is structure-of-arrays: one ``int8`` status-code array plus ``int64``
slot/round ledgers, so the cohort queries (`active_uninformed_array`,
`active_informed_array`) are numpy mask operations instead of dict scans.
The sorted active-id arrays are cached and invalidated by a transition
counter — repeated reads between transitions return the *same* array
object, which the relay-retirement hot path relies on.  The four status
populations are kept as ``int`` counts that every transition updates by the
number of distinct nodes it moves, so the count queries and
`all_nodes_terminated` are ``O(1)``: the driver reads five of them per phase.
Observers read the per-node ledgers (``informed_at_slot``,
``terminated_at_round``) as read-only ``int64`` arrays with ``-1`` meaning
unset.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

import numpy as np

from ..simulation.errors import ProtocolViolationError
from ..simulation.setops import as_sorted_ids

__all__ = ["NodeStatus", "ProtocolState"]


class NodeStatus(enum.Enum):
    """Life-cycle status of a correct node."""

    UNINFORMED = "uninformed"
    INFORMED = "informed"
    TERMINATED_INFORMED = "terminated_informed"
    TERMINATED_UNINFORMED = "terminated_uninformed"

    @property
    def is_terminated(self) -> bool:
        return self in (NodeStatus.TERMINATED_INFORMED, NodeStatus.TERMINATED_UNINFORMED)

    @property
    def is_informed(self) -> bool:
        return self in (NodeStatus.INFORMED, NodeStatus.TERMINATED_INFORMED)


# Status codes for the structure-of-arrays backing store.
_UNINFORMED = 0
_INFORMED = 1
_TERM_INFORMED = 2
_TERM_UNINFORMED = 3

_CODE_TO_STATUS = {
    _UNINFORMED: NodeStatus.UNINFORMED,
    _INFORMED: NodeStatus.INFORMED,
    _TERM_INFORMED: NodeStatus.TERMINATED_INFORMED,
    _TERM_UNINFORMED: NodeStatus.TERMINATED_UNINFORMED,
}


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.setflags(write=False)
    return view


class ProtocolState:
    """Mutable protocol state for one execution (structure-of-arrays)."""

    __slots__ = (
        "n",
        "alice_terminated",
        "alice_terminated_at_round",
        "quiet_streaks",
        "terminations",
        "reach_checked_at",
        "_codes",
        "_counts",
        "_informed_at_slot",
        "_terminated_at_round",
        "_version",
        "_cache_version",
        "_cached_uninformed",
        "_cached_informed",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.alice_terminated = False
        self.alice_terminated_at_round: Optional[int] = None
        # Per-node quiet-rule retry state: quiet_streaks[i] counts the request
        # phases node i has completed while still uninformed (every one of
        # them is quiet or nack-only — a request phase never carries the
        # message).  Living on the per-run state, the counters reset with
        # every run by construction; a reused orchestrator cannot leak a
        # previous run's count.
        self.quiet_streaks = np.zeros(n, dtype=np.int64)
        # Termination transitions so far (a batch of nodes counts once, as
        # does Alice), and the count at the multi-hop orchestrator's last
        # reachability check (-1: none yet).  Reachability from the message
        # holders can only shrink when something terminates, so an unchanged
        # count lets that check skip its BFS.
        self.terminations = 0
        self.reach_checked_at = -1
        self._codes = np.zeros(n, dtype=np.int8)
        # Nodes per status code, indexed by code; kept equal to the code
        # array's histogram by every transition.
        self._counts = [n, 0, 0, 0]
        self._informed_at_slot = np.full(n, -1, dtype=np.int64)
        self._terminated_at_round = np.full(n, -1, dtype=np.int64)
        # Transition counter invalidating the cached active-id arrays.
        self._version = 0
        self._cache_version = -1
        self._cached_uninformed: Optional[np.ndarray] = None
        self._cached_informed: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    @property
    def informed_at_slot(self) -> np.ndarray:
        """Per-node slot at which ``m`` arrived (``-1``: never), read-only."""

        return _read_only(self._informed_at_slot)

    @property
    def terminated_at_round(self) -> np.ndarray:
        """Per-node round of termination (``-1``: still active), read-only."""

        return _read_only(self._terminated_at_round)

    def status(self, node_id: int) -> NodeStatus:
        return _CODE_TO_STATUS[int(self._codes[node_id])]

    def _refresh_cache(self) -> None:
        if self._cache_version != self._version:
            # np.flatnonzero returns ascending ids — already sorted, so
            # downstream termination order is deterministic.
            self._cached_uninformed = np.flatnonzero(self._codes == _UNINFORMED)
            self._cached_informed = np.flatnonzero(self._codes == _INFORMED)
            self._cached_uninformed.setflags(write=False)
            self._cached_informed.setflags(write=False)
            self._cache_version = self._version

    def active_uninformed_array(self) -> np.ndarray:
        """Nodes still executing the protocol without the message.

        A sorted read-only ``int64`` id array, which the engines consume and
        the quiet-rule machinery indexes budget and streak arrays with.
        Cached between transitions: repeated calls return the *same* array
        object until the state mutates, so hot paths can call this every
        phase without re-materialising it.
        """

        self._refresh_cache()
        return self._cached_uninformed

    def active_informed_array(self) -> np.ndarray:
        """Nodes holding the message that have not yet terminated (relays).

        A sorted read-only ``int64`` id array with the same caching contract
        as :meth:`active_uninformed_array`: the relay frontier the multi-hop
        orchestrator serves to the engine and to relay retirement.
        """

        self._refresh_cache()
        return self._cached_informed

    def record_unserved_request_phase(self, node_ids: np.ndarray) -> np.ndarray:
        """Bump the quiet streak of every node in ``node_ids``; returns the array.

        Called once per request phase with the still-uninformed cohort; the
        returned array is the live per-node streak state (indexed by node id).
        """

        self.quiet_streaks[node_ids] += 1
        return self.quiet_streaks

    def active_uninformed_count(self) -> int:
        return self._counts[_UNINFORMED]

    def active_informed_count(self) -> int:
        return self._counts[_INFORMED]

    def informed_count(self) -> int:
        return self._counts[_INFORMED] + self._counts[_TERM_INFORMED]

    def terminated_informed_count(self) -> int:
        return self._counts[_TERM_INFORMED]

    def terminated_uninformed_count(self) -> int:
        return self._counts[_TERM_UNINFORMED]

    def all_nodes_terminated(self) -> bool:
        return self._counts[_UNINFORMED] + self._counts[_INFORMED] == 0

    def everyone_done(self) -> bool:
        """Protocol-over condition: Alice and every correct node terminated."""

        return self.alice_terminated and self.all_nodes_terminated()

    # ------------------------------------------------------------------ #
    # Transitions                                                         #
    # ------------------------------------------------------------------ #

    def _as_id_array(self, node_ids: Iterable[int]) -> np.ndarray:
        """``node_ids`` as sorted distinct ``int64`` ids of known nodes.

        :func:`~repro.simulation.setops.as_sorted_ids` passes the engines'
        strictly increasing cohorts through and sorts and deduplicates any
        other batch, so a transition moves, and counts, each node once; the
        range check then reads the first and last id.
        """

        ids = as_sorted_ids(node_ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise ProtocolViolationError(f"unknown node id {ids[0] if ids[0] < 0 else ids[-1]}")
        return ids

    def _move(self, fresh: np.ndarray, source: int, target: int) -> None:
        """Set the distinct ids ``fresh``, all in status ``source``, to ``target``."""

        self._codes[fresh] = target
        self._counts[source] -= fresh.size
        self._counts[target] += fresh.size
        self._version += 1

    def mark_informed(self, node_ids: Iterable[int], slot: int) -> np.ndarray:
        """Transition ``UNINFORMED -> INFORMED``; returns the ids that changed.

        The changed ids come back as a sorted ``int64`` array (empty when
        every id was already informed).
        """

        ids = self._as_id_array(node_ids)
        if ids.size == 0:
            return ids
        codes = self._codes[ids]
        terminated = ids[codes >= _TERM_INFORMED]
        if terminated.size:
            node_id = int(terminated[0])
            raise ProtocolViolationError(
                f"node {node_id} received m after terminating ({self.status(node_id).value})"
            )
        # Receiving a duplicate copy (already INFORMED) is harmless.
        fresh = ids[codes == _UNINFORMED]
        if fresh.size:
            self._move(fresh, _UNINFORMED, _INFORMED)
            self._informed_at_slot[fresh] = slot
        return fresh

    def terminate_informed(self, node_ids: Iterable[int], round_index: int) -> None:
        """Transition ``INFORMED -> TERMINATED_INFORMED``."""

        ids = self._as_id_array(node_ids)
        if ids.size == 0:
            return
        codes = self._codes[ids]
        illegal = ids[(codes == _UNINFORMED) | (codes == _TERM_UNINFORMED)]
        if illegal.size:
            node_id = int(illegal[0])
            raise ProtocolViolationError(
                f"cannot terminate node {node_id} as informed from status "
                f"{self.status(node_id).value}"
            )
        fresh = ids[codes == _INFORMED]
        if fresh.size == 0:
            return
        self._move(fresh, _INFORMED, _TERM_INFORMED)
        self._terminated_at_round[fresh] = round_index
        self.terminations += 1

    def terminate_uninformed(self, node_ids: Iterable[int], round_index: int) -> None:
        """Transition ``UNINFORMED -> TERMINATED_UNINFORMED`` (the ε-loss path)."""

        ids = self._as_id_array(node_ids)
        if ids.size == 0:
            return
        codes = self._codes[ids]
        illegal = ids[(codes == _INFORMED) | (codes == _TERM_INFORMED)]
        if illegal.size:
            node_id = int(illegal[0])
            raise ProtocolViolationError(
                f"cannot terminate node {node_id} as uninformed from status "
                f"{self.status(node_id).value}"
            )
        fresh = ids[codes == _UNINFORMED]
        if fresh.size == 0:
            return
        self._move(fresh, _UNINFORMED, _TERM_UNINFORMED)
        self._terminated_at_round[fresh] = round_index
        self.terminations += 1

    def terminate_alice(self, round_index: int) -> None:
        if not self.alice_terminated:
            self.alice_terminated = True
            self.alice_terminated_at_round = round_index
            self.terminations += 1
