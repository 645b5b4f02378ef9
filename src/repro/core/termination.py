"""Request-phase termination logic.

§2.2 of the paper describes the termination protocol: during the request phase
uninformed nodes advertise their existence with nacks; a listener (Alice or a
node) that hears at most ``5·c·ln n`` noisy slots concludes that almost nobody
is left wanting the message and stops.  Because correct nodes cannot be
authenticated, Carol can delay termination by spoofing nacks or jamming — but
never *cause* premature termination, since silence cannot be forged.

This module applies those rules to a request phase's
:class:`~repro.simulation.phaseplan.PhaseResult` and reports exactly what
changed, so orchestrators stay small and the rules themselves are unit
testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation.phaseplan import PhaseResult
from ..simulation.setops import isin_sorted
from .phases import ScheduleBuilder
from .state import ProtocolState

__all__ = ["RequestPhaseDecision", "apply_request_phase"]


@dataclass(frozen=True)
class RequestPhaseDecision:
    """The outcome of applying the termination rules after a request phase."""

    terminated_nodes: np.ndarray
    alice_terminated: bool
    nodes_evaluated: int = 0

    @property
    def any_terminated(self) -> bool:
        return self.alice_terminated or self.terminated_nodes.size > 0


def apply_request_phase(
    state: ProtocolState,
    result: PhaseResult,
    schedule: ScheduleBuilder,
    round_index: int,
    node_channel_test: bool = True,
) -> RequestPhaseDecision:
    """Apply the request-phase termination rules and mutate ``state``.

    Every *active uninformed* node compares the number of noisy slots it heard
    against the ``5·c·ln n`` threshold and terminates (uninformed) if the
    channel looked quiet.  Alice does the same with her own count.  Both are
    the ``schedule``'s quiet test, each side with its own threshold and
    earliest round.  Nodes that hold the message have already terminated at
    the end of the propagation phase, so they take no part here.

    ``node_channel_test=False`` skips the node-side quiet test while keeping
    Alice's: the global threshold presumes a Θ(n) audible population, and the
    multi-hop orchestrator disables it when a
    :class:`~repro.core.quietrule.QuietRule` replaces it with per-node
    budgets (Alice's own termination rule is out of that rule's scope).
    """

    terminating = np.empty(0, dtype=np.int64)
    nodes_evaluated = 0
    if node_channel_test:
        # Served from the cached active-id array (quiet-rule runs skip this
        # branch entirely).  An active node the phase did not report as a
        # listener heard nothing.
        active = state.active_uninformed_array()
        nodes_evaluated = int(active.size)
        if active.size:
            heard = _heard_by(result, active)
            terminating = active[schedule.should_terminate(heard, round_index)]
    if terminating.size:
        state.terminate_uninformed(terminating, round_index)

    alice_terminates = False
    if not state.alice_terminated:
        if schedule.should_terminate(result.alice_noisy_heard, round_index, alice=True):
            state.terminate_alice(round_index)
            alice_terminates = True

    return RequestPhaseDecision(
        terminated_nodes=terminating,
        alice_terminated=alice_terminates,
        nodes_evaluated=nodes_evaluated,
    )


def _heard_by(result: PhaseResult, node_ids: np.ndarray) -> np.ndarray:
    """Noisy slots each of the sorted ``node_ids`` heard (0 if not a listener).

    When the phase's listeners are ``node_ids`` themselves (the engines
    report the cohort array they were given, which is the state's active
    uninformed array), or an equal array, the counts are already aligned
    and are returned without a copy, so the caller only reads them; any
    other listener set is mapped onto ``node_ids`` by search.
    """

    listeners = result.noisy_listeners
    if listeners is node_ids or np.array_equal(listeners, node_ids):
        return result.node_noisy_heard
    heard = np.zeros(node_ids.size, dtype=np.int64)
    found = isin_sorted(node_ids, listeners)
    heard[found] = result.node_noisy_heard[np.searchsorted(listeners, node_ids[found])]
    return heard
