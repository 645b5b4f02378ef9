"""The round schedule: the pseudocode of Figures 1 and 2 as phase plans.

:class:`ScheduleBuilder` is the one home of the protocol's schedule.  It
turns Figure 1 (``k = 2``) or Figure 2 (general ``k``) into the
:class:`~repro.simulation.phaseplan.PhasePlan` objects the engines execute,
and it holds both request-phase termination tests.  It reads ``n``, ``k``,
``c`` and ``ε'`` from the :class:`~repro.simulation.config.SimulationConfig`;
the exponents are the values Lemma 11 derives, ``a = 1/k`` and ``b = 1``.
Round ``i`` has

* one **inform** phase of ``2^{(a+b)i}`` slots.  Alice sends ``m`` in each
  slot with probability ``2·ln n / 2^{b·i}`` (Figure 1) or
  ``2·c·ln^k n / 2^i`` (Figure 2); an uninformed node listens with
  probability ``2 / (ε'·2^{(a+b/2)i})`` (Figure 1) or ``2 / (ε'·2^i)``
  (Figure 2);
* ``k - 1`` **propagation** steps of the same length (one step for
  ``k = 2``).  A node informed in the preceding phase or step relays with
  probability ``1/n``; an uninformed node listens with probability
  ``4e(c+1) / 2^{(a+b/2)i}`` (Figure 1) or ``2ec / (ε'·2^i)`` (Figure 2);
* one **request** phase of ``2^{(b/2+1)i}`` slots (Figure 1) or
  ``2^{(1+1/k)i}`` slots (Figure 2).  An uninformed node nacks with
  probability ``1/n`` and listens with probability
  ``(c+1) / ((1-e^{-64ε'})·2^i)``; Alice listens with probability
  ``c·ln n / ((1-e^{-4ε'})·2^{(b/2+1)i})`` (Figure 1) or
  ``c·ln n / ((1-e^{-4ε'})·2^{(1+1/k)i})`` (Figure 2), so she expects
  ``c·ln n / (1-e^{-4ε'})`` listening slots in every request phase.

A listener that hears at most ``5·c·ln n`` noisy slots in a request phase
terminates (:mod:`repro.core.termination` applies the test).  Alice is the
provisioned sender and computes with the true ``n``; the nodes compute with
``node_n``, which is ``n`` except in §4.2's unknown-``n`` variant, where it
is the shared overestimate ``ν``.

With §4.1's decoy traffic every active node also sends a decoy in inform
and propagation slots, and the nodes' listening there is boosted to
compensate (see :data:`DECOY_RATE` and :data:`DECOY_LISTEN_BOOST`).  The
paper's decoy constants are replaced at simulation scale; the substitution
is described under "Simulation-scale substitutions" in
``docs/architecture.md``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Tuple, overload

import numpy as np

from ..simulation.config import SimulationConfig
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import PhaseKind, PhasePlan, clip_probability

__all__ = ["DECOY_LISTEN_BOOST", "DECOY_RATE", "RELIABILITY_MARGIN", "ScheduleBuilder"]

DECOY_RATE = 0.75
"""Expected decoy transmissions per slot while the whole network is uninformed.

Each active node sends a decoy with probability ``DECOY_RATE / n`` per slot;
``3/4`` is the numerator of the paper's ``3/(4ε'n)``.
"""

DECOY_LISTEN_BOOST = 2.0 * math.exp(DECOY_RATE)
"""The factor decoy traffic multiplies inform and propagation listening by.

A slot carrying ``m`` survives the cover traffic with probability at least
``e^{-DECOY_RATE}``, and the boost is twice that reciprocal:
``2·e^{DECOY_RATE}`` ≈ 4.234.  It stands in for §4.1's ``p_u`` redefinition.
"""

RELIABILITY_MARGIN = 1.5
"""How far the expected noisy count must clear the threshold before a side may terminate."""

_FIRST_ROUND = 1
"""The first round index ``i`` executed; the paper's nodes start at ``i = 1``."""

_REQUEST_EXPONENT = 1.0 / 2.0 + 1.0
"""Figure 1's request-phase exponent ``b/2 + 1`` with ``b = 1``."""


def _last_round(n: int) -> int:
    """The safety cap on round indices for a network of size ``n``: ``⌈lg n⌉ + 4``."""

    return int(math.ceil(math.log2(n))) + 4


def _earliest_round(n: int) -> int:
    """``⌈3·lg ln n⌉``: where the paper's analysis of the termination test begins.

    Terminating earlier would let nodes give up before the noisy-slot
    statistics are meaningful.
    """

    return int(math.ceil(3.0 * math.log2(max(math.log(n), 2.0))))


class ScheduleBuilder:
    """Builds the per-round phase plans of ε-Broadcast and its termination tests.

    The protocol's constants are read from the configuration (``n``, ``k``,
    ``c``, ``ε'``); the exponents are Lemma 11's ``a = 1/k`` and ``b = 1``.
    :attr:`rounds` runs from round 1 to the safety cap ``⌈lg n⌉ + 4``
    (``lg n + O(1)`` in the paper); a run that reaches the cap terminates
    every participant still active.

    Parameters
    ----------
    config:
        The model parameters; ``config.n`` is the network size Alice
        computes with.
    node_n:
        The network size the correct nodes compute with; ``n`` when omitted.
        The §4.2 variant passes its overestimate ``ν ≥ n``.
    figure:
        ``1`` for the ``k = 2`` pseudocode of Figure 1, ``2`` for the general
        ``k`` pseudocode of Figure 2.  Defaults to Figure 1 for ``k = 2`` and
        Figure 2 otherwise.
    decoy_traffic:
        Enable §4.1's decoy transmissions and boosted listening.
    """

    def __init__(
        self,
        config: SimulationConfig,
        node_n: Optional[int] = None,
        figure: Optional[int] = None,
        decoy_traffic: bool = False,
    ) -> None:
        if figure is None:
            figure = 1 if config.k == 2 else 2
        if figure not in (1, 2):
            raise ConfigurationError(f"figure must be 1 or 2, got {figure!r}")
        self.config = config
        self.n = config.n
        self.node_n = self.n if node_n is None else node_n
        self.figure = figure
        self.decoy_traffic = decoy_traffic
        self.rounds = range(_FIRST_ROUND, _last_round(self.n) + 1)
        self._log_n = config.log_n
        a = 1.0 / config.k
        self._phase_exponent = a + 1.0  # a + b
        self._listen_exponent = a + 1.0 / 2.0  # a + b/2

    # ------------------------------------------------------------------ #
    # Phase construction                                                  #
    # ------------------------------------------------------------------ #

    def inform_phase(self, round_index: int) -> PhasePlan:
        """The inform phase of round ``i``: Alice seeds the set ``S_{i,1}``."""

        config = self.config
        if self.figure == 1:
            alice_send = 2.0 * self._log_n / (2.0 ** round_index)
            exponent = self._listen_exponent * round_index
        else:
            alice_send = 2.0 * config.c * (self._log_n ** config.k) / (2.0 ** round_index)
            exponent = float(round_index)
        listen = 2.0 / (config.eps_prime * (2.0 ** exponent))
        return PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=round_index,
            num_slots=self.phase_length(round_index),
            alice_send_prob=alice_send,
            uninformed_listen_prob=self._boosted(listen),
            decoy_send_prob=self._decoy_send_probability(),
        )

    def propagation_step(self, round_index: int, step: int) -> PhasePlan:
        """One propagation step of round ``i``.

        Steps beyond ``k - 1`` carry the same per-slot probabilities — the
        pipelined multi-hop orchestrator appends them while fresh frontiers
        remain in flight (see :class:`~repro.core.broadcast.MultiHopBroadcast`).
        """

        config = self.config
        if self.figure == 1:
            exponent = self._listen_exponent * round_index
            listen = 4.0 * math.e * (config.c + 1.0) / (2.0 ** exponent)
        else:
            listen = 2.0 * math.e * config.c / (config.eps_prime * (2.0 ** round_index))
        return PhasePlan(
            name=f"propagation:{step}",
            kind=PhaseKind.PROPAGATION,
            round_index=round_index,
            num_slots=self.phase_length(round_index),
            step=step,
            relay_send_prob=1.0 / self.node_n,
            uninformed_listen_prob=self._boosted(listen),
            decoy_send_prob=self._decoy_send_probability(),
        )

    def propagation_steps(self, round_index: int) -> List[PhasePlan]:
        """The ``k - 1`` propagation steps of round ``i``."""

        return [self.propagation_step(round_index, step) for step in range(1, self.config.k)]

    def request_phase(self, round_index: int) -> PhasePlan:
        """The request phase of round ``i``: nacks, listening, termination."""

        num_slots, alice_listen, node_listen = self._request_terms(round_index)
        return PhasePlan(
            name="request",
            kind=PhaseKind.REQUEST,
            round_index=round_index,
            num_slots=num_slots,
            alice_listen_prob=alice_listen,
            uninformed_listen_prob=node_listen,
            nack_send_prob=1.0 / self.node_n,
        )

    def _request_terms(self, round_index: int) -> Tuple[int, float, float]:
        """Round ``i``'s request-phase length and Alice's and a node's clipped listening."""

        config = self.config
        if self.figure == 1:
            num_slots = self.request_phase_length(round_index)
            exponent = _REQUEST_EXPONENT * round_index
        else:
            num_slots = self.phase_length(round_index)
            exponent = (1.0 + 1.0 / config.k) * round_index
        alice_denominator = (1.0 - math.exp(-4.0 * config.eps_prime)) * (2.0 ** exponent)
        node_denominator = (1.0 - math.exp(-64.0 * config.eps_prime)) * (2.0 ** round_index)
        return (
            num_slots,
            clip_probability(config.c * self._log_n / alice_denominator),
            clip_probability((config.c + 1.0) / node_denominator),
        )

    def phase_length(self, round_index: int) -> int:
        """Slots in an inform or propagation phase of round ``i``: ``2^{(a+b)i}``.

        Figure 2's ``2^{(1+1/k)i}`` is the same length, since ``a = 1/k`` and
        ``b = 1``.
        """

        return max(1, int(round(2.0 ** (self._phase_exponent * round_index))))

    def request_phase_length(self, round_index: int) -> int:
        """Slots in Figure 1's request phase of round ``i``: ``2^{(b/2+1)i}``."""

        return max(1, int(round(2.0 ** (_REQUEST_EXPONENT * round_index))))

    def round_phases(self, round_index: int) -> List[PhasePlan]:
        """All phases of round ``i``, in execution order."""

        phases = [self.inform_phase(round_index)]
        phases.extend(self.propagation_steps(round_index))
        phases.append(self.request_phase(round_index))
        return phases

    def round_length(self, round_index: int) -> int:
        """Total number of slots in round ``i``."""

        return sum(plan.num_slots for plan in self.round_phases(round_index))

    def _boosted(self, listen: float) -> float:
        return listen * DECOY_LISTEN_BOOST if self.decoy_traffic else listen

    def _decoy_send_probability(self) -> float:
        return DECOY_RATE / self.node_n if self.decoy_traffic else 0.0

    # ------------------------------------------------------------------ #
    # Request-phase termination                                           #
    # ------------------------------------------------------------------ #

    def termination_threshold(self, alice: bool = False) -> float:
        """The ``5·c·ln n`` noisy-slot threshold of the nodes (or of Alice)."""

        return self._quiet_limits[alice][0]

    def earliest_termination_round(self, alice: bool = False) -> int:
        """The first round in which the nodes' (or Alice's) test may fire."""

        return self._quiet_limits[alice][1]

    @overload
    def should_terminate(
        self, noisy_slots_heard: int, round_index: int, alice: bool = False
    ) -> bool: ...

    @overload
    def should_terminate(
        self, noisy_slots_heard: np.ndarray, round_index: int, alice: bool = False
    ) -> np.ndarray: ...

    def should_terminate(
        self, noisy_slots_heard: int | np.ndarray, round_index: int, alice: bool = False
    ) -> bool | np.ndarray:
        """The quiet test at the end of a request phase.

        Takes one listener's noisy-slot count and returns a bool, or an array
        of counts (a whole cohort) and returns the boolean mask of listeners
        that terminate.  ``alice=True`` applies Alice's threshold and round.
        """

        threshold, earliest = self._quiet_limits[alice]
        quiet = np.asarray(noisy_slots_heard) <= threshold
        quiet &= round_index >= earliest
        return quiet if quiet.ndim else bool(quiet)

    @cached_property
    def _quiet_limits(self) -> Dict[bool, Tuple[float, int]]:
        """``(threshold, earliest round)`` of the nodes (``False``) and Alice (``True``).

        A pure function of the schedule, computed once: the quiet test reads
        it for every request phase.
        """

        return {alice: self._search_quiet_limits(alice) for alice in (False, True)}

    def _search_quiet_limits(self, alice: bool) -> Tuple[float, int]:
        """One side's threshold and the first round its quiet test may fire.

        The paper's analysis assumes ``i ≥ 3·lg ln n`` *and* ``n`` large
        enough that the expected number of noisy slots heard while many
        nodes are still uninformed clears the ``5·c·ln n`` threshold with
        room to spare.  At laptop-scale ``n`` the second condition can bind
        later than the first, so a side may only terminate once its expected
        count with the whole network still nacking exceeds
        :data:`RELIABILITY_MARGIN` times its threshold; otherwise finite-n
        noise lets it give up while the broadcast is still blocked.
        """

        n = self.n if alice else self.node_n
        threshold = 5.0 * self.config.c * math.log(n)
        p_busy = 1.0 - (1.0 - 1.0 / n) ** n
        max_round = _last_round(n)
        reliable = max_round
        for round_index in range(_FIRST_ROUND, max_round + 1):
            num_slots, alice_listen, node_listen = self._request_terms(round_index)
            listen = alice_listen if alice else node_listen
            if listen * num_slots * p_busy >= RELIABILITY_MARGIN * threshold:
                reliable = round_index
                break
        return threshold, max(_earliest_round(n), reliable)
