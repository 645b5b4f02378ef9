"""Correct-node per-phase behaviour.

A correct node's life is passive until it holds the message:

* **inform phase** — listen with probability ``2 / (ε'·2^{(a+b/2)i})``;
* **propagation phase** — if it received ``m`` in the preceding phase/step it
  relays with probability ``1/n`` and terminates at the end of the step;
  otherwise it listens with probability ``4e(c+1) / 2^{(a+b/2)i}``
  (Figure 1) or ``2ec / (ε'·2^i)`` (Figure 2);
* **request phase** — send a nack with probability ``1/n``, listen with
  probability ``(c+1) / ((1-e^{-64ε'})·2^i)``, and terminate (without ``m``)
  if at most ``5·c·ln n`` noisy slots were heard;
* §4.1 decoy variant — additionally transmit a decoy during inform and
  propagation phases and listen with a constant-factor boosted probability,
  so that a reactive jammer cannot tell which busy slots actually carry ``m``.

A note on the decoy constants: the paper writes the decoy probability as
``3/(4ε'n)`` and compensates with a listening boost of ``e^{3/(2ε')}``.  Those
two constants cancel in the analysis but are astronomically large for the tiny
``ε'`` the proofs use, which only balances out "for n sufficiently large".  At
simulation scale we keep the *mechanism* — a per-slot decoy rate that makes a
constant fraction of slots busy, plus the matching constant-factor listening
boost ``e^{decoy_rate}`` — and expose the rate as ``decoy_rate`` (default
``3/4``, the paper's numerator).  This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import math
from typing import overload

import numpy as np

from ..simulation.phaseplan import clip_probability
from .params import ProtocolParameters

__all__ = ["ReceiverPolicy"]


class ReceiverPolicy:
    """Computes correct-node probabilities for each phase of a round.

    Parameters
    ----------
    params:
        The protocol constants.
    n:
        Network size used inside the probability formulas (or the §4.2
        estimate of it).
    figure:
        ``1`` for the ``k = 2`` pseudocode, ``2`` for the general-``k`` one.
    decoy_traffic:
        Enable the §4.1 modification (decoy messages plus a boosted listening
        probability) that defeats reactive jamming when ``f < 1/24``.
    decoy_rate:
        Expected number of decoy transmissions per slot when the whole network
        is still uninformed; each active node sends a decoy with probability
        ``decoy_rate / n`` per slot.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        n: int,
        figure: int = 1,
        decoy_traffic: bool = False,
        decoy_rate: float = 0.75,
    ) -> None:
        if figure not in (1, 2):
            raise ValueError(f"figure must be 1 or 2, got {figure}")
        if decoy_rate <= 0:
            raise ValueError(f"decoy_rate must be positive, got {decoy_rate}")
        self.params = params
        self.n = n
        self.figure = figure
        self.decoy_traffic = decoy_traffic
        self.decoy_rate = decoy_rate

    # ------------------------------------------------------------------ #
    # Inform phase                                                        #
    # ------------------------------------------------------------------ #

    def inform_listen_probability(self, round_index: int) -> float:
        raw = self._base_inform_listen(round_index)
        if self.decoy_traffic:
            raw *= self._decoy_listen_boost()
        return clip_probability(raw)

    def _base_inform_listen(self, round_index: int) -> float:
        params = self.params
        if self.figure == 1:
            exponent = (params.a_value + params.b_value / 2.0) * round_index
        else:
            exponent = float(round_index)
        return 2.0 / (params.epsilon_prime * (2.0 ** exponent))

    # ------------------------------------------------------------------ #
    # Propagation phase                                                   #
    # ------------------------------------------------------------------ #

    def relay_send_probability(self, round_index: int) -> float:
        """Probability an informed relay transmits ``m`` in a slot (``1/n``)."""

        return clip_probability(1.0 / self.n)

    def propagation_listen_probability(self, round_index: int) -> float:
        raw = self._base_propagation_listen(round_index)
        if self.decoy_traffic:
            raw *= self._decoy_listen_boost()
        return clip_probability(raw)

    def _base_propagation_listen(self, round_index: int) -> float:
        params = self.params
        if self.figure == 1:
            exponent = (params.a_value + params.b_value / 2.0) * round_index
            return 4.0 * math.e * (params.c + 1.0) / (2.0 ** exponent)
        return 2.0 * math.e * params.c / (params.epsilon_prime * (2.0 ** round_index))

    # ------------------------------------------------------------------ #
    # Request phase                                                       #
    # ------------------------------------------------------------------ #

    def nack_send_probability(self, round_index: int) -> float:
        """Probability an uninformed node transmits a nack in a slot (``1/n``)."""

        return clip_probability(1.0 / self.n)

    def request_listen_probability(self, round_index: int) -> float:
        params = self.params
        denominator = (1.0 - math.exp(-64.0 * params.epsilon_prime)) * (2.0 ** round_index)
        raw = (params.c + 1.0) / denominator
        return clip_probability(raw)

    def termination_threshold(self) -> float:
        """A node terminates when it hears at most this many noisy slots.

        Memoised (pure function of the immutable parameters): the per-node
        termination test consults it for every active node in every request
        phase.
        """

        cached = getattr(self, "_termination_threshold", None)
        if cached is None:
            cached = self.params.termination_threshold(self.n)
            self._termination_threshold = cached
        return cached

    def request_phase_length(self, round_index: int) -> int:
        """Length of the request phase under the pseudocode in use."""

        if self.figure == 1:
            return self.params.request_phase_length(round_index)
        return self.params.phase_length(round_index)

    def min_reliable_termination_round(self, margin: float = 1.5) -> int:
        """First round where the noisy-slot statistic reliably discriminates.

        Mirrors :meth:`repro.core.alice.AlicePolicy.min_reliable_termination_round`:
        a node may only act on the ``5·c·ln n`` rule once the expected number
        of noisy slots it would hear with the whole network still nacking
        exceeds ``margin`` times the threshold, otherwise finite-n noise lets
        nodes give up while the broadcast is still actively blocked.
        """

        p_busy = 1.0 - (1.0 - 1.0 / self.n) ** self.n
        max_round = self.params.resolved_max_round(self.n)
        for round_index in range(self.params.start_round, max_round + 1):
            expected = (
                self.request_listen_probability(round_index)
                * self.request_phase_length(round_index)
                * p_busy
            )
            if expected >= margin * self.termination_threshold():
                return round_index
        return max_round

    def earliest_termination_round(self) -> int:
        """The first round in which a node's termination test may fire.

        Memoised: the value is a pure function of the (immutable) policy
        parameters, and :meth:`should_terminate` consults it every request
        phase.
        """

        cached = getattr(self, "_earliest_termination_round", None)
        if cached is None:
            cached = max(
                self.params.resolved_min_termination_round(self.n),
                self.min_reliable_termination_round(),
            )
            self._earliest_termination_round = cached
        return cached

    @overload
    def should_terminate(self, noisy_slots_heard: int, round_index: int) -> bool: ...

    @overload
    def should_terminate(self, noisy_slots_heard: np.ndarray, round_index: int) -> np.ndarray: ...

    def should_terminate(
        self, noisy_slots_heard: int | np.ndarray, round_index: int
    ) -> bool | np.ndarray:
        """The uninformed node's termination test at the end of a request phase.

        Takes one node's noisy-slot count and returns a bool, or an array of
        counts (a whole cohort) and returns the boolean mask of nodes that
        terminate.
        """

        quiet = np.asarray(noisy_slots_heard) <= self.termination_threshold()
        quiet &= round_index >= self.earliest_termination_round()
        return quiet if quiet.ndim else bool(quiet)

    # ------------------------------------------------------------------ #
    # §4.1 decoy traffic                                                   #
    # ------------------------------------------------------------------ #

    def decoy_send_probability(self, round_index: int) -> float:
        """Per-slot decoy probability (0 when decoys are disabled)."""

        if not self.decoy_traffic:
            return 0.0
        return clip_probability(self.decoy_rate / self.n)

    def _decoy_listen_boost(self) -> float:
        """Constant-factor listening boost compensating for decoy collisions.

        A slot carrying ``m`` survives the cover traffic with probability at
        least ``e^{-decoy_rate}``; boosting the listening probability by the
        reciprocal keeps the expected number of successful receptions per
        phase unchanged, mirroring the ``p_u`` redefinition in §4.1.
        """

        return math.exp(self.decoy_rate) * 2.0
