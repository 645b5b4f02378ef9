"""The dense single-hop phase body, kept as a distributional oracle.

:meth:`repro.simulation.fastengine.PhaseEngine.run_phase` resolves a
single-hop phase from a draw of its slot-class histogram — how many slots
are idle, carry a lone Alice or relay frame, or are busy — and resolves
Carol's jams and spoofs as per-class counts.  The functions here are the
dense formulation it replaced: four s-length per-slot transmission-count
arrays, an s-length jam mask and spoof-count array, and slot materialisers
that pick concrete offsets (a sorted random subset, a Python loop over the
phase for spoof candidates).  Every channel count is then read off those
arrays slot by slot.

The two formulations consume different random draws, so they agree in
distribution, not draw for draw: ``tests/test_singlehop_reference.py``
compares them field by field with two-sample KS tests.  The one change from
the historical body is Alice's half-duplex rule (she listens only in slots
she does not send in), which both the slot engine and the fast engine apply.

``run_phase`` takes a :class:`~repro.simulation.fastengine.PhaseEngine` in
place of ``self``; it supports only single-hop networks.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.simulation import (
    ALICE_ID,
    JamPlan,
    PhaseEngine,
    PhaseKind,
    PhasePlan,
    PhaseResult,
    PhaseRoles,
)
from repro.simulation.channel import JamMode
from repro.simulation.energy import EnergyOperation


def materialize_jam_slots(
    plan: JamPlan,
    num_slots: int,
    rng: np.random.Generator,
    activity_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Return the sorted slot offsets (0-based within the phase) to jam.

    Parameters
    ----------
    plan:
        The adversary's committed plan.
    num_slots:
        Length of the phase.
    rng:
        Random generator used for random-subset selection.
    activity_mask:
        For reactive plans, a boolean array of length ``num_slots`` marking
        slots that carry correct-side transmissions.  Required when
        ``plan.reactive`` is set and the plan selects by count.
    """

    if num_slots <= 0:
        return np.empty(0, dtype=np.int64)

    if plan.slot_indices is not None:
        indices = np.unique(np.asarray(plan.slot_indices, dtype=np.int64))
        return indices[(indices >= 0) & (indices < num_slots)]

    if plan.reactive:
        if activity_mask is None:
            raise ValueError("reactive jam plans require an activity mask")
        active = np.flatnonzero(np.asarray(activity_mask, dtype=bool))
        count = min(plan.num_jam_slots, active.size)
        return active[:count]

    count = min(plan.num_jam_slots, num_slots)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(num_slots, size=count, replace=False))


def materialize_spoof_slots(
    count: int,
    num_slots: int,
    rng: np.random.Generator,
    exclude: Sequence[int] = (),
) -> np.ndarray:
    """Pick ``count`` distinct slots for Byzantine spoofed transmissions.

    ``exclude`` lists slots that should not be chosen (e.g. slots already
    being jammed — jamming and spoofing the same slot would waste energy).
    """

    if count <= 0 or num_slots <= 0:
        return np.empty(0, dtype=np.int64)
    excluded = set(int(x) for x in exclude)
    candidates = np.array([s for s in range(num_slots) if s not in excluded], dtype=np.int64)
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    chosen = min(count, candidates.size)
    return np.sort(rng.choice(candidates, size=chosen, replace=False))


def run_phase(
    self: PhaseEngine,
    plan: PhasePlan,
    roles: PhaseRoles,
    jam_plan: JamPlan,
    start_slot: int = 0,
) -> PhaseResult:
    """Execute one phase in bulk and return its :class:`PhaseResult`."""

    network = self.network
    rng = self._rng
    s = plan.num_slots
    if s == 0:
        return PhaseResult(
            plan=plan, newly_informed=np.empty(0, dtype=np.int64), jammed_slots=0,
            adversary_spend=0.0,
        )

    uninformed = roles.active_uninformed_ids
    relays = roles.relay_ids
    decoys = roles.decoy_ids

    # ------------------------------------------------------------------ #
    # 1. Per-slot correct-side transmission counts                        #
    # ------------------------------------------------------------------ #
    alice_sends = np.zeros(s, dtype=bool)
    if roles.alice_active and plan.alice_send_prob > 0:
        alice_sends = rng.random(s) < plan.alice_send_prob

    relay_counts = np.zeros(s, dtype=np.int64)
    if relays.size and plan.relay_send_prob > 0:
        relay_counts = rng.binomial(relays.size, plan.relay_send_prob, size=s)

    nack_counts = np.zeros(s, dtype=np.int64)
    if uninformed.size and plan.nack_send_prob > 0:
        nack_counts = rng.binomial(uninformed.size, plan.nack_send_prob, size=s)

    decoy_counts = np.zeros(s, dtype=np.int64)
    if decoys.size and plan.decoy_send_prob > 0:
        decoy_counts = rng.binomial(decoys.size, plan.decoy_send_prob, size=s)

    correct_tx = alice_sends.astype(np.int64) + relay_counts + nack_counts + decoy_counts
    correct_activity = correct_tx > 0

    # ------------------------------------------------------------------ #
    # 2. Adversary actions (jamming + spoofed transmissions)              #
    # ------------------------------------------------------------------ #
    (
        jam_mask,
        spoof_counts,
        adversary_spend,
        jammed_slots,
        spoofed_transmissions,
    ) = _materialize_adversary_actions(self, jam_plan, s, rng, correct_activity)

    total_tx = correct_tx + spoof_counts
    busy_slots = int(np.count_nonzero((total_tx > 0) | jam_mask))

    # ------------------------------------------------------------------ #
    # 3. Delivery slots: exactly one transmission and it is authentic m   #
    # ------------------------------------------------------------------ #
    one_tx = total_tx == 1
    payload_tx = alice_sends.astype(np.int64) + relay_counts
    delivers = one_tx & (payload_tx == 1)
    jam_affects_listeners = jam_plan.targeting.mode is not JamMode.NONE

    newly_informed: Set[int] = set()
    informed_mask: np.ndarray | None = None
    good_per_node: np.ndarray | None = None
    if plan.carries_payload and uninformed.size:
        good_unjammed = int(np.count_nonzero(delivers))
        good_when_victim = int(np.count_nonzero(delivers & ~jam_mask))
        p_listen = plan.uninformed_listen_prob
        if p_listen > 0:
            victim = (
                jam_plan.targeting.affects_array(uninformed)
                if jam_affects_listeners
                else np.zeros(uninformed.size, dtype=bool)
            )
            good_per_node = np.where(victim, good_when_victim, good_unjammed)
            p_informed = 1.0 - np.power(1.0 - p_listen, good_per_node)
            informed_mask = rng.random(uninformed.size) < p_informed
            newly_informed = set(int(x) for x in uninformed[informed_mask])

    delivery_slots = int(np.count_nonzero(delivers & ~jam_mask)) if jam_affects_listeners else int(
        np.count_nonzero(delivers)
    )

    # ------------------------------------------------------------------ #
    # 4. Costs                                                            #
    # ------------------------------------------------------------------ #
    alice_send_slots = int(np.count_nonzero(alice_sends))
    if alice_send_slots:
        network.alice_ledger.charge_bulk(EnergyOperation.SEND, float(alice_send_slots))

    # Noisy-for-a-listener slots: any transmission, or jamming that hits it.
    noisy_any_tx = total_tx > 0
    noisy_for_victim = int(np.count_nonzero(noisy_any_tx | jam_mask))
    noisy_for_spared = int(np.count_nonzero(noisy_any_tx))

    alice_listen_slots = 0
    alice_noisy = 0
    if roles.alice_active and plan.alice_listen_prob > 0:
        alice_is_victim = jam_plan.targeting.affects(ALICE_ID)
        noisy_for_alice = noisy_for_victim if alice_is_victim else noisy_for_spared
        quiet_for_alice = s - noisy_for_alice
        # Half-duplex: Alice listens only in the (noisy) slots she does not send in.
        alice_noisy = int(rng.binomial(noisy_for_alice - alice_send_slots, plan.alice_listen_prob))
        alice_quiet_listens = int(rng.binomial(max(quiet_for_alice, 0), plan.alice_listen_prob))
        alice_listen_slots = alice_noisy + alice_quiet_listens
        if alice_listen_slots:
            network.alice_ledger.charge_bulk(EnergyOperation.LISTEN, float(alice_listen_slots))

    node_noisy: Dict[int, int] = {}
    jam_victims = 0
    if uninformed.size:
        victim = (
            jam_plan.targeting.affects_array(uninformed)
            if jam_affects_listeners
            else np.zeros(uninformed.size, dtype=bool)
        )
        jam_victims = int(victim.sum())
        noisy_per_node = np.where(victim, noisy_for_victim, noisy_for_spared)
        quiet_per_node = s - noisy_per_node

        p_listen = plan.uninformed_listen_prob
        if p_listen > 0:
            heard = rng.binomial(noisy_per_node, p_listen)
            quiet_listens = rng.binomial(quiet_per_node, p_listen)
            listen_cost = heard + quiet_listens
            if informed_mask is not None and informed_mask.any():
                listen_cost = self._truncate_informed_listening(
                    rng, listen_cost, informed_mask, good_per_node, p_listen, s
                )
        else:
            heard = np.zeros(uninformed.size, dtype=np.int64)
            listen_cost = np.zeros(uninformed.size, dtype=np.int64)

        nack_cost = (
            rng.binomial(s, plan.nack_send_prob, size=uninformed.size)
            if plan.nack_send_prob > 0
            else np.zeros(uninformed.size, dtype=np.int64)
        )

        # One vector charge per operation over the whole cohort: the
        # array-backed ledger replaces the former ~n-per-phase Python
        # loop of per-node charge_bulk calls.
        network.node_ledgers.charge_bulk_many(EnergyOperation.LISTEN, uninformed, listen_cost)
        network.node_ledgers.charge_bulk_many(EnergyOperation.SEND, uninformed, nack_cost)
        if plan.kind is PhaseKind.REQUEST:
            node_noisy = {
                int(node_id): int(heard[idx]) for idx, node_id in enumerate(uninformed)
            }

    if relays.size and plan.relay_send_prob > 0:
        relay_cost = rng.binomial(s, plan.relay_send_prob, size=relays.size)
        network.node_ledgers.charge_bulk_many(EnergyOperation.SEND, relays, relay_cost)

    if decoys.size and plan.decoy_send_prob > 0:
        decoy_cost = rng.binomial(s, plan.decoy_send_prob, size=decoys.size)
        network.node_ledgers.charge_bulk_many(EnergyOperation.SEND, decoys, decoy_cost)

    return PhaseResult(
        plan=plan,
        newly_informed=np.array(sorted(newly_informed), dtype=np.int64),
        jammed_slots=jammed_slots,
        adversary_spend=adversary_spend,
        alice_noisy_heard=alice_noisy,
        noisy_listeners=np.array(list(node_noisy), dtype=np.int64),
        node_noisy_heard=np.array(list(node_noisy.values()), dtype=np.int64),
        delivery_slots=delivery_slots,
        busy_slots=busy_slots,
        alice_send_slots=alice_send_slots,
        alice_listen_slots=alice_listen_slots,
        spoofed_transmissions=spoofed_transmissions,
        path="single-hop",
        jam_victims=jam_victims,
    )


def _materialize_adversary_actions(
    self: PhaseEngine,
    jam_plan: JamPlan,
    s: int,
    rng: np.random.Generator,
    correct_activity: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, float, int, int]":
    """Materialise jamming and spoofing for one phase under the budget.

    Shared by the single-hop and multi-hop paths so the truncation rules
    (jams charged first; spoof truncation drops nack spoofs before
    payload spoofs — arbitrary but deterministic) cannot diverge.
    Returns ``(jam_mask, spoof_counts, adversary_spend, jammed_slots,
    spoofed_transmissions)``.
    """

    adversary_ledger = self.network.adversary_ledger
    jam_offsets = materialize_jam_slots(jam_plan, s, rng, activity_mask=correct_activity)
    affordable_jams = int(min(len(jam_offsets), np.floor(adversary_ledger.remaining)))
    jam_offsets = jam_offsets[:affordable_jams]
    jam_spend = adversary_ledger.charge_bulk(EnergyOperation.JAM, float(len(jam_offsets)))
    jam_offsets = jam_offsets[: int(jam_spend)]
    jam_mask = np.zeros(s, dtype=bool)
    jam_mask[jam_offsets] = True

    spoof_payload = materialize_spoof_slots(
        jam_plan.spoof_payload_slots, s, rng, exclude=jam_offsets.tolist()
    )
    spoof_nack = materialize_spoof_slots(
        jam_plan.spoof_nack_slots,
        s,
        rng,
        exclude=jam_offsets.tolist() + spoof_payload.tolist(),
    )
    spoof_budget = adversary_ledger.charge_bulk(
        EnergyOperation.SPOOF, float(len(spoof_payload) + len(spoof_nack))
    )
    total_spoofs = int(spoof_budget)
    keep_payload = min(len(spoof_payload), total_spoofs)
    keep_nack = min(len(spoof_nack), total_spoofs - keep_payload)
    spoof_payload = spoof_payload[:keep_payload]
    spoof_nack = spoof_nack[:keep_nack]

    spoof_counts = np.zeros(s, dtype=np.int64)
    if len(spoof_payload):
        spoof_counts[spoof_payload] += 1
    if len(spoof_nack):
        spoof_counts[spoof_nack] += 1

    adversary_spend = float(jam_spend + spoof_budget)
    jammed_slots = int(jam_mask.sum())
    spoofed_transmissions = int(len(spoof_payload) + len(spoof_nack))
    return jam_mask, spoof_counts, adversary_spend, jammed_slots, spoofed_transmissions
