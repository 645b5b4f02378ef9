"""Vectorised phase-level execution engine.

:class:`PhaseEngine` executes a phase in bulk with numpy instead of slot by
slot.  It exploits two structural facts about ε-Broadcast (and the baselines):

* within a phase, every device acts independently and identically per slot
  with a fixed probability, and
* the adversary commits to a per-phase :class:`~repro.simulation.phaseplan.JamPlan`.

The engine therefore samples per-slot *aggregate* channel outcomes (how many
transmissions, whether the slot was jammed, whether it delivered the message)
and per-device *aggregate* costs (how many slots each device used) from the
exact distributions the slot-faithful engine induces.  Per-node message
reception is exact: conditioned on the sampled channel outcomes, node ``u``
receives ``m`` with probability ``1 - (1 - p_listen)^{g_u}`` where ``g_u`` is
the number of delivery slots not jammed for ``u``.

Two deliberate, documented approximations (both validated against
:class:`~repro.simulation.engine.SlotEngine` by integration tests):

* per-device cost draws are sampled marginally, so the joint correlation
  between "which slot carried a transmission" and "which device paid for it"
  is not preserved (totals and distributions are);
* a node that becomes informed stops listening at a *sampled* position within
  the phase (a truncated-geometric draw over its delivery opportunities,
  placed proportionally in the phase) rather than at the exact slot the slot
  engine would have chosen.

Spatial topologies
------------------

Over a multi-hop :class:`~repro.simulation.topology.Topology` the aggregate
shortcut above no longer applies — what a listener hears depends on *which*
of its neighbours transmitted.  :meth:`PhaseEngine._run_phase_multihop`
therefore resolves the phase from its transmission *events* over the
topology's :class:`~repro.simulation.topology.NeighborCSR` adjacency.  It
exploits the protocol's own sparsity: per-slot action probabilities are
``O(1/n)`` (sends) or geometrically decaying (listens), so the events of a
phase — who transmitted in which slot — number ``O(n)`` rather than
``O(n·slots)``, and one path serves every network size.  The path:

* samples transmission events exactly (a Bernoulli grid conditioned on its
  binomial count is a uniform subset of device×slot cells),
* expands each event to the sender's CSR neighbourhood restricted to the
  currently-active listener set (``O(events · E[deg])`` pairs),
* resolves delivery per listener from its candidate clean-delivery slots
  (exact: collision, spoof, jamming, and half-duplex rules all applied per
  pair), and
* draws listening costs and request-phase noisy-slot counts as binomials
  over the per-listener slot classification.

Documented approximations of the multi-hop path (validated statistically
against the slot engine in ``tests/test_sparse_topology.py``):

* a node informed mid-phase stops listening at its delivery slot (exact),
  but its pre-delivery listening cost is drawn marginally over its active
  window — the single-hop path's marginal truncation;
* a listener's listening cost and its request-phase noisy-slot count are
  independent binomial draws, so each marginal is exact but their joint
  correlation is not preserved;
* a node informed mid-phase keeps its sampled nack and decoy events until
  the phase ends — neighbours still hear them, and its decoys still cost it
  — where the slot engine mutes it.  The protocol's schedules never put
  nacks and payload in one phase, so in protocol runs this only perturbs
  the decoy variant; engine-API phases that mix them over-count noise.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from .auth import ALICE_ID
from .channel import JamMode
from .energy import EnergyOperation
from .jamming import materialize_jam_slots, materialize_spoof_slots
from .network import Network
from .phaseplan import JamPlan, PhaseKind, PhasePlan, PhaseResult, PhaseRoles
from ..observability.trace import NULL_RECORDER, TraceRecorder, engine_event

__all__ = ["PhaseEngine"]


def _sample_bernoulli_events(
    rng: np.random.Generator, num: int, s: int, p: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Sample the success cells of a ``num × s`` Bernoulli(``p``) grid.

    Returns ``(idx, slots)`` — the row (device) and column (slot) of every
    success, grouped by row with slots ascending.  Distribution-exact: a
    Bernoulli grid conditioned on its total count ``m ~ Binomial(num·s, p)``
    is a uniform ``m``-subset of the cells, which is drawn by rejection of
    duplicates.  Cost is ``O(m log m)`` — independent of the grid size — so
    phases with millions of slots but thousands of events stay cheap.
    """

    empty = np.empty(0, dtype=np.int64)
    if num <= 0 or s <= 0 or p <= 0.0:
        return empty, empty
    cells = num * s
    if cells <= (1 << 21) or p > 0.25:
        # Small grids (and the clipped-probability early rounds): sampling the
        # grid directly is cheaper than rejection and trivially exact.
        idx, slots = np.nonzero(rng.random((num, s)) < p)
        return idx.astype(np.int64), slots.astype(np.int64)
    m = int(rng.binomial(cells, p))
    if m == 0:
        return empty, empty
    flat = np.unique(rng.integers(0, cells, size=m, dtype=np.int64))
    while flat.size < m:
        extra = rng.integers(0, cells, size=m - flat.size, dtype=np.int64)
        flat = np.unique(np.concatenate([flat, extra]))
    return flat // s, flat % s


class PhaseEngine:
    """Vectorised phase executor, statistically equivalent to :class:`SlotEngine`."""

    name = "phase"

    def __init__(self, network: Network) -> None:
        self.network = network
        self._rng = network.random_source.stream("fastengine")
        # Telemetry sink for channel-level "engine" events.  Strictly
        # read-only: emission happens after all sampling and charging, reads
        # only already-computed tallies, and is skipped entirely while the
        # default null recorder is installed.
        self.recorder: TraceRecorder = NULL_RECORDER

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #

    def run_phase(
        self,
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
            result = PhaseResult(
                plan=plan, newly_informed=frozenset(), jammed_slots=0, adversary_spend=0.0
            )
            if self.recorder.enabled:
                self.recorder.record(engine_event("empty", result))
            return result

        topology = network.topology
        if topology is not None and not topology.is_single_hop:
            return self._run_phase_multihop(plan, roles, jam_plan, start_slot)

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
        ) = self._materialize_adversary_actions(jam_plan, s, rng, correct_activity)

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
                victim = self._victim_mask(uninformed, jam_plan) if jam_affects_listeners else np.zeros(
                    uninformed.size, dtype=bool
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
            network.alice.ledger.charge_bulk(EnergyOperation.SEND, float(alice_send_slots))

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
            alice_noisy = int(rng.binomial(noisy_for_alice, plan.alice_listen_prob))
            alice_quiet_listens = int(rng.binomial(max(quiet_for_alice, 0), plan.alice_listen_prob))
            alice_listen_slots = alice_noisy + alice_quiet_listens
            if alice_listen_slots:
                network.alice.ledger.charge_bulk(EnergyOperation.LISTEN, float(alice_listen_slots))

        node_noisy: Dict[int, int] = {}
        jam_victims = 0
        if uninformed.size:
            victim = self._victim_mask(uninformed, jam_plan) if jam_affects_listeners else np.zeros(
                uninformed.size, dtype=bool
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

        result = PhaseResult(
            plan=plan,
            newly_informed=frozenset(newly_informed),
            jammed_slots=jammed_slots,
            adversary_spend=adversary_spend,
            alice_noisy_heard=alice_noisy,
            node_noisy_heard=node_noisy,
            delivery_slots=delivery_slots,
            busy_slots=busy_slots,
            alice_send_slots=alice_send_slots,
            alice_listen_slots=alice_listen_slots,
            spoofed_transmissions=spoofed_transmissions,
        )
        if self.recorder.enabled:
            self.recorder.record(
                engine_event(
                    "single-hop",
                    result,
                    jam_victims=jam_victims,
                    noisy_for_victim=noisy_for_victim,
                    noisy_for_spared=noisy_for_spared,
                )
            )
        return result

    # ------------------------------------------------------------------ #
    # Multi-hop (spatial-topology) execution                              #
    # ------------------------------------------------------------------ #

    def _run_phase_multihop(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        jam_plan: JamPlan,
        start_slot: int = 0,
    ) -> PhaseResult:
        """Event-driven execution over a spatial (CSR-backed) topology.

        Instead of materialising ``(devices × slots)`` indicator matrices, the
        phase is resolved from its transmission *events*: each sampled send is
        expanded through the sender's CSR neighbourhood slice onto only the
        currently-active listeners.  See the module docstring for the exact /
        approximate split; statistical equivalence with the slot engine is
        covered by the sparse-topology test suite.
        """

        network = self.network
        topology = network.topology
        rng = self._rng
        s = plan.num_slots
        n = topology.n
        csr = topology.neighbor_csr()

        uninformed = roles.active_uninformed_ids
        relays = roles.relay_ids
        decoys = roles.decoy_ids
        num_u, num_r, num_d = uninformed.size, relays.size, decoys.size

        # Listener-position lookup: device row -> index into `uninformed`.
        u_pos = np.full(n + 1, -1, dtype=np.int64)
        u_pos[uninformed] = np.arange(num_u, dtype=np.int64)

        # ------------------------------------------------------------------ #
        # 1. Transmission events                                             #
        # ------------------------------------------------------------------ #
        alice_slots = np.empty(0, dtype=np.int64)
        if roles.alice_active and plan.alice_send_prob > 0:
            _, alice_slots = _sample_bernoulli_events(rng, 1, s, plan.alice_send_prob)

        relay_idx, relay_slots = _sample_bernoulli_events(rng, num_r, s, plan.relay_send_prob)
        nack_idx, nack_slots = _sample_bernoulli_events(rng, num_u, s, plan.nack_send_prob)
        decoy_idx, decoy_slots = _sample_bernoulli_events(rng, num_d, s, plan.decoy_send_prob)

        nack_keys = uninformed[nack_idx] * s + nack_slots
        if decoy_idx.size and nack_keys.size:
            # Half-duplex, mirroring the slot engine: a decoy sender that
            # chose a nack in the same slot keeps the nack.
            decoy_device_keys = decoys[decoy_idx] * s + decoy_slots
            keep = ~np.isin(decoy_device_keys, nack_keys)
            decoy_idx, decoy_slots = decoy_idx[keep], decoy_slots[keep]

        # Slots in which each *listener* transmits (it cannot listen there).
        own_parts = []
        if nack_idx.size:
            own_parts.append(u_pos[uninformed[nack_idx]] * s + nack_slots)
        if decoy_idx.size:
            decoy_lpos = u_pos[decoys[decoy_idx]]
            active_decoy = decoy_lpos >= 0
            own_parts.append(decoy_lpos[active_decoy] * s + decoy_slots[active_decoy])
        own_keys = (
            np.unique(np.concatenate(own_parts)) if own_parts else np.empty(0, dtype=np.int64)
        )

        # ------------------------------------------------------------------ #
        # 2. Adversary actions (jamming + spoofed transmissions)             #
        # ------------------------------------------------------------------ #
        correct_activity = np.zeros(s, dtype=bool)
        correct_activity[alice_slots] = True
        correct_activity[relay_slots] = True
        correct_activity[nack_slots] = True
        correct_activity[decoy_slots] = True

        (
            jam_mask,
            spoof_counts,
            adversary_spend,
            jammed_slots,
            spoofed_transmissions,
        ) = self._materialize_adversary_actions(jam_plan, s, rng, correct_activity)
        spoof_busy = spoof_counts > 0
        busy_slots = int(np.count_nonzero(correct_activity | spoof_busy | jam_mask))

        jam_affects_listeners = jam_plan.targeting.mode is not JamMode.NONE
        victim = (
            self._victim_mask(uninformed, jam_plan)
            if jam_affects_listeners
            else np.zeros(num_u, dtype=bool)
        )

        # ------------------------------------------------------------------ #
        # 3. CSR neighbourhood expansion of the events                       #
        # ------------------------------------------------------------------ #
        alice_audible = np.zeros(s, dtype=bool)  # slots in which Alice hears activity

        def expand(sender_rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
            """Listener-position keys ``pos·s + slot`` of all audible pairs."""

            if sender_rows.size == 0:
                return np.empty(0, dtype=np.int64)
            origins, nbrs = csr.expand(sender_rows)
            pair_slots = slots[origins]
            alice_audible[pair_slots[nbrs == n]] = True
            pos = u_pos[nbrs]
            active = pos >= 0
            return pos[active] * s + pair_slots[active]

        payload_parts = [expand(relays[relay_idx], relay_slots)]
        if alice_slots.size:
            alice_nbrs = csr.row(n).astype(np.int64, copy=False)
            pos = u_pos[alice_nbrs]
            pos = pos[pos >= 0]
            payload_parts.append(
                (pos[:, None] * s + alice_slots[None, :]).reshape(-1)
            )
        payload_keys = np.concatenate(payload_parts)
        noise_keys = np.concatenate(
            [
                expand(uninformed[nack_idx], nack_slots),
                expand(decoys[decoy_idx], decoy_slots),
            ]
        )

        # ------------------------------------------------------------------ #
        # 4. Delivery (payload phases)                                       #
        # ------------------------------------------------------------------ #
        newly_informed: Set[int] = set()
        delivery_slots = 0
        informed_at = np.full(num_u, -1, dtype=np.int64)
        clean_keys = np.empty(0, dtype=np.int64)
        p_listen = plan.uninformed_listen_prob
        if plan.carries_payload and num_u and p_listen > 0 and payload_keys.size:
            cand, payload_count = np.unique(payload_keys, return_counts=True)
            clean = payload_count == 1
            if noise_keys.size:
                clean &= ~np.isin(cand, noise_keys)
            if own_keys.size:
                clean &= ~np.isin(cand, own_keys)
            cand_pos = cand // s
            cand_slot = cand % s
            clean &= ~spoof_busy[cand_slot]
            if jam_affects_listeners:
                clean &= ~(jam_mask[cand_slot] & victim[cand_pos])
            clean_keys = cand[clean]
            cand_pos, cand_slot = cand_pos[clean], cand_slot[clean]
            heard = rng.random(cand_pos.size) < p_listen
            heard_pos, heard_slot = cand_pos[heard], cand_slot[heard]
            if heard_pos.size:
                # `cand` was sorted by (listener, slot): the first occurrence
                # of each listener is its earliest heard clean delivery.
                first_pos, first_index = np.unique(heard_pos, return_index=True)
                first_slot = heard_slot[first_index]
                informed_at[first_pos] = first_slot
                newly_informed = set(int(x) for x in uninformed[first_pos])
                delivery_slots = int(np.unique(first_slot).size)

        informed_mask = informed_at >= 0
        # Inclusive active window per listener: a node informed in slot t
        # stops after t.
        cutoff = np.where(informed_mask, informed_at, s - 1)

        # ------------------------------------------------------------------ #
        # 5. Listener costs and request-phase noise counts                   #
        # ------------------------------------------------------------------ #
        node_noisy: Dict[int, int] = {}
        if num_u:
            nack_cost = np.zeros(num_u, dtype=np.int64)
            if nack_idx.size:
                # `nack_idx` already indexes into `uninformed`, i.e. it *is*
                # the listener position of the sender.
                in_window = nack_slots <= cutoff[nack_idx]
                np.add.at(nack_cost, nack_idx[in_window], 1)

            own_sends = np.zeros(num_u, dtype=np.int64)
            if own_keys.size:
                own_pos = own_keys // s
                in_window = (own_keys % s) <= cutoff[own_pos]
                np.add.at(own_sends, own_pos[in_window], 1)

            if p_listen > 0:
                listenable = np.maximum(cutoff + 1 - own_sends, 0)
                # Marginal truncation (documented approximation, as in the
                # single-hop path): an informed node's pre-delivery listening
                # cost is a binomial over its active window, plus the delivery
                # slot it actually heard.
                draw_window = np.where(informed_mask, np.maximum(listenable - 1, 0), listenable)
                listen_cost = rng.binomial(draw_window, p_listen) + informed_mask.astype(np.int64)
            else:
                listen_cost = np.zeros(num_u, dtype=np.int64)

            if plan.kind is PhaseKind.REQUEST and p_listen > 0:
                # Exact per-listener noisy-slot counts within each listener's
                # active window: globally-noisy slots (spoofing, and jamming
                # for victims) plus the listener's own audible slots, minus
                # clean deliveries, overlap, and half-duplex exclusions: a
                # slot is noisy for a listener iff it is jammed for it, or
                # anything is audible there and it is not a clean delivery.
                global_noisy_victim = spoof_busy | jam_mask
                victim_cum = np.cumsum(global_noisy_victim)
                spared_cum = np.cumsum(spoof_busy)
                # Count of globally-noisy slots in [0, cutoff], per listener.
                n_noisy = np.where(victim, victim_cum[cutoff], spared_cum[cutoff])

                audible_keys = np.unique(np.concatenate([noise_keys, payload_keys]))
                if clean_keys.size:
                    audible_keys = audible_keys[~np.isin(audible_keys, clean_keys)]
                if audible_keys.size:
                    a_pos = audible_keys // s
                    a_slot = audible_keys % s
                    in_window = a_slot <= cutoff[a_pos]
                    a_pos, a_slot = a_pos[in_window], a_slot[in_window]
                    is_global = np.where(
                        victim[a_pos], global_noisy_victim[a_slot], spoof_busy[a_slot]
                    )
                    n_noisy = n_noisy + np.bincount(a_pos[~is_global], minlength=num_u)
                if own_keys.size:
                    # A transmitting node cannot hear the slot it sends in.
                    own_pos = own_keys // s
                    own_slot = own_keys % s
                    in_window = own_slot <= cutoff[own_pos]
                    own_in, own_pos, own_slot = (
                        own_keys[in_window], own_pos[in_window], own_slot[in_window]
                    )
                    own_noisy = np.where(
                        victim[own_pos], global_noisy_victim[own_slot], spoof_busy[own_slot]
                    )
                    if audible_keys.size:
                        own_noisy |= np.isin(own_in, audible_keys)
                    n_noisy = n_noisy - np.bincount(own_pos[own_noisy], minlength=num_u)
                heard_noisy = rng.binomial(np.maximum(n_noisy, 0), p_listen)
                node_noisy = {
                    int(uninformed[i]): int(heard_noisy[i]) for i in range(num_u)
                }

            network.node_ledgers.charge_bulk_many(EnergyOperation.LISTEN, uninformed, listen_cost)
            network.node_ledgers.charge_bulk_many(EnergyOperation.SEND, uninformed, nack_cost)

        # ------------------------------------------------------------------ #
        # 6. Alice                                                           #
        # ------------------------------------------------------------------ #
        alice_send_slots = int(alice_slots.size)
        if alice_send_slots:
            network.alice.ledger.charge_bulk(EnergyOperation.SEND, float(alice_send_slots))

        alice_noisy = 0
        alice_listen_slots = 0
        if roles.alice_active and plan.alice_listen_prob > 0:
            noisy_for_alice = alice_audible | spoof_busy
            if jam_plan.targeting.affects(ALICE_ID):
                noisy_for_alice = noisy_for_alice | jam_mask
            if alice_send_slots:
                noisy_for_alice[alice_slots] = False  # half-duplex
            n_noisy_alice = int(np.count_nonzero(noisy_for_alice))
            n_quiet_alice = s - alice_send_slots - n_noisy_alice
            alice_noisy = int(rng.binomial(n_noisy_alice, plan.alice_listen_prob))
            alice_listen_slots = alice_noisy + int(
                rng.binomial(max(n_quiet_alice, 0), plan.alice_listen_prob)
            )
            if alice_listen_slots:
                network.alice.ledger.charge_bulk(EnergyOperation.LISTEN, float(alice_listen_slots))

        # ------------------------------------------------------------------ #
        # 7. Relay and decoy send costs (exact event counts)                 #
        # ------------------------------------------------------------------ #
        if relay_idx.size:
            network.node_ledgers.charge_bulk_many(
                EnergyOperation.SEND, relays, np.bincount(relay_idx, minlength=num_r)
            )
        if decoy_idx.size:
            network.node_ledgers.charge_bulk_many(
                EnergyOperation.SEND, decoys, np.bincount(decoy_idx, minlength=num_d)
            )

        result = PhaseResult(
            plan=plan,
            newly_informed=frozenset(newly_informed),
            jammed_slots=jammed_slots,
            adversary_spend=adversary_spend,
            alice_noisy_heard=alice_noisy,
            node_noisy_heard=node_noisy,
            delivery_slots=delivery_slots,
            busy_slots=busy_slots,
            alice_send_slots=alice_send_slots,
            alice_listen_slots=alice_listen_slots,
            spoofed_transmissions=spoofed_transmissions,
        )
        if self.recorder.enabled:
            self.recorder.record(
                engine_event("multihop-sparse", result, jam_victims=int(victim.sum()))
            )
        return result

    # ------------------------------------------------------------------ #
    # Internals                                                           #
    # ------------------------------------------------------------------ #

    def _materialize_adversary_actions(
        self,
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

    @staticmethod
    def _truncate_informed_listening(
        rng: np.random.Generator,
        listen_cost: np.ndarray,
        informed_mask: np.ndarray,
        good_per_node: np.ndarray,
        p_listen: float,
        num_slots: int,
    ) -> np.ndarray:
        """Stop charging listening once a node has received the message.

        A node that becomes informed stops listening for the remainder of the
        phase (the slot engine models this exactly).  For each informed node
        we sample which of its ``g`` delivery opportunities was the first one
        it actually heard — a geometric draw truncated to ``g`` trials — place
        that opportunity proportionally within the phase (delivery slots are
        spread roughly uniformly), and charge listening only up to that point.
        """

        informed_idx = np.flatnonzero(informed_mask)
        g = np.maximum(good_per_node[informed_idx], 1)
        if p_listen >= 1.0:
            first_success = np.ones(informed_idx.size, dtype=np.int64)
        else:
            q = 1.0 - p_listen
            truncation = 1.0 - np.power(q, g)
            u = rng.random(informed_idx.size) * truncation
            with np.errstate(divide="ignore"):
                first_success = np.ceil(np.log1p(-u) / np.log(q)).astype(np.int64)
            first_success = np.clip(first_success, 1, g)
        # Position of the first-heard delivery opportunity within the phase.
        position = np.minimum(
            np.ceil(first_success / g * num_slots).astype(np.int64), num_slots
        )
        truncated = rng.binomial(np.maximum(position - 1, 0), p_listen) + 1
        result = listen_cost.copy()
        result[informed_idx] = np.minimum(truncated, listen_cost[informed_idx] + 1)
        return result

    @staticmethod
    def _victim_mask(node_ids: np.ndarray, jam_plan: JamPlan) -> np.ndarray:
        """Boolean mask of which nodes are affected by the plan's jamming.

        Recomputed every phase from the plan's (possibly freshly re-targeted)
        :class:`~repro.simulation.channel.JamTargeting` — mobile and reactive
        disk jammers change victims per phase, so nothing here may be cached
        per run — via the targeting's vectorised membership test.
        """

        return jam_plan.targeting.affects_array(node_ids)
