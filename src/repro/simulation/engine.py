"""Slot-faithful execution engine.

:class:`SlotEngine` executes a phase exactly as the paper describes it: slot
by slot, every participant flips its own coins, the channel resolves
collisions and per-listener jamming, and Alice and Carol are charged one unit
at a time.  Correct nodes' send and listen slots are counted during the phase
and charged to their ledger rows once per operation when it ends: nodes never
refuse a charge (``RECORD`` policy) and nothing reads their ledgers mid-phase,
so the final ledgers equal per-slot charging's exactly.
It is the reference semantics — the vectorised
:class:`~repro.simulation.fastengine.PhaseEngine` is validated against it — and
it is the engine of choice for unit and property tests at small ``n``.

Spatial topologies need no special handling here: the engine hands every
slot's transmissions and listeners to its own channel, and a channel
built over a multi-hop :class:`~repro.simulation.topology.Topology` resolves
per-listener audibility (who is in radio range of whom) by itself.  This
keeps the slot engine exact under every topology, which is what the
multi-hop statistical-equivalence tests validate the fast engine against.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from .auth import ALICE_ID, Authenticator
from .channel import Channel, JamTargeting
from .energy import EnergyOperation
from .errors import SimulationError
from .jamming import materialize_jam_slots, materialize_spoof_slots
from .messages import Message, MessageKind, make_decoy, make_nack, make_payload, make_spoof
from .network import Network
from .phaseplan import JamPlan, PhasePlan, PhaseResult, PhaseRoles

__all__ = ["SlotEngine"]

_BYZANTINE_SENDER_ID = -2
"""Synthetic device id used for Byzantine spoofed transmissions."""


class SlotEngine:
    """Reference (slot-by-slot) phase executor.

    Parameters
    ----------
    network:
        The :class:`~repro.simulation.network.Network` whose devices act and
        whose ledgers are charged.
    """

    name = "slot"

    def __init__(self, network: Network) -> None:
        self.network = network
        self._rng_alice = network.random_source.stream("engine:alice")
        self._rng_nodes = network.random_source.stream("engine:nodes")
        self._rng_adversary = network.random_source.stream("engine:adversary")
        # Only this engine resolves frames, so it owns the channel, Alice's
        # signing key and the signed message ``m``.
        self.channel = Channel(topology=network.topology)
        self.authenticator = Authenticator()
        self.message_payload = "m"
        self.message_signature = self.authenticator.sign(self.message_payload)

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
        """Execute one phase and return its :class:`PhaseResult`.

        Energy ledgers of Alice, the correct nodes, and the adversary are
        charged as a side effect (the nodes' at the end of the phase).
        """

        network = self.network
        s = plan.num_slots
        if s == 0:
            return PhaseResult(
                plan=plan,
                newly_informed=np.empty(0, dtype=np.int64),
                jammed_slots=0,
                adversary_spend=0.0,
            )

        payload = make_payload(ALICE_ID, self.message_payload, self.message_signature)

        active_uninformed: Set[int] = set(roles.active_uninformed_ids.tolist())
        relays = roles.relay_ids.tolist()
        decoy_senders = roles.decoy_ids.tolist()

        # Pre-materialise non-reactive jamming and spoofing schedules.
        reactive = jam_plan.reactive
        scheduled_jams: Set[int] = set()
        if not reactive:
            scheduled_jams = set(
                int(x) for x in materialize_jam_slots(jam_plan, s, self._rng_adversary)
            )
        spoof_payload_slots = set(
            int(x)
            for x in materialize_spoof_slots(
                jam_plan.spoof_payload_slots, s, self._rng_adversary, exclude=scheduled_jams
            )
        )
        spoof_nack_slots = set(
            int(x)
            for x in materialize_spoof_slots(
                jam_plan.spoof_nack_slots,
                s,
                self._rng_adversary,
                exclude=scheduled_jams | spoof_payload_slots,
            )
        )

        reactive_jams_remaining = jam_plan.num_jam_slots if reactive else 0

        newly_informed: Set[int] = set()
        # Keyed in sorted cohort order, so the one conversion to the result's
        # aligned (noisy_listeners, node_noisy_heard) arrays at the end of the
        # phase needs no sort.
        node_noisy: Dict[int, int] = {u: 0 for u in sorted(active_uninformed)}
        alice_noisy = 0
        alice_send_slots = 0
        alice_listen_slots = 0
        jammed_slots = 0
        adversary_spend = 0.0
        delivery_slots = 0
        busy_slots = 0
        spoofed_transmissions = 0

        alice_ledger = network.alice_ledger
        adversary_ledger = network.adversary_ledger
        node_send_slots = np.zeros(network.n, dtype=np.int64)
        node_listen_slots = np.zeros(network.n, dtype=np.int64)

        for j in range(s):
            transmissions: List[Message] = []
            senders: Set[int] = set()
            sending_nodes: Set[int] = set()

            # -- Alice's transmission ---------------------------------- #
            alice_sending = False
            if roles.alice_active and plan.alice_send_prob > 0:
                if self._rng_alice.random() < plan.alice_send_prob:
                    alice_sending = True
                    transmissions.append(payload)
                    senders.add(ALICE_ID)
                    alice_ledger.charge(EnergyOperation.SEND)
                    alice_send_slots += 1

            # -- Relay transmissions ----------------------------------- #
            if relays and plan.relay_send_prob > 0:
                coins = self._rng_nodes.random(len(relays))
                for idx, relay_id in enumerate(relays):
                    if coins[idx] < plan.relay_send_prob:
                        transmissions.append(
                            make_payload(relay_id, self.message_payload, self.message_signature)
                        )
                        senders.add(relay_id)
                        sending_nodes.add(relay_id)
                        node_send_slots[relay_id] += 1

            # -- Uninformed node actions (nacks + listening) ------------ #
            ordered_uninformed = sorted(active_uninformed)
            listeners: Set[int] = set()
            if ordered_uninformed:
                coins = self._rng_nodes.random((len(ordered_uninformed), 2))
                for idx, node_id in enumerate(ordered_uninformed):
                    if plan.nack_send_prob > 0 and coins[idx, 0] < plan.nack_send_prob:
                        transmissions.append(make_nack(node_id))
                        senders.add(node_id)
                        sending_nodes.add(node_id)
                        node_send_slots[node_id] += 1
                    elif plan.uninformed_listen_prob > 0 and coins[idx, 1] < plan.uninformed_listen_prob:
                        listeners.add(node_id)
                        node_listen_slots[node_id] += 1

            # -- Decoy traffic (§4.1) ----------------------------------- #
            if decoy_senders and plan.decoy_send_prob > 0:
                coins = self._rng_nodes.random(len(decoy_senders))
                for idx, node_id in enumerate(decoy_senders):
                    if node_id in sending_nodes or node_id in newly_informed:
                        continue
                    if coins[idx] < plan.decoy_send_prob:
                        transmissions.append(make_decoy(node_id))
                        senders.add(node_id)
                        sending_nodes.add(node_id)
                        if node_id in listeners:
                            # Half-duplex: a node that chose to transmit a decoy
                            # gives up its listening slot (already counted for
                            # the radio-on slot; do not double charge).
                            listeners.discard(node_id)
                        else:
                            node_send_slots[node_id] += 1

            # -- Byzantine spoofed transmissions ------------------------ #
            if j in spoof_payload_slots:
                if adversary_ledger.charge(EnergyOperation.SPOOF):
                    transmissions.append(make_spoof(_BYZANTINE_SENDER_ID, nack=False))
                    adversary_spend += 1.0
                    spoofed_transmissions += 1
            if j in spoof_nack_slots:
                if adversary_ledger.charge(EnergyOperation.SPOOF):
                    transmissions.append(make_spoof(_BYZANTINE_SENDER_ID, nack=True))
                    adversary_spend += 1.0
                    spoofed_transmissions += 1

            # -- Alice listening (request phase) ------------------------ #
            alice_listening = False
            if (
                roles.alice_active
                and plan.alice_listen_prob > 0
                and not alice_sending
                and self._rng_alice.random() < plan.alice_listen_prob
            ):
                alice_listening = True
                alice_ledger.charge(EnergyOperation.LISTEN)
                alice_listen_slots += 1
                listeners_with_alice = listeners | {ALICE_ID}
            else:
                listeners_with_alice = listeners

            # -- Adversary jamming decision ----------------------------- #
            correct_activity = bool(transmissions)
            jam_this_slot = False
            if reactive:
                if reactive_jams_remaining > 0 and correct_activity:
                    jam_this_slot = True
            else:
                jam_this_slot = j in scheduled_jams

            targeting = JamTargeting.none()
            if jam_this_slot:
                if adversary_ledger.charge(EnergyOperation.JAM):
                    targeting = jam_plan.targeting
                    adversary_spend += 1.0
                    jammed_slots += 1
                    if reactive:
                        reactive_jams_remaining -= 1
                else:
                    jam_this_slot = False

            # -- Channel resolution -------------------------------------- #
            resolution = self.channel.resolve_slot(
                transmissions=transmissions,
                listeners=listeners_with_alice,
                jam=targeting,
                slot=start_slot + j,
                senders=senders,
            )
            if resolution.busy:
                busy_slots += 1

            delivered_this_slot = False
            for listener_id, observation in resolution.observations.items():
                if listener_id == ALICE_ID:
                    if observation.is_noisy:
                        alice_noisy += 1
                    continue
                if observation.state.value == "message":
                    message = observation.message
                    if message is None:
                        raise SimulationError("MESSAGE observation without a message")
                    if message.kind is MessageKind.PAYLOAD and self.authenticator.verify(message):
                        if listener_id in active_uninformed:
                            newly_informed.add(listener_id)
                            active_uninformed.discard(listener_id)
                            delivered_this_slot = True
                        continue
                    # Anything else heard (nacks, decoys, spoofs) counts as a
                    # noisy slot for the request-phase rule.
                    node_noisy[listener_id] = node_noisy.get(listener_id, 0) + 1
                elif observation.is_noisy:
                    node_noisy[listener_id] = node_noisy.get(listener_id, 0) + 1

            if delivered_this_slot:
                delivery_slots += 1

        for operation, slots in (
            (EnergyOperation.SEND, node_send_slots),
            (EnergyOperation.LISTEN, node_listen_slots),
        ):
            charged = np.flatnonzero(slots)
            network.node_ledgers.charge_bulk_many(operation, charged, slots[charged])

        return PhaseResult(
            plan=plan,
            newly_informed=np.array(sorted(newly_informed), dtype=np.int64),
            jammed_slots=jammed_slots,
            adversary_spend=adversary_spend,
            alice_noisy_heard=alice_noisy,
            noisy_listeners=np.fromiter(node_noisy.keys(), dtype=np.int64, count=len(node_noisy)),
            node_noisy_heard=np.fromiter(
                node_noisy.values(), dtype=np.int64, count=len(node_noisy)
            ),
            delivery_slots=delivery_slots,
            busy_slots=busy_slots,
            alice_send_slots=alice_send_slots,
            alice_listen_slots=alice_listen_slots,
            spoofed_transmissions=spoofed_transmissions,
            path="slot",
        )
