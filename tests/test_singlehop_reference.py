"""The single-hop fast path against its dense reference, draw for draw.

``PhaseEngine.run_phase`` builds per-slot arrays only for the sources a
phase has and reads every channel count off the adversary's sorted slot
offsets.  :mod:`singlehop_reference` keeps the earlier dense body, which
zero-fills an array per absent source and materialises s-length jam and
spoof arrays.  Both consume the same random draws in the same order, so on
identically seeded networks they must agree on the :class:`PhaseResult`
(including the order and dtype of its id and count arrays), on every ledger,
and on the engine generator's state afterwards.
"""

from __future__ import annotations

import itertools

import pytest

import singlehop_reference as reference
from repro.simulation import (
    EnergyOperation,
    JamPlan,
    JamTargeting,
    Network,
    PhaseEngine,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    SimulationConfig,
)

N = 24
SLOTS = 300
LARGE_SLOTS = (1 << 21) + 37

UNINFORMED = tuple(range(0, 12))
RELAYS = tuple(range(12, 18))
DECOYS = (3, 4, 18, 19, 20)  # two decoys are also uninformed listeners


def make_plan(kind=PhaseKind.INFORM, s=SLOTS, alice=0.3, relay=0.05, nack=0.04, decoy=0.03,
              listen=0.5, alice_listen=0.4):
    return PhasePlan(
        name=kind.value,
        kind=kind,
        round_index=3,
        num_slots=s,
        alice_send_prob=alice,
        relay_send_prob=relay,
        nack_send_prob=nack,
        decoy_send_prob=decoy,
        uninformed_listen_prob=listen,
        alice_listen_prob=alice_listen,
    )


def make_roles(alice=True, relays=True, decoys=True, listeners=True):
    return PhaseRoles(
        UNINFORMED if listeners else (),
        relays=RELAYS if relays else (),
        decoy_senders=DECOYS if decoys else (),
        alice_active=alice,
    )


def run_once(runner, plan, roles, jam_plan, seed, adversary_remaining):
    network = Network(SimulationConfig(n=N, f=1.0, seed=seed))
    if adversary_remaining is not None:
        ledger = network.adversary_ledger
        ledger.charge_bulk(EnergyOperation.JAM, ledger.remaining - adversary_remaining)
    engine = PhaseEngine(network)
    result = runner(engine, plan, roles, jam_plan)
    return {
        "result": result,
        "node_noisy_order": list(
            zip(result.noisy_listeners.tolist(), result.node_noisy_heard.tolist())
        ),
        "array_dtypes": [
            result.newly_informed.dtype.str,
            result.noisy_listeners.dtype.str,
            result.node_noisy_heard.dtype.str,
        ],
        "nodes": [network.node_ledgers.view(i).snapshot() for i in range(N)],
        "alice": network.alice.ledger.snapshot(),
        "adversary": network.adversary_ledger.snapshot(),
        "rng_state": engine._rng.bit_generator.state,
    }


def assert_matches_reference(plan, roles, jam_plan, seed=11, adversary_remaining=None):
    expected = run_once(reference.run_phase, plan, roles, jam_plan, seed, adversary_remaining)
    actual = run_once(PhaseEngine.run_phase, plan, roles, jam_plan, seed, adversary_remaining)
    for key in expected:
        assert actual[key] == expected[key], key
    return actual["result"]


JAM_PLANS = {
    "idle": JamPlan.idle(),
    "count": JamPlan(num_jam_slots=40),
    "full-count": JamPlan(num_jam_slots=SLOTS),
    "over-count": JamPlan(num_jam_slots=10 * SLOTS),
    "rate": JamPlan(jam_rate=0.2),
    "indices": JamPlan(slot_indices=(-3, 0, 1, 2, 7, 7, 50, 51, 299, 300, 10_000)),
    "prefix-indices": JamPlan(slot_indices=(0, 1, 2, 3)),
    "reactive-count": JamPlan(num_jam_slots=15, reactive=True),
    "reactive-rate": JamPlan(jam_rate=0.5, reactive=True),
}

TARGETINGS = {
    "none": JamTargeting.none(),
    "all": JamTargeting.everyone(),
    "only": JamTargeting.only([0, 2, 5, 13, -1]),
}

SOURCES = ("alice", "relays", "nacks", "decoys")

SPOOFS = {"no-spoof": (0, 0), "payload": (6, 0), "nack": (0, 6), "both": (5, 7)}


def with_attack(jam_plan, targeting, spoofs):
    payload, nack = spoofs
    return JamPlan(
        num_jam_slots=jam_plan.num_jam_slots,
        jam_rate=jam_plan.jam_rate,
        slot_indices=jam_plan.slot_indices,
        targeting=targeting,
        reactive=jam_plan.reactive,
        spoof_payload_slots=payload,
        spoof_nack_slots=nack,
    )


@pytest.mark.parametrize("kind", list(PhaseKind), ids=lambda k: k.value)
@pytest.mark.parametrize(
    "sources",
    list(itertools.product([True, False], repeat=4)),
    ids=lambda t: "-".join(name for name, on in zip(SOURCES, t) if on) or "silent",
)
@pytest.mark.parametrize("jam", ["idle", "count", "reactive-count"])
def test_every_source_combination(kind, sources, jam):
    """Each sender class present or absent; nacks are switched off by probability."""

    alice, relays, nacks, decoys = sources
    jam_plan = with_attack(JAM_PLANS[jam], JamTargeting.everyone(), SPOOFS["both"])
    plan = make_plan(kind, nack=0.04 if nacks else 0.0)
    assert_matches_reference(plan, make_roles(alice, relays, decoys), jam_plan)


@pytest.mark.parametrize("kind", list(PhaseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("jam", ["idle", "full-count", "reactive-rate"])
def test_empty_listener_cohort(kind, jam):
    jam_plan = with_attack(JAM_PLANS[jam], JamTargeting.everyone(), SPOOFS["both"])
    assert_matches_reference(make_plan(kind), make_roles(listeners=False), jam_plan)
    silent = make_roles(alice=False, relays=False, decoys=False, listeners=False)
    assert_matches_reference(make_plan(kind), silent, jam_plan)


@pytest.mark.parametrize("jam", list(JAM_PLANS))
@pytest.mark.parametrize("targeting", list(TARGETINGS))
@pytest.mark.parametrize("spoofs", list(SPOOFS))
@pytest.mark.parametrize("kind", [PhaseKind.INFORM, PhaseKind.REQUEST], ids=lambda k: k.value)
def test_every_jam_and_spoof_plan(jam, targeting, spoofs, kind):
    jam_plan = with_attack(JAM_PLANS[jam], TARGETINGS[targeting], SPOOFS[spoofs])
    assert_matches_reference(make_plan(kind), make_roles(), jam_plan)


@pytest.mark.parametrize(
    "jam_plan",
    [
        JamPlan(num_jam_slots=SLOTS, spoof_payload_slots=4, spoof_nack_slots=4),
        JamPlan(num_jam_slots=120, spoof_payload_slots=4, spoof_nack_slots=4),
        JamPlan(slot_indices=tuple(range(5, SLOTS, 3)), spoof_nack_slots=9),
        JamPlan(jam_rate=0.5, reactive=True, spoof_payload_slots=3),
    ],
    ids=["prefix", "random-subset", "gapped-indices", "reactive-rate"],
)
@pytest.mark.parametrize("remaining", [0, 1, 30, 33])
def test_budget_truncation(jam_plan, remaining):
    """Carol's remaining budget cuts the jam set to a prefix of its offsets.

    A full-phase count leaves the slot prefix ``[0, k)``; the other plans
    leave a non-prefix set.  Spoofs are charged after jams, nack spoofs
    dropped first.
    """

    result = assert_matches_reference(
        make_plan(), make_roles(), jam_plan, adversary_remaining=remaining
    )
    assert result.jammed_slots + result.spoofed_transmissions <= remaining


@pytest.mark.parametrize("s", [0, 1, 2, 7])
@pytest.mark.parametrize("kind", list(PhaseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("jam", ["full-count", "rate", "indices", "reactive-count"])
def test_tiny_phases(s, kind, jam):
    jam_plan = with_attack(JAM_PLANS[jam], JamTargeting.everyone(), SPOOFS["both"])
    assert_matches_reference(make_plan(kind, s=s), make_roles(), jam_plan)


@pytest.mark.parametrize("kind", list(PhaseKind), ids=lambda k: k.value)
def test_certain_actions(kind):
    """p = 1 for every action: all slots collide, listening is certain."""

    plan = make_plan(kind, alice=1.0, relay=1.0, nack=1.0, decoy=1.0, listen=1.0, alice_listen=1.0)
    for roles in (make_roles(), make_roles(relays=False, decoys=False)):
        assert_matches_reference(plan, roles, JamPlan(num_jam_slots=SLOTS // 2))
        assert_matches_reference(plan, roles, JamPlan.idle())


@pytest.mark.parametrize(
    "roles,nack,jam_plan",
    [
        (make_roles(relays=False, decoys=False), 0.0, JamPlan(num_jam_slots=LARGE_SLOTS)),
        (
            make_roles(),
            1e-4,
            JamPlan(num_jam_slots=LARGE_SLOTS // 3, spoof_payload_slots=2, spoof_nack_slots=2),
        ),
    ],
    ids=["alice-only-full-jam", "all-sources-subset-jam"],
)
def test_phase_longer_than_2_pow_21(roles, nack, jam_plan):
    result = assert_matches_reference(
        make_plan(s=LARGE_SLOTS, alice=0.01, relay=1e-4, nack=nack, decoy=1e-4), roles, jam_plan
    )
    assert 0 < result.jammed_slots < LARGE_SLOTS  # Carol's budget truncates the jam set
