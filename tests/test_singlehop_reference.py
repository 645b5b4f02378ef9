"""The single-hop fast path against its dense reference, in distribution.

``PhaseEngine.run_phase`` draws a single-hop phase's slot-class histogram
and resolves Carol's jams and spoofs as per-class counts.
:mod:`singlehop_reference` keeps the dense body it replaced, which builds
s-length per-slot arrays, a jam mask and concrete spoof offsets.  The two
consume different random draws, so they are compared in two ways:

* every parametrized case runs the engine on one seed and checks what does
  not depend on the draws: that Carol never acts beyond her remaining budget
  or the phase, that her ledger moves by exactly ``adversary_spend``, and
  the layout of the result's id and count arrays; for count and index plans
  the reference runs too, and her jammed and spoofed slots and her spend
  (pure functions of the plan, the phase length and her budget) must match;
* a representative subset of those cases is sampled over seeded trials, and
  every random :class:`PhaseResult` field and ledger total is compared with a
  two-sample Kolmogorov–Smirnov test, at α = 0.01 per configuration.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List

import numpy as np
import pytest

import singlehop_reference as reference
from equivalence import assert_means_close, assert_same_distribution
from repro.simulation import (
    BudgetPolicy,
    EnergyLedger,
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
TRIALS = 300

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
    """One phase on a fresh network: ``(result, network, Carol's budget before)``.

    Carol's ledger must move by exactly the phase's ``adversary_spend``.
    """

    network = Network(SimulationConfig(n=N, f=1.0, seed=seed))
    ledger = network.adversary_ledger
    if adversary_remaining is not None:
        ledger.charge_bulk(EnergyOperation.JAM, ledger.remaining - adversary_remaining)
    remaining, spent = ledger.remaining, ledger.spent
    result = runner(PhaseEngine(network), plan, roles, jam_plan)
    assert ledger.spent - spent == pytest.approx(result.adversary_spend)
    return result, network, remaining


def draw_independent(jam_plan):
    """Count and index plans: Carol's actions do not depend on the draws."""

    return not jam_plan.reactive


def assert_matches_reference(plan, roles, jam_plan, seed=11, adversary_remaining=None):
    runners = {"fast": PhaseEngine.run_phase}
    if draw_independent(jam_plan):
        runners["reference"] = reference.run_phase
    runs = {
        name: run_once(runner, plan, roles, jam_plan, seed, adversary_remaining)
        for name, runner in runners.items()
    }
    for name, (result, _, remaining) in runs.items():
        attacked = result.jammed_slots + result.spoofed_transmissions
        assert attacked <= min(remaining, plan.num_slots), name
        for ids in (result.newly_informed, result.noisy_listeners, result.node_noisy_heard):
            assert ids.dtype == np.int64, name
        assert result.node_noisy_heard.size == result.noisy_listeners.size, name
    actual = runs["fast"][0]
    if "reference" in runs:
        expected = runs["reference"][0]
        assert np.array_equal(actual.noisy_listeners, expected.noisy_listeners)
        for field in ("jammed_slots", "spoofed_transmissions", "adversary_spend"):
            assert getattr(actual, field) == getattr(expected, field), field
    return actual


JAM_PLANS = {
    "idle": JamPlan.idle(),
    "one-count": JamPlan(num_jam_slots=1),
    "count": JamPlan(num_jam_slots=40),
    "full-count": JamPlan(num_jam_slots=SLOTS),
    "over-count": JamPlan(num_jam_slots=10 * SLOTS),
    "indices": JamPlan(slot_indices=(-3, 0, 1, 2, 7, 7, 50, 51, 299, 300, 10_000)),
    "prefix-indices": JamPlan(slot_indices=(0, 1, 2, 3)),
    "reactive-count": JamPlan(num_jam_slots=15, reactive=True),
    "reactive-over-count": JamPlan(num_jam_slots=10 * SLOTS, reactive=True),
}

TARGETINGS = {
    "none": JamTargeting.none(),
    "all": JamTargeting.everyone(),
    "only": JamTargeting.only([0, 2, 5, 13, -1]),
}

SOURCES = ("alice", "relays", "nacks", "decoys")

SPOOFS = {"no-spoof": (0, 0), "payload": (6, 0), "nack": (0, 6), "both": (5, 7)}

BUDGET_PLANS = {
    "prefix": JamPlan(num_jam_slots=SLOTS, spoof_payload_slots=4, spoof_nack_slots=4),
    "random-subset": JamPlan(num_jam_slots=120, spoof_payload_slots=4, spoof_nack_slots=4),
    "gapped-indices": JamPlan(slot_indices=tuple(range(5, SLOTS, 3)), spoof_nack_slots=9),
    "reactive-count": JamPlan(num_jam_slots=SLOTS, reactive=True, spoof_payload_slots=3),
}


def with_attack(jam_plan, targeting, spoofs):
    payload, nack = spoofs
    return JamPlan(
        num_jam_slots=jam_plan.num_jam_slots,
        slot_indices=jam_plan.slot_indices,
        targeting=targeting,
        reactive=jam_plan.reactive,
        spoof_payload_slots=payload,
        spoof_nack_slots=nack,
    )


# --------------------------------------------------------------------------- #
# Every case: what does not depend on the draws                               #
# --------------------------------------------------------------------------- #


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
@pytest.mark.parametrize("jam", ["idle", "full-count", "reactive-count"])
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


@pytest.mark.parametrize("jam_plan", list(BUDGET_PLANS.values()), ids=list(BUDGET_PLANS))
@pytest.mark.parametrize("remaining", [0, 1, 30, 33])
def test_budget_truncation(jam_plan, remaining):
    """Carol's remaining budget truncates her jams first, then her spoofs.

    Spoofs are charged after jams, nack spoofs dropped first.
    """

    result = assert_matches_reference(
        make_plan(), make_roles(), jam_plan, adversary_remaining=remaining
    )
    assert result.jammed_slots + result.spoofed_transmissions <= remaining


@pytest.mark.parametrize("s", [0, 1, 2, 7])
@pytest.mark.parametrize("kind", list(PhaseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("jam", ["full-count", "indices", "reactive-count", "reactive-over-count"])
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


LARGE_CASES = {
    "alice-only-full-jam": (
        make_roles(relays=False, decoys=False), 0.0, JamPlan(num_jam_slots=LARGE_SLOTS)
    ),
    "all-sources-subset-jam": (
        make_roles(),
        1e-4,
        JamPlan(num_jam_slots=LARGE_SLOTS // 3, spoof_payload_slots=2, spoof_nack_slots=2),
    ),
}


def large_plan(nack):
    return make_plan(s=LARGE_SLOTS, alice=0.01, relay=1e-4, nack=nack, decoy=1e-4)


@pytest.mark.parametrize("case", list(LARGE_CASES))
def test_phase_longer_than_2_pow_21(case):
    roles, nack, jam_plan = LARGE_CASES[case]
    result = assert_matches_reference(large_plan(nack), roles, jam_plan)
    assert 0 < result.jammed_slots < LARGE_SLOTS  # Carol's budget truncates the jam set


# --------------------------------------------------------------------------- #
# A representative subset: every random field, in distribution               #
# --------------------------------------------------------------------------- #


def ledger_totals(network) -> Dict[str, float]:
    return {
        "alice_ledger": network.alice_cost,
        "node_ledgers": float(network.node_costs().sum()),
        "adversary_ledger": network.adversary_cost,
    }


def trial_record(result, network) -> Dict[str, float]:
    return {
        "informed": float(result.newly_informed.size),
        "jammed_slots": float(result.jammed_slots),
        "adversary_spend": result.adversary_spend,
        "alice_noisy_heard": float(result.alice_noisy_heard),
        "node_noisy_heard": float(result.node_noisy_heard.sum()),
        "delivery_slots": float(result.delivery_slots),
        "busy_slots": float(result.busy_slots),
        "alice_send_slots": float(result.alice_send_slots),
        "alice_listen_slots": float(result.alice_listen_slots),
        "spoofed_transmissions": float(result.spoofed_transmissions),
        **ledger_totals(network),
    }


def sample(runner, plan, roles, jam_plan, trials, seed, adversary_budget=math.inf):
    """``trials`` phases in a row on one network: per-field lists of per-phase values.

    Before every phase Carol gets a fresh ledger holding ``adversary_budget``
    units; the other ledgers are read as increments.
    """

    network = Network(SimulationConfig(n=N, f=1.0, seed=seed))
    engine = PhaseEngine(network)
    columns: Dict[str, List[float]] = {}
    for _ in range(trials):
        network.adversary_ledger = EnergyLedger("carol", adversary_budget, BudgetPolicy.CAP)
        before = ledger_totals(network)
        record = trial_record(runner(engine, plan, roles, jam_plan), network)
        for field, value in before.items():
            record[field] -= value
        for field, value in record.items():
            columns.setdefault(field, []).append(value)
    return columns


def assert_same_law(plan, roles, jam_plan, adversary_budget=math.inf, trials=TRIALS,
                    reference_trials=TRIALS):
    """Two-sample KS on every field, the two runners on disjoint seeds.

    α = 0.01 is the level of the whole configuration, split evenly over its
    fields (Bonferroni), so a suite of dozens of configurations does not
    reject a matching one by chance.
    """

    expected = sample(
        reference.run_phase, plan, roles, jam_plan, reference_trials, 10_000, adversary_budget
    )
    actual = sample(PhaseEngine.run_phase, plan, roles, jam_plan, trials, 20_000, adversary_budget)
    for field in expected:
        assert_same_distribution(
            expected[field], actual[field], alpha=0.01 / len(expected), label=field
        )
    return expected, actual


# Every jam plan with both spoof kinds, and each spoof mix with a count and a
# reactive jam plan.  The spoof draws read the jam draw's per-class counts the
# same way whatever the plan, so the full 9 × 4 grid would add tier-1 time,
# not code paths.
LAW_ATTACKS = [(jam, "both") for jam in JAM_PLANS] + [
    (jam, spoofs)
    for jam in ("count", "reactive-count")
    for spoofs in ("no-spoof", "payload", "nack")
]


@pytest.mark.parametrize("jam,spoofs", LAW_ATTACKS, ids=["-".join(a) for a in LAW_ATTACKS])
def test_law_jam_plans_and_spoof_mixes(jam, spoofs):
    jam_plan = with_attack(JAM_PLANS[jam], JamTargeting.everyone(), SPOOFS[spoofs])
    assert_same_law(make_plan(PhaseKind.REQUEST), make_roles(), jam_plan)


@pytest.mark.parametrize("targeting", ["none", "only"])
def test_law_each_targeting(targeting):
    jam_plan = with_attack(JAM_PLANS["count"], TARGETINGS[targeting], SPOOFS["both"])
    assert_same_law(make_plan(PhaseKind.REQUEST), make_roles(), jam_plan)


@pytest.mark.parametrize("plan_name", ["random-subset", "gapped-indices", "reactive-count"])
def test_law_budget_truncation(plan_name):
    """A prefix of a full-phase jam is drawn exactly like a random subset's."""

    assert_same_law(make_plan(), make_roles(), BUDGET_PLANS[plan_name], adversary_budget=30)


@pytest.mark.parametrize("s", [0, 1, 2, 7])
def test_law_tiny_phases(s):
    jam_plan = with_attack(JAM_PLANS["indices"], JamTargeting.everyone(), SPOOFS["both"])
    assert_same_law(make_plan(PhaseKind.REQUEST, s=s), make_roles(), jam_plan)


def test_law_certain_actions():
    plan = make_plan(PhaseKind.REQUEST, alice=1.0, relay=1.0, nack=1.0, decoy=1.0, listen=1.0,
                     alice_listen=1.0)
    assert_same_law(plan, make_roles(), JamPlan(num_jam_slots=SLOTS // 2))


def test_law_phase_longer_than_2_pow_21():
    """Few dense trials (each builds 2²¹-slot arrays), so the means are checked too.

    Carol has her default budget, which truncates the full-phase jam.
    """

    roles, nack, jam_plan = LARGE_CASES["alice-only-full-jam"]
    budget = SimulationConfig(n=N, f=1.0).adversary_total_budget
    expected, actual = assert_same_law(
        large_plan(nack), roles, jam_plan, adversary_budget=budget, reference_trials=6
    )
    for field, dense in expected.items():
        fast = actual[field]
        standard_error = math.sqrt(np.var(dense) / len(dense) + np.var(fast) / len(fast))
        assert_means_close(dense, fast, rel=0.0, abs_tol=4.0 * standard_error + 1e-9, label=field)
