"""The single-hop slot classes: exact probabilities, extreme inputs, one budget rule.

:meth:`~repro.simulation.fastengine.PhaseEngine.run_phase` draws how many
slots of a single-hop phase fall in each of five slot classes, from closed
forms in the senders' cohorts and probabilities, and resolves Carol's jams
and spoofs as per-class counts.  This file checks:

* the closed forms against a brute-force enumeration of every per-slot draw;
* conservation invariants of both engines at extreme inputs (p ∈ {0, 1},
  empty and one-device cohorts, phases of 0 and 1 slots, zero budget);
* that the single-hop count path and the multi-hop offset path truncate
  Carol's jams and spoofs to her budget identically.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    BudgetPolicy,
    ConfigurationError,
    EnergyLedger,
    JamPlan,
    JamTargeting,
    Network,
    PhaseEngine,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    SimulationConfig,
    SlotEngine,
    TopologySpec,
)
from repro.simulation.fastengine import (
    BUSY_ALICE,
    BUSY_OTHER,
    CLEAN_ALICE,
    CLEAN_RELAY,
    IDLE,
    slot_class_probabilities,
)

ENGINES = {"fast": PhaseEngine, "slot": SlotEngine}


def enumerated_class_probabilities(alice_p, relays, relay_p, nackers, nack_p, decoys, decoy_p):
    """Sum the probability of every joint per-slot draw into its class."""

    senders = [alice_p] + [relay_p] * relays + [nack_p] * nackers + [decoy_p] * decoys
    probs = np.zeros(5)
    for coins in itertools.product((0, 1), repeat=len(senders)):
        weight = math.prod(p if coin else 1.0 - p for p, coin in zip(senders, coins))
        a, r, z = coins[0], sum(coins[1 : 1 + relays]), sum(coins[1 + relays :])
        if r + z == 0:
            probs[CLEAN_ALICE if a else IDLE] += weight
        elif a:
            probs[BUSY_ALICE] += weight
        elif r == 1 and z == 0:
            probs[CLEAN_RELAY] += weight
        else:
            probs[BUSY_OTHER] += weight
    return probs


@pytest.mark.parametrize(
    "relays,nackers,decoys", list(itertools.product(range(4), repeat=3)), ids=str
)
def test_class_probabilities_match_enumeration(relays, nackers, decoys):
    roles = PhaseRoles(
        range(nackers),
        relays=range(nackers, nackers + relays),
        decoy_senders=range(nackers + relays, nackers + relays + decoys),
    )
    for alice_p, relay_p, (nack_p, decoy_p) in itertools.product(
        (0.0, 0.3, 1.0), (0.25, 1.0), ((0.1, 0.6), (0.0, 1.0))
    ):
        plan = PhasePlan(
            name="any", kind=PhaseKind.INFORM, round_index=1, num_slots=1,
            alice_send_prob=alice_p, relay_send_prob=relay_p, nack_send_prob=nack_p,
            decoy_send_prob=decoy_p,
        )
        enumerated = enumerated_class_probabilities(
            alice_p, relays, relay_p, nackers, nack_p, decoys, decoy_p
        )
        np.testing.assert_allclose(
            slot_class_probabilities(plan, roles),
            enumerated,
            rtol=0,
            atol=1e-12,
            err_msg=repr(plan),
        )


def test_a_network_of_one_device_is_refused():
    """n = 1 cannot be configured; one-device cohorts are the extreme below."""

    with pytest.raises(ConfigurationError):
        SimulationConfig(n=1)


# --------------------------------------------------------------------------- #
# Extreme inputs on both engines                                              #
# --------------------------------------------------------------------------- #

EXTREME_P = st.sampled_from([0.0, 1.0, 0.5])


@st.composite
def extreme_phases(draw):
    n = draw(st.sampled_from([2, 3]))
    # Each device is uninformed, a relay or neither; decoys are any non-relays.
    roles_of = st.sampled_from(["uninformed", "relay", "neither"])
    role = draw(st.lists(roles_of, min_size=n, max_size=n))
    non_relays = [i for i in range(n) if role[i] != "relay"]
    plan = PhasePlan(
        name="extreme",
        kind=draw(st.sampled_from(list(PhaseKind))),
        round_index=1,
        num_slots=draw(st.sampled_from([0, 1, 2, 5])),
        alice_send_prob=draw(EXTREME_P),
        alice_listen_prob=draw(EXTREME_P),
        relay_send_prob=draw(EXTREME_P),
        uninformed_listen_prob=draw(EXTREME_P),
        nack_send_prob=draw(EXTREME_P),
        decoy_send_prob=draw(EXTREME_P),
    )
    roles = PhaseRoles(
        [i for i in range(n) if role[i] == "uninformed"],
        relays=[i for i in range(n) if role[i] == "relay"],
        decoy_senders=draw(st.lists(st.sampled_from(non_relays), unique=True))
        if non_relays
        else (),
        alice_active=draw(st.booleans()),
    )
    selection = draw(st.sampled_from(["count", "rate", "indices"]))
    targeting = draw(
        st.sampled_from([JamTargeting.everyone(), JamTargeting.none(), JamTargeting.only([0])])
    )
    jam_plan = JamPlan(
        num_jam_slots=draw(st.integers(0, 6)) if selection == "count" else 0,
        jam_rate=draw(EXTREME_P) if selection == "rate" else None,
        slot_indices=tuple(draw(st.lists(st.integers(-1, 6), max_size=4)))
        if selection == "indices"
        else None,
        targeting=targeting,
        reactive=draw(st.booleans()),
        spoof_payload_slots=draw(st.integers(0, 3)),
        spoof_nack_slots=draw(st.integers(0, 3)),
    )
    budget = draw(st.sampled_from([0.0, 1.0, 3.0, math.inf]))
    return n, plan, roles, jam_plan, budget


@pytest.mark.parametrize("engine", list(ENGINES))
@given(case=extreme_phases(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_conservation_at_extreme_inputs(engine, case, seed):
    n, plan, roles, jam_plan, budget = case
    s = plan.num_slots
    if engine == "fast":
        probs = slot_class_probabilities(plan, roles)
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    network = Network(SimulationConfig(n=n, seed=seed))
    network.adversary_ledger = ledger = EnergyLedger("carol", budget, BudgetPolicy.CAP)
    result = ENGINES[engine](network).run_phase(plan, roles, jam_plan)

    assert 0 <= result.busy_slots <= s
    assert result.jammed_slots + result.spoofed_transmissions <= budget
    if engine == "slot" and jam_plan.reactive:
        # The slot engine's reactive jammer senses Carol's own spoofed frames
        # as channel activity, so a jam and a spoof can share a slot there.
        assert max(result.jammed_slots, result.spoofed_transmissions) <= s
    else:
        assert result.jammed_slots + result.spoofed_transmissions <= s
    if jam_plan.targeting.mode is JamTargeting.everyone().mode:
        assert 0 <= result.delivery_slots <= s - result.jammed_slots
    assert result.alice_send_slots + result.alice_listen_slots <= s
    assert network.alice_cost == result.alice_send_slots + result.alice_listen_slots
    assert ledger.spent == pytest.approx(result.adversary_spend)


# --------------------------------------------------------------------------- #
# One truncation rule for both fast-engine paths                              #
# --------------------------------------------------------------------------- #

SLOTS = 120
ROLES = PhaseRoles(range(12), relays=range(12, 18))
PLAN = PhasePlan(
    name="inform",
    kind=PhaseKind.INFORM,
    round_index=3,
    num_slots=SLOTS,
    alice_send_prob=0.3,
    relay_send_prob=0.05,
    uninformed_listen_prob=0.5,
)

TRUNCATION_PLANS = {
    "count": JamPlan(num_jam_slots=28, spoof_payload_slots=4, spoof_nack_slots=4),
    "full-count": JamPlan(num_jam_slots=SLOTS, spoof_payload_slots=4, spoof_nack_slots=4),
    "over-count": JamPlan(num_jam_slots=10 * SLOTS, spoof_nack_slots=9),
    "indices": JamPlan(slot_indices=(-3, 0, 1, 7, 7, 50, 119, 120), spoof_payload_slots=6),
    "gapped-indices": JamPlan(
        slot_indices=tuple(range(5, SLOTS, 3)), spoof_payload_slots=2, spoof_nack_slots=5
    ),
}


@pytest.mark.parametrize("remaining", [0, 1, 30, 33, math.inf])
@pytest.mark.parametrize("jam", list(TRUNCATION_PLANS))
def test_count_and_offset_paths_truncate_identically(jam, remaining):
    """Jams charged first; nack spoofs dropped before payload spoofs."""

    outcomes = {}
    for name, topology in (("single-hop", None), ("multi-hop", TopologySpec.gilbert(radius=0.3))):
        extra = {} if topology is None else {"topology": topology}
        network = Network(SimulationConfig(n=24, seed=5, **extra))
        network.adversary_ledger = EnergyLedger("carol", remaining, BudgetPolicy.CAP)
        result = PhaseEngine(network).run_phase(PLAN, ROLES, TRUNCATION_PLANS[jam])
        outcomes[name] = (result.jammed_slots, result.spoofed_transmissions, result.adversary_spend)
    assert outcomes["single-hop"] == outcomes["multi-hop"]
    jammed, spoofed, spend = outcomes["single-hop"]
    assert jammed + spoofed == spend <= remaining
