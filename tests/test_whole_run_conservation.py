"""Conservation invariants over whole multi-hop runs, on both engines.

Hypothesis draws small Gilbert graphs (n ≤ 48), seeds and a jammer — none, a
static disk, or a reactive disk chasing the uninformed — with or without a
spend cap, and runs pipelined ``MultiHopBroadcast`` to the end on the fast
and the slot engine.  Every phase's result and the protocol state after it
are recorded, and the run must satisfy:

* Carol's ledger equals the sum of the phases' ``adversary_spend`` and never
  exceeds her budget (nor her spend cap);
* Alice's ledger equals the sum of her send and listen slots;
* the correct nodes' ledgers add up to the per-phase ``nodes_cost`` deltas;
* every informed node is reachable from Alice; and
* node status is monotone: a node's informed slot and termination round are
  set at most once, and a node that terminated uninformed is never informed.

``test_trace_balances_the_ledgers`` checks the books from the trace alone:
for every orchestrator and baseline, on both engines, the outcome's
``"phase"`` events sum to the final ledgers, their slot windows tile the run,
their rounds count the rounds executed, and the last one's population counts
are the outcome's delivery statistics.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.adversary import PhaseBlockingAdversary, RandomJammer, ReactiveDiskJammer, SpatialJammer
from repro.baselines import BalancedBackoffBroadcast, KSYStyleBroadcast, NaiveBroadcast
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.core.decoy import DecoyBroadcast
from repro.core.driver import PhaseDriver
from repro.core.estimation import SizeEstimateBroadcast
from repro.core.general_k import GeneralKBroadcast
from repro.simulation import SimulationConfig, TopologySpec

JAMMERS = {
    "none": lambda cap, radius: None,
    "static-disk": lambda cap, radius: SpatialJammer(radius=radius, max_total_spend=cap),
    "reactive-disk": lambda cap, radius: ReactiveDiskJammer(radius=radius, max_total_spend=cap),
}


def recorded_run(config, adversary, engine):
    """Run to the end; return the protocol and per-phase ``(result, informed_at, terminated_at)``."""

    phases = []
    step = PhaseDriver.step

    def recording_step(self, plan, roles, state, round_index, apply):
        result = step(self, plan, roles, state, round_index, apply)
        phases.append(
            (result, state.informed_at_slot.copy(), state.terminated_at_round.copy())
        )
        return result

    kwargs = {} if adversary is None else {"adversary": adversary}
    protocol = MultiHopBroadcast(config, engine=engine, **kwargs)
    with mock.patch.object(PhaseDriver, "step", recording_step):
        outcome = protocol.run()
    return protocol, outcome, phases


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
    radius=st.sampled_from([0.15, 0.3, 0.5]),
    jammer=st.sampled_from(sorted(JAMMERS)),
    jam_radius=st.sampled_from([0.1, 0.3]),
    cap=st.sampled_from([None, 0.0, 50.0, 400.0]),
    engine=st.sampled_from(["fast", "slot"]),
)
def test_whole_run_conservation(n, seed, radius, jammer, jam_radius, cap, engine):
    config = SimulationConfig(n=n, seed=seed, topology=TopologySpec.gilbert(radius=radius))
    protocol, outcome, phases = recorded_run(config, JAMMERS[jammer](cap, jam_radius), engine)
    network = protocol.network
    results = [result for result, _, _ in phases]
    assert results, "a run executes at least one phase"

    carol = network.adversary_ledger
    assert carol.spent == sum(result.adversary_spend for result in results)
    assert carol.spent <= carol.budget + 1e-9
    if cap is not None:
        assert carol.spent <= cap + 1e-9
    assert outcome.adversary_spend == carol.spent

    alice_slots = sum(r.alice_send_slots + r.alice_listen_slots for r in results)
    assert network.alice_cost == alice_slots

    node_deltas = [event.data["nodes_cost"] for event in outcome.events]
    assert len(node_deltas) == len(results)
    assert sum(node_deltas) == network.node_ledgers.total_spent
    assert network.node_ledgers.total_spent == network.node_costs().sum()

    reachable = np.zeros(n, dtype=bool)
    reachable[sorted(network.topology.reachable_from_alice())] = True
    final_informed = protocol.final_state.informed_at_slot >= 0
    assert not (final_informed & ~reachable).any()
    assert outcome.delivery.informed == int(final_informed.sum())

    informed_before = np.full(n, -1, dtype=np.int64)
    terminated_before = np.full(n, -1, dtype=np.int64)
    terminated_uninformed = np.zeros(n, dtype=bool)
    for _, informed_at, terminated_at in phases:
        was_informed = informed_before >= 0
        was_terminated = terminated_before >= 0
        assert (informed_at[was_informed] == informed_before[was_informed]).all()
        assert (terminated_at[was_terminated] == terminated_before[was_terminated]).all()
        assert not (terminated_uninformed & (informed_at >= 0)).any()
        newly_terminated = (terminated_at >= 0) & ~was_terminated
        terminated_uninformed |= newly_terminated & (informed_at < 0)
        informed_before, terminated_before = informed_at, terminated_at



# Below the connectivity radius, so the multi-hop runs also retire nodes
# uninformed.
GILBERT = TopologySpec.gilbert(radius=0.2)

# name -> (protocol factory, config keywords, adversary factory); every run
# ends on its own, before the round cap, so its last phase is its end state.
# The blocker stretches each baseline over several epochs.
ORCHESTRATORS = {
    "epsilon": (EpsilonBroadcast, {}, lambda: RandomJammer(rate=0.3, max_total_spend=800)),
    "general-k": (
        GeneralKBroadcast, {"k": 3}, lambda: RandomJammer(rate=0.3, max_total_spend=800)
    ),
    "decoy": (DecoyBroadcast, {}, lambda: RandomJammer(rate=0.3, max_total_spend=800)),
    "size-estimate": (
        lambda config, **kw: SizeEstimateBroadcast(config, size_estimate=4 * config.n, **kw),
        {},
        lambda: RandomJammer(rate=0.3, max_total_spend=800),
    ),
    "multihop-pipelined": (
        MultiHopBroadcast,
        {"topology": GILBERT},
        lambda: SpatialJammer(radius=0.3, max_total_spend=400),
    ),
    "multihop-sequential": (
        lambda config, **kw: MultiHopBroadcast(config, pipeline=False, **kw),
        {"topology": GILBERT},
        lambda: ReactiveDiskJammer(radius=0.3, max_total_spend=400),
    ),
    "naive": (NaiveBroadcast, {}, lambda: PhaseBlockingAdversary(max_total_spend=500)),
    "ksy": (KSYStyleBroadcast, {}, lambda: PhaseBlockingAdversary(max_total_spend=500)),
    "backoff": (
        BalancedBackoffBroadcast, {}, lambda: PhaseBlockingAdversary(max_total_spend=500)
    ),
}


@pytest.mark.parametrize("engine", ["fast", "slot"])
@pytest.mark.parametrize("name", sorted(ORCHESTRATORS))
def test_trace_balances_the_ledgers(name, engine):
    factory, config_kwargs, adversary = ORCHESTRATORS[name]
    config = SimulationConfig(n=32, seed=7, **config_kwargs)
    protocol = factory(config, adversary=adversary(), engine=engine)
    outcome = protocol.run()
    network = protocol.network
    events = outcome.events
    assert events and {event.kind for event in events} == {"phase"}
    assert not outcome.terminated_by_cap

    def total(key):
        return sum(event.data[key] for event in events)

    assert total("alice_cost") == network.alice_cost
    assert total("nodes_cost") == network.node_ledgers.total_spent == network.node_costs().sum()
    assert total("adversary_spend") == network.adversary_ledger.spent
    assert outcome.adversary_spend > 0

    end = 0
    for event in events:
        assert event.data["start_slot"] == end
        end += event.data["num_slots"]
    assert end == outcome.delivery.slots_elapsed

    assert len({event.round_index for event in events}) == outcome.delivery.rounds_executed

    last = events[-1].data
    delivery = outcome.delivery
    assert last["informed_total"] == delivery.informed
    assert last["terminated_informed"] == delivery.terminated_informed
    assert last["terminated_uninformed"] == delivery.terminated_uninformed
