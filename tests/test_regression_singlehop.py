"""Regression: the default single-hop model is bit-identical to the seed code.

The topology refactor threads a :class:`~repro.simulation.topology.Topology`
through the configuration, network, channel, and both engines.  On the
default (single-hop) topology every one of those layers must take exactly the
pre-refactor code path and consume exactly the pre-refactor random draws, so
that same-seed runs reproduce the seed code's outcomes bit for bit.

The golden snapshots below were captured by running the *pre-refactor* code
(with the stable CRC-32 stream hashing of :mod:`repro.simulation.rng`, which
makes runs reproducible across interpreter processes — the built-in ``hash``
the seed originally used was salted per process) on ``n = 40`` for a roster
of adversaries, both engines, and two seeds.  Any change to these numbers
means the RNG draw sequence of the default model moved — which is exactly
what this test exists to catch.  The ``fast`` entries (here and below) were
re-captured once, when the fast engine's single-hop path moved from per-slot
arrays to drawing each phase's slot-class histogram: the same distributions
from different draws.  The ``slot`` entries are the original captures.

The epoch baselines get the same treatment: ``BASELINE_GOLDEN`` pins their
cost snapshots, delivery, and full per-epoch phase sequence at ``n = 40``,
captured from the hand-written baseline epoch loop before the baselines moved
onto the shared phase driver.  Each epoch is an 11-field tuple;
:func:`phase_fields` reads the same fields from a ``"phase"`` trace event.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.adversary import (
    NullAdversary,
    NUniformSplitAdversary,
    PhaseBlockingAdversary,
    RandomJammer,
)
from repro.baselines import BalancedBackoffBroadcast, KSYStyleBroadcast, NaiveBroadcast
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.core.decoy import DecoyBroadcast
from repro.experiments.workloads import blocking_adversary
from repro.simulation import EnergyOperation, SimulationConfig, TopologySpec

ADVERSARIES = {
    "none": NullAdversary,
    "blocker": lambda: PhaseBlockingAdversary(max_total_spend=2000),
    "random": lambda: RandomJammer(rate=0.3, max_total_spend=1500),
    "splitter": lambda: NUniformSplitAdversary(target_uninformed=3),
}

# (adversary, engine, seed) -> pre-refactor snapshot at n = 40.
GOLDEN = {
    ("none", "fast", 3): {"alice": 530.0, "adversary": 0.0, "node_mean": 1.025, "node_max": 2.0, "node_total": 41.0, "informed": 40, "slots": 2373},
    ("none", "fast", 11): {"alice": 502.0, "adversary": 0.0, "node_mean": 1.075, "node_max": 2.0, "node_total": 43.0, "informed": 40, "slots": 2373},
    ("none", "slot", 3): {"alice": 492.0, "adversary": 0.0, "node_mean": 1.075, "node_max": 2.0, "node_total": 43.0, "informed": 40, "slots": 2373},
    ("none", "slot", 11): {"alice": 494.0, "adversary": 0.0, "node_mean": 1.05, "node_max": 2.0, "node_total": 42.0, "informed": 40, "slots": 2373},
    ("blocker", "fast", 3): {"alice": 727.0, "adversary": 2000.0, "node_mean": 1592.075, "node_max": 1640.0, "node_total": 63683.0, "informed": 40, "slots": 6717},
    ("blocker", "fast", 11): {"alice": 696.0, "adversary": 2000.0, "node_mean": 1569.35, "node_max": 1595.0, "node_total": 62774.0, "informed": 40, "slots": 6717},
    ("blocker", "slot", 3): {"alice": 670.0, "adversary": 2000.0, "node_mean": 1674.6, "node_max": 1705.0, "node_total": 66984.0, "informed": 40, "slots": 6717},
    ("blocker", "slot", 11): {"alice": 725.0, "adversary": 2000.0, "node_mean": 1752.175, "node_max": 1791.0, "node_total": 70087.0, "informed": 40, "slots": 6717},
    ("random", "fast", 3): {"alice": 700.0, "adversary": 1500.0, "node_mean": 2.075, "node_max": 3.0, "node_total": 83.0, "informed": 40, "slots": 6717},
    ("random", "fast", 11): {"alice": 495.0, "adversary": 711.0, "node_mean": 2.075, "node_max": 3.0, "node_total": 83.0, "informed": 40, "slots": 2373},
    ("random", "slot", 3): {"alice": 492.0, "adversary": 711.0, "node_mean": 1.075, "node_max": 2.0, "node_total": 43.0, "informed": 40, "slots": 2373},
    ("random", "slot", 11): {"alice": 725.0, "adversary": 1500.0, "node_mean": 1.05, "node_max": 2.0, "node_total": 42.0, "informed": 40, "slots": 6717},
    ("splitter", "fast", 3): {"alice": 507.0, "adversary": 4421.0, "node_mean": 760.45, "node_max": 10173.0, "node_total": 30418.0, "informed": 37, "slots": 53760},
    ("splitter", "fast", 11): {"alice": 487.0, "adversary": 4421.0, "node_mean": 764.5, "node_max": 10245.0, "node_total": 30580.0, "informed": 37, "slots": 53760},
    ("splitter", "slot", 3): {"alice": 492.0, "adversary": 4421.0, "node_mean": 758.7, "node_max": 10159.0, "node_total": 30348.0, "informed": 37, "slots": 53760},
    ("splitter", "slot", 11): {"alice": 494.0, "adversary": 4421.0, "node_mean": 760.55, "node_max": 10208.0, "node_total": 30422.0, "informed": 37, "slots": 53760},
}


def run_snapshot(adversary_name, engine, seed, protocol_cls=EpsilonBroadcast, config=None):
    config = config if config is not None else SimulationConfig(n=40, seed=seed)
    protocol = protocol_cls(config, adversary=ADVERSARIES[adversary_name](), engine=engine)
    outcome = protocol.run()
    snapshot = protocol.network.cost_snapshot()
    snapshot["informed"] = outcome.delivery.informed
    snapshot["slots"] = outcome.delivery.slots_elapsed
    return snapshot


@pytest.mark.parametrize("adversary_name,engine,seed", sorted(GOLDEN))
def test_default_model_matches_pre_refactor_golden(adversary_name, engine, seed):
    assert run_snapshot(adversary_name, engine, seed) == GOLDEN[(adversary_name, engine, seed)]


# (adversary, "slot", seed) -> sha-256 over the final per-node ledgers: the
# node_ledgers spent_array() bytes, then each EnergyOperation's per-row array
# in enum order.  The golden snapshots above pin only the nodes' mean, max and
# total; this pins every row of every operation, captured while the slot
# engine still charged each node slot by slot.
SLOT_NODE_LEDGER_DIGESTS = {
    ("blocker", "slot", 3): "76e44f65ac0ef6eb0f1d9b45a6d255b0d4eb1c85edb5b2f55a67da4897265e93",
    ("blocker", "slot", 11): "24aa8fc6239237b4e8f49f178143768bb38baa353e2cce80fef325d3c59f996b",
    ("none", "slot", 3): "0b2a4b54aa3f0f6195dc4ad9648fb6041740a5d4167e3407256803fe10a18201",
    ("none", "slot", 11): "863377196af5e502bd349c51302f6e58e311c26745006fe9195ab8cc747c7b60",
    ("random", "slot", 3): "0b2a4b54aa3f0f6195dc4ad9648fb6041740a5d4167e3407256803fe10a18201",
    ("random", "slot", 11): "863377196af5e502bd349c51302f6e58e311c26745006fe9195ab8cc747c7b60",
    ("splitter", "slot", 3): "6cd01351994bac926fd5f354470533475e3bbdac035d3f54310860938cccd615",
    ("splitter", "slot", 11): "a61d367ac93bfcd77e941eb2ab4c0993b3c16470ceaeab4d87d4c8722e2359e5",
}


def node_ledger_digest(adversary_name, engine, seed, protocol_cls=EpsilonBroadcast):
    config = SimulationConfig(n=40, seed=seed)
    protocol = protocol_cls(config, adversary=ADVERSARIES[adversary_name](), engine=engine)
    protocol.run()
    ledgers = protocol.network.node_ledgers
    digest = hashlib.sha256(ledgers.spent_array().tobytes())
    for operation in EnergyOperation:
        digest.update(ledgers.spent_on_array(operation).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("adversary_name,engine,seed", sorted(SLOT_NODE_LEDGER_DIGESTS))
def test_slot_engine_per_node_ledgers_match_golden(adversary_name, engine, seed):
    digest = node_ledger_digest(adversary_name, engine, seed)
    assert digest == SLOT_NODE_LEDGER_DIGESTS[(adversary_name, engine, seed)]


def test_slot_engine_decoy_ledgers_match_golden():
    """Pins the half-duplex rule: a listener that sends a decoy pays one slot, not two."""

    digest = node_ledger_digest("none", "slot", 3, protocol_cls=DecoyBroadcast)
    assert digest == "7b6a65b3bbe71aef487429c459319b4d76c2c2064ad56338393a9772e6f34f83"


@pytest.mark.parametrize("engine", ["fast", "slot"])
def test_explicit_single_hop_spec_is_bit_identical_to_default(engine):
    """Passing topology=TopologySpec.single_hop() must not move a single draw."""

    config = SimulationConfig(n=40, seed=3, topology=TopologySpec.single_hop())
    assert run_snapshot("blocker", engine, 3, config=config) == GOLDEN[("blocker", engine, 3)]


@pytest.mark.parametrize("engine", ["fast", "slot"])
def test_multihop_variant_on_single_hop_is_bit_identical(engine):
    """MultiHopBroadcast defers to the base protocol on a clique."""

    snapshot = run_snapshot("splitter", engine, 11, protocol_cls=MultiHopBroadcast)
    assert snapshot == GOLDEN[("splitter", engine, 11)]


@pytest.mark.parametrize("engine", ["fast", "slot"])
def test_same_seed_same_outcome_within_process(engine):
    a = run_snapshot("random", engine, 3)
    b = run_snapshot("random", engine, 3)
    assert a == b


# --------------------------------------------------------------------------- #
# Epoch baselines                                                             #
# --------------------------------------------------------------------------- #

BASELINES = {
    "naive": NaiveBroadcast,
    "ksy": KSYStyleBroadcast,
    "backoff": BalancedBackoffBroadcast,
}

# (baseline, adversary, engine, seed) -> (cost snapshot with informed/slots,
# phase_fields tuples in execution order) at n = 40.
BASELINE_GOLDEN = {
    ("naive", "none", "fast", 3): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("naive", "none", "fast", 11): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("naive", "none", "slot", 3): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("naive", "none", "slot", 11): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("naive", "blocker", "fast", 3): (
        {"alice": 2046.0, "adversary": 2000.0, "node_mean": 1045.0, "node_max": 1045.0, "node_total": 41800.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 32.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 64.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 128.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 256.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 512.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 1024.0, 920.0, 0, 40),
        ),
    ),
    ("naive", "blocker", "fast", 11): (
        {"alice": 2046.0, "adversary": 2000.0, "node_mean": 1045.0, "node_max": 1045.0, "node_total": 41800.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 32.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 64.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 128.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 256.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 512.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 1024.0, 920.0, 0, 40),
        ),
    ),
    ("naive", "blocker", "slot", 3): (
        {"alice": 2046.0, "adversary": 2000.0, "node_mean": 1026.0, "node_max": 1026.0, "node_total": 41040.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 32.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 64.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 128.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 256.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 512.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 1024.0, 160.0, 0, 40),
        ),
    ),
    ("naive", "blocker", "slot", 11): (
        {"alice": 2046.0, "adversary": 2000.0, "node_mean": 1040.0, "node_max": 1040.0, "node_total": 41600.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 32.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 64.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 128.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 256.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 512.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 1024.0, 720.0, 0, 40),
        ),
    ),
    ("naive", "random", "fast", 3): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("naive", "random", "fast", 11): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("naive", "random", "slot", 3): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("naive", "random", "slot", 11): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("ksy", "none", "fast", 3): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("ksy", "none", "fast", 11): (
        {"alice": 1.0, "adversary": 0.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 1.0, 80.0, 0, 40),
        ),
    ),
    ("ksy", "none", "slot", 3): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("ksy", "none", "slot", 11): (
        {"alice": 1.0, "adversary": 0.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 1.0, 80.0, 0, 40),
        ),
    ),
    ("ksy", "blocker", "fast", 3): (
        {"alice": 199.0, "adversary": 2000.0, "node_mean": 1278.0, "node_max": 1278.0, "node_total": 51120.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 3.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 2.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 9.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 9.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 11.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 20.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 30.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 49.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 64.0, 10240.0, 0, 40),
        ),
    ),
    ("ksy", "blocker", "fast", 11): (
        {"alice": 217.0, "adversary": 2000.0, "node_mean": 1534.0, "node_max": 1534.0, "node_total": 61360.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 1.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 4.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 3.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 7.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 17.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 33.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 32.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 43.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 73.0, 20480.0, 0, 40),
        ),
    ),
    ("ksy", "blocker", "slot", 3): (
        {"alice": 188.0, "adversary": 2000.0, "node_mean": 1852.0, "node_max": 1852.0, "node_total": 74080.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 3.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 5.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 5.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 5.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 9.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 19.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 33.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 43.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 64.0, 33200.0, 0, 40),
        ),
    ),
    ("ksy", "blocker", "slot", 11): (
        {"alice": 211.0, "adversary": 2000.0, "node_mean": 1445.0, "node_max": 1445.0, "node_total": 57800.0, "informed": 40, "slots": 2046},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 1.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 3.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 2.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 8.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 10.0, 1280.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 14.0, 2560.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 24.0, 5120.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 28.0, 10240.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 38.0, 20480.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 40, 83.0, 16920.0, 0, 40),
        ),
    ),
    ("ksy", "random", "fast", 3): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("ksy", "random", "fast", 11): (
        {"alice": 4.0, "adversary": 2.0, "node_mean": 4.0, "node_max": 4.0, "node_total": 160.0, "informed": 40, "slots": 6},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 0, 1.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 1, 1.0, 40, 3.0, 80.0, 0, 40),
        ),
    ),
    ("ksy", "random", "slot", 3): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("ksy", "random", "slot", 11): (
        {"alice": 4.0, "adversary": 2.0, "node_mean": 4.0, "node_max": 4.0, "node_total": 160.0, "informed": 40, "slots": 6},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 0, 1.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 1, 1.0, 40, 3.0, 80.0, 0, 40),
        ),
    ),
    ("backoff", "none", "fast", 3): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("backoff", "none", "fast", 11): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("backoff", "none", "slot", 3): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("backoff", "none", "slot", 11): (
        {"alice": 2.0, "adversary": 0.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 0, 0.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
    ("backoff", "blocker", "fast", 3): (
        {"alice": 572.0, "adversary": 2000.0, "node_mean": 386.95, "node_max": 484.0, "node_total": 15478.0, "informed": 40, "slots": 4094},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 20.0, 899.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 32.0, 1338.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 46.0, 1824.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 59.0, 2564.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 97.0, 3626.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 23, 121.0, 3759.0, 17, 23),
            (11, "epoch:11", 2048, 2046, 0, 0.0, 17, 167.0, 268.0, 0, 40),
        ),
    ),
    ("backoff", "blocker", "fast", 11): (
        {"alice": 612.0, "adversary": 2000.0, "node_mean": 365.325, "node_max": 489.0, "node_total": 14613.0, "informed": 40, "slots": 4094},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 27.0, 913.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 38.0, 1260.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 44.0, 1759.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 66.0, 2512.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 102.0, 3662.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 29, 135.0, 3094.0, 11, 29),
            (11, "epoch:11", 2048, 2046, 0, 0.0, 11, 170.0, 213.0, 0, 40),
        ),
    ),
    ("backoff", "blocker", "slot", 3): (
        {"alice": 556.0, "adversary": 2000.0, "node_mean": 393.475, "node_max": 485.0, "node_total": 15739.0, "informed": 40, "slots": 4094},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 20.0, 895.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 32.0, 1282.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 51.0, 1784.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 57.0, 2540.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 88.0, 3689.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 20, 121.0, 4018.0, 20, 20),
            (11, "epoch:11", 2048, 2046, 0, 0.0, 20, 157.0, 331.0, 0, 40),
        ),
    ),
    ("backoff", "blocker", "slot", 11): (
        {"alice": 584.0, "adversary": 2000.0, "node_mean": 367.45, "node_max": 477.0, "node_total": 14698.0, "informed": 40, "slots": 4094},
        (
            (1, "epoch:1", 2, 0, 2, 2.0, 0, 2.0, 80.0, 40, 0),
            (2, "epoch:2", 4, 2, 4, 4.0, 0, 4.0, 160.0, 40, 0),
            (3, "epoch:3", 8, 6, 8, 8.0, 0, 8.0, 320.0, 40, 0),
            (4, "epoch:4", 16, 14, 16, 16.0, 0, 16.0, 640.0, 40, 0),
            (5, "epoch:5", 32, 30, 32, 32.0, 0, 26.0, 940.0, 40, 0),
            (6, "epoch:6", 64, 62, 64, 64.0, 0, 28.0, 1289.0, 40, 0),
            (7, "epoch:7", 128, 126, 128, 128.0, 0, 45.0, 1794.0, 40, 0),
            (8, "epoch:8", 256, 254, 256, 256.0, 0, 55.0, 2560.0, 40, 0),
            (9, "epoch:9", 512, 510, 512, 512.0, 0, 77.0, 3741.0, 40, 0),
            (10, "epoch:10", 1024, 1022, 978, 978.0, 25, 134.0, 3060.0, 15, 25),
            (11, "epoch:11", 2048, 2046, 0, 0.0, 15, 189.0, 114.0, 0, 40),
        ),
    ),
    ("backoff", "random", "fast", 3): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("backoff", "random", "fast", 11): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("backoff", "random", "slot", 3): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 2.0, "node_max": 2.0, "node_total": 80.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 80.0, 0, 40),
        ),
    ),
    ("backoff", "random", "slot", 11): (
        {"alice": 2.0, "adversary": 1.0, "node_mean": 1.0, "node_max": 1.0, "node_total": 40.0, "informed": 40, "slots": 2},
        (
            (1, "epoch:1", 2, 0, 1, 1.0, 40, 2.0, 40.0, 0, 40),
        ),
    ),
}


def phase_fields(event):
    """A ``"phase"`` event as the golden tuple: round, name, num_slots,
    start_slot, jammed_slots, adversary_spend, newly_informed, alice_cost,
    nodes_cost, active_uninformed, terminated (informed + uninformed)."""

    data = event.data
    return (
        event.round_index,
        event.phase,
        data["num_slots"],
        data["start_slot"],
        data["jammed_slots"],
        data["adversary_spend"],
        data["newly_informed"],
        data["alice_cost"],
        data["nodes_cost"],
        data["active_uninformed"],
        data["terminated_informed"] + data["terminated_uninformed"],
    )


def run_baseline(baseline_name, adversary_name, engine, seed, recorder=None):
    """One golden-grid baseline run: ``(snapshot, phase events, outcome)``."""

    kwargs = {"recorder": recorder} if recorder is not None else {}
    protocol = BASELINES[baseline_name](
        SimulationConfig(n=40, seed=seed),
        adversary=ADVERSARIES[adversary_name](),
        engine=engine,
        **kwargs,
    )
    outcome = protocol.run()
    snapshot = protocol.network.cost_snapshot()
    snapshot["informed"] = outcome.delivery.informed
    snapshot["slots"] = outcome.delivery.slots_elapsed
    return snapshot, outcome.events, outcome


def golden_phase_records(key):
    return BASELINE_GOLDEN[key][1]


@pytest.mark.parametrize("baseline_name,adversary_name,engine,seed", sorted(BASELINE_GOLDEN))
def test_baseline_matches_golden(baseline_name, adversary_name, engine, seed):
    key = (baseline_name, adversary_name, engine, seed)
    snapshot, phases, _ = run_baseline(*key)
    assert snapshot == BASELINE_GOLDEN[key][0]
    assert tuple(map(phase_fields, phases)) == golden_phase_records(key)


# seed -> the headline scenario at n = 4096: k = 2, f = 1, fast engine, the
# reference phase blocker capped at 0.9 of Carol's aggregate budget.  Its
# per-node listen, nack and relay costs are 4096-node binomials, drawn from
# ``binomial_iid``'s windowed table at means up to ``WINDOW_MAX_MEAN`` (the
# n = 40 goldens above never reach its ``WINDOW_MIN_SIZE``).  The table draws
# the binomial's distribution, not numpy's samples, so this pins the table's
# stream: against numpy's per-node draws the node-cost digest and Alice's
# cost moved (seed 3: 13,219 → 13,220; seed 11: 13,164 → 13,299), while
# informed, slots and Carol's spend did not.  ``node_costs`` is the sha-256
# of the final ``node_costs()`` float64 bytes.
HEADLINE_GOLDEN = {
    3: {"node_costs": "31c036e3cccb4dd08749faf84ae288f74a7258ffbc0ea44720de68585748e533", "informed": 4096, "slots": 27527289, "alice": 13220.0, "adversary": 3782539.0},
    11: {"node_costs": "ebb1a6362a132676c4d1dedf0fceb3281bd61b3bd4d654e75d2aee627d8eb019", "informed": 4096, "slots": 27527289, "alice": 13299.0, "adversary": 3782539.0},
}


@pytest.mark.parametrize("seed", sorted(HEADLINE_GOLDEN))
def test_headline_scenario_at_n4096_matches_golden(seed):
    config = SimulationConfig(n=4096, seed=seed, k=2, f=1.0)
    adversary = blocking_adversary(0.9 * config.adversary_total_budget)
    protocol = EpsilonBroadcast(config, adversary=adversary, engine="fast")
    outcome = protocol.run()
    network = protocol.network
    assert {
        "node_costs": hashlib.sha256(network.node_costs().tobytes()).hexdigest(),
        "informed": outcome.delivery.informed,
        "slots": outcome.delivery.slots_elapsed,
        "alice": network.alice_cost,
        "adversary": network.adversary_cost,
    } == HEADLINE_GOLDEN[seed]
