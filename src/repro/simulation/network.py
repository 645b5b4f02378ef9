"""The network container.

:class:`Network` instantiates the whole cast of the Alice-versus-Carol game
from a :class:`~repro.simulation.config.SimulationConfig`: Alice, the ``n``
correct nodes, the (aggregate) adversary ledger for Carol plus her Byzantine
devices, the shared channel, the authenticator, and the root random source.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence

import numpy as np

from .auth import ALICE_ID, Authenticator
from .channel import Channel
from .config import SimulationConfig
from .energy import BudgetPolicy, EnergyLedger, LedgerArray
from .errors import ConfigurationError
from .node import Device, Role
from .rng import RandomSource
from .topology import Topology, build_topology

__all__ = ["Network"]


class Network:
    """All devices and shared infrastructure for one simulation run.

    Parameters
    ----------
    config:
        The model parameters.
    seed:
        Optional seed override; defaults to ``config.seed``.
    enforce_adversary_budget:
        When ``True`` (default) the adversary ledger uses the ``CAP`` policy,
        so Carol physically cannot jam once her aggregate budget is exhausted
        — exactly the mechanism Lemma 11 relies on.
    topology:
        Optional pre-built :class:`~repro.simulation.topology.Topology`.
        When omitted, the topology is realised from ``config.topology``
        (single-hop when that is ``None``) using the network's own seeded
        random source, so runs stay a pure function of the seed; spatial
        graphs are held as a CSR neighbour list, whose footprint
        :meth:`topology_memory_bytes` reports.
    """

    def __init__(
        self,
        config: SimulationConfig,
        seed: int | None = None,
        enforce_adversary_budget: bool = True,
        topology: Topology | None = None,
    ) -> None:
        self.config = config
        self.random_source = RandomSource(config.seed if seed is None else seed)
        if topology is not None:
            if topology.n != config.n:
                raise ConfigurationError(
                    f"topology is over n={topology.n} nodes but config has n={config.n}"
                )
            self.topology = topology
        else:
            self.topology = build_topology(config.topology, config.n, self.random_source)
        self.channel = Channel(topology=self.topology)
        self.authenticator = Authenticator()
        self.message_payload = "m"
        self.message_signature = self.authenticator.sign(self.message_payload)

        self.alice = Device.alice(budget=config.alice_budget)
        # The n correct nodes are a homogeneous population charged in bulk by
        # the vectorised engine every phase: their accounting lives in one
        # array-backed ledger, and each Device holds a per-row view that
        # satisfies the full EnergyLedger interface.
        self.node_ledgers = LedgerArray(
            "node", config.n, config.node_budget, policy=BudgetPolicy.RECORD
        )
        adversary_policy = BudgetPolicy.CAP if enforce_adversary_budget else BudgetPolicy.RECORD
        self.adversary_ledger = EnergyLedger(
            owner="carol",
            budget=config.adversary_total_budget,
            policy=adversary_policy,
        )

    # ------------------------------------------------------------------ #
    # Lookup helpers                                                      #
    # ------------------------------------------------------------------ #

    @cached_property
    def nodes(self) -> List[Device]:
        """The ``n`` correct devices, each a view of its ``node_ledgers`` row.

        Built on first access: only per-device lookups and the slot engine's
        per-slot charging need them, and ``n`` device objects are most of a
        large network's construction time.
        """

        return [
            Device(device_id=i, role=Role.CORRECT, ledger=self.node_ledgers.view(i))
            for i in range(self.config.n)
        ]

    @property
    def n(self) -> int:
        """Number of correct nodes."""

        return self.config.n

    def device(self, device_id: int) -> Device:
        """Return the device with the given id (Alice is ``-1``)."""

        if device_id == ALICE_ID:
            return self.alice
        if 0 <= device_id < self.config.n:
            return self.nodes[device_id]
        raise ConfigurationError(f"unknown device id {device_id}")

    def node_ids(self) -> Sequence[int]:
        """All correct node ids, in order."""

        return range(self.config.n)

    def topology_memory_bytes(self) -> int:
        """Bytes held by the realised radio-graph adjacency.

        Spatial topologies count their CSR arrays; the implicit single-hop
        topology stores nothing.  Benchmarks use this to verify that large-n
        runs stay within the ``O(n + |edges|)`` memory envelope.
        """

        return self.topology.memory_bytes()

    # ------------------------------------------------------------------ #
    # Cost accounting                                                     #
    # ------------------------------------------------------------------ #

    @property
    def alice_cost(self) -> float:
        return self.alice.ledger.spent

    @property
    def adversary_cost(self) -> float:
        return self.adversary_ledger.spent

    def node_costs(self) -> np.ndarray:
        """Vector of per-node energy expenditure (index = node id)."""

        return self.node_ledgers.spent_array()

    def max_node_cost(self) -> float:
        if not self.config.n:
            return 0.0
        return float(self.node_ledgers.spent_array().max())

    def mean_node_cost(self) -> float:
        if not self.config.n:
            return 0.0
        return float(np.mean(self.node_costs()))

    def total_correct_cost(self) -> float:
        """Aggregate cost of Alice plus every correct node."""

        return self.alice_cost + float(self.node_costs().sum())

    def cost_snapshot(self) -> Dict[str, float]:
        """A flat summary used by outcomes, metrics, and reports."""

        costs = self.node_costs()
        return {
            "alice": self.alice_cost,
            "adversary": self.adversary_cost,
            "node_mean": float(costs.mean()) if costs.size else 0.0,
            "node_max": float(costs.max()) if costs.size else 0.0,
            "node_total": float(costs.sum()),
        }

    def budget_overruns(self) -> Dict[str, float]:
        """Per-participant budget overdrafts (empty when all budgets held)."""

        overruns: Dict[str, float] = {}
        if self.alice.ledger.overdraft > 0:
            overruns["alice"] = self.alice.ledger.overdraft
        node_overdrafts = self.node_ledgers.overdraft_array()
        for node_id in np.flatnonzero(node_overdrafts > 0):
            overruns[self.nodes[int(node_id)].label] = float(node_overdrafts[node_id])
        if self.adversary_ledger.overdraft > 0:
            overruns["carol"] = self.adversary_ledger.overdraft
        return overruns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network({self.config.describe()})"
