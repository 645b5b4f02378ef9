"""The network container.

:class:`Network` instantiates the whole cast of the Alice-versus-Carol game
from a :class:`~repro.simulation.config.SimulationConfig`.  Each side of the
game is its energy ledger: Alice's :class:`EnergyLedger`, one
:class:`LedgerArray` row per correct node (node ``i`` is row ``i``), and the
aggregate ledger of Carol plus her Byzantine devices.  Protocol state lives in
:mod:`repro.core.state`; the network adds the radio graph and the root random
source.  The shared channel and Alice's authenticator belong to the slot
engine, the only code that resolves frames.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .config import SimulationConfig
from .energy import BudgetPolicy, EnergyLedger, LedgerArray
from .errors import ConfigurationError
from .rng import RandomSource
from .topology import Topology, build_topology

__all__ = ["Network"]


class Network:
    """Every side's energy ledger and the shared infrastructure for one run.

    Parameters
    ----------
    config:
        The model parameters.
    seed:
        Optional seed override; defaults to ``config.seed``.
    topology:
        Optional pre-built :class:`~repro.simulation.topology.Topology`.
        When omitted, the topology is realised from ``config.topology``
        (single-hop when that is ``None``) using the network's own seeded
        random source, so runs stay a pure function of the seed; spatial
        graphs are held as a CSR neighbour list, whose footprint
        ``network.topology.memory_bytes()`` reports.
    """

    def __init__(
        self,
        config: SimulationConfig,
        seed: int | None = None,
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

        self.alice_ledger = EnergyLedger("alice", config.alice_budget)
        # The n correct nodes are a homogeneous population: their accounting
        # is one array-backed ledger whose row i is node i.
        self.node_ledgers = LedgerArray("node", config.n, config.node_budget)
        # Carol's ledger caps: she physically cannot jam once her aggregate
        # budget is exhausted — exactly the mechanism Lemma 11 relies on.
        self.adversary_ledger = EnergyLedger(
            owner="carol", budget=config.adversary_total_budget, policy=BudgetPolicy.CAP
        )

    @property
    def n(self) -> int:
        """Number of correct nodes."""

        return self.config.n

    # ------------------------------------------------------------------ #
    # Cost accounting                                                     #
    # ------------------------------------------------------------------ #

    @property
    def alice_cost(self) -> float:
        return self.alice_ledger.spent

    @property
    def adversary_cost(self) -> float:
        return self.adversary_ledger.spent

    def node_costs(self) -> np.ndarray:
        """Vector of per-node energy expenditure (index = node id)."""

        return self.node_ledgers.spent_array()

    def cost_snapshot(self) -> Dict[str, float]:
        """A flat summary used by outcomes, metrics, and reports."""

        nodes = self.node_ledgers
        return {
            "alice": self.alice_cost,
            "adversary": self.adversary_cost,
            "node_mean": nodes.total_spent / nodes.count if nodes.count else 0.0,
            "node_max": nodes.max_spent(),
            "node_total": nodes.total_spent,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network({self.config.describe()})"
