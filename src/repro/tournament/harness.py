"""The round-robin adversary–protocol tournament.

One call to :func:`run_tournament` expands a set of
(adversary × protocol × topology) cells into a flat list of
:class:`~repro.experiments.runner.TrialSpec` sweep points — one per
(cell × spend fraction) — and routes *all* of them through one
:func:`~repro.experiments.runner.run_sweep` call, so the whole grid shares
the process pool and the content-addressed trial cache.  Each cell's
trials' cost-versus-spend points then get a resource-competitiveness
exponent fit (:func:`~repro.analysis.fitting.fit_cost_exponent`),
flagged-sentinel semantics included: a degenerate cell never aborts the
tournament.

Budgets are matched across cells by expressing Carol's self-imposed spend
cap as a *fraction of her aggregate ledger budget* — the same
``config.adversary_total_budget`` scale every E-numbered experiment sweeps —
so "bursty at 40%" and "reactive disk at 40%" are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.fitting import ExponentFit, fit_cost_exponent

if TYPE_CHECKING:  # runtime import stays lazy: experiments imports tournament
    from ..experiments.harness import ExperimentSettings
from ..simulation.config import SimulationConfig
from .roster import (
    adversary_roster,
    adversary_supports_topology,
    build_adversary,
    build_protocol,
    build_topology_spec,
    protocol_roster,
    topology_grid,
)

__all__ = [
    "SPEND_FRACTIONS",
    "CellResult",
    "TournamentCell",
    "TournamentResult",
    "run_tournament",
    "tournament_cells",
]

SPEND_FRACTIONS: Tuple[float, ...] = (0.05, 0.15, 0.4, 0.9)
"""Default spend sweep, as fractions of Carol's aggregate budget.

Geometric-ish spacing with an 18× dynamic range: wide enough that the
fitted exponent is a slope, not noise (see ``fit_cost_exponent``'s
``degenerate-spend-range`` sentinel)."""


@dataclass(frozen=True)
class TournamentCell:
    """One (adversary, protocol, topology) combination."""

    adversary: str
    protocol: str
    topology: str

    @property
    def key(self) -> str:
        return f"{self.adversary}|{self.protocol}|{self.topology}"


@dataclass(frozen=True)
class CellResult:
    """One cell's aggregated sweep series and fitted exponents.

    The per-fraction tuples are trial means, ordered by ``spend_fractions``.
    ``node_fit`` is the headline resource-competitiveness exponent (max
    per-node cost versus realised spend, the quantity Theorem 1 bounds by
    ``T^{1/(k+1)}``), fitted over every trial's point; ``alice_fit`` is the
    sender-side analogue.
    """

    cell: TournamentCell
    spend_fractions: Tuple[float, ...]
    spends: Tuple[float, ...]
    node_max_costs: Tuple[float, ...]
    node_mean_costs: Tuple[float, ...]
    alice_costs: Tuple[float, ...]
    delivery_min: float
    node_fit: ExponentFit
    alice_fit: ExponentFit
    params: Tuple[Tuple[str, float], ...] = ()

    def as_record(self) -> dict:
        record = {
            "adversary": self.cell.adversary,
            "protocol": self.cell.protocol,
            "topology": self.cell.topology,
            "delivery_min": self.delivery_min,
            "max_spend": max(self.spends) if self.spends else 0.0,
            "max_node_cost": max(self.node_max_costs) if self.node_max_costs else 0.0,
        }
        record.update({f"node_{k}": v for k, v in self.node_fit.as_record().items()})
        record.update({f"alice_{k}": v for k, v in self.alice_fit.as_record().items()})
        return record


@dataclass(frozen=True)
class TournamentResult:
    """All cell results of one tournament run, in grid order."""

    cells: Tuple[CellResult, ...]

    def by_protocol(self) -> Dict[str, List[CellResult]]:
        """Cells grouped by protocol, each group ranked worst-first.

        Within a protocol, cells sort by the descending lower edge of the
        node exponent's 95% interval, then by the exponent itself — the
        adversary that provably drives the steepest cost growth ranks first,
        and an undetermined fit (an interval reaching down to 0) cannot
        outrank a determined one on its point estimate alone; flagged cells
        sink to the bottom (tie-broken by observed damage).
        """

        grouped: Dict[str, List[CellResult]] = {}
        for result in self.cells:
            grouped.setdefault(result.cell.protocol, []).append(result)
        for results in grouped.values():
            results.sort(key=_rank_key)
        return grouped

    def worst_per_protocol(self) -> Dict[str, CellResult]:
        """The single worst observed (adversary, topology) cell per protocol."""

        return {protocol: results[0] for protocol, results in self.by_protocol().items()}

    def get(self, cell: TournamentCell) -> Optional[CellResult]:
        for result in self.cells:
            if result.cell == cell:
                return result
        return None


def _rank_key(result: CellResult) -> Tuple[float, float, float, str]:
    fit = result.node_fit
    low, exponent = (fit.ci_low, fit.exponent) if fit.ok else (float("-inf"), float("-inf"))
    # Flagged ties fall back to raw damage so "worst observed" is still
    # defined on an all-flagged protocol column.
    return (-low, -exponent, -max(result.node_max_costs, default=0.0), result.cell.key)


def tournament_cells(
    adversaries: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
    topologies: Optional[Sequence[str]] = None,
) -> List[TournamentCell]:
    """The compatibility-filtered round-robin grid, in deterministic order.

    ``None`` selects the full roster.  Two filters apply: a protocol only
    runs on its declared topology kinds (single-hop protocols on the shared
    channel, multi-hop variants on spatial graphs), and disk adversaries
    skip the positionless single-hop channel.
    """

    adversary_names = list(adversaries) if adversaries is not None else sorted(adversary_roster())
    protocol_entries = protocol_roster()
    protocol_names = list(protocols) if protocols is not None else sorted(protocol_entries)
    grid = topology_grid()
    topology_names = list(topologies) if topologies is not None else sorted(grid)

    cells: List[TournamentCell] = []
    for topology in topology_names:
        kind = grid[topology].kind
        for protocol in protocol_names:
            if kind not in protocol_entries[protocol].topology_kinds:
                continue
            for adversary in adversary_names:
                if not adversary_supports_topology(adversary, kind):
                    continue
                cells.append(TournamentCell(adversary, protocol, topology))
    return cells


def tournament_trial(
    seed: int,
    n: int,
    adversary: str,
    protocol: str,
    topology: str,
    spend_fraction: float,
    adversary_params: Tuple[Tuple[str, float], ...] = (),
) -> dict:
    """One tournament trial (top-level so the process pool can pickle it).

    The cell is rebuilt from roster names inside the worker; Carol's spend
    cap is ``spend_fraction`` of her aggregate budget for this ``(n, k)``.
    """

    spec = build_topology_spec(topology, n)
    config = SimulationConfig(n=n, k=2, f=1.0, seed=seed, topology=spec)
    cap = spend_fraction * config.adversary_total_budget
    strategy = build_adversary(adversary, cap, adversary_params)
    orchestrator = build_protocol(protocol, config, strategy)
    outcome = orchestrator.run()
    record = outcome.as_record()
    record["spend_fraction"] = spend_fraction
    record["spend_cap"] = cap
    return record


def run_tournament(
    settings: ExperimentSettings,
    *,
    cells: Optional[Sequence[TournamentCell]] = None,
    spend_fractions: Sequence[float] = SPEND_FRACTIONS,
    adversary_params: Optional[Mapping[str, Mapping[str, float]]] = None,
    label: str = "T",
) -> TournamentResult:
    """Run the grid through one ``run_sweep`` call and fit every cell.

    Parameters
    ----------
    settings:
        An :class:`~repro.experiments.harness.ExperimentSettings`; supplies
        ``n``, trials, seeds, and the jobs/cache knobs.
    cells:
        Grid to run; defaults to the full :func:`tournament_cells` grid.
    spend_fractions:
        Carol's spend caps as fractions of her aggregate budget.
    adversary_params:
        Optional per-adversary parameter overrides (``name → {param: value}``),
        e.g. an optimiser's winning configuration.
    label:
        Leading seed/cache label; distinct labels give distinct trial seeds.
    """

    from ..experiments.runner import TrialSpec, run_sweep

    if cells is None:
        cells = tournament_cells()
    cells = list(cells)
    fractions = [float(f) for f in spend_fractions]
    overrides = adversary_params or {}

    specs = []
    for cell in cells:
        params = _frozen_params(overrides.get(cell.adversary, ()))
        for fraction in fractions:
            specs.append(
                TrialSpec.point(
                    tournament_trial,
                    label,
                    cell.adversary,
                    cell.protocol,
                    cell.topology,
                    f"{fraction:g}",
                    n=settings.n,
                    adversary=cell.adversary,
                    protocol=cell.protocol,
                    topology=cell.topology,
                    spend_fraction=fraction,
                    adversary_params=params,
                )
            )
    per_point = run_sweep(specs, settings)

    results: List[CellResult] = []
    for index, cell in enumerate(cells):
        point_records = per_point[index * len(fractions) : (index + 1) * len(fractions)]
        results.append(
            _fit_cell(cell, fractions, point_records, _frozen_params(overrides.get(cell.adversary, ())))
        )
    return TournamentResult(cells=tuple(results))


def _frozen_params(
    params: Optional[Mapping[str, float]]
) -> Tuple[Tuple[str, float], ...]:
    """Overrides as a sorted tuple of pairs: picklable, cache-tokenisable."""

    if not params:
        return ()
    items = dict(params).items()
    return tuple(sorted((str(name), value) for name, value in items))


def _fit_cell(
    cell: TournamentCell,
    fractions: Sequence[float],
    point_records: Sequence[Sequence[dict]],
    params: Tuple[Tuple[str, float], ...],
) -> CellResult:
    spends = tuple(_mean(records, "adversary_spend") for records in point_records)
    node_max = tuple(_mean(records, "node_max_cost") for records in point_records)
    node_mean = tuple(_mean(records, "node_mean_cost") for records in point_records)
    alice = tuple(_mean(records, "alice_cost") for records in point_records)
    trial_spends = _pooled(point_records, "adversary_spend")
    return CellResult(
        cell=cell,
        spend_fractions=tuple(fractions),
        spends=spends,
        node_max_costs=node_max,
        node_mean_costs=node_mean,
        alice_costs=alice,
        delivery_min=min(_pooled(point_records, "delivery_fraction"), default=float("nan")),
        node_fit=fit_cost_exponent(trial_spends, _pooled(point_records, "node_max_cost")),
        alice_fit=fit_cost_exponent(trial_spends, _pooled(point_records, "alice_cost")),
        params=params,
    )


def _mean(records: Sequence[dict], key: str) -> float:
    if not records:
        return float("nan")
    return float(np.mean([record[key] for record in records]))


def _pooled(point_records: Sequence[Sequence[dict]], key: str) -> List[float]:
    """``key`` of every trial of every point, in point order."""

    return [record[key] for records in point_records for record in records]
