"""E11 — multi-hop broadcast over Gilbert graphs across the connectivity threshold.

The paper's game is single-hop: one shared channel, every transmission
audible everywhere.  Its motivating scenario — a dense sensor network over an
area — is multi-hop: radios have range ``r``, the deployment is a Gilbert
random geometric graph, and the message must travel hop by hop via informed
relays.  This experiment runs the :class:`~repro.core.broadcast.MultiHopBroadcast`
variant while sweeping the radio radius across the Gilbert connectivity
threshold ``r_c = sqrt(ln n / (π n))`` (arXiv:1312.4861), plus one
heavy-tailed :class:`~repro.simulation.topology.ScaleFreeGilbert` point, and
measures three things:

* **delivery tracks the giant component** — below the threshold the graph is
  fragmented and only Alice's component can be informed; above it delivery
  approaches 1.  The informative quantity is delivery *relative to* the
  fraction of nodes reachable from Alice.
* **multi-hop costs** — relays re-spend energy per hop, so node costs rise
  with hop count relative to the single-hop game.
* **spatial jamming** — a disk-jamming Carol (the geometric analogue of the
  paper's n-uniform splitter) delays or strands the disk only while her
  budget lasts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.stats import aggregate_records
from ..core.broadcast import MultiHopBroadcast
from ..simulation.config import SimulationConfig
from ..simulation.topology import TopologySpec, gilbert_connectivity_radius
from ..tournament.roster import build_topology_spec, static_disk, topology_grid
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E11"
TITLE = "Multi-hop delivery over Gilbert graphs across the connectivity threshold"
CLAIM = (
    "With hop-by-hop relaying, delivery tracks the fraction of nodes reachable from Alice: "
    "it collapses below the Gilbert connectivity radius, saturates above it, and a "
    "disk-jamming Carol can only delay her disk while her budget lasts"
)


_FULL_MULTIPLIERS = (0.6, 0.9, 1.3, 2.0, 3.0)
"""Radius multiples of ``r_c`` the full (``quick=False``) sweep runs."""


def _regime(name: str) -> float:
    """The roster's ``sub`` / ``near`` / ``super`` threshold radius multiplier."""

    return topology_grid()[f"gilbert-{name}"].radius_multiplier


def _multipliers(quick: bool) -> List[float]:
    if not quick:
        return list(_FULL_MULTIPLIERS)
    # The roster's sub-, near- and super-threshold regimes.
    return [
        entry.radius_multiplier for entry in topology_grid().values() if entry.kind == "gilbert"
    ]


def _label(multiplier: float) -> str:
    return f"gilbert r={multiplier:g}·r_c"


def _scenarios(settings: ExperimentSettings):
    multipliers = _multipliers(settings.quick)
    scenarios = [(_label(m), "gilbert", m, None) for m in multipliers]
    scenarios.append(("scale-free (α=2.5)", "scale_free", None, None))
    jam_multiplier = multipliers[-1]
    scenarios.append(
        (f"{_label(jam_multiplier)} + disk jam", "gilbert", jam_multiplier, "spatial")
    )
    return scenarios


def _trial(
    seed: int,
    n: int,
    kind: str,
    radius: Optional[float],
    attack: Optional[str],
) -> dict:
    """One E11 trial: multi-hop relaying over the scenario's topology."""

    if kind == "gilbert":
        spec = TopologySpec.gilbert(radius=radius)
    else:
        spec = build_topology_spec("scale-free", n)
    config = SimulationConfig(n=n, k=2, f=1.0, seed=seed, topology=spec)
    adversary = static_disk(None) if attack == "spatial" else None
    protocol = MultiHopBroadcast(config, adversary=adversary)
    outcome = protocol.run()
    topology = protocol.network.topology
    reachable = len(topology.reachable_from_alice())
    record = outcome.as_record()
    record["reachable_fraction"] = reachable / n
    record["delivery_vs_reachable"] = (
        outcome.delivery.informed / reachable if reachable else 1.0
    )
    return record


def run(settings: ExperimentSettings) -> ExperimentResult:
    n = settings.n
    r_c = gilbert_connectivity_radius(n)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "scenario",
            "radius",
            "reachable_fraction",
            "delivery_fraction",
            "delivery_vs_reachable",
            "mean_node_cost",
            "alice_cost",
            "carol_spend",
            "slots",
        ],
    )

    scenarios = _scenarios(settings)
    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            label,
            n=n,
            kind=kind,
            radius=(multiplier * r_c if multiplier is not None else None),
            attack=attack,
        )
        for label, kind, multiplier, attack in scenarios
    ]
    per_point = run_sweep(specs, settings)

    for (label, kind, multiplier, attack), records in zip(scenarios, per_point):
        summary = aggregate_records(records)
        result.add_row(
            scenario=label,
            radius=(round(multiplier * r_c, 4) if multiplier is not None else "pareto"),
            reachable_fraction=summary["reachable_fraction"].mean,
            delivery_fraction=summary["delivery_fraction"].mean,
            delivery_vs_reachable=summary["delivery_vs_reachable"].mean,
            mean_node_cost=summary["node_mean_cost"].mean,
            alice_cost=summary["alice_cost"].mean,
            carol_spend=summary["adversary_spend"].mean,
            slots=summary["slots"].mean,
        )

    result.add_note(
        "Below the connectivity threshold the Gilbert graph fragments; delivery then tracks "
        "the reachable (Alice-component) fraction, which is the correct yardstick — the "
        "protocol cannot inform nodes no radio path reaches."
    )
    result.add_note(
        "Runs use the default degree-aware quiet rule (repro.core.quietrule): per-node "
        "request-phase budgets from the three-hop neighbourhood size replace the paper's "
        "global channel-quiet test, fixing its two sparse-topology misfires — the "
        "near-threshold delivery_vs_reachable dip (locally quiet nodes no longer give up "
        "ahead of the relay frontier) and the sub-threshold mean_node_cost blowup "
        "(Alice-less components stop on their budgets instead of running to the round cap).  "
        "E13 is the rule ablation.  Sub-threshold stragglers with super-critical "
        "neighbourhoods no longer hold the channel to the round cap: once no live message "
        "holder can reach them the orchestrator truncates the schedule (the slots column "
        "stays orders of magnitude below the cap)."
    )
    result.add_note(
        "The disk jammer is the geometric analogue of §2.3's n-uniform splitter: she pays "
        "full price per jammed payload phase and only postpones her disk until broke."
    )
    return result


def _rows(panel: Sequence[ExperimentResult], keep: Callable[[float], bool]) -> List[dict]:
    """The unjammed Gilbert rows whose radius multiplier passes ``keep``.

    Rows are matched by their exact scenario label, for either sweep size.
    """

    multipliers = set(_multipliers(True)) | set(_multipliers(False))
    labels = {_label(m) for m in multipliers if keep(m)}
    return [row for row in panel[0].rows if row["scenario"] in labels]


def _sub(panel: Sequence[ExperimentResult]) -> List[dict]:
    return _rows(panel, lambda m: m <= _regime("sub"))


def _near(panel: Sequence[ExperimentResult]) -> List[dict]:
    return _rows(panel, lambda m: m == _regime("near"))


def _sup(panel: Sequence[ExperimentResult]) -> List[dict]:
    return _rows(panel, lambda m: m >= _regime("super"))


CHECKS: Dict[str, Claim] = {
    "threshold_scenarios_present": lambda panel: bool(_sub(panel) and _near(panel) and _sup(panel)),
    # Below the connectivity threshold the graph fragments: only a small
    # fraction of the network is even reachable from Alice.
    "sub_threshold_fragments": lambda panel: all(
        row["reachable_fraction"] < 0.8 for row in _sub(panel)
    ),
    # Well above it the giant component spans (essentially) everyone and
    # multi-hop relaying reaches most of it.
    "super_threshold_spans": lambda panel: all(
        row["reachable_fraction"] > 0.9 for row in _sup(panel)
    ),
    "super_threshold_delivers": lambda panel: all(
        row["delivery_vs_reachable"] > 0.7 for row in _sup(panel)
    ),
    # Near the threshold the giant component already spans (essentially)
    # everyone, and relaying reaches most of it.
    "near_threshold_spans_and_delivers": lambda panel: all(
        row["reachable_fraction"] > 0.9 and row["delivery_vs_reachable"] > 0.7
        for row in _near(panel)
    ),
    # Delivery can never exceed what the radio graph reaches.
    "delivery_within_reach": lambda panel: all(
        row["delivery_fraction"] <= row["reachable_fraction"] + 1e-9 for row in panel[0].rows
    ),
    # Quiet-rule acceptance, both misfire directions (E13 is the full
    # ablation).  Direction 1: near the threshold the degree-aware default
    # must not give up ahead of the relay frontier — delivery-vs-reachable
    # stays ~1 where the paper rule dipped to ~0.9.
    "near_threshold_no_early_give_up": lambda panel: all(
        row["delivery_vs_reachable"] >= 0.9 for row in _near(panel)
    ),
    # Direction 2: sub-threshold Alice-less components stop on their budgets
    # instead of running to the round cap (the paper rule's mean_node_cost
    # here was ~15000).
    "sub_threshold_cost_bounded": lambda panel: all(
        row["mean_node_cost"] <= 5000 for row in _sub(panel)
    ),
}
