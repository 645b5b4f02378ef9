"""Resource-competitiveness analysis of measured runs.

The paper's central quantity is the relationship between Carol's total spend
``T`` and what Alice / each correct node had to spend in response.  This
module turns a collection of :class:`~repro.core.outcome.BroadcastOutcome`
objects (typically one per adversary-budget setting) into fitted cost
exponents and competitive-ratio summaries that experiments compare against
Theorem 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..core.outcome import BroadcastOutcome
from .bounds import cost_exponent
from .fitting import PowerLawFit, fit_power_law_with_offset

__all__ = [
    "CompetitivenessReport",
    "ExponentFit",
    "analyze_outcomes",
    "fit_cell_exponent",
    "summarize_ratios",
]


@dataclass(frozen=True)
class CompetitivenessReport:
    """Fitted cost scaling for one protocol across a sweep of adversary spends."""

    protocol: str
    k: int
    adversary_spends: tuple
    alice_costs: tuple
    node_max_costs: tuple
    node_mean_costs: tuple
    alice_fit: Optional[PowerLawFit]
    node_fit: Optional[PowerLawFit]
    predicted_exponent: float

    @property
    def alice_exponent(self) -> Optional[float]:
        return self.alice_fit.exponent if self.alice_fit else None

    @property
    def node_exponent(self) -> Optional[float]:
        return self.node_fit.exponent if self.node_fit else None

    def exponent_gap(self) -> Optional[float]:
        """How far the measured node exponent sits from the predicted ``1/(k+1)``."""

        if self.node_fit is None:
            return None
        return self.node_fit.exponent - self.predicted_exponent

    def lines(self) -> List[str]:
        """Human-readable report lines (E1 adds them to its notes)."""

        rows = [
            f"protocol={self.protocol}  k={self.k}  predicted exponent 1/(k+1)={self.predicted_exponent:.3f}",
        ]
        if self.alice_fit is not None:
            rows.append(f"  Alice cost vs T:    {self.alice_fit}")
        if self.node_fit is not None:
            rows.append(f"  node max cost vs T: {self.node_fit}")
        return rows


def analyze_outcomes(
    outcomes: Sequence[BroadcastOutcome],
    min_spend: float = 1.0,
) -> CompetitivenessReport:
    """Fit cost-versus-spend exponents for a sweep of outcomes of one protocol.

    Outcomes with adversary spend below ``min_spend`` anchor the additive
    (no-jamming) offset but are excluded from the log-log fit.
    """

    if not outcomes:
        raise ValueError("at least one outcome is required")
    protocol = outcomes[0].protocol
    k = outcomes[0].config.k

    spends = np.array([o.adversary_spend for o in outcomes], dtype=float)
    alice = np.array([o.alice_cost for o in outcomes], dtype=float)
    node_max = np.array([o.max_node_cost for o in outcomes], dtype=float)
    node_mean = np.array([o.mean_node_cost for o in outcomes], dtype=float)

    order = np.argsort(spends)
    spends, alice, node_max, node_mean = (
        spends[order],
        alice[order],
        node_max[order],
        node_mean[order],
    )

    mask = spends >= min_spend
    alice_fit = node_fit = None
    if mask.sum() >= 2:
        alice_fit = fit_power_law_with_offset(spends[mask], alice[mask])
        node_fit = fit_power_law_with_offset(spends[mask], node_max[mask])

    return CompetitivenessReport(
        protocol=protocol,
        k=k,
        adversary_spends=tuple(spends),
        alice_costs=tuple(alice),
        node_max_costs=tuple(node_max),
        node_mean_costs=tuple(node_mean),
        alice_fit=alice_fit,
        node_fit=node_fit,
        predicted_exponent=cost_exponent(k),
    )


@dataclass(frozen=True)
class ExponentFit:
    """A tournament cell's fitted cost exponent, or a flagged sentinel.

    The tournament fits ``cost ≈ c · T^ρ`` per (adversary, protocol,
    topology) cell, but many cells are legitimately degenerate — a spatial
    jammer on a single-hop network never spends, a capped adversary's spend
    saturates, a baseline's cost is flat in ``T``.  Those cells come back
    *flagged* with ``reason`` set instead of raising or diverging, so a
    full leaderboard sweep never aborts on one pathological cell.

    ``ci_low``/``ci_high`` bound the exponent with a large-sample 95%
    interval from the log–log regression slope's standard error — a
    deterministic quantity (no bootstrap resampling), which keeps
    LEADERBOARD.md byte-identical across regenerations.
    """

    exponent: float
    ci_low: float
    ci_high: float
    r_squared: float
    n_points: int
    flagged: bool = False
    reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.flagged

    def label(self) -> str:
        """Compact table cell: ``0.312 [0.28, 0.35]`` or ``— (reason)``."""

        if self.flagged:
            return f"— ({self.reason})"
        return f"{self.exponent:.3f} [{self.ci_low:.2f}, {self.ci_high:.2f}]"

    def as_record(self) -> dict:
        return {
            "exponent": self.exponent,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
            "flagged": self.flagged,
            "reason": self.reason,
        }


def _flagged(reason: str, n_points: int, exponent: float = float("nan")) -> ExponentFit:
    return ExponentFit(
        exponent=exponent,
        ci_low=float("nan"),
        ci_high=float("nan"),
        r_squared=float("nan"),
        n_points=n_points,
        flagged=True,
        reason=reason,
    )


def fit_cell_exponent(
    spends: Sequence[float],
    costs: Sequence[float],
    *,
    min_spend: float = 1.0,
    flat_rtol: float = 0.05,
    min_spend_ratio: float = 2.0,
) -> ExponentFit:
    """Fit ``cost ≈ c · spend^ρ`` for one tournament cell, never raising.

    Points with spend below ``min_spend`` (the no-jamming anchor) are
    dropped before fitting.  Degenerate series return a flagged sentinel:

    * fewer than two usable points → ``insufficient-points``;
    * all costs ≤ 0 → ``zero-cost``;
    * spend dynamic range below ``min_spend_ratio`` → ``degenerate-spend-range``
      (a slope over a near-constant abscissa is noise, not an exponent);
    * costs flat within ``flat_rtol`` → ``flat-cost`` with exponent 0.0 —
      the protocol's spend demonstrably does not scale with Carol's.
    """

    x = np.asarray(spends, dtype=float)
    y = np.asarray(costs, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"spends and costs must have the same shape, got {x.shape} vs {y.shape}")

    usable = np.isfinite(x) & np.isfinite(y) & (x >= min_spend) & (x > 0)
    x, y = x[usable], y[usable]
    if x.size >= 1 and np.all(y <= 0):
        return _flagged("zero-cost", int(x.size))
    positive = y > 0
    x, y = x[positive], y[positive]
    n = int(x.size)
    if n < 2:
        return _flagged("insufficient-points", n)
    if float(x.max()) < min_spend_ratio * float(x.min()):
        return _flagged("degenerate-spend-range", n)
    if float(y.max() - y.min()) <= flat_rtol * float(y.max()):
        return _flagged("flat-cost", n, exponent=0.0)

    order = np.argsort(x, kind="stable")
    log_x = np.log(x[order])
    log_y = np.log(y[order])
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predictions = slope * log_x + intercept
    residual = float(np.sum((log_y - predictions) ** 2))
    total = float(np.sum((log_y - log_y.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0

    if n > 2:
        sxx = float(np.sum((log_x - log_x.mean()) ** 2))
        se = float(np.sqrt((residual / (n - 2)) / sxx)) if sxx > 0 else 0.0
    else:
        se = 0.0  # two points pin the line; the interval collapses
    half_width = 1.96 * se
    return ExponentFit(
        exponent=float(slope),
        ci_low=float(slope - half_width),
        ci_high=float(slope + half_width),
        r_squared=float(r_squared),
        n_points=n,
    )


def summarize_ratios(outcomes: Iterable[BroadcastOutcome]) -> dict:
    """Aggregate competitive ratios and load-balance figures across outcomes."""

    outcomes = list(outcomes)
    if not outcomes:
        return {}
    alice_ratios = [o.alice_competitive_ratio for o in outcomes if np.isfinite(o.alice_competitive_ratio)]
    node_ratios = [o.node_competitive_ratio for o in outcomes if np.isfinite(o.node_competitive_ratio)]
    load = [o.load_balance_ratio for o in outcomes if np.isfinite(o.load_balance_ratio)]
    return {
        "runs": len(outcomes),
        "alice_ratio_mean": float(np.mean(alice_ratios)) if alice_ratios else float("nan"),
        "alice_ratio_max": float(np.max(alice_ratios)) if alice_ratios else float("nan"),
        "node_ratio_mean": float(np.mean(node_ratios)) if node_ratios else float("nan"),
        "node_ratio_max": float(np.max(node_ratios)) if node_ratios else float("nan"),
        "load_balance_mean": float(np.mean(load)) if load else float("nan"),
        "delivery_fraction_min": float(min(o.delivery_fraction for o in outcomes)),
    }
