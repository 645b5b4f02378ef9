"""Empirical exponent fitting.

The headline claims of the paper are power laws — per-device cost
``Õ(T^{1/(k+1)})``, latency ``O(n^{1+1/k})`` — so the experiments need a small
amount of regression machinery to turn measured (x, y) series into fitted
exponents with goodness-of-fit information.  Everything here is numpy-only,
and every cost-versus-spend exponent in the repository comes from the one
estimator :func:`fit_cost_exponent`; :func:`fit_power_law` serves only
latency-versus-n.

The cost model ``y ≈ c·T^α`` is solved by variable projection (Golub &
Pereyra, SIAM J. Numer. Anal. 10(2), 1973): for a fixed ``α`` the model is
linear in ``c``, so the weighted least squares for ``c`` is solved exactly in
closed form, and only ``α`` is searched — on a 401-point grid on ``[0, 2]``,
then on three finer grids around the minimum (final spacing about 6e-10).
The same profile curve ``SSE(α)`` gives the exponent's confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["ExponentFit", "PowerLawFit", "fit_cost_exponent", "fit_power_law"]


@dataclass(frozen=True)
class PowerLawFit:
    """The result of fitting ``y ≈ coefficient · x^exponent``."""

    exponent: float
    coefficient: float
    r_squared: float
    n_points: int

    def predict(self, x: float) -> float:
        return self.coefficient * x ** self.exponent

    def __str__(self) -> str:
        return (
            f"y ≈ {self.coefficient:.3g}·x^{self.exponent:.3f} "
            f"(R²={self.r_squared:.3f}, n={self.n_points})"
        )


@dataclass(frozen=True)
class ExponentFit:
    """A fitted cost-versus-spend exponent, or a flagged sentinel.

    The result of :func:`fit_cost_exponent`: ``cost ≈ coefficient ·
    T^exponent``, fitted over every trial's (spend, cost) point.  ``ci_low``/``ci_high`` bound the exponent with a 95% interval
    read off the solver's own profile curve (no resampling, so the
    interval is deterministic and the generated documents stay
    byte-identical), and ``r_squared`` is the weighted goodness of fit of
    the objective the solver minimises.

    Many series are legitimately degenerate — a spatial jammer on a
    single-hop network never spends, a capped adversary's spend saturates,
    a baseline's cost is flat in ``T``.  Those come back *flagged*, with
    ``reason`` set and NaN fit values, instead of raising or diverging, so
    a full sweep never aborts on one pathological series.
    """

    exponent: float
    ci_low: float
    ci_high: float
    r_squared: float
    n_points: int
    coefficient: float
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
            "coefficient": self.coefficient,
            "flagged": self.flagged,
            "reason": self.reason,
        }

    def __str__(self) -> str:
        if self.flagged:
            return f"{self.label()} (n={self.n_points})"
        return (
            f"y ≈ {self.coefficient:.3g}·T^{self.label()} "
            f"(R²={self.r_squared:.3f}, n={self.n_points})"
        )


def _validate(xs: Sequence[float], ys: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"x and y must have the same shape, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("at least two points are required to fit a power law")
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        raise ValueError("at least two strictly positive points are required")
    return x[mask], y[mask]


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``log y = log c + α·log x``."""

    x, y = _validate(xs, ys)
    log_x = np.log(x)
    log_y = np.log(y)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predictions = slope * log_x + intercept
    residual = np.sum((log_y - predictions) ** 2)
    total = np.sum((log_y - log_y.mean()) ** 2)
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(np.exp(intercept)),
        r_squared=float(r_squared),
        n_points=int(x.size),
    )


#: The exponent search: a uniform grid of ``_GRID_POINTS`` on
#: ``[0, _MAX_EXPONENT]``, then ``_ZOOMS`` grids of the same size spanning one
#: previous grid step either side of the previous grid's minimum.
_MAX_EXPONENT = 2.0
_GRID_POINTS = 401
_ZOOMS = 3
#: A series whose costs vary by at most this fraction of their maximum is
#: ``flat-cost``; one whose spends span less than this ratio is
#: ``degenerate-spend-range`` (a slope over a near-constant abscissa is noise,
#: not an exponent).
_FLAT_RTOL = 0.05
_MIN_SPEND_RATIO = 2.0
#: The 95% quantile of χ² with one degree of freedom.
_CHI2_95 = 3.84


def _profile(
    log_x: np.ndarray, z: np.ndarray, log_sigma: np.ndarray, alphas: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The weighted SSE and ``log c`` of the best ``c`` at every exponent in ``alphas``.

    With ``z = y/σ`` and ``v = x^α/σ`` the objective is ``Σ (z − c·v)²``,
    whose minimum over ``c`` is ``c = Σzv / Σv²`` (positive, as ``z`` and
    ``v`` are).  Each row of ``v`` is scaled by its largest entry, taken in
    logs, so no power overflows and ``Σv² ≥ 1`` never underflows.
    """

    log_v = alphas[:, None] * log_x[None, :] - log_sigma[None, :]
    shift = log_v.max(axis=1)
    v = np.exp(log_v - shift[:, None])
    scaled = (v * z).sum(axis=1) / (v * v).sum(axis=1)
    residual = z - scaled[:, None] * v
    return (residual * residual).sum(axis=1), np.log(scaled) - shift


def _flagged(reason: str, n_points: int, exponent: float = float("nan")) -> ExponentFit:
    nan = float("nan")
    return ExponentFit(
        exponent=exponent,
        ci_low=nan,
        ci_high=nan,
        r_squared=nan,
        n_points=n_points,
        coefficient=nan,
        flagged=True,
        reason=reason,
    )


def fit_cost_exponent(
    spends: Sequence[float], costs: Sequence[float], *, min_spend: float = 1.0
) -> ExponentFit:
    """Fit ``cost ≈ c·spend^α`` over every (spend, cost) point, never raising.

    Pass every trial's point, not per-point means.  Points with a
    non-finite value or a spend below ``min_spend`` (the no-jamming or
    saturated regime) are dropped first.  Degenerate series then return a
    flagged sentinel, checked in this order:

    * every remaining cost ≤ 0 → ``zero-cost``; non-positive costs are
      dropped otherwise;
    * fewer than two points → ``insufficient-points``;
    * spends spanning less than a factor 2 → ``degenerate-spend-range``;
    * costs flat within 5% → ``flat-cost`` with exponent 0.0 — the
      protocol's spend demonstrably does not scale with Carol's.

    The fit minimises ``Σ ((y − c·x^α)/σ)²`` with ``σ = max(y, 1)``
    (relative error) over ``α ∈ [0, 2]``.  The model has no additive
    offset: with one free, Theorem 1's no-jamming term absorbs a flat, noisy
    cost series and the exponent runs to its bound on noise.  The 95%
    interval is every ``α`` whose profile ``SSE(α)`` is at most
    ``SSE_min·(1 + 3.84/(m − 2))`` for ``m`` points; it collapses to the
    point estimate when ``m = 2``.  ``r_squared`` is the weighted
    ``1 − wSSE/wSST``.
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
    m = int(x.size)
    if m < 2:
        return _flagged("insufficient-points", m)
    if float(x.max()) < _MIN_SPEND_RATIO * float(x.min()):
        return _flagged("degenerate-spend-range", m)
    if float(y.max() - y.min()) <= _FLAT_RTOL * float(y.max()):
        return _flagged("flat-cost", m, exponent=0.0)

    # Everything below works in units of σ, so no weight over- or underflows.
    sigma = np.maximum(y, 1.0)
    log_x, z, log_sigma = np.log(x), y / sigma, np.log(sigma)

    coarse = np.linspace(0.0, _MAX_EXPONENT, _GRID_POINTS)
    coarse_step = step = float(coarse[1] - coarse[0])
    coarse_sse, log_coefficients = _profile(log_x, z, log_sigma, coarse)
    alphas, sse = coarse, coarse_sse
    for _ in range(_ZOOMS):
        centre = alphas[np.argmin(sse)]
        alphas = np.clip(centre + step * np.linspace(-1.0, 1.0, _GRID_POINTS), 0.0, _MAX_EXPONENT)
        step *= 2.0 / (_GRID_POINTS - 1)
        sse, log_coefficients = _profile(log_x, z, log_sigma, alphas)
    best = int(np.argmin(sse))
    alpha, wsse = float(alphas[best]), float(sse[best])

    # Weighted mean and total sum of squares, with weights (σ_min/σ)² ≤ 1.
    ratio = float(sigma.min()) / sigma
    centred = z - ratio * float(np.sum(z * ratio) / np.sum(ratio * ratio))
    wsst = float(np.sum(centred * centred))
    r_squared = 1.0 - wsse / wsst if wsst > 0 else 1.0

    ci_low = ci_high = alpha
    if m > 2:
        limit = wsse * (1.0 + _CHI2_95 / (m - 2))
        inside = coarse[coarse_sse <= limit]
        low = float(np.min(inside, initial=alpha))
        high = float(np.max(inside, initial=alpha))
        ci_low = _interval_edge(log_x, z, log_sigma, limit, low, -coarse_step)
        ci_high = _interval_edge(log_x, z, log_sigma, limit, high, coarse_step)
    return ExponentFit(
        exponent=alpha,
        ci_low=ci_low,
        ci_high=ci_high,
        r_squared=r_squared,
        n_points=m,
        coefficient=float(np.exp(log_coefficients[best])),
    )


def _interval_edge(
    log_x: np.ndarray,
    z: np.ndarray,
    log_sigma: np.ndarray,
    limit: float,
    edge: float,
    step: float,
) -> float:
    """Refine one edge of ``{α : SSE(α) ≤ limit}`` outward from ``edge``.

    ``edge`` is inside the set and ``edge + step`` (``step`` signed) is the
    next point of the coarse grid; the edge moves to the outermost point
    still inside on a ``_GRID_POINTS`` grid spanning that gap.
    """

    alphas = np.clip(edge + step * np.linspace(0.0, 1.0, _GRID_POINTS), 0.0, _MAX_EXPONENT)
    inside = alphas[_profile(log_x, z, log_sigma, alphas)[0] <= limit]
    return float(np.min(inside, initial=edge) if step < 0 else np.max(inside, initial=edge))
