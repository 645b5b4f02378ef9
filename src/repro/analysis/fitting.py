"""Empirical exponent fitting.

The headline claims of the paper are power laws — per-device cost
``Õ(T^{1/(k+1)})``, latency ``O(n^{1+1/k})`` — so the experiments need a small
amount of regression machinery to turn measured (x, y) series into fitted
exponents with goodness-of-fit information.  Everything here is numpy-only.

The additive-offset fit ``y ≈ y₀ + c·x^α`` is solved by variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973): for a fixed ``α`` the
model is linear in ``(y₀, c)``, so the box-bounded weighted least squares for
that pair is solved exactly in closed form, and only ``α`` is searched — on a
401-point grid on ``[0, 2]``, then on three finer grids around the minimum
(final spacing about 6e-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law", "fit_power_law_with_offset"]


@dataclass(frozen=True)
class PowerLawFit:
    """The result of fitting ``y ≈ coefficient · x^exponent``."""

    exponent: float
    coefficient: float
    r_squared: float
    n_points: int
    offset: float = 0.0

    def predict(self, x: float) -> float:
        return self.offset + self.coefficient * x ** self.exponent

    def __str__(self) -> str:
        return (
            f"y ≈ {self.offset:.3g} + {self.coefficient:.3g}·x^{self.exponent:.3f} "
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


def fit_power_law_with_offset(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y ≈ y₀ + c·x^α`` with a free additive offset.

    The protocol's measured costs include an additive no-jamming term (the
    polylog part of Theorem 1's ``Õ(T^{1/(k+1)} + 1)``); fitting the offset
    jointly with the power law isolates the jamming-driven component whose
    exponent the theorem predicts.  With at least four points this is the
    least-squares fit weighted by ``σ = max(y, 1)`` (relative error)
    over ``y₀ ∈ [0, max y]``, ``c ≥ 1e-12`` and ``α ∈ [0, 2]``; see
    :func:`_fit_offset`.  With fewer points the offset is pinned to the
    smallest-x observation and a log-log regression is used instead.
    """

    x, y = _validate(xs, ys)
    order = np.argsort(x)
    x, y = x[order], y[order]

    if x.size >= 4:
        return _fit_offset(x, y)

    offset = float(y[0])
    adjusted = y - offset
    mask = adjusted > 0
    if mask.sum() < 2:
        fit = fit_power_law(x, y)
        return PowerLawFit(
            exponent=fit.exponent,
            coefficient=fit.coefficient,
            r_squared=fit.r_squared,
            n_points=fit.n_points,
            offset=0.0,
        )
    fit = fit_power_law(x[mask], adjusted[mask])
    return PowerLawFit(
        exponent=fit.exponent,
        coefficient=fit.coefficient,
        r_squared=fit.r_squared,
        n_points=fit.n_points,
        offset=offset,
    )


#: Bounds of the offset fit: ``α ∈ [0, _MAX_EXPONENT]``, ``c ≥ _MIN_COEFFICIENT``.
_MAX_EXPONENT = 2.0
_MIN_COEFFICIENT = 1e-12
#: The exponent search: a uniform grid of ``_GRID_POINTS`` on ``[0, 2]``, then
#: ``_ZOOMS`` grids of the same size spanning one previous grid step either
#: side of the previous grid's minimum.
_GRID_POINTS = 401
_ZOOMS = 3


def _profile(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, alphas: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The optimal ``(y₀, c)`` and weighted SSE at every exponent in ``alphas``.

    For fixed ``α`` the weighted least squares in ``(y₀, c)`` is a convex
    quadratic over the box ``[0, max y] × [1e-12, ∞)``.  Its minimum is the
    unconstrained optimum of the normal equations when that is feasible, and
    otherwise lies on an edge, where the optimum is the clipped
    one-variable solution.  All four candidates are scored and the best kept.
    """

    y_max = float(y.max())
    u = x[None, :] ** alphas[:, None]
    wu = weights * u
    total_w = float(weights.sum())
    sum_u = wu.sum(axis=1)
    sum_uu = (wu * u).sum(axis=1)
    sum_uy = (wu * y).sum(axis=1)
    sum_y = float((weights * y).sum())

    # Interior optimum from the centred normal equations.  At α = 0 (or with
    # every x equal) u is constant, the system is singular and only the
    # edges are candidates.
    u_bar, y_bar = sum_u / total_w, sum_y / total_w
    centred = u - u_bar[:, None]
    spread = (weights * centred * centred).sum(axis=1)
    nonsingular = spread > 1e-24 * sum_uu
    safe_spread = np.where(nonsingular, spread, 1.0)
    c_inner = (weights * centred * (y - y_bar)).sum(axis=1) / safe_spread
    y0_inner = y_bar - c_inner * u_bar
    feasible = nonsingular & (c_inner >= _MIN_COEFFICIENT) & (y0_inner >= 0.0) & (y0_inner <= y_max)

    candidates_y0 = np.stack(
        [
            y0_inner,
            np.zeros_like(u_bar),
            np.full_like(u_bar, y_max),
            np.clip(y_bar - _MIN_COEFFICIENT * u_bar, 0.0, y_max),
        ]
    )
    candidates_c = np.stack(
        [
            c_inner,
            np.maximum(sum_uy / sum_uu, _MIN_COEFFICIENT),
            np.maximum((sum_uy - y_max * sum_u) / sum_uu, _MIN_COEFFICIENT),
            np.full_like(u_bar, _MIN_COEFFICIENT),
        ]
    )
    residual = y - candidates_y0[:, :, None] - candidates_c[:, :, None] * u[None]
    sse = (weights * residual * residual).sum(axis=2)
    sse[0] = np.where(feasible, sse[0], np.inf)
    best = np.argmin(sse, axis=0)
    columns = np.arange(alphas.size)
    return sse[best, columns], candidates_y0[best, columns], candidates_c[best, columns]


def _fit_offset(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Exact bounded ``y = y₀ + c·x^α`` fit by variable projection over ``α``."""

    weights = 1.0 / np.maximum(y, 1.0) ** 2
    alphas = np.linspace(0.0, _MAX_EXPONENT, _GRID_POINTS)
    step = alphas[1] - alphas[0]
    for _ in range(_ZOOMS):
        centre = alphas[np.argmin(_profile(x, y, weights, alphas)[0])]
        alphas = np.clip(centre + step * np.linspace(-1.0, 1.0, _GRID_POINTS), 0.0, _MAX_EXPONENT)
        step *= 2.0 / (_GRID_POINTS - 1)
    sse, offsets, coefficients = _profile(x, y, weights, alphas)
    best = np.argmin(sse)
    alpha, y0, coefficient = float(alphas[best]), float(offsets[best]), float(coefficients[best])
    predictions = y0 + coefficient * x ** alpha
    total = float(np.sum((y - y.mean()) ** 2))
    residual = float(np.sum((y - predictions) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return PowerLawFit(
        exponent=alpha,
        coefficient=coefficient,
        r_squared=r_squared,
        n_points=int(x.size),
        offset=y0,
    )
