"""Data-dependent weight functions for the weighted variation seminorm.

For input distribution P on the unit ball and a direction-offset pair
``(u, t)`` the one-sided factor is

    gtilde(u, t) = P(U > t)^2 * E[U - t | U > t] * sqrt(1 + ||E[X | U > t]||^2)

with ``U = X . u``, and the weight itself symmetrizes the two orientations,
``g(u, t) = min(gtilde(u, t), gtilde(-u, -t))``.  Three variants are provided:

* ``g_simplified``: the closed form ``(1 - |t|)^(d+2)`` that captures the
  exact decay order for the uniform ball,
* ``g_analytic``: the full expression for the uniform ball, reduced to one
  dimension by rotational symmetry (the conditional mean vector is parallel
  to ``u``, so its norm is the scalar conditional mean),
* ``g_empirical`` and its callable form ``EmpiricalWeight``: plug-in
  estimates from a point cloud, with strict inequalities and the convention
  that an empty conditioning event gives 0.

The module also exposes the marginal density of a single coordinate, its tail
probability (exact through the regularized incomplete Beta function), and the
constant sandwiches used to certify the ``(1 - t)^(d+2)`` decay on [3/4, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from relulab.numerics import quadrature_1d

__all__ = [
    "marginal_pdf_constant",
    "marginal_pdf",
    "tail_probability",
    "tail_sandwich_constants",
    "conditional_mean_constants",
    "tilde_g_sandwich_constants",
    "tilde_g_analytic",
    "g_analytic",
    "g_simplified",
    "tilde_g_empirical",
    "g_empirical",
    "EmpiricalWeight",
]


# ---------------------------------------------------------------------------
# marginal density of one coordinate under the uniform ball
# ---------------------------------------------------------------------------

def marginal_pdf_constant(d: int) -> float:
    """Normalizer c1(d) = Gamma(d/2 + 1) / (sqrt(pi) Gamma((d+1)/2)).

    c1(1) = 1/2, c1(2) = 2/pi, c1(3) = 3/4.
    """
    d = _check_dim(d)
    return math.gamma(d / 2.0 + 1.0) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2.0))


def marginal_pdf(d: int, t):
    """Density of X1 for X uniform on the unit ball: c1(d) (1 - t^2)^((d-1)/2)."""
    d = _check_dim(d)
    c1 = marginal_pdf_constant(d)
    t_arr = np.asarray(t, dtype=float)
    inside = np.abs(t_arr) <= 1.0
    body = np.where(inside, 1.0 - t_arr * t_arr, 0.0)
    vals = np.where(inside, c1 * body ** ((d - 1) / 2.0), 0.0)
    return float(vals) if np.isscalar(t) or t_arr.ndim == 0 else vals


def tail_probability(d: int, x: float) -> float:
    """Q(x) = P(X1 > x) = integral of the marginal density over (x, 1].

    Evaluated in closed form: for x in [0, 1], Q(x) is half the regularized
    incomplete Beta function I_{1-x^2}((d+1)/2, 1/2); the negative side follows
    by symmetry.  For d = 1 this reduces to (1 - x)/2.
    """
    d = _check_dim(d)
    x = float(x)
    if x >= 1.0:
        return 0.0
    if x <= -1.0:
        return 1.0
    if x >= 0.0:
        return 0.5 * float(special.betainc((d + 1) / 2.0, 0.5, 1.0 - x * x))
    return 1.0 - 0.5 * float(special.betainc((d + 1) / 2.0, 0.5, 1.0 - x * x))


# ---------------------------------------------------------------------------
# sandwich constants (valid on x in [3/4, 1))
# ---------------------------------------------------------------------------

def tail_sandwich_constants(d: int) -> tuple[float, float]:
    """(c2, c3) with c2 (1-x)^((d+1)/2) <= Q(x) <= c3 (1-x)^((d+1)/2)."""
    d = _check_dim(d)
    c1 = marginal_pdf_constant(d)
    c2 = c1 / (d + 1) * (7.0 / 4.0) ** ((d + 1) / 2.0)
    c3 = c1 / (d + 1) * 2.0 ** ((d + 2) / 2.0)
    return c2, c3


def conditional_mean_constants(d: int) -> tuple[float, float]:
    """(c4, c5) with 1 - c5 (1-x) <= E[X1 | X1 > x] <= 1 - c4 (1-x)."""
    d = _check_dim(d)
    lead = 2.0 * (d + 1) / (d + 3)
    c4 = lead * (7.0 / 4.0) ** ((d - 1) / 2.0) / 2.0 ** ((d + 2) / 2.0)
    c5 = lead * 2.0 ** ((d - 1) / 2.0) / (7.0 / 4.0) ** ((d + 1) / 2.0)
    return c4, c5


def tilde_g_sandwich_constants(d: int) -> tuple[float, float]:
    """(c_lo, c_hi) with c_lo (1-t)^(d+2) <= gtilde(t) <= c_hi (1-t)^(d+2).

    The conditional-gap coefficient 1 - c5(d) turns negative for d >= 5, in
    which case the lower constant degenerates to 0 (the gap itself is always
    positive, so the bound stays valid, just trivial).  The root factor
    sqrt(1 + E^2) is bounded by [5/4, sqrt(2)] since E lies in [3/4, 1] on the
    certified range.
    """
    c2, c3 = tail_sandwich_constants(d)
    c4, c5 = conditional_mean_constants(d)
    c_lo = c2 * c2 * max(0.0, 1.0 - c5) * 1.25
    c_hi = c3 * c3 * (1.0 - c4) * math.sqrt(2.0)
    return c_lo, c_hi


# ---------------------------------------------------------------------------
# analytic weight for the uniform ball
# ---------------------------------------------------------------------------

def tilde_g_analytic(d: int, t: float, quadrature_tol: float = 1e-10) -> float:
    """One-sided factor for the uniform ball, reduced to the first coordinate.

    By rotational symmetry ``E[X | X.u > t] = E[X1 | X1 > t] u``, so the
    vector norm in the definition is the scalar conditional mean.  The tail
    mass comes from the exact closed form; the two conditional moments are
    quadratures of the marginal density, with absolute tolerances scaled by
    the tail mass so the result keeps relative accuracy deep in the tail.
    """
    d = _check_dim(d)
    t = float(t)
    if t >= 1.0:
        return 0.0
    q = tail_probability(d, t)
    if q <= 0.0:
        return 0.0
    lo = max(t, -1.0)
    gap_scale = max(q * (1.0 - lo), 1e-280)
    mean_scale = max(q, 1e-280)
    gap_num = quadrature_1d(
        lambda s: (s - t) * marginal_pdf(d, s), lo, 1.0, quadrature_tol * gap_scale
    )
    mean_num = quadrature_1d(
        lambda s: s * marginal_pdf(d, s), lo, 1.0, quadrature_tol * mean_scale
    )
    cond_gap = gap_num / q
    cond_mean = mean_num / q
    return q * q * cond_gap * math.sqrt(1.0 + cond_mean * cond_mean)


def g_analytic(d: int, t: float, quadrature_tol: float = 1e-10) -> float:
    """min of the two orientations; vanishes for |t| >= 1."""
    if abs(t) >= 1.0:
        return 0.0
    return min(
        tilde_g_analytic(d, t, quadrature_tol),
        tilde_g_analytic(d, -t, quadrature_tol),
    )


def g_simplified(d: int, t: float) -> float:
    """Closed-form surrogate (1 - |t|)^(d+2) on |t| <= 1, else 0."""
    d = _check_dim(d)
    t = float(t)
    if abs(t) >= 1.0:
        return 0.0
    return (1.0 - abs(t)) ** (d + 2)


# ---------------------------------------------------------------------------
# empirical weight from a point cloud
# ---------------------------------------------------------------------------

def tilde_g_empirical(points: np.ndarray, u: np.ndarray, t: float) -> float:
    """Plug-in one-sided factor over a point cloud.

    Strict inequality in the conditioning event; an empty event gives 0.
    ``u`` is taken as given (callers pass unit directions).
    """
    points = np.asarray(points, dtype=float)
    u = np.asarray(u, dtype=float)
    proj = points @ u
    mask = proj > t
    count = int(mask.sum())
    if count == 0:
        return 0.0
    p = count / proj.shape[0]
    cond_gap = float(np.mean(proj[mask] - t))
    cond_mean = points[mask].mean(axis=0)
    return p * p * cond_gap * math.sqrt(1.0 + float(cond_mean @ cond_mean))


def g_empirical(points: np.ndarray, u: np.ndarray, t: float) -> float:
    """min over the two orientations of the plug-in factor."""
    u = np.asarray(u, dtype=float)
    return min(
        tilde_g_empirical(points, u, t),
        tilde_g_empirical(points, -u, -float(t)),
    )


# ---------------------------------------------------------------------------
# the empirical weight as a callable g(u, t) -> float
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalWeight:
    """Plug-in weight over a fixed point cloud (typically the training inputs)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be a non-empty (n, d) array, got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __call__(self, u: np.ndarray, t: float) -> float:
        return g_empirical(self.points, u, t)


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return d
