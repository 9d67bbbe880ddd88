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
* ``g_empirical``: plug-in estimates from a point cloud for many pairs at
  once, with strict inequalities and the convention that an empty
  conditioning event gives 0.

The module also exposes the marginal density of a single coordinate, its tail
probability (exact through the regularized incomplete Beta function), the cap
moment behind the conditional gap and the cap atom's L2 norm, and the constant
sandwiches used to certify the ``(1 - t)^(d+2)`` decay on [3/4, 1).
"""

from __future__ import annotations

import math

import numpy as np

from relulab.nets import _block_buffer, _preact_blocks

__all__ = [
    "marginal_pdf_constant",
    "marginal_pdf",
    "tail_probability",
    "cap_moment",
    "tail_sandwich_constants",
    "conditional_mean_constants",
    "tilde_g_sandwich_constants",
    "tilde_g_analytic",
    "g_analytic",
    "g_simplified",
    "tilde_g_empirical",
    "g_empirical",
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
    """Density of X1 for X uniform on the unit ball: c1(d) (1 - t^2)^((d-1)/2),
    with 1 - t^2 formed as (1 - t)(1 + t) to keep relative accuracy near |t| = 1."""
    d = _check_dim(d)
    c1 = marginal_pdf_constant(d)
    t_arr = np.asarray(t, dtype=float)
    inside = np.abs(t_arr) <= 1.0
    body = np.where(inside, (1.0 - t_arr) * (1.0 + t_arr), 0.0)
    vals = np.where(inside, c1 * body ** ((d - 1) / 2.0), 0.0)
    return float(vals) if np.isscalar(t) or t_arr.ndim == 0 else vals


def tail_probability(d: int, x: float) -> float:
    """Q(x) = P(X1 > x) = integral of the marginal density over (x, 1].

    Evaluated in closed form: for x in [0, 1], Q(x) is half the regularized
    incomplete Beta function I_{1-x^2}((d+1)/2, 1/2), with 1 - x^2 formed as
    (1 - x)(1 + x) to keep relative accuracy near x = 1; the negative side
    follows by symmetry.  For d = 1 this reduces to (1 - x)/2.
    """
    d = _check_dim(d)
    x = float(x)
    if x >= 1.0:
        return 0.0
    if x <= -1.0:
        return 1.0
    from scipy import special  # here, not at module level: import relulab stays scipy-free

    half = 0.5 * float(special.betainc((d + 1) / 2.0, 0.5, (1.0 - x) * (1.0 + x)))
    return half if x >= 0.0 else 1.0 - half


def cap_moment(d: int, j: int, a: float) -> float:
    """int_0^a (a - delta)^j (delta (2 - delta))^p d delta with p = (d - 1)/2, 0 <= a <= 2.

    Euler's integral (DLMF 15.6.1) gives a^(p+j+1) 2^p B(p+1, j+1)
    2F1(-p, p+1; p+j+2; a/2), which keeps relative accuracy for small caps.
    """
    from scipy import special

    d = _check_dim(d)
    p = (d - 1) / 2.0
    coeff = a ** (p + j + 1) * 2.0 ** p * special.beta(p + 1.0, j + 1.0)
    return float(coeff * special.hyp2f1(-p, p + 1.0, p + j + 2.0, 0.5 * a))


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

def tilde_g_analytic(d: int, t: float) -> float:
    """One-sided factor for the uniform ball, reduced to the first coordinate.

    By rotational symmetry ``E[X | X.u > t] = E[X1 | X1 > t] u``, so the
    vector norm in the definition is the scalar conditional mean.  The tail
    mass Q, the partial mean c1 (1 - t^2)^((d+1)/2) / (d+1) and the partial
    gap c1 cap_moment(d, 1, 1 - t) are closed forms; the gap keeps relative
    accuracy deep in the tail, where mean - t Q would cancel.
    """
    d = _check_dim(d)
    t = float(t)
    if t >= 1.0:
        return 0.0
    if t <= -1.0:
        return -t  # the whole ball: Q = 1, mean 0, gap -t
    q = tail_probability(d, t)
    if q <= 0.0:
        return 0.0
    c1 = marginal_pdf_constant(d)
    cond_mean = c1 * ((1.0 - t) * (1.0 + t)) ** ((d + 1) / 2.0) / (d + 1) / q
    cond_gap = c1 * cap_moment(d, 1, 1.0 - t) / q
    return q * q * cond_gap * math.sqrt(1.0 + cond_mean * cond_mean)


def g_analytic(d: int, t: float) -> float:
    """min of the two orientations; vanishes for |t| >= 1."""
    if abs(t) >= 1.0:
        return 0.0
    return min(tilde_g_analytic(d, t), tilde_g_analytic(d, -t))


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

def _empirical_factors(points, u, t) -> np.ndarray:
    """Plug-in one-sided factors of the pairs ``(u_j, t_j)`` (row 0) and of
    the flipped pairs ``(-u_j, -t_j)`` (row 1), as a (2, m) array.

    One pass over the row blocks of ``points`` accumulates each pair's event
    count, clipped gap sum and masked point sum.  The flipped pair's
    preactivations are -z, its event is ``z < 0`` and its gap
    ``max(-z, 0)``; rounding is symmetric in sign, so these sums carry the
    bits a pass of its own would.
    """
    x = np.asarray(points, dtype=float)
    dirs = np.atleast_2d(np.asarray(u, dtype=float))
    offsets = np.atleast_1d(np.asarray(t, dtype=float))
    n, m = x.shape[0], dirs.shape[0]
    count = np.zeros((2, m))
    gap = np.zeros((2, m))
    point_sum = np.zeros((2, *dirs.shape))
    hit_buf = _block_buffer(n, m)
    for rows, z in _preact_blocks(x, dirs, offsets):
        hit = hit_buf[: z.shape[0]]
        for side, event in enumerate((np.greater, np.less)):
            event(z, 0.0, out=hit)
            count[side] += hit.sum(axis=0)
            point_sum[side] += hit.T @ x[rows]
        np.negative(z, out=hit)
        np.maximum(hit, 0.0, out=hit)
        gap[1] += hit.sum(axis=0)
        np.maximum(z, 0.0, out=z)
        gap[0] += z.sum(axis=0)
    # An empty event has zero sums, so dividing by one leaves its factor 0.
    seen = np.maximum(count, 1.0)
    mean = point_sum / seen[..., None]
    p = count / n
    return p * p * (gap / seen) * np.sqrt(1.0 + np.sum(mean * mean, axis=2))


def tilde_g_empirical(points: np.ndarray, u: np.ndarray, t):
    """Plug-in one-sided factors over a point cloud, one per pair ``(u_j, t_j)``.

    ``u`` holds m directions (m, d) and ``t`` m offsets (m,); a single (d,)
    direction with a scalar offset gives a float.  Strict inequality in the
    conditioning event ``x . u > t``; an empty event gives 0.  ``u`` is taken
    as given (callers pass unit directions).
    """
    out = _empirical_factors(points, u, t)[0]
    return float(out[0]) if np.ndim(u) == 1 else out


def g_empirical(points: np.ndarray, u: np.ndarray, t):
    """min over the two orientations of the plug-in factor, per pair; both
    orientations come from one pass over the points."""
    out = _empirical_factors(points, u, t).min(axis=0)
    return out[0] if np.ndim(u) == 1 else out


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return d
