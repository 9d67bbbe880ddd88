"""Shared numerical kernels.

Everything stochastic in this package flows through an explicitly seeded
:class:`numpy.random.Generator`, so any routine is reproducible from its seed
alone.  The module also provides the uniform-ball sampler used throughout, a
matrix-free power iteration that returns the largest *algebraic* eigenvalue
of a symmetric operator, an ordinary least squares slope fit in log-log
coordinates, and the finiteness check that configs and records run on their
float fields, with its counterpart for their integer fields.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "make_rng",
    "derive_rng",
    "sample_uniform_ball",
    "PowerIterationResult",
    "power_iteration",
    "loglog_slope",
    "check_finite_fields",
    "is_integer",
    "check_int_fields",
]


def make_rng(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Return a deterministic generator for ``seed``.

    Accepts an integer seed, a ``SeedSequence``, or an existing generator
    (returned unchanged, so functions can be composed without reseeding).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent child generator for a labelled cell.

    Streams for distinct ``key`` tuples are statistically independent and do
    not depend on the order in which cells run.  Used by the sweep harness to
    key cells by (dimension, sample size, seed index, channel).
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_uniform_ball(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """Draw ``count`` points uniformly from the closed unit ball in R^d.

    Direction comes from a normalized Gaussian vector and the radius from
    U^(1/d), which together give the exact uniform law on the ball.

    Parameters
    ----------
    rng : numpy.random.Generator
    d : int
        Ambient dimension, at least 1.
    count : int
        Number of samples, at least 1.

    Returns
    -------
    numpy.ndarray of shape (count, d) with Euclidean norms <= 1.
    """
    d = int(d)
    count = int(count)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    direction = rng.standard_normal((count, d))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    # A zero Gaussian vector has probability zero; guard the division anyway.
    norms[norms == 0.0] = 1.0
    radius = rng.random((count, 1)) ** (1.0 / d)
    return radius * (direction / norms)


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerIterationResult:
    """Outcome of :func:`power_iteration`.

    ``value`` is the Rayleigh quotient of ``vector`` under the operator, which
    is the best available estimate of the largest algebraic eigenvalue whether
    or not the iteration converged.  ``converged`` records whether the
    relative residual test passed within the iteration budget.
    """

    value: float
    vector: np.ndarray
    converged: bool
    iterations: int


_WARMUP_STEPS = 16
_SHIFT_SAFETY = 1.5


def power_iteration(
    apply: Callable[[np.ndarray], np.ndarray],
    m: int,
    rel_tol: float = 1e-8,
    max_iters: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> PowerIterationResult:
    """Largest algebraic eigenvalue of a symmetric operator, matrix-free.

    Plain power iteration converges to the eigenvalue of largest *magnitude*,
    which is wrong whenever the spectrum has a dominant negative tail.  A few
    warmup applications of the raw operator produce an upper estimate ``c`` of
    the spectral radius; the iteration then runs on ``A + c I``, whose largest
    magnitude eigenvalue is ``lambda_max(A) + c``, and the shift is subtracted
    at the end.

    Convergence is declared when the residual ``||A v - lambda v||`` drops
    below ``rel_tol * |lambda|`` for the unit iterate ``v``.  On exhaustion of
    ``max_iters`` the result carries the last Rayleigh estimate with
    ``converged=False``; no exception is raised.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"operator dimension must be >= 1, got {m}")
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    gen = make_rng(rng if rng is not None else 0)

    v = gen.standard_normal(m)
    v /= np.linalg.norm(v)

    # Warmup on the raw operator: ||A v|| for unit v never exceeds the spectral
    # radius, so the running maximum (padded by a safety factor) is a usable
    # shift.  A zero image right away means v is in the kernel and the Rayleigh
    # quotient 0 is exact for it.
    radius_est = 0.0
    for _ in range(_WARMUP_STEPS):
        w = apply(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return PowerIterationResult(value=0.0, vector=v, converged=True, iterations=0)
        radius_est = max(radius_est, nw)
        v = w / nw
    shift = _SHIFT_SAFETY * radius_est

    # Restart from a fresh direction: the warmup iterate has collapsed onto the
    # dominant-magnitude eigenvector, which can have lost the component along
    # the largest algebraic eigenvector entirely when the spectrum is
    # negative-dominated.
    v = gen.standard_normal(m)
    v /= np.linalg.norm(v)

    lam = 0.0
    for it in range(1, max_iters + 1):
        aw = apply(v)
        w = aw + shift * v
        lam = float(v @ aw)  # Rayleigh quotient of the unshifted operator
        residual = float(np.linalg.norm(aw - lam * v))
        if residual <= rel_tol * abs(lam):
            return PowerIterationResult(value=lam, vector=v, converged=True, iterations=it)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # Shifted image vanished: v is an exact eigenvector of the shift.
            return PowerIterationResult(value=lam, vector=v, converged=True, iterations=it)
        v = w / nw
    return PowerIterationResult(value=lam, vector=v, converged=False, iterations=max_iters)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares line through ``(log x, log y)``.

    Parameters
    ----------
    points : sequence of (x, y) pairs
        At least two pairs; every coordinate must be strictly positive.

    Returns
    -------
    (slope, intercept) of the fitted line in natural-log coordinates.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (x, y) points")
    if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
        raise ValueError("all coordinates must be finite and strictly positive")
    logx = np.log(pts[:, 0])
    logy = np.log(pts[:, 1])
    slope, intercept = np.polyfit(logx, logy, 1)
    return float(slope), float(intercept)


def check_finite_fields(obj, label: str = "") -> None:
    """Raise ``ValueError`` if a float-annotated field of the dataclass
    instance ``obj`` is NaN or infinite (``nan <= 0`` is False, so range
    checks alone let NaN through).  ``label`` prefixes the field name in
    the message."""
    for field in dataclasses.fields(obj):
        if field.type == "float":
            value = getattr(obj, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{label}{field.name} must be finite, got {value!r}")


def is_integer(value) -> bool:
    """True for Python and numpy integers; a bool is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int_fields(obj) -> None:
    """Raise ``ValueError`` if an int-annotated field of the dataclass
    instance ``obj`` holds anything but an integer (2.5 epochs or a
    sharpness reading every 1.5 steps would otherwise pass the range
    checks and then fail or misbehave mid-run)."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if field.type == "int" and not is_integer(value):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")
