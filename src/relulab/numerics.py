"""Shared numerical kernels.

Everything stochastic in this package flows through an explicitly seeded
:class:`numpy.random.Generator`, so any routine is reproducible from its seed
alone.  The module also provides the uniform-ball sampler used throughout, a
matrix-free Lanczos solver that returns the largest *algebraic* eigenpair of
a symmetric operator (its ``max_iters`` bounds every operator application,
and a restart bounds the vectors it holds), an ordinary least squares slope
fit in log-log coordinates, the finiteness check that configs and records
run on their float fields, with its counterpart for their integer fields,
and the one writer of every CSV table.
"""

from __future__ import annotations

import csv
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
    "EigenEstimate",
    "top_eigenpair",
    "loglog_slope",
    "check_finite_fields",
    "is_integer",
    "check_int_fields",
    "write_csv",
]


def make_rng(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Return a deterministic generator for ``seed``.

    Accepts an integer seed, a ``SeedSequence``, or an existing generator
    (returned unchanged, so functions can be composed without reseeding).
    ``None`` raises ``TypeError``: numpy would seed it from OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise TypeError("a seed is required; None would draw one from OS entropy")
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
# top eigenpair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenEstimate:
    """Outcome of :func:`top_eigenpair`: the largest Ritz value and its unit
    Ritz vector (the best estimate whether or not the solve converged), the
    Ritz residual ``||A vector - value vector||`` (some eigenvalue lies
    within it of ``value``), whether it fell to ``rel_tol * |value|``, and
    the number of operator applications."""

    value: float
    vector: np.ndarray
    converged: bool
    iterations: int
    residual: float


# Lanczos steps between restarts: one solve holds at most this many basis
# vectors whatever its budget (5.6 MiB at the shatter shape, m = 24,577).
# An eos telemetry reading takes 5 to 9 steps.
_RESTART = 30


def top_eigenpair(
    apply: Callable[[np.ndarray], np.ndarray],
    m: int,
    rel_tol: float = 1e-8,
    max_iters: int = 2000,
    rng: np.random.Generator | int | None = None,
    v0: np.ndarray | None = None,
) -> EigenEstimate:
    """Largest algebraic eigenpair of a symmetric operator, matrix-free.

    Lanczos from ``v0``, or else from a standard normal draw of ``rng``,
    with full reorthogonalization (two classical Gram-Schmidt passes against
    the whole basis per step).  The largest Ritz value theta of the
    tridiagonal projection, with eigenvector y of last entry y_j, has the
    residual ``|beta_j y_j|`` on the operator (Golub & Van Loan, ch. 10);
    the solve stops once that is at most ``rel_tol * |theta|``.  Lanczos reaches the
    largest *algebraic* eigenvalue directly, so no spectrum needs a shift.
    Every ``_RESTART`` steps the basis restarts from the current Ritz
    vector.  A breakdown (beta_j = 0) or a basis spanning R^m makes the
    Ritz pairs exact and ends the solve converged.  ``max_iters`` bounds
    the applications of ``apply`` and ``iterations`` counts them; on
    exhaustion the last Ritz pair returns with ``converged=False``.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"operator dimension must be >= 1, got {m}")
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    basis = np.empty((min(_RESTART, m), m))
    if v0 is None:
        basis[0] = make_rng(rng if rng is not None else 0).standard_normal(m)
    elif np.shape(v0) != (m,):
        raise ValueError(f"start vector must have shape ({m},), got {np.shape(v0)}")
    else:
        basis[0] = v0
    norm = float(np.linalg.norm(basis[0]))
    if not 0.0 < norm < math.inf:
        raise ValueError("start vector must be finite and nonzero")
    basis[0] /= norm

    iterations = 0
    while True:
        alphas, betas = [], []
        for j in range(len(basis)):
            q = basis[: j + 1]
            w = apply(q[j])
            iterations += 1
            h = q @ w
            w = w - q.T @ h
            h2 = q @ w
            w -= q.T @ h2
            alphas.append(float(h[j] + h2[j]))
            beta = float(np.linalg.norm(w))
            thetas, ys = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta, y = float(thetas[-1]), ys[:, -1]
            residual = abs(beta * float(y[-1]))
            converged = beta == 0.0 or j + 1 == m or residual <= rel_tol * abs(theta)
            if converged or iterations == max_iters:
                vector = q.T @ y
                vector /= np.linalg.norm(vector)
                return EigenEstimate(theta, vector, converged, iterations, residual)
            if j + 1 < len(basis):
                basis[j + 1] = w / beta
                betas.append(beta)
        basis[0] = basis.T @ y
        basis[0] /= np.linalg.norm(basis[0])


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
    instance ``obj`` is NaN, infinite or a bool (``nan <= 0`` is False, so
    range checks alone let NaN through, and ``True`` would pass as 1.0).
    Integers pass unconverted.  ``label`` prefixes the field name in the
    message."""
    for field in dataclasses.fields(obj):
        if field.type == "float":
            value = getattr(obj, field.name)
            if isinstance(value, bool):
                raise ValueError(f"{label}{field.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{label}{field.name} must be finite, got {value!r}")


def is_integer(value) -> bool:
    """True for Python and numpy integers; a bool is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int_fields(obj) -> None:
    """Raise ``ValueError`` if an ``int`` field of the dataclass instance
    ``obj`` holds anything but an integer, or an ``int | None`` field holds
    anything but an integer or None (2.5 epochs or a sharpness reading every
    1.5 steps would otherwise pass the range checks and then misbehave)."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        optional = field.type == "int | None"
        if (field.type == "int" or optional and value is not None) and not is_integer(value):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")


def write_csv(path, columns, rows, append=False) -> None:
    """Write the header ``columns`` (unless ``append`` adds rows to an
    existing table), then one line per row.  Floats, numpy's included, are
    written as ``repr(float(v))`` so they read back exactly; every other
    value goes through ``str``."""
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(columns)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )
