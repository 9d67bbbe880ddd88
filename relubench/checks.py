"""Output checks against computations made apart from relulab.

Each check raises :class:`CheckFailed` naming the quantity, the value the
program gave and the value computed here.  The independent side is plain
numpy over the flat parameter layout ``[w row-major, b, v, beta]`` of the
model ``f(x) = sum_k v_k relu(w_k . x - b_k) + beta``, central finite
differences, and scipy's Lanczos solver; nothing is compared against a
stored copy of an earlier output.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

# Finite differences are only valid where the loss is smooth: a perturbation
# that moves any preactivation across the ReLU kink is redrawn.
FD_STEP = 1e-6
FD_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-9
EIGEN_RTOL = 1e-4
CERT_SLACK = 1e-8


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require_close(name: str, got, want, rtol: float, scale: float = 1.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed(f"{name}: non-finite value from the program")
    tol = rtol * max(scale, float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(got - want), initial=0.0))
    if err > tol:
        raise CheckFailed(f"{name}: max deviation {err:.3e} exceeds {tol:.3e}")


def split(theta: np.ndarray, d: int, k: int):
    """(w, b, v, beta) views of a flat parameter vector."""
    return (
        theta[: k * d].reshape(k, d),
        theta[k * d : k * d + k],
        theta[k * d + k : k * d + 2 * k],
        theta[-1],
    )


def preactivations(theta, d, k, x) -> np.ndarray:
    w, b, _, _ = split(theta, d, k)
    return x @ w.T - b


def np_forward(theta, d, k, x) -> np.ndarray:
    _, _, v, beta = split(theta, d, k)
    return np.maximum(preactivations(theta, d, k, x), 0.0) @ v + beta


def np_loss(theta, d, k, x, y) -> float:
    r = np_forward(theta, d, k, x) - y
    return 0.5 * float(r @ r) / len(y)


def np_gradient(theta, d, k, x, y) -> np.ndarray:
    """Closed-form gradient of the half-MSE, with relu'(0) taken as 0."""
    n = len(y)
    _, _, v, _ = split(theta, d, k)
    z = preactivations(theta, d, k, x)
    h = np.maximum(z, 0.0)
    r = h @ v + theta[-1] - y
    gate = (z > 0.0) * (r / n)[:, None]          # (n, K): r_i 1_ik / n
    gw = (gate.T @ x) * v[:, None]
    gb = -gate.sum(axis=0) * v
    gv = h.T @ r / n
    return np.concatenate([gw.ravel(), gb, gv, [r.sum() / n]])


def _smooth_steps(theta, d, k, x, rng, coords):
    """Yield (j, step) for coordinates whose +-step crosses no ReLU kink."""
    pattern = preactivations(theta, d, k, x) > 0.0
    pool = np.arange(theta.size) if coords is None else rng.permutation(theta.size)
    used = 0
    for j in pool:
        h = FD_STEP * max(1.0, abs(float(theta[j])))
        step = np.zeros_like(theta)
        step[j] = h
        if j < k * (d + 1):  # w and b coordinates move preactivations
            if not (
                np.array_equal(preactivations(theta + step, d, k, x) > 0.0, pattern)
                and np.array_equal(preactivations(theta - step, d, k, x) > 0.0, pattern)
            ):
                continue
        yield int(j), step
        used += 1
        if coords is not None and used == coords:
            return
    if coords is not None and used < coords:
        raise CheckFailed(f"only {used} kink-free coordinates for finite differences")


def check_gradient(program_grad, theta, d, k, x, y, rng, coords=None) -> None:
    """The program's gradient against the closed form here and against
    central differences of the loss (all coordinates, or ``coords`` drawn)."""
    grad = np.asarray(program_grad, dtype=float)
    _require_close("gradient vs closed form", grad, np_gradient(theta, d, k, x, y), CLOSED_FORM_RTOL)
    picked, fd = [], []
    for j, step in _smooth_steps(theta, d, k, x, rng, coords):
        picked.append(j)
        fd.append((np_loss(theta + step, d, k, x, y) - np_loss(theta - step, d, k, x, y)) / (2.0 * step[j]))
    scale = float(np.max(np.abs(grad)))
    _require_close("gradient vs central differences", grad[picked], fd, FD_RTOL, scale)


def check_hvp(hvp, theta, d, k, x, y, rng, coords: int) -> None:
    """Hessian columns from the program's HVP against central differences
    of the closed-form gradient."""
    for j, step in _smooth_steps(theta, d, k, x, rng, coords):
        e = np.zeros_like(theta)
        e[j] = 1.0
        fd = (np_gradient(theta + step, d, k, x, y) - np_gradient(theta - step, d, k, x, y)) / (2.0 * step[j])
        _require_close(f"HVP column {j} vs central differences", hvp(e), fd, FD_RTOL, 1.0)


def lanczos_top_eigenvalue(hvp, m: int, seed: int) -> float:
    """Largest algebraic eigenvalue of the symmetric operator ``hvp``."""
    op = LinearOperator((m, m), matvec=hvp, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(m)
    return float(eigsh(op, k=1, which="LA", v0=v0, tol=1e-10, return_eigenvectors=False)[0])


def check_eigenvalue(name: str, reported: float, reference: float) -> None:
    _require_close(name, reported, reference, EIGEN_RTOL, 1.0)


def check_loss(name: str, reported: float, reference: float) -> None:
    _require_close(name, reported, reference, CLOSED_FORM_RTOL, 0.0)


def activation_shares(theta, d, k, x, sparse_threshold: float = 0.10) -> dict:
    frac = np.mean(preactivations(theta, d, k, x) > 0.0, axis=0)
    return {
        "median_activation": float(np.median(frac)),
        "sparse_neuron_share": float(np.mean((frac > 0.0) & (frac <= sparse_threshold))),
        "dead_neuron_share": float(np.mean(frac == 0.0)),
    }


def check_record(record: dict, theta, d, k, x, y) -> None:
    """Loss, MSE against f0(x) = x_1 and activation shares of one record."""
    check_loss("final_train_loss", record["final_train_loss"], np_loss(theta, d, k, x, y))
    mse = float(np.mean((np_forward(theta, d, k, x) - x[:, 0]) ** 2))
    check_loss("in_sample_mse_vs_f0", record["in_sample_mse_vs_f0"], mse)
    for key, want in activation_shares(theta, d, k, x).items():
        _require_close(key, record[key], want, 1e-12, 0.0)
    for key in ("holdout_mse_vs_f0", "generalization_gap", "final_sharpness"):
        if not np.isfinite(float(record[key])):
            raise CheckFailed(f"{key} is not finite")


def check_sweep_tables(rows: list, summary: dict, dims, sizes, expected_rows: int) -> None:
    """Medians and log-log slopes of slopes.json recomputed from sweep.csv."""
    if len(rows) != expected_rows or summary["n_records"] != expected_rows:
        raise CheckFailed(f"{len(rows)} rows and n_records {summary['n_records']}, expected {expected_rows}")
    listed = {(m["d"], m["n"]): m for m in summary["medians"]}
    for mode, column in (("in_sample_vs_f0", "in_sample_mse_vs_f0"), ("holdout_vs_f0", "holdout_mse_vs_f0")):
        for d in dims:
            points = []
            for n in sizes:
                cell = [float(r[column]) for r in rows if int(r["d"]) == d and int(r["n"]) == n]
                med = float(np.median(cell))
                _require_close(f"median {column} at d={d} n={n}", listed[(d, n)][column], med, 1e-12, 0.0)
                if med > 0.0:
                    points.append((n, med))
            design = np.column_stack([np.log([p[0] for p in points]), np.ones(len(points))])
            slope = np.linalg.lstsq(design, np.log([p[1] for p in points]), rcond=None)[0][0]
            _require_close(f"slope[{mode}] d={d}", summary["slopes"][mode][str(d)], slope, 1e-9, 0.0)


def check_no_failures(failure_rows: list) -> None:
    if failure_rows:
        raise CheckFailed(f"{len(failure_rows)} sweep cells failed: {failure_rows[:3]}")


def check_row_reproduces(row: dict, record) -> None:
    """A sweep.csv row equals a serial rerun of its cell, bit for bit."""
    for column, text in row.items():
        value = getattr(record, column)
        same = text == value if isinstance(value, str) else type(value)(text) == value
        if not same:
            raise CheckFailed(f"cell (d={record.d}, n={record.n}, seed={record.seed}) {column}: csv {text}, rerun {value!r}")


def check_shattering_contrast(large: dict, decay: dict) -> None:
    """Criterion 13: large steps shatter and memorize noise; weight decay
    keeps neurons active and tracks the clean target."""
    if not large["median_activation"] <= 0.15:
        raise CheckFailed(f"large-step median activation {large['median_activation']} > 0.15")
    if not 0.8 <= large["in_sample_mse_vs_f0"] <= 1.4:
        raise CheckFailed(f"large-step MSE vs f0 {large['in_sample_mse_vs_f0']} outside [0.8, 1.4]")
    if not decay["in_sample_mse_vs_f0"] <= 0.2:
        raise CheckFailed(f"weight-decay MSE vs f0 {decay['in_sample_mse_vs_f0']} > 0.2")
    if not decay["sparse_neuron_share"] <= 0.1:
        raise CheckFailed(f"weight-decay sparse share {decay['sparse_neuron_share']} > 0.1")


def check_edge_of_stability(events, eta: float) -> None:
    """The mean of the last ten sharpness readings lies in [0.5, 1.5] * 2/eta."""
    tail = [value for _, value in events[-10:]]
    if len(tail) < 10:
        raise CheckFailed(f"only {len(tail)} sharpness readings")
    mean = float(np.mean(tail))
    if not 0.5 * 2.0 / eta <= mean <= 1.5 * 2.0 / eta:
        raise CheckFailed(f"late sharpness mean {mean} outside [0.5, 1.5] * 2/eta = {2.0 / eta}")


def check_certificate(cert, radius: float = 1.0) -> None:
    """Both certificate inequalities, recomputed from the reported terms."""
    rhs = 0.5 * cert.lambda_max - 0.5 + (radius + 1.0) * np.sqrt(2.0 * cert.train_loss)
    _require_close("certificate rhs", cert.rhs, rhs, 1e-12, 1.0)
    if not (cert.holds and cert.lhs <= rhs + CERT_SLACK):
        raise CheckFailed(f"weighted path norm {cert.lhs} exceeds {rhs}")
    if not (cert.term_a_holds and cert.gauss_newton_lambda_max >= cert.term_a_bound - CERT_SLACK):
        raise CheckFailed(
            f"Gauss-Newton eigenvalue {cert.gauss_newton_lambda_max} below {cert.term_a_bound}"
        )


def check_identical_dirs(first: str, other: str, ignore=("manifest.json",)) -> None:
    """Artifacts of two repeats of one workload are byte-identical."""
    names = sorted(set(os.listdir(first)) - set(ignore))
    other_names = sorted(set(os.listdir(other)) - set(ignore))
    if names != other_names:
        raise CheckFailed(f"artifact sets differ: {names} vs {other_names}")
    for name in names:
        with open(os.path.join(first, name), "rb") as fa, open(os.path.join(other, name), "rb") as fb:
            if fa.read() != fb.read():
                raise CheckFailed(f"{name} differs between repeats")
