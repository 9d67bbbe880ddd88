"""Two-layer ReLU regression networks and their reduced form.

The model is ``f(x) = sum_k v_k * relu(w_k . x - b_k) + beta`` (note the minus
in front of the inner bias).  Parameters flatten to a single vector in the
fixed layout ``[w row-major, b, v, beta]``; the checkpoint format on disk uses
the same layout behind a small header.

The reduced form rewrites the network as signed atoms on unit directions,
``f(x) = sum_j a_j * relu(u_j . x - t_j) + c . x + c0`` on the unit ball,
which is the representation the variation seminorms are defined on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoLayerNet",
    "Dataset",
    "ReducedForm",
    "forward",
    "loss",
    "loss_gradient",
    "pack_params",
    "unpack_params",
    "param_count",
    "kaiming_init",
    "to_reduced_form",
    "save_checkpoint",
    "load_checkpoint",
]

_DUPLICATE_ATOL = 1e-12

# Rows of x per block of the one row partition, ``_row_blocks``, shared by the
# forward pass, the gradient and Hessian kernels and the neuron statistics.
# A kernel keeps each block in one (ROW_BLOCK + 1, K) float64 buffer, which
# stays cache-sized (1 MiB at K = 2048, half of a 2 MiB L2) where whole (n, K)
# arrays would stream through memory.  It is a constant, not a setting: the
# block size fixes the order in which the per-neuron sums accumulate, so no
# choice of size can change a rerun's rounding.
ROW_BLOCK = 64


@dataclass(frozen=True)
class TwoLayerNet:
    """Immutable parameter bundle.  Shapes: w (K, d), b (K,), v (K,)."""

    w: np.ndarray
    b: np.ndarray
    v: np.ndarray
    beta: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        b = np.asarray(self.b, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"w must be 2-d (K, d), got shape {w.shape}")
        k = w.shape[0]
        if b.shape != (k,) or v.shape != (k,):
            raise ValueError(
                f"inconsistent widths: w has K={k}, b shape {b.shape}, v shape {v.shape}"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def width(self) -> int:
        return self.w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Regression sample on the closed unit ball: inputs and labels only,
    every value finite.

    The ground truth f0(x) = x_1 and the label noise level belong to the
    experiment harness, which draws the labels and measures against f0.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"inputs must be 2-d (n, d), got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match n={x.shape[0]}")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("inputs and labels must be finite")
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError(
                f"inputs must lie in the closed unit ball, max norm {norms.max()}"
            )
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


# ---------------------------------------------------------------------------
# forward / loss / gradient
# ---------------------------------------------------------------------------

def _row_blocks(n: int):
    """The one row partition: :data:`ROW_BLOCK` rows a block, the last may hold one more."""
    start = 0
    while start < n:
        # numpy takes a one-row product through dot rather than gemv, and the
        # two round differently, so a lone last row joins the block before.
        stop = n if n - start <= ROW_BLOCK + 1 else start + ROW_BLOCK
        yield slice(start, stop)
        start = stop


def _block_buffer(n: int, k: int) -> np.ndarray:
    """An uninitialized (rows, k) buffer that holds any block of ``_row_blocks(n)``."""
    return np.empty((min(n, ROW_BLOCK + 1), k))


def _preact_blocks(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Yield ``(rows, z)`` with ``z = x[rows] @ w.T - b`` for each row block;
    every ``z`` reuses one buffer, which callers may overwrite in place."""
    buf = _block_buffer(x.shape[0], w.shape[0])
    for rows in _row_blocks(x.shape[0]):
        z = buf[: rows.stop - rows.start]
        np.matmul(x[rows], w.T, out=z)
        z -= b
        yield rows, z


def forward(net: TwoLayerNet, x: np.ndarray) -> np.ndarray | float:
    """Network values at ``x`` (a single d-vector or an (n, d) batch)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = np.empty(pts.shape[0])
    for rows, z in _preact_blocks(pts, net.w, net.b):
        np.maximum(z, 0.0, out=z)
        ob = out[rows]
        np.matmul(z, net.v, out=ob)
        ob += net.beta
    return float(out[0]) if single else out


def loss(net: TwoLayerNet, data: Dataset) -> float:
    """Half mean squared error, L = (1/2n) sum (f(x_i) - y_i)^2."""
    r = forward(net, data.inputs) - data.labels
    return 0.5 * float(np.mean(r * r))


def param_count(d: int, k: int) -> int:
    return k * (d + 2) + 1


def _split(theta: np.ndarray, d: int, k: int):
    """Views ``(w, b, v, beta)`` of a vector in the flat layout
    [w row-major, b, v, beta], the one place that layout is sliced."""
    wd = k * d
    return theta[:wd].reshape(k, d), theta[wd : wd + k], theta[wd + k : wd + 2 * k], theta[-1]


def _join(w, b, v, beta) -> np.ndarray:
    """The flat vector of ``(w, b, v, beta)``, the inverse of :func:`_split`."""
    return np.concatenate([w.ravel(), b, v, [beta]])


def pack_params(net: TwoLayerNet) -> np.ndarray:
    """Flatten to the fixed layout [w row-major, b, v, beta]."""
    return _join(net.w, net.b, net.v, net.beta)


def unpack_params(theta: np.ndarray, d: int, k: int) -> TwoLayerNet:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (param_count(d, k),):
        raise ValueError(f"expected {param_count(d, k)} parameters, got shape {theta.shape}")
    w, b, v, beta = _split(theta, d, k)
    return TwoLayerNet(w=w.copy(), b=b.copy(), v=v.copy(), beta=float(beta))


def _residual_pass(x, y, w, b, v, beta, z_out=None):
    """One pass over the row blocks: residuals ``r = f(x) - y`` and the sums
    ``col = (1/n) sum_i r_i 1_ik x_i``, ``colsum = (1/n) sum_i r_i 1_ik`` and
    ``gv = (1/n) sum_i r_i relu(z_ik)``, accumulated block by block.  An
    (n, K) ``z_out`` receives a copy of every block's preactivations.

    Each block lives in the one buffer of ``_preact_blocks``: it holds the
    preactivations, then their ReLU, then the 0/1 mask, so a block is one
    cache-sized (rows, K) array.  ``col`` and ``colsum`` come from a single
    product of the (rows, d + 1) scaled inputs ``[r_i x_i, r_i] / n`` with
    the mask, into one (d + 1, K) accumulator.
    """
    n, d = x.shape
    r = np.empty(n)
    colx = np.zeros((d + 1, w.shape[0]))
    gv = np.zeros(w.shape[0])
    rx_buf = _block_buffer(n, d + 1)
    for blk, z in _preact_blocks(x, w, b):
        if z_out is not None:
            z_out[blk] = z
        np.maximum(z, 0.0, out=z)
        rb = r[blk]
        np.matmul(z, v, out=rb)
        rb += beta
        rb -= y[blk]
        rv = rb / n
        gv += rv @ z
        # The strict 1{z > 0} derivative: relu(z) > 0 exactly when z > 0.
        np.greater(z, 0.0, out=z)
        rx = rx_buf[: rv.shape[0]]
        np.multiply(x[blk], rv[:, None], out=rx[:, :d])
        rx[:, d] = rv
        colx += rx.T @ z
    return r, colx[:d].T, colx[d], gv


def _grad_flat(theta: np.ndarray, x: np.ndarray, y: np.ndarray, d: int, k: int):
    """Gradient in flat layout plus the loss value, one residual pass."""
    n = x.shape[0]
    w, b, v, beta = _split(theta, d, k)
    r, col, colsum, gv = _residual_pass(x, y, w, b, v, beta)
    loss_val = 0.5 * float(np.mean(r * r))
    # dL/dw_k = (1/n) sum_i r_i v_k 1_ik x_i ; dL/db_k = -(1/n) sum_i r_i v_k 1_ik
    gw = v[:, None] * col
    gb = -v * colsum
    gbeta = float((r / n).sum())
    return _join(gw, gb, gv, gbeta), loss_val


def loss_gradient(net: TwoLayerNet, data: Dataset) -> np.ndarray:
    """Exact gradient of :func:`loss` in the flat layout.

    The ReLU derivative is taken as ``1{z > 0}``, so points exactly on an
    activation boundary contribute through the inactive branch.
    """
    theta = pack_params(net)
    g, _ = _grad_flat(theta, data.inputs, data.labels, net.input_dim, net.width)
    return g


def kaiming_init(rng: np.random.Generator, d: int, k: int) -> TwoLayerNet:
    """Fan-in scaled Gaussian init: w ~ N(0, 2/d), b = 0, v ~ N(0, 2/K), beta = 0."""
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and width >= 1, got d={d}, width={k}")
    w = rng.standard_normal((k, d)) * np.sqrt(2.0 / d)
    v = rng.standard_normal(k) * np.sqrt(2.0 / k)
    return TwoLayerNet(w=w, b=np.zeros(k), v=v, beta=0.0)


# ---------------------------------------------------------------------------
# reduced form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedForm:
    """Atoms on unit directions plus an affine remainder, valid on the unit ball.

    ``f(x) = sum_j a[j] * relu(u[j] . x - t[j]) + c . x + c0`` with
    ``||u[j]|| = 1``, ``|t[j]| <= 1``, and pairwise distinct ``(u, t)``.
    """

    a: np.ndarray
    u: np.ndarray
    t: np.ndarray
    c: np.ndarray
    c0: float

    @property
    def n_atoms(self) -> int:
        return self.a.shape[0]


def to_reduced_form(net: TwoLayerNet) -> ReducedForm:
    """Normalize a network to its reduced form on the unit ball.

    Per neuron with nonzero input weight: ``a = v * ||w||``, ``u = w / ||w||``,
    ``t = b / ||w||`` (positive homogeneity of the ReLU).  Neurons that are
    never active on the ball (``t > 1``) are dropped, neurons that are always
    active (``t < -1``) fold into the affine remainder, and zero-direction
    neurons fold their constant value into ``c0``.  Duplicate atoms merge by
    summing coefficients: after a lexicographic sort of the (u, t) rows, a
    row within 1e-12 (componentwise) of the row before it joins that row's
    run, so a chain of close rows merges even when its ends are further
    apart.  Merged atoms with coefficient exactly zero are dropped.
    """
    norms = np.linalg.norm(net.w, axis=1)
    live = norms > 0.0
    nk = norms[live]
    u = net.w[live] / nk[:, None]
    t = net.b[live] / nk
    a = net.v[live] * nk
    # Always active: a * (u . x - t) is affine on the ball.  Constant
    # neurons add v * relu(-b).
    always = t < -1.0
    c = a[always] @ u[always]
    c0 = float(net.beta + net.v[~live] @ np.maximum(-net.b[~live], 0.0) - a[always] @ t[always])
    kept = np.abs(t) <= 1.0
    ua = u[kept]
    ta = t[kept]
    aa = a[kept]

    # Group duplicates: lexicographic sort puts equal (u, t) rows next to each
    # other, and a run breaks where a row differs from the one before it by
    # more than the tolerance.
    key = np.column_stack([ua, ta])
    order = np.lexsort(key.T[::-1])
    breaks = np.ones(order.size, dtype=bool)
    breaks[1:] = np.max(np.abs(np.diff(key[order], axis=0)), axis=1) > _DUPLICATE_ATOL
    starts = np.flatnonzero(breaks)
    coeff = np.add.reduceat(aa[order], starts)
    lead = np.minimum.reduceat(order, starts)

    # Deterministic output order: first occurrence in the original network.
    rank = np.argsort(lead)
    kept_runs = rank[coeff[rank] != 0.0]
    lead = lead[kept_runs]
    return ReducedForm(a=coeff[kept_runs], u=ua[lead], t=ta[lead], c=c, c0=c0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_HEADER = struct.Struct("<II")  # d, K as little-endian uint32


def save_checkpoint(net: TwoLayerNet, path) -> None:
    """Binary checkpoint: header (d, K) then float64 [w row-major, b, v, beta]."""
    payload = pack_params(net).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(net.input_dim, net.width))
        fh.write(payload.tobytes())


def load_checkpoint(path) -> TwoLayerNet:
    with open(path, "rb") as fh:
        header = fh.read(_CKPT_HEADER.size)
        if len(header) != _CKPT_HEADER.size:
            raise ValueError(f"truncated checkpoint header in {path}")
        d, k = _CKPT_HEADER.unpack(header)
        body = fh.read()
    expected = param_count(d, k) * 8
    if len(body) != expected:
        raise ValueError(
            f"checkpoint body has {len(body)} bytes, expected {expected} for d={d}, K={k}"
        )
    theta = np.frombuffer(body, dtype="<f8").astype(float)
    return unpack_params(theta, d, k)
