"""Loss-Hessian actions, sharpness, and the flatness certificate.

The loss Hessian of the half-MSE objective splits into a positive
semidefinite Gauss-Newton part built from per-example gradients of the
network and a residual-weighted part built from per-example Hessians of the
network.  For this architecture the per-example network Hessian is sparse:
with ``z_k = w_k . x - b_k`` and ``1_k = 1{z_k > 0}`` the only nonzero blocks
are the (w_k, v_k) block ``1_k x`` and the (b_k, v_k) entry ``-1_k`` (the
minus tracks the minus in front of the inner bias).  Everything here works
matrix-free through these closed forms; nothing materializes an (m x m)
matrix.

The certificate at the end bounds the weighted path norm of the represented
function by a sharpness expression: with the empirical weight g built from
the training inputs, which lie in the unit ball (R = 1),

    sum_j |a_j| g(u_j, t_j) <= lambda_max/2 - 1/2 + (R+1) sqrt(2 L)

and the Gauss-Newton eigenvalue separately dominates the one-sided bound
``1 + 2 sum_k |v_k| ||w_k|| gtilde(w_k/||w_k||, b_k/||w_k||)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from relulab.nets import (
    Dataset,
    TwoLayerNet,
    _block_buffer,
    _preact_blocks,
    _residual_pass,
    forward,
    loss,
    param_count,
    to_reduced_form,
)
from relulab.numerics import EigenEstimate
# relubench's probes wrap the solver under this module-level name; the
# roadmap's benchmark catch-up (item 1) moves the probe to _top_eigenvalue
# and drops the alias.
from relulab.numerics import top_eigenpair as power_iteration
from relulab.weights import g_empirical, tilde_g_empirical

__all__ = [
    "ActivationBoundaryWarning",
    "hessian_vector_product",
    "make_hessian_operator",
    "sharpness",
    "gauss_newton_sharpness",
    "term_a_lower_bound",
    "RegularityCertificate",
    "regularity_certificate",
]

_BOUNDARY_ATOL = 1e-12
_CERT_SLACK = 1e-8


class ActivationBoundaryWarning(UserWarning):
    """Some preactivation sits numerically on the ReLU kink; the Hessian
    action proceeds with the inactive-branch convention 1{z > 0}."""


def make_hessian_operator(
    net: TwoLayerNet,
    data: Dataset,
    gauss_newton_only: bool = False,
) -> Callable[[np.ndarray], np.ndarray]:
    """Return a closure computing ``H @ vec`` in the flat parameter layout.

    The build is the gradient's residual pass, which also copies the
    preactivations into the one (n, K) float array the operator keeps (about
    11 MiB allocated in all at n=512, K=2048).  Each application walks the
    same row blocks through ``_preact_blocks``, whose buffer belongs to that
    call and holds the tangent preactivations.  The operator owns a float
    copy of the block's mask and a (rows, d + 1) buffer of ``[s_i x_i, s_i]``,
    whose product fills the (d + 1, K) Gauss-Newton sums at once.  No buffer
    belongs to the module, since sweep cells run on a thread pool.
    """
    x = data.inputs
    n, d = x.shape
    k = net.width
    v = net.v

    a = np.empty((n, k))
    r, res_wx, res_bsum, _ = _residual_pass(x, data.labels, net.w, net.b, v, net.beta, a)
    if np.any((a > -_BOUNDARY_ATOL) & (a < _BOUNDARY_ATOL)):
        warnings.warn(
            "preactivation within 1e-12 of the ReLU kink; using the strict "
            "1{z > 0} branch",
            ActivationBoundaryWarning,
            stacklevel=3,
        )
    act = a > 0.0
    np.maximum(a, 0.0, out=a)

    wd = k * d
    sact_buf = _block_buffer(n, k)
    sx_buf = _block_buffer(n, d + 1)

    def apply(vec: np.ndarray) -> np.ndarray:
        vw = vec[:wd].reshape(k, d)
        vb = vec[wd : wd + k]
        vv = vec[wd + k : wd + 2 * k]
        vbeta = vec[-1]

        s = np.empty(n)                 # per-example gradient pairing
        swx = np.zeros((d + 1, k))      # sum_i s_i 1_ik [x_i, 1]
        hv = np.zeros(k)
        for blk, core in _preact_blocks(x, vw, vb):
            ab = a[blk]
            sact = sact_buf[: ab.shape[0]]
            np.copyto(sact, act[blk])
            core *= sact                # 1_ik (x_i . Vw_k - Vb_k)
            sb = s[blk]
            np.matmul(core, v, out=sb)
            sb += ab @ vv
            sb += vbeta
            sx = sx_buf[: ab.shape[0]]
            np.multiply(x[blk], sb[:, None], out=sx[:, :d])
            sx[:, d] = sb
            swx += sx.T @ sact
            hv += sb @ ab
            if not gauss_newton_only:
                hv += r[blk] @ core

        sw, ssum = swx[:d].T, swx[d]
        hw = v[:, None] * sw / n
        hb = -v * ssum / n
        hv /= n
        hbeta = float(s.mean())

        if not gauss_newton_only:
            hw = hw + vv[:, None] * res_wx
            hb = hb - vv * res_bsum

        return np.concatenate([hw.ravel(), hb, hv, [hbeta]])

    return apply


def hessian_vector_product(
    net: TwoLayerNet,
    data: Dataset,
    vec: np.ndarray,
    gauss_newton_only: bool = False,
) -> np.ndarray:
    """Exact ``H @ vec`` for the loss Hessian (or its Gauss-Newton part)."""
    vec = np.asarray(vec, dtype=float)
    m = param_count(net.input_dim, net.width)
    if vec.shape != (m,):
        raise ValueError(f"expected flat vector of length {m}, got shape {vec.shape}")
    return make_hessian_operator(net, data, gauss_newton_only)(vec)


def _top_eigenvalue(
    net: TwoLayerNet,
    data: Dataset,
    gauss_newton_only: bool,
    rel_tol: float,
    max_iters: int,
    rng,
    v0,
) -> EigenEstimate:
    op = make_hessian_operator(net, data, gauss_newton_only)
    m = param_count(net.input_dim, net.width)
    res = power_iteration(op, m, rel_tol=rel_tol, max_iters=max_iters, rng=rng, v0=v0)
    if not res.converged:
        warnings.warn(
            f"the Lanczos solve did not reach rel_tol={rel_tol} within "
            f"{max_iters} iterations; returning the last estimate",
            RuntimeWarning,
            stacklevel=3,
        )
    return res


def sharpness(
    net: TwoLayerNet,
    data: Dataset,
    rel_tol: float = 1e-8,
    max_iters: int = 2000,
    rng=None,
    v0=None,
) -> EigenEstimate:
    """Largest algebraic eigenvalue of the loss Hessian at ``net``, with
    its eigenvector, residual and solver counts.  The solve starts from
    ``v0`` when given (say, the vector of an earlier estimate), else from a
    draw of ``rng``."""
    return _top_eigenvalue(net, data, False, rel_tol, max_iters, rng, v0)


def gauss_newton_sharpness(
    net: TwoLayerNet,
    data: Dataset,
    rel_tol: float = 1e-8,
    max_iters: int = 2000,
    rng=None,
    v0=None,
) -> EigenEstimate:
    """Largest eigenvalue of the Gauss-Newton part alone (PSD), as
    :func:`sharpness` reports it."""
    return _top_eigenvalue(net, data, True, rel_tol, max_iters, rng, v0)


def term_a_lower_bound(net: TwoLayerNet, data: Dataset) -> float:
    """One-sided certified lower bound on the Gauss-Newton eigenvalue:
    ``1 + 2 sum_k |v_k| ||w_k|| gtilde_emp(w_k/||w_k||, b_k/||w_k||)``.

    Zero-direction neurons contribute nothing and are skipped.
    """
    norms = np.linalg.norm(net.w, axis=1)
    keep = (norms > 0.0) & (net.v != 0.0)
    nk = norms[keep]
    gt = tilde_g_empirical(data.inputs, net.w[keep] / nk[:, None], net.b[keep] / nk)
    return 1.0 + 2.0 * float(np.abs(net.v[keep]) * nk @ gt)


@dataclass(frozen=True)
class RegularityCertificate:
    """Numerical certificate tying flatness to weighted-variation smallness.

    ``lhs`` is the weighted path norm ``sum_j |a_j| g(u_j, t_j)`` of the
    reduced form under the empirical weight; ``rhs`` is
    ``lambda_max/2 - 1/2 + 2 sqrt(2 L)``, the unit ball's R = 1.  ``holds``
    allows absolute slack 1e-8 for eigenvalue estimation error.
    ``term_a_holds`` records the Gauss-Newton side check.
    """

    lhs: float
    rhs: float
    term_a_bound: float
    lambda_max: float
    gauss_newton_lambda_max: float
    train_loss: float
    holds: bool
    term_a_holds: bool


def regularity_certificate(
    net: TwoLayerNet,
    data: Dataset,
    rel_tol: float = 1e-10,
    max_iters: int = 20000,
    rng=None,
) -> RegularityCertificate:
    """Check the flatness-implies-regularity inequality at ``net``.

    The weight is :func:`g_empirical` over ``data.inputs``, the
    distribution the inequality is proved for.  The certificate is valid at
    any twice differentiable parameter point, minima included.  The
    Hessian solve starts from a draw of ``rng``, the Gauss-Newton solve from
    the Hessian's top eigenvector; ``max_iters`` bounds the Hessian-vector
    products of each.
    """
    rf = to_reduced_form(net)
    lhs = float(np.abs(rf.a) @ g_empirical(data.inputs, rf.u, rf.t))
    top = sharpness(net, data, rel_tol=rel_tol, max_iters=max_iters, rng=rng)
    lam = top.value
    gn_lam = gauss_newton_sharpness(
        net, data, rel_tol=rel_tol, max_iters=max_iters, v0=top.vector
    ).value
    train_loss = loss(net, data)
    rhs = 0.5 * lam - 0.5 + 2.0 * math.sqrt(2.0 * train_loss)
    bound = term_a_lower_bound(net, data)
    return RegularityCertificate(
        lhs=lhs,
        rhs=rhs,
        term_a_bound=bound,
        lambda_max=lam,
        gauss_newton_lambda_max=gn_lam,
        train_loss=train_loss,
        holds=bool(lhs <= rhs + _CERT_SLACK),
        term_a_holds=bool(gn_lam >= bound - _CERT_SLACK),
    )
