"""Row-blocked kernels against plain numpy.

The kernels work through the rows of ``x`` in blocks of ``ROW_BLOCK``; the
references below hold every (n, K) array whole, as the formulas read.  The
gradient and Hessian-vector sums accumulate in another order, so they agree
to a relative 1e-13.  Every forward value is a per-row product and every
activation fraction an exact count, so those agree bit for bit, although the
kernels fold the bias into the product as a weight on a constant -1 input
and the references subtract it after.  That bit-equality rests on the BLAS
kernel adding the folded term last: it holds under OpenBLAS's SkylakeX and
Sandybridge kernels, but not under Haswell, where products at d >= 10 over
an odd number of rows round apart, as the golden artifacts do.  The
empirical weight takes all its directions in one blocked pass; its reference
takes one direction at a time, as the flatness certificate once did.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from relulab import nets
from relulab.nets import (
    ROW_BLOCK,
    Dataset,
    TwoLayerNet,
    forward,
    loss_gradient,
    pack_params,
    param_count,
    to_reduced_form,
)
from relulab.numerics import make_rng, sample_uniform_ball
from relulab.sharpness import (
    ActivationBoundaryWarning,
    make_hessian_operator,
    regularity_certificate,
    term_a_lower_bound,
)
from relulab.shattering import neuron_stats
from relulab.training import TrainConfig, gd_step_flat
from relulab.weights import g_empirical, tilde_g_empirical

REL_TOL = 1e-13


def _reference_forward(net, x):
    return np.maximum(x @ net.w.T - net.b, 0.0) @ net.v + net.beta


def _reference_gradient(net, x, y):
    n = x.shape[0]
    z = x @ net.w.T - net.b
    act = z > 0.0
    a = np.where(act, z, 0.0)
    r = a @ net.v + net.beta - y
    ract = (r / n)[:, None] * act
    gw = net.v[:, None] * (ract.T @ x)
    gb = -net.v * ract.sum(axis=0)
    gv = a.T @ r / n
    return np.concatenate([gw.ravel(), gb, gv, [r.mean()]])


def _reference_hvp(net, x, y, vec, gauss_newton_only):
    n, d = x.shape
    k = net.width
    vw = vec[: k * d].reshape(k, d)
    vb = vec[k * d : k * d + k]
    vv = vec[k * d + k : k * d + 2 * k]
    z = x @ net.w.T - net.b
    act = z > 0.0
    a = np.where(act, z, 0.0)
    r = a @ net.v + net.beta - y
    core = np.where(act, x @ vw.T - vb, 0.0)
    s = core @ net.v + a @ vv + vec[-1]
    sact = s[:, None] * act
    hw = net.v[:, None] * (sact.T @ x) / n
    hb = -net.v * sact.sum(axis=0) / n
    hv = a.T @ s / n
    if not gauss_newton_only:
        ract = r[:, None] * act
        hw = hw + vv[:, None] * (ract.T @ x) / n
        hb = hb - vv * ract.sum(axis=0) / n
        hv = hv + core.T @ r / n
    return np.concatenate([hw.ravel(), hb, hv, [s.mean()]])


def _reference_tilde_g(points, u, t):
    """The plug-in one-sided factor of one direction."""
    proj = points @ u
    mask = proj > t
    count = int(mask.sum())
    if count == 0:
        return 0.0
    p = count / proj.shape[0]
    cond_gap = float(np.mean(proj[mask] - t))
    cond_mean = points[mask].mean(axis=0)
    return p * p * cond_gap * math.sqrt(1.0 + float(cond_mean @ cond_mean))


def _reference_g(points, u, t):
    return min(_reference_tilde_g(points, u, t), _reference_tilde_g(points, -u, -t))


def _reference_term_a(net, x):
    norms = np.linalg.norm(net.w, axis=1)
    total = 1.0
    for k in range(net.width):
        nk = norms[k]
        if nk == 0.0 or net.v[k] == 0.0:
            continue
        total += 2.0 * abs(net.v[k]) * nk * _reference_tilde_g(x, net.w[k] / nk, net.b[k] / nk)
    return total


def _instance(n, d=3, k=40, seed=0):
    """Random net and data whose first neuron sits exactly on the kink at
    the first input: x_0 = (0.5, 0, ...), w_0 = e_1, b_0 = 0.5."""
    rng = make_rng(seed + n)
    x = sample_uniform_ball(rng, d, n)
    x[0] = 0.0
    x[0, 0] = 0.5
    w = rng.standard_normal((k, d))
    w[0] = 0.0
    w[0, 0] = 1.0
    b = rng.normal(scale=0.3, size=k)
    b[0] = 0.5
    net = TwoLayerNet(w=w, b=b, v=rng.standard_normal(k), beta=float(rng.normal()))
    data = Dataset(inputs=x, labels=rng.standard_normal(n))
    assert (x @ net.w.T - net.b)[0, 0] == 0.0
    return net, data, rng


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


SIZES = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 2 * ROW_BLOCK + 2]


def _sizes_and_dims(sizes):
    """(n, d) cases at d in {1, 3, 10}; those at ``_instance``'s default
    d = 3 are named by n alone."""
    return [pytest.param(n, d, id=str(n) if d == 3 else f"{n}-d{d}") for d in (1, 3, 10) for n in sizes]


@pytest.mark.parametrize("d", [1, 2, 5, 10, 16])
@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 2])
def test_folded_bias_equals_product_then_subtraction(n, d):
    # One column (K = 1) takes the unfolded path, as one row (n = 1) does.
    # x_0 = (0.5, 0, ...) sits exactly on the first neuron's kink, b_0 = w_00 / 2.
    rng = make_rng(10 * n + d)
    x = sample_uniform_ball(rng, d, n)
    x[0] = 0.0
    x[0, 0] = 0.5
    for k in (1, 40):
        w = rng.standard_normal((k, d))
        b = rng.normal(scale=0.3, size=k)
        b[0] = 0.5 * w[0, 0]
        seen = 0
        for rows, z in nets._preact_blocks(x, w, b):
            ref = x[rows] @ w.T - b
            assert np.array_equal(z, ref) and np.array_equal(np.signbit(z), np.signbit(ref))
            seen += z.shape[0]
        assert seen == n
        z0 = next(nets._preact_blocks(x, w, b))[1][0, 0]
        assert z0 == 0.0 and not np.signbit(z0)


@pytest.mark.parametrize(("n", "d"), _sizes_and_dims(SIZES + [10000]))
def test_blocked_forward_equals_unblocked_reference(n, d):
    net, data, _ = _instance(n, d=d)
    got = forward(net, data.inputs)
    assert got.shape == (n,)
    assert np.array_equal(got, _reference_forward(net, data.inputs))


def test_forward_of_a_single_point_is_a_float():
    net, data, _ = _instance(ROW_BLOCK + 1)
    for x in data.inputs[:3]:
        got = forward(net, x)
        assert isinstance(got, float)
        assert got == _reference_forward(net, x[None, :])[0]


@pytest.mark.parametrize(("n", "d"), _sizes_and_dims(SIZES + [10000]))
def test_blocked_activation_fractions_equal_unblocked_reference(n, d):
    net, data, _ = _instance(n, d=d)
    z = data.inputs @ net.w.T - net.b
    fraction = neuron_stats(net, data.inputs).activation_fraction
    assert np.array_equal(fraction, np.mean(z > 0.0, axis=0))


@pytest.mark.parametrize("n", SIZES)
def test_blocked_gradient_matches_unblocked_reference(n):
    net, data, _ = _instance(n)
    _assert_close(loss_gradient(net, data), _reference_gradient(net, data.inputs, data.labels))


@pytest.mark.parametrize("gauss_newton_only", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_blocked_hvp_matches_unblocked_reference(n, gauss_newton_only):
    net, data, rng = _instance(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ActivationBoundaryWarning)
        op = make_hessian_operator(net, data, gauss_newton_only)
    # Reapplying one operator must not carry state between calls.
    for _ in range(2):
        vec = rng.standard_normal(param_count(net.input_dim, net.width))
        ref = _reference_hvp(net, data.inputs, data.labels, vec, gauss_newton_only)
        _assert_close(op(vec), ref)


def test_neurons_on_the_kink_at_every_point(monkeypatch):
    # Preactivations of exactly 0.0 and -0.0 are inactive under the strict
    # 1{z > 0} and add exact zeros; a positive subnormal is active.  A BLAS
    # sum of signed zeros comes out +0.0, so the three columns are written
    # into each block as it is made.
    n, k = 2 * ROW_BLOCK + 1, 8
    net, data, _ = _instance(n, k=k)
    x, y = data.inputs, data.labels
    kinks = {1: 0.0, 2: -0.0, 3: 5e-324}
    preact_blocks = nets._preact_blocks

    def with_kinks(x, w, b):
        for rows, z in preact_blocks(x, w, b):
            for j, value in kinks.items():
                z[:, j] = value
            yield rows, z

    monkeypatch.setattr(nets, "_preact_blocks", with_kinks)
    z = np.empty((n, k))
    r, col, colsum, gv = nets._residual_pass(x, y, net.w, net.b, net.v, net.beta, z)
    assert not np.signbit(z[:, 1]).any() and np.signbit(z[:, 2]).all()
    assert np.all(z[:, 3] == 5e-324)
    for j in (1, 2):
        assert np.all(col[j] == 0.0) and colsum[j] == 0.0 and gv[j] == 0.0

    act = z > 0.0
    assert np.array_equal(act[:, 1:4].any(axis=0), [False, False, True])
    a = np.where(act, z, 0.0)
    ref_r = a @ net.v + net.beta - y
    ract = (ref_r / n)[:, None] * act
    assert np.array_equal(r, ref_r)
    _assert_close(col, ract.T @ x)
    _assert_close(colsum, ract.sum(axis=0))
    _assert_close(gv, a.T @ ref_r / n)
    assert np.all(col[3] != 0.0) and colsum[3] != 0.0


def test_training_step_allocates_a_few_blocks_not_whole_activations():
    # At the shattering shape one (ROW_BLOCK + 1, K) buffer, the (d + 1, K)
    # accumulator and the gradient come to about 1.4 MiB; a single whole
    # (n, K) float64 array is 8 MiB.
    d, n, k = 10, 512, 2048
    net, data, _ = _instance(n, d=d, k=k)
    theta = pack_params(net)
    cfg = TrainConfig(eta=0.1, epochs=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gd_step_flat(theta, data.inputs, data.labels, d, k, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 <= 2.0


def test_holdout_forward_allocates_a_block_not_whole_activations():
    # A 10^4-point holdout at the shattering width: one (ROW_BLOCK + 1, K)
    # buffer plus the output is about 1.1 MiB; the whole (n, K) activations
    # would be 156 MiB each.
    d, n, k = 10, 10000, 2048
    net, data, _ = _instance(n, d=d, k=k)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forward(net, data.inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 <= 4.0


def test_hessian_operator_build_keeps_one_activation_array():
    # At the shattering shape the operator keeps the (n, K) float64
    # activations (8 MiB) and their boolean mask (1 MiB) plus block buffers;
    # the whole-array build held several (n, K) arrays at once (27 MiB).
    d, n, k = 10, 512, 2048
    net, data, _ = _instance(n, d=d, k=k)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ActivationBoundaryWarning)
            make_hessian_operator(net, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 <= 14.0


def _directions(n, d, m=40):
    """Points and (u, t) pairs with the edge cases of the plug-in factor:
    a point exactly on the first threshold, x_0 = (0.5, 0, ...) against
    (e_1, 0.5); a duplicate pair; an empty event; an event holding every
    point."""
    rng = make_rng(100 * d + n)
    x = sample_uniform_ball(rng, d, n)
    x[0] = 0.0
    x[0, 0] = 0.5
    u = rng.standard_normal((m, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = rng.uniform(-1.0, 1.0, m)
    u[0] = 0.0
    u[0, 0] = 1.0
    t[0] = 0.5
    u[2], t[2] = u[1], t[1]
    t[3] = 1.5
    t[4] = -1.5
    return x, u, t


@pytest.mark.parametrize("d", [1, 3, 10])
@pytest.mark.parametrize("n", SIZES)
def test_blocked_empirical_weight_matches_per_direction_reference(n, d):
    x, u, t = _directions(n, d)
    assert x[0] @ u[0] == t[0]
    one_sided = tilde_g_empirical(x, u, t)
    both = g_empirical(x, u, t)
    ref_one = np.array([_reference_tilde_g(x, uj, tj) for uj, tj in zip(u, t)])
    ref_both = np.array([_reference_g(x, uj, tj) for uj, tj in zip(u, t)])
    np.testing.assert_allclose(one_sided, ref_one, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(both, ref_both, rtol=1e-10, atol=0.0)
    assert one_sided[3] == 0.0 and both[4] == 0.0
    assert one_sided[1] == pytest.approx(one_sided[2], rel=1e-12)
    # A single direction takes the same path and comes back as a float.
    single = tilde_g_empirical(x, u[5], t[5])
    assert isinstance(single, float)
    assert single == pytest.approx(one_sided[5], rel=1e-12)


@pytest.mark.parametrize("n", [ROW_BLOCK - 1, 2 * ROW_BLOCK + 2])
def test_term_a_and_certificate_lhs_match_per_neuron_references(n):
    net, data, _ = _instance(n)
    w, b, v = net.w.copy(), net.b.copy(), net.v.copy()
    w[3] = 0.0                          # a zero-direction neuron
    v[4] = 0.0                          # a neuron with no output weight
    w[6], b[6] = 2.0 * w[5], 2.0 * b[5]  # a duplicate atom
    net = TwoLayerNet(w=w, b=b, v=v, beta=net.beta)
    x = data.inputs
    ref_a = _reference_term_a(net, x)
    assert term_a_lower_bound(net, data) == pytest.approx(ref_a, rel=1e-12)

    rf = to_reduced_form(net)
    ref_lhs = sum(abs(a) * _reference_g(x, u, t) for a, u, t in zip(rf.a, rf.u, rf.t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ActivationBoundaryWarning)
        cert = regularity_certificate(net, data, rel_tol=1e-4, rng=0)
    assert cert.lhs == pytest.approx(ref_lhs, rel=1e-12)
    assert cert.term_a_bound == pytest.approx(ref_a, rel=1e-12)


def test_empirical_weight_allocates_a_few_blocks_not_whole_projections():
    # At the shattering shape two (ROW_BLOCK + 1, m) buffers per orientation
    # come to about 2 MiB; one whole (n, m) projection is 8 MiB.
    d, n, m = 10, 512, 2048
    x, u, t = _directions(n, d, m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g_empirical(x, u, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 <= 4.0
