"""Tests for the network module: forward/loss/gradient, reduced form, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relulab.nets import (
    _DUPLICATE_ATOL,
    Dataset,
    TwoLayerNet,
    forward,
    kaiming_init,
    load_checkpoint,
    loss,
    loss_gradient,
    pack_params,
    param_count,
    save_checkpoint,
    to_reduced_form,
    unpack_params,
)
from relulab.numerics import make_rng, sample_uniform_ball


def _evaluate_reduced(rf, x):
    """The reduced form evaluated at each row of ``x``, straight from its
    definition ``sum_j a_j relu(u_j . x - t_j) + c . x + c0``."""
    out = x @ rf.c + rf.c0
    if rf.n_atoms:
        out = out + np.maximum(x @ rf.u.T - rf.t, 0.0) @ rf.a
    return out


def _random_net(rng, d, k, scale=1.0):
    return TwoLayerNet(
        w=scale * rng.standard_normal((k, d)),
        b=scale * rng.standard_normal(k),
        v=scale * rng.standard_normal(k),
        beta=float(scale * rng.standard_normal()),
    )


def _random_dataset(rng, d, n, label_scale=1.0):
    x = sample_uniform_ball(rng, d, n)
    y = label_scale * rng.standard_normal(n)
    return Dataset(inputs=x, labels=y)


class TestForwardAndLoss:
    def test_hand_traced_forward(self):
        # w = [[1], [-1]], b = [0.5, 0], v = [2, 3], beta = 0.25.
        # x = 0.75:  z = (0.25, -0.75) -> f = 2*0.25 + 0.25 = 0.75
        # x = -0.5:  z = (-1.0, 0.5)  -> f = 3*0.5 + 0.25  = 1.75
        net = TwoLayerNet(w=[[1.0], [-1.0]], b=[0.5, 0.0], v=[2.0, 3.0], beta=0.25)
        assert forward(net, np.array([0.75])) == pytest.approx(0.75)
        assert forward(net, np.array([-0.5])) == pytest.approx(1.75)
        batch = forward(net, np.array([[0.75], [-0.5]]))
        np.testing.assert_allclose(batch, [0.75, 1.75])

    def test_hand_traced_loss(self):
        # Residuals (-0.25, 0.75): L = (1/(2*2)) * (0.0625 + 0.5625) = 0.15625
        net = TwoLayerNet(w=[[1.0], [-1.0]], b=[0.5, 0.0], v=[2.0, 3.0], beta=0.25)
        data = Dataset(inputs=[[0.75], [-0.5]], labels=[1.0, 1.0])
        assert loss(net, data) == pytest.approx(0.15625)

    def test_relu_inactive_at_boundary(self):
        # z = 0 exactly contributes nothing (strict inequality activation).
        net = TwoLayerNet(w=[[1.0]], b=[0.5], v=[7.0], beta=0.0)
        assert forward(net, np.array([0.5])) == 0.0


class TestGradient:
    @pytest.mark.parametrize("d,k,n", [(1, 1, 1), (2, 3, 5), (4, 8, 16)])
    def test_matches_central_differences(self, d, k, n):
        rng = make_rng(100 + d)
        net = _random_net(rng, d, k)
        data = _random_dataset(rng, d, n)
        theta = pack_params(net)
        g = loss_gradient(net, data)
        h = 1e-6
        fd = np.empty_like(theta)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            lp = loss(unpack_params(tp, d, k), data)
            lm = loss(unpack_params(tm, d, k), data)
            fd[j] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)

    def test_beta_gradient_is_mean_residual(self):
        rng = make_rng(8)
        net = _random_net(rng, 2, 4)
        data = _random_dataset(rng, 2, 10)
        r = forward(net, data.inputs) - data.labels
        g = loss_gradient(net, data)
        assert g[-1] == pytest.approx(float(np.mean(r)))


class TestKaimingInit:
    def test_scales_and_zero_biases(self):
        net = kaiming_init(make_rng(0), d=4, k=4000)
        assert net.w.std() == pytest.approx(np.sqrt(2.0 / 4), rel=0.05)
        assert net.v.std() == pytest.approx(np.sqrt(2.0 / 4000), rel=0.05)
        assert np.all(net.b == 0.0)
        assert net.beta == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            kaiming_init(make_rng(0), 0, 4)


class TestDatasetValidation:
    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[[1.5, 0.0]], labels=[0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[[0.1, 0.2]], labels=[0.0, 1.0])

    @pytest.mark.parametrize(
        "inputs,labels",
        [
            ([[float("nan"), 0.0]], [0.0]),
            ([[float("-inf"), 0.0]], [0.0]),
            ([[0.1, 0.2]], [float("nan")]),
            ([[0.1, 0.2]], [float("inf")]),
        ],
    )
    def test_rejects_non_finite_values(self, inputs, labels):
        # A NaN norm compares False with the ball's radius, so the ball
        # check alone lets NaN through.
        with pytest.raises(ValueError, match="finite"):
            Dataset(inputs=inputs, labels=labels)


def _kept_atoms_by_walk(net):
    """Oracle for the kept atoms of ``to_reduced_form``: the original
    neuron-by-neuron walk, where a run holds the rows within the tolerance
    of the run's first row.  Returns (a, u, t)."""
    norms = np.linalg.norm(net.w, axis=1)
    live = norms > 0.0
    u = net.w[live] / norms[live][:, None]
    t = net.b[live] / norms[live]
    a = net.v[live] * norms[live]
    kept = np.abs(t) <= 1.0
    ua, ta, aa = u[kept], t[kept], a[kept]
    key = np.column_stack([ua, ta])
    groups = []
    for idx in np.lexsort(key.T[::-1]):
        if groups and np.max(np.abs(key[groups[-1][0]] - key[idx])) <= _DUPLICATE_ATOL:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    groups.sort(key=min)
    out = [(float(aa[g].sum()), min(g)) for g in groups]
    out = [(coeff, lead) for coeff, lead in out if coeff != 0.0]
    lead = np.array([lead for _, lead in out], dtype=int)
    return np.array([coeff for coeff, _ in out]), ua[lead], ta[lead]


def _net_with_duplicates(rng, d, width):
    """A random net whose neurons are repeated: exact copies, copies about
    1e-13 away, and copies whose outer weight cancels the original's."""
    w = rng.standard_normal((width, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    b = rng.uniform(-1.2, 1.2, width)
    v = rng.standard_normal(width)
    pick = rng.integers(0, width, size=(3, width // 3))
    near = 1e-13 * rng.uniform(-1.0, 1.0, (width // 3, d + 1))
    w = np.vstack([w, w[pick[0]], w[pick[1]] + near[:, :d], w[pick[2]]])
    b = np.concatenate([b, b[pick[0]], b[pick[1]] + near[:, d], b[pick[2]]])
    v = np.concatenate([v, rng.standard_normal(width // 3), v[pick[1]], -v[pick[2]]])
    perm = rng.permutation(w.shape[0])
    return TwoLayerNet(w=w[perm], b=b[perm], v=v[perm], beta=0.0)


class TestReducedForm:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_merge_matches_the_walk(self, d, seed):
        net = _net_with_duplicates(make_rng(100 * d + seed), d, 60)
        rf = to_reduced_form(net)
        a, u, t = _kept_atoms_by_walk(net)
        # A run of three or more adds in another order than ndarray.sum, so
        # merged coefficients agree to rounding; the atoms themselves agree
        # exactly.
        np.testing.assert_allclose(rf.a, a, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(rf.u, u)
        np.testing.assert_array_equal(rf.t, t)

    def test_no_kept_atoms_matches_the_walk(self):
        # t = 3 is never active, t = -3 always active, w = 0 constant.
        net = TwoLayerNet(
            w=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], b=[3.0, -3.0, 0.5], v=[1.0, 2.0, 3.0], beta=0.0
        )
        rf = to_reduced_form(net)
        a, u, t = _kept_atoms_by_walk(net)
        assert rf.a.shape == (0,) and rf.u.shape == (0, 2) and rf.t.shape == (0,)
        assert a.size == 0 and u.shape == (0, 2)

    def test_a_chain_of_close_rows_merges_into_one_atom(self):
        # Each offset is within the tolerance of the one before it, the ends
        # are not: a run continues row to row, not from its first row.
        step = 0.8 * _DUPLICATE_ATOL
        net = TwoLayerNet(
            w=[[1.0]] * 3, b=[0.3, 0.3 + step, 0.3 + 2 * step], v=[1.0, 2.0, 4.0], beta=0.0
        )
        rf = to_reduced_form(net)
        assert rf.n_atoms == 1
        assert rf.a[0] == 7.0
        assert rf.t[0] == 0.3
        assert _kept_atoms_by_walk(net)[0].size == 2

    def test_zero_direction_neuron_folds_to_constant(self):
        net = TwoLayerNet(w=[[0.0, 0.0]], b=[-0.3], v=[2.0], beta=0.1)
        rf = to_reduced_form(net)
        assert rf.n_atoms == 0
        assert rf.c0 == pytest.approx(0.1 + 2.0 * 0.3)

    def test_never_active_neuron_dropped(self):
        net = TwoLayerNet(w=[[2.0, 0.0]], b=[3.0], v=[1.0], beta=0.0)  # t = 1.5 > 1
        rf = to_reduced_form(net)
        assert rf.n_atoms == 0
        assert rf.c0 == 0.0
        assert np.all(rf.c == 0.0)

    def test_always_active_neuron_folds_to_affine(self):
        # t = -2 < -1: a = 0.5 * 2 = 1, u = e2, contribution a*(u.x - t).
        net = TwoLayerNet(w=[[0.0, 2.0]], b=[-4.0], v=[0.5], beta=0.0)
        rf = to_reduced_form(net)
        assert rf.n_atoms == 0
        np.testing.assert_allclose(rf.c, [0.0, 1.0])
        assert rf.c0 == pytest.approx(2.0)

    def test_duplicate_atoms_cancel(self):
        # Both neurons reduce to (u = e1, t = 0.2); coefficients 1 and -1 cancel.
        net = TwoLayerNet(
            w=[[1.0, 0.0], [2.0, 0.0]], b=[0.2, 0.4], v=[1.0, -0.5], beta=0.0
        )
        rf = to_reduced_form(net)
        assert rf.n_atoms == 0

    def test_duplicate_atoms_merge(self):
        net = TwoLayerNet(
            w=[[1.0, 0.0], [3.0, 0.0]], b=[0.1, 0.3], v=[1.0, 1.0], beta=0.0
        )
        rf = to_reduced_form(net)
        assert rf.n_atoms == 1
        assert rf.a[0] == pytest.approx(4.0)
        assert rf.t[0] == pytest.approx(0.1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluator_agreement_on_the_ball(self, d):
        rng = make_rng(40 + d)
        for _ in range(5):
            net = _random_net(rng, d, 12, scale=1.5)
            rf = to_reduced_form(net)
            x = sample_uniform_ball(rng, d, 200)
            np.testing.assert_allclose(
                _evaluate_reduced(rf, x), forward(net, x), rtol=1e-10, atol=1e-10
            )
            assert np.all(np.abs(rf.t) <= 1.0)
            if rf.n_atoms:
                np.testing.assert_allclose(
                    np.linalg.norm(rf.u, axis=1), np.ones(rf.n_atoms), rtol=1e-12
                )

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_path_norm_invariant_under_neuron_rescaling(self, s):
        # w -> s w, b -> s b, v -> v / s leaves the function and the reduced
        # form unchanged (positive homogeneity of the ReLU).
        rng = make_rng(77)
        net = _random_net(rng, 2, 6)
        scaled = TwoLayerNet(w=s * net.w, b=s * net.b, v=net.v / s, beta=net.beta)
        rf0 = to_reduced_form(net)
        rf1 = to_reduced_form(scaled)
        assert np.abs(rf1.a).sum() == pytest.approx(np.abs(rf0.a).sum(), rel=1e-10)
        np.testing.assert_allclose(rf1.t, rf0.t, rtol=1e-10, atol=1e-12)

    def test_weighted_path_norm_is_weighted_kink_integral_in_1d(self):
        # For d = 1 the atoms are slope jumps: |f''| = sum |a_j| delta(x - x_j)
        # with x_j = u_j t_j, so int |f''| (1-|x|)^3 dx = sum |a_j| (1-|t_j|)^3,
        # the weighted path norm under g(u, t) = (1-|t|)^3.  The jump sizes are
        # probed numerically with one-sided difference quotients.
        rng = make_rng(11)
        net = _random_net(rng, 1, 7)
        rf = to_reduced_form(net)
        assert rf.n_atoms > 0
        delta = 1e-7

        def f(x):
            return forward(net, np.array([x]))

        total = 0.0
        for a, u, t in zip(rf.a, rf.u, rf.t):
            x_kink = float(u[0] * t)
            left = (f(x_kink - delta) - f(x_kink - 2 * delta)) / delta
            right = (f(x_kink + 2 * delta) - f(x_kink + delta)) / delta
            total += abs(right - left) * (1.0 - abs(x_kink)) ** 3
        weighted = np.abs(rf.a) @ (1.0 - np.abs(rf.t)) ** 3
        assert weighted == pytest.approx(total, rel=1e-5)


class TestPackUnpack:
    def test_round_trip(self):
        net = _random_net(make_rng(3), 3, 5)
        back = unpack_params(pack_params(net), 3, 5)
        np.testing.assert_array_equal(back.w, net.w)
        np.testing.assert_array_equal(back.b, net.b)
        np.testing.assert_array_equal(back.v, net.v)
        assert back.beta == net.beta

    def test_param_count(self):
        assert param_count(4, 8) == 8 * 6 + 1


class TestCheckpoints:
    def test_round_trip_and_determinism(self, tmp_path):
        net = _random_net(make_rng(9), 2, 4)
        p1 = tmp_path / "net_a.ckpt"
        p2 = tmp_path / "net_b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = load_checkpoint(p1)
        np.testing.assert_array_equal(back.w, net.w)
        np.testing.assert_array_equal(back.b, net.b)
        np.testing.assert_array_equal(back.v, net.v)
        assert back.beta == net.beta

    def test_header_validation(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"\x01\x00\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(p)
        save_checkpoint(_random_net(make_rng(0), 2, 3), p)
        truncated = p.read_bytes()[:-8]
        p.write_bytes(truncated)
        with pytest.raises(ValueError):
            load_checkpoint(p)
