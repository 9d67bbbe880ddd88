"""Tests for Hessian-vector products, sharpness, and the certificate."""

import math
import types
import warnings

import numpy as np
import pytest

from relulab.nets import (
    Dataset,
    TwoLayerNet,
    kaiming_init,
    loss,
    loss_gradient,
    pack_params,
    param_count,
    unpack_params,
)
from relulab.numerics import make_rng, sample_uniform_ball
from relulab.sharpness import (
    ActivationBoundaryWarning,
    RegularityCertificate,
    gauss_newton_sharpness,
    hessian_vector_product,
    make_hessian_operator,
    regularity_certificate,
    sharpness,
    term_a_lower_bound,
)


def _dense_from_hvp(net, data, gauss_newton_only=False):
    m = param_count(net.input_dim, net.width)
    op = make_hessian_operator(net, data, gauss_newton_only)
    cols = [op(col) for col in np.eye(m)]
    return np.column_stack(cols)


def _dense_from_fd(net, data, eps=1e-6):
    """Finite differences of the exact gradient, then symmetrized."""
    theta = pack_params(net)
    m = theta.size
    h = np.empty((m, m))
    for j in range(m):
        step = np.zeros(m)
        step[j] = eps
        gp = loss_gradient(unpack_params(theta + step, net.input_dim, net.width), data)
        gm = loss_gradient(unpack_params(theta - step, net.input_dim, net.width), data)
        h[:, j] = (gp - gm) / (2.0 * eps)
    return 0.5 * (h + h.T)


def _random_instance(rng, d, k, n, min_margin=1e-4):
    """Draw a net/dataset pair with every preactivation away from the kink."""
    for _ in range(200):
        x = sample_uniform_ball(rng, d, n)
        y = rng.normal(size=n)
        net = kaiming_init(rng, d, k)
        net = TwoLayerNet(w=net.w, b=rng.normal(scale=0.3, size=k), v=net.v, beta=float(rng.normal()))
        z = x @ net.w.T - net.b
        if np.min(np.abs(z)) > min_margin:
            return net, Dataset(inputs=x, labels=y)
    raise RuntimeError("could not draw an instance away from activation kinks")


class TestHandTracedHessian:
    # One neuron, one sample: x = 0.5, y = 0.25, w = 1, b = 0.2, v = -1.5,
    # beta = 0.1.  Then z = 0.3, a = 0.3, f = -0.35, r = -0.6 and
    # grad f = (-0.75, 1.5, 0.3, 1).  The Gauss-Newton part is the outer
    # product of grad f; the residual part adds r * x = -0.3 on the (w, v)
    # entries and r * (-1) = +0.6 on the (b, v) entries.
    NET = TwoLayerNet(w=[[1.0]], b=[0.2], v=[-1.5], beta=0.1)
    DATA = Dataset(inputs=[[0.5]], labels=[0.25])
    GN = np.array(
        [
            [0.5625, -1.125, -0.225, -0.75],
            [-1.125, 2.25, 0.45, 1.5],
            [-0.225, 0.45, 0.09, 0.3],
            [-0.75, 1.5, 0.3, 1.0],
        ]
    )
    FULL = np.array(
        [
            [0.5625, -1.125, -0.525, -0.75],
            [-1.125, 2.25, 1.05, 1.5],
            [-0.525, 1.05, 0.09, 0.3],
            [-0.75, 1.5, 0.3, 1.0],
        ]
    )

    def test_full_hessian_matches_hand_computation(self):
        dense = _dense_from_hvp(self.NET, self.DATA)
        np.testing.assert_allclose(dense, self.FULL, rtol=0, atol=1e-14)

    def test_gauss_newton_part_matches_outer_product(self):
        dense = _dense_from_hvp(self.NET, self.DATA, gauss_newton_only=True)
        np.testing.assert_allclose(dense, self.GN, rtol=0, atol=1e-14)

    def test_sharpness_matches_dense_eigenvalue(self):
        lam = sharpness(self.NET, self.DATA, rel_tol=1e-12, max_iters=50000).value
        expected = np.linalg.eigvalsh(self.FULL)[-1]
        assert lam == pytest.approx(expected, rel=1e-9)


class TestHvpAgainstFiniteDifferences:
    @pytest.mark.parametrize("d,k,n", [(1, 2, 3), (2, 3, 8), (3, 5, 12)])
    def test_hvp_matches_fd_of_gradient(self, d, k, n):
        rng = make_rng(1000 + 7 * d + k)
        net, data = _random_instance(rng, d, k, n)
        theta = pack_params(net)
        m = theta.size
        eps = 1e-5
        for _ in range(4):
            vec = rng.normal(size=m)
            vec /= np.linalg.norm(vec)
            hv = hessian_vector_product(net, data, vec)
            gp = loss_gradient(unpack_params(theta + eps * vec, d, k), data)
            gm = loss_gradient(unpack_params(theta - eps * vec, d, k), data)
            fd = (gp - gm) / (2.0 * eps)
            np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-9)

    def test_dense_hessian_matches_fd_dense(self):
        rng = make_rng(77)
        net, data = _random_instance(rng, 2, 3, 6)
        np.testing.assert_allclose(
            _dense_from_hvp(net, data), _dense_from_fd(net, data), rtol=1e-5, atol=1e-8
        )

    def test_operator_is_linear_and_symmetric(self):
        rng = make_rng(78)
        net, data = _random_instance(rng, 2, 4, 10)
        op = make_hessian_operator(net, data)
        m = param_count(2, 4)
        u, w = rng.normal(size=(2, m))
        np.testing.assert_allclose(
            op(2.5 * u - 0.3 * w), 2.5 * op(u) - 0.3 * op(w), rtol=1e-12, atol=1e-12
        )
        assert u @ op(w) == pytest.approx(w @ op(u), rel=1e-10)

    def test_rejects_wrong_vector_shape(self):
        rng = make_rng(79)
        net, data = _random_instance(rng, 1, 2, 3)
        with pytest.raises(ValueError, match="flat vector"):
            hessian_vector_product(net, data, np.zeros(3))


class TestSharpnessValues:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_eigensolver(self, seed):
        rng = make_rng(2000 + seed)
        net, data = _random_instance(rng, 1, 2, 3)
        lam = sharpness(net, data, rel_tol=1e-12, max_iters=100000).value
        dense = np.linalg.eigvalsh(_dense_from_fd(net, data))[-1]
        assert lam == pytest.approx(dense, rel=1e-6)

    def test_gauss_newton_part_is_psd(self):
        rng = make_rng(2100)
        for _ in range(5):
            net, data = _random_instance(rng, 2, 4, 9)
            evals = np.linalg.eigvalsh(_dense_from_hvp(net, data, gauss_newton_only=True))
            assert evals.min() >= -1e-10

    def test_gauss_newton_sharpness_below_full_plus_residual_slack(self):
        # The residual part has operator norm at most 2(R + 1) sqrt(2 L).
        rng = make_rng(2200)
        net, data = _random_instance(rng, 2, 4, 9)
        gn = gauss_newton_sharpness(net, data, rel_tol=1e-10, max_iters=50000).value
        full = sharpness(net, data, rel_tol=1e-10, max_iters=50000).value
        slack = 2.0 * 2.0 * math.sqrt(2.0 * loss(net, data))
        assert gn <= full + slack + 1e-8

    # z = 0.5 - b is 0, -5e-13 and +5e-13 here and +0.3, -0.3 below: the check
    # reads preactivations, so a point just on the inactive side warns and a
    # point well inside it, where the ReLU is also 0, does not.
    @pytest.mark.parametrize("b", [0.5, 0.5 + 5e-13, 0.5 - 5e-13])
    def test_boundary_preactivation_warns(self, b):
        net = TwoLayerNet(w=[[1.0]], b=[b], v=[1.0], beta=0.0)
        data = Dataset(inputs=[[0.5]], labels=[0.0])
        with pytest.warns(ActivationBoundaryWarning):
            hessian_vector_product(net, data, np.zeros(param_count(1, 1)))

    @pytest.mark.parametrize("b", [0.2, 0.8])
    def test_interior_preactivation_does_not_warn(self, b):
        net = TwoLayerNet(w=[[1.0]], b=[b], v=[1.0], beta=0.0)
        data = Dataset(inputs=[[0.5]], labels=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hessian_vector_product(net, data, np.zeros(param_count(1, 1)))


class TestTermALowerBound:
    def test_two_point_hand_computation(self):
        # Inputs 0.6 and -0.2 on the line; one neuron with w = 2, b = 0.4,
        # v = -0.5, so the normalized atom is (u, t) = (1, 0.2).  The bound
        # uses the one-sided factor in the neuron's own orientation (the
        # active half-space), not the two-orientation minimum: the event
        # x > 0.2 keeps {0.6}, so the tail mass is 1/2, the mean gap is 0.4,
        # and the mean point is 0.6, giving 0.25 * 0.4 * sqrt(1.36).
        # |v| ||w|| = 1.
        data = Dataset(inputs=[[0.6], [-0.2]], labels=[0.0, 0.0])
        net = TwoLayerNet(w=[[2.0]], b=[0.4], v=[-0.5], beta=0.0)
        expected = 1.0 + 2.0 * 0.1 * math.sqrt(1.36)
        assert term_a_lower_bound(net, data) == pytest.approx(expected, rel=1e-12)

    def test_zero_direction_neuron_contributes_nothing(self):
        data = Dataset(inputs=[[0.6], [-0.2]], labels=[0.0, 0.0])
        net = TwoLayerNet(w=[[0.0]], b=[-1.0], v=[3.0], beta=0.5)
        assert term_a_lower_bound(net, data) == 1.0

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_gauss_newton_eigenvalue_dominates_bound(self, seed):
        rng = make_rng(seed)
        d = int(rng.integers(1, 4))
        net, data = _random_instance(rng, d, int(rng.integers(1, 7)), int(rng.integers(4, 30)))
        gn = np.linalg.eigvalsh(_dense_from_hvp(net, data, gauss_newton_only=True))[-1]
        assert gn >= term_a_lower_bound(net, data) - 1e-10


class TestRegularityCertificate:
    def test_holds_on_random_nets(self):
        rng = make_rng(300)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            net, data = _random_instance(rng, d, int(rng.integers(1, 6)), int(rng.integers(3, 20)))
            cert = regularity_certificate(net, data)
            assert isinstance(cert, RegularityCertificate)
            assert cert.holds
            assert cert.term_a_holds
            assert cert.lhs <= cert.rhs + 1e-8
            assert cert.train_loss == pytest.approx(loss(net, data))


def test_package_attribute_is_the_sharpness_module():
    # The package root must not bind the function over the submodule.
    import relulab.sharpness as module

    assert isinstance(module, types.ModuleType)
    assert module.make_hessian_operator is make_hessian_operator
