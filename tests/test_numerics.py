"""Tests for the shared numerical kernels.

Oracle values are hand-derived or closed-form and noted next to each check.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relulab.numerics import (
    _SHIFT_SAFETY,
    _WARMUP_STEPS,
    PowerIterationResult,
    check_int_fields,
    derive_rng,
    loglog_slope,
    make_rng,
    power_iteration,
    sample_uniform_ball,
)


class TestRngPlumbing:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(8)
        b = make_rng(123).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = make_rng(5)
        assert make_rng(gen) is gen

    def test_missing_seed_rejected(self):
        with pytest.raises(TypeError, match="seed is required"):
            make_rng(None)

    def test_derive_rng_is_keyed(self):
        a = derive_rng(7, 1, 32, 0).standard_normal(4)
        b = derive_rng(7, 1, 32, 1).standard_normal(4)
        c = derive_rng(7, 1, 32, 0).standard_normal(4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)


class TestBallSampler:
    def test_inside_closed_ball(self):
        x = sample_uniform_ball(make_rng(42), 3, 5000)
        assert x.shape == (5000, 3)
        assert np.all(np.linalg.norm(x, axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("d,eps", [(1, 0.2), (2, 0.1), (3, 0.1), (5, 0.3)])
    def test_annulus_mass(self, d, eps):
        # P(||x|| >= 1 - eps) = 1 - (1 - eps)^d exactly for the uniform ball.
        n = 40000
        x = sample_uniform_ball(make_rng(1000 + d), d, n)
        p_hat = np.mean(np.linalg.norm(x, axis=1) >= 1.0 - eps)
        p = 1.0 - (1.0 - eps) ** d
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) <= 4.0 * se

    def test_mean_is_origin(self):
        x = sample_uniform_ball(make_rng(7), 2, 40000)
        assert np.all(np.abs(x.mean(axis=0)) < 0.01)

    @pytest.mark.parametrize("d,count", [(0, 5), (-1, 5), (2, 0), (2, -3)])
    def test_invalid_arguments(self, d, count):
        with pytest.raises(ValueError):
            sample_uniform_ball(make_rng(0), d, count)


def _matvec(mat):
    return lambda vec: mat @ vec


class TestPowerIteration:
    def test_diagonal_matrix(self):
        mat = np.diag([3.0, -1.0, 0.5])
        res = power_iteration(_matvec(mat), 3, rel_tol=1e-12, rng=make_rng(0))
        assert res.converged
        assert res.value == pytest.approx(3.0, rel=1e-10)

    def test_largest_algebraic_not_largest_magnitude(self):
        # Dominant magnitude is -10; the largest algebraic eigenvalue is 1.
        # Unshifted power iteration would lock onto -10.
        mat = np.diag([1.0, -10.0])
        res = power_iteration(_matvec(mat), 2, rel_tol=1e-12, rng=make_rng(1))
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_random_symmetric_vs_dense_eigh(self):
        gen = make_rng(99)
        for trial in range(5):
            raw = gen.standard_normal((30, 30))
            mat = 0.5 * (raw + raw.T)
            expected = np.linalg.eigvalsh(mat)[-1]
            res = power_iteration(_matvec(mat), 30, rel_tol=1e-11, max_iters=20000, rng=gen)
            assert res.converged, f"trial {trial} failed to converge"
            assert res.value == pytest.approx(expected, rel=1e-8)

    def test_residual_contract(self):
        gen = make_rng(12)
        raw = gen.standard_normal((12, 12))
        mat = 0.5 * (raw + raw.T)
        res = power_iteration(_matvec(mat), 12, rel_tol=1e-9, max_iters=50000, rng=gen)
        assert res.converged
        resid = np.linalg.norm(mat @ res.vector - res.value * res.vector)
        assert resid <= 1e-9 * abs(res.value) * (1 + 1e-12)

    def test_non_convergence_reports_last_estimate(self):
        mat = np.diag([1.0, 1.0 - 1e-12])  # nearly degenerate top pair
        res = power_iteration(_matvec(mat), 2, rel_tol=1e-16, max_iters=3, rng=make_rng(2))
        assert isinstance(res, PowerIterationResult)
        assert not res.converged
        assert res.iterations == 3
        assert abs(res.value - 1.0) < 1e-6  # estimate still carried

    def test_zero_operator(self):
        res = power_iteration(_matvec(np.zeros((4, 4))), 4, rng=make_rng(0))
        assert res.converged
        assert res.value == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            power_iteration(_matvec(np.eye(2)), 0)
        with pytest.raises(ValueError):
            power_iteration(_matvec(np.eye(2)), 2, rel_tol=0.0)
        with pytest.raises(ValueError):
            power_iteration(_matvec(np.eye(2)), 2, max_iters=0)


def _counting(mat):
    """Matvec closure that counts its applications in ``calls[0]``."""
    calls = [0]

    def apply(vec):
        calls[0] += 1
        return mat @ vec

    return apply, calls


def _rotated(eigenvalues, seed):
    """Symmetric matrix with the given spectrum in a random orthonormal basis."""
    q, _ = np.linalg.qr(make_rng(seed).standard_normal((len(eigenvalues), len(eigenvalues))))
    return q @ np.diag(eigenvalues) @ q.T


class TestPowerIterationPhases:
    def test_positive_dominated_spectrum_needs_no_shifted_phase(self):
        mat = np.diag([3.0, -1.0, 0.5])
        apply, calls = _counting(mat)
        res = power_iteration(apply, 3, rel_tol=1e-10, rng=make_rng(0))
        assert res.converged
        assert res.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-12)
        # What warm-up plus a shifted run on A + 1.5 rho I (rho = 3) would
        # need from the same tolerance: its convergence ratio is 5/7.5
        # against 1/3 unshifted.
        shift = _SHIFT_SAFETY * 3.0
        v = make_rng(0).standard_normal(3)
        v /= np.linalg.norm(v)
        shifted = 0
        while True:
            shifted += 1
            av = mat @ v
            lam = v @ av
            if np.linalg.norm(av - lam * v) <= 1e-10 * abs(lam):
                break
            v = (av + shift * v) / np.linalg.norm(av + shift * v)
        assert calls[0] == res.iterations
        assert res.iterations < _WARMUP_STEPS + shifted

    def test_negative_definite_operator(self):
        mat = _rotated([-0.5, -2.0, -3.0, -7.0], seed=4)
        res = power_iteration(_matvec(mat), 4, rel_tol=1e-11, max_iters=20000, rng=make_rng(5))
        assert res.converged
        assert res.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-8)

    @pytest.mark.parametrize("start", [7, 8])
    @pytest.mark.parametrize("ratio", [1.001, 0.999])
    def test_near_symmetric_spectrum(self, ratio, start):
        # |lambda_n| just above or just below lambda_1.  From start 7 the
        # Rayleigh quotient is negative after the warm-up and the shifted
        # phase takes over; from start 8 it is positive, so phase 1 runs on,
        # onto lambda_n and then into the shifted phase at ratio 1.001, and
        # slowly onto lambda_1 at 0.999.
        mat = _rotated([2.0, 0.7, 0.1, -0.4, -ratio * 2.0], seed=6)
        res = power_iteration(_matvec(mat), 5, rel_tol=1e-7, max_iters=50000, rng=make_rng(start))
        assert res.converged
        assert res.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-8)

    @pytest.mark.parametrize(
        "eigenvalues,max_iters",
        [
            ([3.0, -1.0, 0.5], 2000),  # phase 1 converges
            ([1.0, 1.0 - 1e-9, 0.2], 5),  # phase 1 runs out
            ([1.0, -10.0, 0.5], 2000),  # fallback converges
            ([1.0, -1.3, 0.99], _WARMUP_STEPS + 3),  # fallback runs out
            ([0.0, 0.0, 0.0], 2000),  # zero image
        ],
    )
    def test_iterations_count_every_application(self, eigenvalues, max_iters):
        apply, calls = _counting(np.diag(eigenvalues))
        res = power_iteration(apply, 3, rel_tol=1e-12, max_iters=max_iters, rng=make_rng(8))
        assert res.iterations == calls[0] <= max_iters


class TestLoglogSlope:
    def test_exact_power_law(self):
        # y = 3 n^(-1/2): slope -1/2, intercept log 3.
        pts = [(n, 3.0 * n ** -0.5) for n in (32, 64, 128, 256)]
        slope, intercept = loglog_slope(pts)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovers_any_power_law(self, exponent, scale):
        pts = [(float(n), scale * float(n) ** exponent) for n in (2, 4, 8, 16)]
        slope, _ = loglog_slope(pts)
        assert slope == pytest.approx(exponent, abs=1e-8)

    def test_errors(self):
        with pytest.raises(ValueError):
            loglog_slope([(1.0, 2.0)])
        with pytest.raises(ValueError):
            loglog_slope([(1.0, 2.0), (2.0, -1.0)])
        with pytest.raises(ValueError):
            loglog_slope([(0.0, 2.0), (2.0, 1.0)])


@dataclasses.dataclass(frozen=True)
class _Counts:
    # String annotations, as under ``from __future__ import annotations``.
    count: "int" = 1
    limit: "int | None" = None

    def __post_init__(self):
        check_int_fields(self)


class TestCheckIntFields:
    @pytest.mark.parametrize("limit", [None, 0, 7, np.int64(3)])
    def test_integers_and_none_pass(self, limit):
        assert _Counts(limit=limit).limit is limit

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    @pytest.mark.parametrize("name", ["count", "limit"])
    def test_non_integers_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _Counts(**{name: value})

    def test_none_rejected_in_a_plain_int_field(self):
        with pytest.raises(ValueError, match="count must be an integer"):
            _Counts(count=None)
