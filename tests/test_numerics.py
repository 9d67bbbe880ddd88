"""Tests for the shared numerical kernels.

Oracle values are hand-derived or closed-form and noted next to each check.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relulab import numerics
from relulab.numerics import (
    EigenEstimate,
    check_int_fields,
    derive_rng,
    loglog_slope,
    make_rng,
    sample_uniform_ball,
    top_eigenpair,
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


# The two classes below keep the names of the power iteration that
# top_eigenpair replaced; every spectrum they covered is checked on it.
class TestPowerIteration:
    def test_diagonal_matrix(self):
        mat = np.diag([3.0, -1.0, 0.5])
        res = top_eigenpair(_matvec(mat), 3, rel_tol=1e-12, rng=make_rng(0))
        assert res.converged
        assert res.value == pytest.approx(3.0, rel=1e-10)

    def test_largest_algebraic_not_largest_magnitude(self):
        # Dominant magnitude is -10; the largest algebraic eigenvalue is 1.
        mat = np.diag([1.0, -10.0])
        res = top_eigenpair(_matvec(mat), 2, rel_tol=1e-12, rng=make_rng(1))
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_random_symmetric_vs_dense_eigh(self):
        gen = make_rng(99)
        for trial in range(5):
            raw = gen.standard_normal((30, 30))
            mat = 0.5 * (raw + raw.T)
            expected = np.linalg.eigvalsh(mat)[-1]
            res = top_eigenpair(_matvec(mat), 30, rel_tol=1e-11, max_iters=20000, rng=gen)
            assert res.converged, f"trial {trial} failed to converge"
            assert res.value == pytest.approx(expected, rel=1e-8)

    def test_residual_contract(self):
        # The reported residual is the true one, and some eigenvalue lies
        # within it of the value.
        gen = make_rng(12)
        raw = gen.standard_normal((40, 40))
        mat = 0.5 * (raw + raw.T)
        res = top_eigenpair(_matvec(mat), 40, rel_tol=1e-9, max_iters=50000, rng=gen)
        assert res.converged
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, rel=1e-14)
        resid = np.linalg.norm(mat @ res.vector - res.value * res.vector)
        assert resid <= 1e-9 * abs(res.value) * (1 + 1e-6)
        assert resid == pytest.approx(res.residual, rel=1e-3, abs=1e-13)
        assert np.min(np.abs(np.linalg.eigvalsh(mat) - res.value)) <= res.residual + 1e-13

    def test_non_convergence_reports_last_estimate(self):
        mat = _rotated(np.linspace(1.0, 0.0, 50), seed=3)
        res = top_eigenpair(_matvec(mat), 50, rel_tol=1e-16, max_iters=3, rng=make_rng(2))
        assert isinstance(res, EigenEstimate)
        assert not res.converged
        assert res.iterations == 3
        assert res.residual > 1e-16 * res.value
        assert 0.5 < res.value <= 1.0  # estimate still carried

    def test_zero_operator(self):
        apply, calls = _counting(np.zeros((4, 4)))
        res = top_eigenpair(apply, 4, rng=make_rng(0))
        assert res.converged
        assert res.value == 0.0
        assert res.iterations == calls[0] == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            top_eigenpair(_matvec(np.eye(2)), 0)
        with pytest.raises(ValueError):
            top_eigenpair(_matvec(np.eye(2)), 2, rel_tol=0.0)
        with pytest.raises(ValueError):
            top_eigenpair(_matvec(np.eye(2)), 2, max_iters=0)
        for v0 in (np.zeros(2), np.ones(3), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="start vector"):
                top_eigenpair(_matvec(np.eye(2)), 2, v0=v0)


class TestPowerIterationPhases:
    def test_positive_dominated_spectrum_needs_no_shifted_phase(self):
        # Fewer applications than plain power iteration needs from the same
        # start and tolerance, itself the fastest the old solver could be.
        mat = _rotated([3.0, 2.9, 1.0, -1.0, 0.5, 0.2], seed=2)
        apply, calls = _counting(mat)
        res = top_eigenpair(apply, 6, rel_tol=1e-10, rng=make_rng(0))
        assert res.converged
        assert res.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-12)
        v = make_rng(0).standard_normal(6)
        v /= np.linalg.norm(v)
        plain = 0
        while True:
            plain += 1
            av = mat @ v
            lam = v @ av
            if np.linalg.norm(av - lam * v) <= 1e-10 * abs(lam):
                break
            v = av / np.linalg.norm(av)
        assert calls[0] == res.iterations <= 6 < plain

    def test_negative_definite_operator(self):
        mat = _rotated([-0.5, -2.0, -3.0, -7.0], seed=4)
        res = top_eigenpair(_matvec(mat), 4, rel_tol=1e-11, max_iters=20000, rng=make_rng(5))
        assert res.converged
        assert res.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-8)

    @pytest.mark.parametrize("start", [7, 8])
    @pytest.mark.parametrize("ratio", [1.001, 0.999])
    def test_near_symmetric_spectrum(self, ratio, start):
        # |lambda_n| just above or just below lambda_1, so the dominant
        # magnitude is the wrong end or a near tie with the right one.
        mat = _rotated([2.0, 0.7, 0.1, -0.4, -ratio * 2.0], seed=6)
        res = top_eigenpair(_matvec(mat), 5, rel_tol=1e-7, max_iters=50000, rng=make_rng(start))
        assert res.converged
        assert res.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-8)

    @pytest.mark.parametrize(
        "eigenvalues,max_iters",
        [
            ([3.0, -1.0, 0.5], 2000),  # converges
            ([1.0, 1.0 - 1e-9, 0.2], 5),  # the basis spans R^3 within the budget
            ([1.0, -10.0, 0.5], 2000),  # negative-dominated
            ([1.0, -1.3, 0.99], 19),
            ([0.0, 0.0, 0.0], 2000),  # zero image
        ],
    )
    def test_iterations_count_every_application(self, eigenvalues, max_iters):
        apply, calls = _counting(np.diag(eigenvalues))
        res = top_eigenpair(apply, 3, rel_tol=1e-12, max_iters=max_iters, rng=make_rng(8))
        assert res.iterations == calls[0] <= max_iters
        assert res.value == pytest.approx(max(eigenvalues), rel=1e-9, abs=1e-15)


class TestTopEigenpairStarts:
    def test_eigenvector_start_breaks_down_after_one_application(self):
        # A start on an eigenvector spans an invariant subspace: beta = 0.
        mat = np.diag([4.0, 2.0, 1.0, -3.0])
        apply, calls = _counting(mat)
        res = top_eigenpair(apply, 4, rel_tol=1e-12, v0=np.array([2.0, 0.0, 0.0, 0.0]))
        assert res.converged
        assert res.iterations == calls[0] == 1
        assert res.value == 4.0
        assert res.residual == 0.0
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0, 0.0])

    def test_warm_start_draws_nothing_and_saves_applications(self):
        mat = _rotated(np.linspace(-1.0, 2.0, 60) ** 3, seed=9)
        cold = top_eigenpair(_matvec(mat), 60, rel_tol=1e-8, rng=make_rng(1))
        gen = make_rng(1)
        state = gen.bit_generator.state
        nudged = cold.vector + 1e-3 * make_rng(2).standard_normal(60)
        warm = top_eigenpair(_matvec(mat), 60, rel_tol=1e-8, rng=gen, v0=nudged)
        assert gen.bit_generator.state == state
        assert warm.converged
        assert warm.iterations < cold.iterations
        assert warm.value == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-12)

    def test_cold_start_is_the_generators_first_draw(self):
        mat = _rotated([1.0, 0.5, 0.25, -2.0], seed=10)
        drawn = make_rng(4).standard_normal(4)
        a = top_eigenpair(_matvec(mat), 4, rel_tol=1e-10, rng=4)
        b = top_eigenpair(_matvec(mat), 4, rel_tol=1e-10, v0=drawn)
        assert (a.value, a.iterations) == (b.value, b.iterations)
        np.testing.assert_array_equal(a.vector, b.vector)


class TestTopEigenpairRestarts:
    @staticmethod
    def _slow(m):
        """Diagonal operator whose top gap shrinks with m, so Lanczos needs
        several restart cycles at a tight tolerance."""
        spectrum = 1.0 - np.arange(m) / m ** 1.5
        return spectrum, lambda vec: spectrum * vec

    def test_converges_across_restarts(self):
        spectrum, apply = self._slow(2000)
        res = top_eigenpair(apply, 2000, rel_tol=1e-10, max_iters=20000, rng=make_rng(3))
        assert res.converged
        assert res.iterations > numerics._RESTART
        assert res.value == pytest.approx(spectrum[0], rel=1e-12)

    def test_memory_stays_within_one_basis(self):
        # At the shatter shape (d, K) = (10, 2048) a vector has 24,577
        # entries; a long solve holds the restart basis and a few vectors,
        # never one vector per application.
        m = 24_577
        _, apply = self._slow(m)
        top_eigenpair(_matvec(np.eye(3)), 3)  # numpy's first eigh allocates its own state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = top_eigenpair(apply, m, rel_tol=1e-14, max_iters=3 * numerics._RESTART, rng=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.iterations == 3 * numerics._RESTART and not res.converged
        assert peak < (numerics._RESTART + 4) * m * 8


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
