"""Tests for the weight-function module.

The analytic checks lean on closed forms for the uniform ball:
  * marginal tail for d = 1: Q(x) = (1 - x)/2,
  * marginal tail for d = 3: Q(x) = (1 - x)^2 (2 + x) / 4,
  * first partial moment: int_t^1 s pdf(s) ds = c1(d) (1 - t^2)^((d+1)/2) / (d+1),
which give hand-traceable oracle values for gtilde.  Elsewhere the oracle is
``scipy.integrate.quad`` at a relative tolerance of 1e-13 (and no absolute
one, so tiny caps keep their relative accuracy).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from relulab.numerics import make_rng, sample_uniform_ball
from relulab.weights import (
    cap_moment,
    conditional_mean_constants,
    g_analytic,
    g_empirical,
    g_simplified,
    marginal_pdf,
    marginal_pdf_constant,
    tail_probability,
    tail_sandwich_constants,
    tilde_g_analytic,
    tilde_g_empirical,
    tilde_g_sandwich_constants,
)


def _quad(f, a, b):
    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestMarginalDensity:
    def test_known_constants(self):
        assert marginal_pdf_constant(1) == pytest.approx(0.5, abs=1e-15)
        assert marginal_pdf_constant(2) == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert marginal_pdf_constant(3) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_normalization(self, d):
        mass = _quad(lambda t: marginal_pdf(d, t), -1.0, 1.0)
        assert mass == pytest.approx(1.0, abs=1e-11)

    def test_vanishes_outside_support(self):
        assert marginal_pdf(3, 1.2) == 0.0
        assert marginal_pdf(3, -1.2) == 0.0

    @pytest.mark.parametrize("t", [1.0 - 2.0**-30, -(1.0 - 2.0**-30)])
    def test_relative_accuracy_near_the_edge(self, t):
        # At d = 3 the density is 3/4 (1 - t^2); exact rationals are the oracle.
        exact = Fraction(3, 4) * (1 - Fraction(t) ** 2)
        assert marginal_pdf(3, t) == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_array_input(self):
        vals = marginal_pdf(2, np.array([0.0, 0.5, 2.0]))
        assert vals.shape == (3,)
        assert vals[2] == 0.0


class TestTailProbability:
    @pytest.mark.parametrize("x", [-0.8, -0.25, 0.0, 0.3, 0.9])
    def test_d1_closed_form(self, x):
        assert tail_probability(1, x) == pytest.approx((1.0 - x) / 2.0, abs=1e-14)

    @pytest.mark.parametrize("x", [-0.8, 0.0, 0.4, 0.95, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_d3_closed_form(self, x):
        expected = (1.0 - x) ** 2 * (2.0 + x) / 4.0
        assert tail_probability(3, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_half_at_zero(self, d):
        assert tail_probability(d, 0.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("d,x", [(2, 0.3), (4, -0.6), (5, 0.85), (6, 0.97)])
    def test_matches_quadrature(self, d, x):
        by_quad = _quad(lambda s: marginal_pdf(d, s), x, 1.0)
        assert tail_probability(d, x) == pytest.approx(by_quad, rel=1e-10)

    def test_extremes(self):
        assert tail_probability(3, 1.0) == 0.0
        assert tail_probability(3, -1.0) == 1.0
        assert tail_probability(3, 5.0) == 0.0
        assert tail_probability(3, -5.0) == 1.0


class TestCapMoment:
    @pytest.mark.parametrize("d", range(1, 12))
    def test_matches_quadrature(self, d):
        p = (d - 1) / 2.0
        for j in (1, 2):
            for a in np.geomspace(1e-6, 1.99, 13):
                by_quad = _quad(lambda x: (a - x) ** j * (x * (2.0 - x)) ** p, 0.0, a)
                assert cap_moment(d, j, a) == pytest.approx(by_quad, rel=1e-12)


class TestAnalyticWeight:
    def test_d1_at_zero_hand_traced(self):
        # Q(0) = 1/2; E[X1 | X1 > 0] = 1/2; gap = 1/2; sqrt(1 + 1/4) = sqrt(5)/2.
        # gtilde = (1/4) * (1/2) * sqrt(5)/2 = sqrt(5)/16 = 0.13975424859...
        val = tilde_g_analytic(1, 0.0)
        assert val == pytest.approx(math.sqrt(5.0) / 16.0, rel=1e-10)

    def test_d3_partial_moment_oracle(self):
        # For d = 3, t = 0.5: Q = 0.25 * 2.5 / 4 ... computed from closed forms:
        # Q(0.5) = (0.5)^2 (2.5)/4 = 0.15625
        # mean_num = c1 (1 - 0.25)^2 / 4 = 0.75 * 0.5625 / 4 = 0.10546875
        # gap_num  = mean_num - 0.5 Q = 0.10546875 - 0.078125 = 0.02734375
        # E = 0.675, gap = 0.175, gtilde = Q^2 * gap * sqrt(1 + E^2)
        q = 0.15625
        e = 0.10546875 / q
        gap = 0.02734375 / q
        expected = q * q * gap * math.sqrt(1.0 + e * e)
        assert tilde_g_analytic(3, 0.5) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_deep_tail_matches_quadrature(self, d):
        # The three conditional integrals by quadrature over the cap depth
        # x = 1 - s in [0, 1 - t], where the nodes keep their relative
        # spacing even for a cap of depth 1e-6.
        c1 = marginal_pdf_constant(d)
        p = (d - 1) / 2.0

        def pdf(x):
            return c1 * (x * (2.0 - x)) ** p

        for t in (0.5, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6):
            a = 1.0 - t
            q = _quad(pdf, 0.0, a)
            mean = _quad(lambda x: (1.0 - x) * pdf(x), 0.0, a) / q
            gap = _quad(lambda x: (a - x) * pdf(x), 0.0, a) / q
            expected = q * q * gap * math.sqrt(1.0 + mean * mean)
            assert tilde_g_analytic(d, t) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_at_and_beyond_one(self):
        assert tilde_g_analytic(2, 1.0) == 0.0
        assert tilde_g_analytic(2, 1.5) == 0.0
        assert g_analytic(2, -1.0) == 0.0

    def test_full_event_below_minus_one(self):
        # Conditioning event is the whole ball: Q = 1, E = 0, gap = -t.
        assert tilde_g_analytic(2, -1.5) == pytest.approx(1.5, rel=1e-9)

    def test_symmetry_of_min_form(self):
        for t in (0.2, 0.55, 0.8):
            assert g_analytic(3, t) == pytest.approx(g_analytic(3, -t), rel=1e-12)

    def test_nonincreasing_in_offset(self):
        grid = np.linspace(0.0, 0.95, 12)
        vals = [g_analytic(3, t) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_sandwich_smoke(self, d):
        c_lo, c_hi = tilde_g_sandwich_constants(d)
        for t in (0.75, 0.85, 0.95):
            val = tilde_g_analytic(d, t)
            poly = (1.0 - t) ** (d + 2)
            assert c_lo * poly <= val <= c_hi * poly


class TestSimplifiedWeight:
    def test_values(self):
        assert g_simplified(1, 0.0) == 1.0
        assert g_simplified(1, 0.5) == pytest.approx(0.125)
        assert g_simplified(3, 0.5) == pytest.approx(0.5**5)
        assert g_simplified(3, 1.0) == 0.0
        assert g_simplified(3, -2.0) == 0.0

    @given(st.integers(min_value=1, max_value=8), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_nonnegative_supported(self, d, t):
        val = g_simplified(d, t)
        assert val >= 0.0
        assert val == g_simplified(d, -t)
        if abs(t) >= 1.0:
            assert val == 0.0


class TestConstants:
    def test_d1_tail_constants_bracket_true_coefficient(self):
        # Q(x) = 0.5 (1-x) for d = 1: true coefficient 1/2.
        c2, c3 = tail_sandwich_constants(1)
        assert c2 == pytest.approx(7.0 / 16.0, abs=1e-15)
        assert c3 == pytest.approx(2.0**1.5 / 4.0, abs=1e-15)
        assert c2 <= 0.5 <= c3

    def test_d1_conditional_mean_constants(self):
        # E[X1 | X1 > x] = (1+x)/2 for d = 1: true coefficient 1/2.
        c4, c5 = conditional_mean_constants(1)
        assert c4 <= 0.5 <= c5

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_lower_constant_positive_small_d(self, d):
        c_lo, c_hi = tilde_g_sandwich_constants(d)
        assert 0.0 < c_lo < c_hi

    @pytest.mark.parametrize("d", [5, 6])
    def test_lower_constant_degenerates(self, d):
        # The conditional-gap coefficient 1 - c5(d) is negative here; the
        # lower bound collapses to the trivial 0.
        _, c5 = conditional_mean_constants(d)
        assert c5 > 1.0
        c_lo, _ = tilde_g_sandwich_constants(d)
        assert c_lo == 0.0


class TestEmpiricalWeight:
    def test_two_point_hand_traced(self):
        # Points {0.5, -0.5} on the line, u = 1, t = 0.  Each orientation sees
        # one point: p = 1/2, gap = 1/2, mean norm 1/2, so both sides give
        # 0.25 * 0.5 * sqrt(1.25) = 0.1397542486.
        pts = np.array([[0.5], [-0.5]])
        val = g_empirical(pts, np.array([1.0]), 0.0)
        assert val == pytest.approx(math.sqrt(5.0) / 16.0, rel=1e-12)

    def test_strict_inequality_excludes_boundary_point(self):
        pts = np.array([[0.5, 0.0], [0.9, 0.0]])
        u = np.array([1.0, 0.0])
        # t = 0.5: the first point sits exactly on the threshold and must not
        # count; only 0.9 survives.
        val = tilde_g_empirical(pts, u, 0.5)
        p, gap = 0.5, 0.4
        expected = p * p * gap * math.sqrt(1.0 + 0.81)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_empty_event_gives_zero(self):
        pts = np.array([[0.2, 0.0]])
        assert tilde_g_empirical(pts, np.array([1.0, 0.0]), 0.9) == 0.0
        assert g_empirical(pts, np.array([1.0, 0.0]), 0.9) == 0.0

    def test_min_over_orientations(self):
        # Asymmetric cloud: three points on the right, one on the left.
        pts = np.array([[0.8, 0.0], [0.6, 0.0], [0.7, 0.0], [-0.5, 0.0]])
        u = np.array([1.0, 0.0])
        t = 0.1
        side_plus = tilde_g_empirical(pts, u, t)
        side_minus = tilde_g_empirical(pts, -u, -t)
        assert side_minus < side_plus
        assert g_empirical(pts, u, t) == pytest.approx(side_minus)

    def test_one_pass_equals_two_one_sided_calls_bitwise(self):
        # The paper's shape, with one offset exactly on a sample point's
        # projection, one below the cloud and one above it.
        rng = make_rng(17)
        pts = sample_uniform_ball(rng, 10, 512)
        u = rng.standard_normal((2007, 10))
        u /= np.linalg.norm(u, axis=1)[:, None]
        t = rng.uniform(-1.0, 1.0, 2007)
        t[0], t[1], t[2] = pts[0] @ u[0], -2.0, 2.0
        both = g_empirical(pts, u, t)
        expected = np.minimum(tilde_g_empirical(pts, u, t), tilde_g_empirical(pts, -u, -t))
        assert both.tobytes() == expected.tobytes()
        assert g_empirical(pts, u[0], t[0]) == expected[0]

    def test_orientation_flip_invariance(self):
        rng = make_rng(5)
        pts = sample_uniform_ball(rng, 3, 500)
        u = np.array([0.6, 0.8, 0.0])
        for t in (-0.4, 0.0, 0.3):
            a = g_empirical(pts, u, t)
            b = g_empirical(pts, -u, -t)
            assert a == pytest.approx(b, rel=1e-12)

    def test_converges_to_analytic_smoke(self):
        rng = make_rng(314)
        pts = sample_uniform_ball(rng, 2, 20000)
        u = np.array([1.0, 0.0])
        val = g_empirical(pts, u, 0.4)
        ref = g_analytic(2, 0.4)
        assert val == pytest.approx(ref, rel=0.1)

