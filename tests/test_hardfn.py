"""Tests for the separated-cap family."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from relulab.hardfn import (
    CapPacking,
    HardFamily,
    SignFamily,
    atom_l2_constants,
    atom_l2_norm,
    atom_threshold,
    ball_volume,
    build_hard_family,
    indistinguishable_probability,
    indistinguishable_probability_mc,
    member_values,
    pack_caps,
    pairwise_sq_distances,
    relu_atom,
    varshamov_gilbert,
)
from relulab.nets import TwoLayerNet, forward
from relulab.numerics import make_rng, sample_uniform_ball


class TestAtomGeometry:
    def test_threshold_and_pointwise_values(self):
        # eps = 0.5 puts the kink at 0.75.
        assert atom_threshold(0.5) == 0.75
        u = np.array([1.0, 0.0])
        pts = np.array([[0.8, 0.0], [0.7, 0.5], [0.75, 0.0]])
        np.testing.assert_allclose(relu_atom(pts, u, 0.5), [0.05, 0.0, 0.0])

    def test_peak_value_is_eps_squared(self):
        u = np.array([0.0, 1.0])
        peak = relu_atom(np.array([[0.0, 1.0]]), u, 0.3)
        assert peak[0] == pytest.approx(0.09, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.5])
    def test_line_norm_closed_form(self, eps):
        # In one dimension the slice volume is 1 and the integral is
        # int_0^{eps^2} (eps^2 - delta)^2 d delta = eps^6 / 3.
        assert atom_l2_norm(1, eps) == pytest.approx(eps ** 3 / math.sqrt(3), abs=1e-12)

    def test_line_norm_specific_value(self):
        assert atom_l2_norm(1, 0.3) == pytest.approx(0.027 / math.sqrt(3), abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.5])
    def test_norm_sandwich(self, d, eps):
        # At d = 1 both constants coincide and the sandwich is an equality,
        # so containment is checked with a one-ulp-scale allowance.
        lo, hi = atom_l2_constants(d)
        scale = eps ** ((d + 5) / 2)
        value = atom_l2_norm(d, eps)
        assert lo * scale * (1.0 - 1e-12) <= value <= hi * scale * (1.0 + 1e-12)

    def test_sandwich_tight_on_the_line(self):
        lo, hi = atom_l2_constants(1)
        assert lo == pytest.approx(1.0 / math.sqrt(3), rel=1e-14)
        assert hi == pytest.approx(1.0 / math.sqrt(3), rel=1e-14)
        assert beta_fn(3.0, 1.0) == pytest.approx(1.0 / 3.0)

    def test_norm_against_monte_carlo(self):
        # Lebesgue norm: multiply the sample mean of the squared atom by
        # the ball volume.
        rng = make_rng(42)
        d, eps = 2, 0.4
        u = np.array([1.0, 0.0])
        pts = sample_uniform_ball(rng, d, 200000)
        vals = relu_atom(pts, u, eps) ** 2
        est = float(vals.mean()) * ball_volume(d)
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size) * ball_volume(d)
        assert abs(est - atom_l2_norm(d, eps) ** 2) <= 4.0 * se

    def test_normalized_rescales_by_eps_squared(self):
        assert atom_l2_norm(3, 0.2, normalized=True) == pytest.approx(
            atom_l2_norm(3, 0.2) / 0.04, rel=1e-14
        )

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps"):
            atom_l2_norm(2, 0.0)
        with pytest.raises(ValueError, match="eps"):
            atom_threshold(1.0)


class TestCapPacking:
    RIGHT_ANGLE_EPS = math.sqrt(1.0 - math.sqrt(2.0) / 2.0)

    def test_right_angle_regime_gives_exact_cross_polytope(self):
        # cos(2 theta) = 0 at this eps, so accepted directions must be
        # pairwise orthogonal or antipodal: exactly the 4 signed basis
        # vectors in the plane.
        packing = pack_caps(make_rng(0), 2, self.RIGHT_ANGLE_EPS)
        assert packing.count == 4
        expected = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        got = {tuple(int(round(c)) for c in row) for row in packing.centers}
        assert got == expected

    def test_pairwise_dot_audit(self):
        packing = pack_caps(make_rng(1), 3, 0.3)
        dots = packing.centers @ packing.centers.T
        off = dots[~np.eye(packing.count, dtype=bool)]
        assert np.all(off <= packing.cos_threshold + 1e-12)
        np.testing.assert_allclose(np.linalg.norm(packing.centers, axis=1), 1.0, rtol=1e-12)

    def test_smaller_caps_pack_more(self):
        small = pack_caps(make_rng(2), 3, 0.05, reject_budget=400)
        large = pack_caps(make_rng(2), 3, 0.1, reject_budget=400)
        assert small.count >= 2 * large.count

    def test_target_stops_early(self):
        packing = pack_caps(make_rng(3), 4, 0.2, target=5)
        assert packing.count == 5

    def test_deterministic_given_seed(self):
        a = pack_caps(make_rng(9), 3, 0.2, target=10)
        b = pack_caps(make_rng(9), 3, 0.2, target=10)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            pack_caps(make_rng(0), 1, 0.2)
        with pytest.raises(ValueError, match="eps"):
            pack_caps(make_rng(0), 2, 1.0)
        with pytest.raises(ValueError, match="target"):
            pack_caps(make_rng(0), 2, 0.2, target=0)


class TestSignFamily:
    @pytest.mark.parametrize(
        "k,min_words,min_dist", [(8, 2, 1), (16, 4, 2), (24, 8, 3)]
    )
    def test_size_and_distance_guarantees(self, k, min_words, min_dist):
        fam = varshamov_gilbert(k)
        assert fam.size >= min_words
        assert fam.min_distance == min_dist
        bits = fam.bits
        assert bits.shape[1] == k
        np.testing.assert_array_equal(bits[0], np.zeros(k, dtype=np.uint8))
        for i in range(fam.size):
            for j in range(i + 1, fam.size):
                assert int(np.sum(bits[i] != bits[j])) >= min_dist

    def test_signs_map(self):
        fam = varshamov_gilbert(8)
        signs = fam.signs
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(signs[0], -np.ones(8))

    def test_randomized_path_for_long_codes(self):
        fam = varshamov_gilbert(40, rng=make_rng(5))
        assert fam.size >= math.ceil(2 ** 5)
        assert fam.min_distance == 5
        bits = fam.bits
        for i in range(fam.size):
            for j in range(i + 1, fam.size):
                assert int(np.sum(bits[i] != bits[j])) >= 5

    def test_deterministic_exhaustive_path(self):
        a = varshamov_gilbert(16)
        b = varshamov_gilbert(16)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            varshamov_gilbert(0)


class TestHardFamily:
    def _family(self, seed=7, d=3, eps=0.25):
        return build_hard_family(make_rng(seed), d, eps)

    def test_build_basics(self):
        fam = self._family()
        assert isinstance(fam, HardFamily)
        assert fam.n_atoms >= 8
        assert fam.size >= 2
        assert fam.code.width == fam.n_atoms

    def test_too_coarse_packing_raises(self):
        # Near the right-angle regime only 2d caps fit; d=2 gives 4 < 8.
        with pytest.raises(ValueError, match="at least 8"):
            build_hard_family(make_rng(0), 2, TestCapPacking.RIGHT_ANGLE_EPS)

    def test_supports_are_disjoint(self):
        fam = self._family()
        pts = sample_uniform_ball(make_rng(11), fam.dim, 50000)
        tau = atom_threshold(fam.eps)
        active = (pts @ fam.centers.T) > tau
        assert int(active.sum(axis=1).max()) <= 1

    def test_member_matches_its_network_form(self):
        fam = self._family()
        pts = sample_uniform_ball(make_rng(12), fam.dim, 500)
        for idx in (0, 1, fam.size - 1):
            net = TwoLayerNet(
                w=fam.centers,
                b=np.full(fam.n_atoms, atom_threshold(fam.eps)),
                v=fam.amplitude / fam.eps ** 2 * fam.code.signs[idx],
                beta=0.0,
            )
            np.testing.assert_allclose(
                member_values(fam, idx, pts), forward(net, pts), rtol=1e-12, atol=1e-15
            )

    def test_sup_bound_holds_empirically(self):
        fam = self._family()
        pts = sample_uniform_ball(make_rng(13), fam.dim, 20000)
        boundary = fam.centers  # peaks sit at the cap centers on the sphere
        for idx in (1, fam.size - 1):
            vals = member_values(fam, idx, np.vstack([pts, boundary]))
            assert np.max(np.abs(vals)) <= fam.amplitude + 1e-12
        peak = member_values(fam, 1, fam.centers)
        assert np.max(np.abs(peak)) == pytest.approx(fam.amplitude, rel=1e-12)

    def test_pairwise_distance_closed_form_against_monte_carlo(self):
        fam = self._family(eps=0.3)
        i, j = 0, 1
        pts = sample_uniform_ball(make_rng(14), fam.dim, 200000)
        diff = member_values(fam, i, pts) - member_values(fam, j, pts)
        sq = diff ** 2
        est = float(sq.mean()) * ball_volume(fam.dim)
        se = float(sq.std(ddof=1)) / math.sqrt(sq.size) * ball_volume(fam.dim)
        assert abs(est - pairwise_sq_distances(fam)[i, j]) <= 4.0 * se

    def test_amplitude_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            build_hard_family(make_rng(0), 3, 0.25, amplitude=0.0)


class TestIndistinguishability:
    def test_line_closed_form(self):
        # On the line the cap mass is Q(1 - eps^2) = eps^2 / 2.
        eps, h, n = 0.4, 3, 10
        q = h * eps ** 2 / 2.0
        assert indistinguishable_probability(1, eps, h, n) == pytest.approx(
            (1.0 - q) ** n, rel=1e-14
        )

    def test_zero_hamming_means_always_indistinguishable(self):
        assert indistinguishable_probability(3, 0.3, 0, 100) == 1.0

    def test_saturated_mass_clamps_to_zero(self):
        assert indistinguishable_probability(1, 0.9, 10, 5) == 0.0

    def test_zero_observations_never_tell_a_pair_apart(self):
        fam = build_hard_family(make_rng(21), 3, 0.3)
        h = int(np.sum(fam.code.bits[0] != fam.code.bits[1]))
        assert h > 0
        assert indistinguishable_probability(fam.dim, fam.eps, h, 0) == 1.0
        assert indistinguishable_probability_mc(make_rng(22), fam, 0, 1, 0, 10) == 1.0

    def test_monte_carlo_agrees(self):
        fam = build_hard_family(make_rng(21), 3, 0.3)
        i, j = 0, 1
        h = int(np.sum(fam.code.bits[i] != fam.code.bits[j]))
        n, trials = 20, 4000
        closed = indistinguishable_probability(fam.dim, fam.eps, h, n)
        est = indistinguishable_probability_mc(make_rng(22), fam, i, j, n, trials)
        se = math.sqrt(closed * (1.0 - closed) / trials)
        assert abs(est - closed) <= 4.0 * se
