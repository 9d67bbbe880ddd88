"""Tests for the separated-cap family."""

import math
import tracemalloc

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
    member_net,
    member_values,
    pack_caps,
    pair_sq_distance,
    varshamov_gilbert,
)
from relulab.nets import TwoLayerNet, forward
from relulab.numerics import make_rng, sample_uniform_ball


def _atom(points, u, eps):
    """The cap atom ``relu(u . x - (1 - eps^2))`` as a one-neuron network."""
    return forward(TwoLayerNet(w=[u], b=[atom_threshold(eps)], v=[1.0], beta=0.0), points)


def _row_search(k, rng):
    """Randomized greedy code over uint8 rows, one ``np.sum`` per pair."""
    dmin, target = -(-k // 8), math.ceil(2.0 ** (k / 8.0))
    accepted = [np.zeros(k, dtype=np.uint8)]
    rejects = 0
    while len(accepted) < target and rejects < 200 * target:
        cand = rng.integers(0, 2, size=k).astype(np.uint8)
        if min(int(np.sum(cand != prev)) for prev in accepted) >= dmin:
            accepted.append(cand)
            rejects = 0
        else:
            rejects += 1
    assert len(accepted) == target
    return np.vstack(accepted)


class TestAtomGeometry:
    def test_threshold_and_pointwise_values(self):
        # eps = 0.5 puts the kink at 0.75.
        assert atom_threshold(0.5) == 0.75
        u = np.array([1.0, 0.0])
        pts = np.array([[0.8, 0.0], [0.7, 0.5], [0.75, 0.0]])
        np.testing.assert_allclose(_atom(pts, u, 0.5), [0.05, 0.0, 0.0])

    def test_peak_value_is_eps_squared(self):
        u = np.array([0.0, 1.0])
        peak = _atom(np.array([[0.0, 1.0]]), u, 0.3)
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
        vals = _atom(pts, u, eps) ** 2
        est = float(vals.mean()) * ball_volume(d)
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size) * ball_volume(d)
        assert abs(est - atom_l2_norm(d, eps) ** 2) <= 4.0 * se

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps"):
            atom_l2_norm(2, 0.0)
        with pytest.raises(ValueError, match="eps"):
            atom_threshold(1.0)


def _vstack_caps(rng, d, eps, target):
    """The greedy packing with one ``np.vstack`` per accepted center, the
    reference for pack_caps' filled buffer."""
    cos_threshold = 2.0 * (1.0 - eps * eps) ** 2 - 1.0
    budget = 2000 if target is None else 50 * target + 1000
    accepted, rejects = np.empty((0, d)), 0

    def candidates():
        yield from np.vstack([np.eye(d), -np.eye(d)])
        while True:
            batch = rng.normal(size=(512, d))
            norms = np.linalg.norm(batch, axis=1)
            keep = norms > 1e-12
            yield from batch[keep] / norms[keep, None]

    for cand in candidates():
        if len(accepted) and np.max(accepted @ cand) > cos_threshold:
            rejects += 1
            if rejects >= budget:
                break
            continue
        accepted, rejects = np.vstack([accepted, cand[None, :]]), 0
        if target is not None and len(accepted) >= target:
            break
    return accepted


class TestCapPacking:
    RIGHT_ANGLE_EPS = math.sqrt(1.0 - math.sqrt(2.0) / 2.0)

    # (3, 0.05) packs 403 caps, so the buffer doubles three times.
    @pytest.mark.parametrize(
        "d,eps,target", [(3, 0.05, None), (5, 0.2, None), (4, 0.2, 5), (3, 0.3, 40)]
    )
    def test_matches_the_vstack_reference_bit_for_bit(self, d, eps, target):
        packing = pack_caps(make_rng(11), d, eps, target)
        np.testing.assert_array_equal(packing.centers, _vstack_caps(make_rng(11), d, eps, target))

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
        small = pack_caps(make_rng(2), 3, 0.05)
        large = pack_caps(make_rng(2), 3, 0.1)
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

    def test_codes_beyond_the_word_limit_are_rejected(self):
        # k = 88 asks for 2^11 words by default; the greedy search would run
        # for about 9 s.
        with pytest.raises(ValueError, match="search limit"):
            varshamov_gilbert(88, rng=make_rng(0))

    def test_deterministic_exhaustive_path(self):
        a = varshamov_gilbert(16)
        b = varshamov_gilbert(16)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            varshamov_gilbert(0)
        # Codes past 24 bits are drawn at random, so they need a seed.
        with pytest.raises(TypeError, match="seed is required"):
            varshamov_gilbert(40)

    @pytest.mark.parametrize("k", [25, 40, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_search_matches_per_row_oracle(self, k, seed):
        # The int search must draw and keep exactly the words of a search
        # over uint8 rows with one numpy sum per pair.
        fam = varshamov_gilbert(k, rng=make_rng(seed))
        np.testing.assert_array_equal(fam.bits, _row_search(k, make_rng(seed)))


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
        # The network form against the sum of signed atoms over all points at
        # once.  The caps are disjoint, so each value is one exact product and
        # the two agree bit for bit.
        fam = self._family()
        pts = sample_uniform_ball(make_rng(12), fam.dim, 500)
        acts = np.maximum(pts @ fam.centers.T - atom_threshold(fam.eps), 0.0)
        for idx in (0, 1, fam.size - 1):
            net = member_net(fam, idx)
            assert net.width == fam.n_atoms and net.beta == 0.0
            np.testing.assert_array_equal(net.w, fam.centers)
            expected = fam.amplitude / fam.eps ** 2 * (acts @ fam.code.signs[idx])
            np.testing.assert_array_equal(member_values(fam, idx, pts), expected)

    def test_member_evaluation_allocates_blocks_not_all_atoms(self):
        # At 2e5 points and 80 atoms one (points, atoms) float64 array is
        # 122 MiB; the blocked forward pass holds its (200000,) output and
        # one (ROW_BLOCK + 1, 80) buffer.
        fam = build_hard_family(make_rng(0), 5, 0.2, n_atoms=80)
        pts = sample_uniform_ball(make_rng(15), fam.dim, 200000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            member_values(fam, 1, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / 2**20 <= 16.0

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
        assert abs(est - pair_sq_distance(fam, i, j)) <= 4.0 * se

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
