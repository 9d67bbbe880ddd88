"""Hard-to-learn function families built from separated ReLU cap atoms.

One atom is ``relu(u . x - (1 - eps^2))``: it is supported on the spherical
cap of half-angle ``arccos(1 - eps^2)`` around the unit direction ``u`` and
peaks at ``eps^2`` on the boundary of the ball.  Packing many directions
with pairwise angle at least twice the cap half-angle makes the supports
disjoint, so sums of signed atoms have exactly computable L2 geometry.  A
binary code with guaranteed minimum Hamming distance then turns the atom
set into an exponentially large family whose members are pairwise well
separated in L2 yet tiny in sup norm and in weighted variation, which is
the engine behind the dimension-cursed lower bounds.

The univariate analogue at the end uses smooth bumps crowded against the
edge of the interval instead of caps; it plays the same role in d = 1
where directions cannot be packed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from relulab.numerics import make_rng, quadrature_1d, sample_uniform_ball
from relulab.weights import g_simplified, tail_probability

__all__ = [
    "atom_threshold",
    "relu_atom",
    "atom_l2_norm",
    "atom_l2_constants",
    "atom_weighted_variation",
    "CapPacking",
    "pack_caps",
    "SignFamily",
    "varshamov_gilbert",
    "HardFamily",
    "build_hard_family",
    "member_values",
    "weighted_variation_upper",
    "pairwise_sq_distances",
    "indistinguishable_probability",
    "indistinguishable_probability_mc",
    "ball_volume",
    "bump_curvature_mass",
    "bump_curvature_mass_closed_form",
    "bump_normalizer",
    "bump_value",
    "bump_l2_constant",
    "BumpFamily",
    "bump_family",
    "bump_member_value",
    "bump_tv2",
    "bump_member_l2",
    "bump_weighted_variation_upper",
]

BUMP_INFLECTION = 3.0 ** -0.25  # where (d^2/dy^2) exp(-1/(1-y^2)) changes sign


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return eps


def atom_threshold(eps: float) -> float:
    """Offset of the atom's kink: 1 - eps^2."""
    return 1.0 - _check_eps(eps) ** 2


def relu_atom(points: np.ndarray, u: np.ndarray, eps: float) -> np.ndarray:
    """Evaluate ``relu(u . x - (1 - eps^2))`` at each row of ``points``."""
    tau = atom_threshold(eps)
    u = np.asarray(u, dtype=float)
    return np.maximum(np.asarray(points, dtype=float) @ u - tau, 0.0)


def ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2) / gamma_fn(d / 2 + 1)


def _slice_volume_constant(d: int) -> float:
    # Volume of the unit ball in R^(d-1); the d = 1 slice is a point, volume 1.
    return math.pi ** ((d - 1) / 2) / gamma_fn((d + 1) / 2)


def atom_l2_norm(d: int, eps: float, normalized: bool = False, tol: float = 1e-12) -> float:
    """Lebesgue L2 norm of one atom over the unit ball.

    Slicing perpendicular to ``u`` at height s = 1 - delta reduces the
    integral to one dimension:

        I = V_{d-1} * int_0^{eps^2} (eps^2 - delta)^2 (delta (2 - delta))^((d-1)/2) d delta

    and the norm is sqrt(I).  With ``normalized`` the atom is rescaled by
    eps^{-2} so its peak value is 1.
    """
    eps = _check_eps(eps)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    e2 = eps * eps
    power = (d - 1) / 2.0

    def integrand(delta):
        return (e2 - delta) ** 2 * (delta * (2.0 - delta)) ** power

    value = _slice_volume_constant(d) * quadrature_1d(integrand, 0.0, e2, tol * e2 ** 3)
    norm = math.sqrt(value)
    return norm / e2 if normalized else norm


def atom_l2_constants(d: int) -> tuple[float, float]:
    """(c_lo, c_hi) with c_lo eps^((d+5)/2) <= atom_l2_norm <= c_hi eps^((d+5)/2).

    On the integration range delta <= eps^2 <= 1/4 the factor (2 - delta)
    sits in [7/4, 2]; substituting delta = eps^2 s pulls out
    eps^(d+5) B(3, (d+1)/2).  Valid for eps <= 1/2.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    j = beta_fn(3.0, (d + 1) / 2.0)
    v = _slice_volume_constant(d)
    lo = math.sqrt(v * (7.0 / 4.0) ** ((d - 1) / 2.0) * j)
    hi = math.sqrt(v * 2.0 ** ((d - 1) / 2.0) * j)
    return lo, hi


def atom_weighted_variation(d: int, eps: float, normalized: bool = False) -> float:
    """Weighted second variation of one atom under the closed-form weight
    (1 - |t|)^(d+2): the atom is a single ridge kink at offset 1 - eps^2,
    so this is just its coefficient times eps^(2d+4)."""
    eps = _check_eps(eps)
    coeff = eps ** -2 if normalized else 1.0
    return coeff * g_simplified(d, atom_threshold(eps))


# ---------------------------------------------------------------------------
# cap packing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapPacking:
    """Unit directions whose eps-caps are pairwise disjoint."""

    centers: np.ndarray
    eps: float
    cos_threshold: float

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def pack_caps(
    rng,
    d: int,
    eps: float,
    target: int | None = None,
    reject_budget: int | None = None,
) -> CapPacking:
    """Greedily pack cap centers with pairwise dot at most cos(2 theta),
    theta = arccos(1 - eps^2), so the atom supports cannot overlap.

    The signed standard basis vectors are tried first (they realize the
    maximal packing in the right-angle regime), then random directions.
    The search stops at ``target`` accepted centers or after a run of
    ``reject_budget`` consecutive rejections (default 50 * target + 1000,
    or 2000 when no target is given).
    """
    eps = _check_eps(eps)
    if d < 2:
        raise ValueError(f"cap packing needs dimension >= 2, got {d}")
    if target is not None and target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    rng = make_rng(rng)
    cos_threshold = 2.0 * (1.0 - eps * eps) ** 2 - 1.0
    if reject_budget is None:
        reject_budget = 2000 if target is None else 50 * target + 1000

    accepted: list[np.ndarray] = []
    accepted_arr = np.empty((0, d))
    rejects = 0

    def candidate_stream():
        yield from np.vstack([np.eye(d), -np.eye(d)])
        while True:
            batch = rng.normal(size=(512, d))
            norms = np.linalg.norm(batch, axis=1)
            keep = norms > 1e-12
            yield from batch[keep] / norms[keep, None]

    for cand in candidate_stream():
        if accepted and np.max(accepted_arr @ cand) > cos_threshold:
            rejects += 1
            if rejects >= reject_budget:
                break
            continue
        accepted.append(cand)
        accepted_arr = np.vstack([accepted_arr, cand[None, :]])
        rejects = 0
        if target is not None and len(accepted) >= target:
            break

    return CapPacking(centers=accepted_arr, eps=eps, cos_threshold=cos_threshold)


# ---------------------------------------------------------------------------
# distance-guaranteed binary codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignFamily:
    """Binary code with guaranteed minimum Hamming distance.

    ``bits`` is (M, K) in {0, 1} and row 0 is always the all-zeros word;
    ``signs`` maps bits to +-1 for use as atom coefficients.
    """

    bits: np.ndarray
    min_distance: int

    @property
    def size(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def signs(self) -> np.ndarray:
        return 2.0 * self.bits - 1.0


def _bits_from_int(word: int, k: int) -> np.ndarray:
    return np.array([(word >> j) & 1 for j in range(k)], dtype=np.uint8)


def varshamov_gilbert(k: int, rng=None, target: int | None = None) -> SignFamily:
    """Greedy code over {0, 1}^k with minimum distance ceil(k / 8).

    Stops once ceil(2^(k/8)) words are found (the counting bound guarantees
    a maximal code is at least that large, so the exhaustive scan used for
    k <= 24 always succeeds).  Larger k falls back to randomized greedy
    with restarts.
    """
    if k < 1:
        raise ValueError(f"code length must be >= 1, got {k}")
    dmin = -(-k // 8)
    if target is None:
        target = math.ceil(2.0 ** (k / 8.0))
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")

    if k <= 24:
        accepted = [0]
        for word in range(1, 1 << k):
            if len(accepted) >= target:
                break
            if all((word ^ prev).bit_count() >= dmin for prev in accepted):
                accepted.append(word)
        bits = np.vstack([_bits_from_int(w, k) for w in accepted])
        return SignFamily(bits=bits, min_distance=dmin)

    rng = make_rng(rng)
    for _ in range(20):
        accepted_bits = [np.zeros(k, dtype=np.uint8)]
        rejects = 0
        while len(accepted_bits) < target and rejects < 200 * target:
            cand = rng.integers(0, 2, size=k).astype(np.uint8)
            dists = [(int(np.sum(cand != prev))) for prev in accepted_bits]
            if min(dists) >= dmin:
                accepted_bits.append(cand)
                rejects = 0
            else:
                rejects += 1
        if len(accepted_bits) >= target:
            return SignFamily(bits=np.vstack(accepted_bits), min_distance=dmin)
    raise RuntimeError(
        f"randomized code search failed to reach {target} words at length {k}"
    )


# ---------------------------------------------------------------------------
# the family itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardFamily:
    """Signed sums of disjoint normalized cap atoms, one member per codeword.

    Member ``m`` is ``amplitude * eps^{-2} * sum_k signs[m, k] * atom_k``;
    the eps^{-2} makes each atom peak at 1, so |member| <= amplitude
    pointwise.
    """

    centers: np.ndarray
    eps: float
    amplitude: float
    code: SignFamily

    @property
    def n_atoms(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def size(self) -> int:
        return self.code.size


def build_hard_family(
    rng,
    d: int,
    eps: float,
    n_atoms: int | None = None,
    amplitude: float = 1.0,
) -> HardFamily:
    """Pack caps, build the distance code on them, and assemble the family.

    Raises if fewer than 8 disjoint caps fit (the code construction is
    vacuous below that).
    """
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    packing = pack_caps(rng, d, eps, target=n_atoms)
    if packing.count < 8:
        raise ValueError(
            f"only {packing.count} disjoint caps fit at d={d}, eps={eps}; "
            "need at least 8"
        )
    code = varshamov_gilbert(packing.count, rng=rng)
    return HardFamily(
        centers=packing.centers, eps=packing.eps, amplitude=amplitude, code=code
    )


def member_values(family: HardFamily, index: int, points: np.ndarray) -> np.ndarray:
    """Evaluate family member ``index`` at each row of ``points``."""
    tau = atom_threshold(family.eps)
    x = np.atleast_2d(np.asarray(points, dtype=float))
    acts = np.maximum(x @ family.centers.T - tau, 0.0)
    scale = family.amplitude / family.eps ** 2
    return scale * (acts @ family.code.signs[index])


def weighted_variation_upper(family: HardFamily) -> float:
    """Every member's weighted variation is at most
    K * amplitude * eps^(2d+2) under the closed-form weight."""
    return family.n_atoms * family.amplitude * family.eps ** (2 * family.dim + 2)


def pairwise_sq_distances(family: HardFamily) -> np.ndarray:
    """Exact squared Lebesgue L2 distances between all member pairs.

    Disjoint supports make cross terms vanish, so the square distance is
    (2 amplitude eps^{-2} atom_l2)^2 times the Hamming distance.
    """
    bits = family.code.bits
    hamming = (bits[:, None, :] != bits[None, :, :]).sum(axis=-1)
    unit = 2.0 * family.amplitude * atom_l2_norm(family.dim, family.eps) / family.eps ** 2
    return unit ** 2 * hamming


# ---------------------------------------------------------------------------
# indistinguishability from samples
# ---------------------------------------------------------------------------

def indistinguishable_probability(d: int, eps: float, hamming: int, n: int) -> float:
    """Probability that n iid uniform-ball covariates all miss every cap on
    which two members differ: (1 - h Q(1 - eps^2))^n, exact because the
    caps are disjoint."""
    if hamming < 0 or n < 0:
        raise ValueError("hamming and n must be >= 0")
    q = hamming * tail_probability(d, atom_threshold(eps))
    if q >= 1.0:
        return 0.0
    return (1.0 - q) ** n


def indistinguishable_probability_mc(
    rng,
    family: HardFamily,
    i: int,
    j: int,
    n: int,
    trials: int,
    chunk: int = 1000,
) -> float:
    """Monte Carlo estimate of :func:`indistinguishable_probability` for a
    concrete member pair, drawing fresh n-point designs."""
    rng = make_rng(rng)
    differ = family.code.bits[i] != family.code.bits[j]
    centers = family.centers[differ]
    tau = atom_threshold(family.eps)
    if centers.shape[0] == 0:
        return 1.0
    misses = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        pts = sample_uniform_ball(rng, family.dim, m * n)
        hit = (pts @ centers.T > tau).any(axis=1).reshape(m, n).any(axis=1)
        misses += int(np.sum(~hit))
        done += m
    return misses / trials


# ---------------------------------------------------------------------------
# univariate bump family
# ---------------------------------------------------------------------------

def _bump_raw(y: np.ndarray) -> np.ndarray:
    """exp(-1/(1 - y^2)) on (-1, 1), hard zero outside and within 1e-12 of
    the endpoints (where the exponential underflows anyway)."""
    y = np.asarray(y, dtype=float)
    s = 1.0 - y * y
    out = np.zeros_like(s)
    safe = s > 1e-12
    out[safe] = np.exp(-1.0 / s[safe])
    return out


def _bump_raw_second_derivative_abs(y: float) -> float:
    s = 1.0 - y * y
    if s <= 1e-12:
        return 0.0
    return abs((6.0 * y ** 4 - 2.0) / s ** 4) * math.exp(-1.0 / s)


@lru_cache(maxsize=1)
def bump_curvature_mass() -> float:
    """Total curvature of the raw bump, int |d^2/dy^2 exp(-1/(1-y^2))| dy,
    integrated piecewise around the inflection points at +-3^(-1/4)."""
    x = BUMP_INFLECTION
    inner = quadrature_1d(_bump_raw_second_derivative_abs, 0.0, x, 1e-9)
    outer = quadrature_1d(_bump_raw_second_derivative_abs, x, 1.0, 1e-9)
    return 2.0 * (inner + outer)


def bump_curvature_mass_closed_form() -> float:
    """The same mass by telescoping the piecewise-signed integral: the first
    derivative vanishes at 0 and the endpoints, so the total is
    -4 Phi'(x*) at the inflection point x* = 3^(-1/4)."""
    x = BUMP_INFLECTION
    s = 1.0 - x * x
    deriv = -2.0 * x / s ** 2 * math.exp(-1.0 / s)
    return -4.0 * deriv


@lru_cache(maxsize=1)
def bump_normalizer() -> float:
    """c with int |(c Phi_0)''| = 1."""
    return 1.0 / bump_curvature_mass()


def bump_value(y) -> np.ndarray:
    """The curvature-normalized bump c exp(-1/(1-y^2))."""
    return bump_normalizer() * _bump_raw(y)


@lru_cache(maxsize=1)
def bump_l2_constant() -> float:
    """D = ||c Phi_0||_{L2(-1,1)} / sqrt(2); a bump squeezed into an interval
    of length L has L2 norm sqrt(L) D."""
    sq = quadrature_1d(lambda y: float(bump_value(y)) ** 2, -1.0, 1.0, 1e-12)
    return math.sqrt(sq / 2.0)


@dataclass(frozen=True)
class BumpFamily:
    """floor(1/eps) disjoint bumps on intervals of length eps^2 packed into
    [1 - eps, 1]."""

    eps: float
    starts: np.ndarray

    @property
    def count(self) -> int:
        return self.starts.size

    @property
    def width(self) -> float:
        return self.eps ** 2


def bump_family(eps: float) -> BumpFamily:
    eps = _check_eps(eps)
    count = int(math.floor(1.0 / eps))
    starts = 1.0 - eps + eps ** 2 * np.arange(count)
    return BumpFamily(eps=eps, starts=starts)


def bump_member_value(family: BumpFamily, k: int, y) -> np.ndarray:
    """Bump k rescaled onto [starts[k], starts[k] + eps^2]."""
    a = family.starts[k]
    h = family.width
    return bump_value((2.0 * (np.asarray(y, dtype=float) - a) - h) / h)


def bump_tv2(family: BumpFamily) -> float:
    """Total curvature of one member: squeezing onto length L multiplies the
    curvature mass by 2/L, and the normalized mass is 1."""
    return 2.0 / family.width


def bump_member_l2(family: BumpFamily) -> float:
    """Exact L2 norm of one member: sqrt(eps^2) D = eps D."""
    return family.eps * bump_l2_constant()


def bump_weighted_variation_upper(family: BumpFamily) -> float:
    """Weighted curvature under (1 - |t|)^3: the support sits within eps of
    the endpoint, so the weight is at most eps^3 and the total is at most
    eps^3 * 2 / eps^2 = 2 eps."""
    return 2.0 * family.eps
