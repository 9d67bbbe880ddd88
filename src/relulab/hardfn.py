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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from relulab.nets import TwoLayerNet, forward
from relulab.numerics import (
    check_finite_fields, check_int_fields, make_rng, sample_uniform_ball,
)
from relulab.weights import cap_moment, tail_probability

__all__ = [
    "atom_threshold",
    "atom_l2_norm",
    "atom_l2_constants",
    "CapPacking",
    "pack_caps",
    "SignFamily",
    "MAX_CODE_WORDS",
    "MAX_ATOMS",
    "varshamov_gilbert",
    "HardFamily",
    "build_hard_family",
    "member_net",
    "member_values",
    "hamming",
    "pair_sq_distance",
    "indistinguishable_probability",
    "indistinguishable_probability_mc",
    "ball_volume",
    "VgnormConfig",
    "HardfnConfig",
]


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return eps


def atom_threshold(eps: float) -> float:
    """Offset of the atom's kink: 1 - eps^2."""
    return 1.0 - _check_eps(eps) ** 2


def ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    from scipy.special import gamma  # here, not at module level: import relulab stays scipy-free

    return math.pi ** (d / 2) / gamma(d / 2 + 1)


def _slice_volume_constant(d: int) -> float:
    # Volume of the unit ball in R^(d-1); the d = 1 slice is a point, volume 1.
    from scipy.special import gamma

    return math.pi ** ((d - 1) / 2) / gamma((d + 1) / 2)


def atom_l2_norm(d: int, eps: float) -> float:
    """Lebesgue L2 norm of one atom over the unit ball.

    Slicing perpendicular to ``u`` at height s = 1 - delta reduces the
    integral to one dimension:

        I = V_{d-1} * int_0^{eps^2} (eps^2 - delta)^2 (delta (2 - delta))^((d-1)/2) d delta

    = V_{d-1} * cap_moment(d, 2, eps^2), and the norm is sqrt(I).
    """
    eps = _check_eps(eps)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return math.sqrt(_slice_volume_constant(d) * cap_moment(d, 2, eps * eps))


def atom_l2_constants(d: int) -> tuple[float, float]:
    """(c_lo, c_hi) with c_lo eps^((d+5)/2) <= atom_l2_norm <= c_hi eps^((d+5)/2).

    On the integration range delta <= eps^2 <= 1/4 the factor (2 - delta)
    sits in [7/4, 2]; substituting delta = eps^2 s pulls out
    eps^(d+5) B(3, (d+1)/2).  Valid for eps <= 1/2.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    from scipy.special import beta

    j = beta(3.0, (d + 1) / 2.0)
    v = _slice_volume_constant(d)
    lo = math.sqrt(v * (7.0 / 4.0) ** ((d - 1) / 2.0) * j)
    hi = math.sqrt(v * 2.0 ** ((d - 1) / 2.0) * j)
    return lo, hi


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


_UNTARGETED_REJECTS = 2000


def pack_caps(rng, d: int, eps: float, target: int | None = None) -> CapPacking:
    """Greedily pack cap centers with pairwise dot at most cos(2 theta),
    theta = arccos(1 - eps^2), so the atom supports cannot overlap.

    The signed standard basis vectors are tried first (they realize the
    maximal packing in the right-angle regime), then random directions.
    The search stops at ``target`` accepted centers or after a run of
    50 * target + 1000 consecutive rejections (2000 when no target is
    given).
    """
    if target is not None and target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    budget = _UNTARGETED_REJECTS if target is None else 50 * target + 1000
    return _greedy_caps(rng, d, eps, target, budget)


def _greedy_caps(rng, d: int, eps: float, target: int | None, reject_budget: int) -> CapPacking:
    """The greedy search of :func:`pack_caps` with an explicit rejection budget."""
    eps = _check_eps(eps)
    if d < 2:
        raise ValueError(f"cap packing needs dimension >= 2, got {d}")
    rng = make_rng(rng)
    cos_threshold = 2.0 * (1.0 - eps * eps) ** 2 - 1.0

    # Centers fill the first ``count`` rows of a buffer that doubles when full.
    accepted = np.empty((target or 64, d))
    count = rejects = 0

    def candidate_stream():
        yield from np.vstack([np.eye(d), -np.eye(d)])
        while True:
            batch = rng.normal(size=(512, d))
            norms = np.linalg.norm(batch, axis=1)
            keep = norms > 1e-12
            yield from batch[keep] / norms[keep, None]

    for cand in candidate_stream():
        if count and np.max(accepted[:count] @ cand) > cos_threshold:
            rejects += 1
            if rejects >= reject_budget:
                break
            continue
        if count == len(accepted):
            accepted = np.concatenate([accepted, np.empty_like(accepted)])
        accepted[count] = cand
        count += 1
        rejects = 0
        if count == target:
            break

    return CapPacking(centers=accepted[:count].copy(), eps=eps, cos_threshold=cos_threshold)


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


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between bit rows, broadcast over leading axes."""
    return np.count_nonzero(a != b, axis=-1)


# The greedy search compares each candidate with every accepted word, so its
# cost grows as target^2: 1024 words at k = 80 take about 0.1 s on one x86-64
# core.
MAX_CODE_WORDS = 1024
# The longest code whose size ceil(2^(k/8)) stays within the limit.
MAX_ATOMS = 8 * int(math.log2(MAX_CODE_WORDS))


def varshamov_gilbert(k: int, rng=None) -> SignFamily:
    """Greedy code over {0, 1}^k with minimum distance ceil(k / 8).

    Stops once ceil(2^(k/8)) words are found (the counting bound guarantees
    a maximal code is at least that large, so the exhaustive scan used for
    k <= 24 always succeeds).  Larger k scans uniform random words from
    ``rng`` instead and raises ``RuntimeError`` after 200 * ceil(2^(k/8))
    rejections in a row.  More than :data:`MAX_CODE_WORDS` words (k > 80)
    raise ``ValueError``.  Word bit j is letter j of the code.
    """
    if k < 1:
        raise ValueError(f"code length must be >= 1, got {k}")
    dmin = -(-k // 8)
    target = math.ceil(2.0 ** (k / 8.0))
    if target > MAX_CODE_WORDS:
        raise ValueError(
            f"a code of {target} words exceeds the search limit of {MAX_CODE_WORDS} words"
        )

    if k <= 24:
        candidates = iter(range(1, 1 << k))
        reject_budget = math.inf
    else:
        rng = make_rng(rng)
        candidates = (
            int.from_bytes(np.packbits(rng.integers(0, 2, size=k), bitorder="little"), "little")
            for _ in itertools.count()
        )
        reject_budget = 200 * target

    accepted = [0]
    rejects = 0
    while len(accepted) < target and rejects < reject_budget:
        word = next(candidates, None)
        if word is None:  # every word of length k was tried
            break
        if all((word ^ prev).bit_count() >= dmin for prev in accepted):
            accepted.append(word)
            rejects = 0
        else:
            rejects += 1
    if rejects >= reject_budget:
        raise RuntimeError(f"randomized code search failed to reach {target} words at length {k}")
    bits = np.array([[(w >> j) & 1 for j in range(k)] for w in accepted], dtype=np.uint8)
    return SignFamily(bits=bits, min_distance=dmin)


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
    vacuous below that).  With ``n_atoms`` None the packing runs to
    :func:`pack_caps`'s 2000 rejections, but stops at ``MAX_ATOMS + 1``
    caps: no code covers more than ``MAX_ATOMS``, so the code search then
    raises at once instead of after packing every cap that fits (thousands
    at d = 10).
    """
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if n_atoms is None:
        packing = _greedy_caps(rng, d, eps, MAX_ATOMS + 1, _UNTARGETED_REJECTS)
    else:
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


def member_net(family: HardFamily, index: int) -> TwoLayerNet:
    """Family member ``index`` as a two-layer network: one neuron per atom,
    w = the cap centers, b = 1 - eps^2, v = amplitude eps^{-2} signs[index]
    and beta = 0."""
    return TwoLayerNet(
        w=family.centers,
        b=np.full(family.n_atoms, atom_threshold(family.eps)),
        v=family.amplitude / family.eps ** 2 * family.code.signs[index],
        beta=0.0,
    )


def member_values(family: HardFamily, index: int, points: np.ndarray) -> np.ndarray:
    """Evaluate family member ``index`` at each row of ``points`` through
    :func:`relulab.nets.forward`, one block of rows at a time.  The caps are
    disjoint, so each value is one atom's activation times its v."""
    return forward(member_net(family, index), points)


def pair_sq_distance(family: HardFamily, i: int, j: int) -> float:
    """Exact squared Lebesgue L2 distance between members ``i`` and ``j``.

    Disjoint supports make cross terms vanish, so the square distance is
    (2 amplitude eps^{-2} atom_l2)^2 times the Hamming distance.
    """
    bits = family.code.bits
    unit = 2.0 * family.amplitude * atom_l2_norm(family.dim, family.eps) / family.eps ** 2
    return float(unit ** 2 * hamming(bits[i], bits[j]))


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


# Designs per Monte Carlo batch; a constant because the batching orders the draws.
_MC_CHUNK = 1000


def indistinguishable_probability_mc(
    rng,
    family: HardFamily,
    i: int,
    j: int,
    n: int,
    trials: int,
) -> float:
    """Monte Carlo estimate of :func:`indistinguishable_probability` for a
    concrete member pair, drawing fresh n-point designs.  With no
    observations, or no differing caps, nothing can tell the pair apart."""
    rng = make_rng(rng)
    differ = family.code.bits[i] != family.code.bits[j]
    centers = family.centers[differ]
    tau = atom_threshold(family.eps)
    if n == 0 or centers.shape[0] == 0:
        return 1.0
    misses = 0
    done = 0
    while done < trials:
        m = min(_MC_CHUNK, trials - done)
        pts = sample_uniform_ball(rng, family.dim, m * n)
        hit = (pts @ centers.T > tau).any(axis=1).reshape(m, n).any(axis=1)
        misses += int(np.sum(~hit))
        done += m
    return misses / trials


@dataclass(frozen=True)
class VgnormConfig:
    """Settings of ``vgnorm``: the code length k of a code of ceil(2^(k/8))
    words.  :func:`varshamov_gilbert` rejects k past its word limit."""

    code_length: int = 16

    def __post_init__(self):
        check_int_fields(self)
        if self.code_length < 8:
            raise ValueError(f"code_length must be >= 8, got {self.code_length}")


@dataclass(frozen=True)
class HardfnConfig:
    """Settings of ``hardfn-verify``, which checks members 0 and 1 of the
    family: at least 8 atoms make a code of at least 2 words.
    :func:`build_hard_family` checks ``d``, ``eps``, ``amplitude`` and too
    few atoms.  More than ``MAX_ATOMS`` = 80 atoms can never build a code,
    and the cap packing would spend up to 50 rejections per atom looking
    for them."""

    d: int = 3
    eps: float = 0.2
    n_atoms: int | None = None
    amplitude: float = 1.0
    n_obs: int = 50
    mc_trials: int = 20000
    l2_samples: int = 200000

    def __post_init__(self):
        check_int_fields(self)
        check_finite_fields(self)
        if self.n_atoms is not None and self.n_atoms > MAX_ATOMS:
            raise ValueError(f"n_atoms must be null or at most {MAX_ATOMS}, got {self.n_atoms}")
        if self.n_obs < 0 or self.mc_trials < 1 or self.l2_samples < 1:
            raise ValueError("n_obs must be >= 0, and mc_trials and l2_samples >= 1")
