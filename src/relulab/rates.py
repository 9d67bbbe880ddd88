"""Predicted sample-complexity exponents, kept as exact rationals.

Each entry is the positive rate r in the scaling n^(-r) for the quantity
named by the kind key.  Log-log slopes fitted from experiments are negative,
so ``compare_slopes`` reports observed + predicted as the gap: zero means
the experiment matches the theory, negative means faster decay than
predicted.

Kinds:
  ``gen_gap_upper``   guarantee for the generalization gap of flat
                      interpolants: 1 / (2d + 2)
  ``gen_gap_lower``   matching hard-instance rate: 2 / (d + 1)
  ``mse_upper``       risk guarantee for variation-bounded regression:
                      (d + 3) / (2d^2 + 6d + 3)
  ``mse_lower``       minimax risk floor on the same class: 2 / (d + 1)
                      for d >= 2, and 1/2 on the line
  ``wd_reference``    reference rate for the norm-controlled d = 1
                      weight-decay run: 1/4, dimension-free
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from relulab.numerics import check_finite_fields, check_int_fields, is_integer, write_csv

__all__ = [
    "RATE_KINDS",
    "predicted_exponent",
    "SlopeComparison",
    "compare_slopes",
    "exponent_table",
    "exponent_table_to_csv",
    "RatesConfig",
]

RATE_KINDS = (
    "gen_gap_upper",
    "gen_gap_lower",
    "mse_upper",
    "mse_lower",
    "wd_reference",
)


def predicted_exponent(d: int, which: str) -> Fraction:
    """Exact positive decay rate for the given kind at input dimension d."""
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if which == "gen_gap_upper":
        return Fraction(1, 2 * d + 2)
    if which == "gen_gap_lower":
        return Fraction(2, d + 1)
    if which == "mse_upper":
        return Fraction(d + 3, 2 * d * d + 6 * d + 3)
    if which == "mse_lower":
        return Fraction(1, 2) if d == 1 else Fraction(2, d + 1)
    if which == "wd_reference":
        return Fraction(1, 4)
    raise ValueError(f"unknown rate kind {which!r}; expected one of {RATE_KINDS}")


@dataclass(frozen=True)
class SlopeComparison:
    """Observed log-log slope against the prediction for one (d, kind)."""

    d: int
    which: str
    observed_slope: float
    predicted_exponent: Fraction

    @property
    def gap(self) -> float:
        """observed + predicted; zero when the experiment hits the rate."""
        return self.observed_slope + float(self.predicted_exponent)


def compare_slopes(observed_slope: float, d: int, which: str) -> SlopeComparison:
    return SlopeComparison(
        d=int(d),
        which=which,
        observed_slope=float(observed_slope),
        predicted_exponent=predicted_exponent(d, which),
    )


def exponent_table(d_values=range(1, 11)) -> list[dict]:
    """One row per dimension with every kind's exact rate."""
    rows = []
    for d in d_values:
        row = {"d": int(d)}
        for kind in RATE_KINDS:
            row[kind] = predicted_exponent(d, kind)
        rows.append(row)
    return rows


def exponent_table_to_csv(path, d_values=range(1, 11)) -> None:
    """Rates written as exact fraction strings (e.g. ``4/11``)."""
    write_csv(path, ("d", *RATE_KINDS), (row.values() for row in exponent_table(d_values)))


@dataclass(frozen=True)
class RatesConfig:
    """Settings of ``rates``: the dimensions of the exponent table."""

    dims: tuple = tuple(range(1, 11))

    def __post_init__(self):
        check_int_fields(self)
        check_finite_fields(self)
        dims = self.dims
        if not (isinstance(dims, (list, tuple)) and dims
                and all(is_integer(d) and d >= 1 for d in dims)):
            raise ValueError(f"dims must be a nonempty list of positive integers, got {dims!r}")
