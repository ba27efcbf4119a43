"""Constructors for the lab's function families.

Three families are built in: the sawtooth sequence whose derivative
cubed-norm is the same constant for every index, the scaled hat function
used as a test direction, and the unit-vector sequence of the
square-summable sequence space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .piecewise import (
    ExactReal,
    PiecewiseLinearFn,
    RationalLike,
    _integer,
    as_fraction,
    derivative,
    plap_pairing,
    pow_norm,
)

# N and S of gap_negativity_threshold: the gap is N - S*alpha for every k
SAWTOOTH_ENERGY = Fraction(45)
HAT_PAIRING_SLOPE = Fraction(3)


def sawtooth(k: int) -> PiecewiseLinearFn:
    """k-tooth sawtooth on [0, 1/2], zero on [1/2, 1].

    Tooth i rises from 0 at i/(2k) to 1/k at (3i+1)/(6k), then falls back
    to 0 at (i+1)/(2k); slopes are 6 and -3 independently of k.  Built on
    its integer grid: breakpoints 3i and 3i+1, then 3k and 6k, over 6k.
    """
    _integer("index k", k, 1)
    n = [0] * (2 * k)
    n[0::2] = range(0, 3 * k, 3)
    n[1::2] = range(1, 3 * k, 3)
    n += [3 * k, 6 * k]
    return PiecewiseLinearFn._from_grid(6 * k, n, [6, -3] * k + [0], [1] * (2 * k + 1))


def scaled_hat(alpha: RationalLike) -> PiecewiseLinearFn:
    """Hat function alpha * min(t, 1-t): peak alpha/2 at the midpoint.

    Built on its integer grid: breakpoints 0, 1, 2 over 2, slopes a/b and -a/b.
    """
    a, b = as_fraction(alpha).as_integer_ratio()
    if a <= 0:
        raise ValueError("alpha must be > 0")
    return PiecewiseLinearFn._from_grid(2, (0, 1, 2), (a, -a), (b, b))


def gap_negativity_threshold() -> Fraction:
    """Smallest hat scale beyond which the sawtooth equilibrium gap is negative.

    The gap against the hat with scale alpha is N - S*alpha with N the
    constant derivative cubed-norm and S the pairing slope in alpha; both
    are computed here rather than hard-coded.
    """
    u = sawtooth(1)
    return pow_norm(derivative(u), 3) / plap_pairing(u, scaled_hat(1))


@dataclass(frozen=True)
class L2SeqVector:
    """k-th standard unit vector of the square-summable sequence space.

    Represented symbolically by its index; pairings are closed-form, so
    no truncation to finite arrays ever happens.
    """

    index: int

    def __post_init__(self):
        _integer("index", self.index, 1)


def l2_pairing(a: L2SeqVector, b: L2SeqVector) -> ExactReal:
    """Inner product of two unit vectors: 1 if same index, else 0."""
    return ExactReal(1 if a.index == b.index else 0)
