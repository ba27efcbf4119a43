"""Independent exact references for the benchmark's output checks.

Everything here is plain ``fractions.Fraction`` arithmetic written from
the definitions, one interval at a time, and shares no code with the
program under test except where a check is defined through one of its
public entry points.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import comb

SAWTOOTH_ENERGY = Fraction(45)
HAT_PAIRING_SLOPE = Fraction(3)


def sawtooth_grid(k: int) -> tuple:
    """Breakpoints and nodal values of the k-tooth sawtooth on [0, 1/2]."""
    bps, vals = [], []
    for i in range(k):
        bps += [Fraction(i, 2 * k), Fraction(3 * i + 1, 6 * k)]
        vals += [Fraction(0), Fraction(1, k)]
    return tuple(bps + [Fraction(1, 2), Fraction(1)]), tuple(vals + [Fraction(0)] * 2)


def slopes(bps, vals) -> list:
    return [(vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i]) for i in range(len(bps) - 1)]


def evaluate(bps, vals, t: Fraction) -> Fraction:
    i = bisect_right(bps, t) - 1
    if i >= len(bps) - 1:
        return vals[-1]
    a, b = bps[i], bps[i + 1]
    return vals[i] + (vals[i + 1] - vals[i]) * (t - a) / (b - a)


def monomial_integral(bps, vals, degree: int) -> Fraction:
    """∫ u'(t) t^degree dt, summed interval by interval."""
    total = Fraction(0)
    for i, s in enumerate(slopes(bps, vals)):
        a, b = bps[i], bps[i + 1]
        total += s * (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    return total


def merged_slopes(u, w) -> list:
    """(width, slope of u, slope of w) on every interval of the union grid."""
    ub, wb = u.breakpoints, w.breakpoints
    su, sw = slopes(ub, u.values), slopes(wb, w.values)
    grid = sorted(set(ub) | set(wb))
    out, i, j = [], 0, 0
    for a, b in zip(grid, grid[1:]):
        while ub[i + 1] <= a:
            i += 1
        while wb[j + 1] <= a:
            j += 1
        out.append((b - a, su[i], sw[j]))
    return out


def pair_quantities(u, w) -> dict:
    """Every exact quantity the random-exact ops compute for one pair."""
    pairing = gap = mono = Fraction(0)
    for width, a, b in merged_slopes(u, w):
        fa = abs(a) * a
        pairing += fa * b * width
        gap += fa * (a - b) * width
        mono += (fa - abs(b) * b) * (a - b) * width
    norm_u = sum(abs(s) ** 3 * (u.breakpoints[i + 1] - u.breakpoints[i])
                 for i, s in enumerate(slopes(u.breakpoints, u.values)))
    norm_w = sum(abs(s) ** 3 * (w.breakpoints[i + 1] - w.breakpoints[i])
                 for i, s in enumerate(slopes(w.breakpoints, w.values)))
    return {"pairing": pairing, "gap": gap, "monotone": mono,
            "norm_u": Fraction(norm_u), "norm_w": Fraction(norm_w)}


def _linear_power(y0: Fraction, y1: Fraction, length: Fraction, p: int) -> Fraction:
    # ∫_0^length (y0 + (y1 - y0) s / length)^p ds by the binomial expansion
    d = y1 - y0
    return length * sum(comb(p, j) * y0 ** (p - j) * d ** j / (j + 1) for j in range(p + 1))


def abs_pow(bps, vals, p: int) -> Fraction:
    """∫ |u|^p dt; odd powers split each interval at its sign change."""
    total = Fraction(0)
    for i in range(len(bps) - 1):
        a, b, y0, y1 = bps[i], bps[i + 1], vals[i], vals[i + 1]
        if p % 2 == 0 or y0 * y1 >= 0:
            piece = _linear_power(y0, y1, b - a, p)
            total += abs(piece) if p % 2 else piece
        else:
            root = a + (b - a) * y0 / (y0 - y1)
            total += abs(_linear_power(y0, Fraction(0), root - a, p))
            total += abs(_linear_power(Fraction(0), y1, b - root, p))
    return total
