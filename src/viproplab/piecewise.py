"""Exact calculus for piecewise-linear functions on [0,1].

Functions are stored with rational breakpoints and rational nodal values;
their weak derivatives are piecewise constant on the same grid.  All
operations on rational data stay rational (arbitrary-precision via
``fractions.Fraction``), so identities like a constant cubed-norm can be
checked with zero tolerance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import accumulate
from math import gcd, lcm
from types import SimpleNamespace
from typing import Iterable, Sequence, Union

# perfbench/run.py records this name as the rational backend; nothing else reads it
_make_rational = Fraction

RationalLike = Union[int, Fraction, str]

MAX_POLY_DEGREE = 8
MAX_DYADIC_LEVEL = 8


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, rationals and 'p/q' strings to an exact rational (never floats)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@total_ordering
class ExactReal:
    """A number tagged with its provenance: exact rational or float.

    ``exact`` is the type of ``value``: a ``Fraction`` when exact, a
    ``float`` otherwise.  Arithmetic happens on ``value``, where Python's own
    rule gives a float as soon as a float takes part.
    """

    # exact is a slot, not a property: serialization reads it once per integral
    __slots__ = ("value", "exact")

    def __init__(self, value):
        self.exact = not isinstance(value, float)
        self.value = as_fraction(value) if self.exact else float(value)

    def __float__(self) -> float:
        return float(self.value)

    def __eq__(self, other):
        return self.value == (other.value if isinstance(other, ExactReal) else other)

    def __lt__(self, other):
        return self.value < (other.value if isinstance(other, ExactReal) else other)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        tag = "exact" if self.exact else "approx"
        return f"ExactReal({self.value!r}, {tag})"


def _frac_pair(q: Fraction) -> list:
    # canonical serialization: reduced fraction, sign on the numerator
    return [str(q.numerator), str(q.denominator)]


def _pair_frac(pair) -> Fraction:
    num, den = pair
    return Fraction(int(num), int(den))


def _check_breakpoints(bps: Sequence[Fraction]) -> None:
    if len(bps) < 2:
        raise ValueError("need at least the two endpoint breakpoints")
    if bps[0] != 0 or bps[-1] != 1:
        raise ValueError("breakpoints must start at 0 and end at 1")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise ValueError("breakpoints must be strictly increasing")


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise-linear function on [0,1] vanishing at 0 and 1.

    The zero boundary values model membership in the zero-trace Sobolev
    space the lab works in.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        # tuple of a list, not of a generator: built at its final size, and faster
        bps = tuple([as_fraction(t) for t in self.breakpoints])
        vals = tuple([as_fraction(v) for v in self.values])
        _check_breakpoints(bps)
        if len(vals) != len(bps):
            raise ValueError("one value per breakpoint required")
        if vals[0] != 0 or vals[-1] != 0:
            raise ValueError("boundary values must be zero")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def __call__(self, t: RationalLike) -> Fraction:
        t = as_fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("evaluation point outside [0,1]")
        i = bisect_right(self.breakpoints, t) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        a, b = self.breakpoints[i], self.breakpoints[i + 1]
        ya, yb = self.values[i], self.values[i + 1]
        return ya + (yb - ya) * (t - a) / (b - a)

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [_frac_pair(t) for t in self.breakpoints],
            "values": [_frac_pair(v) for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseLinearFn":
        return cls(
            tuple(_pair_frac(p) for p in d["breakpoints"]),
            tuple(_pair_frac(p) for p in d["values"]),
        )

    @classmethod
    def zero(cls) -> "PiecewiseLinearFn":
        return cls((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))


@dataclass(frozen=True)
class PiecewiseConstFn:
    """Piecewise-constant function on [0,1]: one value per open interval."""

    breakpoints: tuple
    interval_values: tuple

    def __post_init__(self):
        bps = tuple([as_fraction(t) for t in self.breakpoints])
        vals = tuple([as_fraction(v) for v in self.interval_values])
        _check_breakpoints(bps)
        if len(vals) != len(bps) - 1:
            raise ValueError("one value per interval required")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "interval_values", vals)

    def value_at(self, t: RationalLike) -> Fraction:
        """Value on the interval containing t (left-closed convention)."""
        t = as_fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("evaluation point outside [0,1]")
        i = min(bisect_right(self.breakpoints, t) - 1, len(self.interval_values) - 1)
        return self.interval_values[i]

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [_frac_pair(t) for t in self.breakpoints],
            "values": [_frac_pair(v) for v in self.interval_values],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseConstFn":
        return cls(
            tuple(_pair_frac(p) for p in d["breakpoints"]),
            tuple(_pair_frac(p) for p in d["values"]),
        )

    @cached_property
    def _integer_view(self) -> SimpleNamespace:
        """Integer form of this frozen function, built on first use.

        ``pow_norm`` and ``test_integral`` both read it, so every integral of
        one piecewise-constant function is an integer sum over one grid.
        Breakpoints are t_i = n_i/D and values c_i = p_i/E, with D and E the
        lcm of their denominators, and p_m = 0 past the last interval.
        ``primitive[i]`` is D*E times the integral of f over [0, t_i].
        ``jump[i]`` is J_i = p_{i-1} - p_i (p_{-1} = 0), and ``sums[j]`` is
        S_j = sum of n_i**j * J_i, grown on demand from ``powers`` = n_i**j.
        """
        d, n = _over_lcm(self.breakpoints)
        e, p = _over_lcm(self.interval_values)
        p.append(0)
        return SimpleNamespace(
            d=d, e=e, n=n, p=p,
            primitive=[0, *accumulate(pi * (b - a) for pi, a, b in zip(p, n, n[1:]))],
            jump=[left - right for left, right in zip([0] + p, p)],
            powers=[1] * len(n), sums=[0],
        )


def _over_lcm(xs: Sequence[Fraction]) -> tuple:
    """(L, [x*L for x in xs]): rationals as integers over the lcm L of their denominators."""
    den = lcm(*[x.denominator for x in xs])
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _grid(u: PiecewiseLinearFn) -> tuple:
    """Integer grid (D, n, P, Q) of u, built on each call and never stored.

    Breakpoints are t_i = n_i/D with D the lcm of their denominators.  The
    slope on cell i is P_i/Q_i with Q_i > 0, reduced by one gcd from its
    two values y = a/b and two breakpoints t = c/e over the cell's own
    denominators: (y1 - y0)/(t1 - t0) = (a1 b0 - a0 b1) e0 e1 / ((c1 e0 -
    c0 e1) b0 b1).  Those integers stay as small as the data; over the lcm
    of all value denominators they would grow with the number of cells.
    """
    c, e = [t.numerator for t in u.breakpoints], [t.denominator for t in u.breakpoints]
    a, b = [y.numerator for y in u.values], [y.denominator for y in u.values]
    d = lcm(*e)
    p, q = [], []
    for a0, a1, b0, b1, c0, c1, e0, e1 in zip(a, a[1:], b, b[1:], c, c[1:], e, e[1:]):
        num = (a1 * b0 - a0 * b1) * e0 * e1
        den = (c1 * e0 - c0 * e1) * b0 * b1
        g = gcd(num, den)
        p.append(num // g)
        q.append(den // g)
    return d, [ci * (d // ei) for ci, ei in zip(c, e)], p, q


def derivative(u: PiecewiseLinearFn) -> PiecewiseConstFn:
    """Weak derivative of a piecewise-linear function: exact slopes."""
    _, _, p, q = _grid(u)
    return PiecewiseConstFn(u.breakpoints, [Fraction(a, b) for a, b in zip(p, q)])


def _merge(bf: tuple, df: int, nf: list, bg: tuple, dg: int, ng: list):
    """Walk the union of two integer grids, n/d for breakpoints b, once.

    Yields (i, j, width, t) per union cell: the cell lies in cell i of the
    first grid and cell j of the second, width is its length times
    lcm(df, dg), and t is its right end, taken from bf or bg.
    """
    den = lcm(df, dg)
    if den != df:
        nf = [x * (den // df) for x in nf]
    if den != dg:
        ng = [y * (den // dg) for y in ng]
    i = j = 0
    a, last = 0, len(nf) - 1
    while i < last:  # both grids end at 1, so the merge ends in both at once
        x, y = nf[i + 1], ng[j + 1]
        if x < y:
            yield i, j, x - a, bf[i + 1]
            a, i = x, i + 1
        elif y < x:
            yield i, j, y - a, bg[j + 1]
            a, j = y, j + 1
        else:
            yield i, j, x - a, bf[i + 1]
            a, i, j = x, i + 1, j + 1


def common_refinement(
    f: PiecewiseConstFn, g: PiecewiseConstFn
) -> tuple:
    """Re-express both functions on the union breakpoint grid."""
    bf, bg = f.breakpoints, g.breakpoints
    bps, fv, gv = [Fraction(0)], [], []
    for i, j, _, t in _merge(bf, *_over_lcm(bf), bg, *_over_lcm(bg)):
        bps.append(t)
        fv.append(f.interval_values[i])
        gv.append(g.interval_values[j])
    return PiecewiseConstFn(bps, fv), PiecewiseConstFn(bps, gv)


def pow_norm(f: PiecewiseConstFn, p: int) -> ExactReal:
    """Integral of |f|^p over [0,1], exact.

    This is the p-th power of the L^p norm; take ``float(...) ** (1 / p)``
    for the (approximate) norm itself.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    v = f._integer_view  # |c_i|^p (t_{i+1} - t_i) = |p_i|^p (n_{i+1} - n_i) / (E^p D)
    num = sum(abs(q) ** p * (b - a) for q, a, b in zip(v.p, v.n, v.n[1:]))
    return ExactReal(Fraction(num, v.e**p * v.d))


def _union_sum(u: PiecewiseLinearFn, w: PiecewiseLinearFn, term) -> ExactReal:
    """Exact ∫ term(u', w') dt: term(c, d) * (b - a) summed over the union grid.

    ``term`` must be a polynomial in (c, d) homogeneous of degree 3, so that
    term(P/Q, R/S) = term(P*S, R*Q) / (Q*S)**3 for the integer slopes of
    ``_grid``.  Each union cell adds the integer term(P*S, R*Q) times its
    width to the sum kept for its key Q*S; one rational is built per key,
    and the total is divided by the common grid denominator once.
    """
    du, nu, p, q = _grid(u)
    dw, nw, r, s = _grid(w)
    sums: dict = {}
    for i, j, width, _ in _merge(u.breakpoints, du, nu, w.breakpoints, dw, nw):
        key = q[i] * s[j]
        sums[key] = sums.get(key, 0) + term(p[i] * s[j], r[j] * q[i]) * width
    total = sum(Fraction(num, key**3) for key, num in sums.items())
    return ExactReal(total / lcm(du, dw))


def plap_pairing(u: PiecewiseLinearFn, w: PiecewiseLinearFn) -> ExactReal:
    """Degenerate third-power duality pairing ∫ |u'| u' w' dt, exact.

    The integrand is piecewise constant on the union of the two grids,
    so the integral is a finite rational sum.
    """
    return _union_sum(u, w, lambda c, d: abs(c) * c * d)


def lin_comb(
    a: RationalLike,
    u: PiecewiseLinearFn,
    b: RationalLike,
    w: PiecewiseLinearFn,
) -> PiecewiseLinearFn:
    """Pointwise a*u + b*w on the union breakpoint grid (a, b exact).

    From v(0) = 0, each cell (t, t') with slopes c, d adds (a*c + b*d)(t' - t).
    """
    if any(isinstance(x, ExactReal) and not x.exact for x in (a, b)):
        raise ValueError("coefficients must be exact")
    a, b = (as_fraction(x.value if isinstance(x, ExactReal) else x) for x in (a, b))
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    du, nu, p, q = _grid(u)
    dw, nw, r, s = _grid(w)
    scale = ad * bd * lcm(du, dw)
    bps, vals = [Fraction(0)], [Fraction(0)]
    for i, j, width, t in _merge(u.breakpoints, du, nu, w.breakpoints, dw, nw):
        bps.append(t)  # (a P/Q + b R/S) width over one denominator
        step = (an * bd * p[i] * s[j] + bn * ad * r[j] * q[i]) * width
        vals.append(vals[-1] + Fraction(step, scale * q[i] * s[j]))
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


@dataclass(frozen=True)
class PolynomialTest:
    """Test function for exact integration against piecewise-constant data.

    Either a polynomial with rational coefficients (degree <= 8) or the
    indicator of a rational sub-interval of [0,1].
    """

    kind: str  # "poly" | "indicator"
    coeffs: tuple = ()  # low degree first, for kind == "poly"
    support: tuple = ()  # (lo, hi), for kind == "indicator"

    def __post_init__(self):
        if self.kind == "poly":
            coeffs = tuple(as_fraction(c) for c in self.coeffs)
            if not coeffs:
                raise ValueError("polynomial needs at least one coefficient")
            if len(coeffs) - 1 > MAX_POLY_DEGREE:
                raise ValueError(f"degree capped at {MAX_POLY_DEGREE}")
            object.__setattr__(self, "coeffs", coeffs)
        elif self.kind == "indicator":
            lo, hi = (as_fraction(x) for x in self.support)
            if not (0 <= lo < hi <= 1):
                raise ValueError("indicator support must be a sub-interval of [0,1]")
            object.__setattr__(self, "support", (lo, hi))
        else:
            raise ValueError(f"unsupported test-function kind: {self.kind!r}")

    @classmethod
    def polynomial(cls, coeffs: Iterable[RationalLike]) -> "PolynomialTest":
        return cls("poly", coeffs=tuple(coeffs))

    @classmethod
    def monomial(cls, degree: int) -> "PolynomialTest":
        return cls("poly", coeffs=(0,) * degree + (1,))

    @classmethod
    def indicator(cls, lo: RationalLike, hi: RationalLike) -> "PolynomialTest":
        return cls("indicator", support=(lo, hi))

    def describe(self) -> str:
        if self.kind == "poly":
            return "poly[" + ",".join(str(c) for c in self.coeffs) + "]"
        lo, hi = self.support
        return f"indicator({lo},{hi})"


def dyadic_indicators(level: int) -> list:
    """All indicators of dyadic intervals (j/2^L, (j+1)/2^L) at one level."""
    if not 1 <= level <= MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level must be in 1..{MAX_DYADIC_LEVEL}")
    n = 2**level
    return [PolynomialTest.indicator(Fraction(j, n), Fraction(j + 1, n)) for j in range(n)]


def _primitive(v: SimpleNamespace, t: Fraction) -> int:
    """D*E*b times F(t), the integral of f over [0, t = a/b], from the integer view v of f."""
    a, b = t.numerator, t.denominator
    i = bisect_right(v.n, a * v.d // b) - 1
    return v.primitive[i] * b + v.p[i] * (a * v.d - v.n[i] * b)


def _jump_sums(v: SimpleNamespace, j: int) -> list:
    """The power sums S_0..S_j (at least) of the integer view v."""
    powers, sums = v.powers, v.sums
    while len(sums) <= j:
        powers[:] = [q * n for q, n in zip(powers, v.n)]
        sums.append(sum(q * jump for q, jump in zip(powers, v.jump)))
    return sums


def test_integral(f: PiecewiseConstFn, phi: PolynomialTest) -> ExactReal:
    """Exact integral ∫ f(t) φ(t) dt over [0,1].

    An indicator of (a, b) gives F(b) - F(a), with F the primitive of f.
    A polynomial sums by parts over the jumps of f: with c_{-1} = c_m = 0,
    ∫ f(t) t^d dt = Σ_i t_i^(d+1) (c_{i-1} - c_i) / (d+1), one integer
    power sum per degree.  Both read the integer view cached on f, so
    after the first call an indicator costs O(1) and a polynomial O(degree).
    """
    v = f._integer_view
    if phi.kind == "indicator":
        lo, hi = phi.support
        b0, b1 = lo.denominator, hi.denominator
        num = _primitive(v, hi) * b0 - _primitive(v, lo) * b1
        return ExactReal(Fraction(num, v.d * v.e * b0 * b1))
    terms = [(deg + 1, c) for deg, c in enumerate(phi.coeffs) if c]
    if not terms:
        return ExactReal(Fraction(0))
    top = terms[-1][0]
    sums = _jump_sums(v, top)
    # every term over the one denominator common * E * D**top
    common = lcm(*[j * c.denominator for j, c in terms])
    num = sum(
        c.numerator * (common // (j * c.denominator)) * sums[j] * v.d ** (top - j)
        for j, c in terms
    )
    return ExactReal(Fraction(num, common * v.e * v.d**top))


def abs_pow_integral(u: PiecewiseLinearFn, p: int) -> ExactReal:
    """Integral of |u|^p for piecewise-linear u, exact.

    On a cell of length L where |u| runs linearly from z0 to z1 the
    integral is L (z1^(p+1) - z0^(p+1)) / ((p+1)(z1 - z0)), or L z0^p when
    z0 = z1; where u changes sign inside the cell it is
    L (z0^(p+1) + z1^(p+1)) / ((p+1)(z0 + z1)).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    t, y = u.breakpoints, u.values
    total = Fraction(0)  # (p+1) times the integral
    for a, b, y0, y1 in zip(t, t[1:], y, y[1:]):
        z0, z1 = abs(y0), abs(y1)
        if y0 * y1 < 0:
            total += (b - a) * (z0 ** (p + 1) + z1 ** (p + 1)) / (z0 + z1)
        elif z0 == z1:
            total += (b - a) * (p + 1) * z0**p
        else:
            total += (b - a) * (z1 ** (p + 1) - z0 ** (p + 1)) / (z1 - z0)
    return ExactReal(total / (p + 1))
