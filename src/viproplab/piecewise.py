"""Exact calculus for piecewise-linear functions on [0,1].

Functions are stored as integer grids: breakpoints over the lcm of their
denominators, and a reduced rational slope (or value) per cell; their weak
derivatives are piecewise constant on the same grid.  All operations on
rational data stay rational (integers, or ``fractions.Fraction`` where a
rational is built), so identities like a constant cubed-norm can be
checked with zero tolerance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import lt, mul
from typing import Iterable, Optional, Sequence, Union

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
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def _rational(num: int, den: int, cls: type = Fraction) -> Fraction:
    """num/den, den != 0, as the ``cls`` that ``cls(num, den)`` builds: one gcd, the sign
    moved to the numerator, and the two slots set without ``Fraction.__new__``'s dispatch."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    r = object.__new__(cls)
    r._numerator, r._denominator = num // g, den // g
    return r


def _integer(name: str, x, lo: int, hi: Optional[int] = None) -> int:
    """x if it is exactly an ``int`` in lo..hi (no top if hi is None), else a ValueError echoing x.

    A bool or an ``IntEnum`` member is not one (True would build k = 1),
    and 2.0 or "3" would fail later, in ``range`` or in a comparison.
    """
    if type(x) is not int or x < lo or hi is not None and x > hi:
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {bound}, got {x!r}")
    return x


class ExactReal(Fraction):
    """A kernel's exact result: a ``Fraction`` that also reads as ``.exact``
    (always True) and ``.value`` (itself); arithmetic on it gives ``Fraction``s."""

    __slots__ = ()
    exact = True

    @property
    def value(self):
        return self


def _pairs_json(c: Sequence[int], e: Sequence[int], a: Sequence[int], b: Sequence[int]) -> dict:
    """Both classes' JSON layout, from reduced integer pairs c/e, a/b; ``_json_pairs`` reads it."""
    return {"breakpoints": [[str(x), str(y)] for x, y in zip(c, e)],
            "values": [[str(x), str(y)] for x, y in zip(a, b)]}


def _json_pairs(d: dict) -> tuple:
    """(breakpoints, values) as Fraction tuples, from the layout of ``_pairs_json``.

    A missing key, an entry that is not a two-item list, a number that is
    neither an int nor a decimal integer string such as "-12" (a bool or
    a float, say), or a zero denominator is a ValueError.
    """
    if not isinstance(d, dict) or not {"breakpoints", "values"} <= d.keys():
        raise ValueError('need the keys "breakpoints" and "values"')
    out = []
    for key in ("breakpoints", "values"):
        if type(d[key]) not in (list, tuple) or not all(
                type(x) in (list, tuple) and len(x) == 2 for x in d[key]):
            raise ValueError(f"{key} must be a list of [numerator, denominator] pairs")
        nums = [*chain.from_iterable(d[key])]
        if not all(type(x) is int or type(x) is str and x.isascii()
                   and x.removeprefix("-").isdigit() for x in nums):
            raise ValueError(f"{key} must hold ints or decimal integer strings")
        nums = [*map(int, nums)]
        if 0 in nums[1::2]:
            raise ValueError(f"{key} has a zero denominator")
        out.append(tuple(map(_rational, nums[::2], nums[1::2])))
    return tuple(out)


def _over_lcm(nums: Sequence[int], dens: Sequence[int]) -> tuple:
    """(L, (x*L/y for x/y)): rationals x/y as integers over the lcm L of their denominators."""
    den = lcm(*dens)
    return den, tuple([x * (den // y) for x, y in zip(nums, dens)])


def _rational_sum(pairs: Iterable[tuple], power: int = 1, den: int = 1) -> tuple:
    """(Σ num/key**power) / den, an unreduced pair over integer pairs (num, key); keys and den are > 0.

    Neighbours are added level by level as a balanced tree, the odd last
    pair of a level moving up as it is.  A node takes one gcd, of its two
    keys alone: with g = gcd(ka, kb), na/ka**p + nb/kb**p is
    (na (kb/g)**p + nb (ka/g)**p) / ((ka/g) kb)**p, again a pair over a
    key.  Keys are denominators of the data; no numerator is reduced, and
    the root pair (num, key**p * den) is normalised once, by ``_rational``.
    A sequential sum would carry the running denominator, of up to
    thousands of bits, through every addition; the tree keeps most
    additions on small operands.  The empty sum is (0, 1).
    """
    level = [*pairs]
    if not level:
        return 0, 1
    while len(level) > 1:
        up = []
        it = iter(level)
        for (na, ka), (nb, kb) in zip(it, it):
            g = gcd(ka, kb)
            if g == 1:
                up.append((na * kb**power + nb * ka**power, ka * kb))
            else:
                a = ka // g
                up.append((na * (kb // g) ** power + nb * a**power, a * kb))
        if len(level) % 2:
            up.append(level[-1])
        level = up
    num, key = level[0]
    return num, key**power * den


def _pairs(xs: Iterable[RationalLike]) -> tuple:
    """The numerators and the denominators of exact rationals, as two lists."""
    fs = [as_fraction(x) for x in xs]  # lists, not generators: built at their final size
    return [x.numerator for x in fs], [x.denominator for x in fs]


def _points(breakpoints: Iterable[RationalLike]) -> tuple:
    """Breakpoints as (c, e, D, n): c_i/e_i, and n_i over the lcm D; from 0 to 1, increasing."""
    c, e = _pairs(breakpoints)
    d, n = _over_lcm(c, e)
    if len(n) < 2:
        raise ValueError("need at least the two endpoint breakpoints")
    if n[0] != 0 or n[-1] != d:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if not all(map(lt, n, n[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return c, e, d, n


def _linear_grid(breakpoints: Iterable[RationalLike], values: Iterable[RationalLike]) -> tuple:
    """Integer grid (D, n, P, Q) of the function with these breakpoints and nodal values.

    The input is checked first.  The slope on cell i is P_i/Q_i with Q_i > 0, reduced by one gcd from its
    two values y = a/b and two breakpoints t = c/e over the cell's own
    denominators: (y1 - y0)/(t1 - t0) = (a1 b0 - a0 b1) e0 e1 / ((c1 e0 -
    c0 e1) b0 b1).  Those integers stay as small as the data; over the lcm
    of all value denominators they would grow with the number of cells.
    """
    c, e, d, n = _points(breakpoints)
    a, b = _pairs(values)
    if len(a) != len(n):
        raise ValueError("one value per breakpoint required")
    if a[0] or a[-1]:
        raise ValueError("boundary values must be zero")
    p, q = [], []
    for a0, a1, b0, b1, c0, c1, e0, e1 in zip(a, a[1:], b, b[1:], c, c[1:], e, e[1:]):
        num = (a1 * b0 - a0 * b1) * e0 * e1
        den = (c1 * e0 - c0 * e1) * b0 * b1
        g = gcd(num, den)
        p.append(num // g)
        q.append(den // g)
    return d, n, tuple(p), tuple(q)


class _GridFn:
    """A function whose one stored form is its integer grid ``_grid = (D, n, P, Q)``.

    Breakpoints t_i = n_i/D run over the lcm D of their denominators, and
    each cell i holds one reduced rational P_i/Q_i with Q_i > 0: the slope
    of a ``PiecewiseLinearFn``, the value of a ``PiecewiseConstFn``; so a
    function and its derivative have one grid.  Subclasses are frozen
    dataclasses with that one field.  The grid is canonical, so the
    generated ``==`` and ``hash`` compare functions by their grids.

    Data is checked where it enters: the public constructors check the
    ends and the order of the breakpoints, the lengths and a linear
    function's zero boundary values.  The rest of the form holds by
    construction: each P_i/Q_i is read off a reduced ``Fraction``, and
    gcd(n) = 1, since a prime power that exactly divides D = lcm(e)
    exactly divides some breakpoint's denominator e_i, so the prime does
    not divide n_i = c_i D/e_i.  The library's own builders make the
    whole form by construction, and store it through ``_from_grid``
    unchecked.
    """

    @classmethod
    def _from_grid(cls, d: int, n: Sequence[int], p: Sequence[int], q: Sequence[int]):
        """The function whose grid is (D, n, P, Q), stored as given: unchecked.

        For grids the library builds in the grid form, never for outside
        data; tuples passed in are stored as they are, not copied.
        """
        f = cls.__new__(cls)
        object.__setattr__(f, "_grid", (d, tuple(n), tuple(p), tuple(q)))
        return f

    def _cell(self, t: RationalLike) -> tuple:
        """(i, t): t as a rational in [0, 1] and its cell i, left-closed, t = 1 in the last."""
        t = as_fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("evaluation point outside [0,1]")
        d, n = self._grid[:2]
        return min(bisect_right(n, t.numerator * d // t.denominator), len(n) - 1) - 1, t


def _reduced(d: int, n: Sequence[int]) -> tuple:
    """The breakpoints n_i/D as reduced integer pairs, in two lists (c, e)."""
    gs = [gcd(x, d) for x in n]
    return [x // g for x, g in zip(n, gs)], [d // g for g in gs]


def _nodes(u: "PiecewiseLinearFn") -> tuple:
    """(c, e, a, b): u's breakpoints c_i/e_i and nodal values a_i/b_i as reduced integers.

    From y_i = a/b, y_{i+1} = a/b + (P_i/Q_i)(c_{i+1}/e_{i+1} - c_i/e_i) is
    reduced by one gcd over the cell's own denominators, which stay as
    small as the data.  The one place nodal values are formed; not cached.
    """
    d, n, p, q = u._grid
    c, e = _reduced(d, n)
    a, b = [0], [1]
    for pi, qi, c0, c1, e0, e1 in zip(p, q, c, c[1:], e, e[1:]):
        num = a[-1] * qi * e0 * e1 + b[-1] * pi * (c1 * e0 - c0 * e1)
        den = b[-1] * qi * e0 * e1
        g = gcd(num, den)
        a.append(num // g)
        b.append(den // g)
    return c, e, a, b


@lru_cache(maxsize=4)
def _linear_views(u: "PiecewiseLinearFn") -> tuple:
    """(breakpoints, values) as Fraction tuples, for the public properties only; the
    last few are kept for callers that index them in a loop.  A lookup hashes u's grid."""
    c, e, a, b = _nodes(u)
    return tuple(map(_rational, c, e)), tuple(map(_rational, a, b))


@dataclass(frozen=True, init=False, repr=False)
class PiecewiseLinearFn(_GridFn):
    """Continuous piecewise-linear function on [0,1] vanishing at 0 and 1.

    The zero boundary values model membership in the zero-trace Sobolev
    space the lab works in.  The grid holds the slope P_i/Q_i of each
    cell; the nodal values follow from the slopes and u(0) = 0.  JSON and
    ``abs_pow_integral`` read them as integers from ``_nodes``, and
    ``breakpoints`` and ``values`` are Fraction views built from it; u(t)
    sums the slopes over the cells left of t only.
    """

    _grid: tuple

    def __init__(self, breakpoints: Iterable[RationalLike], values: Iterable[RationalLike]):
        self.__post_init__(breakpoints, values)

    def __post_init__(self, breakpoints, values):
        # every public construction runs here, and _linear_grid checks it
        object.__setattr__(self, "_grid", _linear_grid(breakpoints, values))

    @property
    def breakpoints(self) -> tuple:
        """The breakpoints n_i/D as reduced rationals."""
        return _linear_views(self)[0]

    @property
    def values(self) -> tuple:
        """The nodal values, summed from the slopes."""
        return _linear_views(self)[1]

    def __call__(self, t: RationalLike) -> Fraction:
        """u(t): the slopes times the lengths of the cells left of t, and the partial cell."""
        i, t = self._cell(t)
        d, n, p, q = self._grid
        x, y = t.numerator, t.denominator
        pairs = [(pj * (b - a), qj) for pj, qj, a, b in zip(p[:i], q, n, n[1:])]
        pairs.append((p[i] * (x * d - n[i] * y), q[i] * y))
        return _rational(*_rational_sum(pairs, den=d))

    def __repr__(self):
        return f"PiecewiseLinearFn(breakpoints={self.breakpoints!r}, values={self.values!r})"

    def to_json_dict(self) -> dict:
        return _pairs_json(*_nodes(self))

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseLinearFn":
        return cls(*_json_pairs(d))

    @classmethod
    def zero(cls) -> "PiecewiseLinearFn":
        return cls._from_grid(1, (0, 1), (0,), (1,))


@dataclass(frozen=True, init=False, repr=False)
class PiecewiseConstFn(_GridFn):
    """Piecewise-constant function on [0,1]: one value per open interval.

    The grid holds the value P_i/Q_i of each cell; ``breakpoints`` and
    ``interval_values`` are Fraction views of the grid.
    """

    _grid: tuple

    def __init__(
        self, breakpoints: Iterable[RationalLike], interval_values: Iterable[RationalLike]
    ):
        self.__post_init__(breakpoints, interval_values)

    def __post_init__(self, breakpoints, interval_values):
        # every public construction runs here, and is checked here
        d, n = _points(breakpoints)[2:]
        p, q = _pairs(interval_values)
        if len(p) != len(n) - 1:
            raise ValueError("one value per interval required")
        object.__setattr__(self, "_grid", (d, n, tuple(p), tuple(q)))

    @property
    def breakpoints(self) -> tuple:
        """The breakpoints n_i/D as reduced rationals, built on each read."""
        d, n = self._grid[:2]
        return tuple([_rational(x, d) for x in n])

    @property
    def interval_values(self) -> tuple:
        """The values P_i/Q_i as reduced rationals, built on each read."""
        return tuple(map(_rational, *self._grid[2:]))

    def value_at(self, t: RationalLike) -> Fraction:
        """Value on the interval containing t (left-closed convention)."""
        i = self._cell(t)[0]
        p, q = self._grid[2:]
        return _rational(p[i], q[i])

    def __repr__(self):
        return (f"PiecewiseConstFn(breakpoints={self.breakpoints!r}, "
                f"interval_values={self.interval_values!r})")

    def to_json_dict(self) -> dict:
        d, n, p, q = self._grid
        return _pairs_json(*_reduced(d, n), p, q)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseConstFn":
        return cls(*_json_pairs(d))

    @cached_property
    def _integer_view(self) -> tuple:
        """Integer data ``(D, E, n, p, primitive, jump)`` of this frozen function
        for ``test_integral``, built once on first use.

        ``pow_norm`` reads the grid and ``test_integral`` this view, so every
        integral of one piecewise-constant function is an integer sum over
        one grid.  With the grid's t_i = n_i/D, its values c_i = p_i/E over
        E = lcm(Q), and p_m = 0 past the last interval, ``primitive[i]`` is
        D*E times the integral of f over [0, t_i], and ``jump[i]`` is
        J_i = p_{i-1} - p_i (p_{-1} = 0).  A plain tuple, which a call
        unpacks in one step; nothing in it changes after.
        """
        d, n, p, q = self._grid
        e, p = _over_lcm(p, q)
        p = (*p, 0)
        primitive = (0, *accumulate(pi * (b - a) for pi, a, b in zip(p, n, n[1:])))
        return d, e, n, p, primitive, tuple([left - right for left, right in zip((0, *p), p)])


def _grid_of(f: _GridFn, cls: type) -> tuple:
    """f's grid (D, n, P, Q) if f is a ``cls``, else a TypeError: both classes
    store one form, so a function of the other class would be misread."""
    if not isinstance(f, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(f).__name__}")
    return f._grid


def derivative(u: PiecewiseLinearFn) -> PiecewiseConstFn:
    """Weak derivative of a piecewise-linear function: its own grid, slopes read as values.

    A linear grid is in the form of a constant one, so its tuples are
    shared as they are.
    """
    return PiecewiseConstFn._from_grid(*_grid_of(u, PiecewiseLinearFn))


def _merge(df: int, nf: Sequence[int], dg: int, ng: Sequence[int]):
    """Walk the union of two integer grids, breakpoints n/d, once.

    Yields (i, j, width, x) per union cell: the cell lies in cell i of the
    first grid and cell j of the second, and x and width are its right end
    and its length, both times lcm(df, dg).
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
            yield i, j, x - a, x
            a, i = x, i + 1
        elif y < x:
            yield i, j, y - a, y
            a, j = y, j + 1
        else:
            yield i, j, x - a, x
            a, i, j = x, i + 1, j + 1


def common_refinement(
    f: PiecewiseConstFn, g: PiecewiseConstFn
) -> tuple:
    """Re-express both functions on the union breakpoint grid."""
    df, nf, pf, qf = _grid_of(f, PiecewiseConstFn)
    dg, ng, pg, qg = _grid_of(g, PiecewiseConstFn)
    n, fi, gj = [0], [], []
    for i, j, _, x in _merge(df, nf, dg, ng):
        n.append(x)
        fi.append(i)
        gj.append(j)
    d = lcm(df, dg)
    return (PiecewiseConstFn._from_grid(d, n, [pf[i] for i in fi], [qf[i] for i in fi]),
            PiecewiseConstFn._from_grid(d, n, [pg[j] for j in gj], [qg[j] for j in gj]))


def pow_norm(f: PiecewiseConstFn, p: int) -> Fraction:
    """Integral of |f|^p over [0,1], exact.

    This is the p-th power of the L^p norm; take ``float(...) ** (1 / p)``
    for the (approximate) norm itself.  A cell with value P/Q adds
    |P|^p (n_{i+1} - n_i) to the sum kept for its denominator Q; the pairs
    (sum, Q) are added by ``_rational_sum`` with ``power=p``, and the total
    is divided by the grid denominator D once.
    """
    _integer("p", p, 1)
    d, n, num, den = _grid_of(f, PiecewiseConstFn)
    sums: dict = {}
    for c, q, a, b in zip(num, den, n, n[1:]):
        sums[q] = sums.get(q, 0) + abs(c) ** p * (b - a)
    return _rational(*_rational_sum([(x, q) for q, x in sums.items()], p, d), ExactReal)


def _union_sum(u: PiecewiseLinearFn, w: PiecewiseLinearFn, term) -> Fraction:
    """Exact ∫ term(u', w') dt: term(c, d) * (b - a) summed over the union grid.

    ``term`` must be a polynomial in (c, d) homogeneous of degree 3, so that
    term(P/Q, R/S) = term(P*S, R*Q) / (Q*S)**3 for the integer slopes of
    the grids.  Each union cell adds the integer term(P*S, R*Q) times its
    width to the sum kept for its key Q*S; the pairs (sum, key) are added
    by ``_rational_sum`` with ``power=3``, and the total is divided by the
    common grid denominator once.
    """
    du, nu, p, q = _grid_of(u, PiecewiseLinearFn)
    dw, nw, r, s = _grid_of(w, PiecewiseLinearFn)
    sums: dict = {}
    for i, j, width, _ in _merge(du, nu, dw, nw):
        key = q[i] * s[j]
        sums[key] = sums.get(key, 0) + term(p[i] * s[j], r[j] * q[i]) * width
    return _rational(*_rational_sum([(x, key) for key, x in sums.items()], 3, lcm(du, dw)), ExactReal)


def plap_pairing(u: PiecewiseLinearFn, w: PiecewiseLinearFn) -> Fraction:
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

    On a union cell where u and w have slopes P/Q and R/S, a*u + b*w has
    the slope a P/Q + b R/S, reduced by one gcd.
    """
    a, b = as_fraction(a), as_fraction(b)
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    du, nu, p, q = _grid_of(u, PiecewiseLinearFn)
    dw, nw, r, s = _grid_of(w, PiecewiseLinearFn)
    n, slope_num, slope_den = [0], [], []
    for i, j, _, x in _merge(du, nu, dw, nw):
        num = an * bd * p[i] * s[j] + bn * ad * r[j] * q[i]
        den = ad * bd * q[i] * s[j]
        g = gcd(num, den)
        n.append(x)
        slope_num.append(num // g)
        slope_den.append(den // g)
    return PiecewiseLinearFn._from_grid(lcm(du, dw), n, slope_num, slope_den)


@dataclass(frozen=True)
class Monomial:
    """The test function t^degree, degree an ``int`` in 0..8.  Monomials carry
    every polynomial by linearity: ∫ f Σ c_d t^d = Σ c_d ∫ f t^d."""

    degree: int

    def __post_init__(self):
        _integer("degree", self.degree, 0, MAX_POLY_DEGREE)

    def describe(self) -> str:
        """``poly[0,...,0,1]``, the coefficients low degree first."""
        return "poly[" + "0," * self.degree + "1]"


@dataclass(frozen=True)
class Indicator:
    """The indicator of a rational sub-interval (lo, hi) of [0,1], its ends kept as Fractions."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        ends = []
        for x in (self.lo, self.hi):
            try:
                ends.append(as_fraction(x))
            except (TypeError, ValueError):  # a float, bool or None end, or a bad text
                raise ValueError(f"indicator end is not an exact rational: {x!r}") from None
        lo, hi = ends
        a0, b0, a1, b1 = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if not (0 <= a0 and a0 * b1 < a1 * b0 and a1 <= b1):  # 0 <= lo < hi <= 1
            raise ValueError("indicator support must be a sub-interval of [0,1]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # the reduced ends for test_integral; not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_ends", (a0, b0, a1, b1))

    def describe(self) -> str:
        return f"indicator({self.lo},{self.hi})"


def dyadic_indicators(level: int) -> list:
    """All indicators of dyadic intervals (j/2^L, (j+1)/2^L) at one level."""
    n = 2 ** _integer("dyadic level", level, 1, MAX_DYADIC_LEVEL)
    return [Indicator(_rational(j, n), _rational(j + 1, n)) for j in range(n)]


def test_integral(f: PiecewiseConstFn, phi: Union[Monomial, Indicator]) -> Fraction:
    """Exact integral ∫ f(t) φ(t) dt over [0,1], as an ``ExactReal``.

    An indicator of (a, b) gives F(b) - F(a), with F the primitive of f.
    It reads the reduced integer ends a = a0/b0, b = a1/b1 the indicator
    kept when it was built, and D*E*b_i*F at each end is a bisect and two
    integer products on the view.  A monomial sums by parts over the jumps
    of f: with c_{-1} = c_m = 0, ∫ f(t) t^d dt = Σ_i t_i^(d+1) (c_{i-1} -
    c_i) / (d+1), one integer power sum, taken by ``map`` over the view's
    tuples.  Both unpack the integer view cached on f once per call, so
    after the first call an indicator costs O(log cells) and a monomial
    O(cells); the result is built by one ``_rational`` call.
    """
    d, e, n, p, primitive, jump = f._integer_view
    if type(phi) is Indicator:
        a0, b0, a1, b1 = phi._ends
        # D*E*b*F(a/b) = primitive_i*b + p_i*(a*D - n_i*b), with n_i/D <= a/b < n_(i+1)/D
        i = bisect_right(n, a0 * d // b0) - 1
        j = bisect_right(n, a1 * d // b1) - 1
        lo = primitive[i] * b0 + p[i] * (a0 * d - n[i] * b0)
        hi = primitive[j] * b1 + p[j] * (a1 * d - n[j] * b1)
        return _rational(hi * b0 - lo * b1, d * e * b0 * b1, ExactReal)
    j = phi.degree + 1
    return _rational(sum(map(mul, map(pow, n, repeat(j)), jump)), j * e * d**j, ExactReal)


def abs_pow_integral(u: PiecewiseLinearFn, p: int) -> Fraction:
    """Integral of |u|^p for piecewise-linear u, exact.

    G(y) = |y|^p y is a primitive of (p+1)|y|^p, so on a cell with slope
    P/Q != 0 the integral is (G(y1) - G(y0)) Q / ((p+1) P), whether or not
    u changes sign there; on a flat cell of length L it is L |y0|^p.  With
    the nodal values y_i = a_i/b_i, each cell's term times p+1 is one
    reduced integer pair, and ``_rational_sum`` adds them and divides by p+1.
    """
    _integer("p", p, 1)
    d, n, sp, sq = _grid_of(u, PiecewiseLinearFn)
    a, b = _nodes(u)[2:]
    g = [abs(x) ** p * x for x in a]  # G(y_i) = g_i / h_i
    h = [x ** (p + 1) for x in b]
    terms = []  # (p+1) times each cell's integral
    for pi, qi, g0, g1, h0, h1, a0, b0, x0, x1 in zip(sp, sq, g, g[1:], h, h[1:], a, b, n, n[1:]):
        if pi:
            # Q_i shares most of b_i b_(i+1) with h_i h_(i+1): one gcd here
            # keeps the keys of the tree small
            num, den = (g1 * h0 - g0 * h1) * qi, h0 * h1 * pi
            r = gcd(num, den) if pi > 0 else -gcd(num, den)
            terms.append((num // r, den // r))
        else:
            terms.append(((p + 1) * (x1 - x0) * abs(a0) ** p, d * b0**p))
    return _rational(*_rational_sum(terms, den=p + 1), ExactReal)
