import copy
import json
import math
import pickle
import random
import re
from bisect import bisect_right
import dataclasses
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import starmap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viproplab import (
    ExactReal,
    GalerkinOperator,
    Indicator,
    L2SeqVector,
    Monomial,
    PiecewiseConstFn,
    PiecewiseLinearFn,
    abs_pow_integral,
    assemble_vi,
    common_refinement,
    derivative,
    dyadic_indicators,
    equilibrium_gap,
    lin_comb,
    monotone_gap_check,
    pairing_sequence,
    plap_pairing,
    pow_norm,
    sawtooth,
    scaled_hat,
    test_integral as integral_against,
    weak_convergence_evidence,
)
from viproplab.piecewise import (
    MAX_DYADIC_LEVEL, MAX_POLY_DEGREE, _rational, _rational_sum, as_fraction,
)

from conftest import (
    Three,
    assert_grid_form,
    random_pw_linear,
    random_wide_pw_linear,
    reference_abs_pow_integral,
    reference_check_breakpoints,
    reference_evaluate,
    reference_grid,
    reference_lin_comb,
    reference_pow_norm,
    reference_refinement,
    reference_sawtooth,
    reference_slopes,
    reference_sum,
    reference_test_integral,
)

F = Fraction

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=24)


@st.composite
def pw_linear_st(draw, avoid=frozenset()):
    n = draw(st.integers(min_value=0, max_value=5))
    interior = draw(
        st.sets(
            st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64).filter(
                lambda t: t not in avoid
            ),
            min_size=n,
            max_size=n,
        )
    )
    bps = [F(0)] + sorted(interior) + [F(1)]
    vals = [F(0)] + draw(st.lists(fractions_st, min_size=len(interior), max_size=len(interior))) + [F(0)]
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


class TestExactReal:
    def test_comparisons_with_numbers(self):
        assert ExactReal(F(45)) == 45
        assert ExactReal(F(-3)) < 0 <= ExactReal(F(0))
        assert ExactReal(F(1, 3)).exact and ExactReal(2).exact and ExactReal("1/2").exact
        assert ExactReal("1/2") == F(1, 2) and ExactReal(3, 6) == F(1, 2)
        # Fraction semantics: a finite float converts exactly, a bool is an integer
        assert ExactReal(0.5).exact and ExactReal(0.5) == F(1, 2)
        assert ExactReal(0.1) == F(0.1) != F(1, 10)
        assert ExactReal(True) == 1
        for bad in (1j, None, [1]):
            with pytest.raises(TypeError):
                ExactReal(bad)

    def test_arithmetic_gives_plain_fractions(self):
        x = ExactReal(2, 3)
        assert x.value is x and hash(x) == hash(F(2, 3))
        for y in (x + 1, 1 - x, x * x, x / 2, -x, abs(x), x**2):
            assert type(y) is Fraction
        assert type(x + 0.5) is float

    # the kernels' builder: the rational cls(num, den) builds, whatever the signs and sizes
    @given(
        num=st.one_of(st.just(0), st.integers(-(2**1000), 2**1000)),
        den=st.integers(-(2**1000), 2**1000).filter(bool),
        cls=st.sampled_from([Fraction, ExactReal]),
    )
    @example(num=0, den=-3, cls=ExactReal)
    @example(num=-6, den=-4, cls=Fraction)
    @example(num=2**1000, den=-(2**999), cls=ExactReal)
    def test_builder_matches_the_constructor(self, num, den, cls):
        r, want = _rational(num, den, cls), cls(num, den)
        assert type(r) is type(want) is cls
        assert (r.numerator, r.denominator) == (want.numerator, want.denominator)
        assert r == want and hash(r) == hash(want)
        assert str(r) == str(want) and repr(r) == repr(want)
        assert r.as_integer_ratio() == want.as_integer_ratio()
        assert type(r + 1) is type(want + 1) is Fraction
        assert _rational(num, den) == want and type(_rational(num, den)) is Fraction

    # Fraction refuses a NaN, which would read > 0 and >= 0, and both infinities
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_float_rejected(self, value):
        error = ValueError if math.isnan(value) else OverflowError
        with pytest.raises(error, match="integer ratio"):
            ExactReal(value)


class TestInvariants:
    def test_breakpoints_must_cover_unit_interval(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((F(0), F(1, 2)), (F(0), F(0)))

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((F(0), F(1, 2), F(1, 2), F(1)), (F(0),) * 4)

    def test_one_value_per_breakpoint(self):
        with pytest.raises(ValueError, match="^one value per breakpoint required$"):
            PiecewiseLinearFn((0, 1), (0, 0, 0))

    def test_boundary_values_zero(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((F(0), F(1)), (F(1), F(0)))

    def test_interval_count(self):
        with pytest.raises(ValueError):
            PiecewiseConstFn((F(0), F(1)), (F(1), F(2)))

    def test_repr_pinned_and_evaluates_back(self):
        text = repr(sawtooth(1))
        assert text == (
            "PiecewiseLinearFn(breakpoints=(Fraction(0, 1), Fraction(1, 6), Fraction(1, 2), "
            "Fraction(1, 1)), values=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), "
            "Fraction(0, 1)))"
        )
        namespace = {"Fraction": Fraction, "PiecewiseLinearFn": PiecewiseLinearFn}
        assert eval(text, namespace) == sawtooth(1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_fraction("3/0"),
            lambda: PiecewiseLinearFn((0, "3/0", 1), (0, 1, 0)),
            lambda: PiecewiseConstFn((0, 1), ("3/0",)),
            lambda: scaled_hat("3/0"),
            lambda: sawtooth(1)("3/0"),
            lambda: derivative(sawtooth(1)).value_at("3/0"),
            lambda: lin_comb("3/0", sawtooth(1), 1, sawtooth(2)),
        ],
        ids=["as_fraction", "linear", "constant", "scaled_hat", "evaluate", "value_at", "lin_comb"],
    )
    def test_zero_denominator_text_is_a_value_error(self, call):
        # "p/0" was a ZeroDivisionError from Fraction wherever as_fraction read it
        with pytest.raises(ValueError, match="^zero denominator: '3/0'$"):
            call()


# denominators that are distinct primes (coprime pairs: the g == 1 branch of
# the tree's addition) or products of small primes (shared factors)
_PRIMES = (2, 3, 5, 7, 11, 13, 101, 997)
rational_pairs_st = st.lists(st.tuples(
    st.one_of(st.just(0), st.integers(-10**6, 10**6)),
    st.one_of(st.sampled_from(_PRIMES),
              st.lists(st.sampled_from(_PRIMES[:4]), min_size=1, max_size=8).map(math.prod)),
), max_size=40)


def assert_reduced(x, cls=ExactReal):
    """x is a ``cls`` in lowest terms with a positive denominator."""
    assert type(x) is cls
    assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


class TestRationalSum:
    """_rational_sum's root pair against the sequential Fraction sum.

    The pair is unreduced; each caller normalises it in one constructor, so
    the reduced form is asserted on every caller's result below.
    """

    @settings(max_examples=300, deadline=None)
    @given(rational_pairs_st)
    def test_matches_fraction_sum(self, pairs):
        num, den = _rational_sum(pairs)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == sum(starmap(Fraction, pairs), Fraction(0))

    @pytest.mark.parametrize("pairs, want", [
        ([], F(0)),
        ([(-4, 6)], F(-2, 3)),
        ([(0, 9)], F(0)),
        ([(1, 2), (1, 3), (1, 6)], F(1)),
        ([(1, 6), (1, 10), (0, 4), (-1, 15), (7, 1)], F(36, 5)),
        ([(1, 2), (-1, 2), (1, 3), (-1, 3), (1, 5), (-1, 5), (5, 7)], F(5, 7)),
    ], ids=["empty", "one", "zero", "three", "five", "seven"])
    def test_small_sums(self, pairs, want):
        got = _rational_sum(pairs)
        assert got[1] > 0 and Fraction(*got) == want

    def test_root_pair_is_not_reduced(self):
        # the one normalisation is the caller's, so the root keeps its common factors
        assert _rational_sum([]) == (0, 1)
        assert _rational_sum([(-4, 6)]) == (-4, 6)
        assert _rational_sum([(1, 2), (1, 2)], 3, 5) == (2, 40)

    # keys share primes, so most nodes of the tree take the g > 1 branch
    @settings(max_examples=300, deadline=None)
    @given(rational_pairs_st, st.sampled_from([1, 3]),
           st.sampled_from([1, 6, 7, 20, 997 * 1000]))
    def test_powers_match_fraction_sum(self, pairs, power, den):
        got = _rational_sum(pairs, power, den)
        want = sum((Fraction(n, k**power) for n, k in pairs), Fraction(0)) / den
        assert type(got[0]) is int and type(got[1]) is int and got[1] > 0
        assert Fraction(*got) == want

    # every caller of the tree sum builds its result once, reduced, from the root pair
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 40), st.integers(1, 5),
           st.fractions(0, 1, max_denominator=10**6))
    def test_every_caller_returns_a_reduced_result(self, r, interior, p, t):
        u, w = random_wide_pw_linear(r, interior), random_pw_linear(r)
        for x in (pow_norm(derivative(u), p), plap_pairing(u, w), plap_pairing(w, u),
                  equilibrium_gap(u, w), monotone_gap_check(u, w), abs_pow_integral(u, p),
                  abs_pow_integral(w, p)):
            assert_reduced(x)
        assert_reduced(u(t), Fraction)
        assert_reduced(w(t), Fraction)
        assert u(t) == reference_evaluate(u.breakpoints, u.values, t)

    def test_callers_on_the_zero_function(self):
        z = PiecewiseLinearFn.zero()
        for x in (pow_norm(derivative(z), 3), plap_pairing(z, z), equilibrium_gap(z, z),
                  monotone_gap_check(z, z), abs_pow_integral(z, 2)):
            assert_reduced(x)
            assert (x.numerator, x.denominator) == (0, 1)
        assert_reduced(z(F(1, 3)), Fraction)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 64), st.integers(1, 5))
    def test_pow_norm_on_unrelated_denominators(self, r, interior, p):
        f = derivative(random_wide_pw_linear(r, interior))
        got = pow_norm(f, p)
        assert got == reference_pow_norm(f, p)
        assert_reduced(got)

    def test_pow_norm_at_1024_breakpoints(self):
        f = derivative(random_wide_pw_linear(random.Random(1024), 1022))
        assert len(f.breakpoints) == 1024
        assert pow_norm(f, 3) == reference_pow_norm(f, 3)

    def test_twelve_digit_prime_denominators(self):
        # every breakpoint and value over its own 12-digit prime: no two keys
        # share a factor, and the numerators grow through the whole tree
        r = random.Random(12)
        q = (839688578999, 342880277617, 269666667863, 652020279893, 970610039137,
             131159736913, 524067183641, 876714243817, 791215432393, 769573471987,
             144274301807, 852105355951)

        def fn(shift):
            bps = sorted(F(r.randrange(1, x), x) for x in q[shift:] + q[:shift])
            vals = [F(r.randrange(-3 * x, 3 * x), x) for x in q[::-1]]
            return PiecewiseLinearFn((F(0), *bps, F(1)), (F(0), *vals, F(0)))

        u, w = fn(0), fn(5)
        pairing, gap = plap_pairing(u, w), monotone_gap_check(u, w)
        assert pairing == reference_sum(u, w, lambda c, d: abs(c) * c * d)
        assert gap == reference_sum(u, w, lambda c, d: (abs(c) * c - abs(d) * d) * (c - d))
        assert_reduced(pairing)
        assert_reduced(gap)
        for p in (1, 3):
            norm, integral = pow_norm(derivative(u), p), abs_pow_integral(w, p)
            assert norm == reference_pow_norm(derivative(u), p)
            assert integral == reference_abs_pow_integral(w, p)
            assert_reduced(norm)
            assert_reduced(integral)
        t = u.breakpoints[7] + F(1, 10**13)
        assert u(t) == reference_evaluate(u.breakpoints, u.values, t)
        assert_reduced(u(t), Fraction)


class TestDerivative:
    def test_zero_function(self):
        d = derivative(PiecewiseLinearFn.zero())
        assert d.interval_values == (F(0),)

    def test_sawtooth_slopes(self):
        d = derivative(sawtooth(4))
        assert d.interval_values == (F(6), F(-3)) * 4 + (F(0),)

    def test_hat_slopes(self):
        d = derivative(scaled_hat(1))
        assert d.interval_values == (F(1), F(-1))


class TestCommonRefinement:
    def test_merges_grids(self):
        f = PiecewiseConstFn((F(0), F(1, 2), F(1)), (F(2), F(3)))
        g = PiecewiseConstFn((F(0), F(1, 3), F(1)), (F(5), F(7)))
        rf, rg = common_refinement(f, g)
        assert rf.breakpoints == rg.breakpoints == (F(0), F(1, 3), F(1, 2), F(1))
        assert rf.interval_values == (F(2), F(2), F(3))
        assert rg.interval_values == (F(5), F(7), F(7))

    def test_idempotent_on_equal_grids(self):
        f = PiecewiseConstFn((F(0), F(1, 4), F(1)), (F(1), F(-1)))
        rf, rg = common_refinement(f, f)
        assert rf == f and rg == f

    def test_sawtooth_against_hat(self):
        du = derivative(sawtooth(2))
        dv = derivative(scaled_hat(1))
        rf, rg = common_refinement(du, dv)
        merged = tuple(sorted(set(du.breakpoints) | set(dv.breakpoints)))
        assert rf.breakpoints == merged
        # refinement preserves the represented function
        for i in range(len(merged) - 1):
            mid = (merged[i] + merged[i + 1]) / 2
            assert rf.value_at(mid) == du.value_at(mid)
            assert rg.value_at(mid) == dv.value_at(mid)


class TestPowNorm:
    @pytest.mark.parametrize("k", [1, 2, 5, 16, 64])
    def test_sawtooth_energy_constant(self, k):
        assert pow_norm(derivative(sawtooth(k)), 3) == 45

    def test_zero(self):
        assert pow_norm(derivative(PiecewiseLinearFn.zero()), 5) == 0

    def test_constant_two(self):
        f = PiecewiseConstFn((F(0), F(1)), (F(2),))
        assert pow_norm(f, 3) == 8

    def test_result_exact(self):
        assert isinstance(pow_norm(derivative(sawtooth(3)), 3), Fraction)


class TestPairing:
    def test_self_pairing_is_pow_norm(self):
        u = sawtooth(5)
        assert plap_pairing(u, u) == pow_norm(derivative(u), 3) == 45

    def test_zero_argument(self):
        z = PiecewiseLinearFn.zero()
        assert plap_pairing(z, sawtooth(3)) == 0
        assert plap_pairing(sawtooth(3), z) == 0

    @pytest.mark.parametrize("alpha", [F(1), F(7, 2), F(16)])
    def test_sawtooth_hat_pairing(self, alpha):
        # closed form: 3 * alpha, cross-checked against the gap identity
        for k in (1, 2, 8):
            p = plap_pairing(sawtooth(k), scaled_hat(alpha))
            assert p == 3 * alpha
            self_p = plap_pairing(sawtooth(k), sawtooth(k))
            assert self_p - p == 45 - 3 * alpha

    @settings(max_examples=60, deadline=None)
    @given(pw_linear_st(), pw_linear_st(), pw_linear_st(), fractions_st, fractions_st)
    def test_linear_in_second_argument(self, u, w1, w2, a, b):
        combo = lin_comb(a, w1, b, w2)
        lhs = plap_pairing(u, combo)
        rhs = a * plap_pairing(u, w1) + b * plap_pairing(u, w2)
        assert isinstance(lhs, Fraction) and lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(pw_linear_st(), pw_linear_st())
    def test_holder_bound(self, u, w):
        lhs = abs(float(plap_pairing(u, w)))
        rhs = float(pow_norm(derivative(u), 3)) ** (2 / 3) * float(
            pow_norm(derivative(w), 3)
        ) ** (1 / 3)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


@st.composite
def pw_pair_st(draw):
    """Two functions whose grids are unrelated, equal, nested or disjoint inside."""
    u = draw(pw_linear_st())
    relation = draw(st.sampled_from(["free", "same", "nested", "disjoint"]))
    if relation == "same":
        return u, u
    if relation == "nested":  # every breakpoint of u is one of w
        return u, lin_comb(draw(fractions_st), u, 1, draw(pw_linear_st()))
    avoid = frozenset(u.breakpoints) if relation == "disjoint" else frozenset()
    return u, draw(pw_linear_st(avoid))


@st.composite
def wide_pair_st(draw):
    """Two functions drawn like random-exact's, equal or nested; TestIntegerGrid pairs
    unrelated ones."""
    u = draw(pw_linear_wide_st())
    if draw(st.booleans()):
        return u, u
    return u, lin_comb(draw(fractions_st), u, 1, draw(pw_linear_wide_st()))


# zero, negative and rational coefficients for lin_comb
coefficients_st = st.one_of(st.just(0), st.integers(-5, -1), fractions_st)

_U = PiecewiseLinearFn((F(0), F(1, 4), F(1)), (F(0), F(1), F(0)))
_W = PiecewiseLinearFn((F(0), F(1, 3), F(3, 4), F(1)), (F(0), F(-2), F(1), F(0)))

# one seeded pair at random-exact's largest size: 256 breakpoints each, about
# 510 union cells with nearly one key each, so every level of the tree sum runs
_WIDE_U, _WIDE_W = (random_wide_pw_linear(random.Random(seed), 254) for seed in (2718, 2719))


# each pairing and its integrand term(u', w'), for the reference sum
PAIRING_TERMS = {
    plap_pairing: lambda c, d: abs(c) * c * d,
    equilibrium_gap: lambda c, d: abs(c) * c * (c - d),
    monotone_gap_check: lambda c, d: (abs(c) * c - abs(d) * d) * (c - d),
}


def check_union_grid(u, w):
    """common_refinement and every exact pairing against the sorted-set refinement in conftest."""
    for u, w in ((u, w), (w, u)):
        du, dw = derivative(u), derivative(w)
        refined = common_refinement(du, dw)
        assert refined == reference_refinement(du, dw)
        for f in refined:
            assert_grid_form(f)
        for fn, term in PAIRING_TERMS.items():
            got = fn(u, w)
            assert isinstance(got, Fraction) and got == reference_sum(u, w, term), fn.__name__
        diff = lin_comb(1, u, -1, w)
        assert_grid_form(diff)
        assert equilibrium_gap(u, w) == plap_pairing(u, diff)


class TestUnionGridWalk:
    """Every exact pairing against the sorted-set refinement in conftest."""

    @settings(max_examples=100, deadline=None)
    @given(pw_pair_st())
    def test_matches_reference(self, pair):
        check_union_grid(*pair)

    @settings(max_examples=50, deadline=None)
    @given(wide_pair_st())
    def test_matches_reference_wide(self, pair):
        check_union_grid(*pair)

    @pytest.mark.parametrize(
        "u, w",
        [(_U, _U), (_U, _W), (_U, lin_comb(2, _U, 1, _W)),
         (_WIDE_U, _WIDE_U), (_WIDE_U, _WIDE_W), (_WIDE_U, lin_comb(2, _WIDE_U, 1, _WIDE_W))],
        ids=["same", "disjoint", "nested", "wide-same", "wide-free", "wide-nested"],
    )
    def test_grid_relations(self, u, w):
        check_union_grid(u, w)


class TestLinComb:
    def test_cancellation(self):
        u = sawtooth(3)
        z = lin_comb(1, u, -1, u)
        assert all(v == 0 for v in z.values)
        assert_grid_form(z)

    def test_scaling(self):
        u = sawtooth(2)
        d = lin_comb(2, u, 0, PiecewiseLinearFn.zero())
        assert d.values[:-1] == tuple(2 * v for v in u.values[: len(u.values) - 1])

    def test_merged_evaluation(self):
        u, v = sawtooth(2), scaled_hat(1)
        diff = lin_comb(1, u, -1, v)
        for t in (F(1, 8), F(1, 3), F(1, 2), F(3, 4)):
            assert diff(t) == u(t) - v(t)

    def test_inexact_coefficient_rejected(self):
        u = sawtooth(2)
        for bad in (0.5, np.float64(0.5)):
            with pytest.raises(TypeError):
                lin_comb(bad, u, 1, u)
            with pytest.raises(TypeError):
                lin_comb(1, u, bad, u)
        # an ExactReal is a Fraction: an exact rational, whatever it was built from
        half = lin_comb(F(1, 2), u, 1, u)
        for exact in (ExactReal(0.5), ExactReal(F(1, 2))):
            assert lin_comb(exact, u, 1, u) == half == lin_comb(1, u, exact, u)

    @settings(max_examples=100, deadline=None)
    @given(pw_pair_st(), coefficients_st, coefficients_st)
    @example((_U, _W), 0, F(2, 3))
    @example((_U, _W), F(-5, 7), 0)
    @example((_W, _W), 1, -1)
    def test_matches_reference(self, pair, a, b):
        u, w = pair
        for u, w in ((u, w), (w, u)):
            got = lin_comb(a, u, b, w)
            assert got == reference_lin_comb(a, u, b, w)
            assert_grid_form(got)
        assert_grid_form(lin_comb(1, u, -1, u))


class TestTestIntegral:
    def test_constant_test_function_gives_zero(self):
        # fundamental theorem: boundary values vanish
        for k in (1, 4, 9):
            d = derivative(sawtooth(k))
            assert integral_against(d, Monomial(0)) == 0

    def test_constant_times_t(self):
        f = PiecewiseConstFn((F(0), F(1)), (F(3),))
        assert integral_against(f, Monomial(1)) == F(3, 2)

    def test_sawtooth_linear_decay(self):
        # exact closed form: integral of u_k' * t is -1/(4k)
        for k in (1, 4, 32):
            val = integral_against(derivative(sawtooth(k)), Monomial(1))
            assert val == F(-1, 4 * k)

    def test_indicator_right_half_zero(self):
        for k in (1, 3, 8):
            d = derivative(sawtooth(k))
            phi = Indicator(F(1, 2), F(1))
            assert integral_against(d, phi) == 0

    def test_indicator_equals_value_difference(self, rng):
        # FTC oracle: integral of u' over (a,b) equals u(b) - u(a)
        for _ in range(50):
            u = random_pw_linear(rng)
            a = F(rng.randint(0, 31), 64)
            b = a + F(rng.randint(1, 64 - 64 * a.numerator // a.denominator), 64)
            b = min(b, F(1))
            got = integral_against(derivative(u), Indicator(a, b))
            assert got == u(b) - u(a)

    def test_degree_cap(self):
        # an int in 0..8 only: -1 once gave the constant 1 and True gave t
        for degree in (-1, 9, True, 2.0):
            with pytest.raises(ValueError, match="degree"):
                Monomial(degree)

    @pytest.mark.parametrize(
        "build, problem",
        [
            # an indicator with a degree was once accepted, equal to no indicator
            # built without one and hashed apart; each type now takes its own
            # fields only, so the call itself fails
            (lambda: Indicator(0, F(1, 2), degree=5), "degree"),
            (lambda: Indicator(0, F(1, 2), degree=True), "degree"),
            (lambda: Monomial(2, support=("x",)), "support"),
            (lambda: Monomial(2, support=(0, 1)), "support"),
            (lambda: Indicator(0), "hi"),
            (lambda: Indicator(0, F(1, 4), F(1, 2)), "positional"),
            (lambda: Indicator(support=1), "support"),
            (lambda: Indicator(), "lo"),
        ],
        ids=["indicator-degree", "indicator-bool-degree", "monomial-string-support",
             "monomial-pair-support", "one-end", "three-ends", "int-support", "no-support"],
    )
    def test_field_the_kind_does_not_take_rejected(self, build, problem):
        with pytest.raises(TypeError, match=problem):
            build()

    @pytest.mark.parametrize(
        "lo, hi, bad",
        [(0.5, 1, "0.5"), (None, 1, "None"), (0, True, "True"), ("1/0", 1, "'1/0'")],
        ids=["float-end", "none-end", "bool-end", "zero-denominator-end"],
    )
    def test_inexact_end_rejected(self, lo, hi, bad):
        # a float or None end was once a TypeError from as_fraction
        with pytest.raises(ValueError) as caught:
            Indicator(lo, hi)
        assert str(caught.value) == f"indicator end is not an exact rational: {bad}"

    def test_dyadic_indicator_family(self):
        fam = dyadic_indicators(3)
        assert len(fam) == 8
        assert (fam[0].lo, fam[0].hi) == (F(0), F(1, 8))
        # an int in 1..8 only: True once gave the level-1 family and 2.0 a TypeError
        for level in (0, 9, True, 2.0, "2"):
            with pytest.raises(ValueError, match="level"):
                dyadic_indicators(level)

    def test_polynomial_oracle_against_quadrature(self, rng):
        # independent float oracle: midpoint rule on a fine uniform grid
        u = random_pw_linear(rng)
        d = derivative(u)
        coeffs = [F(1, 2), F(-2), F(0), F(3)]
        # by linearity, one exact integral per monomial
        exact = float(sum(c * integral_against(d, Monomial(deg))
                          for deg, c in enumerate(coeffs)))
        n = 200_000
        mids = (2 * np.arange(n) + 1) / (2 * n)
        # value_at's left-closed rule: the interval whose left end is the last one <= t
        bps = np.array([float(t) for t in d.breakpoints[1:-1]])
        vals = np.array([float(c) for c in d.interval_values])
        d_mid = vals[np.searchsorted(bps, mids, side="right")]
        phi_mid = np.polyval([float(c) for c in reversed(coeffs)], mids)
        approx = float(np.sum(d_mid * phi_mid)) / n
        assert math.isclose(exact, approx, rel_tol=1e-4, abs_tol=1e-4)


wide_fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
unit_points_st = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@st.composite
def pw_const_st(draw):
    """1..64 intervals, denominators up to 1000, values that repeat, vanish or change sign."""
    interior = draw(st.sets(unit_points_st.filter(lambda t: 0 < t < 1), max_size=63))
    bps = (F(0), *sorted(interior), F(1))
    values = st.one_of(st.sampled_from([F(0), F(1), F(-3, 7)]), wide_fractions_st)
    m = len(bps) - 1
    return PiecewiseConstFn(bps, draw(st.lists(values, min_size=m, max_size=m)))


@st.composite
def phi_st(draw, f):
    """A monomial of degree 0..8, or an indicator placed relative to the grid of f."""
    if draw(st.booleans()):
        return Monomial(draw(st.integers(0, MAX_POLY_DEGREE)))
    bps = f.breakpoints
    if draw(st.booleans()):  # both ends inside one interval
        i = draw(st.integers(0, len(bps) - 2))
        a, b = bps[i], bps[i + 1]
        inner = unit_points_st.filter(lambda x: 0 < x < 1)
        x, y = draw(st.lists(inner, min_size=2, max_size=2, unique=True))
        lo, hi = sorted((a + (b - a) * x, a + (b - a) * y))
    else:  # on breakpoints (0 and 1 among them), off them, or anywhere
        point = st.one_of(st.sampled_from(bps), st.sampled_from([F(0), F(1)]), unit_points_st)
        lo, hi = sorted(draw(st.lists(point, min_size=2, max_size=2, unique=True)))
    return Indicator(lo, hi)


class TestCachedIntegerView:
    """test_integral on the cached integer view against the interval walk in conftest."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        f = data.draw(pw_const_st())
        phis = data.draw(st.lists(phi_st(f), min_size=1, max_size=12))
        expected = [reference_test_integral(f, phi) for phi in phis]
        # every phi twice, in shuffled order: answers must not depend on the cache
        order = data.draw(st.permutations(list(range(len(phis))) * 2))
        for i in order:
            got = integral_against(f, phis[i])
            assert isinstance(got, Fraction) and got == expected[i], phis[i].describe()
        fresh = PiecewiseConstFn(f.breakpoints, f.interval_values)
        for i in reversed(order):
            assert integral_against(fresh, phis[i]) == expected[i]

    @settings(max_examples=100, deadline=None)
    @given(pw_const_st(), st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_pow_norm_matches_reference(self, f, powers):
        assert_grid_form(f)
        for p in powers:
            got = pow_norm(f, p)
            assert isinstance(got, Fraction) and got == reference_pow_norm(f, p), p

    def test_cache_leaves_identity_alone(self):
        f = derivative(sawtooth(5))
        g = PiecewiseConstFn(f.breakpoints, f.interval_values)
        before = (f.to_json_dict(), repr(f))
        family = [*map(Monomial, range(MAX_POLY_DEGREE + 1))]
        family += [phi for level in (1, 2, 4) for phi in dyadic_indicators(level)]
        for phi in family:
            integral_against(f, phi)
        assert "_integer_view" in vars(f) and "_integer_view" not in vars(g)
        assert f == g and hash(f) == hash(g)
        assert (f.to_json_dict(), repr(f)) == before
        assert f.to_json_dict() == g.to_json_dict()
        # the sweep leaves f's view as g's, built fresh: all six entries,
        # (d, e, n, p, primitive, jump), compared whole
        view, fresh = f._integer_view, g._integer_view
        assert type(view) is tuple and len(view) == 6
        assert view == fresh


# an indicator end as an int, a Fraction or a "p/q" string, unreduced ones
# included, with 0, 1, negatives and values above 1 among them
indicator_end_st = st.one_of(
    st.sampled_from([0, 1, F(0), F(1), "0/3", "2/2", "-1/3", "4/3", -1, 2]),
    st.integers(-2, 3),
    st.fractions(min_value=-1, max_value=2, max_denominator=40),
    unit_points_st,
    st.tuples(st.integers(-40, 80), st.integers(1, 40)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)


class TestIndicatorEnds:
    """An indicator checks and keeps its reduced integer ends where it is built."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ends_are_the_supports_and_survive_copies(self, data):
        lo = data.draw(indicator_end_st, label="lo")
        hi = data.draw(st.one_of(indicator_end_st, st.just(lo)), label="hi")
        a, b = F(lo), F(hi)
        if not 0 <= a < b <= 1:
            with pytest.raises(ValueError) as caught:
                Indicator(lo, hi)
            assert str(caught.value) == "indicator support must be a sub-interval of [0,1]"
            return
        phi = Indicator(lo, hi)
        assert (phi.lo, phi.hi) == (a, b)
        assert type(phi.lo) is type(phi.hi) is F
        assert phi._ends == (a.numerator, a.denominator, b.numerator, b.denominator)
        # the reduced ends are not a field: equality, hash, repr and the field views ignore them
        assert [x.name for x in dataclasses.fields(phi)] == ["lo", "hi"]
        assert dataclasses.asdict(phi) == {"lo": a, "hi": b}
        assert "_ends" not in repr(phi) and phi.describe() == f"indicator({a},{b})"
        f = data.draw(pw_const_st(), label="f")
        want = reference_test_integral(f, phi)
        assert integral_against(f, phi) == want
        for twin in (dataclasses.replace(phi), copy.copy(phi), pickle.loads(pickle.dumps(phi))):
            assert twin == phi and hash(twin) == hash(phi) and twin._ends == phi._ends
            assert integral_against(f, twin) == want


eighths_st = st.integers(-64, 64).map(lambda j: F(j, 8))


@st.composite
def linear_input_st(draw):
    """Breakpoints and nodal values of a function with 1..64 intervals, on a grid
    with denominators up to 1000, whose slopes have about one denominator per
    cell, or on a uniform dyadic grid with values in eighths, whose slopes
    share a few; each nodal value repeats its left neighbour, negates it, is
    zero or is free, so cells with equal ends, zeros at breakpoints and sign
    changes inside a cell all occur."""
    if draw(st.booleans()):
        interior = sorted(draw(st.sets(unit_points_st.filter(lambda t: 0 < t < 1), max_size=63)))
        free = wide_fractions_st
    else:
        level = draw(st.integers(0, 6))
        interior = [F(j, 2**level) for j in range(1, 2**level)]
        free = eighths_st
    vals = [F(0)]
    for _ in interior:
        rule = draw(st.sampled_from(["repeat", "negate", "zero", "free"]))
        if rule == "repeat":
            vals.append(vals[-1])
        elif rule == "negate":
            vals.append(-vals[-1])
        elif rule == "zero":
            vals.append(F(0))
        else:
            vals.append(draw(free))
    return (F(0), *interior, F(1)), (*vals, F(0))


def pw_linear_wide_st():
    return linear_input_st().map(lambda bv: PiecewiseLinearFn(*bv))


class TestIntegerGrid:
    """derivative, the pairings and lin_comb on wide and dyadic grids against the references."""

    @settings(max_examples=100, deadline=None)
    @given(pw_linear_wide_st(), pw_linear_wide_st(), coefficients_st, coefficients_st)
    def test_matches_reference(self, u, w, a, b):
        for f in (u, w):
            slopes = reference_slopes(f)
            assert derivative(f) == PiecewiseConstFn(f.breakpoints, slopes)
            # each slope a reduced pair with a positive denominator
            _, _, p, q = f._grid
            assert list(zip(p, q)) == [(c.numerator, c.denominator) for c in slopes]
        check_union_grid(u, w)
        for u, w in ((u, w), (w, u)):
            got = lin_comb(a, u, b, w)
            assert got == reference_lin_comb(a, u, b, w)
            assert_grid_form(got)
        assert_grid_form(lin_comb(1, u, -1, u))


def reference_nodes(d, n, p, q):
    """Breakpoints n_i/D and nodal values (slope times width, summed) of any linear grid."""
    bps = tuple(F(x, d) for x in n)
    vals = [F(0)]
    for pi, qi, t0, t1 in zip(p, q, bps, bps[1:]):
        vals.append(vals[-1] + F(pi, qi) * (t1 - t0))
    return bps, tuple(vals)


def raised(build):
    """The message of the ValueError build() raises (it must raise one)."""
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


class TestGridForm:
    """The stored integer grid against the Fraction bodies it replaced (conftest)."""

    @settings(max_examples=100, deadline=None)
    @given(linear_input_st(), st.data())
    def test_fraction_input_matches_reference(self, bv, data):
        bps, vals = bv
        grid = reference_grid(bps, vals)
        u = PiecewiseLinearFn(bps, vals)
        v = PiecewiseLinearFn._from_grid(*grid)
        assert u._grid == grid
        assert_grid_form(u)
        assert u.breakpoints == v.breakpoints == bps and u.values == v.values == vals
        assert u == v and hash(u) == hash(v)
        # the same function from other exact inputs is the same grid
        w = PiecewiseLinearFn([str(t) for t in bps], [str(y) for y in vals])
        assert w == u and hash(w) == hash(u)
        assert u.to_json_dict() == {
            "breakpoints": [[str(t.numerator), str(t.denominator)] for t in bps],
            "values": [[str(y.numerator), str(y.denominator)] for y in vals],
        }
        slopes = tuple(reference_slopes(SimpleNamespace(breakpoints=bps, values=vals)))
        du = derivative(u)
        assert du.breakpoints == bps and du.interval_values == slopes
        g = PiecewiseConstFn(bps, slopes)
        assert du == g and hash(du) == hash(g)
        assert_grid_form(du)
        assert_grid_form(g)
        assert du.to_json_dict() == {
            "breakpoints": [[str(t.numerator), str(t.denominator)] for t in bps],
            "values": [[str(c.numerator), str(c.denominator)] for c in slopes],
        }
        for t in data.draw(st.lists(unit_points_st, min_size=1, max_size=8)) + [F(0), F(1)]:
            assert u(t) == reference_evaluate(bps, vals, t)
            i = min(bisect_right(bps, t) - 1, len(slopes) - 1)
            assert du.value_at(t) == slopes[i]

    @pytest.mark.parametrize("k", range(1, 65))
    def test_sawtooth_matches_reference(self, k):
        bps, vals = reference_sawtooth(k)
        u = sawtooth(k)
        assert u == PiecewiseLinearFn(bps, vals) and u._grid == reference_grid(bps, vals)
        assert u.breakpoints == bps and u.values == vals
        assert_grid_form(u)
        assert_grid_form(derivative(u))

    def test_zero_matches_reference(self):
        z = PiecewiseLinearFn.zero()
        assert z == PiecewiseLinearFn((0, 1), (0, 0)) and z.values == (0, 0)
        assert_grid_form(z)
        assert_grid_form(derivative(z))

    @settings(max_examples=100, deadline=None)
    @given(
        linear_input_st(), st.sampled_from(["unsorted", "start", "end", "value-at-1"]), st.data()
    )
    def test_invalid_grid_same_error(self, bv, kind, data):
        # a malformed grid, as breakpoints and values, to each public constructor
        d, n, p, q = (list(x) if isinstance(x, tuple) else x for x in reference_grid(*bv))
        if kind == "unsorted":
            i = data.draw(st.integers(1, len(n) - 2)) if len(n) > 2 else 0
            n[i], n[i + 1] = n[i + 1], n[i]
        elif kind == "start":
            n[0] = -data.draw(st.integers(1, d))
        elif kind == "end":
            n[-1] += data.draw(st.integers(1, d))
        else:  # a steeper last cell leaves a nonzero value at 1
            p[-1] += q[-1]
        bps, vals = reference_nodes(d, n, p, q)
        message = raised(lambda: PiecewiseLinearFn(bps, vals))
        doc = {"breakpoints": [[str(t.numerator), str(t.denominator)] for t in bps],
               "values": [[str(y.numerator), str(y.denominator)] for y in vals]}
        assert raised(lambda: PiecewiseLinearFn.from_json_dict(doc)) == message
        if kind == "value-at-1":
            assert message == "boundary values must be zero"
        else:
            assert raised(lambda: reference_check_breakpoints(bps)) == message
            slopes = list(map(F, p, q))
            assert raised(lambda: PiecewiseConstFn(bps, slopes)) == message

    @settings(max_examples=50, deadline=None)
    @given(linear_input_st(), st.integers(2, 9), st.data())
    def test_unreduced_slope_rejected(self, bv, factor, data):
        # no function stores an unreduced slope: the public constructors read
        # every input as a reduced rational, whatever form it came in
        bps, vals = bv
        d, n, p, q = (list(x) if isinstance(x, tuple) else x for x in reference_grid(*bv))

        def unreduced(xs):
            return [f"{x.numerator * factor}/{x.denominator * factor}" for x in xs]

        u = PiecewiseLinearFn(unreduced(bps), unreduced(vals))
        assert u._grid == reference_grid(bps, vals)
        assert_grid_form(u)
        f = PiecewiseConstFn(unreduced(bps), unreduced(map(F, p, q)))
        assert f._grid == u._grid
        # one slope scaled unreduced, as nodes: the same function, the canonical grid
        i = data.draw(st.integers(0, len(p) - 1))
        p[i], q[i] = p[i] * factor, q[i] * factor
        assert PiecewiseLinearFn(*reference_nodes(d, n, p, q)) == PiecewiseLinearFn(*bv)

    def test_const_grid_checks(self):
        f = PiecewiseConstFn((F(0), F(1, 3), F(1)), (F(1, 2), F(-3, 4)))
        assert f._grid == (3, (0, 1, 3), (1, -3), (2, 4))
        assert PiecewiseConstFn._from_grid(*f._grid) == f
        assert_grid_form(f)
        # unreduced input, and a sign on the denominator, give the same grid
        assert PiecewiseConstFn((0, "2/6", "3/3"), (F(-2, -4), F(3, -4)))._grid == f._grid
        for bps, vals, words in [
            ((F(0), F(2, 3), F(1, 3), F(1)), (F(1, 2), F(-3, 4), 1), "increasing"),
            ((F(0), F(1, 3), F(1)), (F(1, 2),), "one value per interval"),
            ((F(0), F(1, 3), F(4, 3)), (F(1, 2), F(-3, 4)), "start at 0 and end at 1"),
            ((F(0),), (), "two endpoint"),
        ]:
            assert words in raised(lambda: PiecewiseConstFn(bps, vals))
        # a zero or negative denominator in a string never becomes a rational
        with pytest.raises(ValueError, match="^zero denominator: '1/0'$"):
            PiecewiseConstFn((0, 1), ("1/0",))
        with pytest.raises(ValueError, match="Invalid literal"):
            PiecewiseConstFn((0, 1), ("-1/-2",))

    @settings(max_examples=100, deadline=None)
    @given(linear_input_st(), linear_input_st())
    def test_derivative_shares_the_grid(self, bv, bw):
        u, w = PiecewiseLinearFn(*bv), PiecewiseLinearFn(*bw)
        du, dw = derivative(u), derivative(w)
        for f, df in ((u, du), (w, dw)):
            # the derivative's breakpoints and values are the very tuples of f's grid
            assert all(a is b for a, b in zip(df._grid, f._grid))
            assert_grid_form(df)
        g = PiecewiseConstFn(u.breakpoints, reference_slopes(u))
        assert g == du and hash(g) == hash(du) and g.to_json_dict() == du.to_json_dict()
        assert common_refinement(du, dw) == reference_refinement(du, dw)

    def test_immutable_and_copyable(self):
        u = sawtooth(3)
        with pytest.raises(FrozenInstanceError):
            u._grid = PiecewiseLinearFn.zero()._grid
        for f in (u, derivative(u)):
            assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f


# (breakpoints, nodal values) of functions with the cells the one primitive
# of abs_pow_integral must cover, and that u(t) must cross
EDGE_NODES = {
    "flat nonzero cell": ((F(0), F(1, 4), F(3, 4), F(1)), (F(0), F(2, 3), F(2, 3), F(0))),
    "flat zero cells": ((F(0), F(1, 3), F(1, 2), F(2, 3), F(1)), (F(0), F(0), F(0), F(-5, 2), F(0))),
    "zero node between signs": (
        (F(0), F(1, 5), F(1, 2), F(4, 5), F(1)), (F(0), F(3, 2), F(0), F(-7, 4), F(0))),
    "sign change inside a cell": ((F(0), F(1, 3), F(5, 7), F(1)), (F(0), F(-1, 2), F(9, 4), F(0))),
    "sawtooth(5)": reference_sawtooth(5),
    "scaled_hat(7/3)": ((F(0), F(1, 2), F(1)), (F(0), F(7, 6), F(0))),
}


class TestEdgeCells:
    @pytest.mark.parametrize("name", EDGE_NODES)
    def test_abs_pow_integral_matches_reference(self, name):
        u = PiecewiseLinearFn(*EDGE_NODES[name])
        if name == "sawtooth(5)":
            assert u == sawtooth(5)
        if name == "scaled_hat(7/3)":
            assert u == scaled_hat(F(7, 3))
        for p in range(1, 9):
            got = abs_pow_integral(u, p)
            assert isinstance(got, Fraction) and got == reference_abs_pow_integral(u, p), p

    def test_evaluate_matches_reference(self):
        # u(t) walks the grid to t's cell on every call: each function read at
        # every breakpoint of all of them, the 256-breakpoint pair included
        fns = [(PiecewiseLinearFn(bps, vals), bps, vals) for bps, vals in EDGE_NODES.values()]
        fns += [(u, *reference_nodes(*u._grid)) for u in (_WIDE_U, _WIDE_W)]
        interior = [F(1, 7), F(1, 3), F(1, 2), F(13, 24), F(999, 1000)]
        points = sorted({F(0), F(1), *interior, *(t for _, bps, _ in fns for t in bps)})
        for t in points:
            for u, bps, vals in fns:
                assert u(t) == reference_evaluate(bps, vals, t), t


class TestAbsPowIntegral:
    @settings(max_examples=100, deadline=None)
    @given(pw_linear_wide_st(), st.lists(st.integers(1, 5), min_size=1, max_size=5))
    @example(_WIDE_U, [1, 2, 3, 4, 5])
    @example(_WIDE_W, [1, 2, 3, 4, 5])
    def test_matches_reference(self, u, powers):
        for p in powers:
            got = abs_pow_integral(u, p)
            assert isinstance(got, Fraction) and got == reference_abs_pow_integral(u, p), p

    def test_hat_cubed(self):
        # |min(t,1-t)|^3 integrates to 2 * (1/2)^4 / 4 = 1/32
        assert abs_pow_integral(scaled_hat(1), 3) == F(1, 32)

    def test_sign_change_split(self):
        u = PiecewiseLinearFn(
            (F(0), F(1, 2), F(1)), (F(0), F(-1), F(0))
        )
        assert abs_pow_integral(u, 1) == F(1, 2)

    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_sawtooth_cube_decay(self, k):
        assert abs_pow_integral(sawtooth(k), 3) <= F(1, k**3)

    @pytest.mark.parametrize("p", [0, -1, True, False, 2.5, 3.0, F(3), "3", None])
    def test_power_must_be_a_positive_int(self, p):
        u = sawtooth(2)
        for kernel, f in ((pow_norm, derivative(u)), (abs_pow_integral, u)):
            want = f"^p must be an integer >= 1, got {re.escape(repr(p))}$"
            with pytest.raises(ValueError, match=want):
                kernel(f, p)


def fraction_layout(bps, vals):
    """The JSON layout of a grid, written from its Fraction views."""
    return {"breakpoints": [[str(t.numerator), str(t.denominator)] for t in bps],
            "values": [[str(y.numerator), str(y.denominator)] for y in vals]}


def layout_examples(test):
    """``@example`` for zero(), sawtooth(1..64) and scaled_hat(7/3)."""
    for u in (PiecewiseLinearFn.zero(), *map(sawtooth, range(1, 65)), scaled_hat(F(7, 3))):
        test = example(u)(test)
    return test


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(pw_linear_wide_st())
    @layout_examples
    def test_layout_matches_fraction_views(self, u):
        # the integer nodes and grid pairs written as the public views read;
        # -u too, so every nonzero value is written with both signs
        for f in (u, lin_comb(-1, u, 0, u)):
            assert f.to_json_dict() == fraction_layout(f.breakpoints, f.values)
            df = derivative(f)
            assert df.to_json_dict() == fraction_layout(df.breakpoints, df.interval_values)

    def test_round_trip_linear(self, rng):
        for _ in range(25):
            u = random_pw_linear(rng)
            doc = json.loads(json.dumps(u.to_json_dict()))
            assert PiecewiseLinearFn.from_json_dict(doc) == u

    def test_round_trip_const(self):
        d = derivative(sawtooth(6))
        doc = json.loads(json.dumps(d.to_json_dict()))
        assert PiecewiseConstFn.from_json_dict(doc) == d

    def test_canonical_reduced_fractions(self):
        u = PiecewiseLinearFn((F(0), F(2, 4), F(1)), (F(0), F(-3, 6), F(0)))
        doc = u.to_json_dict()
        assert doc["breakpoints"][1] == ["1", "2"]
        assert doc["values"][1] == ["-1", "2"]

    @pytest.mark.parametrize("cls", [PiecewiseLinearFn, PiecewiseConstFn])
    def test_malformed_documents_rejected(self, cls):
        bps = [[0, 1], ["1", "2"], [1, 1]]
        vals = [[0, 1], ["-1", "3"], [0, 1]][:len(bps) if cls is PiecewiseLinearFn else -1]
        # a valid document, with int and decimal string entries, loads as before
        doc = {"breakpoints": bps, "values": vals}
        f = cls.from_json_dict(doc)
        assert f == cls([F(0), F(1, 2), F(1)], [F(*map(int, y)) for y in vals])
        assert cls.from_json_dict(json.loads(json.dumps(f.to_json_dict()))) == f
        bad_entries = [[1.9, 2], [1, 2.0], [True, 2], [1, True], ["1.5", "2"], ["+1", "2"],
                       [" 1", "2"], ["1_0", "20"], ["\u0661", "2"], [None, 2],
                       [1, 0], ["1", "-0"], [1, 2, 3], [1], [], "12", {"1": 0, "2": 0}, 1]
        for entry in bad_entries:
            for key, entries in doc.items():
                with pytest.raises(ValueError):
                    cls.from_json_dict({**doc, key: [*entries[:-2], entry, entries[-1]]})
        for bad in [{"values": vals}, {"breakpoints": bps}, {}, [bps, vals],
                    {"breakpoints": 1, "values": vals}, {"breakpoints": bps, "values": "01"}]:
            with pytest.raises(ValueError):
                cls.from_json_dict(bad)


class TestPointLookup:
    """u(t) and f.value_at(t) find t's cell one way: exact t in [0, 1],
    left-closed cells, and t = 1 in the last cell."""

    def test_both_classes_read_points_alike(self):
        u = sawtooth(3)  # up with slope 6 on [0, 1/18), down with slope -3 to 1/6
        du = derivative(u)
        for read in (u, du.value_at):
            for bad in (F(-1, 7), F(8, 7), 2, "3/2"):
                with pytest.raises(ValueError, match="outside"):
                    read(bad)
            with pytest.raises(TypeError):
                read(0.5)
        assert (u(0), u(F(1, 36)), u(F(1, 18)), u("1/6"), u(1)) == (0, F(1, 6), F(1, 3), 0, 0)
        assert [du.value_at(t) for t in (0, F(1, 36), F(1, 18), "1/6", F(1, 2), 1)] == [
            6, 6, -3, 6, 0, 0]


class CountingInt(int):
    """An int that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        CountingInt.hashed += 1
        return int.__hash__(self)


class TestGridHash:
    """Equal functions hash and evaluate alike; u(t), JSON and abs_pow_integral never hash."""

    def test_equal_functions_built_two_ways(self):
        bps, vals = reference_sawtooth(4)
        u, v = sawtooth(4), PiecewiseLinearFn(bps, vals)  # from the grid, and from nodes
        assert u is not v and u == v
        assert hash(u) == hash(v) == hash((u._grid,))  # the hash the dataclass generates
        points = [*bps, F(1, 7), F(5, 9), F(999, 1000)]
        assert [u(t) for t in points] == [v(t) for t in points]
        assert [u(t) for t in points] == [reference_evaluate(bps, vals, t) for t in points]

    def test_evaluation_never_hashes_the_grid(self):
        d, n, p, q = sawtooth(5)._grid
        CountingInt.hashed = 0
        u = PiecewiseLinearFn._from_grid(CountingInt(d), n, p, q)
        bps, vals = reference_sawtooth(5)
        for t in bps * 10:
            assert u(t) == reference_evaluate(bps, vals, t)
        assert u.to_json_dict() == fraction_layout(bps, vals)
        assert abs_pow_integral(u, 3) == reference_abs_pow_integral(sawtooth(5), 3)
        assert CountingInt.hashed == 0
        # the public views are kept by function, so reading them hashes the grid
        assert (u.breakpoints, u.values, {u}) == (bps, vals, {sawtooth(5)})
        assert CountingInt.hashed > 0


U, W = sawtooth(2), scaled_hat(1)
DU = derivative(U)


class TestKernelsReadTheirOwnGridClass:
    """Both classes store one grid form, so each kernel checks which class it reads."""

    @pytest.mark.parametrize("call, want", [
        (lambda: derivative(DU), "PiecewiseLinearFn"),
        (lambda: plap_pairing(DU, W), "PiecewiseLinearFn"),
        (lambda: plap_pairing(U, derivative(W)), "PiecewiseLinearFn"),
        (lambda: equilibrium_gap(DU, W), "PiecewiseLinearFn"),
        (lambda: monotone_gap_check(U, derivative(W)), "PiecewiseLinearFn"),
        (lambda: lin_comb(1, DU, 1, W), "PiecewiseLinearFn"),
        (lambda: lin_comb(1, U, 1, derivative(W)), "PiecewiseLinearFn"),
        (lambda: abs_pow_integral(DU, 3), "PiecewiseLinearFn"),
        (lambda: pow_norm(U, 3), "PiecewiseConstFn"),
        (lambda: common_refinement(U, derivative(W)), "PiecewiseConstFn"),
        (lambda: common_refinement(DU, W), "PiecewiseConstFn"),
    ], ids=["derivative", "pairing-first", "pairing-second", "equilibrium-gap",
            "monotone-gap", "lin-comb-first", "lin-comb-second", "abs-pow-integral",
            "pow-norm", "refinement-first", "refinement-second"])
    def test_the_other_class_is_a_type_error(self, call, want):
        # each of these once returned a number or a function: pow_norm(sawtooth(1), 3)
        # read the slopes and gave 45, where the integral of |u|^3 is 1/8
        got = "PiecewiseConstFn" if want == "PiecewiseLinearFn" else "PiecewiseLinearFn"
        with pytest.raises(TypeError, match=f"^expected a {want}, got {got}$"):
            call()


# every integer argument of the library, with its name and its range as the message says
INTEGER_ARGUMENTS = [
    (sawtooth, "index k", ">= 1"),
    (L2SeqVector, "index", ">= 1"),
    (lambda x: pairing_sequence(sawtooth, None, x), "k_max", ">= 8"),
    (lambda x: weak_convergence_evidence(sawtooth, [Monomial(1)], x),
     "k_max", ">= 1"),
    (lambda x: pow_norm(DU, x), "p", ">= 1"),
    (lambda x: abs_pow_integral(U, x), "p", ">= 1"),
    (dyadic_indicators, "dyadic level", f"in 1..{MAX_DYADIC_LEVEL}"),
    (Monomial, "degree", f"in 0..{MAX_POLY_DEGREE}"),
    (GalerkinOperator, "dimension", ">= 1"),
    (assemble_vi, "dimension", ">= 1"),
    (lambda x: assemble_vi(2, max_iter=x), "max_iter", ">= 1"),
]


class TestIntegerArguments:
    """One rule for every integer argument: an int itself, in range, else a ValueError echoing it."""

    @pytest.mark.parametrize("bad", [Three.THREE, True, 3.0, "3", None, -9],
                             ids=["intenum", "bool", "float", "text", "none", "negative"])
    @pytest.mark.parametrize("call, name, bound", INTEGER_ARGUMENTS, ids=[
        f"{i}-{name.replace(' ', '-')}" for i, (_, name, _) in enumerate(INTEGER_ARGUMENTS)])
    def test_rejected_with_the_value_echoed(self, call, name, bound, bad):
        # 3 is in every range but k_max's, so only the type rejects the IntEnum member
        want = f"^{re.escape(name)} must be an integer {re.escape(bound)}, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=want):
            call(bad)

    @pytest.mark.parametrize("call, name, top", [
        (dyadic_indicators, "dyadic level", MAX_DYADIC_LEVEL),
        (Monomial, "degree", MAX_POLY_DEGREE),
    ], ids=["dyadic_indicators-dyadic level-8", "monomial-degree-8"])
    def test_above_the_top_of_a_range(self, call, name, top):
        assert call(top)
        with pytest.raises(ValueError, match=f"^{name} must be an integer in .*, got {top + 1}$"):
            call(top + 1)
