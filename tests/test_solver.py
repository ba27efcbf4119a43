import json
import math
import re
from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viproplab import (
    Ball,
    Box,
    GalerkinOperator,
    SolveResult,
    assemble_vi,
    derivative,
    extragradient_solve,
    load_problem,
    plap_pairing,
    pow_norm,
    residual,
    spg_solve,
)
from viproplab.solver import (
    MAX_N,
    SPG_ARMIJO,
    SPG_FIRST_STEP,
    SPG_MAX_STEP,
    SPG_MEMORY,
    SPG_MIN_STEP,
    _number,
    _norm,
    _vector,
)

import conftest
from conftest import (
    Three,
    reference_apply_exact,
    reference_ball_project,
    reference_box_project,
    reference_extragradient_solve,
    reference_free_solution,
    reference_nodal_function,
    reference_operator,
    reference_spg_solve,
)

F = Fraction


class TestProjection:
    def test_box_identity_inside(self):
        box = Box(-np.ones(3), np.ones(3))
        x = np.array([0.5, -0.2, 0.9])
        assert np.array_equal(box.project(x), x)

    def test_box_clamp(self):
        box = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(box.project(np.array([-0.5, 2.0])), [0.0, 1.0])

    def test_ball_radial_scaling(self):
        ball = Ball(np.zeros(2), 1.0)
        x = np.array([0.0, 2.0])
        assert np.allclose(ball.project(x), [0.0, 1.0])

    def test_ball_inside_unchanged(self):
        ball = Ball(np.ones(2), 2.0)
        x = np.array([1.5, 0.5])
        assert np.array_equal(ball.project(x), x)

    @pytest.mark.parametrize(
        "radius, x, want",
        [
            (1e300, [1e154, 1e154], [1e154, 1e154]),
            (1.0, [1e200, -1e200], [math.sqrt(0.5), -math.sqrt(0.5)]),
            (1e300, [1e300, 1e300], [1e300 * math.sqrt(0.5)] * 2),
        ],
        ids=["inside", "outside-unit", "outside-huge"],
    )
    def test_ball_projection_when_the_square_overflows(self, radius, x, want):
        # d.dot(d) is inf here; scaled by r/inf, every point went to the centre
        with np.errstate(over="ignore"):
            got = Ball(np.zeros(2), radius).project(np.array(x))
        assert np.allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "radius, x, inside",
        [
            (1e300, [1e154, 1e154], True),
            (1.0, [1e200, -1e200], False),
            (1e300, [1e300, 1e300], False),
            (1e308, [1e308, -1e308, 3.0], False),
            (1e300, [-1e160, 2.0, 0.0, 5e-300], True),
        ],
        ids=["inside", "outside-unit", "outside-huge", "outside-near-max", "inside-mixed"],
    )
    def test_norm(self, radius, x, inside):
        # the one norm of Ball.project, residual and both solvers, here on its rescaled branch
        v = np.array(x)
        with np.errstate(over="ignore"):
            assert v.dot(v) == math.inf
            got = _norm(v)
        assert math.isclose(got, math.hypot(*x), rel_tol=1e-15, abs_tol=0)
        assert (got <= radius) is inside
        with np.errstate(over="ignore"):
            projected = Ball(np.zeros(len(x)), radius).project(v)
        assert np.array_equal(projected, v) is inside

    def test_norm_of_an_infinite_entry(self):
        # inf, not the nan that inf / inf would give
        with np.errstate(over="ignore", invalid="ignore"):
            assert _norm(np.array([1.0, -math.inf])) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=1e153, max_value=1e155),
                st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and zeros
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_norm_keeps_the_bits_of_every_finite_norm(self, x):
        v = np.array(x)
        with np.errstate(over="ignore"):
            want = math.sqrt(v.dot(v))
            got = _norm(v)
        if want < math.inf:
            assert got == want
        else:  # rescaled: as exact as math.hypot
            assert math.isclose(got, math.hypot(*x), rel_tol=1e-15, abs_tol=0)

    @pytest.mark.parametrize(
        "x", [[math.nan], [1.0, math.nan], [1e200, math.nan], [math.nan, 1e300, 1e300]],
        ids=["nan", "nan-and-one", "nan-and-huge", "nan-and-overflowing"],
    )
    def test_norm_passes_a_nan_through(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(_norm(np.array(x)))

    def test_invalid_sets_rejected(self):
        with pytest.raises(ValueError):
            Box(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Ball(np.zeros(2), math.nan),
            lambda: Box(np.array([math.nan, 0.0]), np.ones(2)),
            lambda: Box(np.zeros(2), np.array([1.0, math.nan])),
            lambda: Ball(np.array([math.nan, 0.0]), 1.0),
            lambda: Ball(np.array([0.0, -math.inf]), 1.0),
            lambda: GalerkinOperator(2, forcing=[1.0, math.nan]),
            lambda: GalerkinOperator(2, forcing=[math.inf, 1.0]),
        ],
        ids=["nan-radius", "nan-lower", "nan-upper", "nan-center", "inf-center", "nan-forcing",
             "inf-forcing"],
    )
    def test_nan_parameters_rejected(self, make):
        # a NaN compares False both ways, so only "not (lower <= upper)" catches
        # it in a box; a NaN centre or forcing would run a solve to its
        # iteration cap and report residual NaN
        with pytest.raises(ValueError):
            make()

    def test_sets_keep_their_own_copies(self):
        # the caller's arrays may change after construction; the sets and solves may not
        lo, hi, center = -np.ones(2), np.ones(2), np.zeros(2)
        box, ball = Box(lo, hi), Ball(center, 0.5)
        solves = [extragradient_solve(assemble_vi(2, forcing=[1, 1], feasible_set=s)).x
                  for s in (box, ball)]
        lo[0], hi[1], center[0] = 5.0, -3.0, 4.0
        assert np.array_equal(box.lower, [-1, -1]) and np.array_equal(box.upper, [1, 1])
        assert np.array_equal(ball.center, [0, 0])
        assert np.array_equal(box.project(np.zeros(2)), [0, 0])
        for s, x in zip((box, ball), solves):
            again = extragradient_solve(assemble_vi(2, forcing=[1, 1], feasible_set=s)).x
            assert again.tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", ["lower", "upper", "center"])
    def test_set_arrays_are_read_only(self, name):
        feasible = Ball(np.zeros(2), 1.0) if name == "center" else Box(-np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            getattr(feasible, name)[0] = 5.0

    @pytest.mark.parametrize("forcing", [None, [1.0, 2.0], np.ones(2)], ids=["zero", "list", "array"])
    def test_forcing_is_read_only(self, forcing):
        op = GalerkinOperator(2, forcing)
        with pytest.raises(ValueError):
            op.forcing[0] = 5.0
        if forcing is not None:  # a fresh array, not the caller's
            assert op.forcing is not forcing

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: Box(-1.0, 1.0), "lower"),
            (lambda: Box(-np.ones((1, 4)), np.ones((1, 4))), "lower"),
            (lambda: Box([-1.0] * 4, np.ones((1, 4))), "upper"),
            (lambda: Ball(0.0, 1.0), "center"),
            (lambda: Ball(np.zeros((1, 4)), 1.0), "center"),
            (lambda: GalerkinOperator(4, np.ones((1, 4))), "forcing"),
            (lambda: GalerkinOperator(4, {0: 1.0}), "forcing"),
        ],
        ids=["box-scalar", "box-row", "box-row-upper", "ball-scalar", "ball-row", "forcing-row",
             "forcing-dict"],
    )
    def test_a_non_list_vector_fails_where_built(self, make, name):
        # a scalar or a row once built and only failed assemble_vi's shape check
        with pytest.raises(ValueError, match=f"^{name} must be a list, got "):
            make()

    def test_eq_and_hash_do_not_raise(self):
        sets = [Box(-np.ones(2), np.ones(2)), Ball(np.zeros(2), 1.0)]
        for s in sets:
            assert s == s and hash(s) == hash(s)
            assert s != Box(-np.ones(2), np.ones(2)) and s != Ball(np.zeros(2), 1.0)
        assert len(set(sets)) == 2


class TestOperator:
    @pytest.mark.parametrize(
        "forcing, want",
        [
            ([1, "2.5", F(1, 3), "-1/2"], [1.0, 2.5, 1 / 3, -0.5]),
            ((0.5, -0.0, 7, 5e-324), [0.5, -0.0, 7.0, 5e-324]),
            (np.arange(4), [0.0, 1.0, 2.0, 3.0]),
        ],
        ids=["mixed", "tuple", "array"],
    )
    def test_forcing_entries_are_their_floats(self, forcing, want):
        # booleans, which float() read as 1.0 and 0.0, are no longer entries
        op = GalerkinOperator(4, forcing)
        assert op.forcing.dtype == float
        assert op.forcing.tobytes() == np.array(want).tobytes()

    def test_n1_closed_form(self):
        # single hat of height c has slopes +-2c: pairing value 8|c|c
        op = GalerkinOperator(1)
        for c in (-1.5, -0.3, 0.0, 0.7, 2.0):
            assert op(np.array([c]))[0] == pytest.approx(8 * abs(c) * c)

    @pytest.mark.parametrize("x", [[1.0], 1.0, [1.0, 2.0], [[1.0, 2.0, 3.0]]])
    def test_wrong_length_rejected(self, x):
        with pytest.raises((ValueError, TypeError)):
            GalerkinOperator(3)(np.array(x))

    def test_zero_maps_to_minus_forcing(self):
        op = GalerkinOperator(4, forcing=[1.0, 2.0, 3.0, 4.0])
        assert np.allclose(op(np.zeros(4)), [-1.0, -2.0, -3.0, -4.0])

    def test_matches_exact_galerkin_assembly(self, rng):
        for n in (1, 3, 5):
            op = GalerkinOperator(n)
            x = [F(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(n)]
            exact = reference_apply_exact(op, x)
            fast = op(np.array([float(v) for v in x]))
            for a, b in zip(exact, fast):
                assert math.isclose(float(a), b, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7, 15])
    def test_one_operator_in_both_halves(self, rng, n):
        # the solver's G and the exact calculus's F are one operator: for the
        # grid functions u_x, u_y lifted from dyadic x and y,
        # Σ_j (G(x) + f)_j y_j = <F(u_x), u_y> = plap_pairing(u_x, u_y), in Fractions
        f = [F(rng.randint(-40, 40), 8) for _ in range(n)]
        op = GalerkinOperator(n, forcing=[float(v) for v in f])
        for _ in range(5):
            x = [F(rng.randint(-64, 64), 64) for _ in range(n)]
            y = [F(rng.randint(-64, 64), 2 ** rng.randint(0, 8)) for _ in range(n)]
            assembled = reference_apply_exact(op, x)
            pairing = plap_pairing(reference_nodal_function(n, x), reference_nodal_function(n, y))
            assert sum(g * v for g, v in zip(assembled, y)) == pairing
            # with h = 1/(n+1) a power of two, the float operator is exact here too
            fast = op(np.array([float(v) for v in x]))
            assert [F(g) + v for g, v in zip(fast, f)] == assembled

    def test_coercivity_identity(self, rng):
        # <G(x), x> equals the derivative cubed-norm minus <f, x>
        n = 6
        f = [rng.uniform(-2, 2) for _ in range(n)]
        op = GalerkinOperator(n, forcing=f)
        x = [F(rng.randint(-8, 8), 4) for _ in range(n)]
        xf = np.array([float(v) for v in x])
        u = reference_nodal_function(n, x)
        lhs = float(np.dot(op(xf), xf))
        rhs = float(pow_norm(derivative(u), 3)) - float(np.dot(f, xf))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_discrete_monotonicity(self, rng):
        n = 8
        op = GalerkinOperator(n)
        for _ in range(100):
            x = np.array([rng.uniform(-1, 1) for _ in range(n)])
            z = np.array([rng.uniform(-1, 1) for _ in range(n)])
            assert np.dot(op(x) - op(z), x - z) >= -1e-12

    def test_continuity_modulus_bounded(self, rng):
        # local Lipschitz estimate on random segments in the unit box
        n = 8
        op = GalerkinOperator(n)
        bound = 32.0 * (n + 1) ** 2
        for _ in range(50):
            x = np.array([rng.uniform(-1, 1) for _ in range(n)])
            d = np.array([rng.uniform(-1, 1) for _ in range(n)])
            z = np.clip(x + 1e-4 * d, -1, 1)
            dist = np.linalg.norm(x - z)
            if dist > 0:
                assert np.linalg.norm(op(x) - op(z)) <= bound * dist


class TestExtragradient:
    def test_unforced_returns_zero_exactly(self):
        vi = assemble_vi(6)
        res = extragradient_solve(vi)
        assert res.converged
        assert np.array_equal(res.x, np.zeros(6))
        assert res.residual == 0.0

    def test_n1_boundary_solution_f8(self):
        vi = assemble_vi(1, forcing=[8.0])
        res = extragradient_solve(vi)
        assert res.converged
        assert abs(res.x[0] - 1.0) <= 1e-6

    def test_n1_clamped_solution_f16(self):
        # unconstrained root sqrt(2) lies outside the box: solution clamps to 1
        vi = assemble_vi(1, forcing=[16.0])
        res = extragradient_solve(vi)
        assert res.converged
        assert abs(res.x[0] - 1.0) <= 1e-6
        # brute-force VI condition over a grid of competitors
        g = vi.operator(res.x)
        for y in np.arange(-1.0, 1.0001, 1e-4):
            assert g[0] * (y - res.x[0]) >= -1e-5

    def test_n32_box_converges(self):
        n = 32
        vi = assemble_vi(n, forcing=[5.0] * n)
        res = extragradient_solve(vi)
        assert res.converged and res.residual <= 1e-8

    def test_n32_ball_converges(self):
        n = 32
        vi = assemble_vi(n, forcing=[5.0] * n, feasible_set=Ball(np.zeros(n), 1.0))
        res = extragradient_solve(vi)
        assert res.converged and res.residual <= 1e-8

    def test_converged_implies_residual_below_eps(self):
        vi = assemble_vi(4, forcing=[2.0] * 4)
        res = extragradient_solve(vi)
        assert res.converged
        assert res.residual <= vi.eps
        assert residual(vi, res.x) <= vi.eps

    def test_iteration_cap_reported(self):
        vi = assemble_vi(4, forcing=[2.0] * 4, max_iter=2)
        res = extragradient_solve(vi)
        assert not res.converged
        assert res.iterations == 2

    def test_last_iterate_within_eps_is_converged(self):
        # without a cap this problem converges at iteration 611; the iterate
        # the capped loop leaves behind is the same one
        vi = assemble_vi(8, forcing=[2.0] * 8, max_iter=611)
        res = extragradient_solve(vi)
        assert res.iterations == 611
        assert res.residual <= vi.eps
        assert res.converged
        assert not extragradient_solve(assemble_vi(8, forcing=[2.0] * 8, max_iter=610)).converged

    @pytest.mark.parametrize(
        "settings_kw, reason",
        [
            ({"eps": -1.0}, "eps must be >= 0, got -1.0"),
            ({"eps": -1e-300}, "eps must be >= 0, got -1e-300"),
            ({"eps": math.nan}, "not a finite number: nan"),
            ({"max_iter": -3}, "max_iter must be an integer >= 1, got -3"),
            ({"max_iter": 0}, "max_iter must be an integer >= 1, got 0"),
            ({"max_iter": 2.0}, "max_iter must be an integer >= 1, got 2.0"),
            ({"max_iter": True}, "max_iter must be an integer >= 1, got True"),
            ({"max_iter": Three.THREE}, "max_iter must be an integer >= 1, got <Three.THREE: 3>"),
        ],
        ids=["negative-eps", "tiny-negative-eps", "nan-eps", "negative-max-iter",
             "zero-max-iter", "float-max-iter", "boolean-max-iter", "intenum-max-iter"],
    )
    def test_assemble_rejects_bad_settings(self, settings_kw, reason):
        # the whole message, the bad value echoed
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            assemble_vi(2, **settings_kw)

    def test_assemble_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="^dimension must be an integer >= 1, got 0$"):
            assemble_vi(0)

    @pytest.mark.parametrize("n", [-1, 2.0, True, "3", None, pytest.param(Three.THREE, id="intenum")])
    @pytest.mark.parametrize("build", [assemble_vi, GalerkinOperator], ids=["assemble", "operator"])
    def test_dimension_is_checked_before_anything_is_built(self, build, n):
        # -1 once failed in numpy building the default box, 2.0 and True there or
        # in np.zeros, and "3" in a comparison: each now names the dimension
        want = f"^dimension must be an integer >= 1, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=want):
            build(n)

    @pytest.mark.parametrize("bad, message", [
        (True, "not a number: True"),
        (None, "not a number: None"),
        (math.inf, "not a finite number: inf"),
        ("1/0", "zero denominator: '1/0'"),
        ("1e400", "not a finite number: '1e400'"),
    ], ids=["bool", "none", "inf", "zero-denominator", "huge-text"])
    @pytest.mark.parametrize("build", [
        lambda v: assemble_vi(2, eps=v), lambda v: Ball(np.zeros(2), v),
    ], ids=["eps", "radius"])
    def test_eps_and_radius_are_read_as_file_numbers(self, build, bad, message):
        # the rule of a problem file's numbers: True and inf were accepted, None a TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(bad)

    def test_fractions_are_numbers(self):
        assert assemble_vi(2, eps=F(1, 1000)).eps == 0.001
        assert Ball(np.zeros(2), F(1, 2)).radius == 0.5
        assert Box([F(-1, 3)], [F(1, 3)]).upper.tobytes() == np.array([1 / 3]).tobytes()
        with pytest.raises(ValueError, match=r"^not a finite number: Fraction\(10"):
            assemble_vi(2, eps=F(10**400))

    def test_eps_and_radius_text_is_read_exactly(self):
        assert assemble_vi(2, eps="1/1000").eps == _number("1/1000") == 0.001
        assert assemble_vi(2, eps="1e-3").eps == 0.001
        ball = Ball(np.zeros(2), "2")
        assert type(ball.radius) is float and ball.radius == 2.0

    @pytest.mark.parametrize(
        "feasible",
        [
            Box(-np.ones(1), np.ones(1)),
            Box(-np.ones(3), np.ones(3)),
            Ball(np.zeros(1), 1.0),
            Ball(np.zeros(5), 1.0),
        ],
        ids=["box-length-1", "box-length-3", "ball-length-1", "ball-length-5"],
    )
    def test_assemble_rejects_a_set_of_another_shape(self, feasible):
        # without the check a length-1 set broadcasts and "converges" to another
        # problem's answer, and a length-3 one fails inside numpy mid-solve
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            assemble_vi(4, forcing=[1.0] * 4, feasible_set=feasible)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, True, None, "1/0", "-1/2"])
    def test_step_must_be_positive_and_finite(self, step):
        # halving an infinite step leaves it infinite, so backtracking would never
        # end, and a NaN step would run on NaN iterates; True once ran as 1.0
        with pytest.raises(ValueError, match="step must be positive and finite"):
            extragradient_solve(assemble_vi(8, forcing=[2.0] * 8), step=step)

    def test_assemble_accepts_the_edge_settings(self):
        res = extragradient_solve(assemble_vi(2, forcing=[1.0, 1.0], eps=0, max_iter=1))
        assert (res.iterations, res.converged) == (1, False)

    def test_perturbation_closedness(self):
        # solutions of perturbed problems accumulate at a solution of the
        # unperturbed one (solution set is closed under such limits)
        base = assemble_vi(1, forcing=[8.0])
        limit_iterate = None
        for m in range(1, 11):
            perturbed = assemble_vi(1, forcing=[8.0 + 2.0**-m])
            limit_iterate = extragradient_solve(perturbed).x
        assert residual(base, limit_iterate) <= 1e-6


# floats with the signed zeros drawn often
coords_st = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10))


@st.composite
def operator_input_st(draw):
    n = draw(st.integers(1, 64))
    x = draw(st.lists(st.one_of(coords_st, st.floats()), min_size=n, max_size=n))
    x[0], x[-1] = draw(coords_st), draw(coords_st)
    forcing = draw(st.one_of(st.none(), st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    return n, x, forcing


@st.composite
def box_point_st(draw):
    n = draw(st.integers(1, 16))
    bounds = [sorted(draw(st.lists(coords_st, min_size=2, max_size=2))) for _ in range(n)]
    lower, upper = (np.array(b) for b in zip(*bounds))
    x = np.array([
        draw(st.one_of(st.sampled_from([lo, hi, math.nan]), coords_st))
        for lo, hi in bounds
    ])
    return Box(lower, upper), x


@st.composite
def ball_point_st(draw):
    n = draw(st.integers(1, 16))
    center = np.array(draw(st.lists(coords_st, min_size=n, max_size=n)))
    radius = draw(st.sampled_from([0.5, 1.0, 3.0]))
    where = draw(st.sampled_from(["free", "center", "axis", "nan"]))
    if where == "free":
        x = np.array(draw(st.lists(coords_st, min_size=n, max_size=n)))
    else:
        x = center.copy()
        if where == "axis":  # on the sphere, along a coordinate axis
            x[draw(st.integers(0, n - 1))] += draw(st.sampled_from([radius, -radius]))
        elif where == "nan":
            x[0] = math.nan
    return Ball(center, radius), x


@st.composite
def solve_input_st(draw):
    n = draw(st.integers(1, 8))
    forcing = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        feasible = Box(-np.ones(n), np.ones(n))
    else:
        feasible = Ball(np.zeros(n), draw(st.sampled_from([0.5, 1.0, 2.0])))
    vi = assemble_vi(
        n, forcing=forcing, feasible_set=feasible,
        eps=draw(st.sampled_from([1e-8, 1e-3])),
        max_iter=draw(st.integers(1, 60)),
    )
    # steps far above 1/L force backtracks
    return vi, draw(st.sampled_from([0.01, 0.1, 1.0, 10.0, 1000.0]))


class TestAgainstReference:
    """The solver kernel computes the reference's floating-point operations, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(operator_input_st())
    def test_operator_bitwise(self, case):
        n, x, forcing = case
        op = GalerkinOperator(n, forcing)
        x = np.array(x)
        with np.errstate(all="ignore"):  # huge and non-finite inputs overflow alike
            got = op(x)
            want = reference_operator(op, x)
            assert got.tobytes() == want.tobytes()
            # a fresh array per call: a later call leaves this result alone
            op(np.ones(n))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(box_point_st(), ball_point_st()))
    def test_projection_bitwise(self, case):
        feasible, x = case
        ref = reference_box_project if isinstance(feasible, Box) else reference_ball_project
        assert feasible.project(x).tobytes() == ref(feasible, x).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(solve_input_st())
    def test_solve_bitwise(self, case):
        vi, step = case
        got = extragradient_solve(vi, step=step)
        ref = reference_extragradient_solve(vi, step=step)
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.residual == ref.residual
        assert got.iterations == ref.iterations
        assert got.converged == (ref.converged or ref.residual <= vi.eps)

    @settings(max_examples=150, deadline=None)
    @given(solve_input_st())
    def test_spg_bitwise(self, case):
        vi, _ = case
        assert_same_solve(spg_solve(vi), reference_spg_solve(vi))


class TestFreshResults:
    """The in-place kernel writes only its own scratch: inputs keep their bytes,
    and every result is a fresh array."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(box_point_st(), ball_point_st()))
    def test_projection_leaves_input_alone(self, case):
        feasible, x = case
        vectors = [v for v in vars(feasible).values() if isinstance(v, np.ndarray)]
        before = [v.tobytes() for v in (x, *vectors)]
        with np.errstate(invalid="ignore"):
            p = feasible.project(x)
        assert [v.tobytes() for v in (x, *vectors)] == before
        assert not any(np.shares_memory(p, v) for v in (x, *vectors))

    @settings(max_examples=60, deadline=None)
    @given(solve_input_st())
    def test_solution_outlives_later_calls(self, case):
        vi, step = case
        x = extragradient_solve(vi, step=step).x
        before = x.tobytes()
        vi.operator(np.full(vi.n, 0.5))
        vi.feasible_set.project(np.full(vi.n, 3.0))
        again = extragradient_solve(vi, step=step).x
        assert x.tobytes() == before and again.tobytes() == before
        assert not np.shares_memory(again, x)

    @settings(max_examples=60, deadline=None)
    @given(solve_input_st())
    def test_iterates_are_never_overwritten(self, case):
        # every point the solver evaluates the operator at keeps its bytes to
        # the end of the solve, since the best iterate may be any of them
        vi, step = case
        seen = []
        real = GalerkinOperator.__call__

        def recording(op, x):
            seen.append((x, x.tobytes()))
            return real(op, x)

        with mock.patch.object(GalerkinOperator, "__call__", recording):
            extragradient_solve(vi, step=step)
        assert all(x.tobytes() == b for x, b in seen)


def counted_solve(solve, vi, step):
    """(result, operator calls, projections) of one solve, fast or reference."""
    calls = Counter()

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    hooks = [
        ("operator", GalerkinOperator, "__call__"),
        ("operator", conftest, "reference_operator"),
        ("project", Box, "project"),
        ("project", Ball, "project"),
        ("project", conftest, "reference_box_project"),
        ("project", conftest, "reference_ball_project"),
    ]
    with ExitStack() as stack:
        for key, owner, name in hooks:
            stack.enter_context(mock.patch.object(owner, name, counting(key, getattr(owner, name))))
        result = solve(vi, step=step)
    return result, calls["operator"], calls["project"]


BUDGET_CASES = {
    "solution-at-start": (assemble_vi(3), 0.1),
    "box-converges": (assemble_vi(8, forcing=[2.0] * 8), 0.1),
    "ball-converges": (
        assemble_vi(6, forcing=[3, -1, 4, -1, 5, -9], feasible_set=Ball(np.zeros(6), 0.5)), 0.1),
    "cap-reached": (assemble_vi(4, forcing=[2.0] * 4, max_iter=2), 0.1),
    "backtracks-to-cap": (assemble_vi(5, forcing=[4.0] * 5, max_iter=40), 1000.0),
}


class TestCallBudget:
    """Each iterate is judged once, in the loop.

    The reference judges the start before its loop and again as iterate 0,
    so the solver makes exactly one operator call and one projection fewer
    per solve, on the same iterates.
    """

    @pytest.mark.parametrize("vi, step", BUDGET_CASES.values(), ids=BUDGET_CASES.keys())
    def test_one_call_fewer_than_reference(self, vi, step):
        got, ops, projections = counted_solve(extragradient_solve, vi, step)
        ref, ref_ops, ref_projections = counted_solve(reference_extragradient_solve, vi, step)
        assert (ops, projections) == (ref_ops - 1, ref_projections - 1)
        assert got.x.tobytes() == ref.x.tobytes()
        assert (got.residual, got.iterations, got.converged) == (
            ref.residual, ref.iterations, ref.converged)

    @settings(max_examples=60, deadline=None)
    @given(solve_input_st())
    def test_one_call_fewer_on_random_problems(self, case):
        vi, step = case
        got, ops, projections = counted_solve(extragradient_solve, vi, step)
        ref, ref_ops, ref_projections = counted_solve(reference_extragradient_solve, vi, step)
        assert (ops, projections) == (ref_ops - 1, ref_projections - 1)
        assert got.x.tobytes() == ref.x.tobytes()


def assert_same_solve(got, ref):
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.residual == ref.residual
    assert (got.iterations, got.converged) == (ref.iterations, ref.converged)


def pinned_problem(kind, n):
    """The problems `solve`'s stdout digests pin: forcing 1 + j mod 5 on [-1, 1]^n or the unit ball."""
    feasible = Box(-np.ones(n), np.ones(n)) if kind == "box" else Ball(np.zeros(n), 1.0)
    return assemble_vi(n, forcing=[1 + j % 5 for j in range(n)], feasible_set=feasible)


def traced_spg(vi, solve=spg_solve):
    """(result, trial points, accepted points, slope passes) of one solve, spg_solve by default.

    Each trial point, the start included, is a list [x, x.tobytes(), G(x),
    E(x)] filled by the operator call at x and by an _energy read at x
    before the next call (None without one). A point is accepted when the
    first projection after its call is the one that judges it, of x - G(x);
    a rejected point is followed by the call at the next trial point instead.
    """
    points, accepted, passes, pending = [], [], 0, None
    call, slopes = GalerkinOperator.__call__, GalerkinOperator._slopes
    energy = GalerkinOperator._energy
    project = type(vi.feasible_set).project

    def recording_call(op, x):
        nonlocal pending
        g = call(op, x)
        pending = [x, x.tobytes(), g, None]
        points.append(pending)
        return g

    def recording_energy(op, x):
        e = energy(op, x)
        if pending is not None and x is pending[0]:
            pending[3] = e
        return e

    def counting_slopes(op, x):
        nonlocal passes
        passes += 1
        slopes(op, x)

    def recording_project(feasible, z):
        nonlocal pending
        if pending is not None:
            x, _, g, _ = pending
            assert z.tobytes() == (x - g).tobytes()
            accepted.append(pending)
            pending = None
        return project(feasible, z)

    with mock.patch.object(GalerkinOperator, "__call__", recording_call), \
            mock.patch.object(GalerkinOperator, "_energy", recording_energy), \
            mock.patch.object(GalerkinOperator, "_slopes", counting_slopes), \
            mock.patch.object(type(vi.feasible_set), "project", recording_project):
        result = solve(vi)
    return result, points, accepted, passes


class TestEnergy:
    @pytest.mark.parametrize("n", [1, 3, 7, 15])
    def test_matches_exact_energy_at_dyadic_points(self, rng, n):
        # E(x) = (1/3) int |u_x'|^3 - f.x, with the integral from the exact
        # piecewise calculus; dyadic x and h = 1/(n+1) are exact floats
        f = [F(rng.randint(-40, 40), 8) for _ in range(n)]
        op = GalerkinOperator(n, forcing=[float(v) for v in f])
        for _ in range(5):
            x = [F(rng.randint(-64, 64), 64) for _ in range(n)]
            u = reference_nodal_function(n, x)
            exact = pow_norm(derivative(u), 3) / 3 - sum(a * b for a, b in zip(f, x))
            got = op.energy(np.array([float(v) for v in x]))
            assert math.isclose(got, float(exact), rel_tol=1e-13, abs_tol=1e-13)

    def test_directional_derivative_is_the_operator(self, rng):
        n = 12
        op = GalerkinOperator(n, forcing=[rng.uniform(-3, 3) for _ in range(n)])
        for _ in range(20):
            x = np.array([rng.uniform(-1, 1) for _ in range(n)])
            v = np.array([rng.uniform(-1, 1) for _ in range(n)])
            delta = 1e-5
            slope = (op.energy(x + delta * v) - op.energy(x - delta * v)) / (2 * delta)
            assert slope == pytest.approx(op(x).dot(v), rel=1e-6, abs=1e-8)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GalerkinOperator(3).energy(np.ones(1))


class TestSpg:
    @pytest.mark.parametrize("kind, n", [("box", 32), ("ball", 64), ("box", 64), ("ball", 256)])
    def test_agrees_with_extragradient_on_the_pinned_problems(self, kind, n):
        vi = pinned_problem(kind, n)
        got, ref = spg_solve(vi), extragradient_solve(vi)
        assert got.converged and ref.converged
        assert np.abs(got.x - ref.x).max() <= 1e-7
        assert got.iterations * 5 < ref.iterations

    @pytest.mark.parametrize("kind, n", [("box", 32), ("ball", 64), ("box", 64), ("ball", 256),
                                         ("box", 1024)])
    def test_matches_the_reference_bit_for_bit(self, kind, n):
        # box n = 1024 takes 3,311 iterations
        vi = pinned_problem(kind, n)
        assert_same_solve(spg_solve(vi), reference_spg_solve(vi))

    @pytest.mark.parametrize("n", [512, 1024, 2048, 4096])
    def test_large_balls_converge(self, n):
        # extragradient takes 9,871 iterations at n = 4096, BB1 alone 676
        vi = pinned_problem("ball", n)
        res = spg_solve(vi)
        assert res.converged and res.iterations < 600
        assert residual(vi, res.x) == res.residual <= vi.eps

    @pytest.mark.parametrize("n, cap", [(1024, 4500), (2048, 8000)])
    def test_large_boxes_converge(self, n, cap):
        # BB1 alone takes 6,651 and 16,289 iterations, the alternation 3,311 and 6,047
        vi = pinned_problem("box", n)
        res = spg_solve(vi)
        assert res.converged and res.iterations < cap
        assert residual(vi, res.x) == res.residual <= vi.eps

    @pytest.mark.parametrize("n", [32, 64])
    def test_matches_the_closed_form_on_weak_forcing(self, rng, n):
        # the box [-10, 10]^n does not bind, so the VI's solution solves G(x) = 0
        forcing = [rng.uniform(-0.3, 0.3) for _ in range(n)]
        free = reference_free_solution(forcing)
        assert np.abs(free).max() < 1
        vi = assemble_vi(n, forcing=forcing, feasible_set=Box(np.full(n, -10.0), np.full(n, 10.0)))
        res = spg_solve(vi)
        assert res.converged
        assert np.abs(res.x - free).max() <= 1e-7

    def test_unforced_returns_zero_exactly(self):
        res = spg_solve(assemble_vi(6, eps=0))
        assert (res.converged, res.iterations, res.residual) == (True, 0, 0.0)
        assert np.array_equal(res.x, np.zeros(6))

    @pytest.mark.parametrize("settings_kw", [{"max_iter": 1}, {"eps": 0, "max_iter": 40}],
                             ids=["max-iter-1", "eps-0"])
    def test_cap_reported_not_converged(self, settings_kw):
        vi = assemble_vi(4, forcing=[2.0] * 4, **settings_kw)
        res = spg_solve(vi)
        assert (res.converged, res.iterations) == (False, vi.max_iter)
        assert residual(vi, res.x) == res.residual > vi.eps

    def test_a_stalled_search_ends_not_converged(self):
        # a flat energy never passes the Armijo test: the halvings must end,
        # and the start, whose residual exceeds eps, is what comes back
        vi = assemble_vi(4, forcing=[2.0] * 4)
        with mock.patch.object(GalerkinOperator, "_energy", lambda op, x: 0.0):
            res = spg_solve(vi)
        assert (res.converged, res.iterations) == (False, 0)
        assert np.array_equal(res.x, np.zeros(4)) and res.residual > vi.eps

    def test_one_slope_pass_per_trial_point(self):
        # one operator call per trial point, the start included, and no other
        # slope pass: each energy is read from the slopes of that call
        vi = pinned_problem("box", 32)
        res, points, accepted, passes = traced_spg(vi)
        assert passes == len(points)
        assert all(e == vi.operator.energy(x) for x, _, _, e in points)
        assert len(accepted) == res.iterations + 1
        assert res.iterations <= len(points) - 1 < 2 * res.iterations
        assert res.x is accepted[-1][0] is points[-1][0]

    @pytest.mark.parametrize("kind, n", [("box", 32), ("ball", 64)])
    def test_every_iterate_is_feasible_and_kept(self, kind, n):
        # rejected trial points included: each lies between two iterates
        vi = pinned_problem(kind, n)
        _, points, _, _ = traced_spg(vi)
        for x, before, _, _ in points:
            assert x.tobytes() == before
            if kind == "box":
                assert np.all(np.abs(x) <= 1.0)
            else:
                assert x.dot(x) <= 1.0 + 1e-12

    @pytest.mark.parametrize("kind, n", [("box", 32), ("ball", 64), ("box", 64)])
    def test_every_accepted_energy_passes_the_nonmonotone_armijo_test(self, kind, n):
        # E(x_{k+1}) <= max of the last SPG_MEMORY energies + gamma * g_k.(x_{k+1} - x_k)
        vi = pinned_problem(kind, n)
        _, _, accepted, _ = traced_spg(vi)
        energies = [vi.operator.energy(x) for x, _, _, _ in accepted]
        assert energies == [e for _, _, _, e in accepted]
        for k in range(1, len(accepted)):
            (x, _, g, _), (y, _, _, _) = accepted[k - 1], accepted[k]
            ceiling = max(energies[max(0, k - SPG_MEMORY):k])
            assert energies[k] <= ceiling + SPG_ARMIJO * g.dot(y - x)

    def test_steps_are_clamped(self):
        # n = 1 with forcing f: G(x) = 8|x|x - f, so from x = f the
        # Barzilai-Borwein step is 1/(8f) = 1.25e11, which the clamp cuts to 1e10
        f = 1e-12
        vi = assemble_vi(1, forcing=[f], feasible_set=Box(np.array([-1.0]), np.array([1.0])),
                         eps=1e-30, max_iter=2)
        seen = []
        project = Box.project

        def recording(box, z):
            seen.append(z.copy())
            return project(box, z)

        with mock.patch.object(Box, "project", recording):
            spg_solve(vi)
        # P(0), then the judgement and the step of iterates 0 and 1
        x1 = seen[2]
        assert x1[0] == f
        g1 = vi.operator(x1)
        assert seen[4].tobytes() == (x1 - SPG_MAX_STEP * g1).tobytes()

    def test_steps_alternate_bb1_and_bb2(self):
        # the step from iterate m + 1 is the clamped BB1 = s.s/s.q when m is
        # even and the clamped BB2 = s.q/q.q when m is odd, where s and q are
        # the moves in x and in G from iterate m to m + 1
        vi = pinned_problem("box", 32)
        seen = []
        project = Box.project

        def recording(box, z):
            seen.append(z.copy())
            return project(box, z)

        with mock.patch.object(Box, "project", recording):
            res, _, accepted, _ = traced_spg(vi)
        # P(0), then each iterate's judgement and each but the last one's step
        assert len(seen) == 2 * res.iterations + 2
        steps = seen[2::2]
        x0, _, g0, _ = accepted[0]
        assert steps[0].tobytes() == (x0 - SPG_FIRST_STEP * g0).tobytes()
        for m in range(res.iterations - 1):
            (x, _, g, _), (y, _, gy, _) = accepted[m], accepted[m + 1]
            s, q = y - x, gy - g
            sq = s.dot(q)
            assert sq > 0  # E is strictly convex
            bb1 = min(max(s.dot(s) / sq, SPG_MIN_STEP), SPG_MAX_STEP)
            bb2 = min(max(sq / q.dot(q), SPG_MIN_STEP), SPG_MAX_STEP)
            want, other = (bb1, bb2) if m % 2 == 0 else (bb2, bb1)
            assert steps[m + 1].tobytes() == (y - want * gy).tobytes()
            assert steps[m + 1].tobytes() != (y - other * gy).tobytes()

    def test_the_first_three_iterates_are_those_of_bb1_alone(self):
        # the first Barzilai-Borwein step is BB1, so the rules part at iterate 3
        vi = pinned_problem("box", 32)
        _, _, accepted, _ = traced_spg(vi)
        _, _, bb1, _ = traced_spg(vi, lambda vi: reference_spg_solve(vi, bb2=False))
        assert [p[1] for p in accepted[:3]] == [p[1] for p in bb1[:3]]
        assert accepted[3][1] != bb1[3][1]

    @settings(max_examples=100, deadline=None)
    @given(solve_input_st())
    def test_small_problems_converge(self, case):
        capped, _ = case
        vi = assemble_vi(capped.n, forcing=capped.operator.forcing,
                         feasible_set=capped.feasible_set, eps=capped.eps)
        res = spg_solve(vi)
        assert res.converged
        assert residual(vi, res.x) == res.residual <= vi.eps


class TestResidual:
    def test_positive_away_from_solution(self):
        vi = assemble_vi(3, forcing=[1.0, 1.0, 1.0])
        assert residual(vi, np.zeros(3)) > 0

    # the point is read by the solver's number rule, as a problem file's vectors are
    @pytest.mark.parametrize("x, message", [
        ([True, False], "not a number: True"),
        ([0, None], "not a number: None"),
        ([math.nan, 0], "not a finite number: nan"),
        ([0, -math.inf], "not a finite number: -inf"),
        (np.array([1.0, math.inf]), "not a finite number: inf"),
        (np.zeros((1, 2)), "x must be a list"),
        (0.5, "x must be a list"),
    ])
    def test_point_outside_the_number_rule_is_a_value_error(self, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            residual(assemble_vi(2), x)

    def test_text_entries_are_read_exactly(self):
        vi = assemble_vi(2, forcing=[1, 2])
        want = residual(vi, np.array([0.5, -0.25]))
        assert residual(vi, ["1/2", "-1/4"]) == residual(vi, [Fraction(1, 2), -0.25]) == want
        assert want > 0

    @pytest.mark.parametrize("x", [[0.0], [0, 0, 0], np.zeros(3), ["1/2"]])
    def test_a_wrong_length_still_fails(self, x):
        with pytest.raises(ValueError, match="^x must have length n$"):
            residual(assemble_vi(2), x)

    @pytest.mark.parametrize("solve", [residual, spg_solve, extragradient_solve])
    def test_finite_when_the_square_overflows(self, solve):
        # ||G(0)|| = ||(1e154, 1e154)||, whose square overflows, was inf
        vi = assemble_vi(2, forcing=[1e154, 1e154], feasible_set=Ball(np.zeros(2), 1e300), max_iter=1)
        with np.errstate(over="ignore", invalid="ignore"):
            r = solve(vi, np.zeros(2)) if solve is residual else solve(vi).residual
        assert math.isclose(r, math.hypot(1e154, 1e154), rel_tol=1e-15, abs_tol=0)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_a_non_finite_residual_is_written_as_null(self, r):
        # JSON has no Infinity or NaN; the result itself keeps the float
        result = SolveResult(x=np.zeros(2), residual=r, iterations=0, converged=False)
        assert result.to_json_dict()["residual"] is None and result.residual is r

    def test_matches_grid_violation_search(self, rng):
        # unforced problem: residual zero iff no feasible direction of descent
        vi = assemble_vi(1)
        for _ in range(20):
            x = np.array([rng.uniform(-1, 1)])
            r = residual(vi, x)
            g = vi.operator(x)
            worst = min(g[0] * (y - x[0]) for y in np.arange(-1.0, 1.0001, 1e-4))
            if r <= 1e-12:
                assert worst >= -1e-8
            else:
                assert worst < 0


class TestProblemIO:
    def test_round_trip_box(self, tmp_path):
        doc = {
            "n": 2,
            "forcing": [1.0, "1/2"],
            "set": {"kind": "box", "lower": [-1, -1], "upper": [1, 1]},
            "eps": 1e-9,
            "max_iter": 5000,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        vi = load_problem(str(path))
        assert vi.n == 2
        assert vi.eps == 1e-9
        assert vi.max_iter == 5000
        assert np.allclose(vi.operator.forcing, [1.0, 0.5])
        assert isinstance(vi.feasible_set, Box)

    def test_ball_set(self):
        vi = load_problem(
            {"n": 3, "set": {"kind": "ball", "center": [0, 0, 0], "radius": "3/2"}}
        )
        assert isinstance(vi.feasible_set, Ball)
        assert vi.feasible_set.radius == 1.5

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            load_problem({"n": 2, "set": {"kind": "simplex"}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "set": {"kind": "box", "lower": [-1], "upper": [1]}},
            {"n": 2, "set": {"kind": "box", "lower": [-1] * 3, "upper": [1] * 3}},
            {"n": 2, "set": {"kind": "ball", "center": [0], "radius": 1}},
            {"n": 2, "forcing": [math.inf, 0]},
            {"n": 2, "forcing": ["1e400", 0]},
            {"n": 2, "set": {"kind": "box", "lower": [-math.inf, -1], "upper": [1, 1]}},
            {"n": 2, "set": {"kind": "ball", "center": [0, math.nan], "radius": 1}},
            {"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": math.inf}},
            {"n": 2, "eps": math.nan},
            {"n": math.inf},
            {"n": 2, "max_iter": math.inf},
            {"n": 2, "set": [-1, 1]},
            {"n": 3.5},
            {"n": True},
            {"n": 0},
            {"n": 2, "max_iter": 2.7},
            {"n": 2, "max_iter": -5},
            {"n": 2, "max_iter": 0},
            {"n": 2, "max_iter": False},
            {"n": 2, "eps": -1},
            {"n": 2, "eps": "1/0"},
            {"n": 2, "forcing": ["1/0", 0]},
            {"n": "1/0"},
            {"n": 2, "eps": True},
            {"n": 2, "forcing": "12"},
            {"n": 2, "set": {"kind": "box", "lower": "00", "upper": [1, 1]}},
            {"n": 2, "set": {"kind": "box", "lower": [0, 0], "upper": {"1": 0, "2": 0}}},
            {"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": True}},
            {"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": [1]}},
            {"n": 2, "maxiter": 5},
            {"n": 2, "max_iter": 5, "epsilon": 1e-3},
            {"n": 2, "set": {"kind": "box", "lower": [0, 0], "upper": [1, 1], "radius": 1}},
            {"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": 1, "upper": [1, 1]}},
            [2],
            {"n": 4, "forcing": None},
        ],
        ids=[
            "short-box", "long-box", "short-center", "inf-forcing", "huge-p/q-forcing",
            "inf-bound", "nan-center", "inf-radius", "nan-eps", "inf-n", "inf-max-iter",
            "set-not-object", "fractional-n", "boolean-n", "zero-n", "fractional-max-iter",
            "negative-max-iter", "zero-max-iter", "boolean-max-iter", "negative-eps",
            "zero-denominator-eps", "zero-denominator-forcing", "zero-denominator-n",
            "boolean-eps", "string-forcing", "string-lower", "object-upper", "boolean-radius",
            "list-radius", "unknown-key", "unknown-key-beside-known", "radius-in-box",
            "upper-in-ball", "not-an-object", "null-forcing",
        ],
    )
    def test_malformed_problem_rejected(self, doc):
        with pytest.raises(ValueError):
            load_problem(doc)

    def test_mixed_entries_load_as_their_numbers(self):
        # finite floats skip _number; every other entry goes through it
        values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3, -2, 0, "1/3", "-5/2", "7"]
        want = np.array([_number(v) for v in values]).tobytes()
        vi = load_problem({"n": len(values), "forcing": values,
                           "set": {"kind": "ball", "center": values, "radius": 1}})
        assert vi.operator.forcing.tobytes() == want
        assert vi.feasible_set.center.tobytes() == want
        assert _vector(values, "forcing").tobytes() == want

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "not a finite number: nan"),
        (math.inf, "not a finite number: inf"),
        (-math.inf, "not a finite number: -inf"),
        (10**400, f"not a finite number: {10**400!r}"),
        (True, "not a number: True"),
    ], ids=["nan", "inf", "minus-inf", "10**400", "true"])
    def test_a_bad_entry_among_floats_is_rejected(self, bad, message):
        with pytest.raises(ValueError) as err:
            load_problem({"n": 3, "forcing": [1.0, bad, 2.5]})
        assert str(err.value) == message

    def test_integral_counts_accepted(self):
        vi = load_problem({"n": 2.0, "max_iter": "12", "eps": 0})
        assert (vi.n, vi.max_iter, vi.eps) == (2, 12, 0.0)
        assert type(vi.n) is int and type(vi.max_iter) is int

    def test_default_set_is_the_unit_box(self):
        # without "set", assemble_vi's box [-1, 1]^n, also at the largest n
        for n in (1, 7, MAX_N):
            box = load_problem({"n": n}).feasible_set
            assert isinstance(box, Box)
            assert box.lower.tobytes() == np.full(n, -1.0).tobytes()
            assert box.upper.tobytes() == np.full(n, 1.0).tobytes()

    def test_size_cap(self):
        for n in (4096, MAX_N):
            assert load_problem({"n": n}).n == n
        for n in (MAX_N + 1, 1e300, 10**12):
            with pytest.raises(ValueError, match="at most"):
                load_problem({"n": n})

    def test_literal_1e400_rejected(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"n": 1, "forcing": [1], "eps": 1e400}')
        with pytest.raises(ValueError):
            load_problem(str(path))


# entries of a solver number, and entries that are none
GOOD_ENTRIES = [3, -0.0, 5e-324, "1/3", F(1, 3)]
BAD_ENTRIES = [True, None, math.nan, math.inf, -math.inf, "1/0", "x", 1j, [1.0]]

# each number a problem file holds: the file with the entry v there, the library
# call that takes the same entry, and where the loaded problem keeps it
FILE_SLOTS = {
    "forcing": (lambda v: {"n": 2, "forcing": [1.0, v]},
                lambda v: GalerkinOperator(2, [1.0, v]).forcing,
                lambda vi: vi.operator.forcing),
    "lower": (lambda v: {"n": 2, "set": {"kind": "box", "lower": [-1, v], "upper": [1, 4]}},
              lambda v: Box([-1, v], [1, 4]).lower,
              lambda vi: vi.feasible_set.lower),
    "upper": (lambda v: {"n": 2, "set": {"kind": "box", "lower": [-1, -1], "upper": [1, v]}},
              lambda v: Box([-1, -1], [1, v]).upper,
              lambda vi: vi.feasible_set.upper),
    "center": (lambda v: {"n": 2, "set": {"kind": "ball", "center": [0, v], "radius": 1}},
               lambda v: Ball([0, v], 1).center,
               lambda vi: vi.feasible_set.center),
    "radius": (lambda v: {"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": v}},
               lambda v: Ball([0, 0], v).radius,
               lambda vi: vi.feasible_set.radius),
    "eps": (lambda v: {"n": 2, "eps": v},
            lambda v: assemble_vi(2, eps=v).eps,
            lambda vi: vi.eps),
}


def outcome(call):
    """("ok", what call returns), or the name and message of what it raises."""
    try:
        return "ok", call()
    except Exception as exc:  # a TypeError where the other side says ValueError disagrees too
        return type(exc).__name__, str(exc)


class TestOneNumberRule:
    @pytest.mark.parametrize(
        "entry, good",
        [(v, True) for v in GOOD_ENTRIES] + [(v, False) for v in BAD_ENTRIES],
        ids=[repr(v) for v in GOOD_ENTRIES + BAD_ENTRIES],
    )
    @pytest.mark.parametrize("slot", [*FILE_SLOTS, "step"])
    def test_file_and_library_read_alike(self, slot, entry, good):
        # a library call once read True as 1.0, inf as a bound and "1/2" not at all,
        # where a problem file rejected the first two and read the third exactly
        if slot == "step":
            # no file holds a step: it reads an entry as a file's eps does, must be
            # positive, and says so in its own words
            vi = assemble_vi(2, forcing=[1.0, 1.0], max_iter=20)
            kind, eps = outcome(lambda: load_problem({"n": 2, "eps": entry}).eps)
            if kind == "ok" and eps > 0:
                want = outcome(lambda: extragradient_solve(vi, step=eps).x)
            else:
                want = "ValueError", f"step must be positive and finite, got {entry!r}"
            got = outcome(lambda: extragradient_solve(vi, step=entry).x)
        else:
            doc, library, kept = FILE_SLOTS[slot]
            want = outcome(lambda: kept(load_problem(doc(entry))))
            got = outcome(lambda: library(entry))
        if got[0] == want[0] == "ok":
            assert type(got[1]) is type(want[1])
            assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()
        else:
            assert got == want
        # a radius and a step must also be positive, so -0.0 is no radius or step
        accepted = good and not (slot in ("radius", "step") and entry == 0)
        assert got[0] == ("ok" if accepted else "ValueError")
