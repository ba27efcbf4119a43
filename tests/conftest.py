import math
import os
import random
from bisect import bisect_right
from collections import deque
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest

from viproplab import (
    Ball,
    Indicator,
    PiecewiseConstFn,
    PiecewiseLinearFn,
    SolveResult,
    plap_pairing,
)
from viproplab.certificates import (
    PROP_KY_FAN_VIOLATION,
    PROP_PREMISE_FAILS,
    _tail_certificate,
    equilibrium_gap,
    pairing_sequence,
)
from viproplab.solver import (
    BACKTRACK_FACTOR,
    DEFAULT_STEP,
    MIN_STEP,
    SPG_ARMIJO,
    SPG_FIRST_STEP,
    SPG_MAX_STEP,
    SPG_MEMORY,
    SPG_MIN_STEP,
    SPG_MIN_T,
    STEP_GROWTH,
)

SEED = int(os.environ.get("VIPROPLAB_SEED", "20240817"))


class Three(IntEnum):
    """An int subclass with value 3: an integer argument must reject it, as it rejects True."""

    THREE = 3


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_fraction(r, lo=-8, hi=8, max_den=24):
    den = r.randint(1, max_den)
    num = r.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_pw_linear(r, max_interior=5, lo=-8, hi=8, max_den=24):
    """Random piecewise-linear function with zero boundary values."""
    n = r.randint(0, max_interior)
    interior = set()
    while len(interior) < n:
        t = Fraction(r.randint(1, 63), 64)
        interior.add(t)
    bps = [Fraction(0)] + sorted(interior) + [Fraction(1)]
    vals = [Fraction(0)] + [random_fraction(r, lo, hi, max_den) for _ in range(n)] + [Fraction(0)]
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


def random_wide_pw_linear(r, interior):
    """A function with this many interior breakpoints, over unrelated denominators up to 1000."""
    pts = set()
    while len(pts) < interior:
        q = r.randint(2, 1000)
        pts.add(Fraction(r.randint(1, q - 1), q))
    vals = []
    for _ in range(interior):
        q = r.randint(1, 1000)
        vals.append(Fraction(r.randint(-3 * q, 3 * q), q))
    bps = (Fraction(0), *sorted(pts), Fraction(1))
    return PiecewiseLinearFn(bps, (Fraction(0), *vals, Fraction(0)))


def reference_refinement(f, g):
    """Test-only reference for the union-grid walk: sorted-set grid, then resample."""
    merged = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))

    def resample(h):
        bps, hv = h.breakpoints, h.interval_values
        vals = []
        j = 0
        for a in merged[:-1]:
            while j + 1 < len(bps) - 1 and bps[j + 1] <= a:
                j += 1
            vals.append(hv[j])
        return PiecewiseConstFn(merged, tuple(vals))

    return resample(f), resample(g)


def reference_check_breakpoints(bps):
    """Test-only reference for the breakpoint checks, in Fraction comparisons."""
    if len(bps) < 2:
        raise ValueError("need at least the two endpoint breakpoints")
    if bps[0] != 0 or bps[-1] != 1:
        raise ValueError("breakpoints must start at 0 and end at 1")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise ValueError("breakpoints must be strictly increasing")


def assert_grid_form(f):
    """Test-only oracle for the grid form (D, n, P, Q) of a function, whoever built it.

    The breakpoints n_i/D run from 0 to D, strictly increasing, over the lcm
    D of their denominators, so gcd(n) = 1; each cell holds one reduced pair
    P_i/Q_i with Q_i > 0; and a linear function's slopes sum to u(1) = 0.
    """
    d, n, p, q = f._grid
    assert type(n) is type(p) is type(q) is tuple
    assert len(n) >= 2 and n[0] == 0 and n[-1] == d
    assert all(a < b for a, b in zip(n, n[1:]))
    assert math.gcd(*n) == 1
    assert len(p) == len(q) == len(n) - 1
    assert all(qi > 0 and math.gcd(pi, qi) == 1 for pi, qi in zip(p, q))
    if isinstance(f, PiecewiseLinearFn):
        assert sum(Fraction(pi, qi) * (b - a) for pi, qi, a, b in zip(p, q, n, n[1:])) == 0


def reference_grid(bps, vals):
    """Test-only reference for the integer grid (D, n, P, Q) of breakpoints and values.

    D is the lcm of the breakpoint denominators, and each slope is reduced by
    one gcd from the cell's own numerators and denominators.
    """
    c, e = [t.numerator for t in bps], [t.denominator for t in bps]
    a, b = [y.numerator for y in vals], [y.denominator for y in vals]
    d = math.lcm(*e)
    p, q = [], []
    for a0, a1, b0, b1, c0, c1, e0, e1 in zip(a, a[1:], b, b[1:], c, c[1:], e, e[1:]):
        num = (a1 * b0 - a0 * b1) * e0 * e1
        den = (c1 * e0 - c0 * e1) * b0 * b1
        g = math.gcd(num, den)
        p.append(num // g)
        q.append(den // g)
    return d, tuple(ci * (d // ei) for ci, ei in zip(c, e)), tuple(p), tuple(q)


def reference_sawtooth(k):
    """Test-only reference for sawtooth(k): its breakpoints and nodal values, tooth by tooth."""
    bps = []
    vals = []
    zero, peak = Fraction(0), Fraction(1, k)
    for i in range(k):
        bps.append(Fraction(i, 2 * k))
        vals.append(zero)
        bps.append(Fraction(3 * i + 1, 6 * k))
        vals.append(peak)
    bps += [Fraction(1, 2), Fraction(1)]
    vals += [zero, zero]
    return tuple(bps), tuple(vals)


def reference_slopes(u):
    """Test-only reference for the slopes of u: three Fraction operations per cell."""
    t, y = u.breakpoints, u.values
    return [(y1 - y0) / (t1 - t0) for t0, t1, y0, y1 in zip(t, t[1:], y, y[1:])]


def reference_derivative(u):
    """Test-only reference for derivative, on the reference slopes."""
    return PiecewiseConstFn(u.breakpoints, reference_slopes(u))


def reference_sum(u, w, term):
    """Sum term(u', w') * width over the reference refinement, one interval at a time."""
    du, dw = reference_refinement(reference_derivative(u), reference_derivative(w))
    t = du.breakpoints
    total = Fraction(0)
    for i, (c, d) in enumerate(zip(du.interval_values, dw.interval_values)):
        total += term(c, d) * (t[i + 1] - t[i])
    return total


def reference_pow_norm(f, p):
    """Test-only reference for pow_norm: one Fraction term per interval."""
    t = f.breakpoints
    total = Fraction(0)
    for i, c in enumerate(f.interval_values):
        total += abs(c) ** p * (t[i + 1] - t[i])
    return total


def reference_evaluate(bps, vals, t):
    """Test-only reference for u(t): interpolate between the nodal values around t."""
    i = bisect_right(bps, t) - 1
    if i == len(bps) - 1:
        return vals[-1]
    a, b = bps[i], bps[i + 1]
    return vals[i] + (vals[i + 1] - vals[i]) * (t - a) / (b - a)


def reference_lin_comb(a, u, b, w):
    """Test-only reference for lin_comb: sorted-set grid, then a*u(t) + b*w(t) at every point."""
    a, b = Fraction(a), Fraction(b)
    (ub, uv), (wb, wv) = (u.breakpoints, u.values), (w.breakpoints, w.values)
    merged = tuple(sorted(set(ub) | set(wb)))
    return PiecewiseLinearFn(merged, tuple(
        a * reference_evaluate(ub, uv, t) + b * reference_evaluate(wb, wv, t) for t in merged))


def reference_abs_pow_integral(u, p):
    """Test-only reference for abs_pow_integral: split sign changes at the root, then integrate."""
    if p < 1:
        raise ValueError("p must be a positive integer")

    def seg(z0: Fraction, z1: Fraction, length: Fraction) -> Fraction:
        # |u| linear from z0 to z1 >= 0 over an interval of given length
        if z0 == z1:
            return z0**p * length
        return length * (z1 ** (p + 1) - z0 ** (p + 1)) / ((p + 1) * (z1 - z0))

    t, y = u.breakpoints, u.values
    total = Fraction(0)
    for i in range(len(t) - 1):
        a, b = t[i], t[i + 1]
        y0, y1 = y[i], y[i + 1]
        if y0 * y1 < 0:
            r = a + (b - a) * y0 / (y0 - y1)
            total += seg(abs(y0), Fraction(0), r - a)
            total += seg(Fraction(0), abs(y1), b - r)
        else:
            total += seg(abs(y0), abs(y1), b - a)
    return total


def reference_test_integral(f, phi):
    """Test-only reference for test_integral: walk the intervals, from the definition."""
    t, c = f.breakpoints, f.interval_values
    if type(phi) is Indicator:
        lo, hi = phi.lo, phi.hi
        total = Fraction(0)
        i = max(bisect_right(t, lo) - 1, 0)
        while i < len(c) and t[i] < hi:
            a = max(t[i], lo)
            b = min(t[i + 1], hi)
            if b > a:
                total += c[i] * (b - a)
            i += 1
        return total

    # t^(d+1) / (d+1), the antiderivative of t^d, differenced over each interval
    d = phi.degree
    total = Fraction(0)
    for i, ci in enumerate(c):
        total += ci * (t[i + 1] ** (d + 1) - t[i] ** (d + 1)) / (d + 1)
    return total


def reference_ky_fan_violation_certificate(seq, limit, y, k_max):
    """Test-only reference for ky_fan_violation_certificate: the pairing report of
    every k = 1..k_max, judged on its last k_max // 2 values."""
    report = pairing_sequence(seq, y, k_max)
    tail = report.limit_candidate
    witness = {"y": y, "k_window": report.k_window, "tail_constant": tail}
    margin = None
    if tail is not None:
        gap_at_limit = equilibrium_gap(limit, y)
        margin = gap_at_limit - tail
        witness.update(gap_at_limit=gap_at_limit, margin=margin)
    return _tail_certificate(PROP_KY_FAN_VIOLATION, margin, witness)


def reference_pseudomonotone_premise_audit(seq, limit, k_max):
    """Test-only reference for pseudomonotone_premise_audit, on the pairing report of
    every k = 1..k_max."""
    report = pairing_sequence(seq, limit, k_max)
    tail = report.limit_candidate
    witness = {"k_window": report.k_window, "tail_constant": tail}
    return _tail_certificate(PROP_PREMISE_FAILS, tail, witness)


def reference_operator(op, x):
    """Test-only reference for GalerkinOperator.__call__: concatenate, np.diff, fresh arrays."""
    padded = np.concatenate(([0.0], np.asarray(x, dtype=float), [0.0]))
    s = np.diff(padded) / op.h
    a = np.abs(s) * s
    return a[:-1] - a[1:] - op.forcing


def reference_nodal_function(n, x):
    """Test-only: the function with interior nodal values x on the uniform grid i/(n+1)."""
    return PiecewiseLinearFn([Fraction(i, n + 1) for i in range(n + 2)], (0, *x, 0))


def reference_apply_exact(op, x):
    """Test-only reference for GalerkinOperator over exact rationals, forcing excluded.

    G(x)_j is the pairing of u_x with the hat function at node j, assembled
    with the exact pairing; at rational points it must match the fast
    evaluator's closed formula.
    """
    if len(x) != op.n:
        raise ValueError("x must have length n")
    u = reference_nodal_function(op.n, [Fraction(v) for v in x])
    hats = (reference_nodal_function(op.n, [int(i == j) for i in range(op.n)]) for j in range(op.n))
    return [plap_pairing(u, phi) for phi in hats]


def reference_box_project(box, x):
    """Test-only reference for Box.project."""
    return np.clip(x, box.lower, box.upper)


def reference_ball_project(ball, x):
    """Test-only reference for Ball.project, with np.linalg.norm."""
    d = x - ball.center
    norm = float(np.linalg.norm(d))
    if norm <= ball.radius:
        return x.copy()
    return ball.center + d * (ball.radius / norm)


def reference_extragradient_solve(vi, x0=None, step=DEFAULT_STEP):
    """Test-only reference for extragradient_solve, on the reference operator and projections.

    Its non-converged exit reports converged=False even when the last
    iterate meets eps.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    def P(z):
        if isinstance(vi.feasible_set, Ball):
            return reference_ball_project(vi.feasible_set, z)
        return reference_box_project(vi.feasible_set, z)

    def residual(z):
        return float(np.linalg.norm(z - P(z - reference_operator(vi.operator, z))))

    x = P(np.zeros(vi.n) if x0 is None else np.asarray(x0, dtype=float))
    lam = step
    best_x, best_r = x, residual(x)
    for m in range(vi.max_iter):
        g = reference_operator(vi.operator, x)
        r = float(np.linalg.norm(x - P(x - g)))
        if r < best_r:
            best_x, best_r = x, r
        if r <= vi.eps:
            return SolveResult(x=x, residual=r, iterations=m, converged=True)
        y = P(x - lam * g)
        gy = reference_operator(vi.operator, y)
        d = x - y
        while (
            lam > MIN_STEP
            and float(np.dot(g - gy, d)) > float(np.dot(d, d)) / (2.0 * lam)
        ):
            lam *= BACKTRACK_FACTOR
            y = P(x - lam * g)
            gy = reference_operator(vi.operator, y)
            d = x - y
        x = P(x - lam * gy)
        lam = min(lam * STEP_GROWTH, 10.0 * step)
    r = residual(x)
    if r < best_r:
        best_x, best_r = x, r
    return SolveResult(x=best_x, residual=best_r, iterations=vi.max_iter, converged=False)


def reference_spg_solve(vi, bb2=True):
    """Test-only reference for spg_solve: the same loop with separate energy and operator passes.

    Every trial point gets its own energy(y), which recomputes the slopes,
    and the accepted point a second pass through the operator; the
    Barzilai-Borwein s is y - x recomputed at every t. With bb2=False every
    step is BB1, the rule spg_solve had before it alternated BB1 and BB2.
    """
    G, E, P, sub = vi.operator, vi.operator.energy, vi.feasible_set.project, np.subtract
    eps = vi.eps
    x = P(np.zeros(vi.n))
    g = G(x)
    energies = deque([E(x)], maxlen=SPG_MEMORY)
    z, w = np.empty(vi.n), np.empty(vi.n)
    lam = SPG_FIRST_STEP
    best_x, best_r = x, math.inf
    for m in range(vi.max_iter + 1):
        v = P(sub(x, g, z))
        sub(x, v, v)
        r = math.sqrt(v.dot(v))
        if m == 0 or r < best_r:
            best_x, best_r = x, r
        if r <= eps:
            return SolveResult(x=x, residual=r, iterations=m, converged=True)
        if m == vi.max_iter:
            break
        np.multiply(g, lam, z)
        y = P(sub(x, z, z))
        d = sub(y, x, w)
        gd = g.dot(d)
        ceiling = max(energies)
        t = 1.0
        while True:
            e = E(y)
            if e <= ceiling + SPG_ARMIJO * t * gd:
                break
            t *= 0.5
            if t < SPG_MIN_T:
                return SolveResult(x=best_x, residual=best_r, iterations=m, converged=False)
            y = x + t * d
        gy = G(y)
        s, q = sub(y, x, w), sub(gy, g, z)
        sq = s.dot(q)
        if sq > 0:
            lam = s.dot(s) / sq if m % 2 == 0 or not bb2 else sq / q.dot(q)
            lam = min(max(lam, SPG_MIN_STEP), SPG_MAX_STEP)
        else:
            lam = SPG_MAX_STEP
        x, g = y, gy
        energies.append(e)
    return SolveResult(x=best_x, residual=best_r, iterations=vi.max_iter, converged=False)


def reference_free_solution(forcing):
    """Test-only closed form of G(x) = 0, the solution of the VI on any set that holds it.

    G(x) = 0 reads phi(s_j) - phi(s_{j+1}) = f_j with phi(s) = |s| s, so
    phi(s_j) = C - (f_1 + ... + f_{j-1}) for one constant C. The slopes sum
    to zero, since u vanishes at both ends, and that sum increases strictly
    in C, so C is the root that bisection finds between the extreme partial
    sums. The nodal values are then x_j = h (s_1 + ... + s_j).
    """
    f = np.asarray(forcing, dtype=float)
    partial = np.concatenate(([0.0], np.cumsum(f)))

    def slopes(c):
        v = c - partial
        return np.sign(v) * np.sqrt(np.abs(v))

    lo, hi = partial.min(), partial.max()
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # halve the bracket until no float lies inside it
        if slopes(mid).sum() < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return np.cumsum(slopes(mid)[:-1]) / (len(f) + 1)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def gauss_pairing_oracle(u, w, rel_tol=1e-13, max_rounds=12):
    """Independent quadrature oracle for the duality pairing.

    Evaluates |u'(t)| u'(t) w'(t) pointwise in floating point and applies
    composite Gauss-Legendre quadrature, doubling the panel count until
    two successive estimates agree, instead of reusing the exact
    piecewise-constant summation.
    """
    du, dw = reference_derivative(u), reference_derivative(w)
    du_bps = [float(t) for t in du.breakpoints]
    dw_bps = [float(t) for t in dw.breakpoints]
    du_vals = [float(c) for c in du.interval_values]
    dw_vals = [float(c) for c in dw.interval_values]

    def integrand(t):
        i = min(bisect_right(du_bps, t) - 1, len(du_vals) - 1)
        j = min(bisect_right(dw_bps, t) - 1, len(dw_vals) - 1)
        c, d = du_vals[max(i, 0)], dw_vals[max(j, 0)]
        return abs(c) * c * d

    panel_edges = sorted(set(du_bps) | set(dw_bps))

    def estimate(splits):
        total = 0.0
        for a, b in zip(panel_edges, panel_edges[1:]):
            width = (b - a) / splits
            for s in range(splits):
                lo = a + s * width
                mid = lo + width / 2.0
                half = width / 2.0
                total += half * sum(
                    wgt * integrand(mid + half * node)
                    for node, wgt in zip(_GL_NODES, _GL_WEIGHTS)
                )
        return total

    prev = estimate(1)
    splits = 2
    for _ in range(max_rounds):
        cur = estimate(splits)
        if abs(cur - prev) <= rel_tol * max(1.0, abs(cur)):
            return cur
        prev, splits = cur, splits * 2
    return prev
