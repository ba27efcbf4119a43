"""Desk-scale variational inequality solver for the discretized operator.

The continuous operator is Galerkin-discretized on the uniform hat basis
of [0,1]; the resulting finite-dimensional operator G is monotone and
continuous, and it is the gradient of the convex energy
E(x) = (h/3) sum |s_i|^3 - f.x of the cell slopes s. `solve` minimises E
over the feasible set by spectral projected gradient (spg_solve):
Barzilai-Borwein steps, long and short in turn, and a nonmonotone line
search on E, with one slope pass per trial point, which gives both G and
E there. The extragradient method with a backtracking step rule
(extragradient_solve) needs only monotonicity, not the energy; it stays a
library function, pinned bit for bit against its reference in the tests.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .piecewise import _integer, as_fraction

# numpy loads on its first attribute access, so exact commands never pay for it
_spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
if _spec is None:
    import numpy as np  # the loaded module, or the usual ModuleNotFoundError
else:
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

DEFAULT_EPS = 1e-8
DEFAULT_MAX_ITER = 100_000
# spectral projected gradient: the first step is SPG_FIRST_STEP and every later
# Barzilai-Borwein step is clamped to [SPG_MIN_STEP, SPG_MAX_STEP]; a trial
# point is accepted when its energy is at most the largest of the last
# SPG_MEMORY energies plus SPG_ARMIJO * t * g.d, and t is halved on each
# failure, down to SPG_MIN_T
SPG_FIRST_STEP = 1.0
SPG_MIN_STEP = 1e-10
SPG_MAX_STEP = 1e10
SPG_MEMORY = 10
SPG_ARMIJO = 1e-4
SPG_MIN_T = 1e-16
# extragradient: the initial step, its halving and its recovery
DEFAULT_STEP = 0.1
BACKTRACK_FACTOR = 0.5
STEP_GROWTH = 1.2  # recover after backtracking, up to 10x the initial step
MIN_STEP = 1e-16
# largest n a problem file may ask for: 16 times the largest size measured
# (4096); a larger n would allocate its default box and forcing before failing
MAX_N = 65_536

# every key a problem file may hold; any other is a ValueError
PROBLEM_KEYS = frozenset({"n", "forcing", "set", "eps", "max_iter"})
BOX_KEYS = frozenset({"kind", "lower", "upper"})
BALL_KEYS = frozenset({"kind", "center", "radius"})


# eq=False: == and hash by identity, since the generated ones would compare arrays
@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box with componentwise clamp projection."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo, hi = _vector(self.lower, "lower"), _vector(self.upper, "upper")
        if lo.shape != hi.shape or not np.all(lo <= hi):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, x: np.ndarray) -> np.ndarray:
        # the same bits as np.clip, without its per-call dispatch overhead
        t = np.maximum(x, self.lower)
        np.minimum(t, self.upper, out=t)
        return t


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball; projection rescales radially when outside."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "center"))
        object.__setattr__(self, "radius", _number(self.radius))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    def project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        norm = _norm(d)
        if norm <= self.radius:
            return x.copy()
        d *= self.radius / norm
        np.add(self.center, d, out=d)  # center + d, in that operand order
        return d


FeasibleSet = Union[Box, Ball]


def _norm(v: np.ndarray) -> float:
    """||v||, the solver's one norm: math.sqrt(v.dot(v)), as np.linalg.norm.

    Only where v.dot(v) overflows is v scaled before squaring, by the power
    of two just above max |v_i|, so scaling and unscaling round nothing. A
    finite norm keeps its bits, an infinite entry gives inf and a NaN stays NaN.
    """
    r = math.sqrt(v.dot(v))
    if r != math.inf:
        return r
    big = np.abs(v).max()
    if big == math.inf:  # an infinite entry: the norm is inf, not inf/inf
        return big
    scale = 2.0 ** -math.frexp(big)[1]
    e = v * scale
    return math.sqrt(e.dot(e)) / scale


class GalerkinOperator:
    """Nodal operator G(x)_j = <F(u_x), phi_j> - f_j on a uniform grid.

    u_x is the piecewise-linear function with interior nodal values x and
    zero boundary values; phi_j is the hat basis function at node j.  The
    pairing integrand is piecewise constant, so the assembled formula
    G(x)_j = |s_j| s_j - |s_{j+1}| s_{j+1} (s = slopes of u_x) is the
    exact Galerkin integral, not a quadrature approximation.
    """

    def __init__(self, n: int, forcing: Optional[Sequence[float]] = None):
        self.n = _integer("dimension", n, 1)
        self.h = 1.0 / (n + 1)
        self.forcing = np.zeros(n) if forcing is None else _vector(forcing, "forcing")
        if self.forcing.shape != (n,):
            raise ValueError("forcing must have length n")
        self.forcing.flags.writeable = False
        # scratch buffers and their views, built once, so one call at a time:
        # x between zero boundary values, the slopes s and a = |s| s
        padded = np.zeros(n + 2)
        self._slot, self._right, self._left = padded[1:-1], padded[1:], padded[:-1]
        self._s = np.empty(n + 1)
        a = np.empty(n + 1)
        self._a, self._a_left, self._a_right = a, a[:-1], a[1:]

    def _slopes(self, x: np.ndarray) -> None:
        # np.diff and abs of the formula, into the scratch buffers s and a = |s| s
        if len(x) != self.n:  # the slot assignment below would broadcast a length-1 x
            raise ValueError("x must have length n")
        self._slot[...] = x
        s, a = self._s, self._a
        np.subtract(self._right, self._left, s)
        np.true_divide(s, self.h, s)
        np.absolute(s, a)
        np.multiply(a, s, a)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # g is a fresh array, since callers keep it across calls
        self._slopes(x)
        g = np.subtract(self._a_left, self._a_right)
        g -= self.forcing
        return g

    def energy(self, x: np.ndarray) -> float:
        """E(x) = (h/3) sum |s_i|^3 - f.x, the convex energy whose gradient is G."""
        self._slopes(x)
        return self._energy(x)

    def _energy(self, x: np.ndarray) -> float:
        # E(x) from the slope buffers, so valid only right after a call or _slopes at x
        return self.h / 3.0 * self._a.dot(self._s) - self.forcing.dot(x)


@dataclass
class DiscreteVI:
    """Finite-dimensional VI: find x in A with <G(x), y - x> >= 0 for y in A."""

    operator: GalerkinOperator
    feasible_set: FeasibleSet
    eps: float
    max_iter: int

    @property
    def n(self) -> int:
        return self.operator.n


def assemble_vi(
    n: int,
    forcing: Optional[Sequence[float]] = None,
    feasible_set: Optional[FeasibleSet] = None,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DiscreteVI:
    """The VI of the Galerkin operator on a feasible set, [-1, 1]^n by default.

    n and max_iter must be integers >= 1, eps a number >= 0 and the forcing
    and the set's vectors of shape (n,), every number read by _number;
    anything else, a bool or NaN included, raises ValueError.
    """
    _integer("dimension", n, 1)  # before the default box, which -1 would leave empty
    eps = _number(eps)
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    _integer("max_iter", max_iter, 1)
    if feasible_set is None:
        feasible_set = Box([-1.0] * n, [1.0] * n)
    # a set of another length would broadcast against x, or fail mid-solve
    shape = (feasible_set.lower if isinstance(feasible_set, Box) else feasible_set.center).shape
    if shape != (n,):
        raise ValueError(f"feasible set vectors must have shape ({n},), got {shape}")
    return DiscreteVI(
        operator=GalerkinOperator(n, forcing),
        feasible_set=feasible_set,
        eps=eps,
        max_iter=max_iter,
    )


def residual(vi: DiscreteVI, x: np.ndarray) -> float:
    """Natural-map residual ||x - P_A(x - G(x))||, zero exactly at solutions; x is read like the forcing."""
    x = _vector(x, "x")
    return _norm(x - vi.feasible_set.project(x - vi.operator(x)))


@dataclass
class SolveResult:
    x: np.ndarray
    residual: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "residual": self.residual if math.isfinite(self.residual) else None,  # strict JSON
            "iterations": self.iterations,
            "converged": self.converged,
        }


def extragradient_solve(vi: DiscreteVI, step: float = DEFAULT_STEP) -> SolveResult:
    """Two-projection extragradient iteration with monotone-safe backtracking.

    The step is halved whenever <G(x)-G(y), x-y> exceeds ||x-y||^2/(2*step),
    which restores the contraction estimate without a Lipschitz constant.
    """
    try:  # finite by _number's rule, since halving inf would never stop
        step = _number(step)
        if not step > 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"step must be positive and finite, got {step!r}") from None
    G, P, sub = vi.operator, vi.feasible_set.project, np.subtract
    eps = vi.eps
    x = P(np.zeros(vi.n))
    # scratch for x - g and then d = x - y, and for g - gy; x - P(x - g) and
    # x - lam * g(y) overwrite the temporaries they came from, never x, g or
    # gy, which outlive them
    d, dg = np.empty(vi.n), np.empty(vi.n)
    lam = step
    best_x, best_r = x, math.inf
    for m in range(vi.max_iter + 1):  # iterate m is judged here, and only here
        g = G(x)
        v = P(sub(x, g, d))
        r = _norm(sub(x, v, v))
        if m == 0 or r < best_r:  # a NaN residual at the start stays the best
            best_x, best_r = x, r
        if r <= eps:
            return SolveResult(x=x, residual=r, iterations=m, converged=True)
        if m == vi.max_iter:
            break
        while True:  # the trial step, halved until the contraction test passes
            t = lam * g
            y = P(sub(x, t, t))
            gy = G(y)
            sub(x, y, d)
            if not (lam > MIN_STEP and sub(g, gy, dg).dot(d) > d.dot(d) / (2.0 * lam)):
                break
            lam *= BACKTRACK_FACTOR
        t = lam * gy
        x = P(sub(x, t, t))
        lam = min(lam * STEP_GROWTH, 10.0 * step)
    return SolveResult(x=best_x, residual=best_r, iterations=vi.max_iter, converged=False)


def spg_solve(vi: DiscreteVI) -> SolveResult:
    """Nonmonotone spectral projected gradient on the energy E, whose gradient is G.

    Each step is d = P(x - lam*g) - x, with lam a Barzilai-Borwein step of
    the last move, s in x and q in G: BB1 = s.s/s.q after an even iterate
    and BB2 = s.q/q.q after an odd one, the alternating BB method of Dai &
    Fletcher (Numer. Math. 100, 2005). t starts at 1 and is halved until
    E(x + t*d) passes an Armijo test against the largest of the last
    SPG_MEMORY energies (Birgin, Martinez & Raydan, SIAM J. Optim. 10,
    2000). The operator is called once per trial point, and E there is read
    from the slopes that call left, so the accepted point's gradient comes
    with its energy. Each iterate is judged by the same natural residual as
    in extragradient_solve. If t falls below SPG_MIN_T, the search has
    stalled in rounding: the solve stops, not converged, and reports the
    iterations it judged.
    """
    G, E, P, sub = vi.operator, vi.operator._energy, vi.feasible_set.project, np.subtract
    eps = vi.eps
    x = P(np.zeros(vi.n))
    g = G(x)
    energies = deque([E(x)], maxlen=SPG_MEMORY)
    # scratch for x - g, then x - lam * g, then g(y) - g; and for d, then y - x
    # unless t = 1, where d is y - x. Projections and x + t * d are fresh
    # arrays, since an iterate may be the best
    z, w = np.empty(vi.n), np.empty(vi.n)
    lam = SPG_FIRST_STEP
    best_x, best_r = x, math.inf
    for m in range(vi.max_iter + 1):  # iterate m is judged here, and only here
        v = P(sub(x, g, z))
        r = _norm(sub(x, v, v))
        if m == 0 or r < best_r:  # a NaN residual at the start stays the best
            best_x, best_r = x, r
        if r <= eps:
            return SolveResult(x=x, residual=r, iterations=m, converged=True)
        if m == vi.max_iter:
            break
        np.multiply(g, lam, z)
        y = P(sub(x, z, z))  # x + d itself, not a rounded sum
        d = sub(y, x, w)
        gd = g.dot(d)
        ceiling = max(energies)
        t = 1.0
        while True:  # E(y) reads the slopes that G(y) left
            gy = G(y)
            e = E(y)
            if e <= ceiling + SPG_ARMIJO * t * gd:
                break
            t *= 0.5
            if t < SPG_MIN_T:
                return SolveResult(x=best_x, residual=best_r, iterations=m, converged=False)
            y = x + t * d
        s = d if t == 1.0 else sub(y, x, w)  # at t = 1, y - x is d, bit for bit
        q = sub(gy, g, z)
        sq = s.dot(q)
        if sq > 0:  # BB1 = s.s/s.q after an even iterate, BB2 = s.q/q.q after an odd one
            lam = s.dot(s) / sq if m % 2 == 0 else sq / q.dot(q)
            lam = min(max(lam, SPG_MIN_STEP), SPG_MAX_STEP)
        else:
            lam = SPG_MAX_STEP
        x, g = y, gy
        energies.append(e)
    return SolveResult(x=best_x, residual=best_r, iterations=vi.max_iter, converged=False)


def _number(v) -> float:
    # the one rule for the solver's numbers: an int, a float, a Fraction or "p/q" text,
    # and finite; a bool, None, NaN or an infinity (JSON reads 1e400 as inf) is not one
    if isinstance(v, bool) or not isinstance(v, (int, float, Fraction, str)):
        raise ValueError(f"not a number: {v!r}")
    try:
        x = float(as_fraction(v)) if isinstance(v, str) else float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {v!r}")
    return x


def _count(v, key: str) -> int:
    # JSON true is an int to Python, and int() truncates 3.5: neither is a count
    x = v if isinstance(v, int) else _number(v)
    if isinstance(v, bool) or x != int(x) or x < 1:
        raise ValueError(f"{key} must be a positive integer, got {v!r}")
    return int(x)


def _vector(v, name: str) -> np.ndarray:
    # a list, a tuple or a 1-D array of numbers, as a fresh read-only float array, so a
    # caller's later writes move nothing; a finite float is already its number, and
    # anything else, bools included, goes to _number
    if isinstance(v, np.ndarray) and v.ndim == 1:
        v = v.tolist()
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {v!r}")
    x = np.array([e if type(e) is float and -math.inf < e < math.inf else _number(e) for e in v])
    x.flags.writeable = False
    return x


def _known_keys(doc: dict, allowed: frozenset, required: tuple, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(sorted(map(repr, unknown)))}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r} in {where}")


def load_problem(source: Union[str, dict]) -> DiscreteVI:
    """Parse a problem description, from a JSON file path or a dict.

    Schema: {"n": int, "forcing": [...], "set": {"kind": "box"|"ball", ...},
    "eps": float, "max_iter": int}; numbers may be given as "p/q" strings.
    A box set has "lower" and "upper", a ball set "center" and "radius".
    n is a positive integer up to MAX_N and max_iter a positive integer; the
    other numbers and vectors are read by assemble_vi, Box and Ball, by the
    rule of _number. Anything else, a missing or unknown key included,
    raises ValueError.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("problem must be an object")
    _known_keys(doc, PROBLEM_KEYS, ("n",), "problem")
    n = _count(doc["n"], "n")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {doc['n']!r}")
    forcing = doc.get("forcing")
    if forcing is None and "forcing" in doc:  # null is not the default zero forcing
        raise ValueError("forcing must be a list, got None")
    feasible: Optional[FeasibleSet] = None  # no "set": assemble_vi's default box
    if "set" in doc:
        spec = doc["set"]
        if not isinstance(spec, dict):
            raise ValueError("set must be an object")
        kind = spec.get("kind")
        if kind == "box":
            _known_keys(spec, BOX_KEYS, ("lower", "upper"), "box set")
            feasible = Box(spec["lower"], spec["upper"])
        elif kind == "ball":
            _known_keys(spec, BALL_KEYS, ("center", "radius"), "ball set")
            feasible = Ball(spec["center"], spec["radius"])
        else:
            raise ValueError(f"unknown feasible-set kind: {kind!r}")
    max_iter = _count(doc.get("max_iter", DEFAULT_MAX_ITER), "max_iter")
    return assemble_vi(n, forcing, feasible, doc.get("eps", DEFAULT_EPS), max_iter)
