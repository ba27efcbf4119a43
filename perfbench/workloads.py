"""The benchmark's four seeded workloads: op lists and output checks.

Every workload draws its inputs from ``--seed`` on a fixed stratified
design: the seed picks a point inside each size stratum, the rational
parameters, the forcing vectors and the op order, while the mix of
commands and the number of ops per stratum stay fixed.  That keeps one
run's total work, and so its timings, comparable across seeds.

An op is one CLI command run in process through ``viproplab.cli.main``
or one library call.  Entry points are looked up on their module at call
time, so the tracer's wrappers are seen.  Checks compare every output
with ``reference.py`` and run outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

import reference as ref
from viproplab import certificates, cli, piecewise

# solve sizes; per-size iteration metrics are reported for each (kind, n).
# The counts put the median op inside the ball n=64 stratum and the 90th
# percentile well inside the box n=32 / ball n=256 strata, away from the
# jumps between strata.  Box solves above n=64 are left out: one costs as much
# as twenty smaller ones and its iteration count varies by +-30 % with
# the forcing, which alone would move wall_s by several per cent.
SOLVE_CELLS = (("ball", 32, 24), ("ball", 64, 48), ("ball", 128, 10), ("ball", 256, 12),
               ("box", 32, 30), ("box", 64, 4))
TINY_SOLVE_CELLS = (("ball", 32, 1), ("box", 32, 1))


class Op:
    """One timed unit of work with its output check.

    ``call()`` is the timed part.  ``check(result)`` returns None or a
    message.  ``outputs(result)`` gives the bytes that go into the digest,
    and ``stats(result)`` any work counts the op reports.
    """

    __slots__ = ("label", "call", "check", "outputs", "stats")

    def __init__(self, label, call, check, outputs, stats=None):
        self.label, self.call, self.check = label, call, check
        self.outputs, self.stats = outputs, stats


def _stratified(rng, n, quantile):
    return [quantile((i + rng.random()) / n) for i in range(n)]


def _log_quantile(lo, mid, hi, body):
    """Log-uniform on [lo, mid] for the first ``body`` share, then on [mid, hi]."""
    def q(x):
        if x < body:
            return round(lo * (mid / lo) ** (x / body))
        return round(mid * (hi / mid) ** ((x - body) / (1 - body)))
    return q


def _fixed_cycle(values, n, salt):
    # the same assignment for every seed, decorrelated from the size order
    seq = [values[i % len(values)] for i in range(n)]
    random.Random(salt).shuffle(seq)
    return seq


def _frac(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _expect(cond: bool, what: str):
    return None if cond else what


# --------------------------------------------------------------- CLI ops

def _cli_op(label, argv, check, out_path=None, stats=None):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad input this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def payload(result):
        if out_path is None:
            return result[1]
        with open(out_path, "r", encoding="utf-8") as fh:
            return fh.read()

    def outputs(result):
        code, out, err = result
        parts = [str(code), out, err] + ([payload(result)] if out_path else [])
        return "\0".join(parts).encode()

    return Op(
        label,
        call,
        lambda result: check(result[0], payload(result)),
        outputs,
        None if stats is None else (lambda result: stats(payload(result))),
    )


def _random_alpha(rng) -> Fraction:
    q = rng.randint(1, 12)
    return Fraction(rng.randint(10 * q, 20 * q), q)


def _check_reproduce(k, alpha, fmt):
    gap = ref.SAWTOOTH_ENERGY - ref.HAT_PAIRING_SLOPE * alpha

    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        if fmt == "csv":
            lines = text.splitlines()
            if lines[0] != "k,grad_norm_cubed,gap":
                return "csv header"
            rows = [line.split(",") for line in lines[1:]]
            rows = [(int(a), Fraction(b), Fraction(c)) for a, b, c in rows]
        else:
            doc = json.loads(text)
            if Fraction(doc["alpha"]) != alpha or doc["all_match"] is not True:
                return "alpha or all_match"
            rows = [(r["k"], Fraction(r["grad_norm_cubed"]), Fraction(r["gap"]))
                    for r in doc["rows"]]
        return _expect(rows == [(j, ref.SAWTOOTH_ENERGY, gap) for j in range(1, k + 1)],
                       "rows differ from 45 and 45 - 3 alpha")
    return check


def _check_certify(alpha):
    def check(code, text):
        wanted = 0 if alpha > 15 else 1
        if code != wanted:
            return f"exit code {code}, wanted {wanted}"
        doc = json.loads(text)
        ky, pa = doc["ky_fan_violation"], doc["premise_audit"]
        ok = (
            doc["negativity_threshold"] == "15"
            and ky["verdict"] == ("established" if alpha > 15 else "refuted")
            and _frac(ky["witness"]["margin"]) == 3 * alpha - 45
            and _frac(ky["witness"]["tail_constant"]) == 45 - 3 * alpha
            and pa["verdict"] == "established"
            and _frac(pa["witness"]["tail_constant"]) == 45
        )
        return _expect(ok, "certificate margin, tail or verdict")
    return check


def sawtooth_exact(seed, workdir, tiny):
    rng = random.Random(seed)
    n = 6 if tiny else 102
    sizes = _stratified(rng, n, _log_quantile(8, 9, 10, 0.85) if tiny
                        else _log_quantile(8, 20, 40, 0.85))
    ops = []
    for i, k in enumerate(sizes):
        alpha = Fraction(15) if i % 8 == 0 else _random_alpha(rng)
        base = ["--kmax", str(k), "--alpha", str(alpha)]
        kind = i % 3
        if kind == 0:
            ops.append(_cli_op(f"reproduce --kmax {k}", ["reproduce"] + base,
                               _check_reproduce(k, alpha, "json")))
        elif kind == 1:
            path = os.path.join(workdir, f"reproduce{i}.csv")
            ops.append(_cli_op(f"reproduce --format csv --kmax {k}",
                               ["reproduce"] + base + ["--format", "csv", "--out", path],
                               _check_reproduce(k, alpha, "csv"), out_path=path))
        else:
            ops.append(_cli_op(f"certify --kmax {k}", ["certify"] + base,
                               _check_certify(alpha)))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ weak sweep

class _SweepReference:
    """Memoized exact test integrals of u_k' for the weak-evidence checks."""

    def __init__(self):
        self._fns, self._values = {}, {}

    def integral(self, k, test):
        key = (k, test)
        if key not in self._values:
            bps, vals = ref.sawtooth_grid(k)
            if test[0] == "poly":
                value = ref.monomial_integral(bps, vals, test[1])
            else:
                if k not in self._fns:
                    self._fns[k] = piecewise.PiecewiseLinearFn(bps, vals)
                u = self._fns[k]
                value = u(test[2]) - u(test[1])
            self._values[key] = value
        return self._values[key]


def _describe(test) -> str:
    if test[0] == "poly":
        return "poly[" + ",".join(["0"] * test[1] + ["1"]) + "]"
    return f"indicator({test[1]},{test[2]})"


def _check_weak(reference, k, degree, level):
    family = [("poly", d) for d in range(degree + 1)]
    family += [("ind", Fraction(j, 2**lv), Fraction(j + 1, 2**lv))
               for lv in range(1, level + 1) for j in range(2**lv)]

    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        if doc["k_max"] != k or len(doc["entries"]) != len(family):
            return "k_max or family size"
        for entry, test in zip(doc["entries"], family):
            want = [reference.integral(j, test) for j in range(1, k + 1)]
            got = [_frac(p) for p in entry["integrals"]]
            if entry["phi"] != _describe(test) or got != want:
                return f"integrals of {_describe(test)}"
            bound = max(j * abs(v) for j, v in enumerate(want, start=1))
            if _frac(entry["bound_constant"]) != bound:
                return f"bound constant of {_describe(test)}"
            if entry["all_zero"] is not all(v == 0 for v in want):
                return f"all_zero of {_describe(test)}"
        return None
    return check


def weak_sweep(seed, workdir, tiny):
    rng = random.Random(seed)
    n = 6 if tiny else 100
    sizes = _stratified(rng, n, _log_quantile(4, 5, 6, 0.85) if tiny
                        else _log_quantile(8, 16, 32, 0.85))
    degrees = _fixed_cycle(list(range(3)) if tiny else list(range(4, 9)), n, "degree")
    levels = _fixed_cycle(list(range(1, 3 if tiny else 7)), n, "level")
    reference = _SweepReference()
    ops = []
    for i, (k, d, lv) in enumerate(zip(sizes, degrees, levels)):
        argv = ["weak-evidence", "--kmax", str(k), "--degree-max", str(d),
                "--indicator-level", str(lv)]
        path = os.path.join(workdir, f"weak{i}.json") if i % 2 else None
        if path:
            argv += ["--out", path]
        ops.append(_cli_op(" ".join(argv[:7]), argv,
                           _check_weak(reference, k, d, lv), out_path=path))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------- random exact

def _random_fn(rng, interior):
    """Piecewise-linear function with unrelated denominators up to 1000."""
    pts = set()
    while len(pts) < interior:
        q = rng.randint(2, 1000)
        pts.add(Fraction(rng.randint(1, q - 1), q))
    vals = []
    for _ in range(interior):
        q = rng.randint(1, 1000)
        vals.append(Fraction(rng.randint(-3 * q, 3 * q), q))
    bps = (Fraction(0), *sorted(pts), Fraction(1))
    return piecewise.PiecewiseLinearFn(bps, (Fraction(0), *vals, Fraction(0)))


def _canonical(value) -> bytes:
    if isinstance(value, piecewise.ExactReal):
        v = value.value
        return f"{v.numerator}/{v.denominator}".encode()
    return json.dumps(value.to_json_dict()).encode()


def _pair_ops(rng, index, u, w):
    cache = {}

    def q():
        if not cache:
            cache.update(ref.pair_quantities(u, w))
        return cache

    def exact(key, extra=None):
        def check(r):
            if not r.exact or r.value != q()[key]:
                return f"{key} differs from the per-interval sum"
            return extra(r) if extra else None
        return check

    def gap_via_lin_comb(r):
        other = piecewise.plap_pairing(u, piecewise.lin_comb(1, u, -1, w))
        return _expect(r.value == other.value, "gap differs from <F(x), x - y>")

    def check_lin_comb(r, a, b):
        grid = sorted(set(u.breakpoints) | set(w.breakpoints))
        want = tuple(a * ref.evaluate(u.breakpoints, u.values, t)
                     + b * ref.evaluate(w.breakpoints, w.values, t) for t in grid)
        return _expect(r.breakpoints == tuple(grid) and r.values == want,
                       "lin_comb nodal values")

    def check_holder(r):
        quant = q()
        lhs = abs(float(quant["pairing"]))
        rhs = float(quant["norm_u"]) ** (2 / 3) * float(quant["norm_w"]) ** (1 / 3)
        ok = (r.verdict == "established" and r.witness["lhs"] == lhs
              and abs(r.witness["rhs"] - rhs) <= 1e-12 * rhs)
        return _expect(ok, "holder witness or verdict")

    def check_round_trip(r):
        return _expect(r.breakpoints == u.breakpoints and r.values == u.values,
                       "JSON round trip changed the function")

    p = 1 + index % 4
    a, b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    size = len(u.breakpoints) - 2
    return [
        Op(f"plap_pairing n={size}", lambda: piecewise.plap_pairing(u, w),
           exact("pairing"), _canonical),
        Op(f"equilibrium_gap n={size}", lambda: certificates.equilibrium_gap(u, w),
           exact("gap", gap_via_lin_comb), _canonical),
        Op(f"monotone_gap_check n={size}", lambda: certificates.monotone_gap_check(u, w),
           exact("monotone", lambda r: _expect(r.value >= 0, "negative monotone gap")),
           _canonical),
        Op(f"pow_norm n={size}", lambda: piecewise.pow_norm(piecewise.derivative(u), 3),
           exact("norm_u"), _canonical),
        Op(f"abs_pow_integral p={p} n={size}", lambda: piecewise.abs_pow_integral(u, p),
           lambda r: _expect(r.exact and r.value == ref.abs_pow(u.breakpoints, u.values, p),
                             "abs_pow_integral differs"),
           _canonical),
        Op(f"lin_comb n={size}", lambda: piecewise.lin_comb(a, u, b, w),
           lambda r: check_lin_comb(r, a, b), _canonical),
        Op(f"holder_boundedness_check n={size}",
           lambda: certificates.holder_boundedness_check(u, w), check_holder, _canonical),
        Op(f"json round trip n={size}",
           lambda: piecewise.PiecewiseLinearFn.from_json_dict(json.loads(json.dumps(u.to_json_dict()))),
           check_round_trip, _canonical),
    ]


def random_exact(seed, workdir, tiny):
    rng = random.Random(seed)
    n = 3 if tiny else 160
    sizes = _stratified(rng, n, _log_quantile(4, 6, 8, 0.85) if tiny
                        else _log_quantile(4, 64, 256, 0.85))
    ops = []
    for i, m in enumerate(sizes):
        u, w = _random_fn(rng, m), _random_fn(rng, m)
        ops += _pair_ops(rng, i, u, w)
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------- galerkin

def _natural_residual(kind, n, forcing, x):
    # same slope formula and projection as the problem statement, in numpy
    h = 1.0 / (n + 1)
    s = np.diff(np.concatenate(([0.0], x, [0.0]))) / h
    a = np.abs(s) * s
    z = x - (a[:-1] - a[1:] - forcing)
    if kind == "box":
        p = np.clip(z, -1.0, 1.0)
    else:
        norm = float(np.linalg.norm(z))
        p = z.copy() if norm <= 1.0 else z * (1.0 / norm)
    return float(np.linalg.norm(x - p))


def _check_solve(kind, n, forcing):
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        x = np.asarray(doc["x"], dtype=float)
        if doc["converged"] is not True or x.shape != (n,):
            return "not converged or wrong size"
        r = _natural_residual(kind, n, forcing, x)
        return _expect(r <= 1e-8, f"recomputed residual {r:.3e} > eps")
    return check


def galerkin_solve(seed, workdir, tiny):
    rng = random.Random(seed)
    ops = []
    for kind, n, count in TINY_SOLVE_CELLS if tiny else SOLVE_CELLS:
        for j in range(count):
            forcing = [round(rng.uniform(1.0, 5.0), 4) for _ in range(n)]
            if kind == "box":
                feasible = {"kind": "box", "lower": [-1.0] * n, "upper": [1.0] * n}
            else:
                feasible = {"kind": "ball", "center": [0.0] * n, "radius": 1.0}
            path = os.path.join(workdir, f"{kind}{n}_{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "forcing": forcing, "set": feasible}, fh)
            ops.append(_cli_op(
                f"solve {kind} n={n}", ["solve", path],
                _check_solve(kind, n, np.asarray(forcing)),
                stats=lambda text, kind=kind, n=n: {
                    "kind": kind, "n": n, "iterations": json.loads(text)["iterations"]},
            ))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "sawtooth-exact": sawtooth_exact,
    "weak-sweep": weak_sweep,
    "random-exact": random_exact,
    "galerkin-solve": galerkin_solve,
}
