"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from viproplab import (
    Indicator,
    PiecewiseLinearFn,
    L2SeqVector,
    Monomial,
    assemble_vi,
    derivative,
    dyadic_indicators,
    equilibrium_gap,
    extragradient_solve,
    l2_unit_limit_certificate,
    monotone_gap_check,
    pairing_sequence,
    plap_pairing,
    pow_norm,
    residual,
    sawtooth,
    scaled_hat,
    test_integral as integral_against,
)
from viproplab.cli import main as cli_main

from conftest import SEED, gauss_pairing_oracle, random_pw_linear

F = Fraction


def report(name):
    print(f"PASS: {name}")


def test_exact_norm_identity():
    start = time.perf_counter()
    for k in range(1, 257):
        assert pow_norm(derivative(sawtooth(k)), 3) == 45, k
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"exact norm identity, k=1..256, zero tolerance ({elapsed:.2f}s)")


def test_exact_pairing_identity():
    start = time.perf_counter()
    for alpha in (F(31, 2), F(16), F(20), F(100)):
        expected = 45 - 3 * alpha
        for k in range(1, 65):
            assert equilibrium_gap(sawtooth(k), scaled_hat(alpha)) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"exact gap identity, k=1..64, four scales, zero tolerance ({elapsed:.2f}s)")


def test_counterexample_certificates(tmp_path):
    out = tmp_path / "certify.json"
    code = cli_main(["certify", "--kmax", "64", "--alpha", "16", "--out", str(out)])
    assert code == 0
    with open(out, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    ky = doc["ky_fan_violation"]
    pm = doc["premise_audit"]
    assert ky["verdict"] == "established"
    assert ky["witness"]["margin"] == ["3", "1"]
    assert ky["witness"]["tail_constant"] == ["-3", "1"]
    assert ky["witness"]["gap_at_limit"] == ["0", "1"]
    assert pm["verdict"] == "established"
    assert pm["witness"]["tail_constant"] == ["45", "1"]
    code10 = cli_main(["certify", "--kmax", "64", "--alpha", "10", "--out", str(out)])
    assert code10 != 0
    with open(out, "r", encoding="utf-8") as fh:
        assert json.load(fh)["ky_fan_violation"]["verdict"] == "refuted"
    report("counterexample certificates: alpha=16 both established (margins 3, 45); alpha=10 refuted")


def test_l2_unit_sequence_limit():
    cert = l2_unit_limit_certificate(pairing_sequence(L2SeqVector, None, 64))
    assert cert.verdict == "established"
    assert isinstance(cert.witness["tail_constant"], F)
    assert cert.witness["tail_constant"] == 1
    assert cert.witness["conclusion"] == "limit != 0"
    report("sequence-space unit vectors: tail constant exactly 1, limit != 0")


def test_monotonicity_suite():
    rng = random.Random(SEED)
    for i in range(1000):
        u = random_pw_linear(rng)
        w = random_pw_linear(rng)
        gap = monotone_gap_check(u, w)
        assert isinstance(gap, F), i
        assert gap >= 0, i
    report("monotone gap >= 0 on 1000 seeded random rational pairs, exact")


def test_quadrature_oracle_equivalence():
    rng = random.Random(SEED + 1)
    worst = 0.0
    for _ in range(200):
        u = random_pw_linear(rng, max_interior=4)
        w = random_pw_linear(rng, max_interior=4)
        exact = float(plap_pairing(u, w))
        approx = gauss_pairing_oracle(u, w)
        err = abs(exact - approx) / max(1.0, abs(exact))
        worst = max(worst, err)
        assert err <= 1e-10
    report(f"quadrature oracle equivalence on 200 random instances (worst rel err {worst:.2e})")


def test_weak_convergence_evidence_sweep():
    k_max = 256
    family = [Monomial(d) for d in range(6)]
    for level in range(1, 7):
        family += dyadic_indicators(level)
    gradients = [derivative(sawtooth(k)) for k in range(1, k_max + 1)]
    for phi in family:
        integrals = [integral_against(g, phi) for g in gradients]
        c_phi = max(F(k) * abs(v) for k, v in enumerate(integrals, start=1))
        for k, v in enumerate(integrals, start=1):
            assert abs(v) <= c_phi / k, (phi.describe(), k)
        if type(phi) is Indicator and phi.lo >= F(1, 2):
            assert all(v == 0 for v in integrals), phi.describe()
    report("weak-convergence evidence: |integral| <= C/k for k<=256; right-half supports exactly 0")


def test_solver_suite():
    start = time.perf_counter()

    res = extragradient_solve(assemble_vi(1, forcing=[8.0]))
    assert res.converged
    assert abs(res.x[0] - 1.0) <= 1e-6

    n = 32
    for vi in (
        assemble_vi(n, forcing=[5.0] * n),
        assemble_vi(n, forcing=[1.0 + (j % 4) for j in range(n)]),
    ):
        res = extragradient_solve(vi)
        assert res.converged and res.residual < 1e-8

    res = extragradient_solve(assemble_vi(16))
    assert np.array_equal(res.x, np.zeros(16))
    assert res.residual == 0.0

    base = assemble_vi(1, forcing=[8.0])
    limit_iterate = None
    for m in range(1, 11):
        perturbed = assemble_vi(1, forcing=[8.0 + 2.0**-m])
        limit_iterate = extragradient_solve(perturbed).x
    assert residual(base, limit_iterate) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"solver: n=1 boundary root, n=32 convergence, exact zero, perturbation closedness ({elapsed:.2f}s)")
