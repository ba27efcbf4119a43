import json
import re
import weakref
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viproplab import (
    Indicator,
    L2SeqVector,
    Monomial,
    PiecewiseLinearFn,
    certificates,
    derivative,
    dyadic_indicators,
    equilibrium_gap,
    holder_boundedness_check,
    ky_fan_violation_certificate,
    l2_unit_limit_certificate,
    monotone_gap_check,
    pairing_sequence,
    piecewise,
    pseudomonotone_premise_audit,
    sawtooth,
    scaled_hat,
    weak_convergence_evidence,
)
from viproplab.piecewise import MAX_POLY_DEGREE

from conftest import (
    random_pw_linear,
    reference_ky_fan_violation_certificate,
    reference_pseudomonotone_premise_audit,
)

F = Fraction
ZERO = PiecewiseLinearFn.zero()

# converges strongly to scaled_hat(1); no two of its pairings are equal
CONVERGING = lambda k: scaled_hat(1 + F(1, 4**k))

# converges strongly to scaled_hat(1 + 1e-11); its pairings against
# scaled_hat(1) differ by less than 1e-12 over k = 33..64 without being equal
NEAR_LIMIT = lambda k: scaled_hat(1 + F(1, 10**11) - F(1, 10**9) / k)


class TestEquilibriumGap:
    def test_zero_first_argument(self, rng):
        for _ in range(10):
            assert equilibrium_gap(ZERO, random_pw_linear(rng)) == 0

    def test_diagonal_vanishes(self, rng):
        for _ in range(10):
            x = random_pw_linear(rng)
            assert equilibrium_gap(x, x) == 0

    @pytest.mark.parametrize("alpha", [F(31, 2), F(16), F(20), F(100)])
    def test_sawtooth_hat_closed_form(self, alpha):
        for k in (1, 5, 17):
            assert equilibrium_gap(sawtooth(k), scaled_hat(alpha)) == 45 - 3 * alpha


class TestPairingSequence:
    def test_hat_direction_is_constant(self):
        report = pairing_sequence(sawtooth, scaled_hat(16), 64)
        assert all(v == -3 for v in report.values)
        assert report.limit_candidate == -3
        assert report.k_window == [33, 64]

    def test_zero_direction_gives_energy(self):
        report = pairing_sequence(sawtooth, ZERO, 64)
        assert all(v == 45 for v in report.values)
        assert report.limit_candidate == 45

    def test_none_direction_means_zero_element(self):
        a = pairing_sequence(sawtooth, None, 16)
        b = pairing_sequence(sawtooth, ZERO, 16)
        assert a.values == b.values

    def test_small_kmax_rejected(self):
        with pytest.raises(ValueError):
            pairing_sequence(sawtooth, ZERO, 4)

    @pytest.mark.parametrize("k_max", [8.0, "8", True, 7])
    def test_k_max_must_be_an_int_of_at_least_eight(self, k_max):
        # 8.0 used to raise TypeError from range, and "8" from <
        with pytest.raises(ValueError, match="k_max must be an integer >= 8"):
            pairing_sequence(sawtooth, None, k_max)

    @pytest.mark.parametrize("y", [ZERO, L2SeqVector(1)], ids=["function", "unit-vector"])
    def test_unit_vectors_pair_only_with_none(self, y):
        with pytest.raises(TypeError):
            pairing_sequence(L2SeqVector, y, 8)

    def test_no_detection_reported(self):
        # strictly alternating pairing values: no finite limit detectable
        seq = lambda k: sawtooth(1) if k % 2 else sawtooth(2)
        wobble = lambda k: seq(k) if k % 2 else scaled_hat(1)
        report = pairing_sequence(wobble, scaled_hat(30), 16)
        assert report.limit_candidate is None
        assert report.to_json_dict()["detection"] == "none"

    def test_json_of_an_exact_report(self):
        doc = pairing_sequence(sawtooth, scaled_hat(16), 8).to_json_dict()
        assert json.loads(json.dumps(doc)) == {
            "indices": [1, 2, 3, 4, 5, 6, 7, 8],
            "values": [["-3", "1"]] * 8,
            "limit_candidate": ["-3", "1"],
            "detection": "eventually-constant",
            "tail_window": 4,
        }

    def test_json_of_a_converging_report(self):
        # the pairings (1 + 4^-k)^3 tend to 1 but no tail of them is constant
        report = pairing_sequence(CONVERGING, None, 64)
        assert report.limit_candidate is None
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["values"] == [[str((4**k + 1) ** 3), str(4 ** (3 * k))] for k in range(1, 65)]
        assert doc["limit_candidate"] is None
        assert doc["detection"] == "none" and doc["tail_window"] == 32
        assert doc["indices"] == list(range(1, 65))


class TestKyFanViolation:
    def test_established_with_exact_margin(self):
        cert = ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(16), 64)
        assert cert.verdict == "established"
        assert cert.exactness == "exact"
        assert cert.witness["margin"] == 3
        assert cert.witness["tail_constant"] == -3
        assert cert.witness["gap_at_limit"] == 0

    def test_refuted_along_zero_direction(self):
        cert = ky_fan_violation_certificate(sawtooth, ZERO, ZERO, 64)
        assert cert.verdict == "refuted"

    def test_threshold_behavior(self):
        below = ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(10), 32)
        at = ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(15), 32)
        above = ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(F(61, 4)), 32)
        assert below.verdict == "refuted"
        assert at.verdict == "refuted"  # margin 0 is not strict
        assert above.verdict == "established"

    def test_inconclusive_names_missing_limit(self):
        wobble = lambda k: sawtooth(1) if k % 2 else scaled_hat(1)
        cert = ky_fan_violation_certificate(wobble, ZERO, scaled_hat(30), 16)
        assert cert.verdict == "inconclusive"
        assert "could not be finitely determined" in cert.witness["note"]

    def test_margin_of_a_near_constant_tail_is_inconclusive(self):
        # the true margin is 0: the gap map is continuous along a strongly
        # convergent sequence, however close its last pairings lie
        limit = scaled_hat(1 + F(1, 10**11))
        cert = ky_fan_violation_certificate(NEAR_LIMIT, limit, scaled_hat(1), 64)
        assert_inconclusive_and_exact(cert)
        assert "margin" not in cert.witness

    def test_json_schema(self):
        cert = ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(16), 64)
        doc = json.loads(json.dumps(cert.to_json_dict()))
        assert doc["property"] == "ky_fan_violation"
        assert doc["verdict"] == "established"
        assert doc["exactness"] == "exact"
        assert doc["witness"]["margin"] == ["3", "1"]
        assert doc["witness"]["k_window"] == [33, 64]
        assert "breakpoints" in doc["witness"]["y"]


class TestPremiseAudit:
    def test_sawtooth_premise_fails(self):
        cert = pseudomonotone_premise_audit(sawtooth, ZERO, 64)
        assert cert.verdict == "established"
        assert cert.witness["tail_constant"] == 45

    def test_constant_sequence_premise_holds(self, rng):
        w = random_pw_linear(rng)
        cert = pseudomonotone_premise_audit(lambda k: w, w, 16)
        assert cert.verdict == "refuted"
        assert cert.witness["tail_constant"] == 0

    def test_l2_unit_sequence_premise_fails(self):
        cert = pseudomonotone_premise_audit(L2SeqVector, None, 64)
        assert cert.verdict == "established"
        assert cert.witness["tail_constant"] == 1

    def test_premise_of_a_near_constant_tail_is_inconclusive(self):
        # the pairings tend to (1 + 1e-11)^2 1e-11 > 0, so the premise fails,
        # though their last 32 floats differ by less than 1e-12
        cert = pseudomonotone_premise_audit(NEAR_LIMIT, scaled_hat(1), 64)
        assert_inconclusive_and_exact(cert)
        assert cert.witness["tail_constant"] is None


def assert_inconclusive_and_exact(cert):
    assert (cert.verdict, cert.exactness) == ("inconclusive", "exact")
    assert "could not be finitely determined" in cert.witness["note"]
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert doc["exactness"] == "exact"
    assert_floats_tagged(doc)
    assert '"approx"' not in json.dumps(doc)


def l2_unit_limit(k_max):
    return l2_unit_limit_certificate(pairing_sequence(L2SeqVector, None, k_max))


class TestL2UnitLimit:
    def test_tail_constant_one(self):
        cert = l2_unit_limit(64)
        assert cert.verdict == "established"
        assert cert.witness["tail_constant"] == 1
        assert cert.witness["conclusion"] == "limit != 0"

    def test_window_is_the_checked_tail(self):
        # k_max = 9 checks the tail 6..9 (tail_window = 9 // 2)
        assert l2_unit_limit(9).witness["k_window"] == [6, 9]

    def test_certificates_share_one_window(self):
        windows = [
            ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(16), 9).witness["k_window"],
            pseudomonotone_premise_audit(sawtooth, ZERO, 9).witness["k_window"],
            l2_unit_limit(9).witness["k_window"],
        ]
        assert windows == [[6, 9]] * 3


def outcome(certify, *args):
    """A certificate's verdict, witness and JSON text, or the error it raised."""
    try:
        cert = certify(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return cert.verdict, cert.witness, json.dumps(cert.to_json_dict(), indent=2)


class TestTailWindow:
    """The tail certificates evaluate k = k_max - k_max // 2 + 1..k_max only, and
    judge it as the pairing report of every k = 1..k_max did (conftest's references)."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(8, 80), st.fractions(F(1, 8), 40, max_denominator=60),
           st.integers(0, 81),
           st.sampled_from(["sawtooth", "head-then-constant", "converging", "unit-vectors"]))
    @example(9, F(31, 2), 0, "sawtooth")
    @example(80, F(16), 40, "head-then-constant")  # the head ends where the window 41..80 starts
    @example(80, F(16), 41, "head-then-constant")  # one hat inside the window
    @example(8, F(1), 81, "head-then-constant")
    @example(79, F(3), 0, "unit-vectors")
    @example(80, F(3), 0, "converging")
    def test_certificates_match_the_whole_sequence_references(self, k_max, alpha, cut, kind):
        y, limit = scaled_hat(alpha), ZERO
        if kind == "sawtooth":
            seq = sawtooth
        elif kind == "head-then-constant":
            # hats up to index cut, then the constant 45 - 3 alpha of one sawtooth
            seq = lambda k: scaled_hat(k) if k <= cut else sawtooth(3)
        elif kind == "converging":
            seq, limit = CONVERGING, scaled_hat(1)
        else:
            seq, limit, y = L2SeqVector, None, None
        assert outcome(pseudomonotone_premise_audit, seq, y, k_max) == outcome(
            reference_pseudomonotone_premise_audit, seq, y, k_max)
        # against y = None, Ky-Fan fails alike on the gap at the limit point
        assert outcome(ky_fan_violation_certificate, seq, limit, y, k_max) == outcome(
            reference_ky_fan_violation_certificate, seq, limit, y, k_max)

    @pytest.mark.parametrize("k_max, window", [(8, [5, 8]), (9, [6, 9]), (64, [33, 64])])
    def test_only_the_window_is_evaluated(self, k_max, window):
        for certify in (lambda seq: pseudomonotone_premise_audit(seq, ZERO, k_max),
                        lambda seq: ky_fan_violation_certificate(seq, ZERO, scaled_hat(16), k_max)):
            seen = []
            cert = certify(lambda k: seen.append(k) or sawtooth(k))
            assert seen == list(range(window[0], window[1] + 1))
            assert cert.witness["k_window"] == window and cert.verdict == "established"

    def test_a_head_outside_the_window_is_not_evaluated(self):
        # pairing_sequence, the references' path, fails on k = 1; the window 5..8 never reaches it
        def seq(k):
            if k == 1:
                raise ZeroDivisionError("head evaluated")
            return sawtooth(k)

        assert pseudomonotone_premise_audit(seq, ZERO, 8).witness["tail_constant"] == 45
        with pytest.raises(ZeroDivisionError):
            pairing_sequence(seq, ZERO, 8)

    @pytest.mark.parametrize("k_max", [7, 8.0, True, "8"])
    def test_k_max_is_checked_before_any_pairing(self, k_max):
        for certify in (lambda: pseudomonotone_premise_audit(sawtooth, ZERO, k_max),
                        lambda: ky_fan_violation_certificate(sawtooth, ZERO, ZERO, k_max)):
            with pytest.raises(ValueError, match="^k_max must be an integer >= 8, got "):
                certify()


# (sequence, weak limit, direction y, k_max): pairing reports, one per tail kind
TAIL_REPORTS = {
    "no-tail": (lambda k: sawtooth(1) if k % 2 else scaled_hat(1), ZERO, scaled_hat(30), 16),
    "converging-to-0": (CONVERGING, scaled_hat(1), scaled_hat(1), 64),
    "converging-to-1": (CONVERGING, scaled_hat(1), None, 64),
    "exact-minus-3": (sawtooth, ZERO, scaled_hat(16), 16),
    "exact-0": (sawtooth, ZERO, scaled_hat(15), 16),
}

TAIL_CERTIFICATES = {
    "premise": lambda seq, limit, y, k_max: pseudomonotone_premise_audit(seq, y, k_max),
    "ky-fan": lambda seq, limit, y, k_max: ky_fan_violation_certificate(seq, limit, y, k_max),
    "unit-limit": lambda seq, limit, y, k_max: l2_unit_limit_certificate(
        pairing_sequence(seq, y, k_max)
    ),
}

NO_TAIL = {"note": "could not be finitely determined"}

TAIL_VERDICTS = [
    ("premise", "no-tail", "inconclusive", "exact", NO_TAIL),
    ("ky-fan", "no-tail", "inconclusive", "exact", NO_TAIL),
    ("unit-limit", "no-tail", "inconclusive", "exact", NO_TAIL),
    ("premise", "converging-to-0", "inconclusive", "exact", NO_TAIL),
    ("ky-fan", "converging-to-0", "inconclusive", "exact", NO_TAIL),
    ("unit-limit", "converging-to-0", "inconclusive", "exact", NO_TAIL),
    ("premise", "converging-to-1", "inconclusive", "exact", NO_TAIL),
    ("unit-limit", "converging-to-1", "inconclusive", "exact", NO_TAIL),
    ("premise", "exact-minus-3", "refuted", "exact", {}),
    ("ky-fan", "exact-minus-3", "established", "exact", {}),
    ("unit-limit", "exact-minus-3", "established", "exact", {"conclusion": "limit != 0"}),
    ("premise", "exact-0", "refuted", "exact", {}),
    ("ky-fan", "exact-0", "refuted", "exact", {}),
    ("unit-limit", "exact-0", "refuted", "exact", {"conclusion": "limit = 0"}),
]


@pytest.mark.parametrize(
    "cert, report, verdict, exactness, detail",
    TAIL_VERDICTS,
    ids=[f"{cert}-{report}" for cert, report, *_ in TAIL_VERDICTS],
)
def test_one_verdict_rule_for_every_tail(cert, report, verdict, exactness, detail):
    # Ky-Fan takes no report against y = None; the unit limit judges |tail|
    c = TAIL_CERTIFICATES[cert](*TAIL_REPORTS[report])
    assert (c.verdict, c.exactness) == (verdict, exactness)
    assert {"note", "conclusion"} & c.witness.keys() == detail.keys()
    for key, text in detail.items():
        assert text in c.witness[key]


def assert_floats_tagged(doc):
    """Every float in a JSON document sits alone in an {"approx": true, "value": ...} tag."""
    if isinstance(doc, dict) and "approx" in doc:
        assert doc.keys() == {"approx", "value"} and doc["approx"] is True
        assert type(doc["value"]) is float
    elif isinstance(doc, dict):
        for v in doc.values():
            assert_floats_tagged(v)
    elif isinstance(doc, list):
        for v in doc:
            assert_floats_tagged(v)
    else:
        assert type(doc) is not float


JSON_CERTIFICATES = {
    "holder": lambda: holder_boundedness_check(sawtooth(3), scaled_hat(F(7, 2))),
    "ky-fan-exact": lambda: ky_fan_violation_certificate(sawtooth, ZERO, scaled_hat(16), 16),
}


@pytest.mark.parametrize("name", sorted(JSON_CERTIFICATES))
def test_json_tags_every_float_and_pairs_every_rational(name):
    cert = JSON_CERTIFICATES[name]()
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert_floats_tagged(doc)
    numbers = {k: v for k, v in cert.witness.items() if isinstance(v, (F, float))}
    assert numbers
    for key, v in numbers.items():
        if isinstance(v, float):
            assert doc["witness"][key] == {"approx": True, "value": v}
        else:
            assert doc["witness"][key] == [str(v.numerator), str(v.denominator)]


class TestDerivedLabels:
    """Labels that follow from stored data are derived, so they cannot disagree with it."""

    @pytest.mark.parametrize(
        "witness, exactness",
        [
            ({"lhs": 0.5, "rhs": F(1, 2)}, "approximate"),
            ({"margin": F(3), "k_window": [5, 8], "note": "text", "y": ZERO}, "exact"),
            ({}, "exact"),
        ],
        ids=["float-witness", "exact-witness", "empty-witness"],
    )
    def test_certificate_exactness_follows_its_witness(self, witness, exactness):
        cert = certificates.Certificate("p", "established", witness)
        assert cert.exactness == exactness
        text = json.dumps(cert.to_json_dict())
        assert json.loads(text)["exactness"] == exactness
        assert ('"approx": true' in text) is (exactness == "approximate")
        # a label, not a field: the constructor takes no exactness
        assert "exactness" not in {f.name for f in fields(cert)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(8, 40), st.data())
    def test_pairing_report_labels_follow_values_and_limit(self, k_max, data):
        # x_k = scaled_hat(a_k) pairs against 0 to a_k^3; a constant tail
        # shows up when the drawn scales end in a run of one value
        scales = data.draw(st.lists(st.sampled_from([1, 2]), min_size=k_max, max_size=k_max))
        report = pairing_sequence(lambda k: scaled_hat(scales[k - 1]), None, k_max)
        tail = report.values[-(k_max // 2):]
        limit = tail[0] if len(set(tail)) == 1 else None
        assert report.limit_candidate == limit
        assert report.k_window == [k_max - k_max // 2 + 1, k_max]
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["indices"] == list(range(1, k_max + 1))
        assert doc["tail_window"] == k_max // 2
        assert doc["detection"] == ("none" if limit is None else "eventually-constant")
        assert {f.name for f in fields(report)} == {"values", "limit_candidate"}

    def test_weak_entry_all_zero_is_a_zero_bound_constant(self):
        family = [Monomial(d) for d in range(4)] + dyadic_indicators(2)
        report = weak_convergence_evidence(sawtooth, family, 12)
        docs = report.to_json_dict()["entries"]
        assert [doc["all_zero"] for doc in docs] == [e.bound_constant == 0 for e in report.entries]
        assert {doc["all_zero"] for doc in docs} == {True, False}
        assert "all_zero" not in {f.name for f in fields(report.entries[0])}


class TestMonotoneGap:
    def test_diagonal_zero(self, rng):
        u = random_pw_linear(rng)
        assert monotone_gap_check(u, u) == 0

    def test_against_zero_reduces_to_energy(self):
        assert monotone_gap_check(sawtooth(2), ZERO) == 45

    def test_scalar_kernel_nonnegative(self):
        # pointwise inequality (|a|a - |b|b)(a - b) >= 0 on a grid sweep
        grid = [F(n, 8) for n in range(-24, 25)]
        for a in grid:
            for b in grid:
                assert (abs(a) * a - abs(b) * b) * (a - b) >= 0

    def test_random_pairs_nonnegative(self, rng):
        for _ in range(200):
            u, w = random_pw_linear(rng), random_pw_linear(rng)
            gap = monotone_gap_check(u, w)
            assert isinstance(gap, F) and gap >= 0


class TestConsistencyInvariant:
    def test_no_violation_at_limit_when_premise_tail_nonpositive(self, rng):
        # eventually-constant random sequences: the pairing tail at y = limit
        # is exactly 0, so premise holds and no violation can be established
        for _ in range(30):
            w = random_pw_linear(rng)
            pool = [random_pw_linear(rng) for _ in range(3)]
            seq = lambda k, w=w, pool=pool: pool[k % 3] if k < 6 else w
            premise = pseudomonotone_premise_audit(seq, w, 16)
            kyfan = ky_fan_violation_certificate(seq, w, w, 16)
            if premise.verdict != "established":
                assert kyfan.verdict != "established"


class TestWeakConvergenceEvidence:
    def test_constant_test_function_all_zero(self):
        report = weak_convergence_evidence(sawtooth, [Monomial(0)], 32)
        assert report.entries[0].bound_constant == 0
        assert report.to_json_dict()["entries"][0]["all_zero"] is True

    def test_right_half_support_all_zero(self):
        phi = Indicator(F(1, 2), F(1))
        report = weak_convergence_evidence(sawtooth, [phi], 32)
        assert report.entries[0].bound_constant == 0

    def test_linear_test_function_decay(self):
        report = weak_convergence_evidence(sawtooth, [Monomial(1)], 64)
        entry = report.entries[0]
        # the exact sweep constant for t is 1/4, attained at every k
        assert entry.bound_constant == F(1, 4)
        for k, v in enumerate(entry.integrals, start=1):
            assert abs(v) <= entry.bound_constant / k

    def test_report_is_labeled_evidence(self):
        report = weak_convergence_evidence(sawtooth, [Monomial(2)], 16)
        assert report.verdict == "consistent with weak null convergence"
        assert "evidence" in report.disclaimer
        # fixed texts for every report, not fields a caller could set
        assert {"verdict", "disclaimer"}.isdisjoint(f.name for f in fields(report))
        assert report.to_json_dict()["disclaimer"] == report.disclaimer

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            weak_convergence_evidence(sawtooth, [], 16)

    def test_json_round_trip(self):
        fam = [Monomial(1)] + dyadic_indicators(2)
        report = weak_convergence_evidence(sawtooth, fam, 16)
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["k_max"] == 16
        assert len(doc["entries"]) == len(fam)

    def test_nonpositive_k_max_rejected(self):
        with pytest.raises(ValueError):
            weak_convergence_evidence(sawtooth, [Monomial(1)], 0)

    @pytest.mark.parametrize("k_max", [True, False, 2.0, "4", None])
    def test_k_max_must_be_an_int(self, k_max):
        # the rule of every integer argument: True would sweep k = 1 alone, and
        # 2.0 fail inside range; the message echoes the bad value
        want = f"^k_max must be an integer >= 1, got {re.escape(repr(k_max))}$"
        with pytest.raises(ValueError, match=want):
            weak_convergence_evidence(sawtooth, [Monomial(1)], k_max)

    def test_an_iterator_family_is_read_once(self):
        fam = [Monomial(1)] + dyadic_indicators(2)
        want = weak_convergence_evidence(sawtooth, fam, 16).to_json_dict()
        assert weak_convergence_evidence(sawtooth, iter(fam), 16).to_json_dict() == want
        assert weak_convergence_evidence(sawtooth, (phi for phi in fam), 16).to_json_dict() == want

    @pytest.mark.parametrize("fam", [iter([]), (phi for phi in [])], ids=["iter", "gen"])
    def test_an_empty_iterator_family_is_rejected(self, fam):
        # iter([]) is truthy: it once gave a report with no entries
        with pytest.raises(ValueError, match="^test family must be nonempty$"):
            weak_convergence_evidence(sawtooth, fam, 16)

    def test_calls_test_integral_by_name_once_per_phi_and_k(self, monkeypatch):
        # perfbench/selftest.py replaces certificates.test_integral with a wrong
        # kernel to prove weak-sweep's checks are live; a sweep that bypassed
        # the name would silently pass that check
        calls = []

        def counted(g, phi):
            calls.append(phi)
            return piecewise.test_integral(g, phi)

        monkeypatch.setattr(certificates, "test_integral", counted)
        family = [Monomial(3), Monomial(6)]
        family += dyadic_indicators(2) + [Indicator(F(1, 3), F(5, 7))]
        k_max = 9
        report = weak_convergence_evidence(sawtooth, family, k_max)
        assert len(calls) == len(family) * k_max
        gradients = [derivative(sawtooth(k)) for k in range(1, k_max + 1)]
        for entry, phi in zip(report.entries, family):
            assert entry.integrals == [piecewise.test_integral(g, phi) for g in gradients]

    def test_one_gradient_alive_at_a_time(self, monkeypatch):
        # each gradient is read by every φ and dropped before the next is
        # read: the sweep's memory is linear in k_max, not quadratic
        live, seen = [], []

        def tracked(u):
            g = piecewise.derivative(u)
            live.append(None)
            weakref.finalize(g, live.pop)
            return g

        def counted(g, phi):
            seen.append(len(live))
            return piecewise.test_integral(g, phi)

        monkeypatch.setattr(certificates, "derivative", tracked)
        monkeypatch.setattr(certificates, "test_integral", counted)
        family = [Monomial(0), Monomial(2)] + dyadic_indicators(1)
        weak_convergence_evidence(sawtooth, family, 32)
        assert len(seen) == len(family) * 32
        assert max(seen) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sweep_constant_is_the_fraction_rule(self, data):
        """bound_constant and the JSON's all_zero equal max_k k*|I_k| and all(I_k == 0)."""
        xs = data.draw(sweep_st())
        family = data.draw(st.lists(test_function_st, min_size=1, max_size=4))
        report = weak_convergence_evidence(lambda k: xs[k - 1], family, len(xs))
        docs = report.to_json_dict()["entries"]
        for entry, doc in zip(report.entries, docs, strict=True):
            values = entry.integrals
            assert entry.bound_constant == max(abs(q) * k for k, q in enumerate(values, start=1))
            assert type(entry.bound_constant) is Fraction
            assert doc["all_zero"] is all(q == 0 for q in values) is (entry.bound_constant == 0)


fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=24)

test_function_st = st.one_of(
    st.integers(0, MAX_POLY_DEGREE).map(Monomial),
    st.integers(1, 3).flatmap(lambda level: st.sampled_from(dyadic_indicators(level))),
)


@st.composite
def pw_linear_st(draw):
    interior = sorted(draw(st.sets(st.integers(1, 63), max_size=5)))
    bps = [F(0)] + [F(j, 64) for j in interior] + [F(1)]
    vals = [F(0)] + [draw(fractions_st) for _ in interior] + [F(0)]
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


@st.composite
def sweep_st(draw):
    """x_1..x_k as a list: random functions, zeros among them or all zero, or
    (1/k) g for one g, so that k * |I_k| ties at every k; each x_k takes a
    random sign."""
    k_max = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(["random", "some-zero", "all-zero", "tie"]))
    if mode == "tie":
        g = draw(pw_linear_st())
        xs = [PiecewiseLinearFn(g.breakpoints, tuple(v / k for v in g.values))
              for k in range(1, k_max + 1)]
    elif mode == "all-zero":
        xs = [ZERO] * k_max
    else:
        xs = [draw(pw_linear_st()) for _ in range(k_max)]
        if mode == "some-zero":
            xs = [ZERO if draw(st.booleans()) else x for x in xs]
    return [x if draw(st.booleans()) else PiecewiseLinearFn(x.breakpoints, tuple(-v for v in x.values))
            for x in xs]


class TestHolderBoundedness:
    def test_zero_case(self):
        cert = holder_boundedness_check(ZERO, sawtooth(2))
        assert cert.verdict == "established"

    def test_equality_case(self):
        cert = holder_boundedness_check(sawtooth(3), sawtooth(3))
        assert cert.verdict == "established"
        assert cert.witness["lhs"] == pytest.approx(45.0)
        assert cert.witness["rhs"] == pytest.approx(45.0)

    @pytest.mark.parametrize("nudge, verdict", [(1, "refuted"), (-1, "established")])
    def test_pairing_nudged_off_the_equality_case(self, monkeypatch, nudge, verdict):
        # u = w is an equality case: a pairing 2^-40 above the bound breaches it,
        # which a relative float tolerance of 1e-9 would let pass
        exact = certificates.plap_pairing
        monkeypatch.setattr(certificates, "plap_pairing",
                            lambda u, w: exact(u, w) * (1 + nudge * F(1, 2**40)))
        u = sawtooth(3)
        assert holder_boundedness_check(u, u).verdict == verdict

    def test_random_pairs(self, rng):
        for _ in range(100):
            cert = holder_boundedness_check(random_pw_linear(rng), random_pw_linear(rng))
            assert cert.verdict == "established"
            assert cert.exactness == "approximate"
