"""Executable certificates for operator properties along explicit sequences.

A certificate never claims more than it checked: a limit of an infinite
sequence is only accepted when the computed tail is exactly constant,
and anything else is reported as inconclusive.  Every verdict is decided
on exact rationals; only the Hölder check's witnesses, whose norms take
cube roots, are floats.  All verdicts carry concrete witness data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, List, Optional, Union

from .families import L2SeqVector, l2_pairing
from .piecewise import (
    Indicator,
    Monomial,
    PiecewiseLinearFn,
    _integer,
    _rational,
    _union_sum,
    derivative,
    plap_pairing,
    pow_norm,
    test_integral,
)

MIN_K_MAX = 8  # shortest sequence whose tail is long enough to analyse

PROP_KY_FAN_VIOLATION = "ky_fan_violation"
PROP_PREMISE_FAILS = "pseudomonotone_premise_fails"
PROP_BOUNDED_HOLDER = "bounded_holder"
PROP_L2_UNIT_LIMIT = "l2_unit_limit"

# a sequence is any callable k -> x_k: sawtooth, L2SeqVector or a lambda
FunctionSequence = Callable[[int], Union[PiecewiseLinearFn, L2SeqVector]]


def equilibrium_gap(x: PiecewiseLinearFn, y: PiecewiseLinearFn) -> Fraction:
    """Gap functional <F(x), x - y> of the equilibrium reformulation.

    Computed as ∫ |x'| x' (x' - y') in one pass over the union grid; the
    pairing is linear in its second argument, so this equals pairing x
    against x - y, exactly, without forming x - y.
    """
    return _union_sum(x, y, lambda c, d: abs(c) * c * (c - d))


def monotone_gap_check(u: PiecewiseLinearFn, w: PiecewiseLinearFn) -> Fraction:
    """<F(u) - F(w), u - w>, exact; nonnegative for this operator."""
    return _union_sum(u, w, lambda c, d: (abs(c) * c - abs(d) * d) * (c - d))


@dataclass
class PairingSequenceReport:
    """The sequence <F(x_k), x_k - y> for k = 1..k_max, with its tail limit.

    ``values`` holds k = 1..k_max in order; ``limit_candidate`` is the value
    of the last k_max // 2 of them when they are all equal, else None.
    """

    values: List[Fraction]
    limit_candidate: Optional[Fraction]

    @property
    def k_window(self) -> List[int]:
        """First and last index of the tail the limit was detected on."""
        k_max = len(self.values)
        return [k_max - k_max // 2 + 1, k_max]

    def to_json_dict(self) -> dict:
        k_max = len(self.values)
        limit = self.limit_candidate
        return {
            "indices": list(range(1, k_max + 1)),
            "values": [_frac_pair(v) for v in self.values],
            "limit_candidate": None if limit is None else _frac_pair(limit),
            "detection": "none" if limit is None else "eventually-constant",
            "tail_window": k_max // 2,
        }


def _frac_pair(q: Fraction) -> list:
    # canonical serialization: reduced fraction, sign on the numerator
    return [str(q.numerator), str(q.denominator)]


def _pairings(seq: FunctionSequence, y: Optional[PiecewiseLinearFn], ks: range) -> List[Fraction]:
    """<F(x_k), x_k - y> exactly for each k in ks; y = None is the zero element, the
    one y a unit-vector sequence pairs with, under the identity."""
    y_fn = PiecewiseLinearFn.zero() if y is None else y
    values = []
    for k in ks:
        x_k = seq(k)
        if isinstance(x_k, L2SeqVector):
            if y is not None:
                raise TypeError("unit-vector sequences pair only with y = None")
            values.append(l2_pairing(x_k, x_k))
        else:
            values.append(equilibrium_gap(x_k, y_fn))
    return values


def _limit(tail: List[Fraction]) -> Optional[Fraction]:
    """The one limit rule: the common value of the tail, else None."""
    return tail[0] if tail.count(tail[0]) == len(tail) else None


def pairing_sequence(
    seq: FunctionSequence,
    y: Optional[PiecewiseLinearFn],
    k_max: int,
) -> PairingSequenceReport:
    """Evaluate <F(x_k), x_k - y> exactly for k = 1..k_max.

    For the unit-vector sequence the operator is the identity and y must
    be the zero element (pass None).  The limit is the value of the last
    k_max // 2 values when they are all equal, and None otherwise.
    """
    _integer("k_max", k_max, MIN_K_MAX)
    values = _pairings(seq, y, range(1, k_max + 1))
    return PairingSequenceReport(values, _limit(values[-(k_max // 2):]))


@dataclass
class Certificate:
    """Outcome of a property check: verdict plus concrete witness data."""

    property: str
    verdict: str  # "established" | "refuted" | "inconclusive"
    witness: dict = field(default_factory=dict)

    @property
    def exactness(self) -> str:
        """The label the witness earns: approximate iff a value in it is a float."""
        floats = any(isinstance(v, float) for v in self.witness.values())
        return "approximate" if floats else "exact"

    def to_json_dict(self) -> dict:
        witness = {}
        for key, val in self.witness.items():
            if isinstance(val, float):
                witness[key] = {"approx": True, "value": val}
            elif isinstance(val, Fraction):
                witness[key] = _frac_pair(val)
            elif isinstance(val, PiecewiseLinearFn):
                witness[key] = val.to_json_dict()
            else:
                witness[key] = val
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witness": witness,
            "exactness": self.exactness,
        }


def _tail_certificate(prop: str, v: Optional[Fraction], witness: dict) -> Certificate:
    """The one verdict rule for a detected tail: established iff v > 0.

    Inconclusive when no tail was detected (v is None).
    """
    if v is None:
        witness["note"] = (
            "no tail limit detected; the sequence limit could not be finitely determined"
        )
        return Certificate(prop, "inconclusive", witness)
    return Certificate(prop, "established" if v > 0 else "refuted", witness)


def ky_fan_violation_certificate(
    seq: FunctionSequence,
    limit: PiecewiseLinearFn,
    y: PiecewiseLinearFn,
    k_max: int = 64,
) -> Certificate:
    """Check whether x -> <F(x), x - y> fails to be lower semicontinuous
    along the given sequence (whose weak limit is asserted externally).

    Established means: the pairings at k = k_max - k_max // 2 + 1..k_max, the only
    k evaluated, share a value L that the gap at the limit exceeds, by an exact margin.
    """
    lo = _integer("k_max", k_max, MIN_K_MAX) - k_max // 2 + 1
    tail = _limit(_pairings(seq, y, range(lo, k_max + 1)))
    witness = {"y": y, "k_window": [lo, k_max], "tail_constant": tail}
    margin = None
    if tail is not None:
        gap_at_limit = equilibrium_gap(limit, y)
        margin = gap_at_limit - tail
        witness.update(gap_at_limit=gap_at_limit, margin=margin)
    return _tail_certificate(PROP_KY_FAN_VIOLATION, margin, witness)


def pseudomonotone_premise_audit(
    seq: FunctionSequence,
    limit: Optional[PiecewiseLinearFn],
    k_max: int = 64,
) -> Certificate:
    """Audit the limsup premise <F(x_k), x_k - x> <= 0 along a sequence.

    Established means the premise FAILS: the pairings share one value on the
    same window as the Ky-Fan certificate's, and it is strictly positive, so
    the pseudomonotonicity implication is vacuous along this sequence.
    """
    lo = _integer("k_max", k_max, MIN_K_MAX) - k_max // 2 + 1
    tail = _limit(_pairings(seq, limit, range(lo, k_max + 1)))
    witness = {"k_window": [lo, k_max], "tail_constant": tail}
    return _tail_certificate(PROP_PREMISE_FAILS, tail, witness)


def l2_unit_limit_certificate(report: PairingSequenceReport) -> Certificate:
    """Judge the pairings <e_k, e_k - 0> under the identity operator: constant 1.

    ``report`` is ``pairing_sequence(L2SeqVector, None, k_max)``.  The
    sequence converges (it is constant), but its limit is 1, not 0 -- so
    vanishing of the pairing sequence cannot be taken for granted for
    weakly null sequences.  "limit != 0" means |tail| > 0.
    """
    tail = report.limit_candidate
    witness = {"tail_constant": tail, "k_window": report.k_window}
    size = None if tail is None else abs(tail)
    cert = _tail_certificate(PROP_L2_UNIT_LIMIT, size, witness)
    if cert.verdict != "inconclusive":
        witness["conclusion"] = "limit != 0" if cert.verdict == "established" else "limit = 0"
    return cert


def holder_boundedness_check(
    u: PiecewiseLinearFn, w: PiecewiseLinearFn
) -> Certificate:
    """Check |<F(u), w>| <= ||u'||^2 * ||w'|| in the cubic-mean norms.

    Decided exactly, with both sides cubed: with the pairing a/b and the
    cubed norms c/d = ∫|u'|^3 and e/f = ∫|w'|^3 as reduced pairs, the bound
    holds iff |a|^3 d^2 f <= c^2 e b^3, in integers.  The witnesses lhs and
    rhs are the two sides as floats, cube roots taken.
    """
    a, b = plap_pairing(u, w).as_integer_ratio()
    c, d = pow_norm(derivative(u), 3).as_integer_ratio()
    e, f = pow_norm(derivative(w), 3).as_integer_ratio()
    ok = abs(a) ** 3 * d**2 * f <= c**2 * e * b**3
    rhs = (c / d) ** (2.0 / 3.0) * (e / f) ** (1.0 / 3.0)
    return Certificate(
        PROP_BOUNDED_HOLDER,
        "established" if ok else "refuted",
        witness={"lhs": abs(a / b), "rhs": rhs},
    )


@dataclass
class WeakConvergenceEntry:
    phi: Union[Monomial, Indicator]
    integrals: List[Fraction]
    bound_constant: Fraction  # smallest C with |integral_k| <= C/k on the sweep


@dataclass
class WeakConvergenceReport:
    """Exact test integrals of the sequence's derivatives: decay evidence.

    This is EVIDENCE for weak null convergence of the derivatives, not a
    proof; weak convergence quantifies over all dual elements and is not
    finitely certifiable.
    """

    entries: List[WeakConvergenceEntry]
    k_max: int

    # a fixed label, not a test: every sweep constant is a finite rational
    verdict: ClassVar[str] = "consistent with weak null convergence"
    disclaimer: ClassVar[str] = (
        "evidence only: finitely many test integrals cannot prove weak convergence"
    )

    def to_json_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "verdict": self.verdict,
            "disclaimer": self.disclaimer,
            "entries": [
                {
                    "phi": e.phi.describe(),
                    "bound_constant": _frac_pair(e.bound_constant),
                    "all_zero": e.bound_constant.numerator == 0,
                    # each integral's reduced pair read once, without a call per value
                    "integrals": [
                        [str(a), str(b)] for a, b in map(Fraction.as_integer_ratio, e.integrals)
                    ],
                }
                for e in self.entries
            ],
        }


def weak_convergence_evidence(
    seq: FunctionSequence,
    test_family: Iterable[Union[Monomial, Indicator]],
    k_max: int = 64,
) -> WeakConvergenceReport:
    """Sweep ∫ x_k'(t) φ(t) dt exactly for every φ and k = 1..k_max.

    For each φ the report carries the sharp sweep constant
    C_φ = max_k k * |integral_k|, so |integral_k| <= C_φ/k on the sweep.
    One gradient x_k' is alive at a time, so memory is linear in k_max * |Φ|;
    ``certificates.test_integral`` is called by name once per (k, φ), and the
    constant is compared in integers on each result's ``as_integer_ratio()``.
    """
    test_family = list(test_family)  # an iterator is read once, and can be empty
    if not test_family:
        raise ValueError("test family must be nonempty")
    _integer("k_max", k_max, 1)
    rows = [[test_integral(g, phi) for phi in test_family]
            for g in map(derivative, map(seq, range(1, k_max + 1)))]
    entries = []
    for phi, integrals in zip(test_family, map(list, zip(*rows))):
        # C_φ as top/den, compared by cross-multiplying k * |a| / b in integers,
        # each integral's reduced pair (a, b) read once
        top, den = 0, 1
        for k, (a, b) in enumerate(map(Fraction.as_integer_ratio, integrals), start=1):
            num = k * abs(a)
            if num * den > top * b:
                top, den = num, b
        entries.append(WeakConvergenceEntry(phi, integrals, _rational(top, den)))
    return WeakConvergenceReport(entries=entries, k_max=k_max)
