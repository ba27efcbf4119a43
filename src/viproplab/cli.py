"""Command-line surface of the lab.

Exit codes are a contract: 0 success, 1 identity mismatch / certificate
not established, 2 inconclusive detection, 3 malformed argument or problem
file, a size past the memory, or output that cannot be written: an --out
path (a missing directory, a path that is a directory) or stdout (a full
device), 4 solver non-convergence.  No newline translation in output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

from . import certificates as certs
from . import solver as vis
from .families import HAT_PAIRING_SLOPE, SAWTOOTH_ENERGY, L2SeqVector
from .families import gap_negativity_threshold, sawtooth, scaled_hat
from .piecewise import (
    MAX_DYADIC_LEVEL,
    MAX_POLY_DEGREE,
    Monomial,
    PiecewiseLinearFn,
    as_fraction,
    derivative,
    dyadic_indicators,
    pow_norm,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 3
EXIT_NO_CONVERGENCE = 4


def _verdict_exit(*certificates: certs.Certificate) -> int:
    """The exit code of the certificates: that of the worst verdict among them."""
    codes = {"established": EXIT_OK, "refuted": EXIT_MISMATCH, "inconclusive": EXIT_INCONCLUSIVE}
    return max(codes[c.verdict] for c in certificates)


# argparse echoes some arguments unquoted (an unrecognized one, say): a line
# break in one is written as its escape, so that the error stays one line
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors print one line and exit with EXIT_PARSE."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message.translate(_LINE_BREAKS)}\n")

    def print_help(self, file=None):
        # through the CLI's one writer, so a failed write exits EXIT_PARSE; argparse's
        # own writer swallows the OSError and --help would exit 0 having written nothing
        _write(self.format_help(), None)


def _int_in(lo: int, hi: Optional[int] = None):
    """Argument type: an integer in lo..hi, unbounded above when hi is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            wanted = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value

    return parse


def _echo(text: str) -> str:
    """An argument for an error line: quoted, and cut after 32 characters."""
    if len(text) <= 32:
        return repr(text)
    return f"{text[:32]!r}... ({len(text)} characters)"


@functools.lru_cache(maxsize=4)
def _digit_bound(limit: int) -> int:
    """10**(limit - 2), the least integer too long for alpha; built once per limit."""
    return 10 ** (limit - 2)


def _positive_rational(text: str) -> Fraction:
    # str() refuses integers longer than this limit (0 means no limit, and
    # Python before 3.10.7 has none); alpha/2, 3*alpha and 45 - 3*alpha print
    # with at most two digits more than alpha
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = (
        f"numerator and denominator must have at most {limit - 2} digits, got {_echo(text)}"
    )
    try:
        value = as_fraction(text)
    except ValueError:
        # "p/0" included; Fraction reads digits with int(), which the same limit stops
        if limit and re.search(r"\d{%d}" % (limit - 1), text.replace("_", "")):
            raise argparse.ArgumentTypeError(too_long) from None
        raise argparse.ArgumentTypeError(f"not a rational p/q: {_echo(text)}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {_echo(text)}")
    if limit and max(value.numerator, value.denominator) >= _digit_bound(limit):
        raise argparse.ArgumentTypeError(too_long)
    return value


def _write(text: str, out: Optional[str]) -> None:
    """The CLI's one writer: text to the file out, or to stdout, flushed; on OSError EXIT_PARSE."""
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write output file: {exc}", file=sys.stderr)
        if not out:  # stdout keeps the bytes it could not write, and would fail on them
            try:  # again at interpreter exit (exit 120): its descriptor goes to the null device
                with open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
            except (OSError, ValueError):  # a stand-in stdout has no descriptor
                pass
        raise SystemExit(EXIT_PARSE) from None


# the C escaper behind json.dumps's default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii
# json.dumps's words for the floats whose repr is nan, inf or -inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, nl: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2), built with one join per container.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writes the same bytes for str-keyed dicts, lists, tuples, str, int,
    float, bool and None, and hands anything else to json.dumps.  nl is a
    newline plus the indent of obj's own level.  A list item that is a list
    of two strings, the lab's rational pair, is written in place, and so is
    one whose type is exactly float, such as each entry of solve's x.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        pair_open, pair_sep, pair_close = "[" + inner + "  ", "," + inner + "  ", inner + "]"
        items = [
            _escape(v) if type(v) is str
            else pair_open + _escape(v[0]) + pair_sep + _escape(v[1]) + pair_close
            if type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is str
            else _NONFINITE.get(t := float.__repr__(v), t) if type(v) is float
            else _json_text(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [
            _escape(k) + ": " + (_escape(v) if type(v) is str else _json_text(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    # the nested text of json.dumps is its top-level text indented at every newline
    return json.dumps(obj, indent=2).replace("\n", nl)


def _emit(doc, out: Optional[str]) -> None:
    _write(_json_text(doc) + "\n", out)


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Tabulate the derivative cubed-norm and the equilibrium gap per index."""
    v = scaled_hat(args.alpha)
    expected_gap = SAWTOOTH_ENERGY - HAT_PAIRING_SLOPE * args.alpha
    rows = []
    bad_k = None
    for k in range(1, args.kmax + 1):
        u = sawtooth(k)
        norm3 = pow_norm(derivative(u), 3)
        gap = certs.equilibrium_gap(u, v)
        rows.append((k, norm3, gap))
        if bad_k is None and (norm3 != SAWTOOTH_ENERGY or gap != expected_gap):
            bad_k = k
    if args.format == "csv":
        lines = ["k,grad_norm_cubed,gap"]
        lines += [f"{k},{n},{g}" for k, n, g in rows]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            {
                "alpha": str(args.alpha),
                "expected": {
                    "grad_norm_cubed": str(SAWTOOTH_ENERGY),
                    "gap": str(expected_gap),
                },
                "rows": [
                    {"k": k, "grad_norm_cubed": str(n), "gap": str(g)}
                    for k, n, g in rows
                ],
                "all_match": bad_k is None,
            },
            args.out,
        )
    if bad_k is not None:
        print(f"identity mismatch at k={bad_k}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    """Emit the lower-semicontinuity violation and premise-failure certificates."""
    limit = PiecewiseLinearFn.zero()
    y = scaled_hat(args.alpha)
    kyfan = certs.ky_fan_violation_certificate(sawtooth, limit, y, k_max=args.kmax)
    premise = certs.pseudomonotone_premise_audit(sawtooth, limit, k_max=args.kmax)
    _emit(
        {
            "alpha": str(args.alpha),
            "negativity_threshold": str(gap_negativity_threshold()),
            "ky_fan_violation": kyfan.to_json_dict(),
            "premise_audit": premise.to_json_dict(),
        },
        args.out,
    )
    return _verdict_exit(kyfan, premise)


def cmd_weak_evidence(args: argparse.Namespace) -> int:
    """Exact test-integral sweep of the sawtooth derivatives."""
    family = [Monomial(d) for d in range(args.degree_max + 1)]
    for level in range(1, args.indicator_level + 1):
        family += dyadic_indicators(level)
    if not family:
        _parser().error("weak-evidence: empty test family (no monomials, no indicators)")
    report = certs.weak_convergence_evidence(sawtooth, family, args.kmax)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    """Write plot data: nodal values of u_k and step data of its derivative."""
    u = sawtooth(args.k)
    du = derivative(u)
    # CSV with CRLF line ends; no str(Fraction) holds a comma or a quote, so none is quoted
    nodes = ["t,value"] + [f"{t},{v}" for t, v in zip(u.breakpoints, u.values)]
    _write("\r\n".join(nodes) + "\r\n", f"{args.out}_nodes.csv")
    t = du.breakpoints
    steps = ["t_left,t_right,t_mid,value"]
    steps += [f"{a},{b},{(a + b) / 2},{c}" for a, b, c in zip(t, t[1:], du.interval_values)]
    _write("\r\n".join(steps) + "\r\n", f"{args.out}_steps.csv")
    return EXIT_OK


def cmd_remark32(args: argparse.Namespace) -> int:
    """Identity operator on the sequence space, paired along unit vectors."""
    report = certs.pairing_sequence(L2SeqVector, None, max(args.kmax, certs.MIN_K_MAX))
    cert = certs.l2_unit_limit_certificate(report)
    values = enumerate(report.values[:args.kmax], start=1)
    lines = [f"k={k}: <F(e_k), e_k - 0> = {v}" for k, v in values]
    tail = cert.witness["tail_constant"]
    if tail is not None:
        lines.append(f"detected limit: {tail}")
    verdict = {"established": "limit not zero", "refuted": "limit zero"}.get(cert.verdict)
    lines.append(f"verdict: {verdict or cert.verdict}")
    _write("\n".join(lines) + "\n", None)
    return _verdict_exit(cert)


def cmd_solve(args: argparse.Namespace) -> int:
    """Solve the discretized VI in a problem file by spectral projected gradient."""
    try:
        vi = vis.load_problem(args.problem)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"cannot parse problem file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # an input near the largest float overflows inside the solve; the exit
    # code and the non-finite residual written as null report it, not numpy
    with vis.np.errstate(over="ignore", invalid="ignore"):
        result = vis.spg_solve(vi)
    _emit(result.to_json_dict(), args.out)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="viproplab",
        description="Verification lab for variational-inequality operator properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="check the exact norm and gap identities")
    p.add_argument("--kmax", type=_int_in(1), default=64)
    p.add_argument("--alpha", type=_positive_rational, default=Fraction(16))
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(run=cmd_reproduce)

    p = sub.add_parser("certify", help="emit property certificates along the sawtooth sequence")
    p.add_argument("--kmax", type=_int_in(certs.MIN_K_MAX), default=64)
    p.add_argument("--alpha", type=_positive_rational, default=Fraction(16))
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("weak-evidence", help="exact test-integral decay sweep")
    p.add_argument("--kmax", type=_int_in(1), default=64)
    p.add_argument("--degree-max", type=_int_in(-1, MAX_POLY_DEGREE), default=5)
    p.add_argument("--indicator-level", type=_int_in(0, MAX_DYADIC_LEVEL), default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_weak_evidence)

    p = sub.add_parser("figure", help="write plot data files for one sawtooth index")
    p.add_argument("--k", type=_int_in(1), default=4)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(run=cmd_figure)

    p = sub.add_parser("remark32", help="unit-vector sequence check in the sequence space")
    p.add_argument("--kmax", type=_int_in(1), default=64)
    p.set_defaults(run=cmd_remark32)

    p = sub.add_parser("solve", help="solve a discretized VI problem file")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_solve)

    return parser


# one parser per process; argparse looks up stdout and stderr when it writes
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except MemoryError:  # the line is written after the handler, which frees the command's data
        pass
    print(f"{parser.prog} {args.command}: error: out of memory at this size", file=sys.stderr)
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
