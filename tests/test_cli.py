import argparse
import contextlib
import csv
import enum
import errno
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from viproplab import (
    Indicator,
    Monomial,
    PiecewiseLinearFn,
    cli,
    derivative,
    extragradient_solve,
    load_problem,
    residual,
    sawtooth,
)
from viproplab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_MISMATCH,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from viproplab.certificates import Certificate, weak_convergence_evidence
from viproplab.piecewise import ExactReal

F = Fraction


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_out_file(argv, code, digest, path, capsys):
    """With --out, the file holds the pinned stdout bytes and stdout stays empty."""
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestReproduce:
    def test_default_alpha(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["reproduce", "--kmax", "16", "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["all_match"] is True
        assert doc["expected"] == {"grad_norm_cubed": "45", "gap": "-3"}
        assert all(r["grad_norm_cubed"] == "45" for r in doc["rows"])
        assert all(r["gap"] == "-3" for r in doc["rows"])

    def test_threshold_alpha(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["reproduce", "--kmax", "8", "--alpha", "15", "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert all(r["gap"] == "0" for r in doc["rows"])

    def test_alpha_20_negative_constant(self, capsys):
        assert main(["reproduce", "--kmax", "4", "--alpha", "20"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert all(r["gap"] == "-15" for r in doc["rows"])

    def test_rational_alpha(self, capsys):
        assert main(["reproduce", "--kmax", "4", "--alpha", "31/2"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert all(r["gap"] == "-3/2" for r in doc["rows"])

    def test_csv_format(self, tmp_path):
        out = tmp_path / "rep.csv"
        assert (
            main(["reproduce", "--kmax", "3", "--alpha", "16", "--format", "csv", "--out", str(out)])
            == EXIT_OK
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,grad_norm_cubed,gap"
        assert lines[1:] == ["1,45,-3", "2,45,-3", "3,45,-3"]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["reproduce", "--kmax", "12", "--out", str(a)])
        main(["reproduce", "--kmax", "12", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of stdout before the pairings shared one union-grid sum and pow_norm the integer view
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "15ed8454b8b4f02084709d8a6d2cd6c791d2d44fa5cc3a939cb1e4716e5d5529"),
            (
                ["--format", "csv", "--alpha", "31/2", "--kmax", "20"],
                "9da7093c29102edbf078145380ceb8e97ecb2e6a92faa141f431d78f901e9863",
            ),
        ],
        ids=["defaults", "csv-alpha31_2-kmax20"],
    )
    def test_stdout_bytes_pinned(self, argv, digest, capsys, tmp_path):
        assert main(["reproduce", *argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        check_out_file(["reproduce", *argv], EXIT_OK, digest, tmp_path / "r.out", capsys)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_identity_mismatch(self, monkeypatch, capsys, fmt):
        # a pow_norm that is wrong at k = 3 alone: every row is still written
        real = cli.pow_norm
        wrong_at = derivative(sawtooth(3)).breakpoints
        monkeypatch.setattr(
            cli, "pow_norm", lambda f, p: real(f, p) + (f.breakpoints == wrong_at)
        )
        assert main(["reproduce", "--kmax", "5", "--format", fmt]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.err == "identity mismatch at k=3\n"
        if fmt == "json":
            doc = json.loads(captured.out)
            assert doc["all_match"] is False
            assert [r["grad_norm_cubed"] for r in doc["rows"]] == ["45", "45", "46", "45", "45"]
        else:
            assert captured.out.splitlines()[1:] == ["1,45,-3", "2,45,-3", "3,46,-3", "4,45,-3",
                                                      "5,45,-3"]


class TestCertify:
    def test_alpha_16_established(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["certify", "--alpha", "16", "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["negativity_threshold"] == "15"
        ky = doc["ky_fan_violation"]
        pm = doc["premise_audit"]
        assert ky["verdict"] == "established"
        assert ky["witness"]["margin"] == ["3", "1"]
        assert pm["verdict"] == "established"
        assert pm["witness"]["tail_constant"] == ["45", "1"]

    def test_alpha_10_refuted(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["certify", "--alpha", "10", "--out", str(out)]) == EXIT_MISMATCH
        assert read_json(out)["ky_fan_violation"]["verdict"] == "refuted"

    def test_alpha_15_boundary_refuted(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["certify", "--alpha", "15", "--out", str(out)]) == EXIT_MISMATCH

    def test_inconclusive_exit_code(self, monkeypatch, tmp_path):
        import viproplab.cli as cli_mod

        def fake_cert(*args, **kwargs):
            return Certificate("ky_fan_violation", "inconclusive", {"note": "n/a"})

        monkeypatch.setattr(cli_mod.certs, "ky_fan_violation_certificate", fake_cert)
        out = tmp_path / "c.json"
        assert main(["certify", "--alpha", "16", "--out", str(out)]) == EXIT_INCONCLUSIVE

    # each tail certificate pairs only its window, the last K // 2 indices, and Ky-Fan
    # adds the gap at the limit point
    @pytest.mark.parametrize("kmax, calls", [(8, 9), (9, 9), (64, 65)])
    def test_equilibrium_gap_calls(self, kmax, calls, monkeypatch, capsys):
        import viproplab.certificates as certs_mod

        counted = []
        real = certs_mod.equilibrium_gap

        def counting(*args):
            counted.append(args)
            return real(*args)

        monkeypatch.setattr(certs_mod, "equilibrium_gap", counting)
        monkeypatch.setattr(certs_mod, "pairing_sequence", None)  # certify never calls it
        assert main(["certify", "--kmax", str(kmax)]) == EXIT_OK
        assert len(counted) == 2 * (kmax // 2) + 1 == calls
        assert json.loads(capsys.readouterr().out)["premise_audit"]["verdict"] == "established"

    # SHA-256 of stdout before the pairings shared one union-grid sum and pow_norm the integer view
    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                ["--alpha", "16"],
                EXIT_OK,
                "37312abc48c93aa1429e37b782229ba5fab77d49f749cfef44c4b94903bd359a",
            ),
            (
                ["--alpha", "10", "--kmax", "40"],
                EXIT_MISMATCH,
                "c0ab0324ab9453a9865bfa6a16ea03bbfccecd8f9b93c19f9e2f8945564f2684",
            ),
        ],
        ids=["alpha16", "alpha10-kmax40"],
    )
    def test_stdout_bytes_pinned(self, argv, code, digest, capsys, tmp_path):
        assert main(["certify", *argv]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        check_out_file(["certify", *argv], code, digest, tmp_path / "c.json", capsys)


class TestWeakEvidence:
    def test_report_written(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(
            ["weak-evidence", "--kmax", "16", "--degree-max", "2", "--indicator-level", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = read_json(out)
        assert doc["verdict"] == "consistent with weak null convergence"
        # monomials t^0..t^2 plus dyadic levels 1 and 2
        assert len(doc["entries"]) == 3 + 2 + 4

    # work counted, not timed: every rational the sweep makes (152 integrals,
    # 19 sweep constants, 28 dyadic ends here) is built from an integer pair
    # by piecewise._rational, and none by Fraction's generic constructor
    def test_no_fraction_constructor_calls(self, capsys, monkeypatch):
        cli._parser()  # the parser's defaults are built once per process, not per run
        new, calls = Fraction.__new__, []

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        argv = ["weak-evidence", "--kmax", "8", "--degree-max", "4", "--indicator-level", "3"]
        assert main(argv) == EXIT_OK
        assert calls == []
        assert json.loads(capsys.readouterr().out)["k_max"] == 8


    # SHA-256 of stdout before test_integral read a cached integer view
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "c3990293385ca5f5f5d9bb361373aef65a0385378decab4d70b1552fc1084eb8"),
            (
                ["--kmax", "16", "--degree-max", "8", "--indicator-level", "6"],
                "f0443b79a03c6f5bdae416f42f68511bb79bf88e1a4e5a979cc1cd939533ba25",
            ),
        ],
        ids=["defaults", "kmax16-degree8-level6"],
    )
    def test_stdout_bytes_pinned(self, argv, digest, capsys, tmp_path):
        assert main(["weak-evidence", *argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        check_out_file(["weak-evidence", *argv], EXIT_OK, digest, tmp_path / "w.json", capsys)


class TestFigure:
    def test_k4_files(self, tmp_path):
        prefix = str(tmp_path / "fig")
        assert main(["figure", "--k", "4", "--out", prefix]) == EXIT_OK
        with open(prefix + "_nodes.csv", newline="") as fh:
            nodes = list(csv.reader(fh))
        with open(prefix + "_steps.csv", newline="") as fh:
            steps = list(csv.reader(fh))
        assert nodes[0] == ["t", "value"]
        assert len(nodes) - 1 == 10  # 9 nodes on [0,1/2] plus the endpoint
        assert steps[0] == ["t_left", "t_right", "t_mid", "value"]
        assert [row[3] for row in steps[1:]] == ["6", "-3"] * 4 + ["0"]

    def test_round_trip_rebuilds_sawtooth(self, tmp_path):
        for k in (1, 4, 9):
            prefix = str(tmp_path / f"fig{k}")
            main(["figure", "--k", str(k), "--out", prefix])
            with open(prefix + "_nodes.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            bps = tuple(F(r[0]) for r in rows)
            vals = tuple(F(r[1]) for r in rows)
            assert PiecewiseLinearFn(bps, vals) == sawtooth(k)

    # SHA-256 of both files before the CLI printed rationals with str(Fraction)
    @pytest.mark.parametrize(
        "k, nodes_digest, steps_digest",
        [
            (1, "cae1d82b4295ec51a8295681be0182279b5c06361e7ec563fb7e08658f915232",
             "688a55c251803c72674519fd72f0ecaca758221d04ba8f020d4671663c628108"),
            (4, "dd32c0f6c664b5622d77bb62e5a8cc12078a3d63717befa22d244e71aa20b946",
             "af06d39620a21424d8f33f496ebc07443703fe67d3da0498d85c7deb652c8ccf"),
            (9, "711b486b2508e61273247d75c0858f0d5c043290f2614905c4640a83130ec196",
             "dae2d1f04ef5b01290e68caf13dcc42588d3aa4179bf5d91860dc40cef3474f3"),
        ],
    )
    def test_file_bytes_pinned(self, k, nodes_digest, steps_digest, tmp_path):
        prefix = tmp_path / "fig"
        assert main(["figure", "--k", str(k), "--out", str(prefix)]) == EXIT_OK
        for suffix, digest in (("_nodes.csv", nodes_digest), ("_steps.csv", steps_digest)):
            data = (tmp_path / f"fig{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix


class TestRemark32:
    def test_constant_ones_and_verdict(self, capsys):
        assert main(["remark32", "--kmax", "12"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "k=1: <F(e_k), e_k - 0> = 1"
        assert lines[11] == "k=12: <F(e_k), e_k - 0> = 1"
        assert "detected limit: 1" in out
        assert "verdict: limit not zero" in out

    def test_pairings_computed_once(self, monkeypatch, capsys):
        import viproplab.certificates as certs_mod

        calls = []
        real = certs_mod.pairing_sequence

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(certs_mod, "pairing_sequence", counting)
        assert main(["remark32", "--kmax", "12"]) == EXIT_OK
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("k=1: <F(e_k), e_k - 0> = 1\n")

    # SHA-256 of stdout before every tail certificate shared one verdict rule
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "d932df7acfa1bc3100f678689bcfbeab92d61959a17288665174d134fc0ac97a"),
            (["--kmax", "5"], "1b5a61e1389ec08649a60475a4e464dd9c889512616afb4e24090f3ba73859e2"),
        ],
        ids=["defaults", "kmax5"],
    )
    def test_stdout_bytes_pinned(self, argv, digest, capsys):
        assert main(["remark32", *argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # a faulty pairing: the exit code follows the certificate, as for certify
    def test_zero_limit_exits_mismatch(self, monkeypatch, capsys):
        import viproplab.certificates as certs_mod

        monkeypatch.setattr(certs_mod, "l2_pairing", lambda a, b: Fraction(0))
        assert main(["remark32", "--kmax", "12"]) == EXIT_MISMATCH
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["detected limit: 0", "verdict: limit zero"]

    def test_undetected_limit_exits_inconclusive(self, monkeypatch, capsys):
        import viproplab.certificates as certs_mod

        monkeypatch.setattr(certs_mod, "l2_pairing", lambda a, b: Fraction(a.index % 2))
        assert main(["remark32", "--kmax", "12"]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:2] == ["k=1: <F(e_k), e_k - 0> = 1", "k=2: <F(e_k), e_k - 0> = 0"]
        assert lines[12:] == ["verdict: inconclusive"]
        assert "detected limit" not in captured.out and captured.err == ""


MALFORMED_ARGS = [
    ["certify", "--kmax", "4"],
    ["certify", "--alpha", "-1"],
    ["certify", "--alpha", "1/0"],
    ["certify", "--alpha", "1e5000"],
    ["certify", "--alpha", "1e-5000"],
    ["reproduce", "--alpha", "0"],
    ["reproduce", "--kmax", "0"],
    ["reproduce", "--kmax", "abc"],
    ["reproduce", "--alpha", "1e5000"],
    ["reproduce", "--alpha", "1e-5000", "--format", "csv"],
    ["weak-evidence", "--kmax", "0"],
    ["weak-evidence", "--indicator-level", "9"],
    ["weak-evidence", "--degree-max", "-1", "--indicator-level", "0"],
    ["figure", "--k", "0", "--out", "unused"],
    ["remark32", "--kmax", "0"],
]


@pytest.mark.parametrize("argv", MALFORMED_ARGS, ids=" ".join)
def test_malformed_arguments_exit_parse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "error: " in captured.err


def test_a_non_integer_count_names_itself(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--kmax", "abc"])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().err.endswith("argument --kmax: not an integer: 'abc'\n")


def test_a_line_break_in_an_echoed_argument_is_escaped(capsys):
    # argparse echoes unrecognized arguments unquoted; found by TestFuzz
    with pytest.raises(SystemExit) as exc:
        main(["remark32", "a\nb", "c\u2028d"])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "viproplab: error: unrecognized arguments: a\\nb c\\u2028d\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python reads integers of any length",
)
@pytest.mark.parametrize("command", ["reproduce", "certify"])
def test_alpha_over_digit_limit_gives_that_reason(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--alpha", "1" * 4400])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "error: " in captured.err
    assert "digits" in captured.err and "not a rational" not in captured.err
    assert "(4400 characters)" in captured.err and len(captured.err) < 200


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python reads integers of any length",
)
def test_alpha_digit_bound_follows_the_limit():
    # 10**(limit - 2) - 1 is the longest numerator or denominator accepted; the
    # limit is changed and restored, so a bound kept from another limit fails
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 1000, limit):
            sys.set_int_max_str_digits(digits)
            bound = 10 ** (digits - 2)
            assert cli._positive_rational(str(bound - 1)) == bound - 1
            assert cli._positive_rational(f"1/{bound - 1}") == Fraction(1, bound - 1)
            for text in (str(bound), f"1/{bound}"):
                with pytest.raises(argparse.ArgumentTypeError) as exc:
                    cli._positive_rational(text)
                assert str(exc.value).startswith(
                    f"numerator and denominator must have at most {digits - 2} digits, got '")
    finally:
        sys.set_int_max_str_digits(limit)


# {missing} is a path under a directory that does not exist, {dir} a directory
UNWRITABLE_OUT = [
    ["reproduce", "--kmax", "2", "--out", "{missing}/x.json"],
    ["reproduce", "--kmax", "2", "--format", "csv", "--out", "{missing}/x.csv"],
    ["certify", "--kmax", "8", "--out", "{dir}"],
    ["weak-evidence", "--kmax", "2", "--out", "{dir}"],
    ["figure", "--out", "{missing}/fig"],
    # an empty path names no file, so it cannot be opened either; figure's
    # --out is a prefix, and "" writes _nodes.csv and _steps.csv
    ["reproduce", "--kmax", "2", "--out", ""],
    ["certify", "--kmax", "8", "--out", ""],
    ["weak-evidence", "--kmax", "2", "--out", ""],
    ["solve", "{problem}", "--out", ""],
]


@pytest.mark.parametrize("argv", UNWRITABLE_OUT, ids=" ".join)
def test_unwritable_out_exit_parse(argv, tmp_path, capsys):
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "problem": tmp_path / "p.json"}
    paths["problem"].write_text('{"n": 2, "forcing": [1, 2]}', encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("cannot write output file") and "Traceback" not in captured.err


class _FullStdout(io.StringIO):
    """A stdout on a full device: the write fails, or the write buffers and the flush fails."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.fail_on == "write":
            self._full()
        return super().write(text)

    def flush(self):
        self._full()


# every command that writes to stdout, solve on {problem}, a converging box problem,
# and --help, whose text argparse's own writer would drop without an error
STDOUT_COMMANDS = [
    ["reproduce", "--kmax", "2"],
    ["reproduce", "--kmax", "2", "--format", "csv"],
    ["certify", "--kmax", "8"],
    ["weak-evidence", "--kmax", "2"],
    ["remark32", "--kmax", "2"],
    ["solve", "{problem}"],
    ["--help"],
    ["reproduce", "--help"],
    ["solve", "--help"],
]


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=" ".join)
def test_unwritable_stdout_exit_parse(argv, fail_on, tmp_path, capsys, monkeypatch):
    problem = tmp_path / "p.json"
    problem.write_text('{"n": 4, "forcing": [1, 2, 3, 4]}', encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", _FullStdout(fail_on))
    with pytest.raises(SystemExit) as exc:
        main([a.format(problem=problem) for a in argv])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("cannot write output file") and "Traceback" not in err


# a real stdout on /dev/full: buffered (a console script's default), the small
# documents fail at the flush and stay buffered, which the interpreter flushes
# again at exit; reproduce --kmax 64 is larger than the buffer
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", STDOUT_COMMANDS + [["reproduce", "--kmax", "64"]], ids=" ".join
)
def test_full_device_stdout_exit_parse(argv, buffering, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text('{"n": 4, "forcing": [1, 2, 3, 4]}', encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "viproplab.cli"] + [a.format(problem=problem) for a in argv],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("cannot write output file")
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


# a size past the memory: under a cap on the child's address space (256 MiB
# here, so that the test itself stays small), the first allocation too large
# raises MemoryError, which exits 3 with one stderr line and no traceback,
# not 1 (certificate not established)
def run_capped(argv, cap):
    """The CLI run on argv in a fresh interpreter whose address space is cap bytes."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "viproplab.cli", *argv], env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.skipif(resource is None, reason="no resource module")
@pytest.mark.parametrize(
    "argv", [["figure", "--k", "100000000", "--out", "{dir}/big"], ["certify", "--kmax", "100000000"]],
    ids=" ".join,
)
def test_out_of_memory_exit_parse(argv, tmp_path):
    proc = run_capped([a.format(dir=tmp_path) for a in argv], 256 * 2**20)
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert proc.stderr == f"viproplab {argv[0]}: error: out of memory at this size\n"
    assert proc.stdout == "" and os.listdir(tmp_path) == []


# one gradient is alive at a time, so the sweep's memory is linear in kmax:
# kmax 1024 once held all 1024 gradients and ran out of memory under this cap
@pytest.mark.skipif(resource is None, reason="no resource module")
def test_weak_evidence_sweep_fits_a_small_address_space():
    argv = ["weak-evidence", "--kmax", "1024", "--degree-max", "0", "--indicator-level", "1"]
    proc = run_capped(argv, 64 * 2**20)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
        "591256e686befbac5381e25408191c9bd3af2d38f2eea215e40ed3055965ff18"
    )


# solve inputs near the largest float: x - G(0) overflows inside a ball of
# radius 1e300, the residual is past the largest float (inf), or G is
# inf - inf (NaN) at the returned x; each exits EXIT_NO_CONVERGENCE
OVERFLOW_PROBLEMS = {
    "overflow": '{"n": 2, "forcing": [1e154, 1e154], '
                '"set": {"kind": "ball", "center": [0, 0], "radius": 1e300}}',
    "infinite": '{"n": 2, "forcing": [1.7e308, 1.7e308], "set": {"kind": "box", '
                '"lower": [-1.7e308, -1.7e308], "upper": [1.7e308, 1.7e308]}}',
    "nan": '{"n": 3, "forcing": [0, 0, 0], "set": {"kind": "box", "lower": [0.9e308, 1.7e308, '
           '0.9e308], "upper": [1e308, 1.75e308, 1e308]}, "max_iter": 50}',
}


class TestSolve:
    def test_converged_problem(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(
            json.dumps(
                {"n": 1, "forcing": [8], "set": {"kind": "box", "lower": [-1], "upper": [1]}}
            )
        )
        out = tmp_path / "r.json"
        assert main(["solve", str(problem), "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["converged"] is True
        assert doc["x"][0] == pytest.approx(1.0, abs=1e-6)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "forcing": [1e400, 1]}',
            '{"n": 2, "set": {"kind": "box", "lower": [-1], "upper": [1]}}',
            '{"n": 2, "set": {"kind": "ball", "center": [0, 0, 0], "radius": 1}}',
            '{"n": 3.5}',
            '{"n": true}',
            '{"n": 2, "max_iter": 2.7}',
            '{"n": 2, "max_iter": -5}',
            '{"n": 2, "eps": -1}',
            '{"n": 2, "eps": "1/0"}',
            '{"n": 2, "forcing": ["1/0", 1]}',
            '{"n": "1/0"}',
            '{"n": 2, "eps": true}',
            '{"n": 2, "forcing": "12"}',
            '{"n": 2, "set": {"kind": "box", "lower": "00", "upper": [1, 1]}}',
            '{"n": 2, "set": {"kind": "box", "lower": [0, 0], "upper": {"1": 0, "2": 0}}}',
            '{"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": true}}',
            '{"n": 2, "maxiter": 5}',
            '{"n": 2, "set": {"kind": "box", "lower": [0, 0], "upper": [1, 1], "radius": 1}}',
            '{"n": 2, "set": {"kind": "ball", "center": [0, 0], "radius": 1, "lower": [0, 0]}}',
            "[" * 200000 + "]" * 200000,
            '{"n": 1e300}',
            '{"n": 1000000000000}',
            '{"n": 2, "set": null}',
            '{"n": 4, "forcing": null}',
        ],
        ids=[
            "infinite-forcing", "short-box", "long-center", "fractional-n", "boolean-n",
            "fractional-max-iter", "negative-max-iter", "negative-eps", "zero-denominator-eps",
            "zero-denominator-forcing", "zero-denominator-n", "boolean-eps", "string-forcing",
            "string-lower", "object-upper", "boolean-radius", "unknown-key", "radius-in-box",
            "lower-in-ball", "deeply-nested", "huge-float-n", "huge-int-n", "null-set",
            "null-forcing",
        ],
    )
    def test_malformed_problem_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("cannot parse problem file")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"n": 2, "eps": -1}', "eps must be >= 0, got -1.0"),
            ('{"n": 2, "eps": "-1/3", "forcing": [1]}', "eps must be >= 0, got -0.3333333333333333"),
            ('{"n": 2, "max_iter": -5}', "max_iter must be a positive integer, got -5"),
            ('{"n": 2, "max_iter": "1/2"}', "max_iter must be a positive integer, got '1/2'"),
            ('{"n": 2, "max_iter": 0, "forcing": [1]}', "max_iter must be a positive integer, got 0"),
            ('{"n": 3, "forcing": [1, 2]}', "forcing must have length n"),
            # a missing key once printed only its name: cannot parse problem file: 'n'
            ('{"forcing": [1]}', "missing key 'n' in problem"),
            ('{"n": 2, "set": {"kind": "box", "upper": [1, 1]}}', "missing key 'lower' in box set"),
            ('{"n": 2, "set": {"kind": "box", "lower": [0, 0]}}', "missing key 'upper' in box set"),
            ('{"n": 2, "set": {"kind": "ball", "radius": 1}}', "missing key 'center' in ball set"),
            ('{"n": 2, "set": {"kind": "ball", "center": [0, 0]}}', "missing key 'radius' in ball set"),
        ],
        ids=["negative-eps", "negative-eps-short-forcing", "negative-max-iter", "half-max-iter",
             "zero-max-iter-short-forcing", "forcing-length", "missing-n", "missing-lower",
             "missing-upper", "missing-center", "missing-radius"],
    )
    def test_eps_and_max_iter_reasons(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"cannot parse problem file: {reason}\n"

    @staticmethod
    def pinned_problem(n, kind):
        if kind == "box":
            feasible = {"kind": "box", "lower": [-1] * n, "upper": [1] * n}
        else:
            feasible = {"kind": "ball", "center": [0] * n, "radius": 1}
        return {"n": n, "forcing": [1 + j % 5 for j in range(n)], "set": feasible}

    # SHA-256 of stdout since spg_solve alternates BB1 and BB2 steps
    @pytest.mark.parametrize(
        "kind, n, digest",
        [
            ("box", 32, "c38f8fbc1995499e31b3ac1e8cfa4b58f767134c3d1925c3e2635a566050256e"),
            ("ball", 64, "7cfbc18f62c7a2f918f5630bdc48583f66ac37481fff52210941be2f7a8e6e6c"),
            # the largest n the benchmark solves
            ("box", 64, "434c139567a40ed523db6645d774b16adb41b07aece1d874ac9e24243da9f31c"),
            ("ball", 256, "44c36f48ea7d7c9f428c98c4da9331e6d6ac239db504f1120e2a698547837710"),
        ],
        ids=["box-n32", "ball-n64", "box-n64", "ball-n256"],
    )
    def test_stdout_bytes_pinned(self, tmp_path, capsys, kind, n, digest):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(self.pinned_problem(n, kind)))
        assert main(["solve", str(problem)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        check_out_file(["solve", str(problem)], EXIT_OK, digest, tmp_path / "s.json", capsys)

    # the same problems' stdout when solve ran extragradient_solve, pinned from
    # before its kernel dropped np.linalg.norm, np.clip and np.diff
    @pytest.mark.parametrize(
        "kind, n, digest",
        [
            ("box", 32, "42e0c6083ea9cd8d25fe8bc313b2ad0cf0bcd64baa386e23bf05df298add4ae2"),
            ("ball", 64, "62df97d785d5ab906976eae8c3e89fa92fa7486715b3a00203b33b5d64f63359"),
            ("box", 64, "6284d8418e0e59ef1c90170d970bf496be2b1b2fc3149021c19e257855497b37"),
            ("ball", 256, "c7bfc2d8545c82b8352ea8a47aed5d24a76f69da7d739739a9efba3e78007cb1"),
        ],
        ids=["box-n32", "ball-n64", "box-n64", "ball-n256"],
    )
    def test_extragradient_bytes_pinned(self, kind, n, digest):
        result = extragradient_solve(load_problem(self.pinned_problem(n, kind)))
        text = cli._json_text(result.to_json_dict()) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_an_overflowing_ball_distance_is_not_converged(self, tmp_path, capsys):
        # d.dot(d) overflows at x - G(0) = (1e154, 1e154), well inside the
        # ball; scaled by r/inf, that point went to the centre, so x = 0
        # judged itself a solution with residual 0 and exit 0
        problem = tmp_path / "p.json"
        problem.write_text(OVERFLOW_PROBLEMS["overflow"])
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", str(problem)]) == EXIT_NO_CONVERGENCE
            vi = load_problem(str(problem))
            doc = json.loads(capsys.readouterr().out, parse_constant=self.reject_constant)
            assert doc["converged"] is False
            assert not residual(vi, doc["x"]) <= vi.eps
        # the residual at x = 0 is ||G(0)||, whose square overflows: it was
        # printed as Infinity, which strict JSON parsers reject
        assert doc["x"] == [0.0, 0.0]
        assert math.isclose(doc["residual"], math.hypot(1e154, 1e154), rel_tol=1e-15, abs_tol=0)

    # the true residual at the returned x is past the largest float (inf), or
    # G there is inf - inf (NaN); both printed as non-JSON before
    @pytest.mark.parametrize("name", ["infinite", "nan"])
    def test_a_non_finite_residual_prints_as_null(self, tmp_path, capsys, name):
        problem = tmp_path / "p.json"
        problem.write_text(OVERFLOW_PROBLEMS[name])
        with np.errstate(all="ignore"):
            assert main(["solve", str(problem)]) == EXIT_NO_CONVERGENCE
        doc = json.loads(capsys.readouterr().out, parse_constant=self.reject_constant)
        assert doc["residual"] is None and doc["converged"] is False

    # numpy's overflow warnings went to stderr beside the exit code that
    # reports the overflow; solve silences them, and leaves numpy's settings
    # for library callers as they were
    @pytest.mark.parametrize("name", list(OVERFLOW_PROBLEMS))
    def test_an_overflowing_solve_writes_no_stderr(self, tmp_path, capsys, name):
        problem = tmp_path / "p.json"
        problem.write_text(OVERFLOW_PROBLEMS[name])
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", str(problem)]) == EXIT_NO_CONVERGENCE
        assert caught == [] and capsys.readouterr().err == ""
        assert np.geterr() == before

    @staticmethod
    def reject_constant(name):
        raise ValueError(f"not strict JSON: {name}")

    def test_default_set_same_bytes_as_explicit_box(self, tmp_path, capsys):
        n = 32
        doc = {"n": n, "forcing": [1 + j % 5 for j in range(n)]}
        outs = []
        for problem in (doc, {**doc, "set": {"kind": "box", "lower": [-1] * n, "upper": [1] * n}}):
            path = tmp_path / "p.json"
            path.write_text(json.dumps(problem))
            assert main(["solve", str(path)]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_PARSE

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(
            json.dumps(
                {
                    "n": 2,
                    "forcing": [3, 3],
                    "set": {"kind": "box", "lower": [-1, -1], "upper": [1, 1]},
                    "max_iter": 1,
                }
            )
        )
        assert main(["solve", str(problem)]) == EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("settings", [{"max_iter": 1}, {"eps": 0, "max_iter": 50}],
                             ids=["max-iter-1", "eps-0"])
    def test_non_convergence_writes_the_best_iterate(self, tmp_path, capsys, settings):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"n": 4, "forcing": [1, 2, 3, 4], **settings}))
        assert main(["solve", str(problem)]) == EXIT_NO_CONVERGENCE
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["x", "residual", "iterations", "converged"]
        assert (doc["iterations"], doc["converged"]) == (settings["max_iter"], False)
        assert doc["residual"] > 0 and len(doc["x"]) == 4


# one call of each kind the parser handles: usage error, --out, stdout, the
# error a command raises itself after parsing, and --help; {out} is a file path
PARSER_SEQUENCE = [
    ["reproduce", "--kmax", "0"],
    ["reproduce", "--format", "csv", "--out", "{out}"],
    ["reproduce"],
    ["certify"],
    ["weak-evidence", "--degree-max", "-1", "--indicator-level", "0"],
    ["--help"],
]


def run_captured(argv, capsys):
    """Exit code, stdout bytes and stderr bytes of one in-process main() call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode("utf-8"), captured.err.encode("utf-8")


# SHA-256 of each help text at 80 columns (argparse wraps help to the width
# it reads from COLUMNS); "" is the program's own --help
HELP_DIGESTS = {
    "": "0bbf091e7818469c39fec67ed8fdf48de42dde7a228d1809db249f687dacfedd",
    "reproduce": "aa5f10ba27a61b26ded09fdaeff00d076c35471748d1ed3f1628092663e98c59",
    "certify": "66f5894046aa07c6b47438e920b25dbbd555d813ff4cb0c4c8210e01a2a29760",
    "weak-evidence": "a2af9bb1dc8dc6af22d0b862781ff09d8bccd361ac307e381d6f1fffce4a30b2",
    "figure": "96609524896cdd57c4e6bb4078bc7a88063428a4977790cf0bb7b5e37e544e80",
    "remark32": "4200016800234bda77df05a051bbe6959fb094f21a65adb2b6c15b505e4734d7",
    "solve": "fe4bf003ddd16ad128124281d23f2cea44708de7e6628afc70134c1d132c4def",
}


class TestCommandTable:
    @pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=lambda c: c or "program")
    def test_help_bytes_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_captured([command, "--help"] if command else ["--help"], capsys)
        assert (code, err) == (EXIT_OK, b"")
        assert hashlib.sha256(out).hexdigest() == HELP_DIGESTS[command]

    def test_every_command_has_its_runner(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(c for c in HELP_DIGESTS if c)
        for name, parser in sub.choices.items():
            assert parser.get_default("run") is getattr(cli, "cmd_" + name.replace("-", "_"))

    def test_empty_family_stderr_pinned(self, capsys):
        argv = ["weak-evidence", "--degree-max", "-1", "--indicator-level", "0"]
        assert run_captured(argv, capsys) == (EXIT_PARSE, b"", (
            b"viproplab: error: weak-evidence: empty test family (no monomials, no indicators)\n"
        ))


class TestCachedParser:
    def test_same_bytes_as_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rep.csv"

        def run_sequence():
            results = []
            for argv in PARSER_SEQUENCE:
                out.unlink(missing_ok=True)
                result = run_captured([a.format(out=out) for a in argv], capsys)
                results.append((*result, out.read_bytes() if out.exists() else None))
            return results

        cached = run_sequence()
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert run_sequence() == cached
        codes = [EXIT_PARSE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_OK]
        assert [r[0] for r in cached] == codes
        assert len(cached[0][2].splitlines()) == 1 and len(cached[4][2].splitlines()) == 1
        assert cached[1][3].startswith(b"k,grad_norm_cubed,gap\n")
        assert cached[5][1].startswith(b"usage: viproplab")

    def test_built_once_across_calls(self, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", functools.cache(counting_build))
        for argv in (["reproduce", "--kmax", "2"], ["certify", "--kmax", "8"],
                     ["weak-evidence", "--kmax", "2"], ["remark32", "--kmax", "2"],
                     ["reproduce", "--kmax", "3", "--format", "csv"]):
            assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert len(built) == 1


# run in a fresh interpreter: an exact command, then solve, reporting the
# numpy submodules loaded in between and what solve printed
NUMPY_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[2] == "numpy-first":
    import numpy
from viproplab import cli
with contextlib.redirect_stdout(io.StringIO()):
    reproduce_code = cli.main(["reproduce", "--kmax", "8"])
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
solve_out = io.StringIO()
with contextlib.redirect_stdout(solve_out):
    solve_code = cli.main(["solve", sys.argv[1]])
json.dump({"reproduce": reproduce_code, "loaded": loaded, "solve": solve_code,
           "out": solve_out.getvalue()}, sys.stdout)
"""


@pytest.mark.parametrize("order", ["viproplab-first", "numpy-first"])
def test_exact_commands_do_not_load_numpy(order, tmp_path, capsys):
    n = 16
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "n": n, "forcing": [1 + j % 5 for j in range(n)],
        "set": {"kind": "box", "lower": [-1] * n, "upper": [1] * n},
    }))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_SCRIPT, str(problem), order],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["reproduce"] == EXIT_OK
    if order == "viproplab-first":
        assert report["loaded"] == []
    assert report["solve"] == EXIT_OK
    assert main(["solve", str(problem)]) == EXIT_OK
    assert report["out"] == capsys.readouterr().out


# scalars the writer encodes itself, and the strings and floats json.dumps
# treats specially: non-ASCII, control characters, astral code points,
# lone surrogates, -0.0 and the non-finite floats
json_scalar_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**256), 2**256),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300]),
    st.text(),
    st.text(st.characters(codec=None)),
    st.sampled_from(["é", "\u00a0", "\u2028", "\x00", "\x1f", "\x7f", '"\\/', "\U0001f600"]),
)
# exact rationals, which the writer writes as the lab's string pair: zero,
# negative and 300-digit numerators, each as a Fraction, as an ExactReal and
# as ExactReal(x.value + 1), the value perfbench/selftest.py's wrong kernel returns
rational_st = st.one_of(
    st.fractions(),
    st.sampled_from([F(0), F(-1), F(-3, 4)]),
    st.builds(F, st.integers(10**299, 10**300 - 1) | st.integers(-(10**300) + 1, -(10**299)),
              st.integers(1, 10**6)),
).flatmap(lambda x: st.sampled_from([x, ExactReal(x), ExactReal(ExactReal(x).value + 1)]))


def json_containers(kids):
    return st.one_of(st.lists(kids, max_size=4),
                     st.dictionaries(st.text(max_size=4), kids, max_size=4))


# documents as the commands emit them: a str-keyed dict or a list at the top,
# with rationals at any depth
json_doc_st = json_containers(
    st.recursive(json_scalar_st | rational_st, json_containers, max_leaves=30))
# one value of each type the writer writes in place, and both empty
# containers; json_doc_st's draws need not hold each of them
PINNED_VALUES = [True, False, None, 0, -1, 2**300, -0.0, math.nan, math.inf, "", "\u2028",
                 ExactReal(-5, 2), [], {}]


def as_pairs(doc):
    """doc with each rational replaced by its pair [str(numerator), str(denominator)]."""
    if isinstance(doc, Fraction):
        return [str(doc.numerator), str(doc.denominator)]
    if isinstance(doc, (list, tuple)):
        return [as_pairs(v) for v in doc]
    if isinstance(doc, dict):
        return {k: as_pairs(v) for k, v in doc.items()}
    return doc


def writes_like_dumps(doc):
    assert cli._json_text(doc) == json.dumps(as_pairs(doc), indent=2)


class _Level(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


class _Rational(Fraction):
    pass


# values of types no command emits, each as a list item, as a dict value and
# at the top; then a bare scalar of each exact type, which is written only
# inside a dict or a list
UNEMITTED_DOCS = [
    pytest.param(doc, id=f"{name}-{where}")
    for name, value in [("tuple", ("1", "2")), ("float64", np.float64(0.5)),
                        ("IntEnum", _Level.ONE), ("str-subclass", _Text("a")),
                        ("Fraction-subclass", _Rational(1, 2))]
    for where, doc in [("item", [value]), ("value", {"a": value}), ("top", value)]
] + [pytest.param(value, id=f"bare-{type(value).__name__}")
     for value in ["s", 1, 1.5, True, None, F(1, 2)]]


def weak_document_of_a_wrong_kernel():
    """A weak-evidence document whose integrals are ExactReal(x.value + 1), the
    values perfbench/selftest.py's wrong test_integral returns."""
    report = weak_convergence_evidence(sawtooth, [Monomial(2), Indicator(F(1, 3), 1)], 3)
    for entry in report.entries:
        entry.integrals = [ExactReal(x.value + 1) for x in entry.integrals]
    return report.to_json_dict()


class TestJsonWriter:
    """cli._json_text writes the bytes of json.dumps(doc, indent=2)."""

    @settings(max_examples=400, deadline=None)
    @given(json_doc_st)
    # rationals, which the writer writes as pairs in place, at depths 0 to 4, as
    # list items and as dict values
    @example([F(-3, 4)])
    @example([ExactReal(0), F(10**299, 7), {"a": ExactReal(-5, 2), "b": [F(1, 3)]}])
    @example([{"c": [[F(7, 8), 9]]}, [[[ExactReal(-1, 3)]]]])
    # lists of two strings at depths 1, 2 and 3, with escaped and empty text;
    # then near-pairs
    @example([["-3", "4"]])
    @example({"a": [["1", "2"], ["0", "1"]], "b": ["5", "6"]})
    @example([{"c": [["7", "8"], 9]}, [[["-1", "3"]]]])
    @example([["é", '"\n'], ["", ""]])
    @example([["1", 2], ["1"], ["1", "2", "3"]])
    @example(weak_document_of_a_wrong_kernel())
    # each exact type as a list item and as a dict value
    @example(PINNED_VALUES)
    @example({repr(v): v for v in PINNED_VALUES})
    def test_same_text_as_dumps(self, doc):
        writes_like_dumps(doc)

    def test_floats_in_a_list_written_in_place(self):
        # a list item whose type is exactly float is written in place; an
        # np.float64, a float subclass that no command emits, raises
        floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -2.5e-308, 0.1]
        doc = {"x": floats, "mixed": [1.5, "s", ["1", "2"], 3, None]}
        assert cli._json_text(doc) == json.dumps(doc, indent=2)
        assert cli._json_text(floats) == json.dumps(floats, indent=2)
        for doc in [[1.5, np.float64(-0.25)], [np.float64(math.nan), np.float64(1e300)]]:
            with pytest.raises(TypeError, match="float64 is not JSON serializable"):
                cli._json_text(doc)

    def test_skipped_ascii_escaping_is_caught(self, monkeypatch):
        # the same property with an escaper that leaves non-ASCII text as it is
        monkeypatch.setattr(cli, "_escape", json.encoder.encode_basestring)
        check = settings(
            max_examples=400, deadline=None, database=None, report_multiple_bugs=False
        )(given(json_doc_st)(writes_like_dumps))
        with pytest.raises(AssertionError):
            check()

    def test_unserializable_value_raises_like_dumps(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"a": [1, object()]})

    @pytest.mark.parametrize("doc", [{1: F(1, 2)}, {1: 2}, {None: "x"}, [{"a": 1, 2: "b"}]])
    def test_a_key_that_is_not_a_str_raises(self, doc):
        # json.dumps would write 1 and None as "1" and "null"; the writer has str keys only
        with pytest.raises(TypeError):
            cli._json_text(doc)

    @pytest.mark.parametrize("doc", UNEMITTED_DOCS)
    def test_types_no_command_emits_raise(self, doc):
        # json.dumps would write each of these, a tuple as a list; the writer
        # has one rule per exact type and a dict or a list at the top
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text(doc)

    def test_emit_writes_the_text_and_a_newline(self, tmp_path, capsys):
        doc = {"a": [1, 2.5, None, {"b": []}], "é": {}}
        text = json.dumps(doc, indent=2) + "\n"
        cli._emit(doc, None)
        assert capsys.readouterr().out == text
        cli._emit(doc, str(tmp_path / "doc.json"))
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == text


# argument lists for the five commands that take no file: the commands,
# their options and some that belong to another, counts in and out of
# range, rationals well and badly formed, and text without digits, so no
# count is ever large; --out values are bare names, written under the
# working directory the fuzz tests change to
FUZZ_COMMANDS = ["reproduce", "certify", "weak-evidence", "figure", "remark32"]
FUZZ_OPTIONS = ["--kmax", "--alpha", "--format", "--degree-max", "--indicator-level",
                "--k", "--out", "--help", "-h", "--", "-"]
fuzz_token_st = st.one_of(
    st.sampled_from(FUZZ_COMMANDS + FUZZ_OPTIONS),
    st.integers(-3, 24).map(str),
    st.sampled_from(["16", "15", "31/2", "1/0", "0", "-1", "1e3", "1e-3", "1e4000", "nan",
                     "inf", "json", "csv", "1_0", " 7 ", "2.5", "out", "fig.csv", ""]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/\\\x00"),
            max_size=6),
)
fuzz_argv_st = st.one_of(
    st.tuples(st.sampled_from(FUZZ_COMMANDS), st.lists(fuzz_token_st, max_size=6)).map(
        lambda ct: [ct[0], *ct[1]]),
    st.lists(fuzz_token_st, max_size=5),
)
# problem documents for solve: mostly well formed, n in 1..4 and max_iter
# at most 50, so a valid problem solves fast, with finite numbers near and
# far from the largest float; then a wrong value, length, type or key
fuzz_finite_st = st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3),
                           st.floats(allow_nan=False, allow_infinity=False))
fuzz_number_st = st.one_of(
    fuzz_finite_st, fuzz_finite_st,
    st.sampled_from([10**400, "1/2", "-3/4", "1/0", "1e400", "nan", "x", True, None, [], {}]),
)


@st.composite
def fuzz_problem_st(draw):
    n = draw(st.one_of(st.integers(1, 4), st.integers(1, 4),
                       st.sampled_from([0, -1, 65_537, 10**30, "3", 2.0, True, None])))
    length = n if type(n) is int and 1 <= n <= 4 else 2
    vector = st.one_of(st.lists(fuzz_number_st, min_size=length, max_size=length),
                       st.lists(fuzz_finite_st, min_size=length, max_size=length),
                       st.lists(fuzz_number_st, max_size=5), fuzz_number_st)
    sets = st.one_of(
        st.fixed_dictionaries({"kind": st.just("box"), "lower": vector, "upper": vector}),
        st.fixed_dictionaries({"kind": st.just("ball"), "center": vector,
                               "radius": fuzz_number_st}),
        st.dictionaries(st.sampled_from(["kind", "lower", "upper", "center", "radius", "x"]),
                        st.one_of(st.sampled_from(["box", "ball", "cube"]), vector), max_size=4),
        fuzz_number_st,
    )
    doc = {"n": n, "max_iter": draw(st.one_of(st.integers(1, 50), st.integers(1, 50),
                                              st.sampled_from([0, "5", 5.0, False])))}
    doc.update(draw(st.fixed_dictionaries({}, optional={
        "forcing": vector, "set": sets, "eps": st.one_of(st.floats(0, 1e-3), fuzz_number_st)})))
    return draw(st.one_of(st.just(doc), st.just(doc),
                          st.sampled_from([[doc], {**doc, "extra": 1}, doc["n"], "{}"])))


def run_in_process(argv):
    """main(argv) with stdout and stderr captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def exits_cleanly(code, err):
    assert code in range(5), (code, err)
    assert err == "" or (err.endswith("\n") and len(err.splitlines()) == 1), err
    assert "Traceback" not in err


class TestFuzz:
    """Any argument list and any problem document: an exit code in 0..4, at most
    one stderr line and no exception out of main."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=fuzz_argv_st)
    def test_argument_lists(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exits_cleanly(*run_in_process(argv))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(fuzz_problem_st().map(json.dumps), st.text(max_size=20)))
    def test_problem_documents(self, text, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(text, encoding="utf-8")
        exits_cleanly(*run_in_process(["solve", str(path)]))
