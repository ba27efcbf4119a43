"""Which functions of the package the six commands run.

The commands run at small sizes, error exits included, under sys.settrace.
Every function of src/viproplab that none of them enters must be listed in
NOT_REACHED with its reason, and every listed one must still go unentered:
a new function that no command reaches fails here until it is listed, and
a listed one that a command starts to run fails until it is taken off.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import types

import viproplab
from viproplab.cli import EXIT_MISMATCH, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_PARSE, main

# why each function stays that no command enters: perfbench/ calls or patches
# it by name (bench-bound), it is documented for library callers (library
# API), or the tests check a fast path against it (test oracle)
BENCH = "bench-bound: perfbench/ calls or patches it by name"
NOT_REACHED = {
    "certificates.PairingSequenceReport.to_json_dict": f"{BENCH} (certificates.serialize)",
    "certificates.holder_boundedness_check": f"{BENCH} (a random-exact op)",
    "certificates.monotone_gap_check": f"{BENCH} (a random-exact op)",
    "piecewise.ExactReal.value": f"{BENCH} (the selftest's wrong kernels and the checks read it)",
    "piecewise.PiecewiseConstFn.__init__": "library API: the public constructor",
    "piecewise.PiecewiseConstFn.__post_init__": f"{BENCH} (piecewise.construct)",
    "piecewise.PiecewiseConstFn.__repr__": "library API",
    "piecewise.PiecewiseConstFn.breakpoints": "library API: the breakpoints as Fractions",
    "piecewise.PiecewiseConstFn.from_json_dict": "library API: reads to_json_dict",
    "piecewise.PiecewiseConstFn.to_json_dict": f"{BENCH} (piecewise.serialize)",
    "piecewise.PiecewiseConstFn.value_at": "library API: f(t)",
    "piecewise.PiecewiseLinearFn.__call__": "library API: u(t)",
    "piecewise.PiecewiseLinearFn.__init__": f"{BENCH} (random-exact builds its functions)",
    "piecewise.PiecewiseLinearFn.__post_init__": f"{BENCH} (piecewise.construct)",
    "piecewise.PiecewiseLinearFn.__repr__": "library API",
    "piecewise.PiecewiseLinearFn.from_json_dict": f"{BENCH} (the random-exact round trip)",
    "piecewise._GridFn._cell": "library API: the cell of t, for u(t) and value_at",
    "piecewise._json_pairs": f"{BENCH}: from_json_dict's reader",
    "piecewise._linear_grid": f"{BENCH}: PiecewiseLinearFn's intake check",
    "piecewise._pairs": f"{BENCH}: both constructors' intake",
    "piecewise._points": f"{BENCH}: both constructors' intake of breakpoints",
    "piecewise.abs_pow_integral": f"{BENCH} (a random-exact op)",
    "piecewise.common_refinement": f"{BENCH} (piecewise.common_refinement)",
    "piecewise.lin_comb": f"{BENCH} (a random-exact op)",
    "solver.GalerkinOperator.energy": "test oracle: spg_solve's energy read from the slopes",
    "solver.extragradient_solve": f"{BENCH} (solver.extragradient); test oracle for spg_solve",
    "solver.residual": "library API: the natural residual of a point",
}


def package_modules():
    yield viproplab
    for info in pkgutil.iter_modules(viproplab.__path__):
        yield importlib.import_module(f"viproplab.{info.name}")


def functions(code, prefix):
    """(file, first line, name) -> module-qualified name, for each function in code's tree."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield (const.co_filename, const.co_firstlineno, const.co_name), name
                yield from functions(const, name + ".<locals>.")
            else:
                yield from functions(const, name + ".")


def run_traced(runs):
    """The keys of the functions entered while main runs each argv, checked for its exit code."""
    for module in package_modules():  # a cached result would hide the calls that make it
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.gettrace()
    for argv, want in runs:
        sys.settrace(tracer)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        finally:
            sys.settrace(previous)
        assert got == want, argv
    return entered


def problem(path, n, **extra):
    path.write_text(json.dumps({"n": n, "forcing": [1 + j % 5 for j in range(n)], **extra}))
    return str(path)


def test_unreached_functions_are_the_listed_ones(tmp_path, capsys):
    ball = {"kind": "ball", "center": [0] * 4, "radius": 1}
    runs = [
        (["reproduce", "--kmax", "3"], EXIT_OK),
        (["reproduce", "--kmax", "2", "--alpha", "31/2", "--format", "csv"], EXIT_OK),
        (["reproduce", "--kmax", "2", "--alpha", "10"], EXIT_OK),
        (["reproduce", "--kmax", "0"], EXIT_PARSE),
        (["reproduce", "--alpha", "1/0"], EXIT_PARSE),
        (["reproduce", "--alpha", "0"], EXIT_PARSE),
        (["reproduce", "--alpha", "1e5000"], EXIT_PARSE),
        (["reproduce", "--kmax", "2", "--out", str(tmp_path / "missing" / "x.json")], EXIT_PARSE),
        (["certify", "--kmax", "8"], EXIT_OK),
        (["certify", "--kmax", "8", "--alpha", "10"], EXIT_MISMATCH),
        (["weak-evidence", "--kmax", "3", "--degree-max", "2", "--indicator-level", "2"], EXIT_OK),
        (["weak-evidence", "--degree-max", "-1", "--indicator-level", "0"], EXIT_PARSE),
        (["figure", "--k", "2", "--out", str(tmp_path / "fig")], EXIT_OK),
        (["remark32", "--kmax", "3"], EXIT_OK),
        (["solve", problem(tmp_path / "box.json", 4)], EXIT_OK),
        (["solve", problem(tmp_path / "ball.json", 4, set=ball)], EXIT_OK),
        (["solve", problem(tmp_path / "cap.json", 4, max_iter=1)], EXIT_NO_CONVERGENCE),
        (["solve", problem(tmp_path / "bad.json", 4, eps=True)], EXIT_PARSE),
        (["solve", str(tmp_path / "none.json")], EXIT_PARSE),
        (["--help"], EXIT_OK),
    ]
    entered = run_traced(runs)
    capsys.readouterr()
    table = {}
    for module in package_modules():
        prefix = module.__name__.removeprefix("viproplab").lstrip(".")
        with open(module.__file__, encoding="utf-8") as fh:
            code = compile(fh.read(), module.__file__, "exec")
        table.update(functions(code, prefix + "." if prefix else ""))
    unreached = {name for key, name in table.items() if key not in entered}
    assert sorted(unreached - NOT_REACHED.keys()) == [], "reached by no command: list it, or run it"
    assert sorted(NOT_REACHED.keys() - unreached) == [], "listed, but gone or run by a command"
    assert {reason.split(":")[0] for reason in NOT_REACHED.values()} <= {
        "bench-bound", "library API", "test oracle"}

