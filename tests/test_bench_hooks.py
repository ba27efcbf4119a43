"""The names the benchmark in perfbench/ reads from the package still resolve.

perfbench/tracer.py patches each entry of SPAN_NAMES where it is defined,
through ``owner.__dict__``, and perfbench/run.py records
``piecewise._make_rational`` as the rational backend. A method moved into a
base class, or a renamed function, would break the benchmark; so would a
timed kernel whose result stopped reading as ``ExactReal`` (a Fraction with
``.exact`` and ``.value``). These tests read perfbench/ and change nothing
there.
"""

import ast
import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from viproplab import Indicator, Monomial, PiecewiseLinearFn, certificates, piecewise, scaled_hat

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH_DIR / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


SPAN_NAMES = sorted(load_tracer().SPAN_NAMES)


@pytest.mark.parametrize("module, qualname", SPAN_NAMES, ids=[".".join(k) for k in SPAN_NAMES])
def test_span_patch_point_is_defined_on_its_owner(module, qualname):
    owner = importlib.import_module(f"viproplab.{module}")
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert name in owner.__dict__, f"{qualname} is not defined on {owner.__name__} itself"


def bench_module_reads():
    """(file, module, attribute) for every ``<module>.<attribute>`` read in perfbench/*.py."""
    modules = {"certificates", "cli", "families", "piecewise", "solver"}
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield path.name, node.value.id, node.attr


def test_every_module_attribute_the_bench_reads_exists():
    reads = set(bench_module_reads())
    assert ("run.py", "piecewise", "_make_rational") in reads
    missing = [r for r in sorted(reads)
               if not hasattr(importlib.import_module(f"viproplab.{r[1]}"), r[2])]
    assert missing == []


def timed_kernel_calls() -> dict:
    """One call per kernel that perfbench/ times, each test_integral branch apart."""
    u = PiecewiseLinearFn((0, F(1, 3), F(5, 7), 1), (0, F(2, 5), F(-3, 4), 0))
    w = scaled_hat(F(7, 2))
    du = piecewise.derivative(u)
    return {
        "plap_pairing": lambda: piecewise.plap_pairing(u, w),
        "equilibrium_gap": lambda: certificates.equilibrium_gap(u, w),
        "monotone_gap_check": lambda: certificates.monotone_gap_check(u, w),
        "pow_norm": lambda: piecewise.pow_norm(du, 3),
        "abs_pow_integral": lambda: piecewise.abs_pow_integral(u, 3),
        "test_integral-poly": lambda: piecewise.test_integral(du, Monomial(2)),
        "test_integral-indicator": lambda: piecewise.test_integral(
            du, Indicator(F(1, 4), F(1, 2))
        ),
    }


@pytest.mark.parametrize("kernel", sorted(timed_kernel_calls()))
def test_timed_kernel_results_read_as_exact_real(kernel):
    # perfbench/workloads.py checks isinstance(r, ExactReal), r.exact and r.value, and
    # perfbench/selftest.py wraps a kernel as ExactReal(r.value + 1)
    r = timed_kernel_calls()[kernel]()
    assert isinstance(r, piecewise.ExactReal) and isinstance(r, F)
    assert r.exact is True and r.value == r
    assert piecewise.ExactReal(r.value + 1) == r + 1
