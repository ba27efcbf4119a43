"""The names the benchmark in perfbench/ reads from the package still resolve.

perfbench/tracer.py patches each entry of SPAN_NAMES where it is defined,
through ``owner.__dict__``, and perfbench/run.py records
``piecewise._make_rational`` as the rational backend. A method moved into a
base class, or a renamed function, would break the benchmark; these tests
read perfbench/ and change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
