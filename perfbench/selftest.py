"""Self-test of the benchmark on the tiny variant of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is reported with its
unit, that no op fails, that the work counts of a traced run repeat for
one seed, and that a deliberately wrong kernel is counted as failed, so
the output checks are known to be live.  Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import run

SEED = 5
WORK_COUNT_SUFFIXES = (".calls", ".intervals_in", ".bytes", "solver.iterations",
                       "solver.backtracks")


def _is_work_count(name: str) -> bool:
    return name.endswith(WORK_COUNT_SUFFIXES) or name.startswith("solver.iterations.")


@contextmanager
def _broken(module: str, qualname: str, make_bad):
    """Replace one entry point everywhere it is bound, then restore it."""
    from tracer import NAMESPACES

    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    good = getattr(owner, attr)
    bad = make_bad(good)
    bound = [(owner, attr)] + [
        (sys.modules[ns], name) for ns in NAMESPACES
        for name, value in vars(sys.modules[ns]).items() if value is good
    ]
    for target, name in bound:
        setattr(target, name, bad)
    try:
        yield
    finally:
        for target, name in bound:
            setattr(target, name, good)


def _plus_one(fn):
    from viproplab.piecewise import ExactReal

    return lambda *args: ExactReal(fn(*args).value + 1)


def _shifted(fn):
    return lambda self, x: fn(self, x) + 1e-3


# a wrong kernel for each workload: the outputs that depend on it must fail
WRONG_KERNELS = {
    "sawtooth-exact": ("viproplab.piecewise", "plap_pairing", _plus_one),
    "random-exact": ("viproplab.piecewise", "plap_pairing", _plus_one),
    "weak-sweep": ("viproplab.piecewise", "test_integral", _plus_one),
    "galerkin-solve": ("viproplab.solver", "GalerkinOperator.__call__", _shifted),
}


def _names_and_units(record):
    return {k: m["unit"] for k, m in record["metrics"].items()}


def main() -> int:
    run.prepare()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run.run_workload(workload, SEED, 0, False, tiny=True, spawns=(1,))
        if _names_and_units(plain) != end_to_end:
            problems.append(f"{workload}: end-to-end names or units differ from BENCHMARK.json")
        if any(m["value"] <= 0 for m in plain["metrics"].values()):
            problems.append(f"{workload}: an end-to-end metric is not positive")
        traced = [run.run_workload(workload, SEED, 0, True, tiny=True) for _ in range(2)]
        if _names_and_units(traced[0]) != per_layer:
            problems.append(f"{workload}: per-layer names or units differ from BENCHMARK.json")
        for record in [plain] + traced:
            if record["failed"]:
                problems.append(f"{workload}: {record['failed']} ops failed: {record['failures'][0]}")
        counts = [{k: m["value"] for k, m in r["metrics"].items() if _is_work_count(k)}
                  for r in traced]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: work counts differ between two runs of one seed")
        with _broken(*WRONG_KERNELS[workload]):
            broken = run.run_workload(workload, SEED, 0, False, tiny=True, spawns=(1,))
        if broken["failed"] == 0:
            problems.append(f"{workload}: a wrong {WRONG_KERNELS[workload][1]} was not caught")
        print(f"{workload}: {plain['attempted']} ops, {broken['failed']} of "
              f"{broken['attempted']} failed with a wrong {WRONG_KERNELS[workload][1]}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
