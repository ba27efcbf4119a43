"""Benchmark for viproplab: one seeded workload per run, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload sawtooth-exact --seed 1 --seconds 18 --trace 0

One client, one process and one thread: each op waits for the previous
one, as a batch CLI does.  Passes over the seeded op list repeat until
``--seconds`` of op time is spent, at least three passes; each op's
latency is its median over the passes, at reference speed (speed.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full record (environment, output digest, failures,
raw timings) is written to ``.perfbench_out/`` and the spans of a traced
pass to ``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# set-up spawns before passes 1, 2 and 3, so that their median is not
# taken from one stretch of machine speed
SETUP_SPAWNS = (3, 3, 3)
PROBES_PER_SPAWN = 3  # forced speed probes before and after each spawn
# per-op medians over at least three passes, spread over the run
MIN_PASSES = 3
SETUP_CODE = "from viproplab import cli; cli.build_parser()"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PIECEWISE_KERNEL = ("derivative", "common_refinement", "plap_pairing", "pow_norm",
                    "lin_comb", "abs_pow_integral", "test_integral")
CERTIFICATE_CALLS = ("pairing_sequence", "equilibrium_gap", "monotone_gap_check",
                     "weak_convergence_evidence")

_now = time.perf_counter


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad interpreter)."""


def prepare() -> None:
    """Pin the process and the BLAS pool to one CPU; import the checkout's package.

    Pinning keeps ops, set-up spawns (which inherit it) and the speed probe
    on one CPU, so the probe sees the speed the ops ran at.
    """
    init = os.path.join(SRC, "viproplab", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no package sources at {init}; run from the repository root")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import viproplab

    if os.path.realpath(viproplab.__file__) != os.path.realpath(init):
        raise SetupError(f"imported viproplab from {viproplab.__file__}, not {init}")


def spawn_setup(probe) -> tuple:
    """Raw and reference-speed time from a fresh interpreter to the CLI parser built."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for _ in range(PROBES_PER_SPAWN):
        probe.sample(force=True)
    t0 = _now()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    t1 = _now()
    for _ in range(PROBES_PER_SPAWN):
        probe.sample(force=True)
    if proc.returncode != 0:
        raise SetupError("importing viproplab.cli failed:\n" + proc.stderr.decode())
    return t1 - t0, (t1 - t0) * probe.scale(t0, t1)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def _checked(op, result):
    try:
        return op.check(result)
    except Exception:  # a malformed output is a failed op, not a crash
        return "output check raised:\n" + traceback.format_exc(limit=2)


def run_pass(ops, tally, digests, probe, tracer=None, on_op=None):
    """Time every op once; check it where its output bytes are new.

    Returns the raw latencies and the latencies at reference speed.
    """
    spans = []
    for i, op in enumerate(ops):
        probe.sample()
        t0 = _now()
        try:
            result = tracer.wrap_op(i, op.call) if tracer else op.call()
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=4)
        spans.append((t0, _now()))
        if error is None:
            try:
                digest = hashlib.sha256(op.outputs(result)).hexdigest()
            except OSError as exc:  # an --out file the command did not write
                digest, error = None, f"output unreadable: {exc}"
        if error is None:
            if digest != digests[i]:
                error = _checked(op, result)
                if error is None and digests[i] is None:
                    digests[i] = digest
        if on_op is not None:
            on_op(op, None if error else result)
        tally.record(op.label, error)
    probe.sample(force=True)
    raw = [t1 - t0 for t0, t1 in spans]
    return raw, [d * probe.scale(t0, t1) for d, (t0, t1) in zip(raw, spans)]


def _more_passes(passes, seconds):
    spent = sum(map(sum, passes))
    return len(passes) < MIN_PASSES or spent + statistics.median(map(sum, passes)) <= seconds


def _trace_metrics(tracer, traced_raw, traced_wall, untraced_wall, solves):
    """Per-layer metrics; walls are at reference speed, span times are raw."""
    s, incl, c = tracer.totals()
    n = tracer.counts
    m = {
        "families.sawtooth.self_s": (s["families.sawtooth"], "s"),
        "families.sawtooth.calls": (c["families.sawtooth"], "count"),
        "piecewise.construct.self_s": (s["piecewise.construct"], "s"),
        "piecewise.construct.calls": (c["piecewise.construct"], "count"),
    }
    for fn in PIECEWISE_KERNEL:
        m[f"piecewise.{fn}.self_s"] = (s[f"piecewise.{fn}"], "s")
        m[f"piecewise.{fn}.calls"] = (c[f"piecewise.{fn}"], "count")
    pairing_s = incl["piecewise.plap_pairing"] + incl["certificates.monotone_gap_check"]
    intervals = n["piecewise.pairing.intervals_in"]
    m["piecewise.pairing.intervals_in"] = (intervals, "count")
    m["piecewise.pairing.ns_per_interval"] = (1e9 * pairing_s / intervals if intervals else 0.0, "ns")
    intervals = n["piecewise.test_integral.intervals_in"]
    m["piecewise.test_integral.intervals_in"] = (intervals, "count")
    m["piecewise.test_integral.ns_per_interval"] = (
        1e9 * incl["piecewise.test_integral"] / intervals if intervals else 0.0, "ns")
    m["piecewise.serialize.self_s"] = (s["piecewise.serialize"], "s")
    piecewise_self = sum(v for k, v in s.items() if k.startswith("piecewise."))
    m["piecewise.self_frac"] = (piecewise_self / traced_raw, "ratio")
    for fn in CERTIFICATE_CALLS:
        m[f"certificates.{fn}.self_s"] = (s[f"certificates.{fn}"], "s")
        m[f"certificates.{fn}.calls"] = (c[f"certificates.{fn}"], "count")
    m["certificates.serialize.self_s"] = (s["certificates.serialize"], "s")
    m["cli.main.self_s"] = (s["cli.main"], "s")
    m["cli.emit.self_s"] = (s["cli.emit"], "s")
    m["cli.emit.bytes"] = (n["cli.emit.bytes"], "B")
    for part in ("operator", "project"):
        m[f"solver.{part}.calls"] = (c[f"solver.{part}"], "count")
        m[f"solver.{part}.self_s"] = (s[f"solver.{part}"], "s")
    m["solver.extragradient.self_s"] = (s["solver.extragradient"], "s")
    m["solver.load_problem.self_s"] = (s["solver.load_problem"], "s")
    iterations = sum(x["iterations"] for x in solves)
    evals = sum(x["operator_evals"] for x in solves)
    m["solver.iterations"] = (iterations, "count")
    import workloads

    for kind, size, _ in workloads.SOLVE_CELLS:
        its = [x["iterations"] for x in solves if (x["kind"], x["n"]) == (kind, size)]
        m[f"solver.iterations.{kind}.n{size}"] = (statistics.mean(its) if its else 0.0, "count")
    # a converged solve makes 2 evaluations per iteration plus 2; the rest are retries
    m["solver.backtracks"] = (evals - 2 * iterations - 2 * len(solves), "count")
    m["solver.useful_eval_frac"] = (2 * iterations / evals if evals else 0.0, "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m["trace.coverage_frac"] = (1.0 - s["op"] / incl["op"], "ratio")
    return m


def _end_to_end(passes, setup_times):
    per_op = [statistics.median(lat) for lat in zip(*passes)]
    return {
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(per_op, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(name, seed, seconds, trace, tiny=False, spawns=SETUP_SPAWNS):
    """Run one workload and return its full result record."""
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer, installed

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    tally = Tally()
    probe = SpeedProbe()
    raw_metrics = {}
    try:
        ops = workloads.BUILDERS[name](seed, workdir, tiny)
        if not tiny:  # warm the code paths on the tiny variant, checked too
            warmdir = os.path.join(workdir, "warm")
            os.mkdir(warmdir)
            warm = workloads.BUILDERS[name](seed, warmdir, True)
            run_pass(warm, tally, [None] * len(warm), probe)
        digests = [None] * len(ops)
        raw, scaled, setup = [], [], []
        while not raw or (not trace and _more_passes(raw, seconds)):
            if not trace and len(raw) < len(spawns):
                setup += [spawn_setup(probe) for _ in range(spawns[len(raw)])]
            pass_raw, pass_scaled = run_pass(ops, tally, digests, probe)
            raw.append(pass_raw)
            scaled.append(pass_scaled)
        if trace:
            tracer = Tracer()
            solves = []
            evals_before = 0

            def on_op(op, result):
                nonlocal evals_before
                evals = tracer.totals()[2]["solver.operator"]
                if op.stats is not None and result is not None:
                    solves.append(dict(op.stats(result), operator_evals=evals - evals_before))
                evals_before = evals

            with installed(tracer):
                traced_raw, traced = run_pass(ops, tally, digests, probe, tracer, on_op)
            metrics = _trace_metrics(tracer, sum(traced_raw), sum(traced), sum(scaled[0]), solves)
            os.makedirs(OUT_DIR, exist_ok=True)
            if not tiny:
                tracer.dump(os.path.join(OUT_DIR, f"spans-{name}.npz"))
        else:
            metrics = _end_to_end(scaled, [s for _, s in setup])
            raw_metrics = _end_to_end(raw, [r for r, _ in setup])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
    return {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed, len(ops)),
        "passes": len(raw) + (1 if trace else 0),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failed_frac": len(tally.failures) / tally.attempted,
        "failures": tally.failures[:10],
        "output_sha256": digest,
        "probe_s": {"median": statistics.median(probe.durations),
                    "min": min(probe.durations), "count": len(probe.durations)},
        "pass_latencies_s": raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
    }


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "viproplab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed, ops_per_pass):
    import numpy
    from viproplab import piecewise

    backend = piecewise._make_rational
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "ops_per_pass": ops_per_pass,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sawtooth-exact", "weak-sweep", "random-exact", "galerkin-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for key, value in record["environment"].items():
        print(f"env {key} = {value}")
    print(f"output_sha256 = {record['output_sha256']}")
    print(f"failed_frac = {record['failed_frac']} ratio "
          f"({record['failed']} of {record['attempted']} op executions)")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, m in record["raw_metrics"].items():
        print(f"raw {key} = {m['value']} {m['unit']}")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
