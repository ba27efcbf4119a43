"""Outside-in tracer: wraps the program's public functions from the bench.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory
and written out once at the end; self time and call counts are folded in
as each span closes.  Nothing is recorded outside an op, so the output
checks, which call some of the same functions, never show up.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

_now = time.perf_counter

# (module, qualified name) -> span name; methods are patched on their class
SPAN_NAMES = {
    ("piecewise", "PiecewiseLinearFn.__post_init__"): "piecewise.construct",
    ("piecewise", "PiecewiseConstFn.__post_init__"): "piecewise.construct",
    ("piecewise", "derivative"): "piecewise.derivative",
    ("piecewise", "common_refinement"): "piecewise.common_refinement",
    ("piecewise", "plap_pairing"): "piecewise.plap_pairing",
    ("piecewise", "pow_norm"): "piecewise.pow_norm",
    ("piecewise", "lin_comb"): "piecewise.lin_comb",
    ("piecewise", "abs_pow_integral"): "piecewise.abs_pow_integral",
    ("piecewise", "test_integral"): "piecewise.test_integral",
    ("piecewise", "dyadic_indicators"): "piecewise.dyadic_indicators",
    ("piecewise", "PiecewiseLinearFn.to_json_dict"): "piecewise.serialize",
    ("piecewise", "PiecewiseConstFn.to_json_dict"): "piecewise.serialize",
    ("piecewise", "PiecewiseLinearFn.from_json_dict"): "piecewise.serialize",
    ("families", "sawtooth"): "families.sawtooth",
    ("families", "scaled_hat"): "families.scaled_hat",
    ("families", "gap_negativity_threshold"): "families.gap_negativity_threshold",
    ("certificates", "pairing_sequence"): "certificates.pairing_sequence",
    ("certificates", "equilibrium_gap"): "certificates.equilibrium_gap",
    ("certificates", "monotone_gap_check"): "certificates.monotone_gap_check",
    ("certificates", "weak_convergence_evidence"): "certificates.weak_convergence_evidence",
    ("certificates", "ky_fan_violation_certificate"): "certificates.ky_fan_violation_certificate",
    ("certificates", "pseudomonotone_premise_audit"): "certificates.pseudomonotone_premise_audit",
    ("certificates", "holder_boundedness_check"): "certificates.holder_boundedness_check",
    ("certificates", "Certificate.to_json_dict"): "certificates.serialize",
    ("certificates", "PairingSequenceReport.to_json_dict"): "certificates.serialize",
    ("certificates", "WeakConvergenceReport.to_json_dict"): "certificates.serialize",
    ("cli", "main"): "cli.main",
    ("cli", "_emit"): "cli.emit",
    ("solver", "GalerkinOperator.__call__"): "solver.operator",
    ("solver", "Box.project"): "solver.project",
    ("solver", "Ball.project"): "solver.project",
    ("solver", "extragradient_solve"): "solver.extragradient",
    ("solver", "load_problem"): "solver.load_problem",
    ("solver", "SolveResult.to_json_dict"): "solver.serialize",
}

# every namespace that may hold a public function under its own name
NAMESPACES = ("viproplab", "viproplab.piecewise", "viproplab.families",
              "viproplab.certificates", "viproplab.cli", "viproplab.solver")


def _merged_intervals(args, kwargs):
    u, w = args[:2] if len(args) >= 2 else (kwargs["u"], kwargs["w"])
    return len(set(u.breakpoints) | set(w.breakpoints)) - 1


def _function_intervals(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return len(f.interval_values)


def _emitted_bytes(args, kwargs, before):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    if out:
        return os.path.getsize(out)
    return sys.stdout.tell() - before


# work counts measured on the inputs, so they mean the same whatever the
# implementation behind the public function does
INPUT_COUNTS = {
    "piecewise.plap_pairing": ("piecewise.pairing.intervals_in", _merged_intervals),
    "certificates.monotone_gap_check": ("piecewise.pairing.intervals_in", _merged_intervals),
    "piecewise.test_integral": ("piecewise.test_integral.intervals_in", _function_intervals),
}


class Tracer:
    """Span store plus per-name totals, filled by the wrappers it makes."""

    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.op_id = array("l")
        self._self = []
        self._incl = []
        self._calls = []
        self.counts = defaultdict(int)
        self.op = None  # id of the op being timed; None outside ops
        self._stack: list = []  # one [span index, child seconds] per open span
        self._run_op = self.wrap("op", lambda fn: fn())

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._self.append(0.0)
            self._incl.append(0.0)
            self._calls.append(0)
        return self.names.index(name)

    def totals(self):
        """Self seconds, inclusive seconds and calls, by span name."""
        return (defaultdict(float, zip(self.names, self._self)),
                defaultdict(float, zip(self.names, self._incl)),
                defaultdict(int, zip(self.names, self._calls)))

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = INPUT_COUNTS.get(name)
        emit = name == "cli.emit"
        tracer, stack, counts = self, self._stack, self.counts
        start, end, parent, name_id, op_id = (
            self.start, self.end, self.parent, self.name_id, self.op_id)
        self_s, incl_s, calls = self._self, self._incl, self._calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            t_in = _now()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            if emit:
                before = sys.stdout.tell()
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            op_id.append(tracer.op)
            end.append(0.0)
            frame = [idx, 0.0]
            t0 = _now()
            start.append(t0)
            if stack:  # the tracer's own bookkeeping is nobody's self time
                stack[-1][1] += t0 - t_in
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                end[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                incl_s[nid] += dur
                calls[nid] += 1
                if emit:
                    counts["cli.emit.bytes"] += _emitted_bytes(args, kwargs, before)
                if stack:
                    stack[-1][1] += _now() - t0

        return traced

    def wrap_op(self, op_index: int, fn):
        """Run one op as the root span ``op`` under its own id."""
        self.op = op_index
        try:
            return self._run_op(fn)
        finally:
            self.op = None

    def dump(self, path: str) -> None:
        import json
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            op_id=np.asarray(self.op_id),
        )


class installed:
    """Context manager: patch every public entry point, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self):
        mods = {name: sys.modules[name] for name in NAMESPACES}
        wrappers = {}
        for (mod, qual), span in SPAN_NAMES.items():
            owner = mods["viproplab." + mod]
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            raw = owner.__dict__[parts[-1]]
            if isinstance(raw, classmethod):
                fn = raw.__func__
                wrapped = classmethod(self.tracer.wrap(span, fn))
            else:
                fn = raw
                wrapped = self.tracer.wrap(span, fn)
            self._set(owner, parts[-1], raw, wrapped)
            if len(parts) == 1:
                wrappers[id(fn)] = (fn, wrapped)
        # functions imported by name elsewhere: patch each binding too
        for ns in mods.values():
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(ns, attr, value, hit[1])
        return self.tracer

    def _set(self, owner, attr, old, new) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        return False
