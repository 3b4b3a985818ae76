"""Timing from outside the package: wrappers around the public functions of
each poisson_chaos module, installed by rebinding module attributes.

Two instruments, both installed only inside a benchmark child process:

- CoreTimer (always on) times the core loop of an invocation: every
  harness.collect call, whose unit of work is one replication, and every
  chaos.clt_criterion call, whose unit is one kernel audited.
- Tracer (traced runs only) records a span around every wrapped call.
  Spans are kept in memory and carry (pid, seq) ids, the id of the span
  that was open when they started, and the replication index they belong
  to (-1 outside a replication).  Pool workers forked by harness.collect
  inherit the open spans, so their spans point back at the collect span;
  each worker writes its spans to a spool file when a chunk ends, and the
  invoking process reads them back after the CLI call.

A span whose name is already open in the same process is not recorded
again: delegation (ScaledKernel to its base kernel) and recursion
(contractions.contraction_norms on a scaled kernel) count once per
outermost call.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PKG = "poisson_chaos"

# (module, function, span name); rebinding covers every module that
# imported the function by name.
FUNCTION_SPANS = (
    ("harness", "collect", "harness.collect"),
    ("harness", "summarize", "harness.summarize"),
    ("point_process", "replication_seed", "harness.seed"),
    ("point_process", "sample_pattern", "point_process.sample"),
    ("chaos", "eval_I1", "chaos.eval_I1"),
    ("chaos", "eval_I2", "chaos.eval_I2"),
    ("chaos", "clt_criterion", "chaos.clt_criterion"),
    ("chaos", "rep_block", "chaos.rep_block"),
    ("ou", "rep_linear", "ou.rep_linear"),
    ("ou", "rep_quadratic", "ou.rep_quadratic"),
    ("hazard", "rep_linear_case", "hazard.rep_linear_case"),
    ("hazard", "rep_quadratic", "hazard.rep_quadratic"),
    ("contractions", "contraction_norms", "contractions.contraction_norms"),
    ("quadrature", "integrate_checked", "quadrature.integrate_checked"),
    ("quadrature", "panel_points", "quadrature.panel_points"),
    ("hazard", "square_hazard_integral", "hazard.square_hazard_integral"),
    ("hazard", "cumulative_hazard", "hazard.cumulative_hazard"),
    ("hazard", "cumulative_mean_exact", "hazard.campbell"),
    ("hazard", "cumulative_variance_exact", "hazard.campbell"),
)

# methods of the classes defined in poisson_chaos.kernels
METHOD_SPANS = (
    ("__call__", "kernels.pair_eval"),          # arity-2 kernels only
    ("pair_time_integral", "kernels.pair_time_integral"),
    ("contraction_norms", "kernels.contraction_norms"),
    ("lp_norm", "kernels.closed_form"),
    ("integral", "kernels.closed_form"),
    ("partial_integral", "kernels.closed_form"),
    ("double_integral", "kernels.closed_form"),
)

REP_SPANS = {"chaos.rep_block", "ou.rep_linear", "ou.rep_quadratic",
             "hazard.rep_linear_case", "hazard.rep_quadratic"}

# per-layer metric -> unit; every traced run reports all of them, with 0
# where the workload does not reach the layer
LAYER_UNITS = {
    "harness.collect.self_s": "s",
    "harness.seed.s": "s",
    "harness.rep.p50_ms": "ms",
    "harness.rep.p99_ms": "ms",
    "harness.rep.failed": "count",
    "harness.summarize.s": "s",
    "harness.collect.speedup_w2": "ratio",
    "point_process.sample.calls": "count",
    "point_process.sample.s": "s",
    "point_process.sample.atoms_mean": "count",
    "point_process.sample.atoms_max": "count",
    "chaos.eval_I2.calls": "count",
    "chaos.eval_I2.s": "s",
    "chaos.eval_I2.self_s": "s",
    "chaos.eval_I2.pair_evals": "count",
    "chaos.eval_I2.pair_bytes_max": "bytes",
    "chaos.eval_I2.compensator_s": "s",
    "chaos.eval_I1.s": "s",
    "chaos.clt_criterion.s": "s",
    "kernels.pair_eval.s": "s",
    "kernels.pair_time_integral.calls": "count",
    "kernels.pair_time_integral.s": "s",
    "kernels.contraction_norms.s": "s",
    "kernels.closed_form.s": "s",
    "contractions.contraction_norms.calls": "count",
    "contractions.contraction_norms.s": "s",
    "contractions.contraction_norms.per_kernel": "ratio",
    "quadrature.integrate_checked.calls": "count",
    "quadrature.integrate_checked.s": "s",
    "quadrature.panel_points.calls": "count",
    "ou.rep_quadratic.self_s": "s",
    "hazard.square_hazard_integral.calls": "count",
    "hazard.square_hazard_integral.s": "s",
    "hazard.cumulative_hazard.calls": "count",
    "hazard.cumulative_hazard.s": "s",
    "hazard.cumulative_hazard.per_rep": "ratio",
    "hazard.campbell.s": "s",
    "cli.self_s": "s",
    "setup.package_import_s": "s",
    "setup.deps_import_s": "s",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PKG or name.startswith(PKG + "."))]


def rebind(module: str, attr: str, make_wrapper) -> None:
    """Replace poisson_chaos.<module>.<attr> by make_wrapper(original) in
    every poisson_chaos module that holds the same object."""
    original = getattr(sys.modules[f"{PKG}.{module}"], attr)
    wrapper = make_wrapper(original)
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


class CoreTimer:
    """Seconds and work units spent inside the core loop."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def install(self) -> None:
        rebind("harness", "collect", lambda fn: self._timed(fn, lambda a: a[2]))
        rebind("chaos", "clt_criterion", lambda fn: self._timed(fn, lambda a: len(a[0])))

    def _timed(self, fn, units_of):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.units += int(units_of(args))
        return timed


class Tracer:
    """In-memory span recorder; one per process (pool workers inherit it)."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.spans = []   # (pid, seq, parent, name, t0, t1, rep, size, ok)
        self.stack = []   # open spans: ((pid, seq), name)
        self.seq = 0
        self.rep = -1

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, size=None, when=None, sets_rep=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (when is not None and not when(args)) or any(n == name for _, n in tracer.stack):
                return fn(*args, **kwargs)
            if sets_rep:
                tracer.rep = int(args[1])
            pid = os.getpid()
            tracer.seq += 1
            sid = (pid, tracer.seq)
            parent = tracer.stack[-1][0] if tracer.stack else None
            rep = tracer.rep
            tracer.stack.append((sid, name))
            ok = False
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                n = size(args, out) if (size is not None and ok) else 0
                tracer.spans.append((pid, sid[1], parent, name, t0, t1, rep, n, ok))
                if name in REP_SPANS:
                    tracer.rep = -1
        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        sizes = {
            "chaos.eval_I2": lambda a, out: len(a[1]),
            "point_process.sample": lambda a, out: len(out),
        }
        for module, attr, name in FUNCTION_SPANS:
            rebind(module, attr, lambda fn, name=name: self.wrap(
                name, fn, size=sizes.get(name), sets_rep=(name == "harness.seed")))
        rebind("harness", "_run_chunk", self._spooled)
        kernels = sys.modules[f"{PKG}.kernels"]
        classes = [c for c in vars(kernels).values()
                   if isinstance(c, type) and c.__module__ == kernels.__name__]
        for method, name in METHOD_SPANS:
            when = (lambda a: getattr(a[0], "arity", 0) == 2) if method == "__call__" else None
            for cls in classes:
                if method in vars(cls):
                    setattr(cls, method, self.wrap(name, vars(cls)[method], when=when))

    def _spooled(self, fn):
        """Chunk runner that, inside a pool worker, writes the chunk's spans
        to the spool when the chunk ends."""
        tracer = self

        @functools.wraps(fn)
        def run_chunk(args):
            if os.getpid() == tracer.pid:
                return fn(args)
            start = len(tracer.spans)
            try:
                return fn(args)
            finally:
                spans = tracer.spans[start:]
                del tracer.spans[start:]
                path = tracer.spool / f"spans-{os.getpid()}-{args[3]}.json"
                path.write_text(json.dumps(spans), encoding="utf-8")
        return run_chunk

    def absorb_spool(self) -> None:
        for path in sorted(self.spool.glob("spans-*.json")):
            for s in json.loads(path.read_text(encoding="utf-8")):
                parent = tuple(s[2]) if s[2] is not None else None
                self.spans.append((s[0], s[1], parent, *s[3:]))
            path.unlink()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(t0, t1, intervals) -> float:
    """Length of the union of intervals, clipped to [t0, t1]."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans, units: int) -> dict:
    """Per-layer metrics of one invocation from its spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    name_of = {}
    for s in spans:
        pid, seq, parent, name = s[0], s[1], s[2], s[3]
        by_name[name].append(s)
        name_of[(pid, seq)] = name
        if parent is not None:
            children[parent].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s[5] - s[4] for s in by_name[name])

    def self_total(name):
        return sum((s[5] - s[4]) - _covered(s[4], s[5], [(c[4], c[5]) for c in children[(s[0], s[1])]])
                   for s in by_name[name])

    reps = [s for name in REP_SPANS for s in by_name[name]]
    rep_ms = [1e3 * (s[5] - s[4]) for s in reps]
    atoms = [s[7] for s in by_name["point_process.sample"]]
    pairs = [s[7] for s in by_name["chaos.eval_I2"]]
    compensator = sum(s[5] - s[4] for s in by_name["kernels.closed_form"]
                      if s[2] is not None and name_of.get(s[2]) == "chaos.eval_I2")
    n_rep = units if reps else 0
    return {
        "harness.collect.self_s": self_total("harness.collect"),
        "harness.seed.s": total("harness.seed"),
        "harness.rep.p50_ms": _percentile(rep_ms, 50),
        "harness.rep.p99_ms": _percentile(rep_ms, 99),
        "harness.rep.failed": sum(1 for s in reps if not s[8]),
        "harness.summarize.s": total("harness.summarize"),
        "point_process.sample.calls": calls("point_process.sample"),
        "point_process.sample.s": total("point_process.sample"),
        "point_process.sample.atoms_mean": sum(atoms) / len(atoms) if atoms else 0.0,
        "point_process.sample.atoms_max": max(atoms, default=0),
        "chaos.eval_I2.calls": calls("chaos.eval_I2"),
        "chaos.eval_I2.s": total("chaos.eval_I2"),
        "chaos.eval_I2.self_s": self_total("chaos.eval_I2"),
        "chaos.eval_I2.pair_evals": sum(n * n for n in pairs),
        "chaos.eval_I2.pair_bytes_max": 8 * max(pairs, default=0) ** 2,
        "chaos.eval_I2.compensator_s": compensator,
        "chaos.eval_I1.s": total("chaos.eval_I1"),
        "chaos.clt_criterion.s": total("chaos.clt_criterion"),
        "kernels.pair_eval.s": total("kernels.pair_eval"),
        "kernels.pair_time_integral.calls": calls("kernels.pair_time_integral"),
        "kernels.pair_time_integral.s": total("kernels.pair_time_integral"),
        "kernels.contraction_norms.s": total("kernels.contraction_norms"),
        "kernels.closed_form.s": total("kernels.closed_form"),
        "contractions.contraction_norms.calls": calls("contractions.contraction_norms"),
        "contractions.contraction_norms.s": total("contractions.contraction_norms"),
        "contractions.contraction_norms.per_kernel":
            calls("contractions.contraction_norms") / units
            if by_name["chaos.clt_criterion"] and units else 0.0,
        "quadrature.integrate_checked.calls": calls("quadrature.integrate_checked"),
        "quadrature.integrate_checked.s": total("quadrature.integrate_checked"),
        "quadrature.panel_points.calls": calls("quadrature.panel_points"),
        "ou.rep_quadratic.self_s": self_total("ou.rep_quadratic"),
        "hazard.square_hazard_integral.calls": calls("hazard.square_hazard_integral"),
        "hazard.square_hazard_integral.s": total("hazard.square_hazard_integral"),
        "hazard.cumulative_hazard.calls": calls("hazard.cumulative_hazard"),
        "hazard.cumulative_hazard.s": total("hazard.cumulative_hazard"),
        "hazard.cumulative_hazard.per_rep":
            calls("hazard.cumulative_hazard") / n_rep if n_rep else 0.0,
        "hazard.campbell.s": total("hazard.campbell"),
        "cli.self_s": self_total("cli"),
    }


def import_split(stderr: str) -> tuple[float, float]:
    """(package_s, deps_s) from `python -X importtime` output: self time of
    the poisson_chaos modules, and cumulative time of the modules they
    import that are not part of the package."""
    pending = defaultdict(list)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2]
        label = raw.lstrip(" ")
        level = (len(raw) - len(label) - 1) // 2
        node = (label, int(parts[0]), int(parts[1]), pending.pop(level + 1, []))
        pending[level].append(node)
        if level == 0 and label == f"{PKG}.cli":
            break

    package = deps = 0

    def walk(node):
        nonlocal package, deps
        label, self_us, _, kids = node
        package += self_us
        for kid in kids:
            if kid[0] == PKG or kid[0].startswith(PKG + "."):
                walk(kid)
            else:
                deps += kid[2]

    for root in pending.get(0, []):
        if root[0] == PKG or root[0].startswith(PKG + "."):
            walk(root)
    return package / 1e6, deps / 1e6
