"""Benchmark of the poisson-chaos command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--save RESULTS.jsonl]

NAME is one of the workloads in workloads.py, or `all` to run each in
turn.  A run starts fresh interpreters (one per CLI invocation) that import
poisson_chaos.cli from src/ and call cli.main in-process, until S seconds
have passed and at least three invocations are done.  Every report the CLI
writes is checked against the workload's reference (checks.py).

--trace 0 reports the end-to-end metrics, medians over the invocations:
  setup_s      interpreter start until poisson_chaos.cli is imported
  run_s        wall time of cli.main, from arguments to written report
  units_per_s  replications (or kernels audited, for the criterion
               workload) per second spent inside the core loop
  peak_rss_mb  peak resident memory of the invocation's process
A single-worker invocation is pinned to one vCPU, alternating between them,
and its times are rescaled to a reference host speed by the probe that
hostspeed.py times during the invocation.  The medians as measured
(wall_setup_s, wall_run_s, wall_units_per_s) and of the probe time
(probe_ms) are printed too, but are not part of the result.
--trace 1 first runs untraced invocations, alternating one and two pool
workers, then a fixed number of traced invocations with fixed seeds, and
reports the per-layer metrics of tracing.py, averaged per invocation.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; failed_ratio = failed / attempted, where an
invocation fails if it raises, exits with a status other than 0 or 1, or
its report fails the check.  The lines before it give every metric by name
and unit, then the environment record.  --save appends the run, with its
environment record and per-invocation samples, to a JSON-lines file that
compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_report, load_reference
from hostspeed import REFERENCE_PROBE_S
from tracing import LAYER_UNITS, import_split
from workloads import WORKLOADS, Workload, cores, master_seed

HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}
EXTRA_UNITS = {"wall_setup_s": "s", "wall_run_s": "s", "wall_units_per_s": "1/s", "probe_ms": "ms"}
MIN_INVOCATIONS = 3
N_TRACED = 2
BUDGET_S = 165.0   # a run must end well within 180 s


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """The invocations of one workload in one benchmark run."""

    def __init__(self, root: Path, workload: Workload, seed: int, scratch: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = _clock()
        self.invocations: list[dict] = []
        self.versions: dict = {}

    def time_left(self) -> float:
        return BUDGET_S - (_clock() - self.started)

    def invoke(self, key, trace: bool = False, workers: int | None = None) -> dict:
        """Run one CLI invocation in a fresh interpreter and check its report."""
        n = len(self.invocations)
        out = self.scratch / f"out-{n}"
        result_path = self.scratch / f"result-{n}.json"
        spool = self.scratch / f"spool-{n}"
        spool.mkdir()
        seed = master_seed(self.workload.name, self.seed, key)
        argv = self.workload.argv(seed, str(out), workers)
        workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
        cpu = str(n % cores()) if workers == 1 else "-"
        record = {"key": key, "master_seed": seed, "trace": trace, "workers": workers,
                  "cpu": cpu, "problems": []}
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
               str(HERE / "invoke.py"), str(result_path), "1" if trace else "0", str(spool),
               cpu, *argv]
        spawn = _clock()
        proc = subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the child and its pool workers
            _, stderr = proc.communicate()
            record["problems"].append("timed out")
        except BaseException:   # interrupted or terminated: leave nothing running
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if result_path.is_file():
            data = json.loads(result_path.read_text(encoding="utf-8"))
            self.versions = data["versions"]
            record.update(setup_s=data["ready"] - spawn, run_s=data["run_s"],
                          core_s=data["core_s"], units=data["units"],
                          peak_rss_mb=data["peak_rss_mb"], layers=data.get("layers"),
                          probe_s=data["probe_s"])
            if data["error"] is not None:
                record["problems"].append("raised " + data["error"].strip().splitlines()[-1])
            elif data["status"] not in (0, 1):
                record["problems"].append(f"exit status {data['status']}")
            else:
                report_path = out / self.workload.report
                if report_path.is_file():
                    report = json.loads(report_path.read_text(encoding="utf-8"))
                    record["problems"] += check_report(report, load_reference(self.workload.name))
                else:
                    record["problems"].append(f"no report {self.workload.report}")
        elif not record["problems"]:
            tail = stderr.strip().splitlines()[-1:] if stderr else []
            record["problems"].append(f"no result (exit code {proc.returncode}) {tail}")
        if trace:
            record["import_split"] = import_split(stderr or "")
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        record["cost_s"] = _clock() - spawn
        self.invocations.append(record)
        return record

    def keep_going(self, t0: float, seconds: float, done: int, minimum: int) -> bool:
        last = self.invocations[-1]["cost_s"] if self.invocations else 0.0
        if self.time_left() < 2.0 * last + 5.0:
            return False
        return done < minimum or _clock() - t0 < seconds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(run: Run, seconds: float) -> dict:
    t0 = _clock()
    k = 0
    while run.keep_going(t0, seconds, k, MIN_INVOCATIONS):
        run.invoke(k)
        k += 1
    timed = [r for r in run.invocations if "run_s" in r]
    if not timed:
        return {}
    busy = [r for r in timed if r["core_s"] > 0]
    return {
        "setup_s": _median([r["setup_s"] * _speed(r) for r in timed]),
        "run_s": _median([r["run_s"] * _speed(r) for r in timed]),
        "units_per_s": _median([r["units"] / (r["core_s"] * _speed(r)) for r in busy]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
        # as measured, before rescaling; printed, not part of the result
        "wall_setup_s": _median([r["setup_s"] for r in timed]),
        "wall_run_s": _median([r["run_s"] for r in timed]),
        "wall_units_per_s": _median([r["units"] / r["core_s"] for r in busy]),
        "probe_ms": _median([1e3 * r["probe_s"] for r in timed]),
    }


def _speed(r: dict) -> float:
    """Host speed during an invocation relative to the reference host
    (hostspeed.py): times are multiplied by it."""
    return REFERENCE_PROBE_S / r["probe_s"]


def per_layer(run: Run, seconds: float) -> dict:
    """Untraced invocations at the workload's worker count and at the other
    one (1 <-> 2), then N_TRACED traced invocations with fixed seeds."""
    wl = run.workload
    base = max(1, min(wl.workers, cores()))
    flip = 1 if base == 2 else min(2, cores())
    core = {1: [], 2: []}
    untraced = []
    t0 = _clock()
    k = 0
    while run.keep_going(t0, seconds, k, 1):
        rec = run.invoke(k)
        untraced.append(rec)
        if wl.monte_carlo and "core_s" in rec:
            core[rec["workers"]].append(rec["core_s"])
            other = run.invoke(k, workers=flip)
            if "core_s" in other:
                core[other["workers"]].append(other["core_s"])
        k += 1
    traced = [run.invoke(f"trace{i}", trace=True) for i in range(N_TRACED)]
    traced = [r for r in traced if r.get("layers")]
    if not traced or not any("run_s" in r for r in untraced):
        return {}
    metrics = {name: sum(r["layers"][name] for r in traced) / len(traced)
               for name in traced[0]["layers"]}
    metrics["setup.package_import_s"] = _median([r["import_split"][0] for r in traced])
    metrics["setup.deps_import_s"] = _median([r["import_split"][1] for r in traced])
    metrics["harness.collect.speedup_w2"] = (
        _median(core[1]) / _median(core[2]) if core[1] and core[2] else 0.0)
    metrics["trace.run_s"] = _median([r["run_s"] for r in traced])
    metrics["trace.overhead"] = (metrics["trace.run_s"]
                                 / _median([r["run_s"] for r in untraced if "run_s" in r]) - 1.0)
    return metrics


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, which identifies the code measured
    also where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, versions: dict, loadavg) -> dict:
    return {
        "nproc": cores(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "loadavg_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run: (result object, values not rescaled, environment
    record, invocations)."""
    loadavg = os.getloadavg()
    scratch = root / ".perfbench_tmp" / f"run-{os.getpid()}-{name}"
    scratch.mkdir(parents=True)
    try:
        run = Run(root, WORKLOADS[name], seed, scratch)
        values = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(1 for r in run.invocations if r["problems"])
    result = None
    if values:
        result = {"correct": failed == 0, "attempted": len(run.invocations), "failed": failed,
                  "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}
    extra = {m: values[m] for m in EXTRA_UNITS if m in values}
    return result, extra, environment(root, seed, run.versions, loadavg), run.invocations


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds through Run.invoke, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="append the run to this JSON-lines result set")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "poisson_chaos" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/poisson_chaos/cli.py not found",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, extra, env, invocations = run_workload(root, name, args.seed, args.seconds,
                                                       bool(args.trace))
        for rec in invocations:
            for problem in rec["problems"]:
                print(f"{name}: invocation {rec['key']} (master seed {rec['master_seed']}): "
                      f"{problem}", file=sys.stderr)
        if result is None:
            print(f"perfbench: {name}: no invocation produced timings", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        for metric, value in extra.items():
            print(f"{name}: {metric} = {value:.6g} {EXTRA_UNITS[metric]} (not rescaled)")
        print(f"{name}: failed_ratio = {result['failed']}/{result['attempted']} "
              f"= {result['failed'] / result['attempted']:.6g} ratio")
        print(json.dumps({"workload": name, "env": env}, sort_keys=True))
        if args.save is not None:
            samples = [{k: v for k, v in r.items() if k not in ("layers", "import_split")}
                       for r in invocations]
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": env, "result": result, "not_rescaled": extra,
                      "invocations": samples}
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
