"""Command-line entry point: binds configurations to experiments and emits
reports.

Subcommands: criterion | block | ou | hazard | sample.  Flags override
config-file values.  The Monte Carlo subcommands (block, ou, hazard) run
harness.collect and harness.summarize; they and criterion share one tail,
_finish, that writes the JSON report, the --format csv summary and the --dump
value files, and takes the exit code from one verdict.  Every output file
embeds the tool version, the config hash, and the master seed, so a rerun
from that triple reproduces the file byte-identically; wall times go to
stdout only.  Exit codes: 0 all verdicts pass, 1 at least one fails, 2 usage
or configuration error (an unknown family, theorem or case, a control that
does not match the requested case or theorem, fewer than 100 replications
for ou theorem 4, a rate, horizon or bandwidth that is not finite and
positive, an eps that is not finite and nonnegative, a hazard control with
infinite mass (a Gamma control with eps = 0), a window bound that is not
finite, fewer than one block),
3 a replication crashed (the one-line message names its index and the master
seed) or a numerical check failed.  The exit code follows the JSON `passed`
but for block, whose exit code judges the fourth moment E G^2 against
3 + 37/n while its JSON `passed` judges the KS distance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .configio import ConfigError, config_hash, control_from_section, read_config, window_from_section
from .point_process import DiscreteControl, Window, sample_pattern, pattern_to_csv
from .kernels import BlockKernel, GridKernel, OUDoubleHKernel
from . import chaos, hazard as hz, ou as oumod
from .harness import TargetSpec, collect, summarize, values_to_csv

USAGE_ERROR = 2
CRASH = 3


def _provenance(args) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config_hash(args.config),
        "master_seed": args.seed,
    }


def _emit_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _emit_summary_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("T,mean,var,var_se,m3,m4,ks,target,verdict\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)
                              for c in row) + "\n")


def _report_row(T, report, target, passed: bool, m4=None) -> tuple:
    # m4 replaces the kurtosis column when given
    return (T, report.mean, report.variance, report.variance_se, report.skewness,
            report.kurtosis if m4 is None else m4,
            report.ks_distance if report.ks_distance is not None else "",
            target, "PASS" if passed else "FAIL")


def _finish(args, stem: str, payload: dict, passed: bool, label: str, t0: float,
            rows=(), dumps=None) -> int:
    """Shared tail of the report-writing subcommands.  Writes <stem>.json
    with the provenance stamped in, the summary rows (if any) to <stem>.csv
    under --format csv and each dumps entry (file name -> per-replication
    values) under --dump, prints the verdict and the wall time on one line,
    and returns 0 if passed, else 1."""
    outdir = Path(args.out)
    payload.update(_provenance(args))
    _emit_json(outdir / f"{stem}.json", payload)
    if args.dump and dumps:
        for name, values in dumps.items():
            values_to_csv(values, outdir / name)
    if args.format == "csv" and rows:
        _emit_summary_csv(outdir / f"{stem}.csv", rows)
    print(f"{label}: {'PASS' if passed else 'FAIL'}  [{time.perf_counter() - t0:.1f}s]")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_criterion(args) -> int:
    t0 = time.perf_counter()
    control = DiscreteControl(values=(1.0,), weights=(1.0,))
    if args.family in ("block", "fixed"):
        index = [int(t) for t in args.indices.split(",")]
        if args.family == "block":
            kernels = [BlockKernel(n) for n in index]
            windows = [Window(0.0, float(n)) for n in index]
        else:
            kernels = [GridKernel((0.0, 1.0), np.array([[2.0 ** -0.5]]))] * len(index)
            windows = [Window(0.0, 1.0)] * len(index)
        labels = [f"{args.family}_{n}" for n in index]
    else:
        lam = args.lam
        index = [float(t) for t in args.indices.split(",")]
        bases = [OUDoubleHKernel(lam, t) for t in index]  # rejects lam, T <= 0 first
        scale = math.sqrt(lam) if args.family == "ou-pair" else math.sqrt(lam / 2.0)
        control = oumod.DEFAULT_JUMPS
        kernels = [h.scaled(scale * math.sqrt(h.T)) for h in bases]
        windows = [oumod.OUConfig(lam, t).window for t in index]
        labels = [f"T_{t:g}" for t in index]
    verdict = chaos.clt_criterion(kernels, control, windows, labels=labels, index=index)
    return _finish(args, f"criterion_{args.family}", verdict.to_dict(), verdict.passed,
                   f"criterion[{args.family}]", t0)


def cmd_block(args) -> int:
    n = args.n
    BlockKernel(n)   # rejects n < 1 before any replication
    t0 = time.perf_counter()
    values = collect(chaos.rep_block, n, args.reps, args.seed, args.workers)
    f_vals, g_vals = values[:, 0], values[:, 1]
    target = 3.0 + 37.0 / n
    report = summarize(f"block_I2_n{n}", f_vals,
                       targets=[TargetSpec("ks", 0.0, 0.02)],
                       master_seed=args.seed, ks_reference_variance=1.0,
                       tail_thresholds=(10.0, 100.0, 1000.0))
    g2 = float(np.mean(g_vals ** 2))
    g2_se = float(np.std(g_vals ** 2, ddof=1) / math.sqrt(g_vals.size))
    payload = report.to_dict()
    payload["fourth_moment_mc"] = g2
    payload["fourth_moment_mc_se"] = g2_se
    payload["fourth_moment_target"] = target
    # The one verdict that is not the report's own: the exit code judges the
    # fourth moment while the JSON `passed` judges KS (ROADMAP item 1 gives
    # block one verdict).  The summary row carries E G^2 in its m4 column.
    passed = abs(g2 - target) <= 0.15
    return _finish(args, f"block_n{n}", payload, passed,
                   f"block n={n}: fourth moment {g2:.4f} (target {target:.4f}), "
                   f"ks {report.ks_distance:.4f}", t0,
                   rows=[_report_row(n, report, target, passed, m4=g2)],
                   dumps={f"block_n{n}_values.csv": f_vals})


def cmd_ou(args) -> int:
    lam, T = args.lam, args.T
    cfg = oumod.OUConfig(lam=lam, T=T)
    t0 = time.perf_counter()
    if args.theorem == 4:
        if args.reps < 100:
            raise ValueError("need at least 100 replications")
        target = oumod.linear_variance_exact(lam, T)
        series = {"linear": collect(oumod.rep_linear, cfg, args.reps, args.seed, args.workers)[:, 0]}
        report = summarize(f"ou_linear_T{T:g}", series["linear"],
                           targets=[TargetSpec("variance", target, 0.15)],
                           master_seed=args.seed, ks_reference_variance=target)
        reports = {"linear": report}
        payload = report.to_dict()
    else:
        values = collect(oumod.rep_quadratic, cfg, args.reps, args.seed, args.workers)
        k2, k1, total, sv = (values[:, i] for i in range(4))
        derived = {"k2": 2.0 / lam, "k1": cfg.c_nu_sq,
                   "total": 2.0 / lam + cfg.c_nu_sq, "sample_var": 2.0 / lam + cfg.c_nu_sq}
        stated = {"k2": 1.0 / lam, "k1": cfg.c_nu_sq,
                  "total": 1.0 / lam + cfg.c_nu_sq, "sample_var": 1.0 / lam + cfg.c_nu_sq}
        series = {"k2": k2, "k1": k1, "total": total} if args.theorem == 5 else {"sample_var": sv}
        reports = {key: summarize(f"ou_{key}_T{T:g}", v,
                                  targets=[TargetSpec("variance", derived[key], 0.2)],
                                  master_seed=args.seed, ks_reference_variance=derived[key])
                   for key, v in series.items()}
        payload = {key: r.to_dict() for key, r in reports.items()}
        payload["targets_stated"] = stated
        payload["targets_derived"] = derived
        payload["corr_k2_k1"] = float(np.corrcoef(k2, k1)[0, 1])
    return _finish(args, f"ou_thm{args.theorem}_T{T:g}", payload,
                   all(r.passed for r in reports.values()),
                   f"ou theorem {args.theorem} T={T:g}", t0,
                   rows=[_report_row(T, r, r.verdicts[0].target, r.passed)
                         for r in reports.values()],
                   dumps={f"ou_thm{args.theorem}_{key}_values.csv": v
                          for key, v in series.items()})


def _hazard_model(args) -> hz.HazardModel:
    if args.config:
        sections = read_config(args.config)
        control = control_from_section(sections.get("control", {}))
    elif args.case == 2:
        control = hz.ExtendedGammaControl(eps=args.eps)
    elif args.case == 3:
        control = hz.BetaControl()
    else:
        control = DiscreteControl(values=(1.0,), weights=(1.0,))
    model = hz.rect_model(control, T=args.T, tau=args.tau)
    if isinstance(control, hz.ExtendedGammaControl):
        print(f"neglected mean mass from eps-truncation: ~{control.neglected_mean_mass():.2e} per unit time")
    return model


def cmd_hazard(args) -> int:
    model = _hazard_model(args)
    t0 = time.perf_counter()
    # the targets are computed first: each raises CaseMismatchError, a usage
    # error, for a model its theorem or case is not stated for
    if args.theorem == 7:
        target = hz.linear_case_targets(model, args.case)
        center, scale = hz.linear_center_scale(model, args.case)
        values = collect(hz.rep_linear_case, (model, center, scale), args.reps, args.seed,
                         args.workers)
        stat, cum = values[:, 0], values[:, 1]
        tol = {1: 0.3, 2: 0.8, 3: 1.0}[args.case]
        report = summarize(f"hazard_case{args.case}_T{args.T:g}", stat,
                           targets=[TargetSpec("variance", target, tol)],
                           master_seed=args.seed, ks_reference_variance=target)
        payload = report.to_dict()
        payload["empirical_centering_mean_H"] = float(np.mean(cum))
        payload["campbell_mean_H"] = hz.cumulative_mean_exact(model)
        payload["campbell_variance_H"] = hz.cumulative_variance_exact(model)
        stem = f"hazard_thm7_case{args.case}_T{args.T:g}"
    else:
        stated = hz.quadratic_variance_stated(model, args.variant)
        target = hz.quadratic_variance_derived(model, args.variant)
        values = collect(hz.rep_quadratic, model, args.reps, args.seed, args.workers)
        stat = values[:, 0 if args.variant == "raw" else 1]
        tol = 4.0 if args.variant == "raw" else 1.5
        report = summarize(f"hazard_quad_{args.variant}_T{args.T:g}", stat,
                           targets=[TargetSpec("variance", target, max(tol, 0.1 * target))],
                           master_seed=args.seed, ks_reference_variance=target)
        payload = report.to_dict()
        payload["variance_stated"] = stated
        payload["variance_derived"] = target
        stem = f"hazard_thm8_{args.variant}_T{args.T:g}"
    return _finish(args, stem, payload, report.passed, f"hazard theorem {args.theorem}", t0,
                   rows=[_report_row(args.T, report, target, report.passed)],
                   dumps={f"{stem}_values.csv": stat})


def cmd_sample(args) -> int:
    outdir = Path(args.out)
    if args.config:
        sections = read_config(args.config)
        control = control_from_section(sections.get("control", {}))
        window = window_from_section(sections.get("window", {}))
    else:
        control = DiscreteControl(values=(1.0,), weights=(1.0,))
        window = Window(args.x_lo, args.x_hi)
    pattern = sample_pattern(control, window, args.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "pattern.csv"
    pattern_to_csv(pattern, path)
    extra = control.neglected_second_moment()
    print(f"wrote {path} ({len(pattern)} atoms, mass {pattern.total_mass:.6g}, "
          f"neglected second-moment mass {extra:.3e})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poisson-chaos",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags every subcommand shares, built once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--seed", type=int, default=None, help="master seed")
    common.add_argument("--reps", "--R", type=int, default=None, help="replication count")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--dump", action="store_true",
                        help="also stream per-replication values to CSV")

    p = sub.add_parser("criterion", parents=[common],
                       help="audit a kernel sequence for the Gaussian limit")
    p.add_argument("--family", required=True, choices=("block", "fixed", "ou-pair", "ou-pair-unit"),
                   help="ou-pair scales the pair kernel by sqrt(lam), ou-pair-unit by sqrt(lam/2)")
    p.add_argument("--indices", default="10,30,100,300,1000",
                   help="comma-separated sequence indices (block sizes or horizons)")
    p.add_argument("--lam", "--lambda", type=float, default=1.0)

    p = sub.add_parser("block", parents=[common],
                       help="Monte Carlo fourth-moment check for the block family")
    p.add_argument("--n", type=int, default=50, help="number of unit-mass blocks")

    p = sub.add_parser("ou", parents=[common], help="moving-average process experiments")
    p.add_argument("--theorem", type=int, required=True, choices=(4, 5, 6),
                   help="4 = linear statistic, 5 = quadratic split, 6 = sample variance")
    p.add_argument("--lam", "--lambda", type=float, default=1.0)
    p.add_argument("--T", type=float, default=200.0)

    p = sub.add_parser("hazard", parents=[common], help="random hazard rate experiments")
    p.add_argument("--theorem", type=int, required=True, choices=(7, 8),
                   help="7 = linear, 8 = quadratic")
    p.add_argument("--case", type=int, default=1, choices=(1, 2, 3),
                   help="control family case for theorem 7")
    p.add_argument("--variant", choices=("raw", "centered"), default="raw")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--eps", type=float, default=1e-4)

    p = sub.add_parser("sample", parents=[common], help="dump one point pattern as CSV")
    p.add_argument("--x-lo", type=float, default=0.0)
    p.add_argument("--x-hi", type=float, default=10.0)
    return parser


def _resolve_defaults(args) -> None:
    """Config-file [experiment] values fill in seed/reps; explicit flags win."""
    section = {}
    if args.config:
        section = read_config(args.config).get("experiment", {})
    if args.seed is None:
        args.seed = int(section.get("seed", 20240801))
    if args.reps is None:
        args.reps = int(section.get("reps", 5000))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    handlers = {"criterion": cmd_criterion, "block": cmd_block,
                "ou": cmd_ou, "hazard": cmd_hazard, "sample": cmd_sample}
    try:
        _resolve_defaults(args)
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"crash: {exc}", file=sys.stderr)
        return CRASH


if __name__ == "__main__":
    raise SystemExit(main())
