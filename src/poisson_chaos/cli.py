"""Command-line entry point: binds configurations to experiments and emits
reports.

Subcommands: criterion | block | ou | hazard | sample.  Each value has one
source, but --seed and --reps take precedence over [experiment]; the control
comes only from [control], the window only from --x-lo/--x-hi.  The Monte
Carlo subcommands (block, ou, hazard) alone take --reps, --format, --workers
and --dump; they run harness.collect and harness.summarize, and they and
criterion share one tail, _finish, that writes the JSON report, the
--format csv summary and the --dump value files, and takes the exit code
from one verdict.  Every output file embeds the tool version, the config
hash, and the master seed, so a rerun from that triple reproduces the file
byte-identically; wall times go to stdout only.  Exit codes: 0 all verdicts
pass, 1 at least one fails, 2 usage or configuration error (a flag the
subcommand does not take, an unknown family, theorem or case, a control that
does not match the requested case or theorem, hazard case 2 at T <= 1, fewer
than two replications (100 for ou theorem 4) or one worker, a rate, horizon
or bandwidth that is not finite and positive, an eps that is not finite and
nonnegative, a hazard control with infinite mass (a Gamma control with
eps = 0), a window bound that is not finite, fewer than one block, a config
section the subcommand does not read (see SECTIONS; ou refuses [control]),
an [experiment] key it has no flag for), 3 a replication crashed (the
one-line message names its index and the master seed) or a numerical check
failed.  The exit code follows the JSON `passed` but for block, whose exit
code judges the fourth moment E G^2 against 3 + 37/n while its JSON `passed`
judges the KS distance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .configio import ConfigError, config_hash, control_from_section, read_config
from .point_process import DiscreteControl, Window, sample_pattern, pattern_to_csv
from .kernels import BlockKernel, GridKernel, OUDoubleHKernel
from . import chaos, hazard as hz, ou as oumod
from .harness import TargetSpec, collect, summarize, values_to_csv

USAGE_ERROR = 2
CRASH = 3
UNIT_JUMPS = DiscreteControl(values=(1.0,), weights=(1.0,))   # the control no section names


def _report_row(T, report, m4, target, passed: bool) -> tuple:
    return (T, report.mean, report.variance, report.variance_se, report.skewness, m4,
            report.ks_distance, target, "PASS" if passed else "FAIL")


def _finish(args, stem: str, payload: dict, passed: bool, label: str, t0: float,
            rows=(), dumps=None) -> int:
    """Shared tail of the report-writing subcommands.  Writes <stem>.json
    with the provenance stamped in, the summary rows (if any) to <stem>.csv
    under --format csv and each dumps entry (file name -> per-replication
    values) under --dump, prints the verdict and the wall time on one line,
    and returns 0 if passed, else 1."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload.update(tool_version=__version__, config_hash=config_hash(args.config),
                   master_seed=args.seed)
    (outdir / f"{stem}.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                         encoding="utf-8")
    if dumps and args.dump:
        for name, values in dumps.items():
            values_to_csv(values, outdir / name)
    if rows and args.format == "csv":
        with open(outdir / f"{stem}.csv", "w", encoding="utf-8") as fh:
            fh.write("T,mean,var,var_se,m3,m4,ks,target,verdict\n")
            for row in rows:
                fh.write(",".join(repr(float(c)) if isinstance(c, (float, np.floating))
                                  else str(c) for c in row) + "\n")
    print(f"{label}: {'PASS' if passed else 'FAIL'}  [{time.perf_counter() - t0:.1f}s]")
    return 0 if passed else 1


@dataclass(frozen=True)
class StatisticSpec:
    """One reported statistic of a Monte Carlo run: its report name, the
    column of the replication values it summarizes, its variance target
    (also the KS reference variance) and tolerance, its --dump file name,
    and the payload key its report is nested under (None: the payload is
    the report itself)."""
    name: str
    column: int
    target: float
    tol: float
    dump: str
    key: str | None = None


def _monte_carlo(args, stem: str, label: str, index, rep_fn, cfg, stats,
                 extra=lambda values: {}) -> int:
    """Runs args.reps replications of rep_fn(cfg, rng), summarizes each
    statistic against its variance target, adds extra(values) to the
    payload, and ends in _finish with one summary row (indexed by index)
    and one dump per statistic."""
    t0 = time.perf_counter()
    values = collect(rep_fn, cfg, args.reps, args.seed, args.workers)
    reports = [summarize(s.name, values[:, s.column],
                         targets=[TargetSpec("variance", s.target, s.tol)],
                         master_seed=args.seed, ks_reference_variance=s.target)
               for s in stats]
    payload = (reports[0].to_dict() if stats[0].key is None
               else {s.key: r.to_dict() for s, r in zip(stats, reports)})
    payload.update(extra(values))
    return _finish(args, stem, payload, all(r.passed for r in reports), label, t0,
                   rows=[_report_row(index, r, r.kurtosis, s.target, r.passed)
                         for s, r in zip(stats, reports)],
                   dumps={s.dump: values[:, s.column] for s in stats})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_criterion(args) -> int:
    t0 = time.perf_counter()
    if args.family in ("block", "fixed"):
        control = UNIT_JUMPS
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
    payload = dict(report.to_dict(), fourth_moment_mc=g2, fourth_moment_mc_se=g2_se,
                   fourth_moment_target=target)
    # The one verdict that is not the report's own: the exit code judges the
    # fourth moment while the JSON `passed` judges KS (ROADMAP item 1 gives
    # block one verdict).  The summary row carries E G^2 in its m4 column.
    passed = abs(g2 - target) <= 0.15
    return _finish(args, f"block_n{n}", payload, passed,
                   f"block n={n}: fourth moment {g2:.4f} (target {target:.4f}), "
                   f"ks {report.ks_distance:.4f}", t0,
                   rows=[_report_row(n, report, g2, target, passed)],
                   dumps={f"block_n{n}_values.csv": f_vals})


def cmd_ou(args) -> int:
    lam, T = args.lam, args.T
    cfg = oumod.OUConfig(lam=lam, T=T)
    stem, label = f"ou_thm{args.theorem}_T{T:g}", f"ou theorem {args.theorem} T={T:g}"
    if args.theorem == 4:
        if args.reps < 100:
            raise ValueError("need at least 100 replications")
        stats = [StatisticSpec(f"ou_linear_T{T:g}", 0, oumod.linear_variance_exact(lam, T),
                               0.15, "ou_thm4_linear_values.csv")]
        return _monte_carlo(args, stem, label, T, oumod.rep_linear, cfg, stats)
    derived, stated = ({"k2": k2, "k1": cfg.c_nu_sq, "total": k2 + cfg.c_nu_sq,
                        "sample_var": k2 + cfg.c_nu_sq} for k2 in (2.0 / lam, 1.0 / lam))
    columns = ("k2", "k1", "total", "sample_var")   # of rep_quadratic's values
    stats = [StatisticSpec(f"ou_{key}_T{T:g}", columns.index(key), derived[key], 0.2,
                           f"ou_thm{args.theorem}_{key}_values.csv", key)
             for key in (columns[:3] if args.theorem == 5 else columns[3:])]
    return _monte_carlo(args, stem, label, T, oumod.rep_quadratic, cfg, stats,
                        lambda v: {"targets_stated": stated, "targets_derived": derived,
                                   "corr_k2_k1": float(np.corrcoef(v[:, 0], v[:, 1])[0, 1])})


def _hazard_model(args) -> hz.HazardModel:
    if "control" in args.sections:
        control = control_from_section(args.sections["control"])
    else:   # the case's own control
        control = (UNIT_JUMPS, hz.ExtendedGammaControl(), hz.BetaControl())[args.case - 1]
    model = hz.rect_model(control, T=args.T, tau=args.tau)
    if isinstance(control, hz.ExtendedGammaControl):
        print(f"neglected mean mass from eps-truncation: ~{control.neglected_mean_mass():.2e} per unit time")
    return model


def cmd_hazard(args) -> int:
    model = _hazard_model(args)
    # the targets are computed first: each raises CaseMismatchError, a usage
    # error, for a model its theorem or case is not stated for
    if args.theorem == 7:
        target = hz.linear_case_targets(model, args.case)
        center, scale = hz.linear_center_scale(model, args.case)
        stem = f"hazard_thm7_case{args.case}_T{args.T:g}"
        stat = StatisticSpec(f"hazard_case{args.case}_T{args.T:g}", 0, target,
                             {1: 0.3, 2: 0.8, 3: 1.0}[args.case], f"{stem}_values.csv")
        return _monte_carlo(args, stem, "hazard theorem 7", args.T, hz.rep_linear_case,
                            (model, center, scale), [stat],
                            lambda v: {"empirical_centering_mean_H": float(np.mean(v[:, 1])),
                                       "campbell_mean_H": hz.cumulative_mean_exact(model),
                                       "campbell_variance_H": hz.cumulative_variance_exact(model)})
    stated = hz.quadratic_variance_stated(model, args.variant)
    target = hz.quadratic_variance_derived(model, args.variant)
    stem = f"hazard_thm8_{args.variant}_T{args.T:g}"
    raw = args.variant == "raw"
    stat = StatisticSpec(f"hazard_quad_{args.variant}_T{args.T:g}", 0 if raw else 1, target,
                         max(4.0 if raw else 1.5, 0.1 * target), f"{stem}_values.csv")
    return _monte_carlo(args, stem, "hazard theorem 8", args.T, hz.rep_quadratic, model, [stat],
                        lambda v: {"variance_stated": stated, "variance_derived": target})


def cmd_sample(args) -> int:
    control = (control_from_section(args.sections["control"]) if "control" in args.sections
               else UNIT_JUMPS)
    pattern = sample_pattern(control, Window(args.x_lo, args.x_hi), args.seed)
    path = Path(args.out) / "pattern.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
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

    # shared flags, built once; monte_carlo's add the replication flags
    common, monte_carlo = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for flags in (common, monte_carlo):
        flags.add_argument("--config", default=None, help="key = value config file")
        flags.add_argument("--seed", type=int, default=None, help="master seed")
        if flags is monte_carlo:
            flags.add_argument("--reps", "--R", type=int, default=None, help="replication count")
        flags.add_argument("--out", default="out", help="output directory")
    monte_carlo.add_argument("--format", choices=("json", "csv"), default="json")
    monte_carlo.add_argument("--workers", type=int, default=1)
    monte_carlo.add_argument("--dump", action="store_true",
                             help="also stream per-replication values to CSV")

    p = sub.add_parser("criterion", parents=[common],
                       help="audit a kernel sequence for the Gaussian limit")
    p.add_argument("--family", required=True, choices=("block", "fixed", "ou-pair", "ou-pair-unit"),
                   help="ou-pair scales the pair kernel by sqrt(lam), ou-pair-unit by sqrt(lam/2)")
    p.add_argument("--indices", default="10,30,100,300,1000",
                   help="comma-separated sequence indices (block sizes or horizons)")
    p.add_argument("--lam", "--lambda", type=float, default=1.0)

    p = sub.add_parser("block", parents=[monte_carlo],
                       help="Monte Carlo fourth-moment check for the block family")
    p.add_argument("--n", type=int, default=50, help="number of unit-mass blocks")

    p = sub.add_parser("ou", parents=[monte_carlo], help="moving-average process experiments")
    p.add_argument("--theorem", type=int, required=True, choices=(4, 5, 6),
                   help="4 = linear statistic, 5 = quadratic split, 6 = sample variance")
    p.add_argument("--lam", "--lambda", type=float, default=1.0)
    p.add_argument("--T", type=float, default=200.0)

    p = sub.add_parser("hazard", parents=[monte_carlo], help="random hazard rate experiments")
    p.add_argument("--theorem", type=int, required=True, choices=(7, 8),
                   help="7 = linear, 8 = quadratic")
    p.add_argument("--case", type=int, default=1, choices=(1, 2, 3),
                   help="control family case for theorem 7")
    p.add_argument("--variant", choices=("raw", "centered"), default="raw")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--T", type=float, default=200.0)

    p = sub.add_parser("sample", parents=[common], help="dump one point pattern as CSV")
    p.add_argument("--x-lo", type=float, default=0.0)
    p.add_argument("--x-hi", type=float, default=10.0)
    return parser


# the config sections each subcommand reads; ou refuses [control] until it
# becomes the jump law (ROADMAP item 12)
SECTIONS = {"criterion": ("experiment",), "block": ("experiment",), "ou": ("experiment",),
            "hazard": ("experiment", "control"), "sample": ("experiment", "control")}


def _resolve_defaults(args) -> None:
    """Reads --config once into args.sections, refusing a section the
    subcommand does not read and an [experiment] key it has no flag for;
    [experiment] fills in --seed and --reps where they are not given."""
    args.sections = read_config(args.config) if args.config else {}
    for name in args.sections:
        if name not in SECTIONS[args.command]:
            raise ConfigError(f"{args.command} does not read a [{name}] section")
    section = args.sections.get("experiment", {})
    defaults = {k: v for k, v in (("seed", 20240801), ("reps", 5000)) if k in vars(args)}
    unknown = sorted(set(section) - defaults.keys())
    if unknown:
        raise ConfigError(f"bad [experiment] section: unknown keys {', '.join(unknown)}")
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, int(section.get(key, default)))
    if "reps" in defaults and (args.reps < 2 or args.workers < 1):
        raise ValueError(f"need at least two replications and one worker, "
                         f"got reps = {args.reps}, workers = {args.workers}")


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
