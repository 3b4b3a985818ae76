"""Command-line entry point: binds configurations to experiments and emits
reports.

Subcommands: criterion | block | ou | hazard | sample, one entry each of
SUBCOMMANDS; a run whose first argument names one builds only its parser,
any other command line the full parser.  Each value has one source, but
--seed and --reps take precedence over [experiment]; the control comes only
from [control], the window only from --x-lo/--x-hi.  The Monte Carlo
subcommands (block, ou, hazard), which alone take the replication flags, run
harness.collect and harness.summarize; ou and hazard first build the run's
one checked statistics object (ou.OUStatistics, hazard.LinearStatistics or
QuadraticStatistics).  They and criterion end in _finish, which writes the
JSON report, the --format csv summary and the --dump value files and takes
the exit code from one verdict.  Each JSON report embeds the tool version,
the hash of the config bytes the run parsed (the file is read once) and the
master seed, so a rerun from that triple reproduces every output file
byte-identically; pattern.csv carries only its window, mass and seed, the
other CSV files none of the three; wall times go to stdout only.  Exit
codes: 0 all verdicts pass, 1 at least one fails, 2 usage or configuration
error (a flag the subcommand does not take, a hazard flag the chosen theorem
does not read (--variant for 7, --case for 8), --lam with criterion --family
block or fixed, a negative seed, an unknown family, theorem or case, a
control that does not match the requested case or theorem, hazard case 2 at
T <= 1, fewer than two replications (100 for ou theorem 4) or one worker, a
rate, horizon or bandwidth that is not finite and positive, an OU rate,
horizon or their product outside [1e-60, 1e60], an eps that is not finite
and nonnegative, a hazard control with infinite mass (a Gamma control with
eps = 0), a window bound that is not finite, fewer than one block, a sampled
pattern of more than point_process.MAX_MEAN_ATOMS atoms on average (ou,
hazard, sample, block; its arrays could exhaust memory), a config file that
cannot be read, is not UTF-8 or does not parse, a config section the
subcommand does not read (see SUBCOMMANDS; ou refuses [control]), an
[experiment] key it has no flag for, a [control] key its type has no field
for), 3 a replication crashed (the one-line message names its index and the
master seed), a numerical check failed or an arithmetic error (an overflow,
a division by zero) was raised outside the replications (one line names it).
The exit code follows the JSON `passed` but for block, whose exit code
judges the fourth moment E G^2 against 3 + 37/n while its JSON `passed`
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
from typing import Callable

import numpy as np

from . import __version__
from .configio import ConfigError, check_keys, config_hash, control_from_section, read_config
from .point_process import DiscreteControl, Window, check_atom_budget, sample_pattern
from .kernels import BlockKernel, GridKernel, OUDoubleHKernel
from . import chaos, hazard as hz, ou as oumod
from .harness import TargetSpec, collect, summarize

USAGE_ERROR = 2
CRASH = 3
UNIT_JUMPS = DiscreteControl(values=(1.0,), weights=(1.0,))   # the control no section names


def _report_row(T, report, m4, target, passed: bool) -> tuple:
    return (T, report.mean, report.variance, report.variance_se, report.skewness, m4,
            report.ks_distance, target, "PASS" if passed else "FAIL")


def _write_csv(path: Path, header: str, rows) -> None:
    """Writes header, then one line per row: float cells by repr, others by str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in rows:
            fh.write(",".join(repr(float(c)) if isinstance(c, (float, np.floating))
                              else str(c) for c in row) + "\n")


def _finish(args, stem: str, payload: dict, passed: bool, label: str, t0: float,
            rows=(), dumps=None) -> int:
    """Shared tail of the report-writing subcommands.  Writes <stem>.json
    with the provenance stamped in, the summary rows (if any) to <stem>.csv
    under --format csv and each dumps entry (file name -> per-replication
    values) under --dump, prints the verdict and the wall time on one line,
    and returns 0 if passed, else 1."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload.update(tool_version=__version__, config_hash=args.config_hash, master_seed=args.seed)
    (outdir / f"{stem}.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                         encoding="utf-8")
    if dumps and args.dump:
        for name, values in dumps.items():
            _write_csv(outdir / name, "replication_index,value\n", enumerate(values))
    if rows and args.format == "csv":
        _write_csv(outdir / f"{stem}.csv", "T,mean,var,var_se,m3,m4,ks,target,verdict\n", rows)
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


def _monte_carlo(args, stem: str, label: str, index, rep_fn, statistics, specs,
                 extra=lambda values: {}) -> int:
    """Runs args.reps replications of rep_fn(statistics, rng), summarizes
    each reported statistic (specs) against its variance target, adds
    extra(values) to the payload, and ends in _finish with one summary row
    (indexed by index) and one dump per reported statistic."""
    t0 = time.perf_counter()
    values = collect(rep_fn, statistics, args.reps, args.seed, args.workers)
    reports = [summarize(s.name, values[:, s.column],
                         targets=[TargetSpec("variance", s.target, s.tol)],
                         master_seed=args.seed, ks_reference_variance=s.target)
               for s in specs]
    payload = (reports[0].to_dict() if specs[0].key is None
               else {s.key: r.to_dict() for s, r in zip(specs, reports)})
    payload.update(extra(values))
    return _finish(args, stem, payload, all(r.passed for r in reports), label, t0,
                   rows=[_report_row(index, r, r.kurtosis, s.target, r.passed)
                         for s, r in zip(specs, reports)],
                   dumps={s.dump: values[:, s.column] for s in specs})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_criterion(args) -> int:
    t0 = time.perf_counter()
    if args.family in ("block", "fixed"):
        if args.lam is not None:
            raise ValueError(f"criterion --family {args.family} takes no --lam")
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
        lam = 1.0 if args.lam is None else args.lam
        index = [float(t) for t in args.indices.split(",")]
        bases = [OUDoubleHKernel(lam, t) for t in index]  # rejects lam, T <= 0 first
        scale = math.sqrt(lam) if args.family == "ou-pair" else math.sqrt(lam / 2.0)
        control = oumod.DEFAULT_JUMPS
        kernels = [h.scaled(scale * math.sqrt(h.T)) for h in bases]
        windows = [oumod.ou_window(lam, t) for t in index]
        labels = [f"T_{t:g}" for t in index]
    verdict = chaos.clt_criterion(kernels, control, windows, labels=labels, index=index)
    return _finish(args, f"criterion_{args.family}", verdict.to_dict(), verdict.passed,
                   f"criterion[{args.family}]", t0)


def cmd_block(args) -> int:
    n = args.n
    BlockKernel(n)   # rejects n < 1 before any replication
    check_atom_budget(UNIT_JUMPS, Window(0.0, float(n)))   # one Poisson count per block
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
    check_atom_budget(oumod.DEFAULT_JUMPS, oumod.ou_window(lam, T))
    if args.theorem == 4 and args.reps < 100:
        raise ValueError("need at least 100 replications")
    statistics = oumod.OUStatistics(lam, T)   # the kernels, support checks and compensators
    stem, label = f"ou_thm{args.theorem}_T{T:g}", f"ou theorem {args.theorem} T={T:g}"
    if args.theorem == 4:
        specs = [StatisticSpec(f"ou_linear_T{T:g}", 0, oumod.linear_variance_exact(lam, T),
                               0.15, "ou_thm4_linear_values.csv")]
        return _monte_carlo(args, stem, label, T, oumod.rep_linear, statistics, specs)
    k1 = statistics.jumps.moment(4)   # Var K1 -> int u^4 nu
    derived, stated = ({"k2": k2, "k1": k1, "total": k2 + k1, "sample_var": k2 + k1}
                       for k2 in (2.0 / lam, 1.0 / lam))
    columns = ("k2", "k1", "total", "sample_var")   # of rep_quadratic's values
    specs = [StatisticSpec(f"ou_{key}_T{T:g}", columns.index(key), derived[key], 0.2,
                           f"ou_thm{args.theorem}_{key}_values.csv", key)
             for key in (columns[:3] if args.theorem == 5 else columns[3:])]
    return _monte_carlo(args, stem, label, T, oumod.rep_quadratic, statistics, specs,
                        lambda v: {"targets_stated": stated, "targets_derived": derived,
                                   "corr_k2_k1": float(np.corrcoef(v[:, 0], v[:, 1])[0, 1])})


def cmd_hazard(args) -> int:
    # theorem 7 reads --case alone, theorem 8 --variant alone
    unread = "variant" if args.theorem == 7 else "case"
    if getattr(args, unread) is not None:
        raise ValueError(f"hazard theorem {args.theorem} takes no --{unread}")
    case, variant = args.case or 1, args.variant or "raw"
    control = args.control or (UNIT_JUMPS, hz.ExtendedGammaControl(), hz.BetaControl())[case - 1]
    model = hz.rect_model(control, T=args.T, tau=args.tau)
    check_atom_budget(model.control, model.window)
    # the model is checked first, once: CaseMismatchError, a usage error, for
    # a model its theorem or case is not stated for
    if args.theorem == 7:
        statistics = hz.LinearStatistics(model, case)
        stem = f"hazard_thm7_case{case}_T{args.T:g}"
        spec = StatisticSpec(f"hazard_case{case}_T{args.T:g}", 0, statistics.target,
                             {1: 0.3, 2: 0.8, 3: 1.0}[case], f"{stem}_values.csv")
        rep_fn = hz.rep_linear_case
        extra = lambda v: {"empirical_centering_mean_H": float(np.mean(v[:, 1])),
                           "campbell_mean_H": hz.cumulative_mean_exact(model),
                           "campbell_variance_H": hz.cumulative_variance_exact(model)}
    else:
        statistics = hz.QuadraticStatistics(model)
        stated = statistics.variance_stated(variant)
        target = statistics.variance_derived(variant)
        stem = f"hazard_thm8_{variant}_T{args.T:g}"
        raw = variant == "raw"
        spec = StatisticSpec(f"hazard_quad_{variant}_T{args.T:g}", 0 if raw else 1, target,
                             max(4.0 if raw else 1.5, 0.1 * target), f"{stem}_values.csv")
        rep_fn = hz.rep_quadratic
        extra = lambda v: {"variance_stated": stated, "variance_derived": target}
    if isinstance(control, hz.ExtendedGammaControl):   # after the targets: a refused run prints nothing
        print(f"neglected mean mass from eps-truncation: ~{control.neglected_mean_mass():.2e} per unit time")
    return _monte_carlo(args, stem, f"hazard theorem {args.theorem}", args.T, rep_fn,
                        statistics, [spec], extra)


def cmd_sample(args) -> int:
    control = args.control or UNIT_JUMPS
    window = Window(args.x_lo, args.x_hi)
    check_atom_budget(control, window)
    pattern = sample_pattern(control, window, args.seed)
    mass = float(control.mass(window))
    path = Path(args.out) / "pattern.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, f"# window x=[{window.x_lo!r},{window.x_hi!r}] mass={mass!r} "
                     f"seed={args.seed}\nu,x\n", zip(pattern.u, pattern.x))
    print(f"wrote {path} ({len(pattern)} atoms, mass {mass:.6g}, "
          f"neglected second-moment mass {control.neglected_second_moment():.3e})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _flag(*names, **kwargs) -> tuple:
    """One flag: its names and its add_argument keywords."""
    return names, kwargs


def _shared_flags(monte_carlo: bool) -> list:
    """--config, --seed and --out, which every subcommand takes; a Monte
    Carlo subcommand also takes --reps (after --seed) and --format, --workers
    and --dump (after --out)."""
    flags = [_flag("--config", default=None, help="key = value config file"),
             _flag("--seed", type=int, default=None, help="master seed")]
    if monte_carlo:
        flags.append(_flag("--reps", "--R", type=int, default=None, help="replication count"))
    flags.append(_flag("--out", default="out", help="output directory"))
    if monte_carlo:
        flags += [_flag("--format", choices=("json", "csv"), default="json"),
                  _flag("--workers", type=int, default=1),
                  _flag("--dump", action="store_true",
                        help="also stream per-replication values to CSV")]
    return flags


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: its help line, its handler, the config sections it
    reads (any other is refused), whether it runs replications (and so takes
    the Monte Carlo flags), and its own flags."""
    help: str
    run: Callable
    sections: tuple
    monte_carlo: bool
    flags: tuple


# ou refuses [control] until it becomes the jump law (ROADMAP item 12)
SUBCOMMANDS = {
    "criterion": Subcommand(
        "audit a kernel sequence for the Gaussian limit", cmd_criterion, ("experiment",), False,
        (_flag("--family", required=True, choices=("block", "fixed", "ou-pair", "ou-pair-unit"),
               help="ou-pair scales the pair kernel by sqrt(lam), ou-pair-unit by sqrt(lam/2)"),
         _flag("--indices", default="10,30,100,300,1000",
               help="comma-separated sequence indices (block sizes or horizons)"),
         _flag("--lam", "--lambda", type=float))),
    "block": Subcommand(
        "Monte Carlo fourth-moment check for the block family", cmd_block, ("experiment",), True,
        (_flag("--n", type=int, default=50, help="number of unit-mass blocks"),)),
    "ou": Subcommand(
        "moving-average process experiments", cmd_ou, ("experiment",), True,
        (_flag("--theorem", type=int, required=True, choices=(4, 5, 6),
               help="4 = linear statistic, 5 = quadratic split, 6 = sample variance"),
         _flag("--lam", "--lambda", type=float, default=1.0),
         _flag("--T", type=float, default=200.0))),
    "hazard": Subcommand(
        "random hazard rate experiments", cmd_hazard, ("experiment", "control"), True,
        (_flag("--theorem", type=int, required=True, choices=(7, 8),
               help="7 = linear, 8 = quadratic"),
         _flag("--case", type=int, choices=(1, 2, 3), help="control family case for theorem 7"),
         _flag("--variant", choices=("raw", "centered")),
         _flag("--tau", type=float, default=1.0),
         _flag("--T", type=float, default=200.0))),
    "sample": Subcommand(
        "dump one point pattern as CSV", cmd_sample, ("experiment", "control"), False,
        (_flag("--x-lo", type=float, default=0.0),
         _flag("--x-hi", type=float, default=10.0))),
}


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Adds the flags of subcommand name to parser, the shared ones first,
    and makes it set args.command to name."""
    command = SUBCOMMANDS[name]
    for names, kwargs in (*_shared_flags(command.monte_carlo), *command.flags):
        parser.add_argument(*names, **kwargs)
    parser.set_defaults(command=name)
    return parser


def subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand name alone: it prints and parses as the
    full parser's subparser for name does."""
    return _add_flags(argparse.ArgumentParser(prog=f"poisson-chaos {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top-level usage and help, and one subparser per
    subcommand."""
    parser = argparse.ArgumentParser(prog="poisson-chaos",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help), name)
    return parser


def _resolve_defaults(args) -> None:
    """Reads --config once into args.sections, args.config_hash and
    args.control (None without [control]), refusing a section the subcommand
    does not read and an unknown key; [experiment] fills in --seed and --reps
    where they are not given.  A negative seed, from either source, fails."""
    args.sections, args.config_hash = (read_config(args.config) if args.config
                                       else ({}, config_hash()))
    for name in args.sections:
        if name not in SUBCOMMANDS[args.command].sections:
            raise ConfigError(f"{args.command} does not read a [{name}] section")
    section = args.sections.get("experiment", {})
    defaults = {k: v for k, v in (("seed", 20240801), ("reps", 5000)) if k in vars(args)}
    check_keys("experiment", section, defaults)
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, int(section.get(key, default)))
    if args.seed < 0:
        raise ValueError(f"the master seed must be a nonnegative integer, got seed = {args.seed}")
    if "reps" in defaults and (args.reps < 2 or args.workers < 1):
        raise ValueError(f"need at least two replications and one worker, "
                         f"got reps = {args.reps}, workers = {args.workers}")
    control = args.sections.get("control")
    args.control = None if control is None else control_from_section(control)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        parser, argv = subcommand_parser(argv[0]), argv[1:]
    else:   # no subcommand first: the full parser prints the usage or the error
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        _resolve_defaults(args)
        return SUBCOMMANDS[args.command].run(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"crash: {exc}", file=sys.stderr)
        return CRASH
    except ArithmeticError as exc:   # an overflow or a division by zero outside the replications
        print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CRASH


if __name__ == "__main__":
    raise SystemExit(main())
