"""Output check of one CLI report against the workload's stored reference.

A reference (reference/<workload>.json) holds the report this workload
produced when the benchmark was defined, plus the exact finite-horizon
values of its Monte Carlo estimates.  A report passes when

- every deterministic field of the reference (closed-form targets,
  Campbell values, criterion norms, names, replication counts) is present
  and matches within 1e-9 relative; fields the report adds are ignored;
- every Monte Carlo estimate with an exact value lies within 5 standard
  errors of it.  The standard error is sd / sqrt(replications) where the
  reference gives the exact per-replication sd; for a variance it is the
  reported jackknife error, rescaled to the exact value when the estimate
  is low (a low sample variance comes with a low jackknife error).

A change that only reorders floating-point sums, or changes a sampler's
random stream, therefore passes.

Regenerate the references (only when the benchmark itself changes):

    python3 perfbench/checks.py --write-references
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REL_TOL = 1e-9
N_SE = 5.0

# report keys whose values come from sampling; in Monte Carlo reports only
# the statistical rule applies to them
MC_KEYS = frozenset({
    "mean", "mean_se", "variance", "variance_se", "skewness", "kurtosis",
    "ks_distance", "tail_masses", "passed", "estimate", "se", "within_tol",
    "within_3se", "fourth_moment_mc", "fourth_moment_mc_se", "corr_k2_k1",
    "empirical_centering_mean_H",
})
# never compared: the master seed changes per invocation, and reason strings
# only restate numbers that are compared
SKIP_KEYS = frozenset({"master_seed", "reason"})


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def _get(obj, path: str):
    for key in path.split(".") if path else ():
        obj = obj[key]
    return obj


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return False


def _deterministic(ref, got, path, monte_carlo, problems) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path or '<root>'}: expected an object")
            return
        for key, value in ref.items():
            if key in SKIP_KEYS or (monte_carlo and key in MC_KEYS):
                continue
            sub = f"{path}.{key}" if path else key
            if key not in got:
                problems.append(f"{sub}: missing")
            else:
                _deterministic(value, got[key], sub, monte_carlo, problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _deterministic(r, g, f"{path}[{i}]", monte_carlo, problems)
    elif not _same(ref, got):
        problems.append(f"{path}: {got!r} != reference {ref!r}")


def _statistical(check: dict, report: dict, problems) -> None:
    path = check["estimate"]
    try:
        est = float(_get(report, path))
        parent = _get(report, path.rpartition(".")[0])
        reps = int(parent["replications"])
        if check.get("sd") is not None:
            se = check["sd"] / math.sqrt(reps)
        else:
            se = float(_get(report, check["se"]))
            if 0.0 < est < check["exact"]:
                se *= check["exact"] / est
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{path}: unreadable ({exc!r})")
        return
    if not (math.isfinite(est) and abs(est - check["exact"]) <= N_SE * se):
        problems.append(f"{path}: {est!r} is not within {N_SE:g} se ({se:.3g}) "
                        f"of the exact value {check['exact']!r}")


def check_report(report: dict, reference: dict) -> list[str]:
    """Problems found in a report; empty when it passes."""
    problems: list[str] = []
    _deterministic(reference["report"], report, "", reference["monte_carlo"], problems)
    for check in reference["checks"]:
        _statistical(check, report, problems)
    return problems


# ---------------------------------------------------------------------------
# reference generation
# ---------------------------------------------------------------------------

REFERENCE_SEED = 20240801


def _block_g2_moments(n: int) -> tuple[float, float]:
    """Exact E[G^2] and sd(G^2) for the block family, G = F^2 - s/n with
    s = sum of n i.i.d. Charlier values N^2 - 3N + 1, N ~ Poisson(1): the
    law of s by exact convolution of the per-block law."""
    import numpy as np

    pmf = {}
    p = math.exp(-1.0)
    for k in range(40):
        q = k * k - 3 * k + 1
        pmf[q] = pmf.get(q, 0.0) + p
        p /= k + 1
    lo = min(pmf)
    one = np.zeros(max(pmf) - lo + 1)
    for q, prob in pmf.items():
        one[q - lo] = prob
    law = np.array([1.0])
    for _ in range(n):
        law = np.convolve(law, one)
        law = law[: np.nonzero(law > 1e-300)[0][-1] + 1]
    s = np.arange(law.size, dtype=float) + n * lo
    g2 = (s * s / (2 * n) - s / n) ** 2
    mean = float(law @ g2)
    return mean, math.sqrt(float(law @ g2 ** 2) - mean ** 2)


def _exact_checks(workload, report: dict) -> list[dict]:
    """The exact finite-horizon values each Monte Carlo estimate is held to."""
    from poisson_chaos import ou

    name = workload.name
    if name == "block-n50-w2":
        g2, g2_sd = _block_g2_moments(50)   # = 3 + 40/n
        return [{"estimate": "mean", "exact": 0.0, "sd": 1.0},
                {"estimate": "variance", "exact": 1.0, "se": "variance_se"},
                {"estimate": "fourth_moment_mc", "exact": g2, "sd": g2_sd}]
    if name == "ou-quad-T800":
        k2 = ou.k2_variance_exact(1.0, 800.0)
        k1 = ou.k1_variance_exact(1.0, 800.0, 1.0)
        out = []
        # K2 and K1 live in orthogonal chaoses, so their variances add
        for key, var in (("k2", k2), ("k1", k1), ("total", k2 + k1)):
            out += [{"estimate": f"{key}.mean", "exact": 0.0, "sd": math.sqrt(var)},
                    {"estimate": f"{key}.variance", "exact": var, "se": f"{key}.variance_se"}]
        return out
    if name == "hazard-egamma-T1e4":
        T = 1e4
        mean_h, var_h = report["campbell_mean_H"], report["campbell_variance_H"]
        scale = math.sqrt(math.log(T))
        return [{"estimate": "mean", "exact": (mean_h - 4.0 * math.sqrt(T)) / scale,
                 "sd": math.sqrt(var_h) / scale},
                {"estimate": "variance", "exact": var_h / math.log(T), "se": "variance_se"},
                {"estimate": "empirical_centering_mean_H", "exact": mean_h,
                 "sd": math.sqrt(var_h)}]
    return []   # hazard-quad-T400 has no finite-horizon closed form


def write_references() -> None:
    import contextlib
    import io
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    from poisson_chaos import cli
    from workloads import WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=HERE.parent) as out, contextlib.redirect_stdout(io.StringIO()):
            argv = workload.argv(REFERENCE_SEED, out)
            status = cli.main(argv)
            report = json.loads((Path(out) / workload.report).read_text(encoding="utf-8"))
        reference = {"workload": workload.name, "args": list(workload.args),
                     "seed": REFERENCE_SEED, "status": status, "monte_carlo": workload.monte_carlo,
                     "checks": _exact_checks(workload, report), "report": report}
        problems = check_report(report, reference)
        if problems:
            raise SystemExit(f"{workload.name}: reference fails its own check: {problems}")
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-references"]:
        raise SystemExit(__doc__)
    write_references()
