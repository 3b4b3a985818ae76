"""Self-tests of the benchmark's output check, compare mode and host-speed rescaling.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import time
from pathlib import Path

import pytest

from checks import check_report, load_reference
from compare import compare_sets
from hostspeed import REFERENCE_PROBE_S, Sampler
from run import _speed
from workloads import WORKLOADS

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reference_report_passes_its_own_check(workload):
    ref = load_reference(workload)
    assert check_report(ref["report"], ref) == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_rejects_perturbed_deterministic_field(workload):
    ref = load_reference(workload)
    report = copy.deepcopy(ref["report"])
    if workload == "criterion-ou-pair":
        report["reports"][2]["n11"] *= 1.0 + 1e-6
        field = "reports[2].n11"
    elif workload == "ou-quad-T800":
        report["targets_derived"]["k2"] *= 1.0 + 1e-6
        field = "targets_derived.k2"
    else:
        report["verdicts"][0]["tol"] *= 1.0 + 1e-6
        field = "verdicts[0].tol"
    problems = check_report(report, ref)
    assert len(problems) == 1 and problems[0].startswith(field)


def test_accepts_rounding_noise_and_added_fields():
    ref = load_reference("criterion-ou-pair")
    report = copy.deepcopy(ref["report"])
    report["reports"][0]["n21"] *= 1.0 + 1e-12
    report["diagnostics"] = {"quadrature_discrepancy": 1e-9}
    assert check_report(report, ref) == []


def test_rejects_missing_field():
    ref = load_reference("hazard-egamma-T1e4")
    report = copy.deepcopy(ref["report"])
    del report["campbell_variance_H"]
    assert check_report(report, ref) == ["campbell_variance_H: missing"]


@pytest.mark.parametrize("workload", ["block-n50-w2", "ou-quad-T800", "hazard-egamma-T1e4"])
def test_rejects_monte_carlo_estimate_far_from_exact_value(workload):
    ref = load_reference(workload)
    check = next(c for c in ref["checks"] if c.get("sd") is not None)
    report = copy.deepcopy(ref["report"])
    keys = check["estimate"].split(".")
    holder = report
    for key in keys[:-1]:
        holder = holder[key]
    reps = holder["replications"]
    holder[keys[-1]] = check["exact"] + 6.0 * check["sd"] / math.sqrt(reps)
    problems = check_report(report, ref)
    assert len(problems) == 1 and problems[0].startswith(check["estimate"])
    holder[keys[-1]] = check["exact"] + 4.0 * check["sd"] / math.sqrt(reps)
    assert check_report(report, ref) == []


def _result_set(workload, values, trace=0, metric="run_s"):
    """{(workload, trace): [run records]} with one run per value, seeds 1..n."""
    runs = []
    for seed, value in enumerate(values, start=1):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        metrics[metric] = {"value": value, "unit": "s"}
        runs.append({"workload": workload, "seed": seed, "trace": trace,
                     "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}})
    return {(workload, trace): runs}


def _row(rows, workload, metric):
    return next(r for r in rows if r["workload"] == workload and r["metric"] == metric)


def test_compare_flags_synthetic_regression():
    base = _result_set("ou-quad-T800", [1.00, 1.01, 0.99, 1.00, 1.02])
    new = _result_set("ou-quad-T800", [1.30, 1.31, 1.29, 1.30, 1.32])
    rows = compare_sets(base, new, BENCH)
    row = _row(rows, "ou-quad-T800", "run_s")
    assert row["verdict"] == "regression"
    assert row["wins"] == (0, 5)
    assert _row(rows, "ou-quad-T800", "setup_s")["verdict"] == "ok"


def test_compare_reports_unresolved_metric_and_counts_wins():
    base = _result_set("block-n50-w2", [1.0, 1.6, 0.7, 1.3, 0.9])
    new = _result_set("block-n50-w2", [0.9, 1.5, 0.8, 1.1, 0.95])
    row = _row(compare_sets(base, new, BENCH), "block-n50-w2", "run_s")
    assert row["verdict"] == "unresolved"
    assert row["wins"] == (3, 5)


def test_compare_accepts_clear_gain_despite_spread():
    base = _result_set("block-n50-w2", [2.0, 2.6, 2.2, 3.0, 2.4])
    new = _result_set("block-n50-w2", [1.0, 1.4, 1.1, 1.8, 1.2])
    row = _row(compare_sets(base, new, BENCH), "block-n50-w2", "run_s")
    assert row["verdict"] == "ok" and row["wins"] == (5, 5)


def test_host_speed_sampler_and_rescaling():
    sampler = Sampler()
    sampler.start()
    time.sleep(0.35)
    mean = sampler.stop()
    assert len(sampler.samples) >= 2 and mean > 0
    assert _speed({"probe_s": 2 * REFERENCE_PROBE_S}) == 0.5
