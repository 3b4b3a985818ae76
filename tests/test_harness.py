import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import poisson_chaos
from poisson_chaos import cli
from poisson_chaos.cli import main
from poisson_chaos.harness import (
    TargetSpec, collect, gaussian_cdf, jackknife_variance_se,
    ks_statistic, summarize,
)

from fits import slope_fit


def _gaussian_rep(_cfg, rng):
    return float(rng.standard_normal())


def _zero_rep(_cfg, rng):
    return 0.0


def _failing_rep(_cfg, rng):
    raise RuntimeError("boom")


class TestKS:
    def test_exact_quantile_construction(self):
        # samples at Gaussian quantiles of (i - 1/2)/n give distance 1/(2n)
        n = 100
        q = ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert ks_statistic(q, 1.0) == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_degenerate_at_zero(self):
        assert ks_statistic(np.zeros(50), 1.0) == pytest.approx(0.5)

    def test_variance_mismatch_gap(self):
        # exact sup gap between N(0,2) and N(0,1) CDFs, by grid search oracle;
        # analytically the maximizer is x* = sqrt(2 ln 2), gap ~ 0.08303
        xs = np.linspace(-6, 6, 2_000_001)
        oracle = float(np.max(np.abs(gaussian_cdf(xs, 2.0) - gaussian_cdf(xs, 1.0))))
        x_star = math.sqrt(2.0 * math.log(2.0))
        analytic = float(gaussian_cdf(x_star, 1.0) - gaussian_cdf(x_star, 2.0))
        assert oracle == pytest.approx(analytic, abs=1e-8)
        rng = np.random.default_rng(4)
        samples = rng.normal(scale=math.sqrt(2.0), size=10_000)
        d = ks_statistic(samples, 1.0)
        assert d == pytest.approx(oracle, abs=0.015)
        assert d > 0.05  # clear rejection at the 1% level (critical ~ 0.0163)

    def test_kolmogorov_critical_value_property(self):
        # KS < 1.63/sqrt(R) at the 1% level in >= 95% of seeds
        r = 100_000
        crit = 1.63 / math.sqrt(r)
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            if ks_statistic(rng.standard_normal(r), 1.0) < crit:
                hits += 1
        assert hits >= 38

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            ks_statistic(np.array([1.0, 2.0]), 0.0)

    def test_gaussian_cdf_accuracy(self):
        from scipy.stats import norm
        xs = np.array([-8.0, -3.2, -1.0, 0.0, 0.5, 2.7, 7.0])
        assert np.allclose(gaussian_cdf(xs), norm.cdf(xs), atol=1e-14)

    def test_gaussian_cdf_bit_identical_to_scipy_ndtr(self):
        from scipy.special import ndtr
        rng = np.random.default_rng(20)
        normals = rng.standard_normal(500_000)
        bulk = np.concatenate([normals, 3.0 * normals[:200_000], 1e-8 * normals[:100_000],
                               rng.uniform(-40.0, 40.0, 300_000)])
        # branch points of ndtr/erf/erfc at |a|/sqrt(2) = sqrt(1/2), 1 and 8
        # and the erfc underflow cut (a/sqrt(2))^2 = MAXLOG, each with the
        # floats on either side of it
        cuts = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                         math.sqrt(2.0 * 7.09782712893383996843e2)])
        near = [cuts]
        for _ in range(40):
            near.append(np.nextafter(near[-1], np.inf))
        below = [cuts]
        for _ in range(40):
            below.append(np.nextafter(below[-1], -np.inf))
        edge = np.concatenate(near + below)
        edge = np.concatenate([edge, -edge, [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                            1e300, -1e300]])
        xs = np.concatenate([bulk, edge])
        assert xs.size >= 1_000_000
        got, ref = gaussian_cdf(xs), ndtr(xs)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.isnan(gaussian_cdf(np.nan))
        assert gaussian_cdf(0.3) == ndtr(0.3) and np.ndim(gaussian_cdf(0.3)) == 0
        assert gaussian_cdf(np.ones((2, 3))).shape == (2, 3)

    @given(st.floats(-3, 3), st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_ks_shift_and_scale_invariance(self, shift, scale):
        rng = np.random.default_rng(99)
        base = rng.normal(size=2000)
        d0 = ks_statistic(base, 1.0)
        # joint rescaling leaves the distance unchanged
        d1 = ks_statistic(base * scale, scale ** 2)
        assert d1 == pytest.approx(d0, abs=1e-12)


class TestSlopeFit:
    def test_exact_power_laws(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        slope, hw = slope_fit(xs, 3.0 / xs)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert hw == pytest.approx(0.0, abs=1e-10)
        slope, _ = slope_fit(xs, 5.0 / np.sqrt(xs))
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            slope_fit([1, 2, 3], [1.0, -1.0, 0.5])
        with pytest.raises(ValueError):
            slope_fit([1, 2], [1.0, 2.0])


class TestJackknife:
    def test_positive_and_shrinking(self):
        rng = np.random.default_rng(5)
        ses = []
        for r in (400, 1600, 6400, 25600):
            ses.append(jackknife_variance_se(rng.standard_normal(r)))
        assert all(s > 0 for s in ses)
        slope, _ = slope_fit([400, 1600, 6400, 25600], ses)
        assert -0.65 < slope < -0.35

    def test_matches_direct_loo(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=200)
        loo = np.array([np.var(np.delete(x, i), ddof=1) for i in range(x.size)])
        direct = math.sqrt((x.size - 1) / x.size * np.sum((loo - loo.mean()) ** 2))
        assert jackknife_variance_se(x) == pytest.approx(direct, rel=1e-10)


class TestEngine:
    def test_determinism_across_worker_counts(self):
        vals1 = collect(_gaussian_rep, None, 500, master_seed=42, workers=1)
        vals4 = collect(_gaussian_rep, None, 500, master_seed=42, workers=4)
        vals8 = collect(_gaussian_rep, None, 500, master_seed=42, workers=8)
        assert np.array_equal(vals1, vals4)
        assert np.array_equal(vals1, vals8)

    def test_report_byte_identical_across_workers(self):
        reports = [summarize("stat", collect(_gaussian_rep, None, 300, 7, workers=w),
                             targets=[TargetSpec("variance", 1.0, 0.5)], master_seed=7,
                             ks_reference_variance=1.0)
                   for w in (1, 4)]
        payloads = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
        assert payloads[0] == payloads[1]
        # reports carry no wall time: the CLI prints it, and never writes it
        assert "wall_time_s" not in reports[0].to_dict()

    def test_to_dict_serializes_every_field(self):
        # the report's fields plus passed, each verdict's fields plus passed
        rep = summarize("stat", collect(_gaussian_rep, None, 200, 3),
                        targets=[TargetSpec("variance", 1.0, 0.5), TargetSpec("ks", 0.0, 0.1)],
                        master_seed=3, ks_reference_variance=1.0, tail_thresholds=(1.0, 10.0))
        d = rep.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(rep)} | {"passed"}
        assert d["passed"] is rep.passed
        assert d["tail_masses"] == {"1.0": rep.tail_masses[1.0], "10.0": rep.tail_masses[10.0]}
        for got, v in zip(d["verdicts"], rep.verdicts, strict=True):
            assert got == {**{f.name: getattr(v, f.name) for f in dataclasses.fields(v)},
                           "passed": v.passed}

    def test_degenerate_statistic(self):
        rep = summarize("stat", collect(_zero_rep, None, 200, 1), master_seed=1,
                        ks_reference_variance=1.0)
        assert rep.mean == 0.0 and rep.variance == 0.0
        assert rep.ks_distance == pytest.approx(0.5)

    def test_failing_statistic_pins_replication(self):
        with pytest.raises(RuntimeError, match="replication 0"):
            collect(_failing_rep, None, 10, 5)

    def test_verdict_rule_requires_tolerance_and_3se(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(5000)
        rep = summarize("x", values, targets=[TargetSpec("variance", 1.0, 0.2)],
                        master_seed=8)
        assert rep.passed
        rep_bad = summarize("x", values, targets=[TargetSpec("variance", 2.0, 0.2)],
                            master_seed=8)
        assert not rep_bad.passed

    def test_3se_gate_binds_below_the_tolerance(self):
        # se of the variance is about sqrt(2 / 50000) = 0.0063: a target 0.1
        # away is inside the 0.2 band but more than 3 se from the estimate
        values = np.random.default_rng(9).standard_normal(50000)
        (v,) = summarize("x", values, targets=[TargetSpec("variance", 1.1, 0.2)]).verdicts
        assert v.within_tol and 0 < 3 * v.se < 0.1
        assert not v.within_3se and not v.passed

    def test_target_without_se_is_held_to_its_tolerance(self):
        values = np.random.default_rng(10).standard_normal(2000)
        ks = summarize("x", values, ks_reference_variance=1.0).ks_distance
        for tol, ok in ((ks + 0.01, True), (ks - 0.01, False)):
            (v,) = summarize("x", values, targets=[TargetSpec("ks", 0.0, tol)],
                             ks_reference_variance=1.0).verdicts
            assert v.se == 0.0 and v.within_3se is ok

    def test_values_csv(self, tmp_path, monkeypatch):
        # the --dump file of the replication values that collect returns
        monkeypatch.setattr(cli, "collect", lambda *a: np.array([[1.5, 1.0], [-2.0, 1.0]]))
        assert main(["block", "--n", "10", "--reps", "2", "--dump", "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "block_n10_values.csv").read_text().splitlines()
        assert lines == ["replication_index,value", "0,1.5", "1,-2.0"]


THREAD_SCRIPT = """
import os, sys
if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import numpy as np
from poisson_chaos.hazard import cumulative_hazard, rect_model
from poisson_chaos.harness import jackknife_variance_se
from poisson_chaos.point_process import DiscreteControl, PointPattern

rng = np.random.default_rng(11)
model = rect_model(DiscreteControl((1.0,), (1.0,)), T=45000.0)
n = 45000
pattern = PointPattern(rng.exponential(size=n), rng.uniform(0.0, model.window.x_hi, size=n),
                       model.window)
print(float(cumulative_hazard(model, pattern)).hex(),
      float(jackknife_variance_se(rng.standard_normal(20000))).hex())
"""


class TestThreadCountIndependence:
    def test_long_dot_products_do_not_depend_on_cpu_affinity(self):
        # OpenBLAS threads np.dot above 10000 elements, with partial sums that
        # depend on the thread count; the package's long dot products must not
        src = str(Path(poisson_chaos.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        out = [subprocess.run([sys.executable, "-c", THREAD_SCRIPT, src, mode], env=env,
                              capture_output=True, text=True, timeout=120, check=True).stdout
               for mode in ("pinned", "free")]
        assert out[0] == out[1] and len(out[0].split()) == 2

    def test_dot_is_np_dot_up_to_one_block_and_ordered_blocks_beyond(self):
        from poisson_chaos.quadrature import _DOT_BLOCK, _dot
        rng = np.random.default_rng(12)
        a, b = rng.exponential(size=3 * _DOT_BLOCK + 5), rng.uniform(size=3 * _DOT_BLOCK + 5)
        short = slice(0, _DOT_BLOCK)
        assert _dot(a[short], b[short]) == float(np.dot(a[short], b[short]))
        blocks = 0.0
        for i in range(0, a.size, _DOT_BLOCK):
            blocks += float(np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK]))
        assert _dot(a, b) == blocks
        assert _dot(a, b) == pytest.approx(math.fsum(a * b), rel=1e-13)


FAULT_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from poisson_chaos.harness import collect
from poisson_chaos.hazard import (ExtendedGammaControl, LinearStatistics, rect_model,
                                  rep_linear_case)

model = rect_model(ExtendedGammaControl(), T=1e4)
stats = LinearStatistics(model, 2)
collect(rep_linear_case, stats, 3, 1)          # table, window mass, warm heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
collect(rep_linear_case, stats, 20, 2)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _glibc_mallopt() -> bool:
    import ctypes
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")


class TestAllocator:
    @pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc mallopt")
    def test_long_replications_do_not_refault_the_heap(self):
        # a case-2 replication at T = 1e4 frees about 20 arrays of 360 KB;
        # with glibc's adaptive thresholds the heap top is trimmed and
        # faulted in again every replication (about 500 minor faults each).
        # Run in a fresh process: the adaptive thresholds depend on what the
        # process allocated before.
        src = str(Path(poisson_chaos.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, src],
                             capture_output=True, text=True, timeout=300, check=True).stdout
        assert float(out) < 10.0
