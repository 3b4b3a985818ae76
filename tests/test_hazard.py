import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poisson_chaos import hazard
from poisson_chaos.hazard import (
    CaseMismatchError, HazardModel, cumulative_hazard,
    cumulative_mean_exact, cumulative_variance_exact, linear_case_targets,
    quadratic_variance_derived, quadratic_variance_stated, rect_model,
    rep_linear_case, rep_quadratic,
    sample_hazard_pattern, square_hazard_integral,
)
from poisson_chaos.kernels import DENSE_PAIR_BYTES_MAX, RectHazardKernel
from poisson_chaos.point_process import (
    BetaControl, DiscreteControl, ExtendedGammaControl, PointPattern,
    replication_seed,
)

from hazard_path_oracle import (
    campbell_mean, cumulative_hazard_grid, simulate_hazard, square_hazard_integral_grid,
)
from kernel_oracles import DykstraLaudHazardKernel, OUHazardKernel

UNIT = DiscreteControl(values=(1.0,), weights=(1.0,))


def pattern_of(us, xs, window):
    u = np.asarray(us, dtype=float)
    x = np.asarray(xs, dtype=float)
    return PointPattern(u, x, window, window.length, 0)


class TestSimulation:
    def test_empty_pattern_zero_hazard(self):
        model = rect_model(UNIT, T=10.0)
        pat = pattern_of([], [], model.window)
        h = simulate_hazard(model, np.linspace(0, 10, 21), pat)
        assert np.all(h == 0.0)

    def test_single_atom_step_hazard(self):
        model = HazardModel(kernel=DykstraLaudHazardKernel(), control=UNIT, T=10.0)
        pat = pattern_of([2.0], [3.0], model.window)
        t = np.array([1.0, 2.9, 3.0, 7.0])
        h = simulate_hazard(model, t, pat)
        assert np.allclose(h, [0.0, 0.0, 2.0, 2.0])

    def test_nonnegative_paths_and_monotone_cumulative(self):
        model = rect_model(UNIT, T=20.0)
        rng = np.random.default_rng(replication_seed(50, 0))
        pat = sample_hazard_pattern(model, rng)
        h = simulate_hazard(model, np.linspace(0, 20, 401), pat)
        assert np.all(h >= 0.0)
        partial = [cumulative_hazard(rect_model(UNIT, T=t), pattern_of(
            pat.u, pat.x, rect_model(UNIT, T=20.0).window)) for t in (5.0, 10.0, 20.0)]
        assert partial[0] <= partial[1] <= partial[2]

    def test_campbell_mean_rect(self):
        # E h(t) = strip mass = 2 for t >= tau under nu = delta_1
        model = rect_model(UNIT, T=10.0)
        assert campbell_mean(model, 5.0) == pytest.approx(2.0, rel=1e-9)
        rng = np.random.default_rng(replication_seed(51, 0))
        vals = np.array([simulate_hazard(model, np.array([5.0]),
                                         sample_hazard_pattern(model, rng))[0]
                         for _ in range(20_000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(2.0, abs=3 * se)

    @pytest.mark.parametrize("control", [
        ExtendedGammaControl(eps=1e-4), BetaControl()])
    def test_campbell_mean_nonhomogeneous(self, control):
        model = rect_model(control, T=8.0)
        t0 = 5.0
        oracle = campbell_mean(model, t0)
        rng = np.random.default_rng(replication_seed(52, 0))
        vals = np.array([simulate_hazard(model, np.array([t0]),
                                         sample_hazard_pattern(model, rng))[0]
                         for _ in range(8000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(oracle, abs=4 * se)


def kink_aware_campbell(model, power):
    """int int u^power w(x)^power mu(du, dx) for a non-homogeneous control,
    by quad in s = sqrt(x) (smooth at x = 0, where beta and c grow like
    sqrt x) on pieces split at x = tau and T - tau, where w kinks, at T, and
    at x = 1, where the default Beta control's c = max(sqrt x, 1) kinks."""
    from scipy.integrate import quad
    T, tau = model.T, model.kernel.tau
    hi = T + tau
    kinks = sorted({k for k in (tau, 1.0, T - tau, T) if 0.0 < k < hi})
    edges = np.sqrt([0.0, *kinks, hi])

    def integrand(s):
        x = s * s
        w = model.kernel.time_integral(np.array([x]), T)[0]
        return 2.0 * s * float(model.control.x_moment(power, x)) * w ** power

    return math.fsum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


def campbell_errors(T):
    """Relative errors of the case-2 and case-3 Campbell mean and variance
    of H(T) against kink_aware_campbell."""
    errors = []
    for control in (ExtendedGammaControl(eps=1e-4), BetaControl()):
        model = rect_model(control, T=T)
        for power, exact in ((1, cumulative_mean_exact), (2, cumulative_variance_exact)):
            errors.append(exact(model) / kink_aware_campbell(model, power) - 1.0)
    return errors


class TestCumulativeHazard:
    def test_empty(self):
        model = rect_model(UNIT, T=5.0)
        assert cumulative_hazard(model, pattern_of([], [], model.window)) == 0.0

    def test_single_atom_interval_length(self):
        model = rect_model(UNIT, T=5.0, tau=1.0)
        pat = pattern_of([1.0], [0.0], model.window)
        assert cumulative_hazard(model, pat) == pytest.approx(1.0)

    def test_mean_matches_campbell(self):
        model = rect_model(UNIT, T=50.0)
        oracle = cumulative_mean_exact(model)   # 2 tau K1 T - tau^2/2 here
        assert oracle == pytest.approx(2.0 * 50.0 - 0.5, rel=1e-10)
        rng = np.random.default_rng(replication_seed(53, 0))
        vals = np.array([cumulative_hazard(model, sample_hazard_pattern(model, rng))
                         for _ in range(8000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(oracle, abs=3 * se)

    @pytest.mark.parametrize("tau, T", [(1.0, 200.0), (0.3, 2.0), (1.0, 2.0), (1.0, 1.5),
                                        (1.0, 1.0), (2.5, 0.7), (1.0, 0.1)])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_rect_power_integral_matches_quadrature(self, tau, T, p):
        # int w^p over [0, T + tau]; w is piecewise linear with kinks at
        # tau, T - tau and T
        from scipy.integrate import quad
        kernel = RectHazardKernel(tau)
        hi = T + tau
        kinks = sorted({k for k in (tau, T - tau, T) if 0.0 < k < hi})
        oracle, _ = quad(lambda x: kernel.time_integral(np.array([x]), T)[0] ** p, 0.0, hi,
                         points=kinks, epsabs=0.0, epsrel=1e-13, limit=200)
        assert kernel.power_integral(p, T) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_nonhomogeneous_campbell_matches_kink_aware_oracle(self):
        # at T = 200 the single quad over [0, T + tau] is within 1e-11
        assert max(map(abs, campbell_errors(200.0))) <= 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "hazard._campbell runs one quad over [0, T + tau] that does not resolve "
        "the kink of w at T - tau: at T = 1e4 the case-2 mean is 379.23259 against "
        "379.21298 (+5.2e-5) and the case-3 mean 381.08191 against 381.06211 "
        "(+5.2e-5); perfbench/reference/hazard-egamma-T1e4.json pins the quad values"))
    def test_nonhomogeneous_campbell_at_long_horizon(self):
        assert max(map(abs, campbell_errors(1e4))) <= 1e-9

    def test_pathwise_grid_agreement(self):
        # rect-kernel paths are piecewise constant: the breakpoint-aligned
        # trapezoid agrees with the closed form to 1e-6 relative
        model = rect_model(UNIT, T=12.0)
        rng = np.random.default_rng(replication_seed(54, 0))
        pat = sample_hazard_pattern(model, rng)
        assert cumulative_hazard_grid(model, pat, 5001) == pytest.approx(
            cumulative_hazard(model, pat), rel=1e-6)


class TestSquareIntegral:
    def test_double_sum_vs_fine_grid(self):
        model = rect_model(UNIT, T=15.0)
        rng = np.random.default_rng(replication_seed(55, 0))
        for _ in range(5):
            pat = sample_hazard_pattern(model, rng)
            exact = square_hazard_integral(model, pat)
            grid = square_hazard_integral_grid(model, pat, 5001)
            assert grid == pytest.approx(exact, rel=1e-6)

    def test_banded_path_matches_full_path(self):
        model = rect_model(UNIT, T=10.0)
        rng = np.random.default_rng(replication_seed(56, 0))
        for _ in range(10):
            pat = sample_hazard_pattern(model, rng)
            full = HazardModel(kernel=OUHazardKernel(1.0), control=UNIT, T=10.0)
            exact = square_hazard_integral(model, pat)
            # brute-force dense double sum oracle
            w = model.kernel.pair_time_integral(pat.x[:, None], pat.x[None, :], model.T)
            dense = float(pat.u @ w @ pat.u)
            assert exact == pytest.approx(dense, rel=1e-12)


@st.composite
def rect_atoms(draw):
    """Horizon, bandwidth (often > T/2) and atoms around [0, T + tau], many
    of them within tau of 0 or of T, with ties."""
    T = draw(st.floats(0.5, 30.0))
    tau = draw(st.one_of(st.floats(0.05, 3.0), st.floats(0.5 * T, 1.5 * T)))
    spots = st.one_of(st.floats(-tau - 1.0, T + tau + 1.0), st.floats(0.0, tau),
                      st.floats(max(T - tau, 0.0), T + tau),
                      st.sampled_from([0.0, tau, T, T + tau]))
    x = draw(st.lists(spots, max_size=40))
    x = x + x[:draw(st.integers(0, len(x)))]
    u = draw(st.lists(st.floats(0.0, 3.0), min_size=len(x), max_size=len(x)))
    return T, tau, np.array(u, dtype=float), np.array(x, dtype=float)


class TestRectPrefixSums:
    @settings(max_examples=100, deadline=None)
    @given(rect_atoms())
    @example((1.0, 0.8, np.array([1.0, 2.0, 0.5, 1.5]), np.array([0.0, 0.3, 1.0, 1.8])))
    @example((10.0, 1.0, np.array([1.0, 1.0, 2.0, 2.0]), np.array([0.5, 0.5, 9.5, 11.0])))
    @example((5.0, 0.5, np.array([1.0, 2.0, 1.0, 3.0, 1.0]),
              np.array([-2.0, -1.5, 1.0, 6.0, 7.0])))   # atoms outside the support
    def test_matches_dense_pair_time_integral(self, case):
        T, tau, u, x = case
        k = RectHazardKernel(tau)
        dense = float(u @ k.pair_time_integral(x[:, None], x[None, :], T) @ u)
        assert abs(k.square_integral(u, x, T) - dense) <= 1e-11 * max(1.0, abs(dense))

    def test_no_pair_time_integral_calls(self, monkeypatch):
        monkeypatch.setattr(RectHazardKernel, "pair_time_integral",
                            lambda *a: pytest.fail("pair loop used"))
        model = rect_model(UNIT, T=400.0)
        pat = sample_hazard_pattern(model, np.random.default_rng(replication_seed(61, 0)))
        assert square_hazard_integral(model, pat) > 0.0

    def test_dense_default_refuses_large_matrix(self, monkeypatch):
        n = int(math.isqrt(DENSE_PAIR_BYTES_MAX // 8)) + 1
        monkeypatch.setattr(DykstraLaudHazardKernel, "pair_time_integral",
                            lambda *a: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match=f"n={n} atoms needs {8 * n * n} bytes"):
            DykstraLaudHazardKernel().square_integral(np.ones(n), np.ones(n), 10.0)


class TestLinearStat:
    def test_case_mismatch_errors(self):
        model = rect_model(UNIT, T=10.0)
        with pytest.raises(CaseMismatchError):
            hazard._linear_center_scale(model, 2)
        model_beta = rect_model(BetaControl(), T=10.0)
        with pytest.raises(CaseMismatchError):
            hazard._linear_center_scale(model_beta, 1)
        model_dl = HazardModel(kernel=DykstraLaudHazardKernel(), control=UNIT, T=10.0)
        with pytest.raises(CaseMismatchError):
            hazard._linear_center_scale(model_dl, 1)
        # the stated targets check the model too, and reject a case that is not stated
        with pytest.raises(CaseMismatchError):
            linear_case_targets(model_beta, 2)
        with pytest.raises(CaseMismatchError):
            linear_case_targets(model, 4)

    def test_one_cumulative_hazard_per_replication(self, monkeypatch):
        calls = []
        cumulative = hazard.cumulative_hazard
        monkeypatch.setattr(hazard, "cumulative_hazard",
                            lambda *a, **kw: calls.append(1) or cumulative(*a, **kw))
        model = rect_model(UNIT, T=50.0)
        stat, h_total = rep_linear_case((model, 1), np.random.default_rng(replication_seed(62, 0)))
        assert len(calls) == 1
        assert stat == pytest.approx((h_total - 2.0 * 50.0) / math.sqrt(50.0), rel=1e-15)

    def test_case1_variance(self):
        model = rect_model(UNIT, T=200.0)
        rng = np.random.default_rng(replication_seed(57, 0))
        vals = np.array([rep_linear_case((model, 1), rng)[0] for _ in range(5000)])
        assert linear_case_targets(model, 1) == pytest.approx(4.0)
        # exact finite-horizon variance (edge-corrected): (4T - 3)/T
        assert vals.var(ddof=1) == pytest.approx(
            cumulative_variance_exact(model) / model.T, rel=0.08)
        assert vals.var(ddof=1) == pytest.approx(4.0, abs=0.3)

    def test_case2_variance_matches_campbell_oracle(self):
        T = 2000.0
        model = rect_model(ExtendedGammaControl(eps=1e-4), T=T)
        oracle_var = cumulative_variance_exact(model) / math.log(T)
        rng = np.random.default_rng(replication_seed(58, 0))
        vals = np.array([rep_linear_case((model, 2), rng)[0] for _ in range(600)])
        assert vals.var(ddof=1) == pytest.approx(oracle_var, rel=0.2)
        # the stated limit 4 is approached from below, logarithmically
        assert oracle_var < 4.0

    def test_case3_variance_matches_campbell_oracle(self):
        T = 2000.0
        model = rect_model(BetaControl(), T=T)
        oracle_var = cumulative_variance_exact(model) / math.sqrt(T)
        rng = np.random.default_rng(replication_seed(59, 0))
        vals = np.array([rep_linear_case((model, 3), rng)[0] for _ in range(600)])
        assert vals.var(ddof=1) == pytest.approx(oracle_var, rel=0.2)
        # with the stated T^{1/4} normalization the variance decays, far from 8
        assert oracle_var < 1.0


class TestQuadraticStat:
    def test_variant_validation(self):
        # the CLI rejects an unknown --variant (tests/test_cli.py); the model
        # check rejects a non-homogeneous control and a non-rectangular kernel
        with pytest.raises(CaseMismatchError):
            hazard._quadratic_moments(rect_model(BetaControl(), T=10.0))
        with pytest.raises(CaseMismatchError):
            hazard._quadratic_moments(rect_model(ExtendedGammaControl(eps=1e-4), T=10.0))
        with pytest.raises(CaseMismatchError):
            hazard._quadratic_moments(
                HazardModel(kernel=DykstraLaudHazardKernel(), control=UNIT, T=10.0))
        for variant in ("raw", "centered"):
            with pytest.raises(CaseMismatchError):
                quadratic_variance_derived(rect_model(BetaControl(), T=10.0), variant)
            with pytest.raises(CaseMismatchError):
                quadratic_variance_stated(rect_model(BetaControl(), T=10.0), variant)

    def test_replication_matches_single_statistics(self):
        model = rect_model(UNIT, T=40.0)
        raw, centered = rep_quadratic(model, np.random.default_rng(replication_seed(63, 0)))
        pat = sample_hazard_pattern(model, np.random.default_rng(replication_seed(63, 0)))
        assert (raw, centered) == hazard._quadratic_stats(model, pat)

    def test_centering_constants(self):
        model = rect_model(UNIT, T=400.0)
        # raw centering 2 tau K2 + 4 tau^2 K1^2 = 6 for the unit marginal
        assert 2.0 * 1.0 * 1.0 + 4.0 * 1.0 * 1.0 == 6.0
        assert quadratic_variance_stated(model, "raw") == pytest.approx(140.0 / 3.0)
        assert quadratic_variance_stated(model, "centered") == pytest.approx(44.0 / 3.0)
        assert quadratic_variance_derived(model, "raw") == pytest.approx(332.0 / 3.0)
        assert quadratic_variance_derived(model, "centered") == pytest.approx(44.0 / 3.0)

    @pytest.mark.slow
    def test_variances_match_derived_constants(self):
        model = rect_model(UNIT, T=400.0)
        rng = np.random.default_rng(replication_seed(60, 0))
        vals = np.array([rep_quadratic(model, rng) for _ in range(4000)])
        raw, centered = vals[:, 0], vals[:, 1]
        assert raw.var(ddof=1) == pytest.approx(332.0 / 3.0, rel=0.10)
        assert centered.var(ddof=1) == pytest.approx(44.0 / 3.0, rel=0.10)
        assert abs(raw.mean()) < 4 * raw.std(ddof=1) / math.sqrt(raw.size) + 0.2
