import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poisson_chaos import hazard
from poisson_chaos.hazard import (
    CaseMismatchError, HazardModel, cumulative_hazard,
    cumulative_mean_exact, cumulative_variance_exact, linear_case_targets,
    linear_center_scale,
    quadratic_variance_derived, quadratic_variance_stated, rect_model,
    rep_linear_case, rep_quadratic,
    sample_hazard_pattern, square_hazard_integral,
)
from poisson_chaos.kernels import DENSE_PAIR_BYTES_MAX, RectHazardKernel
from poisson_chaos.point_process import (
    BetaControl, DiscreteControl, ExtendedGammaControl, PointPattern, Window,
)

from hazard_path_oracle import (
    campbell_mean, cumulative_hazard_grid, rect_square_integral_dense,
    rect_square_integral_exact, rect_square_integral_sweep, simulate_hazard,
    square_hazard_integral_grid,
)
from kernel_oracles import DykstraLaudHazardKernel
from seeds import replication_rng

UNIT = DiscreteControl(values=(1.0,), weights=(1.0,))


def pattern_of(us, xs, window):
    u = np.asarray(us, dtype=float)
    x = np.asarray(xs, dtype=float)
    return PointPattern(u, x, window, 0)


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
        rng = replication_rng(50, 0)
        pat = sample_hazard_pattern(model, rng)
        h = simulate_hazard(model, np.linspace(0, 20, 401), pat)
        assert np.all(h >= 0.0)
        partial = [cumulative_hazard(rect_model(UNIT, T=t), pattern_of(
            pat.u, pat.x, rect_model(UNIT, T=20.0).window)) for t in (5.0, 10.0, 20.0)]
        assert partial[0] <= partial[1] <= partial[2]

    def test_window_built_once_outside_fields(self, monkeypatch):
        model = rect_model(UNIT, T=20.0)
        assert model.window == Window(0.0, 21.0)
        assert [f.name for f in dataclasses.fields(HazardModel)] == ["kernel", "control", "T"]
        assert model == rect_model(UNIT, T=20.0) and hash(model) == hash(rect_model(UNIT, T=20.0))
        assert pickle.loads(pickle.dumps(model)).window == model.window
        built = []
        monkeypatch.setattr(Window, "__post_init__", lambda self: built.append(self))
        for i in range(3):
            sample_hazard_pattern(model, replication_rng(51, i))
        assert built == []

    def test_campbell_mean_rect(self):
        # E h(t) = strip mass = 2 for t >= tau under nu = delta_1
        model = rect_model(UNIT, T=10.0)
        assert campbell_mean(model, 5.0) == pytest.approx(2.0, rel=1e-9)
        rng = replication_rng(51, 0)
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
        rng = replication_rng(52, 0)
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
        rng = replication_rng(53, 0)
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
        rng = replication_rng(54, 0)
        pat = sample_hazard_pattern(model, rng)
        assert cumulative_hazard_grid(model, pat, 5001) == pytest.approx(
            cumulative_hazard(model, pat), rel=1e-6)


class TestSquareIntegral:
    def test_double_sum_vs_fine_grid(self):
        model = rect_model(UNIT, T=15.0)
        rng = replication_rng(55, 0)
        for _ in range(5):
            pat = sample_hazard_pattern(model, rng)
            exact = square_hazard_integral(model, pat)
            grid = square_hazard_integral_grid(model, pat, 5001)
            assert grid == pytest.approx(exact, rel=1e-6)

    def test_banded_path_matches_full_path(self):
        model = rect_model(UNIT, T=10.0)
        rng = replication_rng(56, 0)
        for _ in range(10):
            pat = sample_hazard_pattern(model, rng)
            exact = square_hazard_integral(model, pat)
            # brute-force dense double sum oracle
            dense = rect_square_integral_dense(pat.u, pat.x, model.T, model.kernel.tau)
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
        dense = rect_square_integral_dense(u, x, T, tau)
        got = RectHazardKernel(tau).path_integrals(u, x, T)[1]
        assert abs(got - dense) <= 1e-11 * max(1.0, abs(dense))

    def test_no_pair_time_integral_calls(self, monkeypatch):
        # the kernel's one pathwise method is all that either path calls
        calls = []
        one_pass = RectHazardKernel.path_integrals
        monkeypatch.setattr(RectHazardKernel, "path_integrals",
                            lambda *a: calls.append(1) or one_pass(*a))
        model = rect_model(UNIT, T=400.0)
        rep_quadratic(model, replication_rng(61, 0))
        assert len(calls) == 1
        pat = sample_hazard_pattern(model, replication_rng(61, 0))
        assert square_hazard_integral(model, pat) > 0.0
        assert len(calls) == 2

    def test_dense_default_refuses_large_matrix(self, monkeypatch):
        n = int(math.isqrt(DENSE_PAIR_BYTES_MAX // 8)) + 1
        monkeypatch.setattr(DykstraLaudHazardKernel, "pair_time_integral",
                            lambda *a: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match=f"n={n} atoms needs {8 * n * n} bytes"):
            DykstraLaudHazardKernel().path_integrals(np.ones(n), np.ones(n), 10.0)


class TestRectExactSquareIntegral:
    """The rectangular one pass (path_integrals) against exact rational sums
    over the same float breakpoints, with Exp(1) jumps at five atoms per
    unit time."""

    @pytest.mark.parametrize("T, tau", [(50.0, 1.0), (2e4, 1.0), (300.0, 7.5)])
    def test_within_1e_13_of_exact_rationals(self, T, tau):
        rng = np.random.default_rng(8125)
        n = int(rng.poisson(5.0 * (T + tau)))
        x = rng.uniform(0.0, T + tau, n)
        u = rng.exponential(1.0, n)
        k = RectHazardKernel(tau)
        h_total, got = k.path_integrals(u, x, T)
        exact = rect_square_integral_exact(u, x, T, tau)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 13) * exact
        w = [Fraction(float(v)) for v in k.time_integral(x, T)]
        exact_h = sum(Fraction(float(ui)) * wi for ui, wi in zip(u, w))
        assert abs(Fraction(h_total) - exact_h) <= Fraction(1, 10 ** 13) * exact_h

    def test_oracle_on_hand_example(self):
        # [0, 1] and [0.5, 2] (first atom cut at 0, second at T = 2) plus an
        # atom beyond T + tau: 2^2*1 + 3^2*1.5 + 2*2*3*0.5, and H = 2 + 4.5
        exact = rect_square_integral_exact([2.0, 3.0, 5.0], [0.0, 1.5, 3.5], 2.0, 1.0)
        assert exact == Fraction(47, 2)
        u, x = np.array([2.0, 3.0, 5.0]), np.array([0.0, 1.5, 3.5])
        assert RectHazardKernel(1.0).path_integrals(u, x, 2.0) == (6.5, 23.5)


@st.composite
def rect_patterns(draw):
    """A rectangular model and a pattern on its window [0, T + tau]: no atom
    or one as well as many, ties, atoms at 0, tau, T - tau, T and T + tau,
    and bandwidths at or beyond T as well as short ones."""
    T = draw(st.floats(0.5, 30.0))
    tau = draw(st.one_of(st.floats(0.05, 3.0), st.floats(0.5 * T, 1.5 * T),
                         st.floats(T, 3.0 * T)))
    model = rect_model(UNIT, T=T, tau=tau)
    hi = model.window.x_hi
    spots = st.one_of(st.floats(0.0, hi), st.floats(0.0, tau),
                      st.floats(max(T - tau, 0.0), hi),
                      st.sampled_from([0.0, tau, max(T - tau, 0.0), T, hi]))
    x = draw(st.lists(spots, max_size=draw(st.sampled_from([0, 1, 40]))))
    x = x + x[:draw(st.integers(0, len(x)))]
    u = draw(st.lists(st.floats(0.0, 3.0), min_size=len(x), max_size=len(x)))
    return model, pattern_of(u, x, model.window)


class TestOnePass:
    """RectHazardKernel.path_integrals, the one pass behind a theorem-8
    replication, against the generic API and the two-argsort sweep."""

    @settings(max_examples=300, deadline=None)
    @given(rect_patterns())
    @example((rect_model(UNIT, T=2.0, tau=5.0),
              pattern_of([1.0, 2.0, 2.0], [0.0, 7.0, 7.0], Window(0.0, 7.0))))
    def test_matches_cumulative_hazard_and_sweep_bit_for_bit(self, case):
        model, pat = case
        tau, T = model.kernel.tau, model.T
        h_total, q = model.kernel.path_integrals(pat.u, pat.x, T)
        assert h_total == cumulative_hazard(model, pat)
        assert q == square_hazard_integral(model, pat)
        assert q == rect_square_integral_sweep(pat.u, pat.x, T, tau)

    @settings(max_examples=100, deadline=None)
    @given(rect_atoms())
    def test_atoms_outside_the_support_add_nothing(self, case):
        # atoms beyond [0, T + tau] (no model window refuses them here) have
        # empty intervals, in H as in int h^2
        T, tau, u, x = case
        k = RectHazardKernel(tau)
        h_total, q = k.path_integrals(u, x, T)
        assert h_total == float(np.dot(u, k.time_integral(x, T)))
        assert q == rect_square_integral_sweep(u, x, T, tau)

    def test_protocol_default_is_the_generic_pair(self):
        # the dense oracle's path_integrals against the generic API
        model = HazardModel(kernel=DykstraLaudHazardKernel(), control=UNIT, T=10.0)
        pat = sample_hazard_pattern(model, replication_rng(65, 0))
        assert model.kernel.path_integrals(pat.u, pat.x, model.T) == (
            cumulative_hazard(model, pat), square_hazard_integral(model, pat))

    def test_one_call_per_replication_and_constants_once_per_model(self, monkeypatch):
        calls, moments = [], []
        one_pass = RectHazardKernel.path_integrals
        monkeypatch.setattr(RectHazardKernel, "path_integrals",
                            lambda *a: calls.append(1) or one_pass(*a))
        quadratic_moments = hazard._quadratic_moments
        monkeypatch.setattr(hazard, "_quadratic_moments",
                            lambda *a: moments.append(1) or quadratic_moments(*a))
        for name in ("cumulative_hazard", "square_hazard_integral"):
            monkeypatch.setattr(hazard, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        model = rect_model(UNIT, T=50.0)
        for i in range(3):
            rep_quadratic(model, replication_rng(64, i))
            assert len(calls) == i + 1
        assert moments == [1]


class TestLinearStat:
    def test_case_mismatch_errors(self):
        model = rect_model(UNIT, T=10.0)
        with pytest.raises(CaseMismatchError):
            hazard.linear_center_scale(model, 2)
        model_beta = rect_model(BetaControl(), T=10.0)
        with pytest.raises(CaseMismatchError):
            hazard.linear_center_scale(model_beta, 1)
        model_dl = HazardModel(kernel=DykstraLaudHazardKernel(), control=UNIT, T=10.0)
        with pytest.raises(CaseMismatchError):
            hazard.linear_center_scale(model_dl, 1)
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
        args = (model, *linear_center_scale(model, 1))
        # the case checks ran once, above, and not per replication
        monkeypatch.setattr(hazard, "linear_center_scale",
                            lambda *a: pytest.fail("case checked per replication"))
        stat, h_total = rep_linear_case(args, replication_rng(62, 0))
        assert len(calls) == 1
        assert stat == pytest.approx((h_total - 2.0 * 50.0) / math.sqrt(50.0), rel=1e-15)

    def test_case1_variance(self):
        model = rect_model(UNIT, T=200.0)
        rng = replication_rng(57, 0)
        args = (model, *linear_center_scale(model, 1))
        vals = np.array([rep_linear_case(args, rng)[0] for _ in range(5000)])
        assert linear_case_targets(model, 1) == pytest.approx(4.0)
        # exact finite-horizon variance (edge-corrected): (4T - 3)/T
        assert vals.var(ddof=1) == pytest.approx(
            cumulative_variance_exact(model) / model.T, rel=0.08)
        assert vals.var(ddof=1) == pytest.approx(4.0, abs=0.3)

    def test_case2_variance_matches_campbell_oracle(self):
        T = 2000.0
        model = rect_model(ExtendedGammaControl(eps=1e-4), T=T)
        oracle_var = cumulative_variance_exact(model) / math.log(T)
        rng = replication_rng(58, 0)
        args = (model, *linear_center_scale(model, 2))
        vals = np.array([rep_linear_case(args, rng)[0] for _ in range(600)])
        assert vals.var(ddof=1) == pytest.approx(oracle_var, rel=0.2)
        # the stated limit 4 is approached from below, logarithmically
        assert oracle_var < 4.0

    def test_case3_variance_matches_campbell_oracle(self):
        T = 2000.0
        model = rect_model(BetaControl(), T=T)
        oracle_var = cumulative_variance_exact(model) / math.sqrt(T)
        rng = replication_rng(59, 0)
        args = (model, *linear_center_scale(model, 3))
        vals = np.array([rep_linear_case(args, rng)[0] for _ in range(600)])
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
        raw, centered = rep_quadratic(model, replication_rng(63, 0))
        pat = sample_hazard_pattern(model, replication_rng(63, 0))
        assert (raw, centered) == model.quadratic.evaluate(pat)

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
        rng = replication_rng(60, 0)
        vals = np.array([rep_quadratic(model, rng) for _ in range(4000)])
        raw, centered = vals[:, 0], vals[:, 1]
        assert raw.var(ddof=1) == pytest.approx(332.0 / 3.0, rel=0.10)
        assert centered.var(ddof=1) == pytest.approx(44.0 / 3.0, rel=0.10)
        assert abs(raw.mean()) < 4 * raw.std(ddof=1) / math.sqrt(raw.size) + 0.2
