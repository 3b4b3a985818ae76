import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si

from poisson_chaos.kernels import (
    ArityError, BlockKernel, GridKernel, OUDiagHstarKernel, OUDoubleHKernel, OUSingleKernel,
    RectHazardKernel, ou_ghat,
)
from poisson_chaos.chaos import eval_I1, eval_I2
from poisson_chaos.ou import linear_variance_exact
from poisson_chaos.point_process import DiscreteControl, PointPattern, SupportError, Window
from poisson_chaos.quadrature import integrate_checked

from kernel_oracles import (
    DykstraLaudHazardKernel, OUHazardKernel, grid_from_csv, grid_to_csv,
)
from expansion_oracle import as_grid
from hazard_path_oracle import rect_pair_time_integral
from ou_contraction_oracle import exp_refined_edges, pair_overlap


class TestBlockKernel:
    def test_point_values(self):
        f = BlockKernel(2)
        assert f(1.0, 0.3, 1.0, 0.7) == pytest.approx(0.5)     # same block, distinct
        assert f(1.0, 0.3, 1.0, 1.7) == 0.0                    # disjoint blocks
        assert f(1.0, 0.3, 1.0, 0.3) == 0.0                    # diagonal vanishes

    def test_l2_norm_exactly_half(self, unit_jump):
        for n in (1, 2, 10, 137):
            f = BlockKernel(n)
            w = Window(0.0, float(n))
            assert 2.0 * f.l2_norm_sq(unit_jump, w) == pytest.approx(1.0, abs=1e-15)

    def test_l4_exactly_quarter_over_n(self, unit_jump):
        for n in (1, 5, 50):
            f = BlockKernel(n)
            assert f.lp_norm(4, unit_jump, Window(0.0, float(n))) == pytest.approx(
                1.0 / (4 * n), abs=1e-16)

    def test_matches_grid_realization(self, unit_jump):
        n = 4
        f = BlockKernel(n)
        g = as_grid(f)
        w = Window(0.0, float(n))
        pts = np.random.default_rng(0).uniform(0, n, size=(30, 2))
        for a, b in pts:
            assert f(1.0, a, 1.0, b) == g(1.0, a, 1.0, b)
        assert g.lp_norm(2, unit_jump, w) == pytest.approx(f.lp_norm(2, unit_jump, w))

    def test_zero_kernel_norms(self, unit_jump):
        z = GridKernel((0.0, 1.0, 2.0), np.zeros((2, 2)))
        for p in (1, 2, 3, 4):
            assert z.lp_norm(p, unit_jump, Window(0.0, 2.0)) == 0.0


class TestGridKernel:
    def test_symmetrize_pointwise_and_idempotent(self, unit_jump):
        g = GridKernel((0.0, 1.0, 2.0), np.array([[0.0, 2.0], [0.0, 1.0]]))
        s = g.symmetrize()
        assert s(1.0, 0.5, 1.0, 1.5) == pytest.approx(1.0)
        assert s(1.0, 1.5, 1.0, 0.5) == pytest.approx(1.0)
        s2 = s.symmetrize()
        assert np.array_equal(s.values, s2.values)

    def test_symmetrize_indicator_average(self):
        # f = 1_{A x B} with A, B disjoint -> (1_{A x B} + 1_{B x A})/2
        g = GridKernel((0.0, 1.0, 2.0), np.array([[0.0, 1.0], [0.0, 0.0]]))
        s = g.symmetrize()
        assert s(1.0, 0.5, 1.0, 1.5) == pytest.approx(0.5)
        assert s(1.0, 1.5, 1.0, 0.5) == pytest.approx(0.5)

    @given(st.integers(2, 5).flatmap(
        lambda k: st.tuples(st.just(k),
                            st.lists(st.lists(st.floats(-3, 3), min_size=k, max_size=k),
                                     min_size=k, max_size=k))))
    @settings(max_examples=60, deadline=None)
    def test_symmetrization_contracts_l2(self, kv):
        k, rows = kv
        ctrl = DiscreteControl(values=(1.0,), weights=(1.0,))
        g = GridKernel(tuple(float(i) for i in range(k + 1)), np.array(rows))
        w = Window(0.0, float(k))
        assert g.symmetrize().l2_norm_sq(ctrl, w) <= g.l2_norm_sq(ctrl, w) + 1e-12

    def test_arity_mismatch_errors(self, unit_jump):
        g1 = GridKernel((0.0, 1.0), np.array([1.0]))
        with pytest.raises(ArityError):
            g1.symmetrize()

    def test_csv_roundtrip(self, tmp_path):
        g = GridKernel((0.0, 0.5, 2.0, 3.0), np.arange(9.0).reshape(3, 3))
        path = tmp_path / "kern.csv"
        grid_to_csv(g, path)
        back = grid_from_csv(path)
        assert back.edges == g.edges
        assert np.array_equal(back.values, g.values)


# (lam, T) at lam T = 0.01, 5 and 200
OU_HORIZONS = pytest.mark.parametrize("lam, T", [(0.5, 0.02), (1.0, 5.0), (2.0, 100.0)],
                                      ids=["lamT0.01", "lamT5", "lamT200"])


def cut_windows(lam, T):
    """Windows that do not cover an OU kernel's support: ending before T,
    and starting above 0."""
    return Window(-12.0 / lam, 0.6 * T), Window(0.2 * T, T)


def ghat_power_quad(lam, T, p, xs, ys):
    """int over xs x ys of Ghat^p by nested adaptive quadrature, with the
    kinks at 0 and y = x; Ghat on x, y <= T written from its defining time
    integral, e^{lam (x + y)} (e^{-2 lam max(x, y, 0)} - e^{-2 lam T})."""
    def ghat(x, y):
        return math.exp(lam * (x + y - 2.0 * max(x, y, 0.0))) - math.exp(lam * (x + y - 2.0 * T))

    def inner(x):
        kinks = [k for k in (0.0, x) if ys[0] < k < ys[1]]
        val, _ = si.quad(lambda y: ghat(x, y) ** p, *ys, epsabs=0.0, epsrel=1e-13,
                         limit=400, points=kinks or None)
        return val

    kinks = [0.0] if xs[0] < 0.0 < xs[1] else None
    val, _ = si.quad(inner, *xs, epsabs=0.0, epsrel=1e-12, limit=400, points=kinks)
    return val


# (lam, T) at lam T = 0.01, 0.1, 5 and 50, and cut depths L lam
OU_TAILS = pytest.mark.parametrize("lam, T", [(0.5, 0.02), (2.0, 0.05), (1.0, 5.0), (0.5, 100.0)],
                                   ids=["lamT0.01", "lamT0.1", "lamT5", "lamT50"])
TAIL_DEPTHS = pytest.mark.parametrize("depth", [1.0, 4.0, 12.0])


class TestOUTails:
    # support_excess is the exact L2 mass outside the window (unit jumps),
    # against quadrature over (-L - 40/lam, -L], where e^{-80} of it is left
    @OU_TAILS
    @TAIL_DEPTHS
    def test_pair_kernel(self, lam, T, depth):
        L = depth / lam
        M = L + 40.0 / lam
        # x below -L with y anywhere, twice, plus both below -L
        oracle = (2.0 * ghat_power_quad(lam, T, 2, (-M, -L), (-L, T))
                  + ghat_power_quad(lam, T, 2, (-M, -L), (-M, -L))) / T ** 2
        assert OUDoubleHKernel(lam, T).support_excess(Window(-L, T)) == pytest.approx(oracle, rel=1e-9)

    @OU_TAILS
    @TAIL_DEPTHS
    @pytest.mark.parametrize("kind", [OUSingleKernel, OUDiagHstarKernel])
    def test_arity_one_kernels(self, lam, T, depth, kind):
        L = depth / lam
        g = kind(lam, T)
        oracle, _ = si.quad(lambda x: g(1.0, x) ** 2, -L - 40.0 / lam, -L,
                            epsabs=0.0, epsrel=1e-13, limit=400)
        assert g.support_excess(Window(-L, T)) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("kind", [OUDoubleHKernel, OUSingleKernel, OUDiagHstarKernel])
    def test_cut_windows_are_unsupported(self, kind, unit_jump):
        lam, T = 1.0, 10.0
        g = kind(lam, T)
        evaluate = eval_I2 if g.arity == 2 else eval_I1
        for cut in (*cut_windows(lam, T), Window(50.0, 60.0)):
            assert g.support_excess(cut) == math.inf
            empty = PointPattern(np.empty(0), np.empty(0), cut)
            with pytest.raises(SupportError):
                evaluate(g, empty, unit_jump)


class TestOUSingle:
    @OU_HORIZONS
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_lp_norms_vs_quadrature(self, symmetric_jump, unit_jump, lam, T, p):
        g = OUSingleKernel(lam, T)
        L = 12.0 / lam
        oracle, _ = si.quad(lambda x: abs(g(1.0, np.array([x]))[0]) ** p, -L, T,
                            epsabs=0.0, epsrel=1e-12, limit=400, points=[0.0])
        assert g.lp_norm(p, symmetric_jump, Window(-L, T)) == pytest.approx(oracle, rel=1e-9)
        if p == 1:
            assert g.integral(unit_jump, Window(-L, T)) == pytest.approx(oracle, rel=1e-9)
        # a window that does not cover the kernel is refused, not misread
        for w in cut_windows(lam, T):
            with pytest.raises(ValueError):
                g.lp_norm(p, symmetric_jump, w)
            with pytest.raises(ValueError):
                g.integral(unit_jump, w)

    def test_compensator_vanishes_for_centered_marginal(self, symmetric_jump):
        g = OUSingleKernel(1.0, 5.0)
        assert g.integral(symmetric_jump, Window(-12.0, 5.0)) == 0.0

    def test_compensator_vs_quadrature_uncentered(self, unit_jump):
        lam, T, L = 1.0, 5.0, 12.0
        g = OUSingleKernel(lam, T)
        oracle, _ = si.quad(lambda x: g(1.0, np.array([x]))[0], -L, T,
                            epsabs=1e-13, epsrel=1e-11, limit=400, points=[0.0])
        assert g.integral(unit_jump, Window(-L, T)) == pytest.approx(oracle, rel=1e-10)

    def test_variance_limit(self):
        # finite-horizon variance tends to 2/lam; within 2% at T = 800
        assert linear_variance_exact(1.0, 800.0) == pytest.approx(2.0, rel=0.02)

    def test_truncation_tail_bound(self, symmetric_jump):
        lam, T = 1.0, 4.0
        g = OUSingleKernel(lam, T)
        full = g.lp_norm(2, symmetric_jump, Window(-60.0, T))
        for L in (3.0, 6.0, 9.0):
            trunc = g.lp_norm(2, symmetric_jump, Window(-L, T))
            assert abs(full - trunc) <= g.support_excess(Window(-L, T)) * 1.0000001


class TestRateAndHorizonRange:
    """lam, T and lam T in [1e-60, 1e60], where the closed forms are finite;
    each bound is inclusive, and a value that is not positive and finite is
    refused with the same message."""

    @pytest.mark.parametrize("kind", [OUDoubleHKernel, OUSingleKernel, OUDiagHstarKernel])
    @pytest.mark.parametrize("lam, T", [
        (1e-60, 1.0), (1e60, 1e-60), (1.0, 1e-60), (1e-60, 1e60), (1e-30, 2e-30),
        (1e30, 5e29)])
    def test_inside_is_accepted(self, kind, lam, T):
        kind(lam, T)

    @pytest.mark.parametrize("kind", [OUDoubleHKernel, OUSingleKernel, OUDiagHstarKernel])
    @pytest.mark.parametrize("lam, T, name", [
        (math.nextafter(1e-60, 0.0), 1.0, "lam"), (math.nextafter(1e60, math.inf), 1e-60, "lam"),
        (1.0, math.nextafter(1e-60, 0.0), "T"), (1e-60, math.nextafter(1e60, math.inf), "T"),
        (1e-30, 5e-31, "lam T"), (1e30, 2e30, "lam T"),
        (0.0, 1.0, "lam"), (math.inf, 1.0, "lam"), (1.0, -1.0, "T"), (1.0, math.nan, "T")])
    def test_outside_is_refused(self, kind, lam, T, name):
        message = rf"^{name} = .* is outside the closed forms' range \[1e-60, 1e\+60\]$"
        with pytest.raises(ValueError, match=message):
            kind(lam, T)


class TestOUDoubleH:
    def test_spec_point_oracle(self):
        # u=u'=1, x=x'=-1, lam=1, T=2: independent time-integration oracle
        h = OUDoubleHKernel(1.0, 2.0)
        oracle, _ = si.quad(lambda t: 2.0 * np.exp(-2.0 * (t + 1.0)), 0.0, 2.0)
        oracle /= 2.0
        assert h(1.0, -1.0, 1.0, -1.0) == pytest.approx(oracle, rel=1e-12)
        assert h(1.0, -1.0, 1.0, -1.0) == pytest.approx(0.5 * math.exp(-2) * (1 - math.exp(-4)))

    def test_l2_vs_2d_quadrature(self, symmetric_jump):
        # nested adaptive oracle with explicit kink points at y in {0, x}
        lam, T, L = 1.3, 4.0, 11.0
        h = OUDoubleHKernel(lam, T)
        w = Window(-L, T)

        def inner(x):
            val, _ = si.quad(lambda y: ou_ghat(lam, T, np.array([x]), np.array([y]))[0] ** 2,
                             -L, T, epsabs=1e-13, epsrel=1e-12, limit=600,
                             points=[0.0, x])
            return val

        num, _ = si.quad(inner, -L, T, epsabs=1e-12, epsrel=1e-10, limit=600, points=[0.0])
        assert h.l2_norm_sq(symmetric_jump, w) == pytest.approx(num / T ** 2, rel=1e-8)

    def test_norm_doubled_approaches_two_over_lam(self, symmetric_jump):
        # 2T ||H||^2 is within 2% of 2/lam at T = 800 (and NOT of 1/lam)
        for lam in (0.5, 1.0, 2.0):
            T = 800.0
            w = Window(-12.0 / lam, T)
            h = OUDoubleHKernel(lam, T)
            val = 2.0 * T * h.l2_norm_sq(symmetric_jump, w)
            assert val == pytest.approx(2.0 / lam, rel=0.02)

    # lam T = 0.002 as well: the binomial sums cancel below lam T ~ 1, and a
    # shallow cut, L lam = 1, leaves the e^{-p lam L} part of the sum in play
    @pytest.mark.parametrize("lam, T", [(2.0, 0.001), (0.5, 0.02), (1.0, 5.0), (2.0, 100.0)],
                             ids=["lamT0.002", "lamT0.01", "lamT5", "lamT200"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("depth", [1.0, 12.0])
    def test_lp_norms_vs_2d_quadrature(self, symmetric_jump, lam, T, p, depth):
        L = depth / lam
        oracle = ghat_power_quad(lam, T, p, (-L, T), (-L, T)) / T ** p
        h = OUDoubleHKernel(lam, T)
        assert h.lp_norm(p, symmetric_jump, Window(-L, T)) == pytest.approx(oracle, rel=1e-10)

    def test_contraction_norm_quadrature_vs_scipy(self, symmetric_jump):
        lam, T, L = 0.7, 3.0, 10.0
        h = OUDoubleHKernel(lam, T)
        w = Window(-L, T)
        n11, n21, n10 = h.contraction_norms(symmetric_jump, w)
        # independent check of the full T-power: ||H *_2^1 H||^2 directly,
        # H *_2^1 H (z') = int H(z, z')^2 mu(dz) = u'^2 C_2(x') / T^2
        num_n21, _ = si.quad(
            lambda y: (h._shape_power_section(2, np.array([y]), w)[0] / T ** 2) ** 2,
            -L, T, epsabs=1e-16, epsrel=1e-11, limit=500, points=[0.0])
        assert n21 == pytest.approx(num_n21, rel=1e-8)
        assert n10 == n21
        num_n11, _ = si.dblquad(
            lambda yp, y: (pair_overlap(h, np.array([y]), np.array([yp]), w)[0] / T ** 2) ** 2,
            -L, T, -L, T, epsabs=1e-14, epsrel=1e-9)
        assert n11 == pytest.approx(num_n11, rel=1e-6)

    @pytest.mark.parametrize("kind", [OUDoubleHKernel, OUSingleKernel, OUDiagHstarKernel])
    def test_window_ending_before_horizon_is_unsupported(self, kind, unit_jump):
        h = kind(1.0, 10.0)
        cut = Window(-12.0, 5.0)
        assert h.support_excess(cut) == math.inf
        assert h.scaled(2.0).support_excess(cut) == math.inf
        assert h.support_excess(Window(-12.0, 10.0)) < 1e-6
        # and its closed forms refuse that window rather than misread it
        with pytest.raises(ValueError, match="ending at or after"):
            h.lp_norm(2, unit_jump, cut)
        with pytest.raises(ValueError, match="ending at or after"):
            h.integral(unit_jump, cut) if h.arity == 1 else h.double_integral(unit_jump, cut)

    def test_eval_rejects_window_ending_before_horizon(self, unit_jump):
        h = OUDoubleHKernel(1.0, 10.0)
        empty = PointPattern(np.empty(0), np.empty(0), Window(-12.0, 5.0))
        with pytest.raises(SupportError):
            eval_I2(h, empty, unit_jump)


class TestTruncationConvergence:
    # quadrature/closed-form values on truncated windows converge to the
    # untruncated value within the emitted analytic tail bound
    def test_pair_kernel(self, symmetric_jump):
        # the bound here is the exact tail integral, so allow float-level slack
        lam, T = 1.0, 4.0
        h = OUDoubleHKernel(lam, T)
        full = h.l2_norm_sq(symmetric_jump, Window(-60.0, T))
        for L in (4.0, 8.0, 12.0):
            trunc = h.l2_norm_sq(symmetric_jump, Window(-L, T))
            bound = h.support_excess(Window(-L, T))
            assert bound * 0.999999 - 1e-15 <= full - trunc <= bound * 1.000001 + 1e-15

    def test_diag_kernel(self, symmetric_jump):
        # the bound here is the exact tail integral, so allow float-level slack
        lam, T = 1.0, 4.0
        h = OUDiagHstarKernel(lam, T)
        full = h.lp_norm(2, symmetric_jump, Window(-60.0, T))
        for L in (4.0, 8.0, 12.0):
            trunc = h.lp_norm(2, symmetric_jump, Window(-L, T))
            bound = h.support_excess(Window(-L, T))
            assert bound * 0.999999 - 1e-15 <= full - trunc <= bound * 1.000001 + 1e-15


class TestOUDiagHstar:
    @OU_HORIZONS
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_values_and_norms(self, symmetric_jump, lam, T, p):
        L = 12.0 / lam
        h = OUDiagHstarKernel(lam, T)
        w = Window(-L, T)
        # value at x < 0 and x > 0 against the defining integral
        for x0 in (-1.5, 0.4 * T):
            oracle, _ = si.quad(lambda t: 2 * lam * np.exp(-2 * lam * (t - x0)),
                                max(x0, 0.0), T)
            assert h(2.0, x0) == pytest.approx(4.0 * oracle / T, rel=1e-12)
        num, _ = si.quad(lambda x: h(1.0, np.array([x]))[0] ** p, -L, T,
                         epsabs=0.0, epsrel=1e-12, points=[0.0])
        assert h.lp_norm(p, symmetric_jump, w) == pytest.approx(num, rel=1e-10)
        if p == 1:
            assert h.integral(symmetric_jump, w) == pytest.approx(num, rel=1e-10)
        # a window that does not cover the kernel is refused, not misread
        for cut in cut_windows(lam, T):
            with pytest.raises(ValueError):
                h.lp_norm(p, symmetric_jump, cut)
            with pytest.raises(ValueError):
                h.integral(symmetric_jump, cut)

    def test_compensator_is_one_untruncated(self, symmetric_jump):
        # int Hstar dmu -> 1 as the window engulfs the support (E[Y^2] = 1)
        h = OUDiagHstarKernel(1.0, 50.0)
        assert h.integral(symmetric_jump, Window(-40.0, 50.0)) == pytest.approx(1.0, abs=1e-12)


class TestHazardKernels:
    def test_rect_time_integral(self):
        k = RectHazardKernel(1.0)
        assert k.time_integral(np.array([0.0]), 10.0)[0] == pytest.approx(1.0)
        assert k.time_integral(np.array([5.0]), 10.0)[0] == pytest.approx(2.0)
        assert k.time_integral(np.array([10.5]), 10.0)[0] == pytest.approx(0.5)
        assert k.time_integral(np.array([12.0]), 10.0)[0] == 0.0

    @pytest.mark.parametrize("kern", [RectHazardKernel(0.7), DykstraLaudHazardKernel(),
                                      OUHazardKernel(1.3)])
    def test_pair_integral_vs_quadrature(self, kern):
        T = 6.0
        tau = getattr(kern, "tau", 0.0)
        rng = np.random.default_rng(3)
        for _ in range(12):
            x1, x2 = rng.uniform(0.0, T + 1.0, size=2)
            breaks = sorted({min(max(p, 0.0), T)
                             for p in (x1 - tau, x1 + tau, x2 - tau, x2 + tau, x1, x2)})
            oracle, _ = si.quad(lambda t: float(kern(np.array([t]), np.array([x1]))[0]
                                                * kern(np.array([t]), np.array([x2]))[0]),
                                0.0, T, epsabs=1e-13, epsrel=1e-11, limit=400,
                                points=breaks)
            if isinstance(kern, RectHazardKernel):
                got = float(rect_pair_time_integral(x1, x2, T, tau))
            else:
                got = float(kern.pair_time_integral(np.array([x1]), np.array([x2]), T)[0])
            assert got == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("kern", [RectHazardKernel(0.7), DykstraLaudHazardKernel(),
                                      OUHazardKernel(1.3)])
    def test_time_integral_vs_quadrature(self, kern):
        T = 6.0
        for x in (0.0, 0.3, 2.0, 5.8, 6.5):
            oracle, _ = si.quad(lambda t: float(kern(np.array([t]), np.array([x]))[0]),
                                0.0, T, epsabs=1e-13, epsrel=1e-11, limit=400, points=[x])
            assert float(kern.time_integral(np.array([x]), T)[0]) == pytest.approx(oracle, abs=1e-9)


def test_quadrature_panels_sanity():
    edges = exp_refined_edges(0.0, 10.0, 0.5)
    val, disc = integrate_checked(lambda x: np.exp(-2 * x), edges)
    assert val == pytest.approx(0.5 * (1 - np.exp(-20.0)), rel=1e-12)
    assert disc < 1e-12
