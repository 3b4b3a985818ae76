import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings, strategies as st

import poisson_chaos.kernels as kernels_module
import poisson_chaos.ou as ou_module
from poisson_chaos.chaos import SUPPORT_TOL, _check_support, eval_I1, eval_I2
from poisson_chaos.kernels import (
    _E_EXPONENT_MIN, _SCAN_SPAN, OUDiagHstarKernel, OUDoubleHKernel, OUSingleKernel,
    ou_ghat, ou_sorted_atoms,
)
from poisson_chaos.ou import (
    DEFAULT_JUMPS, OUStatistics, k1_variance_exact, k2_variance_exact, linear_variance_exact,
    ou_window, rep_linear, rep_quadratic,
)
from poisson_chaos.point_process import (
    DiscreteControl, PointPattern, SupportError, Window, sample_pattern,
)
from poisson_chaos.quadrature import QuadratureError

from fits import slope_fit
from kernel_oracles import OUInstantKernel, dense_pair_sum
from ou_contraction_oracle import contraction_norms_by_quadrature
from ou_path_oracle import (
    autocovariance_exact, h_norm2_doubled, linear_stat, path_on_grid, quadratic_stat,
    sample_variance_stat, sorted_atoms_every_exponential, square_time_integral_exact,
    square_time_integral_grid,
)
from seeds import replication_rng


class TestConfig:
    def test_requires_unit_second_moment(self):
        with pytest.raises(ValueError):
            OUStatistics(lam=1.0, T=10.0,
                         jumps=DiscreteControl(values=(2.0,), weights=(1.0,)))

    def test_depth_default(self):
        stats = OUStatistics(lam=0.5, T=10.0)
        assert stats.window == ou_window(0.5, 10.0)
        assert -stats.window.x_lo == pytest.approx(24.0)
        assert math.exp(2 * stats.lam * stats.window.x_lo) < 1e-10

    def test_statistics_build_over_the_rate_and_horizon_grid(self):
        # the cut deepens past 12/lam where the linear kernel's L2 mass on
        # x <= 0, (1 - e^{-lam T})^2 / (lam^2 T), exceeds 10 (lam = 1e-5,
        # T = 1e5 among others), so every kernel's support check passes
        # from lam = 1e-8 to 1e4 and T = 1e-3 to 1e6
        excess = 0.0
        for lam in np.logspace(-8, 4, 13):
            for T in np.logspace(-3, 6, 10):
                lam, T = float(lam), float(T)
                stats = OUStatistics(lam, T)
                mass = math.expm1(-lam * T) ** 2 / (lam * lam * T)
                depth = max(12.0, 0.5 * math.log(mass / 1e-8))
                assert -stats.window.x_lo * lam == pytest.approx(depth, rel=1e-12)
                for kernel in (stats.pair, OUDiagHstarKernel(lam, T).scaled(math.sqrt(T)),
                               OUSingleKernel(lam, T)):
                    excess = max(excess, kernel.support_excess(stats.window))
        assert excess <= 2.0001e-8 < SUPPORT_TOL


class TestPathSimulation:
    def test_empty_pattern_zero_path(self):
        stats = OUStatistics(lam=1.0, T=5.0)
        empty = PointPattern(np.empty(0), np.empty(0), stats.window)
        y = path_on_grid(stats, empty, np.linspace(0, 5, 11))
        assert np.all(y == 0.0)

    def test_single_atom_closed_form(self):
        stats = OUStatistics(lam=2.0, T=4.0)
        pat = PointPattern(np.array([-1.0]), np.array([1.5]), stats.window)
        t = np.array([1.0, 1.5, 3.0])
        y = path_on_grid(stats, pat, t)
        want = np.where(t >= 1.5, -math.sqrt(4.0) * np.exp(-2.0 * (t - 1.5)), 0.0)
        assert np.allclose(y, want, atol=1e-14)

    def test_stationary_variance_one(self):
        stats = OUStatistics(lam=1.0, T=2.0)
        rng = replication_rng(30, 0)
        ys = np.array([path_on_grid(stats, sample_pattern(stats.jumps, stats.window, rng),
                                    np.array([2.0]))[0]
                       for _ in range(10_000)])
        se = ys.var(ddof=1) * math.sqrt(2.0 / ys.size) * 1.6
        assert ys.var(ddof=1) == pytest.approx(1.0, abs=4 * se)

    def test_autocovariance(self):
        stats = OUStatistics(lam=1.0, T=4.0)
        rng = replication_rng(31, 0)
        grid = np.array([2.0, 2.5, 3.0, 4.0])
        paths = np.array([path_on_grid(stats, sample_pattern(stats.jumps, stats.window, rng), grid)
                          for _ in range(20_000)])
        for j, s in ((1, 0.5), (2, 1.0), (3, 2.0)):
            emp = np.mean(paths[:, 0] * paths[:, j])
            se = np.std(paths[:, 0] * paths[:, j], ddof=1) / math.sqrt(paths.shape[0])
            assert emp == pytest.approx(autocovariance_exact(1.0, s), abs=4 * se)


class TestLinearStat:
    def test_centered_marginal_zero_mean(self):
        stats = OUStatistics(lam=1.0, T=50.0)
        rng = replication_rng(32, 0)
        vals = np.array([rep_linear(stats, rng) for _ in range(4000)])
        assert abs(vals.mean()) < 3 * vals.std(ddof=1) / math.sqrt(vals.size)

    def test_finite_horizon_variance_oracle(self):
        # closed form equals the two-piece quadrature oracle
        from scipy.integrate import quad
        lam, T = 1.0, 100.0
        neg, _ = quad(lambda x: (np.exp(lam * x) * (1 - np.exp(-lam * T))) ** 2, -60, 0)
        pos, _ = quad(lambda x: (1 - np.exp(-lam * (T - x))) ** 2, 0, T)
        oracle = (2.0 / (lam * T)) * (neg + pos)
        assert linear_variance_exact(lam, T) == pytest.approx(oracle, rel=1e-9)

    def test_mc_variance_matches_closed_form(self):
        stats = OUStatistics(lam=1.0, T=100.0)
        rng = replication_rng(33, 0)
        vals = np.array([rep_linear(stats, rng) for _ in range(5000)])
        target = linear_variance_exact(1.0, 100.0)
        se = vals.var(ddof=1) * math.sqrt(2.0 / vals.size) * 1.3
        assert vals.var(ddof=1) == pytest.approx(target, abs=3 * se)

    def test_limit_two_over_lam(self):
        assert linear_variance_exact(1.0, 800.0) == pytest.approx(2.0, rel=0.02)


class TestQuadraticStat:
    def test_pathwise_identity_total_vs_exact_square_integral(self):
        stats = OUStatistics(lam=1.0, T=20.0)
        rng = replication_rng(34, 0)
        for _ in range(40):
            pat = sample_pattern(stats.jumps, stats.window, rng)
            q = quadratic_stat(stats, pat)
            direct = math.sqrt(stats.T) * (square_time_integral_exact(stats, pat) / stats.T - 1.0)
            assert q.total == pytest.approx(direct, rel=1e-8, abs=1e-8)

    def test_long_horizon_pair_sum_never_builds_the_matrix(self, monkeypatch):
        # T = 2000 (~2000 atoms): the sorted recursion alone carries K2; the
        # dense square_time_integral_exact stays the independent oracle
        monkeypatch.setattr(OUDoubleHKernel, "__call__",
                            lambda *a: pytest.fail("pair matrix evaluated"))
        stats = OUStatistics(lam=1.0, T=2000.0)
        pat = sample_pattern(stats.jumps, stats.window, replication_rng(40, 0))
        q = quadratic_stat(stats, pat)
        direct = math.sqrt(stats.T) * (square_time_integral_exact(stats, pat) / stats.T - 1.0)
        assert q.total == pytest.approx(direct, rel=1e-8, abs=1e-8)

    def test_exact_square_integral_vs_fine_grid(self):
        stats = OUStatistics(lam=1.0, T=10.0)
        pat = sample_pattern(stats.jumps, stats.window, 77)
        exact = square_time_integral_exact(stats, pat)
        prev = None
        for n in (2_001, 20_001, 200_001):
            grid_val = square_time_integral_grid(stats, pat, n)
            err = abs(grid_val - exact) / abs(exact)
            if prev is not None:
                assert err < prev  # converges as the grid refines
            prev = err
        assert err < 1e-6

    def test_variances_match_derived_constants(self):
        # Var K2 -> 2/lam and Var K1 -> c_nu^2 (= 1 for the default marginal)
        stats = OUStatistics(lam=1.0, T=200.0)
        rng = replication_rng(35, 0)
        vals = np.array([rep_quadratic(stats, rng) for _ in range(3000)])
        k2, k1, total = vals[:, 0], vals[:, 1], vals[:, 2]
        vk2 = k2.var(ddof=1)
        vk1 = k1.var(ddof=1)
        vtot = total.var(ddof=1)
        assert vk2 == pytest.approx(k2_variance_exact(1.0, 200.0), rel=0.10)
        assert vk1 == pytest.approx(k1_variance_exact(1.0, 200.0), rel=0.10)
        assert vtot == pytest.approx(3.0, rel=0.10)
        # k2 and k1 are uncorrelated (orthogonal chaoses)
        corr = np.corrcoef(k2, k1)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(k2.size)

    def test_k2_variance_closed_form_vs_norm(self, symmetric_jump):
        # consistency of the two closed-form routes: Var K2 = 2T ||H||^2
        for lam, T in ((0.5, 100.0), (1.0, 200.0), (2.0, 50.0)):
            a = k2_variance_exact(lam, T)
            b = h_norm2_doubled(lam, T)
            assert a == pytest.approx(b, rel=1e-10)


class DensePairOUKernel(OUDoubleHKernel):
    """The OU pair kernel with the test oracles' dense pair sum, so that a
    reference built on it shares no code with the scan of
    kernels.ou_pair_terms."""

    pair_sum = dense_pair_sum


def exponential_parts(lam, T, x, y):
    """The sum of the two exponentials whose difference is Ghat(x, y)."""
    s = x + y
    m = np.maximum(np.maximum(x, y), 0.0)
    return np.exp(lam * (s - 2.0 * m)) + np.exp(lam * (s - 2.0 * T))


# values (1, -1) with weights (0.75, 0.25): unit second moment and K1 = 1/2,
# so the pair kernel's per-atom and double compensators are nonzero
UNCENTERED_JUMPS = DiscreteControl(values=(1.0, -1.0), weights=(0.75, 0.25))
TINY = np.finfo(float).tiny


@st.composite
def ou_patterns(draw):
    """An OU configuration and atoms on its window [-12/lam, T], weighted by
    u in [-2, 2].  Draws hold no atom or one as well as many; atoms exactly
    at -12/lam, 0 and T; ties; and, where the horizon is long enough for
    the scan to need more than one chunk, atoms on its chunk edges and one
    ulp to either side: lam (T - x) = _SCAN_SPAN, where the last chunk
    begins, and lam (x - lo) = _SCAN_SPAN with an atom at lo = -12/lam,
    where the first chunk ends.

    lam T stays at or below 1500 (up to three chunks): the dense reference
    rounds the exponent of each e^{-lam |x - y|} to about lam ulp(2T), which
    at lam T = 1500 is already 7e-13 relative."""
    lam = draw(st.floats(0.2, 5.0))
    T = draw(st.floats(0.05, 1500.0)) / lam
    stats = OUStatistics(lam, T, draw(st.sampled_from([DEFAULT_JUMPS, UNCENTERED_JUMPS])))
    lo = stats.window.x_lo
    spots = st.one_of(st.floats(lo, T), st.sampled_from([lo, 0.0, T]))
    x = draw(st.lists(spots, max_size=12))
    for edge in (T - _SCAN_SPAN / lam, lo + _SCAN_SPAN / lam):
        if lo < edge < T and draw(st.booleans()):
            x += [lo] + [edge] * draw(st.integers(1, 2))
            x += [np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    x = x + x[:draw(st.integers(0, len(x)))]
    u = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(x), max_size=len(x)))
    pattern = PointPattern(np.array(u, dtype=float), np.array(x, dtype=float), stats.window)
    return stats, pattern


class TestOnePass:
    """ou.OUStatistics, the one sorted pass behind rep_quadratic and
    rep_linear, against the generic pathwise route: eval_I2 and eval_I1 on
    the OU kernels, one at a time, each with its own support check and
    compensators, and the pair sum by the dense matrix."""

    @settings(max_examples=300, deadline=None)
    @given(ou_patterns())
    def test_matches_eval_I1_and_eval_I2(self, case):
        # Each statistic within 1e-12 of the sum of the absolute values of
        # the exponential terms it is made of, compensators included:
        # Ghat(x, y) = e^{lam (x + y - 2 max(x, y, 0))} - e^{lam (x + y - 2T)}
        # and lam shape(x) = e^{lam min(x, 0)} - e^{lam (x - T)} are each a
        # difference of two exponentials, and both vanish at x = T, where
        # the two cancel.  Below the smallest normal double (tiny weights,
        # whose products underflow) no relative accuracy is left.
        stats, pattern = case
        lam, T, jumps, window = stats.lam, stats.T, stats.jumps, stats.window
        u, x = pattern.u, pattern.x
        scale = math.sqrt(T)
        k2, k1, lin = stats.evaluate(pattern)

        pair = DensePairOUKernel(lam, T).scaled(scale)
        uu = np.abs(u[:, None] * u[None, :])
        np.fill_diagonal(uu, 0.0)
        k2_abs = (scale / T * np.sum(uu * exponential_parts(lam, T, x[:, None], x[None, :]))
                  + 2.0 * np.abs(pair.partial_integral(jumps, window, u, x)).sum()
                  + abs(pair.double_integral(jumps, window)))
        assert abs(k2 - eval_I2(pair, pattern, jumps)) <= 1e-12 * k2_abs + TINY

        diag = OUDiagHstarKernel(lam, T).scaled(scale)
        k1_abs = (scale / T * np.sum(u * u * exponential_parts(lam, T, x, x))
                  + abs(diag.integral(jumps, window)))
        assert abs(k1 - eval_I1(diag, pattern, jumps)) <= 1e-12 * k1_abs + TINY

        single = OUSingleKernel(lam, T)
        shape_parts = np.exp(lam * np.minimum(x, 0.0)) + np.exp(lam * (x - T))
        lin_abs = (math.sqrt(2.0 * lam / T) / lam * np.sum(np.abs(u) * shape_parts)
                   + abs(single.integral(jumps, window)))
        assert abs(lin - eval_I1(single, pattern, jumps)) <= 1e-12 * lin_abs + TINY
        assert stats.linear(pattern) == lin

    @pytest.mark.parametrize("T", [20.0, 2000.0])
    def test_total_matches_exact_square_integral(self, T):
        stats = OUStatistics(lam=1.0, T=T)
        rng = replication_rng(42, 0)
        for _ in range(10):
            pat = sample_pattern(stats.jumps, stats.window, rng)
            k2, k1, _ = stats.evaluate(pat)
            direct = math.sqrt(T) * (square_time_integral_exact(stats, pat) / T - 1.0)
            assert k2 + k1 == pytest.approx(direct, rel=1e-8, abs=1e-8)

    def test_replications_share_one_set_of_constants(self, monkeypatch):
        # the kernels' support checks and compensators run once per
        # configuration, and no replication evaluates a kernel pointwise as
        # eval_I1 and eval_I2 do; reading only the window (as criterion
        # does) builds none of it
        checked = []
        for kernel in (OUDoubleHKernel, OUDiagHstarKernel, OUSingleKernel):
            monkeypatch.setattr(kernel, "__call__",
                                lambda *a: pytest.fail("kernel evaluated pointwise"))
            excess = kernel.support_excess
            monkeypatch.setattr(kernel, "support_excess", lambda self, window, f=excess:
                                (checked.append(type(self).__name__), f(self, window))[1])
        assert ou_window(1.0, 50.0) == Window(-12.0, 50.0) and not checked
        stats = OUStatistics(lam=1.0, T=50.0)
        rng = replication_rng(43, 0)
        rows = [rep_quadratic(stats, rng) for _ in range(5)]
        rows += [(rep_linear(stats, rng),) for _ in range(5)]
        assert sorted(checked) == ["OUDiagHstarKernel", "OUDoubleHKernel", "OUSingleKernel"]
        assert all(np.isfinite(v) for row in rows for v in row)

    def test_replication_values(self):
        # (k2, k1, total, sample-variance stat, linear) from one pattern
        stats = OUStatistics(lam=1.0, T=30.0, jumps=UNCENTERED_JUMPS)
        k2, k1, total, sv, lin = rep_quadratic(stats, replication_rng(44, 0))
        pat = sample_pattern(stats.jumps, stats.window, replication_rng(44, 0))
        assert (k2, k1, lin) == stats.evaluate(pat)
        assert total == k2 + k1
        assert sv == total - lin ** 2 / math.sqrt(stats.T)
        assert rep_linear(stats, replication_rng(44, 0)) == lin

    def test_leaking_window_still_raises_support_error(self):
        # a window cut at -1/lam leaves e^{-2} (1 - e^{-lam T})^2 / (lam^2 T)
        # of the linear kernel's L2 mass outside, far above chaos.SUPPORT_TOL,
        # and the pair and diagonal kernels leak too
        for lam, T in ((1.0, 10.0), (1e-5, 1e5)):
            window, scale = Window(-1.0 / lam, T), math.sqrt(T)
            for kernel in (OUDoubleHKernel(lam, T).scaled(scale),
                           OUDiagHstarKernel(lam, T).scaled(scale), OUSingleKernel(lam, T)):
                with pytest.raises(SupportError):
                    _check_support(kernel, window)


@st.composite
def long_horizon_patterns(draw):
    """A sampled OU pattern at lam T in [600, 1e5], T in [100, 400], under
    either jump law, with atoms of weight +-1 added where the window reaches
    the exponent cut, at x = T + _E_EXPONENT_MIN / lam and one ulp to either
    side of it."""
    T = draw(st.floats(100.0, 400.0))
    lam = draw(st.floats(600.0, 1e5)) / T
    stats = OUStatistics(lam, T, draw(st.sampled_from([DEFAULT_JUMPS, UNCENTERED_JUMPS])))
    pattern = sample_pattern(stats.jumps, stats.window, draw(st.integers(0, 2**32 - 1)))
    u, x = list(pattern.u), list(pattern.x)
    cut = T + _E_EXPONENT_MIN / lam
    if cut > stats.window.x_lo and draw(st.booleans()):
        x += [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]
        u += draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3))
    return stats, PointPattern(np.array(u), np.array(x), stats.window)


def statistics_and_pair_sum(stats, pattern):
    return (stats.evaluate(pattern), stats.linear(pattern),
            OUDoubleHKernel(stats.lam, stats.T).pair_sum(pattern.u, pattern.x))


class TestExponentCut:
    """kernels.ou_sorted_atoms evaluates e = e^{lam (x - T)} only where it is
    a normal double and leaves it at 0 below; the values built from it equal
    those built from every atom's exponential (ou_path_oracle)."""

    @settings(max_examples=60, deadline=None)
    @given(long_horizon_patterns())
    def test_values_equal_the_every_exponential_reference(self, case):
        # At unit intensity over T >= 100, two atoms lie within 600 / lam of
        # each other with probability above 1 - e^{-25}, so the pair sum has
        # a term above e^{-600} ~ 1e-261, and the rank-one terms the cut
        # drops, each below |u u'| DBL_MIN, vanish in its rounding (see the
        # test below)
        stats, pattern = case
        got = statistics_and_pair_sum(stats, pattern)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ou_module, "ou_sorted_atoms", sorted_atoms_every_exponential)
            mp.setattr(kernels_module, "ou_sorted_atoms", sorted_atoms_every_exponential)
            want = statistics_and_pair_sum(stats, pattern)
        assert got == want

        lam, T = stats.lam, stats.T
        *atoms, e, p = ou_sorted_atoms(lam, T, pattern.u, pattern.x)
        *ref_atoms, ref_e, ref_p = sorted_atoms_every_exponential(lam, T, pattern.u, pattern.x)
        assert all(np.array_equal(a, b) for a, b in zip(atoms + [p], ref_atoms + [ref_p]))
        normal = ref_e >= TINY
        assert np.array_equal(e[normal], ref_e[normal])
        assert np.all((e[~normal] == 0.0) | (e[~normal] == ref_e[~normal]))

    def test_a_pair_sum_without_normal_terms_moves_below_dbl_min(self, monkeypatch):
        # atoms at x = T (e = 1) and at lam (T - x) = 720 (e ~ 1e-313):
        # Ghat of the pair is e^{-720} - e^{-720} = 0.  The reference's near
        # and rank-one parts cancel; with the cut the rank-one part is 0,
        # and the near part, u u' e^{-720}, is left
        lam, T = 1.0, 800.0
        u, x = np.array([1.0, 1.0]), np.array([T - 720.0, T])
        got = OUDoubleHKernel(lam, T).pair_sum(u, x)
        monkeypatch.setattr(kernels_module, "ou_sorted_atoms", sorted_atoms_every_exponential)
        want = OUDoubleHKernel(lam, T).pair_sum(u, x)
        assert want == 0.0 and 0.0 < got < TINY


class TestInstantKernel:
    def test_pathwise_square_identity_uncentered(self):
        # Y(t)^2 = I2(hhat_t) + I1(diag hhat_t) + ||g_t||^2 exactly per path,
        # with a one-sided marginal so every compensator term is exercised
        stats = OUStatistics(lam=1.0, T=6.0,
                             jumps=DiscreteControl(values=(1.0,), weights=(1.0,)))
        rng = replication_rng(38, 0)
        for t in (2.0, 5.0):
            kern = OUInstantKernel(1.0, t)
            for _ in range(25):
                pat = sample_pattern(stats.jumps, stats.window, rng)
                y = path_on_grid(stats, pat, np.array([t]))[0]
                i2 = __import__("poisson_chaos.chaos", fromlist=["eval_I2"]).eval_I2(
                    kern, pat, stats.jumps)
                diag = kern(pat.u, pat.x, pat.u, pat.x)
                depth = -stats.window.x_lo
                comp = stats.jumps.moment(2) * 2.0 * (1.0 - math.exp(-(t + depth))) / 2.0
                i1 = float(diag.sum()) - comp
                assert y ** 2 == pytest.approx(i2 + i1 + comp, rel=1e-9, abs=1e-9)

    def test_quadratic_identity_uncentered_marginal(self):
        # with nonzero first moment the pair-kernel compensators are active;
        # the chaos route must still match the trapezoid route on fine grids
        stats = OUStatistics(lam=1.0, T=10.0,
                             jumps=DiscreteControl(values=(1.0,), weights=(1.0,)))
        rng = replication_rng(39, 0)
        pat = sample_pattern(stats.jumps, stats.window, rng)
        q = quadratic_stat(stats, pat)
        grid_route = math.sqrt(stats.T) * (
            square_time_integral_grid(stats, pat, 200_001) / stats.T - 1.0)
        assert q.total == pytest.approx(grid_route, rel=1e-5, abs=1e-5)


class TestPairCompensator:
    @pytest.mark.parametrize("lam,T", [
        (2.0, 800.0),   # the per-atom adaptive quadrature failed here
        (1.0, 50.0),
        (0.5, 1.0),     # short horizon, where 1 - e^{-2 lam T} is far from 1
    ])
    def test_closed_form_vs_quadrature(self, lam, T):
        ctrl = DiscreteControl(values=(0.75,), weights=(1.0,))
        L = 12.0 / lam
        h = OUDoubleHKernel(lam, T)
        xs = np.array([-L, -0.5 * L, 0.0, 0.3, 0.5 * T, T - 0.5, T])
        got = h.partial_integral(ctrl, Window(-L, T), np.full_like(xs, -2.0), xs)
        for xi, g in zip(xs, got):
            kinks = sorted({0.0, xi} - {-L, T})
            oracle, _ = si.quad(
                lambda t: ou_ghat(lam, T, np.array([xi]), np.array([t]))[0],
                -L, T, points=kinks, limit=2000, epsabs=1e-15, epsrel=1e-12)
            assert g == pytest.approx(-2.0 * 0.75 * oracle / T, rel=1e-10, abs=1e-18)

    def test_double_integral_is_integrated_compensator(self):
        ctrl = DiscreteControl(values=(0.75,), weights=(1.0,))
        lam, T, L = 0.5, 1.0, 24.0
        h = OUDoubleHKernel(lam, T)
        w = Window(-L, T)
        oracle, _ = si.quad(
            lambda t: h.partial_integral(ctrl, w, np.array([1.0]), np.array([t]))[0],
            -L, T, points=[0.0], limit=400, epsabs=1e-14, epsrel=1e-12)
        assert h.double_integral(ctrl, w) == pytest.approx(0.75 * oracle, rel=1e-10)

    def test_uncentered_long_horizon_quadratic_stat(self):
        # non-centred marginal at lam = 2, T = 800: finite statistic, and the
        # compensators centre I2 (exact mean 0 of the pair-kernel integral)
        jumps = DiscreteControl(values=(0.5 * (1.5 + math.sqrt(1.75)),
                                        0.5 * (1.5 - math.sqrt(1.75))),
                                weights=(0.5, 0.5))
        stats = OUStatistics(lam=2.0, T=800.0, jumps=jumps)
        assert jumps.moment(1) == pytest.approx(0.75)
        rng = replication_rng(41, 0)
        k2 = np.array([quadratic_stat(stats, sample_pattern(stats.jumps, stats.window, rng)).k2
                       for _ in range(200)])
        assert np.all(np.isfinite(k2))
        assert abs(k2.mean()) < 4 * k2.std(ddof=1) / math.sqrt(k2.size)


class TestSampleVariance:
    def test_identity_with_parts(self):
        stats = OUStatistics(lam=1.0, T=30.0)
        rng = replication_rng(36, 0)
        for _ in range(20):
            pat = sample_pattern(stats.jumps, stats.window, rng)
            quad = quadratic_stat(stats, pat)
            lin = linear_stat(stats, pat)
            sv = sample_variance_stat(stats, quad, lin)
            assert sv == pytest.approx(quad.total - lin ** 2 / math.sqrt(stats.T), abs=1e-12)

    def test_correction_term_decays_like_inverse_sqrt(self):
        # MC mean of T^{-1/2} (linear stat)^2 ~ 2/(lam sqrt(T)): slope -1/2
        rng = replication_rng(37, 0)
        ts = [25.0, 50.0, 100.0, 200.0, 400.0]
        means = []
        for T in ts:
            stats = OUStatistics(lam=1.0, T=T)
            vals = [rep_linear(stats, rng) ** 2 / math.sqrt(T) for _ in range(800)]
            means.append(float(np.mean(vals)))
        slope, hw = slope_fit(ts, means)
        assert -0.75 < slope < -0.25


class TestDecayLaws:
    def test_t_squared_scaled_contraction_slopes(self, symmetric_jump):
        # the three quadratic-kernel decay quantities fall like 1/T:
        # fitted log-log slopes within [-1.2, -0.8] over T in {50..800}
        ts = [50.0, 100.0, 200.0, 400.0, 800.0]
        l4s, n21s, n11s = [], [], []
        for T in ts:
            w = Window(-12.0, T)
            j = OUDoubleHKernel(1.0, T).scaled(math.sqrt(T))
            l4s.append(j.lp_norm(4, symmetric_jump, w))
            kern = OUDoubleHKernel(1.0, T)
            n11, n21, n10 = kern.contraction_norms(symmetric_jump, w)
            n11s.append(T ** 2 * n11)
            n21s.append(T ** 2 * n21)
        for seq in (l4s, n21s, n11s):
            slope, _ = slope_fit(ts, seq)
            assert -1.2 < slope < -0.8

    def test_n11_two_level_check_raises(self, symmetric_jump):
        # the quadrature oracle's two-level check catches too few nodes for
        # the outer n11 quadrature (the section integral still passes its own)
        with pytest.raises(QuadratureError, match="n11"):
            contraction_norms_by_quadrature(
                OUDoubleHKernel(1.0, 200.0), symmetric_jump, Window(-12.0, 200.0), nodes=3)

    def test_contraction_norm_scaling_cauchy_schwarz(self, symmetric_jump):
        # pins the T-power independently: ||H *11 H||^2 <= (||H||^2)^2 must
        # hold at every horizon (it fails for a wrongly scaled norm)
        for T in (50.0, 400.0):
            w = Window(-12.0, T)
            h = OUDoubleHKernel(1.0, T)
            n11 = h.contraction_norms(symmetric_jump, w)[0]
            l2 = h.l2_norm_sq(symmetric_jump, w)
            assert n11 <= l2 ** 2

    def test_h_norm_monotone_to_two_over_lam(self, symmetric_jump):
        vals = [2 * T * OUDoubleHKernel(1.0, T).l2_norm_sq(symmetric_jump, Window(-12.0, T))
                for T in (50.0, 100.0, 200.0, 400.0, 800.0)]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert vals[-1] == pytest.approx(2.0, rel=0.02)
