import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si
from scipy.special import exp1

from poisson_chaos import point_process
from poisson_chaos.point_process import (
    MAX_MEAN_ATOMS, BetaControl, DiscreteControl, ExtendedGammaControl,
    GeneralizedGammaControl, InfiniteMassError, PointPattern, SupportError, Window,
    check_atom_budget, replication_seed, sample_pattern,
)
from poisson_chaos.cli import main

from control_oracle import compensated_count, integrate
from kernel_oracles import pattern_from_csv
from seeds import replication_rng


def per_call_generalized_gamma_sample(ctrl, window, rng):
    """Reference: the table rebuilt on every call and looked up unsorted."""
    grid = ctrl._u_grid()
    dens = np.exp(-ctrl.gamma * grid) * grid ** (-1.0 - ctrl.sigma)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    total = ctrl.jump_mass() * window.length
    n = rng.poisson(total)
    x = rng.uniform(window.x_lo, window.x_hi, size=n)
    return np.interp(rng.uniform(size=n), cdf, grid), x


def extended_gamma_grid(ctrl, window, lo, hi):
    """The v-grid of the extended-Gamma table for jumps in [lo, hi]:
    geometric on [beta(x_lo) lo, min(beta(x_hi) hi, beta(x_lo) lo + 80)],
    plus 33 geometric points on each piece between the kinks of b - a.  The
    sampler's table is the one for [eps, inf)."""
    b_lo, b_hi = float(ctrl.beta(window.x_lo)), float(ctrl.beta(window.x_hi))
    v_lo = b_lo * lo
    v_hi = min(b_hi * hi, v_lo + 80.0)
    edges = sorted([v_lo, v_hi] + [k for k in (b_hi * lo, b_lo * hi) if v_lo < k < v_hi])
    pieces = [np.geomspace(p, q, 33) for p, q in zip(edges[:-1], edges[1:])]
    return np.unique(np.concatenate([np.geomspace(v_lo, v_hi, point_process._TABLE_SIZE)] + pieces))


def extended_gamma_interval(ctrl, v, lo, hi, window):
    """[a(v), b(v)]: window times with beta(x) lo <= v <= beta(x) hi."""
    if ctrl.beta1 == 0.0:
        return (np.where(v <= ctrl.beta0 * hi, window.x_lo, window.x_hi),
                np.where(v >= ctrl.beta0 * lo, window.x_hi, window.x_lo))

    def inverse(s):
        return np.clip(np.maximum((s - ctrl.beta0) / ctrl.beta1, 0.0) ** 2,
                       window.x_lo, window.x_hi)

    return inverse(v / hi), inverse(v / lo)


def extended_gamma_atoms(ctrl, window, rng, v, lo, hi):
    """x uniform on [a(v), b(v)] and u = v / beta(x), from drawn v."""
    a, b = extended_gamma_interval(ctrl, v, lo, hi, window)
    x = np.minimum(a + (b - a) * rng.uniform(size=v.size), window.x_hi)
    return np.clip(v / ctrl.beta(x), lo, hi), x


def per_call_extended_gamma_sample(ctrl, window, rng):
    """Reference: v-table rebuilt on every call, v looked up with
    np.interp."""
    lo, hi = ctrl.eps, np.inf
    grid = extended_gamma_grid(ctrl, window, lo, hi)
    a, b = extended_gamma_interval(ctrl, grid, lo, hi, window)
    dens = np.exp(-grid) / grid * (b - a)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    total = cdf[-1]
    cdf /= total
    n = rng.poisson(total)
    v = np.interp(rng.uniform(size=n), cdf, grid)
    return extended_gamma_atoms(ctrl, window, rng, v, lo, hi)


def argsort_lookup(rng, n, cdf, grid):
    """Reference: np.interp on the sorted uniforms, scattered back into the
    uniforms' own buffer (the lookup the guide table replaced)."""
    v = rng.uniform(size=n)
    order = np.argsort(v)
    v[order] = np.interp(v[order], cdf, grid)
    return v


def argsort_lookup_sample(ctrl, window, rng):
    """Reference: the sampler on the cached table, with the argsort lookup."""
    table, total = point_process._window_constants(ctrl, window)[:2]
    if isinstance(ctrl, GeneralizedGammaControl):
        n = rng.poisson(total)
        x = rng.uniform(window.x_lo, window.x_hi, size=n)
        return argsort_lookup(rng, n, table.cdf, table.grid), x
    v = argsort_lookup(rng, rng.poisson(table.total), table.cdf, table.grid)
    return extended_gamma_atoms(ctrl, window, rng, v, ctrl.eps, np.inf)


@st.composite
def sampling_windows(draw):
    """Windows on x > 0 from empty (n = 0) through a few hundred to several
    thousand atoms."""
    x_lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 400.0)))
    length = draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 30.0),
                            st.floats(30.0, 900.0)))
    return Window(x_lo, x_lo + length)


class TestMeasureOf:
    def test_two_point_marginal_times_interval(self, symmetric_jump):
        # product of finite masses
        assert symmetric_jump.mass(Window(0.0, 4.0)) == pytest.approx(4.0, abs=1e-14)

    def test_empty_region(self, unit_jump):
        with pytest.raises(ValueError):
            Window(1.0, 1.0)
        assert unit_jump.mass(Window(5.0, 5.0 + 1e-12)) == pytest.approx(0.0, abs=1e-11)

    def test_generalized_gamma_against_trapezoid_oracle(self):
        # independent high-resolution trapezoid over u in [eps, U]
        ctrl = GeneralizedGammaControl(sigma=0.5, gamma=1.0, eps=0.1)
        u = np.linspace(0.1, 80.0, 4_000_001)
        dens = np.exp(-u) * u ** -1.5 / np.sqrt(np.pi)
        oracle = np.trapezoid(dens, u)
        got = ctrl.mass(Window(0.0, 1.0))
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_infinite_mass_is_an_error_not_a_number(self):
        ctrl = GeneralizedGammaControl(sigma=0.5, gamma=1.0, eps=0.0)
        with pytest.raises(InfiniteMassError):
            ctrl.mass(Window(0.0, 1.0))
        with pytest.raises(InfiniteMassError):
            ExtendedGammaControl(eps=0.0).mass(Window(0.0, 1.0))

    def test_additive_over_disjoint_regions(self, symmetric_jump):
        full = symmetric_jump.mass(Window(0.0, 7.0))
        parts = sum(symmetric_jump.mass(Window(a, b))
                    for a, b in [(0.0, 2.5), (2.5, 6.0), (6.0, 7.0)])
        assert parts == pytest.approx(full, rel=1e-10)

    def test_extended_gamma_mass_against_2d_oracle(self):
        ctrl = ExtendedGammaControl(beta0=1.0, beta1=1.0, eps=1e-3)
        got = ctrl.mass(Window(0.0, 2.0))
        oracle, _ = si.quad(lambda x: exp1(1e-3 * (1.0 + np.sqrt(x))), 0.0, 2.0,
                            epsabs=1e-12, epsrel=1e-11)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_beta_control_unit_mass_per_time(self):
        ctrl = BetaControl()
        assert ctrl.mass(Window(0.0, 13.0)) == pytest.approx(13.0, rel=1e-12)


class TestMoments:
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
    def test_generalized_gamma_moments_vs_quadrature(self, i):
        from scipy.special import gamma as gfn
        ctrl = GeneralizedGammaControl(sigma=0.3, gamma=2.0, eps=0.05)
        oracle, _ = si.quad(lambda u: u ** i * np.exp(-2.0 * u) * u ** -1.3,
                            0.05, 60.0, epsabs=1e-14, epsrel=1e-12)
        oracle /= gfn(0.7)
        assert ctrl.moment(i) == pytest.approx(oracle, rel=1e-10)

    def test_discrete_moments(self):
        ctrl = DiscreteControl(values=(2.0, -1.0), weights=(0.25, 0.5))
        assert ctrl.moment(1) == pytest.approx(0.0)
        assert ctrl.moment(2) == pytest.approx(1.5)
        assert ctrl.abs_moment(3) == pytest.approx(2.5)
        # eq and hash see only the fields, not the cached arrays
        assert ctrl == DiscreteControl(values=(2, -1), weights=(0.25, 0.5))
        assert hash(ctrl) == hash(DiscreteControl(values=(2, -1), weights=(0.25, 0.5)))

    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)), min_size=1,
                    max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_discrete_moments_built_once_are_the_same_floats(self, jumps):
        ctrl = DiscreteControl(values=tuple(v for v, _ in jumps),
                               weights=tuple(w for _, w in jumps))
        v, w = np.array(ctrl.values), np.array(ctrl.weights)
        for i in range(7):
            assert ctrl.moment(i) == float(np.sum(w * v ** i))
        for _ in range(2):   # the second pass reads the abs_moment cache
            for i in range(9):
                assert ctrl.abs_moment(i) == float(np.sum(w * np.abs(v) ** i))

    def test_extended_gamma_per_time_moments(self):
        ctrl = ExtendedGammaControl(beta0=1.0, beta1=1.0, eps=1e-4)
        x = 4.0
        for i in (1, 2):
            oracle, _ = si.quad(lambda u: u ** (i - 1) * np.exp(-3.0 * u), 1e-4, 50.0,
                                epsabs=1e-14, epsrel=1e-12)
            assert float(ctrl.x_moment(i, x)) == pytest.approx(oracle, rel=1e-9)

    def test_beta_per_time_moments(self):
        ctrl = BetaControl()
        x = 9.0   # c = 3
        for i in (1, 2, 4):
            oracle, _ = si.quad(lambda u: u ** i * 3.0 * (1.0 - u) ** 2.0, 0.0, 1.0,
                                epsabs=1e-14, epsrel=1e-12)
            assert float(ctrl.x_moment(i, x)) == pytest.approx(oracle, rel=1e-10)

    def test_neglected_second_moment_reported(self):
        ctrl = GeneralizedGammaControl(sigma=0.5, gamma=1.0, eps=0.1)
        oracle, _ = si.quad(lambda u: u ** 2 * np.exp(-u) * u ** -1.5, 0.0, 0.1,
                            epsabs=1e-15, epsrel=1e-12)
        from scipy.special import gamma as gfn
        assert ctrl.neglected_second_moment() == pytest.approx(oracle / gfn(0.5), rel=1e-8)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("sigma, gamma", [(0.5, 1.0), (0.1, 3.0), (0.9, 0.25)])
    def test_generalized_gamma_neglected_second_moment_at_small_eps(self, eps, sigma, gamma):
        # int_0^eps u^{1 - sigma} e^{-gamma u} du / Gamma(1 - sigma) at 40
        # digits; the difference full - moment(2) is 3% off at eps = 1e-10
        import mpmath
        ctrl = GeneralizedGammaControl(sigma=sigma, gamma=gamma, eps=eps)
        with mpmath.workdps(40):
            s, g = mpmath.mpf(sigma), mpmath.mpf(gamma)
            oracle = float(mpmath.quad(lambda u: u ** (1 - s) * mpmath.exp(-g * u),
                                       [0, mpmath.mpf(eps)]) / mpmath.gamma(1 - s))
        assert ctrl.neglected_second_moment() == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.1])
    @pytest.mark.parametrize("beta0", [0.5, 1.0, 2.0])
    def test_extended_gamma_neglected_second_moment(self, eps, beta0):
        # int_0^eps u^2 e^{-beta0 u} / u du, the mass dropped at x = 0
        ctrl = ExtendedGammaControl(beta0=beta0, beta1=1.0, eps=eps)
        oracle, _ = si.quad(lambda u: u * np.exp(-beta0 * u), 0.0, eps,
                            epsabs=0.0, epsrel=1e-13)
        assert ctrl.neglected_second_moment() == pytest.approx(oracle, rel=1e-12)

    def test_extended_gamma_neglected_mass_bounds_every_time(self):
        ctrl = ExtendedGammaControl(beta0=1.0, beta1=1.0, eps=1e-3)
        assert ctrl.neglected_second_moment() == pytest.approx(4.9967e-7, rel=1e-4)
        for x in (0.5, 4.0, 100.0):
            b = float(ctrl.beta(x))
            dropped, _ = si.quad(lambda u: u * np.exp(-b * u), 0.0, ctrl.eps,
                                 epsabs=0.0, epsrel=1e-13)
            assert dropped < ctrl.neglected_second_moment()


class TestControlQuadratureOracle:
    """The nested-quadrature integration of the test oracles against the
    families' own masses and moments."""

    def test_generalized_gamma_second_moment(self):
        ctrl = GeneralizedGammaControl(sigma=0.5, gamma=1.0, eps=1e-3)
        w = Window(0.0, 2.0)
        got = integrate(ctrl, lambda u, x: u ** 2, w)
        assert got == pytest.approx(ctrl.moment(2) * w.length, rel=1e-8)

    def test_extended_gamma_mass(self):
        ctrl = ExtendedGammaControl(beta0=1.0, beta1=1.0, eps=1e-2)
        w = Window(0.0, 3.0)
        assert integrate(ctrl, lambda u, x: np.ones_like(u), w) == pytest.approx(
            ctrl.mass(w), rel=1e-7)

    def test_homogeneous_mass_is_jump_mass_times_length(self):
        w = Window(-1.5, 2.25)
        ctrl = DiscreteControl(values=(1.0, -1.0, 0.3), weights=(0.1, 0.7, 0.2000001))
        assert ctrl.jump_mass() == float(np.sum(ctrl.weights))   # bit for bit
        for c in (ctrl, GeneralizedGammaControl(sigma=0.5, gamma=1.0, eps=1e-3)):
            assert c.mass(w) == c.jump_mass() * w.length

    def test_beta_mass_and_discrete_moment(self, symmetric_jump):
        w = Window(1.0, 4.0)
        assert integrate(BetaControl(), lambda u, x: np.ones_like(u), w) == pytest.approx(
            w.length, rel=1e-9)
        assert integrate(symmetric_jump, lambda u, x: u ** 2 * x, w) == pytest.approx(
            7.5, rel=1e-12)


DISCRETE_LAWS = [DiscreteControl(values=(1.0, -1.0), weights=(0.5, 0.5)),
                 DiscreteControl(values=(1.0,), weights=(1.0,)),
                 DiscreteControl(values=(0.3, 1.0, 2.5, -1.0), weights=(0.1, 0.7, 0.15, 0.05))]


class TestSampling:
    def test_zero_mass_gives_empty_pattern(self, unit_jump):
        pat = sample_pattern(unit_jump, Window(0.0, 1e-12), seed=1)
        assert len(pat) == 0

    def test_count_moments_poisson_law(self, symmetric_jump):
        # mass 4: mean within 0.05, variance within 0.1 over 1e5 replications
        window = Window(0.0, 4.0)
        rng = replication_rng(77, 0)
        counts = np.array([len(symmetric_jump.sample(window, rng)[0]) for _ in range(100_000)])
        assert counts.mean() == pytest.approx(4.0, abs=0.05)
        assert counts.var(ddof=1) == pytest.approx(4.0, abs=0.1)

    def test_disjoint_regions_uncorrelated(self, unit_jump):
        rng = replication_rng(78, 0)
        window = Window(0.0, 6.0)
        b, c = Window(0.0, 2.0), Window(3.0, 6.0)
        nb, nc = [], []
        for _ in range(40_000):
            u, x = unit_jump.sample(window, rng)
            nb.append(np.count_nonzero((x >= 0.0) & (x < 2.0)))
            nc.append(np.count_nonzero((x >= 3.0) & (x <= 6.0)))
        nb, nc = np.array(nb), np.array(nc)
        corr = np.corrcoef(nb, nc)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(nb.size)

    @pytest.mark.parametrize("jumps, window", [
        (jumps, window) for window in (Window(0.0, 400.0), Window(0.0, 1e-12))
        for jumps in DISCRETE_LAWS
    ], ids=["pm1", "single", "skewed", "pm1-empty", "single-empty", "skewed-empty"])
    def test_discrete_jumps_are_drawn_as_rng_choice(self, jumps, window):
        # the inverse-CDF draw on the prebuilt CDF is Generator.choice draw
        # for draw, and leaves the generator in the same state; a one-point
        # law draws no marks, so it leaves the generator where the times end.
        # On the window of mean 1e-12 every count here is 0.
        vals, w = np.array(jumps.values), np.array(jumps.weights)
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            u, x = jumps.sample(window, rng)
            n = ref.poisson(w.sum() * window.length)
            assert u.shape == x.shape == (n,) and u.dtype == x.dtype == np.float64
            assert np.array_equal(x, ref.uniform(window.x_lo, window.x_hi, size=n))
            if len(vals) == 1:
                assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(u, ref.choice(vals, size=n, p=w / w.sum()))
            if len(vals) > 1:
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_bit_reproducible_for_fixed_seed(self, symmetric_jump):
        w = Window(0.0, 50.0)
        p1 = sample_pattern(symmetric_jump, w, seed=12345)
        p2 = sample_pattern(symmetric_jump, w, seed=12345)
        assert np.array_equal(p1.u, p2.u) and np.array_equal(p1.x, p2.x)

    def test_replication_seeds_independent_of_order(self):
        forward = [replication_seed(9, i) for i in range(5)]
        backward = [replication_seed(9, i) for i in reversed(range(5))]
        assert forward == backward[::-1]
        assert forward[3] != forward[4]

    def test_beta_control_conditional_law(self):
        # mean jump at x with c(x)=3 is 1/(c+1) = 0.25
        ctrl = BetaControl()
        rng = replication_rng(80, 0)
        u, x = ctrl.sample(Window(8.9, 9.1), rng)
        for _ in range(200):
            uu, xx = ctrl.sample(Window(8.9, 9.1), rng)
            u = np.concatenate([u, uu])
        assert u.mean() == pytest.approx(0.25, abs=0.05)

    def test_extended_gamma_rejection_matches_campbell_mean(self):
        # E sum u_i = int int u mu = int 1/beta(x)^2 ... per-time first moment
        ctrl = ExtendedGammaControl(beta0=1.0, beta1=1.0, eps=1e-4)
        w = Window(0.0, 5.0)
        oracle, _ = si.quad(lambda x: float(ctrl.x_moment(1, x)), 0.0, 5.0)
        rng = replication_rng(81, 0)
        tot = [ctrl.sample(w, rng)[0].sum() for _ in range(4000)]
        tot = np.array(tot)
        assert tot.mean() == pytest.approx(oracle, abs=4 * tot.std(ddof=1) / np.sqrt(tot.size))


class TestCachedSamplers:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1.0, 1.0, 1e-4), (0.5, 0.0, 1e-4), (2.0, 3.0, 1e-2)]),
           st.data(), st.integers(0, 2 ** 63))
    def test_extended_gamma_matches_per_call_rebuild(self, params, data, seed):
        ctrl = ExtendedGammaControl(*params)
        window = data.draw(sampling_windows())
        got = ctrl.sample(window, np.random.default_rng(seed))
        ref = per_call_extended_gamma_sample(ctrl, window, np.random.default_rng(seed))
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(0.5, 1.0, 0.1), (0.3, 3.0, 1e-3), (0.9, 0.5, 1e-2)]),
           st.data(), st.integers(0, 2 ** 63))
    def test_generalized_gamma_matches_per_call_rebuild(self, params, data, seed):
        ctrl = GeneralizedGammaControl(*params)
        window = data.draw(sampling_windows())
        got = ctrl.sample(window, np.random.default_rng(seed))
        ref = per_call_generalized_gamma_sample(ctrl, window, np.random.default_rng(seed))
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_extended_gamma_jumps_computed_in_place_are_v_over_beta(self, seed):
        # the sampler divides v by beta(x) in place, drawing with rng.random;
        # replaying the draws with rng.uniform and beta() gives the same bits
        ctrl, window = ExtendedGammaControl(), Window(0.0, 1e4 + 1.0)
        table = point_process._window_constants(ctrl, window)[0]
        rng = np.random.default_rng(seed)
        u, x = ctrl.sample(window, rng)
        replay = np.random.default_rng(seed)
        v = table.lookup(replay.uniform(size=replay.poisson(table.total)))
        replay.uniform(size=v.size)
        assert u.size > 40_000
        assert np.array_equal(u, np.maximum(v / ctrl.beta(x), ctrl.eps))
        assert rng.bit_generator.state == replay.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1.0, 1.0, 1e-4), (0.5, 0.0, 1e-4), (2.0, 3.0, 1e-2),
                            (1.0, 1e-9, 1e-4)]),
           st.data())
    def test_full_span_point_is_where_the_interval_end_reaches_x_hi(self, params, data):
        # the sampler computes b(v) only below this point: b is x_hi at it
        # and below x_hi one float down
        ctrl = ExtendedGammaControl(*params)
        window = data.draw(sampling_windows())
        point = point_process._window_constants(ctrl, window)[2]
        below = np.nextafter(point, -np.inf)
        assert ctrl._x_end(np.array([point]), window)[0] == window.x_hi
        assert ctrl._x_end(np.array([below]), window)[0] < window.x_hi

    def test_sizes_cover_empty_small_and_large_patterns(self):
        # the windows above reach n = 0, 0 < n < 4096 (table size) and n >= 4096
        ctrl = ExtendedGammaControl()
        sizes = [len(ctrl.sample(Window(1.0, 1.0 + length), np.random.default_rng(3))[0])
                 for length in (1e-9, 30.0, 900.0)]
        assert sizes[0] == 0 and 0 < sizes[1] < 4096 <= sizes[2]

    def test_sampling_runs_no_quadrature(self, monkeypatch):
        # the window mass mu(window) is a quad; the table and the count's
        # mean are built without it
        monkeypatch.setattr(si, "quad", lambda *a, **k: pytest.fail("quad ran"))
        point_process._window_constants.cache_clear()
        rng = np.random.default_rng(4)
        for _ in range(50):
            ExtendedGammaControl(eps=1e-4).sample(Window(0.0, 50.0), rng)

    def test_window_reaching_below_zero_is_refused(self):
        with pytest.raises(ValueError, match="supported on x > 0"):
            ExtendedGammaControl().sample(Window(-1.0, 5.0), np.random.default_rng(0))


class PoissonMeanRecorder:
    """A Generator stand-in that records the mean of every Poisson draw."""

    def __init__(self, seed):
        self.rng, self.means = np.random.default_rng(seed), []

    def poisson(self, lam, *args, **kwargs):
        self.means.append(lam)
        return self.rng.poisson(lam, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestAtomBudget:
    @pytest.mark.parametrize("control", [
        DiscreteControl((1.0, -1.0), (0.5, 1.5)), GeneralizedGammaControl(0.5, 1.0, 0.1),
        ExtendedGammaControl(), BetaControl()], ids=lambda c: type(c).__name__)
    def test_mean_atoms_is_the_samplers_poisson_mean(self, control):
        window = Window(2.0, 40.0)
        rng = PoissonMeanRecorder(5)
        control.sample(window, rng)
        assert rng.means == [control.mean_atoms(window)]

    @pytest.mark.parametrize("control", [
        DiscreteControl((1.0, -1.0), (0.5, 1.5)), GeneralizedGammaControl(0.5, 1.0, 0.1),
        BetaControl()], ids=lambda c: type(c).__name__)
    def test_mean_atoms_is_the_window_mass(self, control):
        # every sampler but the extended-Gamma one (its table's mass) draws
        # a Poisson count of mean mu(window)
        window = Window(2.0, 40.0)
        assert control.mean_atoms(window) == control.mass(window)

    def test_beta_window_below_zero_is_refused_by_the_budget(self):
        with pytest.raises(ValueError, match="Beta control is supported on x > 0"):
            check_atom_budget(BetaControl(), Window(-1.0, 5.0))

    def test_budget_bound_is_inclusive(self):
        control = DiscreteControl((1.0,), (1.0,))
        check_atom_budget(control, Window(0.0, MAX_MEAN_ATOMS))
        over = Window(0.0, np.nextafter(MAX_MEAN_ATOMS, np.inf))
        with pytest.raises(ValueError, match="over the budget of 1e\\+07 per replication"):
            check_atom_budget(control, over)

    def test_extended_gamma_budget_runs_no_quadrature(self, monkeypatch):
        # the mean is the sampler's table mass, not the quad of mu(window)
        monkeypatch.setattr(si, "quad", lambda *a, **k: pytest.fail("quad ran"))
        point_process._window_constants.cache_clear()
        with pytest.raises(ValueError, match="atoms on average"):
            check_atom_budget(ExtendedGammaControl(), Window(0.0, 1e15))


class TestGuideTableLookup:
    CASES = [
        (ExtendedGammaControl(), Window(0.0, 50.0)),
        (ExtendedGammaControl(), Window(400.0, 500.0)),          # flat tail: crowded buckets
        (ExtendedGammaControl(2.0, 3.0, 1e-2), Window(1.0, 9.0)),
        (GeneralizedGammaControl(0.5, 1.0, 0.1), Window(0.0, 5.0)),
        (GeneralizedGammaControl(0.3, 3.0, 1e-3), Window(2.0, 4.0)),
    ]

    @pytest.mark.parametrize("ctrl, window", CASES)
    def test_breakpoints_and_neighbours_match_interp(self, ctrl, window):
        table = point_process._window_constants(ctrl, window)[0]
        cdf = table.cdf
        v = np.concatenate([cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)])
        v = v[(v >= 0.0) & (v < 1.0)]
        got = table.lookup(v)
        assert np.array_equal(got.view(np.int64), np.interp(v, cdf, table.grid).view(np.int64))

    def test_searched_tail_is_exercised(self):
        # the v-table's CDF is flat at both ends (b - a vanishes at the low
        # end, e^{-v} at the high end), so buckets at both ends are crowded:
        # their guide entry is -1, every other one the segment of k / B
        table = point_process._window_constants(ExtendedGammaControl(), Window(400.0, 500.0))[0]
        crowded = table.guide < 0
        assert crowded[0] and crowded[-1]
        assert 0 < np.count_nonzero(crowded) < 0.02 * crowded.size
        assert np.unique(table.cdf).size < table.cdf.size   # flat segments present
        starts = np.arange(crowded.size) / crowded.size
        assert np.array_equal(table.guide[~crowded],
                              np.searchsorted(table.cdf, starts[~crowded], side="right") - 1)
        buckets = np.flatnonzero(crowded)
        v = (np.repeat(buckets, 50) + np.random.default_rng(6).uniform(size=50 * buckets.size))
        v /= crowded.size
        got = table.lookup(v)
        assert np.array_equal(got.view(np.int64), np.interp(v, table.cdf, table.grid).view(np.int64))

    def test_generalized_gamma_sizes_cover_empty_small_and_large_patterns(self):
        # sampling_windows reaches n = 0, 0 < n < 4096 and n >= 4096 here too
        ctrl = GeneralizedGammaControl(0.3, 3.0, 1e-3)
        sizes = [len(ctrl.sample(Window(1.0, 1.0 + length), np.random.default_rng(3))[0])
                 for length in (1e-9, 30.0, 900.0)]
        assert sizes[0] == 0 and 0 < sizes[1] < 4096 <= sizes[2]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1.0, 1.0, 1e-4), (0.5, 0.0, 1e-4), (2.0, 3.0, 1e-2)]),
           st.data(), st.integers(0, 2 ** 63))
    def test_extended_gamma_matches_argsort_lookup(self, params, data, seed):
        ctrl = ExtendedGammaControl(*params)
        window = data.draw(sampling_windows())
        got = ctrl.sample(window, np.random.default_rng(seed))
        ref = argsort_lookup_sample(ctrl, window, np.random.default_rng(seed))
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(0.5, 1.0, 0.1), (0.3, 3.0, 1e-3), (0.9, 0.5, 1e-2)]),
           st.data(), st.integers(0, 2 ** 63))
    def test_generalized_gamma_matches_argsort_lookup(self, params, data, seed):
        ctrl = GeneralizedGammaControl(*params)
        window = data.draw(sampling_windows())
        got = ctrl.sample(window, np.random.default_rng(seed))
        ref = argsort_lookup_sample(ctrl, window, np.random.default_rng(seed))
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


class TestExtendedGammaLaw:
    """The rejection-free extended-Gamma sampler against oracles that do not
    use its table: per-time masses from E1, Poisson counts, the mass quad."""

    CASES = [
        (ExtendedGammaControl(1.0, 1.0, 1e-4), Window(0.0, 50.0), 300),
        (ExtendedGammaControl(2.0, 3.0, 1e-2), Window(1.0, 9.0), 3000),
        (ExtendedGammaControl(0.5, 0.0, 1e-4), Window(2.0, 12.0), 300),
    ]

    @staticmethod
    def _pool(ctrl, window, reps, seed):
        rng = replication_rng(seed, 0)
        draws = [ctrl.sample(window, rng) for _ in range(reps)]
        counts = np.array([len(d[0]) for d in draws])
        return np.concatenate([d[0] for d in draws]), np.concatenate([d[1] for d in draws]), counts

    @pytest.mark.parametrize("ctrl, window, reps", CASES)
    def test_counts_in_x_bins_match_per_time_masses(self, ctrl, window, reps):
        _, x, _ = self._pool(ctrl, window, reps, 83)
        edges = np.linspace(window.x_lo, window.x_hi, 11)
        got = np.histogram(x, edges)[0]
        for count, a, b in zip(got, edges[:-1], edges[1:]):
            m, _ = si.quad(lambda t: float(ctrl.x_mass(t)), a, b,
                           epsabs=1e-12, epsrel=1e-10)
            assert abs(count - reps * m) <= 4 * np.sqrt(reps * m), (a, b, count, reps * m)

    @pytest.mark.parametrize("ctrl, window, reps, slab", [
        (*CASES[0], (20.0, 22.0)), (*CASES[1], (3.0, 5.0)), (*CASES[2], (4.0, 6.0))])
    def test_jumps_in_a_slab_follow_the_conditional_law(self, ctrl, window, reps, slab):
        # F(u) = int_slab [E1(beta eps) - E1(beta u)] dx / int_slab E1(beta eps) dx
        u, x, _ = self._pool(ctrl, window, 4 * reps, 84)
        u = np.sort(u[(x >= slab[0]) & (x <= slab[1])])
        t, w = np.polynomial.legendre.leggauss(24)
        beta = ctrl.beta(0.5 * (slab[0] + slab[1]) + 0.5 * (slab[1] - slab[0]) * t)
        below = (exp1(np.outer(beta, np.full(u.size, ctrl.eps))) - exp1(np.outer(beta, u)))
        cdf = w @ below / (w @ exp1(beta * ctrl.eps))
        n = u.size
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert n > 1000
        assert ks <= 2.4 / np.sqrt(n), (ks, n)   # P(K > 2.4) ~ 2e-5

    @pytest.mark.parametrize("ctrl, window, reps", CASES)
    def test_mean_count_is_the_mass(self, ctrl, window, reps):
        _, _, counts = self._pool(ctrl, window, reps, 85)
        mass = ctrl.mass(window)
        assert abs(counts.mean() - mass) <= 4 * np.sqrt(mass / reps)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1.0, 1.0, 1e-4), (0.5, 0.0, 1e-4), (2.0, 3.0, 1e-2)]), st.data())
    def test_table_total_is_the_window_mass(self, params, data):
        ctrl = ExtendedGammaControl(*params)
        window = data.draw(sampling_windows())
        table = point_process._window_constants(ctrl, window)[0]
        assert table.total == pytest.approx(ctrl.mass(window), rel=1e-5, abs=0.0)


class TestCompensatedCount:
    def test_empty_pattern(self, unit_jump):
        pat = PointPattern(np.empty(0), np.empty(0), Window(0.0, 2.0))
        assert compensated_count(pat, Window(0.0, 1.0), unit_jump) == pytest.approx(-1.0)

    def test_count_minus_mass(self, unit_jump):
        pat = PointPattern(np.ones(3), np.array([0.1, 0.2, 0.9]), Window(0.0, 2.0))
        assert compensated_count(pat, Window(0.0, 1.0), unit_jump) == pytest.approx(2.0)

    def test_region_outside_window_rejected(self, unit_jump):
        pat = PointPattern(np.empty(0), np.empty(0), Window(0.0, 2.0))
        with pytest.raises(SupportError):
            compensated_count(pat, Window(1.0, 3.0), unit_jump)

    def test_centered_moments(self, unit_jump):
        # mean 0, variance m, third central moment m within 4 se
        region = Window(0.0, 3.0)
        rng = replication_rng(82, 0)
        vals = []
        for _ in range(100_000):
            u, x = unit_jump.sample(region, rng)
            vals.append(len(u) - 3.0)
        vals = np.array(vals)
        r = vals.size
        assert abs(vals.mean()) < 4 * np.sqrt(3.0 / r)
        assert vals.var(ddof=1) == pytest.approx(3.0, abs=4 * np.sqrt(52.0 / r))
        m3 = np.mean(vals ** 3)
        # var of the m3 estimator ~ (mu6 - mu3^2)/r for Poisson(3)
        mu6 = 3.0 + 25 * 9.0 + 15 * 27.0
        assert m3 == pytest.approx(3.0, abs=4 * np.sqrt(mu6 / r))


def test_pattern_csv_roundtrip(tmp_path, symmetric_jump):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[control]\ntype = discrete\nvalues = 1.0,-1.0\nweights = 0.5,0.5\n",
                   encoding="utf-8")
    rc = main(["sample", "--config", str(cfg), "--x-hi", "20", "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    pat = sample_pattern(symmetric_jump, Window(0.0, 20.0), seed=5)
    u, x = pattern_from_csv(tmp_path / "pattern.csv")
    assert len(pat) > 0 and np.array_equal(u, pat.u) and np.array_equal(x, pat.x)


def test_atom_outside_window_rejected():
    with pytest.raises(ValueError):
        PointPattern(np.array([1.0]), np.array([5.0]), Window(0.0, 2.0))


def test_nan_atom_rejected():
    with pytest.raises(ValueError, match="atom outside window"):
        PointPattern(np.ones(3), np.array([0.5, np.nan, 1.0]), Window(0.0, 2.0))
