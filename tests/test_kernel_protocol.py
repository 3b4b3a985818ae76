"""The criterion quantity every arity-2 kernel answers for itself,
``contraction_norms``, and the test oracles' grid views ``as_grid``, each
checked against an independent oracle; the fourth-power integrability
certificate of ``clt_criterion``, checked against the exact
int (int f^4)^{1/2} of the test oracles; and the refusal of a kernel with
no pair-sum scheme."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si

from poisson_chaos import contractions
from poisson_chaos.chaos import clt_criterion, eval_I2
from poisson_chaos.contractions import contraction_norms
from poisson_chaos.kernels import (
    BlockKernel, ContractionError, GridKernel, Kernel, OUDoubleHKernel, ou_ghat,
)
from poisson_chaos.ou import DEFAULT_JUMPS
from poisson_chaos.point_process import DiscreteControl, PointPattern, Window

from expansion_oracle import ContractionIndex, as_grid, star
from kernel_oracles import OUInstantKernel, sqrt4_section_integral

SKEWED_JUMPS = DiscreteControl(values=(2.0, -0.5), weights=(0.3, 0.7))


@st.composite
def grids(draw):
    k = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    edges = tuple(np.concatenate([[-1.0], -1.0 + np.cumsum(widths)]))
    rows = draw(st.lists(st.lists(st.floats(-2, 2), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    v = np.asarray(rows, dtype=float)
    return GridKernel(edges, 0.5 * (v + v.T))


def brute_sqrt4(kernel, control):
    """sum_a m_a (sum_b m_b v_ab^4)^{1/2} by an explicit cell loop."""
    e = kernel.edges
    masses = [control.mass(Window(e[a], e[a + 1])) for a in range(len(e) - 1)]
    total = 0.0
    for a, ma in enumerate(masses):
        inner = sum(mb * kernel.values[a, b] ** 4 for b, mb in enumerate(masses))
        total += ma * math.sqrt(inner)
    return total


def ou_sqrt4_by_quad(lam, T, x_lo, control):
    """K2 sqrt(K4) / T^2 int (int Ghat(x, y)^4 dx)^{1/2} dy over [x_lo, T],
    both integrals by scipy quad split at the kinks."""
    def c4(y):
        kinks = sorted({0.0, y} - {x_lo, T})
        kinks = [p for p in kinks if x_lo < p < T]
        val, _ = si.quad(lambda x: ou_ghat(lam, T, np.array([x]), np.array([y]))[0] ** 4,
                         x_lo, T, epsabs=1e-14, epsrel=1e-12, limit=400, points=kinks or None)
        return val

    outer, _ = si.quad(lambda y: math.sqrt(c4(y)), x_lo, T, epsabs=1e-13, epsrel=1e-11,
                       limit=400, points=[0.0] if x_lo < 0.0 else None)
    return control.moment(2) * math.sqrt(control.moment(4)) * outer / T ** 2


class TestSqrt4SectionIntegral:
    @given(grids())
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_cell_loop(self, f):
        w = Window(f.edges[0], f.edges[-1])
        for control in (DEFAULT_JUMPS, SKEWED_JUMPS):
            got = sqrt4_section_integral(f, control, w)
            assert got == pytest.approx(brute_sqrt4(f, control), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n", [1, 4, 50])
    def test_block_matches_its_grid(self, n):
        f = BlockKernel(n)
        w = Window(0.0, float(n))
        for control in (DEFAULT_JUMPS, SKEWED_JUMPS):
            want = sqrt4_section_integral(as_grid(f), control, w)
            assert sqrt4_section_integral(f, control, w) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("base, w", [
        (BlockKernel(3), Window(0.0, 3.0)),
        (GridKernel((0.0, 0.5, 2.0), np.array([[0.3, -1.0], [-1.0, 2.0]])), Window(0.0, 2.0)),
        (OUDoubleHKernel(0.7, 5.0), Window(-12.0, 5.0)),
    ])
    def test_scaled_is_factor_squared_times_base(self, base, w):
        want = sqrt4_section_integral(base, SKEWED_JUMPS, w)
        for c in (2.5, -0.4):
            assert sqrt4_section_integral(base.scaled(c), SKEWED_JUMPS, w) == c ** 2 * want

    @pytest.mark.parametrize("x_lo", [0.0, -12.0])
    @pytest.mark.parametrize("control", [DEFAULT_JUMPS, SKEWED_JUMPS])
    def test_ou_matches_nested_quad(self, x_lo, control):
        lam, T = 1.0, 10.0
        got = sqrt4_section_integral(OUDoubleHKernel(lam, T), control, Window(x_lo, T))
        assert got == pytest.approx(ou_sqrt4_by_quad(lam, T, x_lo, control), rel=1e-8)

    def test_ou_refuses_window_starting_above_zero(self):
        with pytest.raises(ValueError, match="at or below 0"):
            sqrt4_section_integral(OUDoubleHKernel(1.0, 10.0), DEFAULT_JUMPS, Window(1.0, 10.0))


class TestCriterionOnWindowAtZero:
    def test_ou_pair_kernel_on_window_starting_at_zero(self):
        # L = 0: the closed-form norms handle an empty negative half-line
        verdict = clt_criterion([OUDoubleHKernel(1, 10).scaled(2.0)], DEFAULT_JUMPS,
                                Window(0.0, 10.0))
        (report,) = verdict.reports
        assert report.integrable
        assert report.n21 == pytest.approx(
            16.0 * OUDoubleHKernel(1, 10).contraction_norms(DEFAULT_JUMPS, Window(0.0, 10.0))[1],
            rel=1e-15)


def cauchy_schwarz_bound(f, control, w):
    """(mu(W) int f^4)^{1/2}, which bounds int_W (int f^4 dmu)^{1/2} dmu; the
    criterion's integrability check certifies it finite."""
    return math.sqrt(control.mass(w) * f.lp_norm(4, control, w))


# relative rounding slack: the bound is attained by the block kernel, whose
# fourth-power sections are the same at every point of the window
BOUND_SLACK = 1.0 + 1e-12
CONTROLS = st.sampled_from([DEFAULT_JUMPS, SKEWED_JUMPS])


class TestIntegrabilityCertificate:
    @given(grids(), CONTROLS)
    @settings(max_examples=40, deadline=None)
    def test_grid_below_bound(self, f, control):
        w = Window(f.edges[0], f.edges[-1])
        assert sqrt4_section_integral(f, control, w) <= (
            cauchy_schwarz_bound(f, control, w) * BOUND_SLACK)

    @given(st.integers(1, 200), st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 3.0)),
           CONTROLS)
    @settings(max_examples=40, deadline=None)
    def test_block_below_bound(self, n, c, control):
        f = BlockKernel(n).scaled(c)
        w = Window(0.0, float(n))
        assert sqrt4_section_integral(f, control, w) <= (
            cauchy_schwarz_bound(f, control, w) * BOUND_SLACK)

    @given(st.floats(0.2, 5.0), st.floats(0.1, 200.0), st.sampled_from([0.0, -12.0]),
           CONTROLS)
    @settings(max_examples=30, deadline=None)
    def test_ou_below_bound(self, lam, T, x_lo, control):
        f = OUDoubleHKernel(lam, T)
        w = Window(x_lo, T)
        assert sqrt4_section_integral(f, control, w) <= (
            cauchy_schwarz_bound(f, control, w) * BOUND_SLACK)

    @pytest.mark.filterwarnings("error")
    def test_infinite_cell_fails_integrability_alone(self, unit_jump):
        f = GridKernel((0.0, 1.0, 2.0), np.array([[math.inf, 1.0], [1.0, 0.5]]))
        verdict = clt_criterion([f, f], unit_jump, Window(0.0, 2.0))
        assert verdict.reports[0].n11 == verdict.reports[0].n21 == math.inf
        assert [r.integrable for r in verdict.reports] == [False, False]
        assert not verdict.passed
        (check,) = verdict.checks
        assert check.name == "integrability" and not check.passed


class TestGridViewsAndNorms:
    def test_grid_view_of_grid_is_itself(self):
        f = GridKernel((0.0, 1.0, 2.0), np.array([[1.0, 0.5], [0.5, 0.0]]))
        assert as_grid(f) is f

    def test_scaled_grid_view(self):
        f = BlockKernel(3)
        g = as_grid(f.scaled(-2.0))
        assert g.edges == as_grid(f).edges
        assert np.array_equal(g.values, -2.0 * as_grid(f).values)

    def test_star_of_scaled_kernels(self, unit_jump):
        f = GridKernel((0.0, 1.0, 3.0), np.array([[1.0, -0.5], [-0.5, 2.0]]))
        w = Window(0.0, 3.0)
        for r, l in [(1, 1), (2, 1), (2, 0)]:
            base = star(f, f, ContractionIndex(r, l), unit_jump, w)
            got = star(f.scaled(1.5), f.scaled(-2.0), ContractionIndex(r, l), unit_jump, w)
            assert np.allclose(got.values, -3.0 * base.values, rtol=1e-14, atol=0)
        got22 = star(f.scaled(1.5), f, ContractionIndex(2, 2), unit_jump, w)
        assert got22 == pytest.approx(1.5 * star(f, f, ContractionIndex(2, 2), unit_jump, w),
                                      rel=1e-14)

    def test_kernels_without_a_scheme_raise_contraction_error(self, unit_jump):
        assert contractions.ContractionError is ContractionError
        h = OUInstantKernel(1.0, 2.0)
        w = Window(-12.0, 2.0)
        for call in (lambda: h.contraction_norms(unit_jump, w),
                     lambda: as_grid(h),
                     lambda: contraction_norms(h.scaled(2.0), unit_jump, w)):
            with pytest.raises(ContractionError):
                call()
        with pytest.raises(ContractionError):
            star(OUDoubleHKernel(1.0, 2.0), OUDoubleHKernel(1.0, 2.0),
                 ContractionIndex(1, 1), unit_jump, w)


class PointwiseOnlyKernel(Kernel):
    """An arity-2 kernel with a pointwise __call__ and no pair_sum."""

    arity = 2

    def __call__(self, *coords):
        pytest.fail("pair evaluated")

    def symmetrize(self):
        return self


class TestPairSumScheme:
    def test_kernel_without_a_scheme_is_refused_before_evaluation(self, unit_jump):
        # no dense fallback: eval_I2 raises instead of building the pair matrix
        pattern = PointPattern(np.ones(3), np.array([0.1, 0.5, 0.9]), Window(0.0, 1.0))
        for f in (PointwiseOnlyKernel(), PointwiseOnlyKernel().scaled(-2.0)):
            with pytest.raises(NotImplementedError,
                               match="no pair-sum scheme for PointwiseOnlyKernel"):
                eval_I2(f, pattern, unit_jump)
