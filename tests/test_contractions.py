import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_chaos.contractions import ContractionError, contraction_norms
from poisson_chaos.kernels import BlockKernel, GridKernel
from poisson_chaos.point_process import DiscreteControl, Window

from expansion_oracle import ContractionIndex, LazyTensorKernel, as_grid, product_expand, star

CTRL = DiscreteControl(values=(1.0,), weights=(1.0,))


def sym_grid(values):
    v = np.asarray(values, dtype=float)
    k = v.shape[0]
    return GridKernel(tuple(float(i) for i in range(k + 1)), 0.5 * (v + v.T))


def brute_force_star(values, masses, r, l):
    """Triple/quadruple nested-loop contraction oracle on cell-constant kernels."""
    v = np.asarray(values, dtype=float)
    k = v.shape[0]
    if (r, l) == (1, 1):
        out = np.zeros((k, k))
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    out[a, b] += v[c, a] * v[c, b] * masses[c]
        return out
    if (r, l) == (2, 1):
        out = np.zeros(k)
        for a in range(k):
            for c in range(k):
                out[a] += v[c, a] * v[c, a] * masses[c]
        return out
    if (r, l) == (2, 2):
        return sum(v[a, b] ** 2 * masses[a] * masses[b]
                   for a in range(k) for b in range(k))
    raise ValueError


class TestStar:
    def test_indicator_algebra_unit_mass(self):
        # f = 1_{B^2 off-diagonal}, mu(B) = 1
        f = GridKernel((0.0, 1.0), np.array([[1.0]]))
        w = Window(0.0, 1.0)
        s11 = star(f, f, ContractionIndex(1, 1), CTRL, w)
        assert s11(1.0, 0.5, 1.0, 0.6) == pytest.approx(1.0)
        s21 = star(f, f, ContractionIndex(2, 1), CTRL, w)
        assert s21(1.0, 0.5) == pytest.approx(1.0)
        s22 = star(f, f, ContractionIndex(2, 2), CTRL, w)
        assert s22 == pytest.approx(1.0)

    def test_zero_kernel(self):
        z = GridKernel((0.0, 1.0, 2.0), np.zeros((2, 2)))
        w = Window(0.0, 2.0)
        for (r, l) in [(1, 1), (2, 1), (2, 0)]:
            out = star(z, z, ContractionIndex(r, l), CTRL, w)
            assert np.all(out.values == 0.0)
        assert star(z, z, ContractionIndex(2, 2), CTRL, w) == 0.0

    def test_block_star11_norm(self, unit_jump):
        for n in (1, 3, 20):
            f = BlockKernel(n)
            w = Window(0.0, float(n))
            s11 = star(f, f, ContractionIndex(1, 1), unit_jump, w)
            assert s11.l2_norm_sq(unit_jump, w) == pytest.approx(1.0 / (4 * n), abs=1e-15)

    def test_index_out_of_range(self):
        f = GridKernel((0.0, 1.0), np.array([[1.0]]))
        with pytest.raises(ContractionError):
            star(f, f, ContractionIndex(3, 0), CTRL, Window(0.0, 1.0))
        with pytest.raises(ContractionError):
            ContractionIndex(1, 2)

    @given(st.integers(2, 5).flatmap(
        lambda k: st.lists(st.lists(st.floats(-2, 2), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    @settings(max_examples=40, deadline=None)
    def test_grid_star_matches_brute_force(self, rows):
        f = sym_grid(rows)
        k = f.values.shape[0]
        w = Window(0.0, float(k))
        masses = np.ones(k)
        for (r, l) in [(1, 1), (2, 1)]:
            got = star(f, f, ContractionIndex(r, l), CTRL, w).values
            want = brute_force_star(f.values, masses, r, l)
            if want.ndim == 1:
                want = np.where(np.eye(k, dtype=bool), 0, 0) * 0 + want  # shape only
                assert np.allclose(got, want, atol=1e-12)
            else:
                assert np.allclose(got, want, atol=1e-12)
        got22 = star(f, f, ContractionIndex(2, 2), CTRL, w)
        assert got22 == pytest.approx(brute_force_star(f.values, masses, 2, 2), abs=1e-12)

    @given(st.integers(2, 5).flatmap(
        lambda k: st.lists(st.lists(st.floats(-2, 2), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    @settings(max_examples=30, deadline=None)
    def test_star11_symmetric_and_cauchy_schwarz(self, rows):
        f = sym_grid(rows)
        k = f.values.shape[0]
        w = Window(0.0, float(k))
        s11 = star(f, f, ContractionIndex(1, 1), CTRL, w)
        assert np.allclose(s11.values, s11.values.T, atol=0)
        n11, n21, n10 = contraction_norms(f, CTRL, w)
        l2 = f.l2_norm_sq(CTRL, w)
        assert n11 <= l2 ** 2 + 1e-12
        assert n10 == pytest.approx(n21)

    @given(st.integers(2, 4).flatmap(
        lambda k: st.lists(st.lists(st.floats(-2, 2), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    @settings(max_examples=30, deadline=None)
    def test_star20_is_pointwise_square(self, rows):
        f = sym_grid(rows)
        k = f.values.shape[0]
        w = Window(0.0, float(k))
        s20 = star(f, f, ContractionIndex(2, 0), CTRL, w)
        assert np.allclose(s20.values, f.values ** 2, atol=0)
        # consistency: ||f *_2^0 f||^2 equals the p = 4 integral
        assert s20.l2_norm_sq(CTRL, w) == pytest.approx(f.lp_norm(4, CTRL, w), rel=1e-12)

    def test_lazy_tensor_views(self):
        f = GridKernel((0.0, 1.0, 2.0), np.array([[0.0, 1.0], [1.0, 0.0]]))
        w = Window(0.0, 2.0)
        t00 = star(f, f, ContractionIndex(0, 0), CTRL, w)
        assert isinstance(t00, LazyTensorKernel) and t00.arity == 4
        assert t00(1, 0.5, 1, 1.5, 1, 1.5, 1, 0.5) == pytest.approx(1.0)
        t10 = star(f, f, ContractionIndex(1, 0), CTRL, w)
        assert t10.arity == 3
        assert t10(1, 0.5, 1, 1.5, 1, 1.5) == pytest.approx(1.0)


class TestContractionNorms:
    def test_block_closed_forms(self, unit_jump):
        for n in (1, 4, 50):
            f = BlockKernel(n)
            n11, n21, n10 = contraction_norms(f, unit_jump, Window(0.0, float(n)))
            assert n11 == pytest.approx(1.0 / (4 * n), abs=1e-16)
            assert n21 == pytest.approx(1.0 / (4 * n), abs=1e-16)
            assert n10 == pytest.approx(1.0 / (4 * n), abs=1e-16)

    def test_zero_kernel(self):
        z = GridKernel((0.0, 1.0), np.zeros((1, 1)))
        assert contraction_norms(z, CTRL, Window(0.0, 1.0)) == (0.0, 0.0, 0.0)

    def test_block_grid_agreement(self, unit_jump):
        n = 6
        f = BlockKernel(n)
        w = Window(0.0, float(n))
        got = contraction_norms(as_grid(f), unit_jump, w)
        want = contraction_norms(f, unit_jump, w)
        assert got == pytest.approx(want, rel=1e-14)

    def test_scaled_kernel_degree_four(self, unit_jump):
        f = BlockKernel(3)
        w = Window(0.0, 3.0)
        base = contraction_norms(f, unit_jump, w)
        scaled = contraction_norms(f.scaled(2.5), unit_jump, w)
        assert scaled == pytest.approx(tuple(2.5 ** 4 * v for v in base), rel=1e-13)


class TestProductExpand:
    def test_coefficients_p1q1(self):
        g = GridKernel((0.0, 1.0, 2.0), np.array([1.0, 0.0]))
        exp = product_expand(1, 1, g, g, CTRL, Window(0.0, 2.0))
        by_order = {t.order: t for t in exp.terms}
        assert set(by_order) == {2, 1, 0}
        assert all(t.coefficient == 1.0 for t in exp.terms)
        # constant term = <g, g> = ||g||^2
        assert by_order[0].kernel == pytest.approx(1.0)

    def test_p1q1_orthogonal_supports(self):
        g = GridKernel((0.0, 1.0, 2.0), np.array([1.0, 0.0]))
        h = GridKernel((0.0, 1.0, 2.0), np.array([0.0, 1.0]))
        exp = product_expand(1, 1, g, h, CTRL, Window(0.0, 2.0))
        by_order = {t.order: t for t in exp.terms}
        assert np.all(by_order[1].kernel.values == 0.0)   # g h = 0 pointwise
        assert by_order[0].kernel == 0.0                  # <g, h> = 0

    def test_coefficients_p2q2(self):
        f = as_grid(BlockKernel(2))
        exp = product_expand(2, 2, f, f, CTRL, Window(0.0, 2.0))
        coef = {(t.r, t.l): t.coefficient for t in exp.terms}
        # Coefficients r! C(2,r)^2 C(r,l); the (2,1) entry is 4 (the exact
        # pathwise identity below only closes with 4, not the face-value 2).
        assert coef == {(0, 0): 1.0, (1, 0): 4.0, (1, 1): 4.0,
                        (2, 0): 2.0, (2, 1): 4.0, (2, 2): 2.0}
        orders = sorted(t.order for t in exp.terms)
        assert orders == [0, 1, 2, 2, 3, 4]
        # constant term carries 2 ||f||^2 once its coefficient is applied
        const = [t for t in exp.terms if t.order == 0][0]
        assert const.coefficient * const.kernel == pytest.approx(1.0)  # 2 * 1/2

    def test_terms_with_equal_order_not_merged(self):
        f = as_grid(BlockKernel(2))
        exp = product_expand(2, 2, f, f, CTRL, Window(0.0, 2.0))
        order2 = [t for t in exp.terms if t.order == 2]
        assert len(order2) == 2
        assert {(t.r, t.l) for t in order2} == {(1, 1), (2, 0)}

    def test_unsupported_orders(self):
        f = as_grid(BlockKernel(2))
        with pytest.raises(ContractionError):
            product_expand(3, 2, f, f, CTRL, Window(0.0, 2.0))
