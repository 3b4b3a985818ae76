import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_chaos import chaos
from poisson_chaos.chaos import (
    check_limit, clt_criterion, combine_fourth_moment, eval_I1, eval_I2,
    fourth_moment_chaos, rep_block,
)
from poisson_chaos.cli import main as cli_main
from poisson_chaos.harness import tail_mass
from poisson_chaos.kernels import (
    _SCAN_SPAN, DENSE_PAIR_BYTES_MAX, BlockKernel, GridKernel, Kernel, OUDoubleHKernel,
    OUSingleKernel, _distinct_pair_sum,
)
from poisson_chaos.point_process import (
    DiscreteControl, PointPattern, SupportError, Window, sample_pattern,
)
from poisson_chaos.quadrature import _dot

from chaos_oracle import (
    charlier_block_oracle, charlier_polynomials, chaos_value, levy_khinchine_cf,
    single_clt_check,
)
from expansion_oracle import product_expand
from fits import slope_fit
from seeds import replication_rng

CTRL = DiscreteControl(values=(1.0,), weights=(1.0,))


def pattern_of(x_values, window):
    x = np.asarray(x_values, dtype=float)
    return PointPattern(np.ones_like(x), x, window, 0)


class TestEvalI1:
    def test_indicator_is_centered_count(self):
        g = GridKernel((0.0, 1.0), np.array([1.0]))
        w = Window(0.0, 1.0)
        pat = pattern_of([0.2, 0.5, 0.9], w)
        assert eval_I1(g, pat, CTRL) == pytest.approx(2.0)

    def test_empty_pattern_minus_compensator(self):
        g = GridKernel((0.0, 2.0), np.array([1.5]))
        w = Window(0.0, 2.0)
        pat = pattern_of([], w)
        assert eval_I1(g, pat, CTRL) == pytest.approx(-3.0)

    def test_support_leak_rejected(self):
        g = GridKernel((0.0, 3.0), np.array([1.0]))
        with pytest.raises(SupportError):
            eval_I1(g, pattern_of([0.5], Window(0.0, 1.0)), CTRL)

    def test_mc_variance_is_isometry(self):
        g = GridKernel((0.0, 1.0, 2.0, 3.0), np.array([1.0, -2.0, 0.5]))
        w = Window(0.0, 3.0)
        norm_sq = g.l2_norm_sq(CTRL, w)
        rng = replication_rng(11, 0)
        vals = np.array([eval_I1(g, sample_pattern(CTRL, w, rng), CTRL)
                         for _ in range(40_000)])
        se = vals.var(ddof=1) * math.sqrt(2.0 / vals.size) * 1.5
        assert vals.var(ddof=1) == pytest.approx(norm_sq, abs=3 * se)
        assert abs(vals.mean()) < 4 * math.sqrt(norm_sq / vals.size)


class TestEvalI2:
    def test_product_of_disjoint_counts(self):
        # sym(1_{B1 x B2}) integrates to N^(B1) N^(B2) exactly per path
        f = GridKernel((0.0, 1.0, 2.0), np.array([[0.0, 0.5], [0.5, 0.0]]))
        w = Window(0.0, 2.0)
        for xs in ([0.2, 0.4, 1.5], [0.3], [], [1.1, 1.9, 0.7, 0.2]):
            pat = pattern_of(xs, w)
            n1 = np.count_nonzero(pat.x < 1.0) - 1.0
            n2 = np.count_nonzero(pat.x >= 1.0) - 1.0
            assert eval_I2(f, pat, CTRL) == pytest.approx(n1 * n2, abs=1e-12)

    def test_empty_pattern_compensator_only(self):
        f = GridKernel((0.0, 1.0), np.array([[1.0]]))
        w = Window(0.0, 1.0)
        assert eval_I2(f, pattern_of([], w), CTRL) == pytest.approx(1.0)

    def test_block_kernel_equals_charlier_closed_form(self, unit_jump):
        n = 7
        f = BlockKernel(n)
        w = Window(0.0, float(n))
        rng = replication_rng(12, 0)
        for _ in range(200):
            pat = sample_pattern(unit_jump, w, rng)
            direct = eval_I2(f, pat, unit_jump)
            oracle = charlier_block_oracle(pat, n)
            assert direct == pytest.approx(oracle, abs=1e-12)

    def test_symmetrization_invariance_exact(self):
        vals = np.array([[0.3, 2.0, -1.0], [0.0, 1.0, 0.5], [1.0, -0.5, 0.2]])
        g = GridKernel((0.0, 1.0, 2.0, 3.0), vals)
        w = Window(0.0, 3.0)
        rng = replication_rng(13, 0)
        for _ in range(50):
            pat = sample_pattern(CTRL, w, rng)
            assert eval_I2(g, pat, CTRL) == pytest.approx(
                eval_I2(g.symmetrize(), pat, CTRL), abs=1e-12)

    def test_mc_variance_and_orthogonality(self):
        f = BlockKernel(4)
        g = GridKernel((0.0, 1.0, 2.0, 3.0, 4.0), np.array([1.0, -1.0, 0.5, 0.0]))
        w = Window(0.0, 4.0)
        rng = replication_rng(14, 0)
        i1s, i2s = [], []
        for _ in range(100_000):
            pat = sample_pattern(CTRL, w, rng)
            i1s.append(eval_I1(g, pat, CTRL))
            i2s.append(eval_I2(f, pat, CTRL))
        i1s, i2s = np.array(i1s), np.array(i2s)
        r = i1s.size
        # isometry: Var I2 = 2 ||f||^2 within 4 se; mean 0 within 4 se
        target = 2.0 * f.l2_norm_sq(CTRL, w)
        se_var = i2s.var(ddof=1) * math.sqrt(2.0 / r) * 2.0  # heavy-tail slack
        assert i2s.var(ddof=1) == pytest.approx(target, abs=4 * se_var)
        assert abs(i2s.mean()) < 4 * i2s.std(ddof=1) / math.sqrt(r)
        # orthogonality of chaoses: empirical covariance compatible with 0
        cov = np.mean(i1s * i2s)
        se_cov = np.std(i1s * i2s, ddof=1) / math.sqrt(r)
        assert abs(cov) < 4 * se_cov


def explicit_pair_sum(f, u, x):
    """sum_{i != j} f(z_i, z_j), one kernel call per ordered pair."""
    return sum(float(f(u[i], x[i], u[j], x[j]))
               for i in range(len(x)) for j in range(len(x)) if i != j)


def recursion_pair_sum(f, u, x):
    """OUDoubleHKernel.pair_sum as a per-atom recursion over sorted atoms,
    R_k = e^{-lam (x_k - x_{k-1})} (R_{k-1} + u_{k-1}), in Python floats."""
    lam, T = f.lam, f.T
    inside = x <= T
    u, x = u[inside], x[inside]
    if x.size < 2:
        return 0.0
    order = np.argsort(x)
    u, x = u[order], x[order]
    decay = np.exp(-lam * np.diff(x)).tolist()
    weights = u.tolist()
    recursion = [0.0] * len(weights)
    acc = 0.0
    for k in range(1, len(weights)):
        acc = (acc + weights[k - 1]) * decay[k - 1]
        recursion[k] = acc
    first_pos = int(np.searchsorted(x, 0.0, side="right"))
    near = 2.0 * _dot(u[first_pos:], recursion[first_pos:])
    neg = _distinct_pair_sum(u[:first_pos] * np.exp(lam * x[:first_pos]))
    tail = _distinct_pair_sum(u * np.exp(lam * (x - T)))
    return float(near + neg - tail) / T


@st.composite
def ou_pair_atoms(draw, u_max=2.0):
    """An OU pair kernel, possibly scaled by a negative factor, and atoms
    on [-12/lam, T + 1] with ties and atoms at exactly 0, T and -12/lam,
    weighted by u in [-u_max, u_max].  Horizons reach lam T = 4000, so the
    pair-sum scan crosses several chunks, and some draws tie atoms on the
    first chunk's edge with more just past it."""
    lam = draw(st.sampled_from([0.5, 1.0, 2.0]))
    T = draw(st.floats(0.5, 2000.0))
    f = OUDoubleHKernel(lam, T)
    factor = draw(st.one_of(st.just(1.0), st.floats(-3.0, 3.0)))
    if factor != 1.0:
        f = f.scaled(factor)
    lo = -12.0 / lam
    spots = st.one_of(st.floats(lo, T + 1.0), st.sampled_from([0.0, T, lo]))
    x = draw(st.lists(spots, max_size=14))
    edge = lo + _SCAN_SPAN / lam
    if edge < T and draw(st.booleans()):
        # the scan's first chunk then starts at lo and ends at edge: ties on
        # the edge, and atoms just past it, whose R is mostly the carry
        x += [lo] + [edge] * draw(st.integers(1, 3)) + [np.nextafter(edge, np.inf)]
        x += draw(st.lists(st.floats(edge, edge + 2.0 / lam), max_size=3))
    x = x + x[:draw(st.integers(0, len(x)))]
    u = draw(st.lists(st.floats(-u_max, u_max), min_size=len(x), max_size=len(x)))
    return f, np.array(u, dtype=float), np.array(x, dtype=float)


class TestPairSum:
    @settings(max_examples=80, deadline=None)
    @given(ou_pair_atoms())
    def test_ou_recursion_matches_explicit_sum(self, case):
        f, u, x = case
        dense = explicit_pair_sum(f, u, x)
        assert abs(f.pair_sum(u, x) - dense) <= 1e-11 * max(1.0, abs(dense))

    @settings(max_examples=200, deadline=None)
    @given(ou_pair_atoms(u_max=1e3))
    def test_ou_scan_matches_per_atom_recursion(self, case):
        # both share the rank-one terms, so this isolates the chunked scan.
        # The sum is quadratic in u: weights up to 500 times those of the
        # dense test scale its floor of 1 to 500^2.
        f, u, x = case
        base = getattr(f, "base", f)
        ref = getattr(f, "factor", 1.0) * recursion_pair_sum(base, u, x)
        assert abs(f.pair_sum(u, x) - ref) <= 1e-11 * max(500.0 ** 2, abs(ref))

    def test_rank_one_terms_with_one_dominant_weight(self):
        # one dominant weight: the rounding error of (sum a)^2 - sum a^2
        # scales with (sum |a|)^2 and would be 1.6e-10 relative here
        f = OUDoubleHKernel(0.5, 0.5)
        u = np.array([1e3, 1e-3])
        x = np.array([0.0, 0.0])
        dense = explicit_pair_sum(f, u, x)
        assert abs(f.pair_sum(u, x) - dense) <= 1e-11 * max(1.0, abs(dense))

    @pytest.mark.parametrize("lam", [1.0, 2.0, 0.5])
    def test_scan_matches_per_atom_recursion_at_long_horizon(self, lam):
        # T = 1e4 (about 10k atoms, lam T / _SCAN_SPAN up to 33 chunks)
        f = OUDoubleHKernel(lam, 1e4)
        rng = replication_rng(21, int(2 * lam))
        x = rng.uniform(-12.0 / lam, f.T, rng.poisson(f.T + 12.0 / lam))
        u = rng.choice([1.0, -1.0], size=x.size)
        ref = recursion_pair_sum(f, u, x)
        assert abs(f.pair_sum(u, x) - ref) <= 1e-12 * abs(ref)

    def test_carry_across_a_long_gap_keeps_relative_accuracy(self):
        # the chunk [0, 9] carries its total 154 - 0 = 145 (lam 145 = 680)
        # along; e^{-680} times e^{42} is a normal double, but e^{-722} alone
        # is not, so a carry scaled in one step from the chunk's start lost
        # all but seven digits
        f = OUDoubleHKernel(4.6875, 154.02666666666667)
        u = np.array([0.0, 1.0, 1.0])
        x = np.array([0.0, 9.0, 154.0])
        dense = explicit_pair_sum(f, u, x)
        assert abs(f.pair_sum(u, x) - dense) <= 1e-13 * abs(dense)

    def test_no_pairs_sum_to_zero(self):
        f = OUDoubleHKernel(0.5, 3.0)
        assert f.pair_sum(np.empty(0), np.empty(0)) == 0.0
        assert f.pair_sum(np.array([1.5]), np.array([-0.5])) == 0.0
        # an atom beyond T contributes nothing
        assert f.pair_sum(np.array([1.0, 2.0]), np.array([0.5, 3.5])) == 0.0

    def test_dense_default_matches_explicit_sum(self):
        vals = np.array([[0.3, 2.0, -1.0], [0.0, 1.0, 0.5], [1.0, -0.5, 0.2]])
        f = GridKernel((0.0, 1.0, 2.0, 3.0), vals).symmetrize().scaled(-1.5)
        x = np.array([0.2, 0.2, 1.5, 2.9, 3.0, 0.0])
        u = np.ones_like(x)
        assert f.pair_sum(u, x) == pytest.approx(explicit_pair_sum(f, u, x), rel=1e-12)

    def test_dense_default_keeps_a_pair_sum_below_the_diagonal(self):
        # Subtracting the trace from the full sum loses every pair term
        # below the rounding error of the diagonal: done that way, both
        # cases below sum to 0.0.
        f = OUDoubleHKernel(1.0, 10.0)
        u = np.array([1.0, 1.27e-150])
        x = np.zeros(2)
        pair = 2.0 * float(f(u[0], x[0], u[1], x[1]))
        assert pair == pytest.approx(2.54e-151, rel=1e-3)
        assert Kernel.pair_sum(f, u, x) == pytest.approx(pair, rel=1e-15)
        # a grid kernel ignores u: a diagonal cell of 1e20 beside
        # off-diagonal cells of 1 leaves the pair sum 2 of the two atoms
        g = GridKernel((0.0, 1.0, 2.0), np.array([[1e20, 1.0], [1.0, 0.0]]))
        assert g.pair_sum(np.ones(2), np.array([0.5, 1.5])) == 2.0

    def test_dense_default_refuses_large_matrix(self, monkeypatch):
        n = int(math.isqrt(DENSE_PAIR_BYTES_MAX // 8)) + 1
        monkeypatch.setattr(BlockKernel, "__call__", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match=f"n={n} atoms needs {8 * n * n} bytes"):
            BlockKernel(3).pair_sum(np.ones(n), np.zeros(n))


class TestCharlier:
    def test_all_counts_one(self, unit_jump):
        n = 9
        pat = pattern_of(np.arange(n) + 0.5, Window(0.0, float(n)))
        assert charlier_block_oracle(pat, n) == pytest.approx(-n / math.sqrt(2 * n))

    def test_empty_single_block(self, unit_jump):
        pat = pattern_of([], Window(0.0, 1.0))
        assert charlier_block_oracle(pat, 1) == pytest.approx(2 ** -0.5)

    def test_polynomial_recurrence_matches_brute_force(self):
        # orthogonality E[C_j C_k] = delta_jk k! m^k for a Poisson count
        rng = replication_rng(15, 0)
        m = 1.0
        counts = rng.poisson(m, size=400_000)
        polys = charlier_polynomials(counts - m, m, 4)
        for k in (1, 2, 3, 4):
            mean = polys[k].mean()
            se = polys[k].std(ddof=1) / math.sqrt(counts.size)
            assert abs(mean) < 5 * se
            second = np.mean(polys[k] ** 2)
            se2 = np.std(polys[k] ** 2, ddof=1) / math.sqrt(counts.size)
            assert second == pytest.approx(math.factorial(k) * m ** k, abs=5 * se2)


class TestPathwiseProductFormula:
    def test_p1q1_exact_on_aligned_grids(self):
        edges = (0.0, 1.0, 2.0, 3.0)
        g = GridKernel(edges, np.array([1.0, -0.5, 2.0]))
        h = GridKernel(edges, np.array([0.3, 1.0, -1.0]))
        w = Window(0.0, 3.0)
        exp = product_expand(1, 1, g, h, CTRL, w)
        by_order = {t.order: t for t in exp.terms}
        rng = replication_rng(16, 0)
        for _ in range(100):
            pat = sample_pattern(CTRL, w, rng)
            lhs = eval_I1(g, pat, CTRL) * eval_I1(h, pat, CTRL)
            rhs = (eval_I2(by_order[2].kernel, pat, CTRL)
                   + eval_I1(by_order[1].kernel, pat, CTRL)
                   + by_order[0].kernel)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_p2q2_exact_via_block_counts(self):
        # on one unit-mass block the expansion closes exactly with the
        # orthogonal-polynomial values for orders 3 and 4
        w = Window(0.0, 1.0)
        f = GridKernel((0.0, 1.0), np.array([[1.0]]))
        exp = product_expand(2, 2, f, f, CTRL, w)
        rng = replication_rng(17, 0)
        for _ in range(200):
            pat = sample_pattern(CTRL, w, rng)
            count = np.array([len(pat)], dtype=float)
            c = charlier_polynomials(count - 1.0, 1.0, 4)
            i2 = eval_I2(f, pat, CTRL)
            assert i2 == pytest.approx(c[2][0], abs=1e-12)
            lhs = i2 ** 2
            # I4 + 4 I3 + 4 I2(1_{B^2}) + 2 I2(f) + 4 I1(1_B) + 2||f||^2
            rhs = (c[4][0] + 4.0 * c[3][0] + 4.0 * c[2][0] + 2.0 * c[2][0]
                   + 4.0 * c[1][0] + 2.0 * f.l2_norm_sq(CTRL, w))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_p2q2_coefficient_two_fails(self):
        # the face-value coefficient 2 on the order-1 term breaks the identity
        w = Window(0.0, 1.0)
        f = GridKernel((0.0, 1.0), np.array([[1.0]]))
        rng = replication_rng(18, 0)
        bad = 0
        for _ in range(50):
            pat = sample_pattern(CTRL, w, rng)
            count = np.array([len(pat)], dtype=float)
            c = charlier_polynomials(count - 1.0, 1.0, 4)
            lhs = eval_I2(f, pat, CTRL) ** 2
            rhs = (c[4][0] + 4.0 * c[3][0] + 6.0 * c[2][0] + 2.0 * c[1][0] + 1.0)
            if abs(lhs - rhs) > 1e-9:
                bad += 1
        assert bad > 0


class TestFourthMoment:
    def test_block_value(self, unit_jump):
        for n in (1, 10, 50):
            f = BlockKernel(n)
            got = fourth_moment_chaos(f, unit_jump, Window(0.0, float(n)))
            assert got == pytest.approx(3.0 + 37.0 / n, rel=1e-13)

    def test_zero_kernel(self):
        z = GridKernel((0.0, 1.0), np.zeros((1, 1)))
        assert fourth_moment_chaos(z, CTRL, Window(0.0, 1.0)) == 0.0

    def test_degree_four_homogeneity(self, unit_jump):
        f = BlockKernel(5)
        w = Window(0.0, 5.0)
        c = 1.7
        base_parts = (2.0 * f.l2_norm_sq(unit_jump, w),
                      *__import__("poisson_chaos.contractions", fromlist=["contraction_norms"])
                      .contraction_norms(f, unit_jump, w))
        scaled = fourth_moment_chaos(f.scaled(c), unit_jump, w)
        want = (3.0 * (c ** 2 * base_parts[0]) ** 2
                + 48.0 * c ** 4 * base_parts[1] + 96.0 * c ** 4 * base_parts[3]
                + 4.0 * c ** 4 * base_parts[2])
        assert scaled == pytest.approx(want, rel=1e-12)

    def test_identity_recomputed_two_ways(self, unit_jump):
        from poisson_chaos.contractions import contraction_norms
        f = BlockKernel(8)
        w = Window(0.0, 8.0)
        packaged = fourth_moment_chaos(f, unit_jump, w)
        n11, n21, n10 = contraction_norms(f, unit_jump, w)
        raw = combine_fourth_moment(2.0 * f.l2_norm_sq(unit_jump, w), n11, n21, n10)
        assert packaged == pytest.approx(raw, rel=1e-9)

    def test_mc_exact_second_moment_is_three_plus_forty_over_n(self):
        # the exact E[(F^2 - 2 I2(f *_2^0 f))^2] is 3 + 40/n; the stated
        # combination gives 3 + 37/n and both sit inside the stated MC band
        n, reps = 50, 200_000
        rng = replication_rng(19, 0)
        vals = np.array([rep_block(n, rng) for _ in range(reps)])
        g2 = np.mean(vals[:, 1] ** 2)
        se = np.std(vals[:, 1] ** 2, ddof=1) / math.sqrt(reps)
        assert g2 == pytest.approx(3.0 + 40.0 / n, abs=4 * se)


class TestCriterionEngine:
    def test_block_family_passes(self, unit_jump):
        ns = [10, 30, 100, 300, 1000]
        verdict = clt_criterion([BlockKernel(n) for n in ns], unit_jump,
                                [Window(0.0, float(n)) for n in ns], index=ns)
        assert verdict.passed
        for check in verdict.checks:
            if check.target == 0.0 and check.slope is not None:
                assert -1.2 < check.slope < -0.8

    def test_fixed_support_family_fails_on_fourth_power(self):
        base = GridKernel((0.0, 1.0), np.array([[2.0 ** -0.5]]))
        ns = [10, 100, 1000]
        verdict = clt_criterion([base] * 3, CTRL, Window(0.0, 1.0), index=ns)
        assert not verdict.passed
        failing = {c.name for c in verdict.checks if not c.passed}
        assert "fourth_power" in failing

    def test_contraction_norms_once_per_kernel(self, unit_jump, monkeypatch):
        calls = []
        norms = chaos.contraction_norms
        monkeypatch.setattr(chaos, "contraction_norms",
                            lambda *a: calls.append(a[0]) or norms(*a))
        ns = [10, 30, 100]
        clt_criterion([BlockKernel(n) for n in ns], unit_jump,
                      [Window(0.0, float(n)) for n in ns], index=ns)
        assert len(calls) == len(ns)

    def test_report_fields_consistent(self, unit_jump):
        verdict = clt_criterion([BlockKernel(4)], unit_jump, Window(0.0, 4.0))
        rep = verdict.reports[0]
        assert rep.norm2_doubled == pytest.approx(1.0)
        assert rep.fourth_moment_chaos == pytest.approx(
            combine_fourth_moment(rep.norm2_doubled, rep.n11, rep.n21, rep.n10), rel=1e-12)

    @pytest.mark.parametrize("index", [[4], [50, 50]], ids=["single", "repeated"])
    def test_no_slope_without_two_distinct_indices(self, unit_jump, index):
        verdict = clt_criterion([BlockKernel(n) for n in index], unit_jump,
                                [Window(0.0, float(n)) for n in index], index=index)
        assert not verdict.passed
        for check in verdict.checks[1:]:   # the three claims -> 0
            assert check.slope is None and not check.passed
            assert check.reason.endswith("no slope: needs two distinct indices")
        gap = check_limit("x", index, [1.5] * len(index), 1.0)
        assert gap.slope is None and not gap.passed

    @pytest.mark.parametrize("argv", [
        ["--family", "block", "--indices", "10,30,100,300,1000"],
        ["--family", "ou-pair-unit", "--indices", "50,100,200,400,800,1600"],
    ], ids=lambda v: v[1])
    def test_criterion_runs_without_lstsq(self, tmp_path, monkeypatch, argv):
        def failing(*args, **kwargs):
            raise AssertionError("lstsq ran")

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        assert cli_main(["criterion", *argv, "--out", str(tmp_path)]) == 0

    def test_to_dict_serializes_every_field(self, unit_jump):
        # each record's fields, plus the derived fourth_moment_chaos
        ns = [10, 30]
        verdict = clt_criterion([BlockKernel(n) for n in ns], unit_jump,
                                [Window(0.0, float(n)) for n in ns], index=ns)
        d = verdict.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(verdict)}
        assert d["checks"] == [{f.name: getattr(c, f.name) for f in dataclasses.fields(c)}
                               for c in verdict.checks]
        rep, got = verdict.reports[0], d["reports"][0]
        assert got == {**{f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)},
                       "fourth_moment_chaos": rep.fourth_moment_chaos}

    def test_single_check_unit_blocks(self, unit_jump):
        # g_n = n^{-1/2} sum_{j<=n} 1_{B_j}: ||g||^2 = 1 exact, cube integral n^{-1/2}
        def make(n):
            return GridKernel(tuple(float(j) for j in range(n + 1)),
                              np.full(n, n ** -0.5))
        ns = [1, 4, 16, 64, 256, 1024]
        verdict = single_clt_check([make(n) for n in ns], unit_jump,
                                   [Window(0.0, float(n)) for n in ns], index=ns)
        assert verdict.passed

    def test_single_check_constant_fails(self):
        g = GridKernel((0.0, 1.0), np.array([1.0]))
        verdict = single_clt_check([g] * 4, CTRL, Window(0.0, 1.0), index=[1, 2, 3, 4])
        assert not verdict.passed

    def test_single_check_ou_rescaled_passes(self, symmetric_jump):
        ts = [25.0 * 4 ** k for k in range(6)]   # 25 .. 25600
        kerns = [OUSingleKernel(1.0, t).scaled(1.0 / math.sqrt(2.0)) for t in ts]
        wins = [Window(-14.0, t) for t in ts]
        verdict = single_clt_check(kerns, symmetric_jump, wins, index=ts)
        assert verdict.passed


class TestCharacteristicFunction:
    def test_theta_zero(self):
        g = GridKernel((0.0, 1.0), np.array([1.0]))
        assert levy_khinchine_cf(g, 0.0, CTRL, Window(0.0, 1.0)) == 1.0 + 0.0j

    def test_indicator_centered_poisson(self):
        # g = 1_B, mu(B) = m: exp(m (e^{i theta} - 1 - i theta))
        m = 2.5
        g = GridKernel((0.0, m), np.array([1.0]))
        w = Window(0.0, m)
        for theta in (-2.0, 0.7, 3.1):
            want = np.exp(m * (np.exp(1j * theta) - 1.0 - 1j * theta))
            assert levy_khinchine_cf(g, theta, CTRL, w) == pytest.approx(want, rel=1e-12)

    def test_quadrature_path_matches_grid_path(self):
        # non-grid kernels integrate the exponent by quadrature; compare with
        # the exact cell-sum path on a kernel representable both ways
        from poisson_chaos.kernels import Kernel

        g_grid = GridKernel((0.0, 1.0, 2.0), np.array([0.8, -0.3]))

        class FnKernel(Kernel):
            arity = 1

            def __call__(self, u, x):
                return g_grid(u, x)

        w = Window(0.0, 2.0)
        for theta in (0.5, -1.7):
            exact = levy_khinchine_cf(g_grid, theta, CTRL, w)
            quad = levy_khinchine_cf(FnKernel(), theta, CTRL, w)
            assert quad == pytest.approx(exact, rel=1e-8)

    def test_empirical_cf_matches(self):
        g = GridKernel((0.0, 1.0, 2.0), np.array([1.0, -0.7]))
        w = Window(0.0, 2.0)
        rng = replication_rng(20, 0)
        reps = 100_000
        vals = np.array([eval_I1(g, sample_pattern(CTRL, w, rng), CTRL)
                         for _ in range(reps)])
        thetas = np.linspace(-3.0, 3.0, 13)
        for theta in thetas:
            emp = np.mean(np.exp(1j * theta * vals))
            want = levy_khinchine_cf(g, float(theta), CTRL, w)
            assert abs(emp - want) < 4.0 / math.sqrt(reps)


class TestHelpers:
    def test_fit_slope_matches_lstsq(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(3, 13))
            xs = np.sort(rng.uniform(1.0, 1e4, size=n))
            ys = np.exp(rng.uniform(-3.0, 0.5) * np.log(xs) + rng.normal(0.0, 0.3, size=n))
            want, _ = slope_fit(xs, ys)
            assert chaos._fit_slope(list(xs), list(ys)) == pytest.approx(want, rel=1e-12,
                                                                         abs=1e-12)

    def test_check_limit_rules(self):
        idx = [1, 2, 4, 8]
        ok = check_limit("x", idx, [1.0 / i for i in idx], 0.0, rel_tol=0.3)
        assert ok.passed
        stuck = check_limit("x", idx, [1.0, 1.0, 1.0, 1.0], 0.0)
        assert not stuck.passed
        conv = check_limit("x", idx, [1.3, 1.1, 1.05, 1.01], 1.0)
        assert conv.passed

    def test_chaos_value_total(self):
        g = GridKernel((0.0, 1.0), np.array([1.0]))
        f = GridKernel((0.0, 1.0), np.array([[1.0]]))
        w = Window(0.0, 1.0)
        pat = pattern_of([0.5, 0.6], w)
        cv = chaos_value(2.0, g, f, pat, CTRL)
        assert cv.total == pytest.approx(cv.c + cv.i1 + cv.i2)

    def test_tail_mass_monotone(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=10_000)
        tm = tail_mass(s, [1.0, 10.0, 100.0])
        assert tm[1.0] >= tm[10.0] >= tm[100.0]
