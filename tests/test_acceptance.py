"""Acceptance battery: one test (or sub-test) per stated criterion, each
printing a PASS/FAIL line at its stated tolerance.

Criteria whose stated target constants are provably inconsistent with the
defining kernels are implemented verbatim and marked xfail(strict=True); the
reason strings carry the independently derived values, which the regular
suite asserts green.  See the repository notes for the derivations.
"""

import json
import math

import numpy as np
import pytest

from poisson_chaos.chaos import (
    combine_fourth_moment, eval_I1, eval_I2, fourth_moment_chaos, rep_block,
)
from poisson_chaos.cli import main as cli_main
from poisson_chaos.contractions import contraction_norms
from poisson_chaos.harness import collect, jackknife_variance_se, ks_statistic, slope_fit
from poisson_chaos.hazard import (
    cumulative_variance_exact, rect_model, rep_linear_case, rep_quadratic as hz_rep_quadratic,
)
from poisson_chaos.kernels import BlockKernel, GridKernel, OUDoubleHKernel
from poisson_chaos.ou import (
    DEFAULT_JUMPS, OUConfig, k2_variance_exact, linear_variance_exact, rep_linear,
    rep_quadratic as ou_rep_quadratic,
)
from poisson_chaos.point_process import (
    BetaControl, DiscreteControl, ExtendedGammaControl, Window, replication_seed,
    sample_pattern,
)

from chaos_oracle import charlier_block_oracle
from expansion_oracle import product_expand

MASTER_SEED = 20240801
UNIT = DiscreteControl(values=(1.0,), weights=(1.0,))


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")


# ---------------------------------------------------------------------------
# shared Monte Carlo runs (session-scoped; reused across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def block50_samples():
    # columns: (F, G) with G = F^2 - 2 I2(f *_2^0 f)
    return collect(rep_block, 50, 200_000, MASTER_SEED)


@pytest.fixture(scope="session")
def ou_quadratic_samples():
    cfg = OUConfig(lam=1.0, T=200.0)
    return collect(ou_rep_quadratic, cfg, 5000, MASTER_SEED)


@pytest.fixture(scope="session")
def hazard8_samples():
    model = rect_model(UNIT, T=400.0)
    return collect(hz_rep_quadratic, model, 5000, MASTER_SEED)


# ---------------------------------------------------------------------------
# criterion 1: exact identities
# ---------------------------------------------------------------------------


class TestCriterion1ExactIdentities:
    def test_block_norm_and_contractions_exact(self):
        ok = True
        for n in (1, 10, 50, 400):
            f = BlockKernel(n)
            w = Window(0.0, float(n))
            ok &= abs(2.0 * f.l2_norm_sq(UNIT, w) - 1.0) < 1e-12
            n11, n21, n10 = contraction_norms(f, UNIT, w)
            ok &= abs(n11 - 1.0 / (4 * n)) < 1e-12
            ok &= abs(n21 - 1.0 / (4 * n)) < 1e-12
        report("1a (block norms exact)", ok, "2||f||^2 = 1, n11 = n21 = 1/(4n)")
        assert ok

    def test_eval_i2_equals_count_oracle_per_path(self):
        n = 12
        f = BlockKernel(n)
        w = Window(0.0, float(n))
        rng = np.random.default_rng(replication_seed(MASTER_SEED, 1))
        worst = 0.0
        for _ in range(300):
            pat = sample_pattern(UNIT, w, rng)
            worst = max(worst, abs(eval_I2(f, pat, UNIT) - charlier_block_oracle(pat, n)))
        report("1b (pathwise count oracle)", worst < 1e-12, f"max |diff| = {worst:.2e}")
        assert worst < 1e-12

    def test_fourth_moment_identity_two_ways(self):
        worst = 0.0
        for n in (3, 50):
            f = BlockKernel(n)
            w = Window(0.0, float(n))
            packaged = fourth_moment_chaos(f, UNIT, w)
            n11, n21, n10 = contraction_norms(f, UNIT, w)
            raw = combine_fourth_moment(2.0 * f.l2_norm_sq(UNIT, w), n11, n21, n10)
            worst = max(worst, abs(packaged - raw) / raw)
        report("1c (fourth-moment identity)", worst < 1e-9, f"max rel diff = {worst:.2e}")
        assert worst < 1e-9

    def test_pathwise_product_formula_first_order(self):
        edges = (0.0, 1.0, 2.0, 3.0, 4.0)
        g = GridKernel(edges, np.array([1.0, -0.5, 2.0, 0.0]))
        h = GridKernel(edges, np.array([0.3, 1.0, -1.0, 0.7]))
        w = Window(0.0, 4.0)
        exp = product_expand(1, 1, g, h, UNIT, w)
        by_order = {t.order: t for t in exp.terms}
        rng = np.random.default_rng(replication_seed(MASTER_SEED, 2))
        worst = 0.0
        for _ in range(300):
            pat = sample_pattern(UNIT, w, rng)
            lhs = eval_I1(g, pat, UNIT) * eval_I1(h, pat, UNIT)
            rhs = (eval_I2(by_order[2].kernel, pat, UNIT)
                   + eval_I1(by_order[1].kernel, pat, UNIT) + by_order[0].kernel)
            worst = max(worst, abs(lhs - rhs))
        report("1d (pathwise product formula)", worst < 1e-12, f"max |diff| = {worst:.2e}")
        assert worst < 1e-12

    def test_symmetrization_invariance(self):
        vals = np.array([[0.3, 2.0, -1.0], [0.0, 1.0, 0.5], [1.0, -0.5, 0.2]])
        g = GridKernel((0.0, 1.0, 2.0, 3.0), vals)
        w = Window(0.0, 3.0)
        rng = np.random.default_rng(replication_seed(MASTER_SEED, 3))
        worst = 0.0
        for _ in range(200):
            pat = sample_pattern(UNIT, w, rng)
            worst = max(worst, abs(eval_I2(g, pat, UNIT) - eval_I2(g.symmetrize(), pat, UNIT)))
        report("1e (symmetrization invariance)", worst < 1e-12, f"max |diff| = {worst:.2e}")
        assert worst < 1e-12


# ---------------------------------------------------------------------------
# criterion 2: fourth-moment direction at n = 50
# ---------------------------------------------------------------------------


class TestCriterion2BlockMonteCarlo:
    def test_fourth_moment_within_band(self, block50_samples):
        g = block50_samples[:, 1]
        est = float(np.mean(g ** 2))
        ok = abs(est - 3.74) <= 0.15
        report("2a (MC fourth moment)", ok,
               f"E[(F^2 - 2 I2(f^2))^2] = {est:.4f}, stated target 3.74 +- 0.15 "
               f"(exact value 3 + 40/n = 3.80)")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "KS(I2(block(50)), N(0,1)) is ~0.075 by the exact lattice/skewness "
        "structure (support spacing (2n)^{-1/2} = 0.1, skewness 3 sqrt(2)/sqrt(n) "
        "= 0.6); the stated 0.02 band is unattainable at n = 50"))
    def test_ks_below_stated_band(self, block50_samples):
        f = block50_samples[:, 0]
        ks = ks_statistic(f, 1.0)
        ok = ks < 0.02
        report("2b (KS to standard Gaussian)", ok, f"KS = {ks:.4f}, stated bound 0.02")
        assert ok


# ---------------------------------------------------------------------------
# criterion 3: linear statistic of the exponential moving average
# ---------------------------------------------------------------------------


class TestCriterion3Linear:
    def test_mc_variance_matches_closed_form_T100(self):
        cfg = OUConfig(lam=1.0, T=100.0)
        vals = collect(rep_linear, cfg, 5000, MASTER_SEED)[:, 0]
        target = linear_variance_exact(1.0, 100.0)
        est = float(vals.var(ddof=1))
        se = jackknife_variance_se(vals)
        ok = abs(est - target) <= 3 * se
        report("3a (MC variance vs closed form, T=100)", ok,
               f"var = {est:.4f}, closed form {target:.4f}, 3 se = {3 * se:.4f}")
        assert ok

    def test_closed_form_within_two_percent_of_limit_T800(self):
        val = linear_variance_exact(1.0, 800.0)
        ok = abs(val - 2.0) <= 0.02 * 2.0
        report("3b (variance limit 2/lam at T=800)", ok, f"value = {val:.5f}, limit 2")
        assert ok


# ---------------------------------------------------------------------------
# criterion 4: quadratic split at T = 200
# ---------------------------------------------------------------------------


class TestCriterion4QuadraticSplit:
    @pytest.mark.xfail(strict=True, reason=(
        "Var K2 -> 2/lambda = 2 (isometry of the defining pair kernel; exact "
        "finite-T value 1.995 at T=200, MC-confirmed), not the stated 1"))
    def test_k2_variance_stated(self, ou_quadratic_samples):
        est = float(ou_quadratic_samples[:, 0].var(ddof=1))
        ok = abs(est - 1.0) <= 0.1
        report("4a (Var K2 stated band 1 +- 0.1)", ok,
               f"var = {est:.4f}, derived limit 2/lam = 2")
        assert ok

    def test_k1_variance(self, ou_quadratic_samples):
        est = float(ou_quadratic_samples[:, 1].var(ddof=1))
        ok = abs(est - 1.0) <= 0.1
        report("4b (Var K1 = c_nu^2 = 1 +- 0.1)", ok, f"var = {est:.4f}")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "Var(K2 + K1) -> 2/lambda + c_nu^2 = 3 (MC-confirmed), not the stated 2"))
    def test_total_variance_stated(self, ou_quadratic_samples):
        est = float(ou_quadratic_samples[:, 2].var(ddof=1))
        ok = abs(est - 2.0) <= 0.15
        report("4c (Var(K2+K1) stated band 2 +- 0.15)", ok,
               f"var = {est:.4f}, derived limit 3")
        assert ok

    def test_components_uncorrelated(self, ou_quadratic_samples):
        k2 = ou_quadratic_samples[:, 0]
        k1 = ou_quadratic_samples[:, 1]
        corr = float(np.corrcoef(k2, k1)[0, 1])
        bound = 4.0 / math.sqrt(k2.size)
        ok = abs(corr) < bound
        report("4d (|corr(K2, K1)| below 4 se)", ok, f"corr = {corr:.4f}, bound {bound:.4f}")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "2T ||H||^2 -> 2/lambda (= 1.99875 at lam=1, T=800, quadrature-exact and "
        "MC-confirmed); the stated limit 1 is half the true constant"))
    def test_h_norm_doubled_stated(self):
        val = 2.0 * 800.0 * OUDoubleHKernel(1.0, 800.0).l2_norm_sq(
            DEFAULT_JUMPS, Window(-12.0, 800.0))
        ok = abs(val - 1.0) <= 0.02
        report("4e (2T||H||^2 stated band 1 +- 2%)", ok,
               f"value = {val:.5f}, derived limit 2")
        assert ok

    def test_h_norm_doubled_derived(self):
        # green counterpart: the quadrature value sits within 2% of 2/lambda
        val = 2.0 * 800.0 * OUDoubleHKernel(1.0, 800.0).l2_norm_sq(
            DEFAULT_JUMPS, Window(-12.0, 800.0))
        ok = abs(val - 2.0) <= 0.04
        report("4e' (2T||H||^2 vs derived 2/lam)", ok, f"value = {val:.5f}")
        assert ok
        assert val == pytest.approx(k2_variance_exact(1.0, 800.0), rel=1e-8)


# ---------------------------------------------------------------------------
# criterion 5: decay laws of the scaled contraction quantities
# ---------------------------------------------------------------------------


class TestCriterion5DecaySlopes:
    def test_log_log_slopes(self, symmetric_jump):
        ts = [50.0, 100.0, 200.0, 400.0, 800.0]
        l4s, n21s, n11s = [], [], []
        for T in ts:
            w = Window(-12.0, T)
            kern = OUDoubleHKernel(1.0, T)
            l4s.append(T ** 2 * kern.lp_norm(4, symmetric_jump, w))
            n11, n21, _ = kern.contraction_norms(symmetric_jump, w)
            n11s.append(T ** 2 * n11)
            n21s.append(T ** 2 * n21)
        ok = True
        details = []
        for name, seq in (("fourth power", l4s), ("star21", n21s), ("star11", n11s)):
            slope, _ = slope_fit(ts, seq)
            ok &= -1.2 < slope < -0.8
            details.append(f"{name} slope {slope:.3f}")
        report("5 (decay slopes in [-1.2, -0.8])", ok, "; ".join(details))
        assert ok


# ---------------------------------------------------------------------------
# criterion 6: sample-variance statistic
# ---------------------------------------------------------------------------


class TestCriterion6SampleVariance:
    @pytest.mark.xfail(strict=True, reason=(
        "sample-variance statistic inherits the quadratic limit "
        "2/lambda + c_nu^2 = 3 (MC-confirmed), not the stated 2"))
    def test_variance_stated(self, ou_quadratic_samples):
        est = float(ou_quadratic_samples[:, 3].var(ddof=1))
        ok = abs(est - 2.0) <= 0.15
        report("6a (sample-variance stat band 2 +- 0.15)", ok,
               f"var = {est:.4f}, derived limit 3")
        assert ok

    def test_correction_term_slope(self):
        rng = np.random.default_rng(replication_seed(MASTER_SEED, 4))
        ts = [25.0, 50.0, 100.0, 200.0, 400.0]
        means = []
        for T in ts:
            cfg = OUConfig(lam=1.0, T=T)
            vals = [rep_linear(cfg, rng) ** 2 / math.sqrt(T) for _ in range(600)]
            means.append(float(np.mean(vals)))
        slope, _ = slope_fit(ts, means)
        ok = -0.75 < slope < -0.25
        report("6b (correction term decays ~ T^{-1/2})", ok, f"slope = {slope:.3f}")
        assert ok


# ---------------------------------------------------------------------------
# criterion 7: linear hazard statistics
# ---------------------------------------------------------------------------


class TestCriterion7LinearHazard:
    def test_case1_variance_and_ks(self):
        model = rect_model(UNIT, T=200.0)
        vals = collect(rep_linear_case, (model, 1), 5000, MASTER_SEED)[:, 0]
        est = float(vals.var(ddof=1))
        ks = ks_statistic(vals, 4.0)
        ok = abs(est - 4.0) <= 0.3 and ks < 0.03
        report("7a (case 1: var 4 +- 0.3, KS < 0.03)", ok,
               f"var = {est:.4f}, KS = {ks:.4f}")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "case-2 variance converges to 4 only logarithmically (~4 - 8.75/log T); "
        "exact Campbell value at the stated T = 1e4 is 3.068, outside 4 +- 0.8"))
    def test_case2_variance_stated(self):
        model = rect_model(ExtendedGammaControl(eps=1e-4), T=1.0e4)
        vals = collect(rep_linear_case, (model, 2), 2000, MASTER_SEED)[:, 0]
        est = float(vals.var(ddof=1))
        ok = abs(est - 4.0) <= 0.8
        report("7b (case 2 at T=1e4, stated band 4 +- 0.8)", ok,
               f"var = {est:.4f}, exact finite-T value 3.068")
        assert ok

    def test_case2_monotone_approach_and_oracle(self):
        # exact (quadrature) variance ladder approaches 4 monotonically from
        # below; MC at T=1e4 matches the exact finite-T value
        ladder = []
        for T in (1.0e2, 1.0e3, 1.0e4):
            model = rect_model(ExtendedGammaControl(eps=1e-4), T=T)
            ladder.append(cumulative_variance_exact(model) / math.log(T))
        monotone = ladder[0] < ladder[1] < ladder[2] < 4.0
        model = rect_model(ExtendedGammaControl(eps=1e-4), T=1.0e4)
        vals = collect(rep_linear_case, (model, 2), 2000, MASTER_SEED)[:, 0]
        est = float(vals.var(ddof=1))
        se = jackknife_variance_se(vals)
        agrees = abs(est - ladder[-1]) <= 4 * se
        ok = monotone and agrees
        report("7c (case 2 monotone trend + Campbell oracle)", ok,
               f"ladder = {[f'{v:.3f}' for v in ladder]}, MC = {est:.3f}")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "the stated case-3 statistic (H - 2T)/T^{1/4} has E[H] ~ 4 sqrt(T) and "
        "Var(H) ~ 8 log T under the Beta control, so its variance is 0.51 at "
        "T = 1e4 and -> 0; the stated N(0, 8) band is unattainable"))
    def test_case3_variance_stated(self):
        model = rect_model(BetaControl(), T=1.0e4)
        vals = collect(rep_linear_case, (model, 3), 2000, MASTER_SEED)[:, 0]
        est = float(vals.var(ddof=1))
        ok = abs(est - 8.0) <= 1.0
        report("7d (case 3 at T=1e4, stated band 8 +- 1.0)", ok,
               f"var = {est:.4f}, exact finite-T value 0.509")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "with the stated T^{1/4} normalization the exact variance ladder "
        "decreases (1.79, 1.06, 0.51 at T = 1e2, 1e3, 1e4): no monotone "
        "approach to 8 exists"))
    def test_case3_monotone_approach_stated(self):
        ladder = []
        for T in (1.0e2, 1.0e3, 1.0e4):
            model = rect_model(BetaControl(), T=T)
            ladder.append(cumulative_variance_exact(model) / math.sqrt(T))
        gaps = [abs(v - 8.0) for v in ladder]
        ok = gaps[0] > gaps[1] > gaps[2]
        report("7e (case 3 monotone approach to 8)", ok,
               f"ladder = {[f'{v:.3f}' for v in ladder]}")
        assert ok

    def test_case3_mc_matches_campbell_oracle(self):
        model = rect_model(BetaControl(), T=1.0e4)
        vals = collect(rep_linear_case, (model, 3), 2000, MASTER_SEED)[:, 0]
        est = float(vals.var(ddof=1))
        oracle = cumulative_variance_exact(model) / math.sqrt(1.0e4)
        se = jackknife_variance_se(vals)
        ok = abs(est - oracle) <= 4 * se
        report("7f (case 3 vs Campbell oracle)", ok,
               f"MC = {est:.4f}, oracle = {oracle:.4f}")
        assert ok


# ---------------------------------------------------------------------------
# criterion 8: quadratic hazard statistics
# ---------------------------------------------------------------------------


class TestCriterion8QuadraticHazard:
    @pytest.mark.xfail(strict=True, reason=(
        "raw-variant limit variance is 4 t^2 K4 + 32 t^3 K1 K3 + (32/3) t^3 K2^2 "
        "+ 64 t^4 K1^2 K2 = 332/3 = 110.67 (two derivations + MC; the same "
        "covariance calculation reproduces the centered constant c2 exactly); "
        "the stated 140/3 band is unattainable"))
    def test_raw_variance_stated(self, hazard8_samples):
        est = float(hazard8_samples[:, 0].var(ddof=1))
        ok = abs(est - 140.0 / 3.0) <= 4.0
        report("8a (raw variant stated band 140/3 +- 4)", ok,
               f"var = {est:.2f}, derived limit 332/3 = 110.67")
        assert ok

    def test_raw_variance_derived(self, hazard8_samples):
        vals = hazard8_samples[:, 0]
        est = float(vals.var(ddof=1))
        se = jackknife_variance_se(vals)
        ok = abs(est - 332.0 / 3.0) <= max(4 * se, 6.0)
        report("8a' (raw variant vs derived 332/3)", ok, f"var = {est:.2f}")
        assert ok

    def test_centered_variance(self, hazard8_samples):
        est = float(hazard8_samples[:, 1].var(ddof=1))
        ok = abs(est - 44.0 / 3.0) <= 1.5
        report("8b (centered variant 44/3 +- 1.5)", ok, f"var = {est:.3f}")
        assert ok


# ---------------------------------------------------------------------------
# criterion 9: criterion engine end to end
# ---------------------------------------------------------------------------


class TestCriterion9Engine:
    def test_block_family_passes_exit_zero(self, tmp_path):
        rc = cli_main(["criterion", "--family", "block",
                       "--indices", "10,30,100,300,1000", "--out", str(tmp_path)])
        report("9a (block family PASS, exit 0)", rc == 0, f"exit code {rc}")
        assert rc == 0

    def test_fixed_family_fails_exit_one(self, tmp_path):
        rc = cli_main(["criterion", "--family", "fixed", "--indices", "10,100,1000",
                       "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "criterion_fixed.json").read_text())
        failing = {c["name"] for c in payload["checks"] if not c["passed"]}
        ok = rc == 1 and "fourth_power" in failing
        report("9b (fixed family FAIL on fourth power, exit 1)", ok,
               f"exit code {rc}, failing checks {sorted(failing)}")
        assert ok

    def test_malformed_request_exit_two(self, tmp_path):
        rc = cli_main(["criterion", "--family", "no-such-family", "--out", str(tmp_path)])
        report("9c (malformed request, exit 2)", rc == 2, f"exit code {rc}")
        assert rc == 2

    @pytest.mark.xfail(strict=True, reason=(
        "2||sqrt(lam) J_T||^2 -> 2, not 1 (see criterion 4); the sqrt(lam)-scaled "
        "family honestly fails the normalization check.  The unit-variance "
        "scaling is sqrt(lam/2), tested green below"))
    def test_scaled_pair_family_stated(self, tmp_path):
        rc = cli_main(["criterion", "--family", "ou-pair", "--lam", "1.0",
                       "--indices", "50,100,200,400,800,1600", "--out", str(tmp_path)])
        report("9d (sqrt(lam) J_T family stated PASS)", rc == 0, f"exit code {rc}")
        assert rc == 0

    def test_unit_scaled_pair_family_passes(self, tmp_path):
        rc = cli_main(["criterion", "--family", "ou-pair-unit", "--lam", "1.0",
                       "--indices", "50,100,200,400,800,1600", "--out", str(tmp_path)])
        report("9d' (sqrt(lam/2) J_T family PASS)", rc == 0, f"exit code {rc}")
        assert rc == 0


# ---------------------------------------------------------------------------
# criterion 10: determinism across worker counts
# ---------------------------------------------------------------------------


class TestCriterion10Determinism:
    def test_byte_identical_outputs_at_1_4_8_workers(self, tmp_path):
        blobs = []
        for w in (1, 4, 8):
            out = tmp_path / f"w{w}"
            rc = cli_main(["ou", "--theorem", "4", "--lam", "1.0", "--T", "50",
                           "--reps", "600", "--seed", "777", "--workers", str(w),
                           "--out", str(out)])
            assert rc == 0
            blobs.append((out / "ou_thm4_T50.json").read_bytes())
        ok = blobs[0] == blobs[1] == blobs[2]
        report("10a (byte-identical at 1/4/8 workers)", ok,
               f"{len(blobs[0])} bytes each")
        assert ok

    def test_rerun_from_embedded_triple(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            cli_main(["hazard", "--theorem", "8", "--variant", "centered", "--T", "60",
                      "--reps", "300", "--seed", "99", "--out", str(out)])
            outs.append((out / "hazard_thm8_centered_T60.json").read_bytes())
        ok = outs[0] == outs[1]
        report("10b (rerun reproduces bytes)", ok, f"{len(outs[0])} bytes")
        assert ok
