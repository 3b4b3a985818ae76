"""Pathwise single and double integrals against compensated point patterns,
the fourth-moment functional, the central-limit criterion engine and the
block family's count-path replication.

Pathwise conventions, writing z_i for the atoms of a pattern with control mu:

    I1(g) = sum_i g(z_i) - int g dmu
    I2(f) = sum_{i != j} f(z_i, z_j) - 2 sum_i int f(z_i, z) mu(dz) + int int f dmu^2

Both are exact given the atoms; compensator integrals use each kernel's
closed form when available.  eval_I1 and eval_I2 are the generic pathwise
API: any kernel of the protocol, one call per kernel, each with its own
support check and compensators.  The OU subcommand does not call them: its
replications evaluate the three OU statistics in one sorted pass
(ou.OUStatistics), which shares the pair-sum scan with
OUDoubleHKernel.pair_sum and is tested against these two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contractions import contraction_norms
from .harness import _record_dict
from .kernels import Kernel, _check_arity
from .point_process import ControlMeasure, PointPattern, SupportError, Window

SUPPORT_TOL = 1e-6
REL_TOL = 0.05        # check_limit: the last value's relative distance to its target
DECAY_SLOPE = -0.5    # check_limit: the log-log slope a claim "-> 0" must fall below


def _check_support(kernel: Kernel, window: Window):
    excess = kernel.support_excess(window)
    if not excess <= SUPPORT_TOL:
        raise SupportError(
            f"kernel support leaks outside the window (L2 mass outside {excess:.3e})")


def eval_I1(g: Kernel, pattern: PointPattern, control: ControlMeasure) -> float:
    """Compensated single integral: atom sum minus the compensator."""
    _check_arity(g, 1)
    _check_support(g, pattern.window)
    atom_sum = float(np.sum(g(pattern.u, pattern.x))) if len(pattern) else 0.0
    return atom_sum - g.integral(control, pattern.window)


def eval_I2(f: Kernel, pattern: PointPattern, control: ControlMeasure) -> float:
    """Compensated double integral over distinct atom pairs.

    Evaluates the symmetrization of f (the asymmetric and symmetrized inputs
    define the same integral).  The pair sum costs what the kernel's
    ``pair_sum`` costs: O(#atoms log #atoms) for the OU pair kernel, O(#atoms^2)
    time and memory for the dense default.  Compensator integrals are
    evaluated once per atom.
    """
    _check_arity(f, 2)
    f = f.symmetrize()
    _check_support(f, pattern.window)
    u, x = pattern.u, pattern.x
    pair_sum = 0.0
    atom_comp = 0.0
    if len(pattern):
        pair_sum = f.pair_sum(u, x)
        atom_comp = float(np.sum(f.partial_integral(control, pattern.window, u, x)))
    return pair_sum - 2.0 * atom_comp + f.double_integral(control, pattern.window)


# ---------------------------------------------------------------------------
# moments and criteria
# ---------------------------------------------------------------------------


def combine_fourth_moment(norm2_doubled: float, n11: float, n21: float, n10: float) -> float:
    """Fourth-moment criterion functional 3 (2||f||^2)^2 + 48 n11 + 96 n10 + 4 n21.

    This is not E I2(f)^4.  For the normalized block kernel with n blocks it
    equals 3 + 37/n, while the exact fourth moment of that double integral is
    3 + 50/n.  Both tend to 3 at the same rate, so convergence of this
    combination to 3 (together with the normalization 2||f||^2 -> 1) still
    marks the Gaussian limit of the double integrals.
    """
    return 3.0 * norm2_doubled ** 2 + 48.0 * n11 + 96.0 * n10 + 4.0 * n21


@dataclass(frozen=True)
class CriterionReport:
    """Per-kernel record of the normalization, fourth-power and contraction
    quantities entering the criterion."""

    label: str
    norm2_doubled: float
    l4: float
    n11: float
    n21: float
    n10: float
    integrable: bool

    @property
    def fourth_moment_chaos(self) -> float:
        return combine_fourth_moment(self.norm2_doubled, self.n11, self.n21, self.n10)

    def to_dict(self) -> dict:
        return _record_dict(self, fourth_moment_chaos=self.fourth_moment_chaos)


@dataclass(frozen=True)
class LimitCheck:
    name: str
    values: tuple[float, ...]
    target: float
    passed: bool
    slope: float | None
    reason: str


@dataclass(frozen=True)
class CriterionVerdict:
    reports: tuple[CriterionReport, ...]
    checks: tuple[LimitCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return _record_dict(self, checks=[_record_dict(c) for c in self.checks],
                            reports=[r.to_dict() for r in self.reports])


def _fit_slope(xs, ys) -> float | None:
    """Least-squares slope of log y (floored at 1e-300) on log x, in closed
    form; None with fewer than two distinct x."""
    lx = [math.log(x) for x in xs]
    if len(set(lx)) < 2:
        return None
    ly = [math.log(max(y, 1e-300)) for y in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / math.fsum((x - mx) ** 2 for x in lx))


def check_limit(name: str, index, values, target: float) -> LimitCheck:
    """Audit a sequence claim 'values -> target'.

    target != 0: last value within REL_TOL = 0.05 of target and
    |value - target| shrinking.  target == 0: last value below 0.05 times
    the first value and the log-log slope below DECAY_SLOPE = -0.5.  Slopes
    are closed-form least-squares fits on log index; with fewer than two
    distinct indices there is no slope, and the check fails.
    """
    values = tuple(float(v) for v in values)
    if target == 0.0:
        if all(v == 0.0 for v in values):
            return LimitCheck(name, values, target, True, None, "identically zero")
        ratio = values[-1] / values[0] if values[0] else math.inf
        ys, ok, limit, head = values, ratio < REL_TOL, DECAY_SLOPE, f"last/first = {ratio:.3g}"
    else:
        ys = [abs(v - target) for v in values]
        if ys[-1] < 1e-9:
            return LimitCheck(name, values, target, True, None, "converged exactly")
        ok, limit, head = ys[-1] <= REL_TOL * abs(target), 0.0, f"|last - target| = {ys[-1]:.3g}"
    slope = _fit_slope(index, ys)
    tail = "no slope: needs two distinct indices" if slope is None else f"slope = {slope:.3f}"
    return LimitCheck(name, values, target, slope is not None and ok and slope < limit, slope,
                      f"{head}, {tail}")


def clt_criterion(kernels, control: ControlMeasure, windows, labels=None,
                  index=None) -> CriterionVerdict:
    """Audit a kernel sequence for the Gaussian limit of its double integrals:
    2||f||^2 -> 1, int f^4 -> 0, and both contraction norms -> 0.

    Each kernel must also pass the integrability check: int (int f^2)^2
    (= n21), int f^4 (= l4) and the window mass mu(W) are finite.  They
    certify the condition int (int f^4 dmu)^{1/2} dmu < infinity as well,
    by Cauchy-Schwarz on W:
        int_W (int f(z, w)^4 mu(dw))^{1/2} mu(dz) <= (mu(W) l4)^{1/2}.
    """
    kernels = list(kernels)
    windows = list(windows) if isinstance(windows, (list, tuple)) else [windows] * len(kernels)
    labels = list(labels) if labels else [f"k{i}" for i in range(len(kernels))]
    index = index if index is not None else range(1, len(kernels) + 1)
    reports = []
    for f, w, lab in zip(kernels, windows, labels):
        n11, n21, n10 = contraction_norms(f, control, w)
        l4 = f.lp_norm(4, control, w)
        reports.append(CriterionReport(
            label=lab,
            norm2_doubled=2.0 * f.l2_norm_sq(control, w),
            l4=l4,
            n11=n11, n21=n21, n10=n10,
            integrable=all(map(math.isfinite, (n21, l4, control.mass(w)))),
        ))
    if not all(r.integrable for r in reports):
        checks = (LimitCheck("integrability", (), 0.0, False, None,
                             "square/fourth-power integrability violated"),)
        return CriterionVerdict(tuple(reports), checks, False)
    checks = (
        check_limit("normalization", index, [r.norm2_doubled for r in reports], 1.0),
        check_limit("fourth_power", index, [r.l4 for r in reports], 0.0),
        check_limit("contraction_11", index, [r.n11 for r in reports], 0.0),
        check_limit("contraction_21", index, [r.n21 for r in reports], 0.0),
    )
    return CriterionVerdict(tuple(reports), checks, all(c.passed for c in checks))


def rep_block(n: int, rng) -> tuple:
    """(F, G) for one block-family replication via per-block centered counts:
    F = I2 of the n-block kernel, G = F^2 - 2 I2(f *_2^0 f).

    Count path only; its exact pathwise agreement with eval_I2 on sampled
    patterns is asserted separately by the identity tests.
    """
    counts = rng.poisson(1.0, size=int(n))
    centered = counts - 1.0
    q = centered ** 2 - centered - 1.0
    s = float(q.sum())
    f_val = s / math.sqrt(2.0 * n)
    g_val = f_val ** 2 - s / n
    return (f_val, g_val)
