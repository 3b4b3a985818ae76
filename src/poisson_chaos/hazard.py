"""Random hazard rates driven by non-compensated Poisson measures, and the
linear / quadratic central-limit statistics for the rectangular kernel.

h(t) = sum_i u_i k(t, x_i) (atoms only, no compensator), H(T) = int_0^T h.
Statistics follow the stated normalizations for each control family; the
experiment suite reports the empirical centering alongside, because for the
two slow (non-homogeneous) cases the stated centerings and scalings are not
consistent with the control families (see the acceptance notes).

cumulative_hazard and square_hazard_integral are the generic pathwise API:
the first from the kernel's time_integral, the second from its
path_integrals, the hazard protocol's one pathwise method.  Each theorem
checks its model once per run, in the constructor of the statistics object
every replication is handed.  LinearStatistics(model, case) (theorem 7)
holds the case's centering, scaling and stated limit variance; its
replication calls cumulative_hazard once.  A theorem-8 replication calls
neither: QuadraticStatistics(model) holds the checked constants and both
limit variances (variance_stated, variance_derived), and takes H(T) and
int h^2 from one call to the kernel's path_integrals, which for the
rectangular kernel is one sorted sweep over the interval ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import HazardKernel, RectHazardKernel
from .point_process import (BetaControl, ControlMeasure, DiscreteControl,
                            ExtendedGammaControl, PointPattern, Window,
                            sample_pattern)
from .quadrature import _dot


class CaseMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class HazardModel:
    """Moving-average kernel plus control measure plus horizon.

    The jump marginal must be supported on positives (hazards are
    nonnegative); the window covers the x-support of the kernel on [0, T].
    """

    kernel: HazardKernel
    control: ControlMeasure
    T: float

    def __post_init__(self):
        if not (0.0 < self.T < math.inf):
            raise ValueError("horizon must be positive and finite")
        if isinstance(self.control, DiscreteControl):
            if any(v <= 0 for v in self.control.values):
                raise ValueError("hazard jump marginal must be positive")
        # every replication samples the control: refuse an untruncated one
        # (eps = 0) here, before any replication, not in the first
        self.control.require_finite_mass()
        # built once, not per replication; not a field, so eq and hash still
        # see only kernel, control and T
        object.__setattr__(self, "window", Window(*self.kernel.x_support(self.T)))


def rect_model(control: ControlMeasure, T: float, tau: float = 1.0) -> HazardModel:
    return HazardModel(kernel=RectHazardKernel(tau), control=control, T=T)


def cumulative_hazard(model: HazardModel, pattern: PointPattern) -> float:
    """H(T) = sum_i u_i int_0^T k(s, x_i) ds, closed form per kernel family."""
    if not len(pattern):
        return 0.0
    w = model.kernel.time_integral(pattern.x, model.T)
    return _dot(pattern.u, w)


def square_hazard_integral(model: HazardModel, pattern: PointPattern) -> float:
    """int_0^T h(t)^2 dt, the second half of the kernel's path_integrals."""
    if not len(pattern):
        return 0.0
    return model.kernel.path_integrals(pattern.u, pattern.x, model.T)[1]


# ---------------------------------------------------------------------------
# Campbell integrals
# ---------------------------------------------------------------------------


def cumulative_mean_exact(model: HazardModel) -> float:
    """E H(T) = int int u w(x) mu(du, dx) with w the kernel's time integral."""
    return _campbell(model, 1)


def cumulative_variance_exact(model: HazardModel) -> float:
    """Var H(T) = int int u^2 w(x)^2 mu(du, dx) (non-compensated Campbell)."""
    return _campbell(model, 2)


def _campbell(model: HazardModel, power: int) -> float:
    """int int u^power w(x)^power mu(du, dx).  For a homogeneous control the
    jump moment stays outside and the kernel integrates w^power itself;
    otherwise quad of the x-moment against w^power over the window."""
    ctrl, T = model.control, model.T
    if ctrl.homogeneous:
        return ctrl.moment(power) * model.kernel.power_integral(power, T)
    from scipy.integrate import quad

    def w_power(x):
        return model.kernel.time_integral(np.array([x]), T)[0] ** power

    val, _ = quad(lambda x: float(ctrl.x_moment(power, x)) * w_power(x),
                  model.window.x_lo, model.window.x_hi,
                  epsabs=1e-11, epsrel=1e-9, limit=800)
    return val


# ---------------------------------------------------------------------------
# CLT statistics
# ---------------------------------------------------------------------------


class LinearStatistics:
    """The stated centering, scaling and limit variance (target) of H(T)
    for a case, after checking that the model is the one the case is
    stated for:

    case 1 (homogeneous nu x dx, rect tau):   (H - 2 tau K1 T) / sqrt(T),    4 tau^2 K2
    case 2 (extended-Gamma, beta = 1+sqrt x): (H - 4 sqrt(T)) / sqrt(log T), 4
    case 3 (Beta, c ~ sqrt x):                (H - 2 T) / T^{1/4},           8
    """

    def __init__(self, model: HazardModel, case: int):
        if not isinstance(model.kernel, RectHazardKernel):
            raise CaseMismatchError("linear CLT statistics are stated for the rectangular kernel")
        tau = model.kernel.tau
        if case == 1 and not model.control.homogeneous:
            raise CaseMismatchError("case 1 needs a homogeneous control")
        if case == 2 and not isinstance(model.control, ExtendedGammaControl):
            raise CaseMismatchError("case 2 needs the extended-Gamma control")
        if case == 3 and not isinstance(model.control, BetaControl):
            raise CaseMismatchError("case 3 needs the Beta control")
        if case in (2, 3) and abs(tau - 1.0) > 1e-12:
            raise CaseMismatchError("cases 2 and 3 are stated for bandwidth 1")
        T = model.T
        if case == 2 and not T > 1.0:
            raise CaseMismatchError(f"case 2 needs T > 1 (its scale is sqrt(log T)), got {T:g}")
        if case == 1:
            stated = (2.0 * tau * model.control.moment(1) * T, math.sqrt(T),
                      4.0 * tau ** 2 * model.control.moment(2))
        elif case == 2:
            stated = 4.0 * math.sqrt(T), math.sqrt(math.log(T)), 4.0
        elif case == 3:
            stated = 2.0 * T, T ** 0.25, 8.0
        else:
            raise CaseMismatchError(f"unknown case {case}")
        self.model = model
        self.center, self.scale, self.target = stated


class QuadraticStatistics:
    """The raw and centered standardized quadratic functionals of the
    hazard of one model (rectangular kernel, homogeneous control):

    raw:      sqrt(T) [ (1/T) int h^2 - (2 tau K2 + 4 tau^2 K1^2) ]
    centered: sqrt(T) [ (1/T) int (h - H/T)^2 - 2 tau K2 ]

    The model checks (CaseMismatchError), tau, K0..K4, sqrt(T) and the two
    centerings are read once per model, in the constructor; per pattern,
    one call to the kernel's path_integrals gives H(T) and int h^2.
    """

    def __init__(self, model: HazardModel):
        if not isinstance(model.kernel, RectHazardKernel):
            raise CaseMismatchError(
                "quadratic CLT statistics are stated for the rectangular kernel")
        if not model.control.homogeneous:
            raise CaseMismatchError(
                "quadratic statistics need a homogeneous control with K1..K4 finite")
        self.tau = tau = model.kernel.tau
        self.k = k = [model.control.moment(i) for i in range(5)]
        self.model, self.kernel, self.T = model, model.kernel, model.T
        self.root_T = math.sqrt(model.T)
        self.centered_center = 2.0 * tau * k[2]
        self.raw_center = 2.0 * tau * k[2] + 4.0 * tau ** 2 * k[1] ** 2

    def evaluate(self, pattern: PointPattern) -> tuple[float, float]:
        """(raw, centered) of one pattern."""
        T = self.T
        h_total, q = self.kernel.path_integrals(pattern.u, pattern.x, T)
        hbar = h_total / T
        raw = self.root_T * (q / T - self.raw_center)
        centered = self.root_T * (q / T - hbar ** 2 - self.centered_center)
        return raw, centered

    def variance_stated(self, variant: str) -> float:
        """Stated reference limit variances used by the acceptance battery; the
        raw-variant combination is dimensionally inconsistent in its last term
        (K2^2 K1 scales like u^5), the centered one is correct."""
        tau, k = self.tau, self.k
        if variant == "raw":
            return 16.0 * tau ** 2 * (k[4] / 4.0 + tau * k[1] * k[3]
                                      + 2.0 * tau * k[2] ** 2 / 3.0
                                      + tau ** 2 * k[2] ** 2 * k[1])
        return 4.0 * tau ** 2 * (k[4] + 8.0 * tau * k[2] ** 2 / 3.0)

    def variance_derived(self, variant: str) -> float:
        """Limit variances derived from the long-run covariance of h(t)^2 (the
        centered variant agrees with the stated constant; the raw one does not):

        c1 = 4 tau^2 K4 + 32 tau^3 K1 K3 + (32/3) tau^3 K2^2 + 64 tau^4 K1^2 K2
        c2 = 4 tau^2 K4 + (32/3) tau^3 K2^2
        """
        tau, k = self.tau, self.k
        c2 = 4.0 * tau ** 2 * k[4] + (32.0 / 3.0) * tau ** 3 * k[2] ** 2
        if variant == "centered":
            return c2
        return c2 + 32.0 * tau ** 3 * k[1] * k[3] + 64.0 * tau ** 4 * k[1] ** 2 * k[2]


# ---------------------------------------------------------------------------
# replication entry points (picklable, for the parallel harness)
# ---------------------------------------------------------------------------


def rep_linear_case(stats: LinearStatistics, rng) -> tuple:
    """(statistic, H(T)) for one replication; the raw cumulative hazard
    is retained so reports can show the empirical centering."""
    model = stats.model
    h_total = cumulative_hazard(model, sample_pattern(model.control, model.window, rng))
    return ((h_total - stats.center) / stats.scale, h_total)


def rep_quadratic(stats: QuadraticStatistics, rng) -> tuple:
    """(raw, centered) quadratic statistics from one shared pattern."""
    return stats.evaluate(sample_pattern(stats.model.control, stats.model.window, rng))
