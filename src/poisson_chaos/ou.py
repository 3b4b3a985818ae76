"""Moving-average Levy process with exponential kernel, and the linear and
quadratic time-averaged statistics whose Gaussian limits the experiment suite
verifies.

The process is Y_t = sqrt(2 lam) int_{-inf}^t int u e^{-lam(t-x)} dN^(du,dx)
with homogeneous control nu(du) dx normalized so that int u^2 nu = 1.  The
statistics are evaluated exactly from the atoms (no time-stepping error)
through the pathwise chaos representation: the compensated integrals
k2 = I2(sqrt(T) H), k1 = I1(sqrt(T) Hstar) and linear = I1(g) of the OU
kernels.  OUStatistics(lam, T, jumps) checks its arguments and builds the
kernels, support checks and compensators once, on the window
ou_window(lam, T); it computes all three from one sorted copy of a
pattern's atoms and one exponential per atom, and rep_linear and
rep_quadratic hand it the pattern they sample.  chaos.eval_I1 and eval_I2
on the same kernels give the same values and are its reference.

Derived (and MC-confirmed) variance limits for the quadratic statistics:
Var K2 -> 2/lam, Var K1 -> int u^4 nu, Var(K2 + K1) -> 2/lam + int u^4 nu.
The acceptance battery also tracks reference targets carrying half the
K2 constant; experiment reports emit both so the gap stays visible.
"""

from __future__ import annotations

import math

import numpy as np

from .chaos import _check_support
from .kernels import (OUDiagHstarKernel, OUDoubleHKernel, OUSingleKernel,
                      _check_rate_and_horizon, _ou_shape_power_integral, ou_pair_terms,
                      ou_sorted_atoms)
from .point_process import DiscreteControl, PointPattern, Window, sample_pattern
from .quadrature import _dot

DEFAULT_JUMPS = DiscreteControl(values=(1.0, -1.0), weights=(0.5, 0.5))


def ou_window(lam: float, T: float) -> Window:
    """The window [-depth, T] of a rate and horizon, after the closed forms'
    range check.  depth = max(12, ln(E / 1e-8) / 2) / lam, where E = (1 -
    e^{-lam T})^2 / (lam^2 T) is the linear kernel's L2 mass on x <= 0: the
    cut leaves at most 1e-8 of it outside, and of the pair kernel's at most
    twice that, far inside chaos.SUPPORT_TOL.  The depth is 12 / lam
    wherever E <= 10."""
    _check_rate_and_horizon(lam, T)
    mass = math.expm1(-lam * T) ** 2 / (lam * lam * T)
    return Window(-max(12.0, 0.5 * math.log(mass / 1e-8)) / lam, T)


class OUStatistics:
    """The linear and quadratic statistics of one rate, horizon and jump
    marginal, from one sorted copy of a pattern's atoms.

    The jump marginal must satisfy int u^2 nu = 1 (checked to 1e-10); the
    default two-point marginal (1/2)(delta_1 + delta_-1) makes every limit
    constant analytic and removes truncation bias.

    The statistics are the compensated integrals
        k2 = I2(sqrt(T) H),  k1 = I1(sqrt(T) Hstar),  linear = I1(g)
    of the OU kernels (g = OUSingleKernel), as chaos.eval_I2 and eval_I1
    evaluate them, but with the per-run work done once: the kernels, their
    support checks (a leak raises SupportError) and the closed-form
    compensators.  Per pattern, one sort and the exponentials
    e = e^{lam (x - T)} of every atom and p = e^{lam x} of those at x <= 0
    (kernels.ou_sorted_atoms) give the pair sum (kernels.ou_pair_terms) and
        Ghat(x, x) = p^2 - e^2 (x <= 0),  1 - e^2 (x > 0),
        lam shape(x) = (1 - e^{-lam T}) p (x <= 0),  1 - e (x > 0),
    the diagonal of Hstar and the time shape of g.  The per-atom pair
    compensator vanishes with K1 = int u nu and is skipped then.
    """

    def __init__(self, lam: float, T: float, jumps: DiscreteControl = DEFAULT_JUMPS):
        window = ou_window(lam, T)
        m2 = jumps.moment(2)
        if abs(m2 - 1.0) > 1e-10:
            raise ValueError(f"jump marginal must have unit second moment, got {m2!r}")
        self.lam, self.T, self.jumps, self.window = lam, T, jumps, window
        self.scale = math.sqrt(T)
        self.pair = OUDoubleHKernel(lam, T).scaled(self.scale)
        diag = OUDiagHstarKernel(lam, T).scaled(self.scale)
        single = OUSingleKernel(lam, T)
        for kernel in (self.pair, diag, single):
            _check_support(kernel, window)
        self.first_moment = jumps.moment(1)
        self.pair_comp = self.pair.double_integral(jumps, window)
        self.diag_comp = diag.integral(jumps, window)
        self.single_comp = single.integral(jumps, window)
        self.shape_coef = math.sqrt(2.0 * lam / T) / lam
        self.neg_shape = 1.0 - math.exp(-lam * T)

    def _linear(self, u, e, p) -> float:
        shape = 1.0 - e
        shape[:p.size] = self.neg_shape * p
        return self.shape_coef * _dot(u, shape) - self.single_comp

    def linear(self, pattern: PointPattern) -> float:
        """T^{-1/2} int_0^T Y_t dt of one pattern."""
        u, _, e, p = ou_sorted_atoms(self.lam, self.T, pattern.u, pattern.x)
        return self._linear(u, e, p)

    def evaluate(self, pattern: PointPattern) -> tuple[float, float, float]:
        """(k2, k1, linear) of one pattern: sqrt(T) (V_T - 1) = k2 + k1
        split into its double- and single-integral parts, and
        T^{-1/2} int_0^T Y_t dt."""
        lam, T = self.lam, self.T
        u, x, e, p = ou_sorted_atoms(lam, T, pattern.u, pattern.x)
        k2 = self.scale * (ou_pair_terms(lam, T, u, x, e, p) / T)
        if self.first_moment != 0.0:
            k2 -= 2.0 * float(np.sum(self.pair.partial_integral(self.jumps, self.window, u, x)))
        k2 += self.pair_comp
        e2 = e * e
        ghat = 1.0 - e2
        ghat[:p.size] = p * p - e2[:p.size]
        k1 = self.scale * (_dot(u * u, ghat) / T) - self.diag_comp
        return k2, k1, self._linear(u, e, p)


# ---------------------------------------------------------------------------
# closed-form finite-horizon moments
# ---------------------------------------------------------------------------


def linear_variance_exact(lam: float, T: float) -> float:
    """Exact variance of T^{-1/2} int_0^T Y dt (two-piece time integral);
    tends to 2/lam."""
    return (2.0 / (lam * T)) * _ou_shape_power_integral(2, lam, T, math.inf)


def k1_variance_exact(lam: float, T: float, c_nu_sq: float = 1.0) -> float:
    """Exact variance of K1(T); tends to int u^4 nu."""
    return c_nu_sq * _ou_shape_power_integral(2, 2.0 * lam, T, math.inf) / T


def k2_variance_exact(lam: float, T: float, moment2: float = 1.0) -> float:
    """Exact variance of K2(T) = 2T ||H||^2 on the untruncated domain, where
    int int Ghat^2 = (1/lam) int s^2 for the diagonal shape s (r = 2 lam);
    tends to 2/lam (twice the acceptance battery's stated reference target)."""
    return moment2 ** 2 * (2.0 / (lam * T)) * _ou_shape_power_integral(2, 2.0 * lam, T, math.inf)


# ---------------------------------------------------------------------------
# replication entry points (picklable, for the parallel harness)
# ---------------------------------------------------------------------------


def rep_linear(stats: OUStatistics, rng) -> float:
    return stats.linear(sample_pattern(stats.jumps, stats.window, rng))


def rep_quadratic(stats: OUStatistics, rng):
    """One replication of all quadratic observables from a shared pattern:
    (k2, k1, total, sample-variance stat, linear stat).  The sample-variance
    stat sqrt(T) ((1/T) int (Y - Ybar)^2 dt - 1) is the exact split
    total - T^{-1/2} linear^2."""
    k2, k1, lin = stats.evaluate(sample_pattern(stats.jumps, stats.window, rng))
    total = k2 + k1
    return (k2, k1, total, total - lin ** 2 / math.sqrt(stats.T), lin)
