"""Path-level oracles for the OU statistics: the process on a time grid, the
exact and trapezoid time integrals of Y^2, and the stationary
autocovariance, all independent of the pathwise chaos representation in
``poisson_chaos.ou``; 2T ||H||^2 by the per-window double integral of the
pair kernel, the second route to ``ou.k2_variance_exact``; the
statistics by the generic pathwise API (``chaos.eval_I1``/``eval_I2`` on
the OU kernels), the reference for ``ou.OUStatistics``; and the sorted
atoms with the exponential e of every atom, the reference for
``kernels.ou_sorted_atoms``, which leaves e at 0 where it is subnormal."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poisson_chaos.chaos import eval_I1, eval_I2
from poisson_chaos.kernels import OUDiagHstarKernel, OUDoubleHKernel, OUSingleKernel, ou_ghat
from poisson_chaos.ou import OUStatistics
from poisson_chaos.point_process import PointPattern, Window


def path_on_grid(stats: OUStatistics, pattern: PointPattern, times) -> np.ndarray:
    lam = stats.lam
    times = np.asarray(times, dtype=float)
    u, x = pattern.u, pattern.x
    out = np.zeros_like(times)
    if len(pattern):
        # atoms sorted by x; for each t only x_i <= t contribute
        order = np.argsort(x)
        xs, us = x[order], u[order]
        decay = np.exp(-lam * (times[:, None] - xs[None, :]))
        mask = xs[None, :] <= times[:, None]
        out = np.sum(np.where(mask, us[None, :] * decay, 0.0), axis=1)
    k1 = stats.jumps.moment(1)
    if k1 != 0.0:
        out = out - k1 * (1.0 - np.exp(-lam * (times - stats.window.x_lo))) / lam
    return math.sqrt(2.0 * lam) * out


def square_time_integral_exact(stats: OUStatistics, pattern: PointPattern) -> float:
    """int_0^T Y_t^2 dt in closed form from the atoms (independent dual route
    for the pathwise identity sqrt(T)(V_T - 1) = k2 + k1).

    Requires a centered jump marginal (no compensator cross terms).
    """
    if stats.jumps.moment(1) != 0.0:
        raise ValueError("exact square integral implemented for centered marginals")
    lam, T = stats.lam, stats.T
    u, x = pattern.u, pattern.x
    if not len(pattern):
        return 0.0
    g = ou_ghat(lam, T, x[:, None], x[None, :])
    return float(np.sum(np.outer(u, u) * g))


def square_time_integral_grid(stats: OUStatistics, pattern: PointPattern, n_points: int) -> float:
    """Trapezoid integration of the simulated Y^2; the grid is refined at the
    atom times (where the path jumps) so the error is discretization-dominated
    and shrinks like 1/n_points^2."""
    times = np.linspace(0.0, stats.T, n_points)
    ax = pattern.x[(pattern.x > 0.0) & (pattern.x < stats.T)]
    if ax.size:
        times = np.unique(np.concatenate([times, ax - 1e-9, ax]))
    y = path_on_grid(stats, pattern, times)
    return float(np.trapezoid(y ** 2, times))


def autocovariance_exact(lam: float, s: float) -> float:
    """Stationary lag-s autocovariance of Y: e^{-lam |s|}."""
    return math.exp(-lam * abs(s))


def h_norm2_doubled(lam: float, T: float, window: Window | None = None,
                    moment2: float = 1.0) -> float:
    """2T ||H_{lam,T}||^2 by the closed per-window form (quadrature-checked)."""
    w = window if window is not None else Window(-40.0 / lam, T)
    kern = OUDoubleHKernel(lam, T)
    return moment2 ** 2 * 2.0 * T * kern._ghat_power_integrals(2, w)[0] / T ** 2


def linear_stat(stats: OUStatistics, pattern: PointPattern) -> float:
    """T^{-1/2} int_0^T Y_t dt, evaluated as a single compensated integral
    (no path discretization)."""
    kern = OUSingleKernel(stats.lam, stats.T)
    return eval_I1(kern, pattern, stats.jumps)


@dataclass(frozen=True)
class QuadraticStat:
    k2: float
    k1: float

    @property
    def total(self) -> float:
        return self.k2 + self.k1


def quadratic_stat(stats: OUStatistics, pattern: PointPattern) -> QuadraticStat:
    """sqrt(T) (V_T - 1) split into its double- and single-integral parts:
    k2 = I2(sqrt(T) H), k1 = I1(sqrt(T) Hstar)."""
    scale = math.sqrt(stats.T)
    k2 = eval_I2(OUDoubleHKernel(stats.lam, stats.T).scaled(scale), pattern, stats.jumps)
    k1 = eval_I1(OUDiagHstarKernel(stats.lam, stats.T).scaled(scale), pattern, stats.jumps)
    return QuadraticStat(k2=k2, k1=k1)


def sample_variance_stat(stats: OUStatistics, quad: QuadraticStat, lin: float) -> float:
    """sqrt(T) ((1/T) int (Y - Ybar)^2 dt - 1) via the exact split
    quadratic_total - T^{-1/2} linear^2, from the quadratic and linear
    statistics of one pattern."""
    return quad.total - lin ** 2 / math.sqrt(stats.T)


def sorted_atoms_every_exponential(lam: float, T: float, u, x):
    """kernels.ou_sorted_atoms with e = e^{lam (x - T)} evaluated for every
    atom at x <= T, subnormal and underflowing values included."""
    x = np.asarray(x, dtype=float)
    order = x.argsort()
    x = x[order]
    inside = int(x.searchsorted(T, side="right"))
    x = x[:inside]
    u = np.asarray(u, dtype=float)[order[:inside]]
    nonpositive = int(x.searchsorted(0.0, side="right"))
    return u, x, np.exp(lam * (x - T)), np.exp(lam * x[:nonpositive])
