"""Moving-average Levy process with exponential kernel, and the linear and
quadratic time-averaged statistics whose Gaussian limits the experiment suite
verifies.

The process is Y_t = sqrt(2 lam) int_{-inf}^t int u e^{-lam(t-x)} dN^(du,dx)
with homogeneous control nu(du) dx normalized so that int u^2 nu = 1.  The
statistics are evaluated exactly from the atoms (no time-stepping error)
through the pathwise chaos representation.

Derived (and MC-confirmed) variance limits for the quadratic statistics:
Var K2 -> 2/lam, Var K1 -> int u^4 nu, Var(K2 + K1) -> 2/lam + int u^4 nu.
The acceptance battery also tracks reference targets carrying half the
K2 constant; experiment reports emit both so the gap stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chaos import eval_I1, eval_I2
from .kernels import (OUDiagHstarKernel, OUDoubleHKernel, OUSingleKernel,
                      _binom_time_integral)
from .point_process import DiscreteControl, PointPattern, Window, sample_pattern

DEFAULT_JUMPS = DiscreteControl(values=(1.0, -1.0), weights=(0.5, 0.5))


@dataclass(frozen=True)
class OUConfig:
    """Rate, jump marginal, horizon and truncation depth for one experiment.

    The jump marginal must satisfy int u^2 nu = 1 (checked to 1e-10); the
    default two-point marginal (1/2)(delta_1 + delta_-1) makes every limit
    constant analytic and removes truncation bias.  The window cut at
    x = -depth satisfies e^{-2 lam depth} < 1e-10 by construction.
    """

    lam: float
    T: float
    jumps: DiscreteControl = DEFAULT_JUMPS
    depth: float | None = None

    def __post_init__(self):
        if self.lam <= 0 or self.T <= 0:
            raise ValueError("lam and T must be positive")
        m2 = self.jumps.moment(2)
        if abs(m2 - 1.0) > 1e-10:
            raise ValueError(f"jump marginal must have unit second moment, got {m2!r}")
        if self.depth is None:
            object.__setattr__(self, "depth", 12.0 / self.lam)
        if math.exp(-2.0 * self.lam * self.depth) >= 1e-10:
            raise ValueError("truncation depth too shallow: e^{-2 lam L} >= 1e-10")

    @property
    def window(self) -> Window:
        return Window(-self.depth, self.T)

    @property
    def c_nu_sq(self) -> float:
        return self.jumps.moment(4)


def sample_ou_pattern(cfg: OUConfig, seed) -> PointPattern:
    return sample_pattern(cfg.jumps, cfg.window, seed)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def linear_stat(cfg: OUConfig, seed=None, pattern: PointPattern | None = None) -> float:
    """T^{-1/2} int_0^T Y_t dt, evaluated as a single compensated integral
    (no path discretization)."""
    if pattern is None:
        pattern = sample_ou_pattern(cfg, seed)
    kern = OUSingleKernel(cfg.lam, cfg.T)
    return eval_I1(kern, pattern, cfg.jumps)


@dataclass(frozen=True)
class QuadraticStat:
    k2: float
    k1: float

    @property
    def total(self) -> float:
        return self.k2 + self.k1


def quadratic_stat(cfg: OUConfig, seed=None, pattern: PointPattern | None = None) -> QuadraticStat:
    """sqrt(T) (V_T - 1) split into its double- and single-integral parts:
    k2 = I2(sqrt(T) H), k1 = I1(sqrt(T) Hstar)."""
    if pattern is None:
        pattern = sample_ou_pattern(cfg, seed)
    scale = math.sqrt(cfg.T)
    k2 = eval_I2(OUDoubleHKernel(cfg.lam, cfg.T).scaled(scale), pattern, cfg.jumps)
    k1 = eval_I1(OUDiagHstarKernel(cfg.lam, cfg.T).scaled(scale), pattern, cfg.jumps)
    return QuadraticStat(k2=k2, k1=k1)


def sample_variance_stat(cfg: OUConfig, seed=None, pattern: PointPattern | None = None,
                         parts: tuple[QuadraticStat, float] | None = None) -> float:
    """sqrt(T) ((1/T) int (Y - Ybar)^2 dt - 1) via the exact split
    quadratic_total - T^{-1/2} linear^2."""
    if parts is None:
        if pattern is None:
            pattern = sample_ou_pattern(cfg, seed)
        parts = (quadratic_stat(cfg, pattern=pattern), linear_stat(cfg, pattern=pattern))
    quad, lin = parts
    return quad.total - lin ** 2 / math.sqrt(cfg.T)


# ---------------------------------------------------------------------------
# closed-form finite-horizon moments
# ---------------------------------------------------------------------------


def linear_variance_exact(lam: float, T: float) -> float:
    """Exact variance of T^{-1/2} int_0^T Y dt (two-piece time integral);
    tends to 2/lam."""
    bracket = ((1.0 - math.exp(-lam * T)) ** 2 / (2.0 * lam)
               + _binom_time_integral(2, lam, T))
    return (2.0 / (lam * T)) * bracket


def k1_variance_exact(lam: float, T: float, c_nu_sq: float = 1.0) -> float:
    """Exact variance of K1(T); tends to int u^4 nu."""
    bracket = ((1.0 - math.exp(-2.0 * lam * T)) ** 2 / (4.0 * lam)
               + _binom_time_integral(2, 2.0 * lam, T))
    return c_nu_sq * bracket / T


def k2_variance_exact(lam: float, T: float, moment2: float = 1.0) -> float:
    """Exact variance of K2(T) = 2T ||H||^2 on the untruncated domain;
    tends to 2/lam (twice the acceptance battery's stated reference target)."""
    E = math.exp(-2.0 * lam * T)
    d = ((1.0 - E) ** 2 / (4.0 * lam ** 2)
         + (1.0 / lam) * (T - (1.0 - E) / lam
                          + (1.0 - math.exp(-4.0 * lam * T)) / (4.0 * lam)))
    return moment2 ** 2 * 2.0 * d / T


# ---------------------------------------------------------------------------
# replication entry points (picklable, for the parallel harness)
# ---------------------------------------------------------------------------


def rep_linear(cfg: OUConfig, rng) -> float:
    return linear_stat(cfg, seed=rng)


def rep_quadratic(cfg: OUConfig, rng):
    """One replication of all quadratic observables from a shared pattern:
    (k2, k1, total, sample-variance stat, linear stat)."""
    pattern = sample_ou_pattern(cfg, rng)
    quad = quadratic_stat(cfg, pattern=pattern)
    lin = linear_stat(cfg, pattern=pattern)
    sv = sample_variance_stat(cfg, parts=(quad, lin))
    return (quad.k2, quad.k1, quad.total, sv, lin)
