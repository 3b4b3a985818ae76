"""Count-based and distributional oracles for the pathwise chaos integrals.

- ``charlier_block_oracle``: the block-kernel double integral from per-block
  counts, independent of the pairwise path.
- ``charlier_polynomials``: pathwise values of higher chaos orders on
  indicator kernels.
- ``levy_khinchine_cf``: the characteristic function of I1(g).
- ``single_clt_check``: the arity-1 analogue of ``chaos.clt_criterion``.
- ``fourth_moment_chaos``: the fourth-moment criterion functional of one
  kernel, from its norm and its contraction norms.
- ``chaos_value``: c + I1(g) + I2(f) for one realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poisson_chaos.chaos import (
    REL_TOL, CriterionVerdict, LimitCheck, _fit_slope, check_limit, combine_fourth_moment,
    eval_I1, eval_I2,
)
from poisson_chaos.contractions import contraction_norms
from poisson_chaos.kernels import GridKernel, Kernel, _check_arity
from poisson_chaos.point_process import ControlMeasure, PointPattern, Window

from control_oracle import integrate


@dataclass(frozen=True)
class ChaosValue:
    """Pathwise value of c + I1(g) + I2(f) for one realization."""

    c: float
    i1: float
    i2: float

    @property
    def total(self) -> float:
        return self.c + self.i1 + self.i2


def chaos_value(c: float, g: Kernel | None, f: Kernel | None,
                pattern: PointPattern, control: ControlMeasure) -> ChaosValue:
    i1 = eval_I1(g, pattern, control) if g is not None else 0.0
    i2 = eval_I2(f, pattern, control) if f is not None else 0.0
    return ChaosValue(c=float(c), i1=i1, i2=i2)


def charlier_block_oracle(pattern: PointPattern, n_blocks: int,
                          block_mass: float = 1.0) -> float:
    """Closed form of the block-kernel double integral from per-block counts:
    (2n)^{-1/2} sum_j (C_j^2 - C_j - m) with C_j the centered count.

    Independent of the pairwise path: uses only counts, so it cross-checks
    eval_I2 on BlockKernel exactly.
    """
    edges = np.arange(n_blocks + 1, dtype=float)
    counts, _ = np.histogram(pattern.x, bins=edges)
    centered = counts - block_mass
    vals = centered ** 2 - centered - block_mass
    return float(vals.sum() / math.sqrt(2.0 * n_blocks))


def charlier_polynomials(centered_count: np.ndarray, mass: float, order: int) -> list:
    """Monic orthogonal polynomials of a centered Poisson count:
    C_0 = 1, C_1 = N, C_{k+1} = (N - k) C_k - k m C_{k-1}.

    C_k equals the k-fold integral of the indicator tensor of the block, so
    these give pathwise values for chaos orders >= 3 on indicator kernels.
    """
    nh = np.asarray(centered_count, dtype=float)
    polys = [np.ones_like(nh), nh]
    for k in range(1, order):
        polys.append((nh - k) * polys[k] - k * mass * polys[k - 1])
    return polys[: order + 1]


def single_clt_check(kernels, control: ControlMeasure, windows, index=None) -> CriterionVerdict:
    """Audit a sequence of arity-1 kernels: ||g||^2 -> 1 and int |g|^3 -> 0.

    Cube norms of time-averaged kernels decay like T^{-1/2}, so the decay
    slope threshold is -0.25 here, not check_limit's -0.5; the last cube
    norm must still be below chaos.REL_TOL times the first.
    """
    kernels = list(kernels)
    windows = list(windows) if isinstance(windows, (list, tuple)) else [windows] * len(kernels)
    index = np.asarray(index if index is not None else np.arange(1, len(kernels) + 1), dtype=float)
    norms = []
    cubes = []
    for g, w in zip(kernels, windows):
        _check_arity(g, 1)
        norms.append(g.l2_norm_sq(control, w))
        cubes.append(g.lp_norm(3, control, w))
    ratio = cubes[-1] / cubes[0] if cubes[0] else math.inf
    slope = _fit_slope(index, cubes)
    checks = (
        check_limit("norm_sq", index, norms, 1.0),
        LimitCheck("cube_norm", tuple(cubes), 0.0,
                   slope is not None and ratio < REL_TOL and slope < -0.25, slope,
                   f"last/first = {ratio:.3g}, slope = {slope}"),
    )
    return CriterionVerdict((), checks, bool(all(c.passed for c in checks)))


def fourth_moment_chaos(f: Kernel, control: ControlMeasure, window: Window) -> float:
    """chaos.combine_fourth_moment of f: 3 (2||f||^2)^2 + 48 n11 + 96 n10 + 4 n21."""
    norm2_doubled = 2.0 * f.l2_norm_sq(control, window)
    n11, n21, n10 = contraction_norms(f, control, window)
    return combine_fourth_moment(norm2_doubled, n11, n21, n10)


def levy_khinchine_cf(g: Kernel, theta: float, control: ControlMeasure,
                      window: Window) -> complex:
    """E exp(i theta I1(g)) = exp( int (e^{i theta g} - 1 - i theta g) dmu ).

    Exact cell sums for grid kernels, quadrature otherwise.
    """
    _check_arity(g, 1)
    if theta == 0.0:
        return 1.0 + 0.0j
    if isinstance(g, GridKernel):
        m = g.cell_masses(control)
        v = g.values
        expo = np.sum(m * (np.exp(1j * theta * v) - 1.0 - 1j * theta * v))
        return complex(np.exp(expo))
    re = integrate(control, lambda u, x: np.cos(theta * g(u, x)) - 1.0, window)
    im = integrate(control, lambda u, x: np.sin(theta * g(u, x)) - theta * g(u, x), window)
    return complex(np.exp(re + 1j * im))
