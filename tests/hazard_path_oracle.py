"""Path-level oracles for the hazard statistics: h on a time grid refined at
the kernel breakpoints, trapezoid integrals of h and h^2, the rectangular
pair time integral and the dense int h^2 built from it, the rectangular
int h^2 in exact rational arithmetic and by the two-argsort sweep the
one pass must reproduce bit for bit, and the Campbell mean E h(t) by
quadrature, all independent of the closed forms in ``poisson_chaos.hazard``."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from poisson_chaos.hazard import HazardModel
from poisson_chaos.kernels import RectHazardKernel
from poisson_chaos.point_process import PointPattern

from control_oracle import integrate


def simulate_hazard(model: HazardModel, times, pattern: PointPattern) -> np.ndarray:
    """h on a time grid, exactly from the atoms."""
    times = np.asarray(times, dtype=float)
    if not len(pattern):
        return np.zeros_like(times)
    vals = model.kernel(times[:, None], pattern.x[None, :])
    return vals @ pattern.u


def hazard_grid_times(model: HazardModel, pattern: PointPattern, n_points: int) -> np.ndarray:
    """Uniform grid refined at the kernel breakpoints of every atom, so that
    trapezoid integration of the (piecewise-smooth) path is grid-aligned."""
    times = np.linspace(0.0, model.T, n_points)
    breaks = [pattern.x]
    if isinstance(model.kernel, RectHazardKernel):
        breaks = [pattern.x - model.kernel.tau, pattern.x + model.kernel.tau]
    pts = np.concatenate(breaks) if len(pattern) else np.empty(0)
    pts = pts[(pts > 0.0) & (pts < model.T)]
    if pts.size:
        # straddle each breakpoint so that both closed-interval edges of the
        # kernels are resolved within 1e-9-wide cells
        times = np.unique(np.concatenate([times, pts - 1e-9, pts, pts + 1e-9]))
    return times


def cumulative_hazard_grid(model: HazardModel, pattern: PointPattern, n_points: int) -> float:
    times = hazard_grid_times(model, pattern, n_points)
    h = simulate_hazard(model, times, pattern)
    return float(np.trapezoid(h, times))


def square_hazard_integral_grid(model: HazardModel, pattern: PointPattern,
                                n_points: int) -> float:
    times = hazard_grid_times(model, pattern, n_points)
    h = simulate_hazard(model, times, pattern)
    return float(np.trapezoid(h ** 2, times))


def rect_pair_time_integral(x1, x2, T: float, tau: float):
    """int_0^T k(t, x1) k(t, x2) dt for the rectangular kernel: the length of
    [max(x1, x2) - tau, min(x1, x2) + tau] cut to [0, T]."""
    lo = np.maximum(np.maximum(np.asarray(x1), np.asarray(x2)) - tau, 0.0)
    hi = np.minimum(np.minimum(np.asarray(x1), np.asarray(x2)) + tau, T)
    return np.maximum(0.0, hi - lo)


def rect_square_integral_dense(u, x, T: float, tau: float) -> float:
    """The rectangular int h^2 as the dense pair sum
    sum_{i,j} u_i u_j int_0^T k(t, x_i) k(t, x_j) dt."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(u @ rect_pair_time_integral(x[:, None], x[None, :], T, tau) @ u)


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_i and one power of two d with values_i = n_i / d exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    d = max((q for _, q in ratios), default=1)
    return [p * (d // q) for p, q in ratios], d


def rect_square_integral_exact(u, x, T: float, tau: float) -> Fraction:
    """int_0^T h^2 for the rectangular kernel as the pair sum
    sum_{i,j} u_i u_j |[a_i, b_i] & [a_j, b_j]|, exactly in rationals, on the
    float breakpoints a = max(x - tau, 0), b = min(x + tau, T).  Over atoms
    sorted by x, atom j > i overlaps atom i by (b_i - a_j)^+, and no later
    atom overlaps i once a_j >= b_i."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    x = x[order]
    a = np.maximum(x - tau, 0.0)
    b = np.minimum(x + tau, T)
    un, du = _dyadic(np.asarray(u, dtype=float)[order])
    tn, dt = _dyadic(np.concatenate([a, b]))
    an, bn = tn[:x.size], tn[x.size:]
    total = 0
    for i in range(x.size):
        total += un[i] * un[i] * max(bn[i] - an[i], 0)
        for j in range(i + 1, x.size):
            if an[j] >= bn[i]:
                break
            total += 2 * un[i] * un[j] * (bn[i] - an[j])
    return Fraction(total, du * du * dt)


def rect_square_integral_sweep(u, x, T: float, tau: float) -> float:
    """The rectangular int h^2 by a sweep of its own over the interval ends:
    the atoms sorted by x first, the ends built from the sorted x, then the
    stable merge of starts and ends and the running sum of (u, -u).
    RectHazardKernel.path_integrals builds the ends before it sorts; the
    two agree bit for bit."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    u, x = u[order], x[order]
    a = np.maximum(x - tau, 0.0)
    b = np.maximum(np.minimum(x + tau, T), a)
    t = np.concatenate([a, b])
    merge = np.argsort(t, kind="stable")
    h = np.cumsum(np.concatenate([u, -u])[merge])
    return float(np.dot(h[:-1] ** 2, np.diff(t[merge])))


def campbell_mean(model: HazardModel, t: float) -> float:
    """E h(t) = int int u k(t, x) mu(du, dx), by quadrature."""
    return integrate(model.control,
                     lambda u, x: u * model.kernel(np.full_like(x, t), x), model.window)
