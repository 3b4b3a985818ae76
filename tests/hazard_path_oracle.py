"""Path-level oracles for the hazard statistics: h on a time grid refined at
the kernel breakpoints, trapezoid integrals of h and h^2, and the Campbell
mean E h(t) by quadrature, all independent of the closed forms in
``poisson_chaos.hazard``."""

from __future__ import annotations

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


def campbell_mean(model: HazardModel, t: float) -> float:
    """E h(t) = int int u k(t, x) mu(du, dx), by quadrature."""
    return integrate(model.control,
                     lambda u, x: u * model.kernel(np.full_like(x, t), x), model.window)
