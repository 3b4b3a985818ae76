"""Log-log slope fit for the tests' decay-rate checks."""

import math

import numpy as np


def slope_fit(xs, ys):
    """Least-squares slope in log-log coordinates, with a 95% half-width."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least three points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(a, ly, rcond=None)
    slope = float(coef[0])
    dof = xs.size - 2
    if dof <= 0 or res.size == 0:
        return slope, 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    se = math.sqrt(float(res[0]) / dof / sxx)
    return slope, 1.96 * se
