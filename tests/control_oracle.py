"""Generic integration against a control measure by nested scipy quadrature.

``integrate(control, fn, window)`` returns int_window fn(u, x) mu(du, dx)
for the four control families; fn takes and returns numpy arrays.  It is the
slow, independent route behind the characteristic-function and Campbell-mean
oracles, and is checked here against the families' own masses and moments.
``compensated_count`` is the first-chaos integral of a region's indicator.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from poisson_chaos.point_process import (BetaControl, ControlMeasure, DiscreteControl,
                                         ExtendedGammaControl, GeneralizedGammaControl,
                                         PointPattern, SupportError, Window)


def integrate_discrete(ctrl: DiscreteControl, fn, window: Window) -> float:
    total = 0.0
    for v, wt in zip(ctrl.values, ctrl.weights):
        val, _ = quad(lambda x, v=v: fn(np.asarray([v]), np.asarray([x]))[0],
                      window.x_lo, window.x_hi, epsabs=1e-12, epsrel=1e-10, limit=400)
        total += wt * val
    return total


def integrate_generalized_gamma(ctrl: GeneralizedGammaControl, fn, window: Window) -> float:
    ctrl._require_eps()
    lo, hi = ctrl.eps, ctrl.eps + 60.0 / ctrl.gamma

    def inner(u):
        val, _ = quad(lambda x: fn(np.asarray([u]), np.asarray([x]))[0],
                      window.x_lo, window.x_hi, epsabs=1e-12, epsrel=1e-9, limit=200)
        return val * ctrl._norm() * np.exp(-ctrl.gamma * u) * u ** (-1.0 - ctrl.sigma)

    val, _ = quad(inner, lo, hi, epsabs=1e-12, epsrel=1e-9, limit=400)
    return val


def integrate_extended_gamma(ctrl: ExtendedGammaControl, fn, window: Window) -> float:
    ctrl._require_eps()
    lo, hi = ctrl.eps, ctrl.eps + 80.0 / ctrl.beta0

    def inner(x):
        val, _ = quad(lambda u: fn(np.asarray([u]), np.asarray([x]))[0]
                      * np.exp(-ctrl.beta(x) * u) / u,
                      lo, hi, epsabs=1e-12, epsrel=1e-9, limit=200)
        return val

    val, _ = quad(inner, window.x_lo, window.x_hi, epsabs=1e-11, epsrel=1e-8, limit=400)
    return float(val)


def integrate_beta(ctrl: BetaControl, fn, window: Window) -> float:
    def inner(x):
        c = float(ctrl.c(x))
        val, _ = quad(lambda u: fn(np.asarray([u]), np.asarray([x]))[0]
                      * c * (1.0 - u) ** (c - 1.0),
                      0.0, 1.0, epsabs=1e-12, epsrel=1e-9, limit=200)
        return val

    val, _ = quad(inner, window.x_lo, window.x_hi, epsabs=1e-11, epsrel=1e-8, limit=400)
    return float(val)


_BY_FAMILY = {
    DiscreteControl: integrate_discrete,
    GeneralizedGammaControl: integrate_generalized_gamma,
    ExtendedGammaControl: integrate_extended_gamma,
    BetaControl: integrate_beta,
}


def integrate(ctrl, fn, window: Window) -> float:
    """int_window fn(u, x) mu(du, dx) by exact sums over discrete jumps and
    quadrature otherwise."""
    try:
        family = _BY_FAMILY[type(ctrl)]
    except KeyError:
        raise NotImplementedError(f"no quadrature for {type(ctrl).__name__}") from None
    return family(ctrl, fn, window)


def compensated_count(pattern: PointPattern, region: Window, control: ControlMeasure) -> float:
    """Count of atoms in the region minus mu(region)."""
    if region.x_lo < pattern.window.x_lo - 1e-12 or region.x_hi > pattern.window.x_hi + 1e-12:
        raise SupportError("region extends outside the sampled window")
    return np.count_nonzero(region.contains(pattern.x)) - control.mass(region)
