"""Panel Gauss-Legendre quadrature with a two-level accuracy check, and the
package's thread-count-independent dot product ``_dot``.

No command-line path integrates numerically: every criterion quantity has a
closed form.  The tests use the panels as oracles for those closed forms
(the OU contraction-norm oracle calls ``check_levels`` and ``panel_points``
directly), and the benchmark tracer times ``integrate_checked`` and
``panel_points``.  Integrands are assumed vectorized (numpy in, numpy out)
and piecewise-analytic on the supplied panels; panel edges must include every
kink of the integrand.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# Longest block _dot hands to np.dot.  OpenBLAS threads dot products above
# 10000 elements, and the threads' partial sums make the bits depend on the
# thread count; shorter blocks run on one thread.
_DOT_BLOCK = 8192


def _dot(a, b) -> float:
    """Dot product of two vectors, summed over ordered blocks of at most
    _DOT_BLOCK elements, so its bits do not depend on the BLAS thread count
    (CPU affinity, worker count); equal to np.dot up to _DOT_BLOCK elements."""
    if len(a) <= _DOT_BLOCK:
        return float(np.dot(a, b))
    total = 0.0
    for i in range(0, len(a), _DOT_BLOCK):
        total += float(np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK]))
    return total


class QuadratureError(RuntimeError):
    """A two-level check failed: a numerical fault, not a usage error."""


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    # Legendre nodes/weights on [-1, 1]; numpy.polynomial is imported on
    # first use, so no command-line start pays for it
    from numpy.polynomial.legendre import leggauss
    return leggauss(int(n))


def panel_points(edges: np.ndarray, nodes: int):
    """Gauss-Legendre points and weights for the union of panels."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise QuadratureError("panel edges must be strictly increasing")
    t, w = _gl_nodes(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    ww = (half[:, None] * w[None, :]).ravel()
    return x, ww


def integrate_panels(f, edges, nodes: int = 24) -> float:
    x, w = panel_points(np.asarray(edges, dtype=float), nodes)
    return float(np.dot(w, f(x)))


def integrate_checked(f, edges, nodes: int = 24, rtol: float = 1e-6):
    """Integrate on panels; return (value, discrepancy) from two node levels.

    The discrepancy between the two levels is the reported Richardson-style
    error estimate.  Raises if the estimate exceeds ``rtol`` relative to the
    result scale.
    """
    lo = integrate_panels(f, edges, nodes)
    hi = integrate_panels(f, edges, nodes + 12)
    return hi, check_levels(lo, hi, rtol)


def check_levels(lo: float, hi: float, rtol: float = 1e-6, what: str = "quadrature") -> float:
    """Discrepancy |hi - lo| between a coarse and a fine node level.

    Raises if it exceeds ``rtol`` relative to the result scale (absolute for
    results below 1).
    """
    disc = abs(hi - lo)
    scale = max(abs(hi), 1e-300)
    if disc > rtol * max(scale, 1.0) and disc > rtol * scale * 10.0:
        raise QuadratureError(
            f"{what} check failed: levels differ by {disc:.3e} on scale {scale:.3e}"
        )
    return disc
