"""Panel-quadrature oracles for the OU pair kernel.

Independent of the closed forms in ``OUDoubleHKernel.contraction_norms``:

- n21 = n10 = K4 K2^2 / T^4 int C_2(y)^2 dy, with the exact section C_2 and
  checked panel quadrature in y;
- n11 = K2^4 / T^4 int int W(y, y')^2 dy dy', with the exact overlap
  W(y, y') = int_window Ghat(x, y) Ghat(x, y') dx, folded to y' = y + s,
  s > 0, on geometrically refined panels, computed at two node levels and
  checked with ``check_levels``.

``ou_sqrt4_section_integral`` is int (int f^4 dmu)^{1/2} dmu, which has no
known closed form, by checked panel quadrature of the exact section C_4.
"""

import math

import numpy as np

from poisson_chaos.quadrature import QuadratureError, check_levels, integrate_checked, panel_points


def exp_refined_edges(lo: float, hi: float, scale: float, base_panels: int = 4) -> np.ndarray:
    """Panel edges on [lo, hi] geometrically refined toward both endpoints.

    ``scale`` is the characteristic length of boundary layers (e.g. 1/lambda
    for integrands involving exp(-lambda * distance-to-endpoint)).
    """
    if hi <= lo:
        raise QuadratureError("empty interval")
    length = hi - lo
    scale = min(abs(scale), length)
    ladder = []
    step = scale
    pos = 0.0
    while pos + step < 0.5 * length:
        pos += step
        ladder.append(pos)
        step *= 2.0
    offsets = np.array(ladder, dtype=float)
    left = lo + offsets
    right = hi - offsets[::-1]
    inner = np.linspace(lo + (offsets[-1] if ladder else 0.0),
                        hi - (offsets[-1] if ladder else 0.0),
                        base_panels + 1)[1:-1] if length > 4 * scale else np.array([])
    # np.unique's own sort and mask, without the numpy.ma import it triggers
    edges = np.sort(np.concatenate([[lo], left, inner, right, [hi]]))
    return edges[np.concatenate([[True], edges[1:] != edges[:-1]])]


def pair_overlap(kernel, y, yp, window):
    """W(y, y') = int_window Ghat(x, y) Ghat(x, y') dx, exact and stable."""
    lam, T = kernel.lam, kernel.T
    L = -window.x_lo
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    lo = np.minimum(y, yp)
    hi = np.maximum(y, yp)
    a = np.maximum(lo, 0.0)
    b = np.maximum(hi, 0.0)
    s = lo + hi
    # e^{lam s} P1, P1 = (e^{-2 lam a}-E)(e^{-2 lam b}-E) int_{-L}^a e^{2 lam x} dx
    f1 = np.exp(lam * (s - 2.0 * b)) - np.exp(lam * s - 2.0 * lam * T)
    p1 = f1 * ((1.0 - np.exp(-2.0 * lam * (T - a)))
               - np.exp(-2.0 * lam * (L + a)) + math.exp(-2.0 * lam * (T + L))) / (2.0 * lam)
    # e^{lam s} P2 over x in (a, b)
    p2 = (f1 * (b - a)
          - (np.exp(lam * s - 2.0 * lam * T) - np.exp(lam * (s + 2.0 * b) - 4.0 * lam * T)
             - np.exp(lam * (s + 2.0 * (a - b)) - 2.0 * lam * T)
             + np.exp(lam * (s + 2.0 * a) - 4.0 * lam * T)) / (2.0 * lam))
    # e^{lam s} P3 over x in (b, T)
    p3 = ((np.exp(lam * (s - 2.0 * b)) - np.exp(lam * s - 2.0 * lam * T)) / (2.0 * lam)
          - 2.0 * (T - b) * np.exp(lam * s - 2.0 * lam * T)
          + (np.exp(lam * s - 2.0 * lam * T) - np.exp(lam * (s + 2.0 * b) - 4.0 * lam * T)) / (2.0 * lam))
    return p1 + p2 + p3


def contraction_norms_by_quadrature(kernel, control, window, nodes=18):
    """(n11, n21, n10, rel_discrepancy) of an unscaled OUDoubleHKernel; the
    last entry is the two-level discrepancy of the n11 double integral.
    Raises QuadratureError when either two-level check fails."""
    lam, T = kernel.lam, kernel.T
    k2 = control.moment(2)
    k4 = control.moment(4)
    L = -window.x_lo

    y_edges = np.concatenate([exp_refined_edges(-L, 0.0, 1.0 / lam)[:-1],
                              exp_refined_edges(0.0, T, 1.0 / lam)])
    sec, _ = integrate_checked(lambda y: kernel._shape_power_section(2, y, window) ** 2,
                               y_edges, nodes=nodes)
    n21 = k4 * k2 ** 2 * sec / T ** 4

    smax = min(40.0 / lam, T + L)

    def off_diagonal(y_nodes, y_weights, n_nodes):
        acc = 0.0
        for ynode, wy in zip(y_nodes, y_weights):
            hi_s = min(smax, T - ynode)
            if hi_s <= 0:
                continue
            s_edges = exp_refined_edges(0.0, hi_s, 1.0 / lam)
            if 0.0 < -ynode < hi_s:
                s_edges = np.unique(np.concatenate([s_edges, [-ynode]]))
            sp, sw = panel_points(s_edges, n_nodes)
            vals = pair_overlap(kernel, np.full_like(sp, ynode), ynode + sp, window) ** 2
            acc += wy * float(sw @ vals)
        return acc

    yp, yw = panel_points(y_edges, nodes)
    off = off_diagonal(yp, yw, nodes)
    yp2, yw2 = panel_points(y_edges, nodes + 6)
    off2 = off_diagonal(yp2, yw2, nodes + 6)
    check_levels(off, off2, what="n11 quadrature")
    disc = abs(off - off2) / max(abs(off2), 1e-300)
    n11 = k2 ** 4 * 2.0 * off2 / T ** 4
    return n11, n21, n21, disc


def ou_sqrt4_section_integral(kernel, control, window):
    """K2 sqrt(K4) / T^2 * int (C_4(y))^{1/2} dy over [x_lo, T] of an unscaled
    OUDoubleHKernel, by checked panel quadrature."""
    if window.x_lo > 0.0:
        raise ValueError("sqrt4_section_integral needs a window starting at or below 0")
    lam, T = kernel.lam, kernel.T
    L = -window.x_lo
    edges = exp_refined_edges(0.0, T, 1.0 / lam)
    if L > 0.0:
        edges = np.concatenate([exp_refined_edges(-L, 0.0, 1.0 / lam)[:-1], edges])
    val, _ = integrate_checked(
        lambda y: np.sqrt(np.maximum(kernel._shape_power_section(4, y, window), 0.0)),
        edges, nodes=18)
    return control.moment(2) * math.sqrt(control.moment(4)) * val / T ** 2
