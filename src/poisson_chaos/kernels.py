"""Symmetric kernels on Z and Z^2: grid representations and analytic families.

Evaluation conventions: arity-1 kernels are called as k(u, x), arity-2 as
k(u1, x1, u2, x2); all entry points are numpy-vectorized and return 0 outside
the declared support.  ``lp_norm(p)`` returns int |f|^p dmu^arity (not the
p-th root).  Closed forms are written with exponents combined before
exponentiation so they stay finite for horizons in the thousands.  The OU
closed forms hold on a window that covers the kernel's support down to a
cut, x_lo <= 0 and x_hi >= T, and raise ValueError on any other; their
support_excess is the exact L2 mass below the cut, and inf on any other
window.  All three build on one time integral, _binom_time_integral.

Hazard kernels k(t, x) give a pattern's H(T) and int_0^T h^2 through one
method, path_integrals; the dense pair-time-integral reference lives with
the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .point_process import ControlMeasure, Window
from .quadrature import _dot

# largest n x n float64 pair matrix the dense pair sums may allocate
DENSE_PAIR_BYTES_MAX = 1 << 28

# Widest exponent lam * (x - x0) that one chunk of the OU pair-sum scan
# spans.  A chunk's running sums of u e^{lam (x - x0)} stay below e^600 ~
# 3.8e260 times sum |u|, a factor of about 5e47 under the largest double,
# where e^709 would leave no room.  Narrower chunks would cost more numpy
# calls per atom; wider ones round the exponent more coarsely (its ulp at
# 600 is 1.1e-13).
_SCAN_SPAN = 600.0

# Lowest exponent lam * (x - T) at which ou_sorted_atoms evaluates
# e^{lam (x - T)}: just below ln(DBL_MIN) = -708.3964..., so np.exp of any
# lower exponent is subnormal or 0, and every normal e is evaluated.
_E_EXPONENT_MIN = -708.4


class ArityError(ValueError):
    pass


class ContractionError(ValueError):
    pass


def _distinct_pair_sum(a: np.ndarray) -> float:
    """sum_{i != j} a_i a_j as 2 sum_k a_k sum_{j < k} a_j.  Its rounding
    error scales with sum_{i != j} |a_i a_j|; that of (sum a)^2 - sum a^2
    scales with (sum |a|)^2, which swamps the result when one term dominates."""
    if a.size < 2:
        return 0.0
    return 2.0 * _dot(a[1:], a[:-1].cumsum())


def _check_dense_budget(n: int) -> None:
    need = 8 * n * n
    if need > DENSE_PAIR_BYTES_MAX:
        raise ValueError(
            f"dense pair matrix for n={n} atoms needs {need} bytes, over the "
            f"{DENSE_PAIR_BYTES_MAX}-byte budget")


class Kernel:
    arity: int = 0

    def __call__(self, *coords):
        raise NotImplementedError

    def symmetrize(self) -> "Kernel":
        raise NotImplementedError

    def l2_norm_sq(self, control: ControlMeasure, window: Window) -> float:
        return self.lp_norm(2, control, window)

    def lp_norm(self, p: int, control: ControlMeasure, window: Window) -> float:
        raise NotImplementedError

    # compensator integrals used by pathwise evaluation ---------------------
    def integral(self, control: ControlMeasure, window: Window) -> float:
        """int f dmu over the window (arity 1)."""
        raise NotImplementedError

    def partial_integral(self, control, window, u, x):
        """int f((u, x), z) mu(dz) over the window, vectorized over atoms (arity 2)."""
        raise NotImplementedError

    def double_integral(self, control: ControlMeasure, window: Window) -> float:
        """int int f dmu^2 over window^2 (arity 2)."""
        raise NotImplementedError

    def pair_sum(self, u, x) -> float:
        """sum_{i != j} f(z_i, z_j) over the atoms z_i = (u_i, x_i) (arity 2).

        Dense: evaluates the n x n pair matrix, O(n^2) time and memory, and
        refuses matrices over DENSE_PAIR_BYTES_MAX.  Structured kernels
        override it.
        """
        u = np.asarray(u, dtype=float)
        x = np.asarray(x, dtype=float)
        if not x.size:
            return 0.0
        _check_dense_budget(x.size)
        vals = self(u[:, None], x[:, None], u[None, :], x[None, :])
        # zeroed, not subtracted: the rounding error of sum - trace scales
        # with the diagonal, which is not part of the sum
        np.fill_diagonal(vals, 0.0)
        return float(vals.sum())

    def support_excess(self, window: Window) -> float:
        """L2 mass of the kernel outside the window, for unit jumps: 0 for
        kernels fully contained, inf for a window that cuts a kernel with no
        closed-form tail."""
        return 0.0

    # criterion quantities (arity 2) ------------------------------------------
    def contraction_norms(self, control: ControlMeasure, window: Window):
        """Squared norms (n11, n21, n10) of f *_1^1 f, f *_2^1 f and f *_1^0 f.

        The arity-3 norm is computed by the reduction identity
        ||f *_1^0 f||^2 = int (int f^2 dmu)^2 dmu, which collapses to the same
        section integral as ||f *_2^1 f||^2 for symmetric kernels.
        """
        raise ContractionError(f"no contraction-norm scheme for {type(self).__name__}")

    def scaled(self, c: float) -> "Kernel":
        return ScaledKernel(self, float(c))


def _check_arity(kernel: Kernel, expected: int):
    if kernel.arity != expected:
        raise ArityError(f"expected arity-{expected} kernel, got arity-{kernel.arity}")


# ---------------------------------------------------------------------------
# grid kernels: piecewise constant in the time coordinate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridKernel(Kernel):
    """Cell-constant kernel over a partition of the time axis.

    ``edges`` are the K+1 cell boundaries; ``values`` has shape (K,) for
    arity 1 or (K, K) for arity 2.  The kernel ignores the jump coordinate,
    which keeps every integral a finite sum (exact arithmetic) once the cell
    masses m_a = mu(cell_a) are known.
    """

    edges: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        vals = np.asarray(self.values, dtype=float)
        k = edges.size - 1
        if vals.shape == (k,):
            object.__setattr__(self, "arity", 1)
        elif vals.shape == (k, k):
            object.__setattr__(self, "arity", 2)
        else:
            raise ValueError(f"values shape {vals.shape} does not match {k} cells")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "edges", tuple(float(e) for e in edges))
        object.__setattr__(self, "values", vals)

    def _cell(self, x):
        x = np.asarray(x, dtype=float)
        e = np.asarray(self.edges)
        idx = np.searchsorted(e, x, side="right") - 1
        # right edge of the last cell belongs to it
        idx = np.where(x == e[-1], e.size - 2, idx)
        inside = (idx >= 0) & (idx <= e.size - 2) & (x >= e[0]) & (x <= e[-1])
        return np.where(inside, idx, 0), inside

    def cell_masses(self, control: ControlMeasure) -> np.ndarray:
        e = self.edges
        return np.array([control.mass(Window(e[a], e[a + 1])) for a in range(len(e) - 1)])

    def __call__(self, *coords):
        if self.arity == 1:
            _, x = coords
            idx, inside = self._cell(x)
            return np.where(inside, self.values[idx], 0.0)
        _, x1, _, x2 = coords
        i, ins1 = self._cell(x1)
        j, ins2 = self._cell(x2)
        return np.where(ins1 & ins2, self.values[i, j], 0.0)

    def symmetrize(self) -> "GridKernel":
        if self.arity != 2:
            raise ArityError("symmetrize needs an arity-2 kernel")
        return GridKernel(self.edges, 0.5 * (self.values + self.values.T))

    def lp_norm(self, p, control, window):
        m = self.cell_masses(control)
        v = np.abs(self.values) ** p
        if self.arity == 1:
            return float(v @ m)
        return float(m @ v @ m)

    def integral(self, control, window):
        _check_arity(self, 1)
        return float(self.values @ self.cell_masses(control))

    def partial_integral(self, control, window, u, x):
        _check_arity(self, 2)
        m = self.cell_masses(control)
        idx, inside = self._cell(x)
        return np.where(inside, (self.values @ m)[idx], 0.0)

    def double_integral(self, control, window):
        _check_arity(self, 2)
        m = self.cell_masses(control)
        return float(m @ self.values @ m)

    def support_excess(self, window: Window) -> float:
        nz = np.nonzero(self.values) if self.arity == 1 else np.nonzero(np.any(self.values != 0, axis=1))
        if len(nz[0]) == 0:
            return 0.0
        lo = self.edges[int(nz[0].min())]
        hi = self.edges[int(nz[0].max()) + 1]
        return 0.0 if (lo >= window.x_lo - 1e-12 and hi <= window.x_hi + 1e-12) else math.inf

    def contraction_norms(self, control, window):
        _check_arity(self, 2)
        m = self.cell_masses(control)
        v = self.values
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(m))):
            return math.inf, math.inf, math.inf
        s11 = (v * m[:, None]).T @ v
        n11 = float(m @ (s11 ** 2) @ m)
        sec = (v ** 2).T @ m
        n21 = float(sec ** 2 @ m)
        return n11, n21, n21


# ---------------------------------------------------------------------------
# scaling wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledKernel(Kernel):
    base: Kernel
    factor: float

    def __post_init__(self):
        object.__setattr__(self, "arity", self.base.arity)

    def __call__(self, *coords):
        return self.factor * self.base(*coords)

    def symmetrize(self):
        return ScaledKernel(self.base.symmetrize(), self.factor)

    def lp_norm(self, p, control, window):
        return abs(self.factor) ** p * self.base.lp_norm(p, control, window)

    def integral(self, control, window):
        return self.factor * self.base.integral(control, window)

    def partial_integral(self, control, window, u, x):
        return self.factor * self.base.partial_integral(control, window, u, x)

    def double_integral(self, control, window):
        # int int (c f) dmu^2 is linear in the scale factor
        return self.factor * self.base.double_integral(control, window)

    def pair_sum(self, u, x):
        return self.factor * self.base.pair_sum(u, x)

    def support_excess(self, window):
        return self.factor ** 2 * self.base.support_excess(window)

    def contraction_norms(self, control, window):
        n11, n21, n10 = self.base.contraction_norms(control, window)
        c4 = self.factor ** 4
        return c4 * n11, c4 * n21, c4 * n10

    def scaled(self, c):
        return ScaledKernel(self.base, self.factor * float(c))


# ---------------------------------------------------------------------------
# block family: disjoint unit-mass blocks on the time axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockKernel(Kernel):
    """f_n(z, z') = (2n)^{-1/2} when z != z' fall in the same of n disjoint
    time blocks [j, j+1), j = 0..n-1, else 0.

    With unit-mass blocks this family is the canonical normalized example:
    2 ||f_n||^2 = 1 and all three contraction norms equal 1/(4n).
    """

    n: int
    arity = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one block")

    @property
    def coef(self) -> float:
        return (2.0 * self.n) ** -0.5

    def block_index(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.floor(x).astype(int)
        inside = (x >= 0.0) & (x < self.n)
        return np.where(inside, idx, -1), inside

    def __call__(self, u1, x1, u2, x2):
        i, ins1 = self.block_index(x1)
        j, ins2 = self.block_index(x2)
        same = ins1 & ins2 & (i == j)
        distinct = ~(np.equal(np.asarray(x1), np.asarray(x2)) & np.equal(np.asarray(u1), np.asarray(u2)))
        return np.where(same & distinct, self.coef, 0.0)

    def symmetrize(self):
        return self

    def _block_mass(self, control):
        # blocks share one mass for homogeneous controls
        return control.mass(Window(0.0, 1.0))

    def lp_norm(self, p, control, window):
        m = self._block_mass(control)
        return float(self.n * self.coef ** p * m ** 2)

    def partial_integral(self, control, window, u, x):
        m = self._block_mass(control)
        _, inside = self.block_index(x)
        return np.where(inside, self.coef * m, 0.0)

    def double_integral(self, control, window):
        m = self._block_mass(control)
        return float(self.n * self.coef * m ** 2)

    def contraction_norms(self, control, window):
        # star_1^1, star_2^1 and star_1^0 squared norms; all equal c^4 n m^k
        m = self._block_mass(control)
        c4 = self.coef ** 4
        n11 = self.n * c4 * m ** 4
        n21 = self.n * c4 * m ** 3
        n10 = self.n * c4 * m ** 3
        return n11, n21, n10

    def support_excess(self, window):
        return 0.0 if (window.x_lo <= 0.0 and window.x_hi >= self.n) else math.inf


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck moving-average families
# ---------------------------------------------------------------------------


def _check_rate_and_horizon(lam: float, T: float) -> None:
    # the closed forms raise T and lam T to the 4th power and lam to the 3rd, at most
    for name, value in (("lam", lam), ("T", T), ("lam T", lam * T)):
        if not 1e-60 <= value <= 1e60:
            raise ValueError(f"{name} = {value:g} is outside the closed forms' range "
                             f"[1e-60, 1e+60]")


def _binom_time_integral(p: int, r: float, T: float, m: int = 0) -> float:
    # int_0^T e^{-m r (T - s) / 2} (1 - e^{-r s})^p ds, for m = 0 or m = p <= 4
    if r * T < 1.0:
        # the binomial sum below cancels for small r T (1e-7 relative at r T
        # = 0.01, p = 4); with y = 1 - e^{-r s} the integral is e^{-m r T / 2}
        # / r sum_{j >= 0} (m/2 + 1)_j / j! Y^{p+1+j} / (p+1+j), Y = 1 - e^{-r T}
        # < 0.64, whose 110th term is below 1e-18 of the first for m <= 4
        y = -math.expm1(-r * T)
        terms, coef = [], 1.0
        for k in range(p + 1, p + 111):
            terms.append(coef * y ** k / k)
            coef *= (m / 2 + k - p) / (k - p)
        return math.exp(-m * r * T / 2) * math.fsum(terms) / r
    total, em = 0.0, math.exp(-m * r / 2 * T)
    for k in range(p + 1):
        cmb = math.comb(p, k) * (-1.0) ** k
        if 2 * k == m:
            total += cmb * T * math.exp(-k * r * T)
        else:
            total += cmb * (em - math.exp(-k * r * T)) / (r / 2 * (2 * k - m))
    return total


def _ou_window_length(window: Window, T: float) -> float:
    """L = -x_lo of a window that covers the OU kernels' support (-inf, T]
    down to its cut at -L: the closed forms hold on no other window."""
    if window.x_lo > 0.0:
        raise ValueError("OU closed forms need a window starting at or below 0")
    if window.x_hi < T:
        raise ValueError("OU closed forms need a window ending at or after the horizon")
    return -window.x_lo


def _ou_shape_power_integral(p: int, r: float, T: float, L: float) -> float:
    """int_{-L}^T s^p for the shape s(x) = e^{r x} (1 - e^{-r T}) on x <= 0,
    1 - e^{-r (T - x)} on (0, T]: the single kernel's at r = lam, the
    diagonal kernel's at r = 2 lam; L may be inf."""
    neg = (1.0 - math.exp(-r * T)) ** p * (1.0 - math.exp(-p * r * L)) / (p * r)
    return neg + _binom_time_integral(p, r, T)


def _ou_shape_tail(r: float, T: float, window: Window) -> float:
    """int s^2 below the window, s the shape of _ou_shape_power_integral;
    inf for a window starting above 0 or ending before T, which cuts the
    kernel."""
    if window.x_lo > 0.0 or window.x_hi < T:
        return math.inf
    return (1.0 - math.exp(-r * T)) ** 2 * math.exp(2.0 * r * window.x_lo) / (2.0 * r)


@dataclass(frozen=True)
class OUSingleKernel(Kernel):
    """Integrand of the time-averaged OU level: u sqrt(2 lam / T) *
    int_{max(x,0)}^T e^{-lam(t-x)} dt on x <= T."""

    lam: float
    T: float
    arity = 1

    def __post_init__(self):
        _check_rate_and_horizon(self.lam, self.T)

    def time_shape(self, x):
        x = np.asarray(x, dtype=float)
        lam, T = self.lam, self.T
        neg = np.exp(lam * np.minimum(x, 0.0)) * (1.0 - math.exp(-lam * T))
        pos = 1.0 - np.exp(-lam * (T - np.minimum(np.maximum(x, 0.0), T)))
        return np.where(x <= 0.0, neg, np.where(x <= T, pos, 0.0)) / lam

    def __call__(self, u, x):
        return np.asarray(u) * math.sqrt(2.0 * self.lam / self.T) * self.time_shape(x)

    def symmetrize(self):
        raise ArityError("symmetrize needs an arity-2 kernel")

    def lp_norm(self, p, control, window):
        coef = math.sqrt(2.0 * self.lam / self.T)
        L = _ou_window_length(window, self.T)
        shape = _ou_shape_power_integral(p, self.lam, self.T, L) / self.lam ** p
        return control.abs_moment(p) * coef ** p * shape

    def integral(self, control, window):
        coef = math.sqrt(2.0 * self.lam / self.T)
        L = _ou_window_length(window, self.T)
        shape = _ou_shape_power_integral(1, self.lam, self.T, L) / self.lam
        return control.moment(1) * coef * shape

    def support_excess(self, window):
        lam, T = self.lam, self.T
        return (2.0 / (lam * T)) * _ou_shape_tail(lam, T, window)


def ou_ghat(lam: float, T: float, x, y):
    """Time integral int_{max(x,y,0)}^T 2 lam e^{-lam(2t-x-y)} dt on x, y <= T.

    Where x v y <= 0 it is (1 - e^{-2 lam T}) e^{lam (x + y)}; a reference
    variant with (1 - e^{-2T}) there fails the variance limits for
    lambda != 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.maximum(np.maximum(x, y), 0.0)
    s = x + y
    inside = (x <= T) & (y <= T)
    val = np.exp(lam * (s - 2.0 * m)) - np.exp(lam * s - 2.0 * lam * T)
    return np.where(inside, val, 0.0)


# Parts of the OU pair kernel's contraction norms, each lam^k times a
# nonnegative function of x = lam T written as sum_j P_j(x) e^{-j x}:
# {j: numerators over _EXP_POLY_DEN of the coefficients of P_j from the
# constant term up}.  Integers keep the series branch exact.  R1 and v are
# defined in OUDoubleHKernel.contraction_norms; A, B are its section parts.
_EXP_POLY_DEN = 48
_OU_NORM_PARTS = {
    # Tr(R1^4) = 5x/2 - 93/16 + (8x^3/3 + 8x^2 + 9x + 7/2) e^{-2x}
    #            + (4x^2 + 5x + 7/4) e^{-4x} + (x + 1/2) e^{-6x} + e^{-8x}/16
    "trace_r1": {0: (-279, 120), 2: (168, 432, 384, 128), 4: (84, 240, 192),
                 6: (24, 48), 8: (3,)},
    # <v, v> = 1/2 - e^{-2x}/2
    "p0": {0: (24,), 2: (-24,)},
    # <v, R1 v> = 1/4 - x e^{-2x} - e^{-4x}/4
    "p1": {0: (12,), 2: (0, -48), 4: (-12,)},
    # <v, R1^2 v> = 1/4 - (x^2 + x/2 - 1/8) e^{-2x} - (x + 1/4) e^{-4x} - e^{-6x}/8
    "p2": {0: (12,), 2: (6, -24, -48), 4: (-12, -48), 6: (-6,)},
    # <v, R1^3 v> = 5/16 - (2x^3/3 + x^2 + x/4 - 1/4) e^{-2x}
    #               - (2x^2 + 3x/2 + 1/4) e^{-4x} - (3x/4 + 1/4) e^{-6x} - e^{-8x}/16
    "p3": {0: (15,), 2: (12, -12, -48, -32), 4: (-12, -72, -96), 6: (-12, -36), 8: (-3,)},
    # int_0^T A^2 = x - 29/16 + (x^2 + 5x - 1/8) e^{-2x} + (-x^2 + 2x + 15/8) e^{-4x}
    #               + (1/8 - x/2) e^{-6x} - e^{-8x}/16
    "s_aa": {0: (-87, 48), 2: (-6, 240, 48), 4: (90, 96, -48), 6: (6, -24), 8: (-3,)},
    # int_0^T A B = 3/16 - (x^2/2 + 3x/2 - 21/16) e^{-2x} - (5x/2 + 5/4) e^{-4x}
    #               + (x/4 - 5/16) e^{-6x} + e^{-8x}/16
    "s_ab": {0: (9,), 2: (63, -72, -24), 4: (-60, -120), 6: (-15, 12), 8: (3,)},
    # int_0^T B^2 = 1/16 - e^{-2x}/2 + 3x e^{-4x}/2 + e^{-6x}/2 - e^{-8x}/16
    "s_bb": {0: (3,), 2: (-24,), 4: (0, 72), 6: (24,), 8: (-3,)},
}
_EXP_POLY_SWITCH = 1.5    # Taylor series below this x, direct sum above
_EXP_POLY_TERMS = 40
# direct branch: per part, (j, float coefficients of P_j highest order first)
_EXP_POLY_DIRECT = tuple(tuple((j, tuple(c / _EXP_POLY_DEN for c in reversed(coeffs)))
                               for j, coeffs in part.items())
                         for part in _OU_NORM_PARTS.values())


@lru_cache(maxsize=None)
def _exp_poly_series(name: str):
    """Series branch of one part of _OU_NORM_PARTS: F(x) = e^{-h x} G(x)
    with h = max(j) / 2 and G(x) = sum_j P_j(x) e^{(h - j) x}; returns h and
    the Taylor coefficients of G, highest order first.  They are exact
    integers over _EXP_POLY_DEN (N - 1)!, rounded once, so the terms that
    cancel in the direct sum are exactly zero here.  Built on first use:
    the big-integer sums cost about 3 ms for all parts, and arguments at or
    above _EXP_POLY_SWITCH never need them.
    """
    parts = _OU_NORM_PARTS[name]
    n_terms = _EXP_POLY_TERMS
    top = math.factorial(n_terms - 1)
    h = max(parts) // 2
    series = [0] * n_terms
    for j, coeffs in parts.items():
        for i, c in enumerate(coeffs):
            for n in range(i, n_terms):
                series[n] += c * (h - j) ** (n - i) * (top // math.factorial(n - i))
    return float(h), tuple(g / (_EXP_POLY_DEN * top) for g in reversed(series))


def _horner(coeffs, x: float) -> float:
    # coefficients highest order first
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _ou_norm_parts(x: float) -> list[float]:
    """Values at x >= 0 of all parts of _OU_NORM_PARTS, in their order.

    Each part vanishes like a power of x at 0 (up to x^8), where its direct
    sum cancels; below _EXP_POLY_SWITCH its centred Taylor series is used
    instead.  Both branches are accurate to about 1e-14 relative on each
    side of the switch.  The direct sums share one e^{-j x} per j.
    """
    if x < _EXP_POLY_SWITCH:
        return [math.exp(-h * x) * _horner(series, x)
                for h, series in map(_exp_poly_series, _OU_NORM_PARTS)]
    exps = {j: math.exp(-j * x) for j in range(0, 9, 2)}
    return [math.fsum([_horner(coeffs, x) * exps[j] for j, coeffs in part])
            for part in _EXP_POLY_DIRECT]


def ou_sorted_atoms(lam: float, T: float, u, x):
    """The atoms at x <= T sorted by x, with e = e^{lam (x - T)} for every
    one of them (0 where it is below DBL_MIN) and p = e^{lam x} for the
    first p.size, those at x <= 0: the exponentials ou_pair_terms and the
    OU statistics are built from.

    e is evaluated only where it is a normal double, from the first atom
    with lam (x - T) >= _E_EXPONENT_MIN on, and left at 0 before it.  np.exp
    is several times slower on arguments whose value is subnormal, and so
    is arithmetic on subnormal operands; at lam T = 800 about a tenth of
    the atoms lie there.  The values built from e do not change: 1 - e = 1
    and e^2 = 0 for any e below DBL_MIN, the pair scan reads e only where
    lam (T - x) < _SCAN_SPAN, and the rank-one sum over u e absorbs terms
    about 1e-308 times smaller than its terms of order one.  Only a pair
    sum with no term above about 1e-290 can move, by less than |u u'|
    DBL_MIN per pair.
    """
    x = np.asarray(x, dtype=float)
    order = x.argsort()
    x = x[order]
    # a NaN sorts last and is cut with the atoms beyond T
    inside = int(x.searchsorted(T, side="right"))
    x = x[:inside]
    u = np.asarray(u, dtype=float)[order[:inside]]
    nonpositive = int(x.searchsorted(0.0, side="right"))
    exponent = lam * (x - T)   # nondecreasing, as x is
    e = np.zeros_like(exponent)
    normal = int(exponent.searchsorted(_E_EXPONENT_MIN))
    np.exp(exponent[normal:], out=e[normal:])
    return u, x, e, np.exp(lam * x[:nonpositive])


def ou_pair_terms(lam: float, T: float, u, x, e, p) -> float:
    """sum_{i != j} u_i u_j Ghat(x_i, x_j), T times the OU pair kernel's
    pair sum, over the atoms, exponentials e and p of ou_sorted_atoms.

    On x, y <= T, Ghat(x, y) is e^{-lam |x - y|} where max(x, y) > 0 and
    e^{lam (x + y)} where both are <= 0, less e^{lam (x + y) - 2 lam T}
    everywhere.  The last two parts are rank-one sums over distinct pairs
    (see _distinct_pair_sum) of u p and u e.  The first needs
    R_k = sum_{j < k} u_j e^{-lam (x_k - x_j)}, a numpy scan over chunks of
    atoms: in a chunk that starts at x0 and spans lam (x - x0) <= _SCAN_SPAN,
    with g = e^{lam (x - x0)}, R = (carry + exclusive cumsum of u g) / g, and
    the chunk's total, carried to the next chunk's first atom x1, is that
    atom's R, (carry + sum u g) / g_last * e^{-lam (x1 - x_last)} with x_last
    the chunk's last atom.  The last chunk holds the atoms with
    lam (T - x) < _SCAN_SPAN, where e is a normal double, and takes
    g = e / e_0 from e instead of new exponentials.
    """
    n = x.size
    if n < 2:
        return 0.0
    span = _SCAN_SPAN / lam
    last = int(x.searchsorted(T - span, side="right"))
    recursion = np.empty_like(x)
    carry = 0.0
    start = 0
    while start < n:
        x0 = x[start]
        if start < last:
            stop = min(int(x.searchsorted(x0 + span, side="right")), last)
            g = np.exp(lam * (x[start:stop] - x0))
        else:
            stop = n
            g = e[start:] / e[start]
        w = u[start:stop] * g
        w[0] += carry
        acc = w.cumsum()
        recursion[start] = carry
        recursion[start + 1:stop] = acc[:-1] / g[1:]
        if stop < n:
            # via the chunk's last atom: e^{-lam (x1 - x0)} alone underflows
            # where the gap to x1 is long, and the carry with it
            carry = float(acc[-1] / g[-1]) * math.exp(-lam * (x[stop] - x[stop - 1]))
        start = stop
    k = p.size
    near = 2.0 * _dot(u[k:], recursion[k:])
    return float(near + _distinct_pair_sum(u[:k] * p) - _distinct_pair_sum(u * e))


@dataclass(frozen=True)
class OUDoubleHKernel(Kernel):
    """Pair kernel of the time-averaged squared OU level:
    H(u,x; u',x') = u u' Ghat(x, x') / T on (-inf, T]^2."""

    lam: float
    T: float
    arity = 2

    def __post_init__(self):
        _check_rate_and_horizon(self.lam, self.T)

    def __call__(self, u1, x1, u2, x2):
        g = ou_ghat(self.lam, self.T, x1, x2)
        return np.asarray(u1) * np.asarray(u2) * g / self.T

    def symmetrize(self):
        return self

    def _ghat_power_integrals(self, p: int, window: Window) -> tuple[float, float]:
        """int int Ghat^p over the window [-L, T]^2, and over the rest of
        (-inf, T]^2.

        With c = e^{-p lam L}, E = e^{-2 lam T}, neg = (1 - E)^p / (p lam)^2
        (both coordinates <= 0, where Ghat = (1 - E) e^{lam (x + x')}),
        first = int_0^T (1 - e^{-2 lam s})^p ds and
        second = int_0^T e^{-p lam x} (1 - e^{-2 lam (T - x)})^p dx:
            inside  = neg (1 - c)^2 + (2 / (p lam)) (first - c second)
            outside = c (neg (2 - c) + (2 / (p lam)) second)
        """
        lam, T = self.lam, self.T
        E = math.exp(-2.0 * lam * T)
        c = math.exp(-p * lam * _ou_window_length(window, T))
        first = _binom_time_integral(p, 2.0 * lam, T)
        second = _binom_time_integral(p, 2.0 * lam, T, p)
        ep = (1.0 - E) ** p
        inside = ep * ((1.0 - c) / (p * lam)) ** 2 + (2.0 / (p * lam)) * (first - c * second)
        neg = ep / (p * lam) ** 2
        return inside, c * (neg * (2.0 - c) + (2.0 / (p * lam)) * second)

    def lp_norm(self, p, control, window):
        mom = control.abs_moment(p)
        return mom ** 2 * self._ghat_power_integrals(p, window)[0] / self.T ** p

    def partial_integral(self, control, window, u, x):
        # int H((u,x), z) mu(dz) = u K1 C_1(x) / T, over z in [x_lo, T]
        k1 = control.moment(1)
        x = np.asarray(x, dtype=float)
        if k1 == 0.0:
            return np.zeros_like(x)
        sec = self._shape_power_section(1, x, window)
        return np.asarray(u) * k1 * np.where(x <= self.T, sec, 0.0) / self.T

    def double_integral(self, control, window):
        k1 = control.moment(1)
        if k1 == 0.0:
            return 0.0
        return k1 ** 2 * self._ghat_power_integrals(1, window)[0] / self.T

    def pair_sum(self, u, x):
        """sum_{i != j} H(z_i, z_j) in O(n log n), without the pair matrix:
        one sort and one exponential per atom, then ou_pair_terms."""
        u, x, e, p = ou_sorted_atoms(self.lam, self.T, u, x)
        return ou_pair_terms(self.lam, self.T, u, x, e, p) / self.T

    def support_excess(self, window):
        if window.x_lo > 0.0 or window.x_hi < self.T:
            # the kernel lives on (-inf, T]^2; such a window cuts it
            return math.inf
        return self._ghat_power_integrals(2, window)[1] / self.T ** 2

    # ---- contraction machinery --------------------------------------------

    def _shape_power_section(self, p: int, y, window: Window):
        """C_p(y) = int_window Ghat(x, y)^p dx, vectorized in y."""
        lam, T = self.lam, self.T
        L = _ou_window_length(window, T)
        E = math.exp(-2.0 * lam * T)
        y = np.asarray(y, dtype=float)
        a = np.maximum(y, 0.0)
        # x < a piece, with e^{p lam y} folded in so every exponent stays <= 0:
        # A1 = (e^{-2 lam a} - E) e^{lam (y + a)},  A2 = (e^{-2 lam a} - E) e^{lam (y - L)}
        a1 = np.exp(lam * (y - a)) - np.exp(lam * (y + a) - 2.0 * lam * T)
        a2 = np.exp(lam * (y - 2.0 * a) - lam * L) - np.exp(lam * y - 2.0 * lam * T - lam * L)
        piece1 = (a1 ** p - a2 ** p) / (p * lam)
        # x in (a, T] piece: sum_k C(p,k)(-1)^k E^k e^{p lam y} int_a^T e^{lam(2k-p)x} dx
        piece2 = np.zeros_like(y)
        for k in range(p + 1):
            cmb = math.comb(p, k) * (-1.0) ** k
            if 2 * k == p:
                piece2 += cmb * (T - a) * np.exp(p * lam * y - 2.0 * lam * k * T)
            else:
                d = lam * (2.0 * k - p)
                hi_t = np.exp(p * lam * (y - T))
                lo_t = np.exp(p * lam * (y - a) + 2.0 * lam * k * (a - T))
                piece2 += cmb * (hi_t - lo_t) / d
        return piece1 + piece2

    def contraction_norms(self, control, window):
        """Squared norms (n11, n21, n10) of the quadratic contractions, in
        closed form.

        On x, y <= T, Ghat(x, y) = int_0^T phi(t, x) phi(t, y) dt with
        phi(t, x) = sqrt(2 lam) e^{-lam (t - x)} 1{x <= t}: Ghat = Phi Phi*
        for (Phi g)(x) = int_0^T phi(t, x) g(t) dt, mapping L2[0, T] into
        L2 of the window [-L, T].  Phi* Phi is the operator R on [0, T] with
        kernel
            r(t, s) = int_{-L}^{min(t, s)} phi(t, x) phi(s, x) dx
                    = e^{-lam |t - s|} - c v(t) v(s),
        v(t) = e^{-lam t}, c = e^{-2 lam L}.  f *_1^1 f has kernel
        u u' K2 (Ghat^2)(x, x') / T^2, so
            n11 = K2^4 Tr((Phi Phi*)^4) / T^4 = K2^4 Tr(R^4) / T^4.
        With R0 the c = 0 operator and m_k = <v, R0^k v>, x = lam T:
            lam^4 Tr(R0^4) = 5x/2 - 29/8 + (2x^2 + 5x + 7/2) e^{-2x} + e^{-4x}/8
            lam m0 = (1 - e^{-2x}) / 2
            lam^2 m1 = 1/2 - (x + 1/2) e^{-2x}
            lam^3 m2 = 5/8 - (x^2 + 3x/2 + 1/2) e^{-2x} - e^{-4x}/8
            lam^4 m3 = 7/8 - (2x^3/3 + 2x^2 + 2x + 1/2) e^{-2x} - (x/2 + 3/8) e^{-4x}
        and the rank-one expansion
            Tr(R^4) = Tr(R0^4) - 4c m3 + c^2 (4 m0 m2 + 2 m1^2) - 4c^3 m0^2 m1 + c^4 m0^4.
        Its terms cancel for small lam T or lam L, so it is evaluated around
        the L = 0 operator R1 = R0 - v v* (positive semidefinite) instead:
        with d = 1 - c and p_k = <v, R1^k v> >= 0,
            Tr(R^4) = Tr(R1^4) + 4d p3 + d^2 (4 p0 p2 + 2 p1^2) + 4d^3 p0^2 p1 + d^4 p0^4.

        n21 = n10 = K4 K2^2 S / T^4 with S = int_{-L}^T C_2(y)^2 dy (the
        arity-3 norm reduces to the same section integral for a symmetric
        kernel).  C_2(y) = <phi_y, R phi_y> = A(y) + d B(y) with
        A = <phi_y, R1 phi_y> >= 0 and B = <phi_y, v>^2; phi_y = e^{lam y} phi_0
        for y <= 0, so
            S = int_0^T (A + d B)^2 dy + (A(0) + d B(0))^2 (1 - e^{-4 lam L}) / (4 lam),
        lam A(0) = 2 lam^2 p1, lam B(0) = 2 (lam p0)^2.  Matching this in powers
        of d against the expansion of S in e^{-2 lam L} gives the three
        integrals over [0, T].

        Every part (Tr(R1^4), the p_k, the three integrals) is a nonnegative
        exponential polynomial in x, listed in _OU_NORM_PARTS, so no sum
        above cancels; see _ou_norm_parts for how they are evaluated.
        """
        lam, T = self.lam, self.T
        x = lam * T
        ell = lam * _ou_window_length(window, T)
        tr, p0, p1, p2, p3, s_aa, s_ab, s_bb = _ou_norm_parts(x)
        d = -math.expm1(-2.0 * ell)
        trace = tr + d * (4.0 * p3 + d * (4.0 * p0 * p2 + 2.0 * p1 ** 2
                                          + d * (4.0 * p0 ** 2 * p1 + d * p0 ** 4)))
        a0, b0 = 2.0 * p1, 2.0 * p0 ** 2
        sec = (s_aa + d * (2.0 * s_ab + d * s_bb)
               - 0.25 * math.expm1(-4.0 * ell) * (a0 + d * b0) ** 2)
        k2 = control.moment(2)
        n11 = k2 ** 4 * trace / x ** 4
        n21 = control.moment(4) * k2 ** 2 * sec / (lam ** 3 * T ** 4)
        return n11, n21, n21


@dataclass(frozen=True)
class OUDiagHstarKernel(Kernel):
    """Diagonal (single-integral) kernel of the time-averaged squared OU
    level: Hstar(u, x) = u^2 Ghat(x, x) / T on x <= T."""

    lam: float
    T: float
    arity = 1

    def __post_init__(self):
        _check_rate_and_horizon(self.lam, self.T)

    def __call__(self, u, x):
        g = ou_ghat(self.lam, self.T, x, x)
        return np.asarray(u) ** 2 * g / self.T

    def lp_norm(self, p, control, window):
        L = _ou_window_length(window, self.T)
        shape = _ou_shape_power_integral(p, 2.0 * self.lam, self.T, L)
        return control.abs_moment(2 * p) * shape / self.T ** p

    def integral(self, control, window):
        L = _ou_window_length(window, self.T)
        return control.moment(2) * _ou_shape_power_integral(1, 2.0 * self.lam, self.T, L) / self.T

    def support_excess(self, window):
        return _ou_shape_tail(2.0 * self.lam, self.T, window) / self.T ** 2


# ---------------------------------------------------------------------------
# hazard moving-average kernels k(t, x)
# ---------------------------------------------------------------------------


class HazardKernel:
    """Nonnegative moving-average kernel k(t, x) with closed-form time
    integrals; h(t) = sum_i u_i k(t, x_i)."""

    def __call__(self, t, x):
        raise NotImplementedError

    def time_integral(self, x, T):
        """w(x) = int_0^T k(s, x) ds."""
        raise NotImplementedError

    def path_integrals(self, u, x, T) -> tuple[float, float]:
        """(H(T), int_0^T h^2) of one pattern's atoms: sum_i u_i w(x_i) and
        sum_{i,j} u_i u_j int_0^T k(t, x_i) k(t, x_j) dt."""
        raise NotImplementedError

    def x_support(self, T: float) -> tuple[float, float]:
        """x-interval the atoms of a hazard model are sampled on: the smallest
        interval outside which k(t, .) vanishes for all t in [0, T], cut at
        x = 0 because hazard atoms live on x >= 0.  The rectangular kernel
        reaches back to x = -tau but returns (0, T + tau)."""
        raise NotImplementedError

    def power_integral(self, p: int, T: float) -> float:
        """int w(x)^p dx over x_support(T), w the time integral."""
        raise NotImplementedError


@dataclass(frozen=True)
class RectHazardKernel(HazardKernel):
    """k(t, x) = 1{|t - x| <= tau}: atom i adds u_i to h on the interval
    [x_i - tau, x_i + tau] cut to [0, T].  path_integrals gives H(T) and
    int h^2 from one set of interval ends."""

    tau: float

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf):
            raise ValueError("bandwidth must be positive and finite")

    def __call__(self, t, x):
        return (np.abs(np.asarray(t, dtype=float) - np.asarray(x, dtype=float)) <= self.tau).astype(float)

    def time_integral(self, x, T):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.0, np.minimum(x + self.tau, T) - np.maximum(x - self.tau, 0.0))

    def path_integrals(self, u, x, T):
        """(H(T), int_0^T h^2) in O(n log n), from one set of interval ends.

        Atom i adds u_i to h on [a_i, b_i] with a = max(x - tau, 0) and
        b = max(min(x + tau, T), a), so an atom outside the support has an
        empty interval.  H(T) = sum u (b - a), in the atoms' own order:
        b - a is time_integral bit for bit, so H is the dot
        hazard.cumulative_hazard takes.  For int h^2, one sweep: over atoms
        sorted by x, a and b are each sorted, and a stable argsort of (a, b)
        merges the two runs in linear time; the running sum of (u, -u) in
        that order is h on each elementary interval.  The running sum stays
        the size of h (prefix sums grow like n T), so plain float64
        suffices: against exact rational arithmetic on the same breakpoints
        it is off by about 1e-15 relative at T = 2e4 with five Exp(1) jumps
        per unit time.
        """
        u = np.asarray(u, dtype=float)
        x = np.asarray(x, dtype=float)
        a = np.maximum(x - self.tau, 0.0)
        b = np.maximum(np.minimum(x + self.tau, T), a)
        h_total = _dot(u, b - a)
        order = x.argsort()
        u, a, b = u[order], a[order], b[order]
        t = np.concatenate([a, b])
        merge = t.argsort(kind="stable")
        t = t[merge]
        h = np.concatenate([u, -u])[merge].cumsum()
        return h_total, _dot(h[:-1] ** 2, t[1:] - t[:-1])

    def x_support(self, T):
        return (0.0, T + self.tau)

    def power_integral(self, p, T):
        """Closed form: on [0, T + tau], w rises as x + tau on [0, r] with
        r = clip(T - tau, 0, tau), is flat at c = min(T, 2 tau) and falls to
        0 with slope -1 over its last c."""
        tau = self.tau
        r = min(max(T - tau, 0.0), tau)
        c = min(T, 2.0 * tau)
        rise = ((tau + r) ** (p + 1) - tau ** (p + 1)) / (p + 1)
        return rise + c ** p * (T + tau - r - c) + c ** (p + 1) / (p + 1)
