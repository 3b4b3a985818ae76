"""Kernels and CSV readers that only the tests use.

- ``grid_to_csv`` / ``grid_from_csv``: a round-trip format for grid kernels.
- ``pattern_from_csv``: reads back the atoms of the pattern.csv that
  ``poisson-chaos sample`` writes.
- ``OUInstantKernel``: the pair kernel of the squared OU level at one
  instant, the oracle of the pathwise square identity.
- ``sqrt4_section_integral``: int (int f(z, w)^4 mu(dw))^{1/2} mu(dz), the
  fourth-power integrability quantity, exact for grid, block and scaled
  kernels and by panel quadrature for the OU pair kernel.
- ``DenseHazardKernel``: ``path_integrals`` with int h^2 as the dense
  O(n^2) pair sum of ``pair_time_integral``, the base of
  ``DykstraLaudHazardKernel`` and ``OUHazardKernel``.  The rectangular
  kernel's dense reference is ``hazard_path_oracle.rect_pair_time_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poisson_chaos.kernels import (
    BlockKernel, GridKernel, HazardKernel, Kernel, OUDoubleHKernel, ScaledKernel,
    _check_dense_budget,
)
from poisson_chaos.quadrature import _dot

from ou_contraction_oracle import ou_sqrt4_section_integral


def grid_to_csv(kernel: GridKernel, path) -> None:
    """row,col,value triples with a sidecar '<path>.meta' describing the partition."""
    vals = kernel.values
    with open(str(path) + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"arity = {kernel.arity}\n")
        fh.write("edges = " + ",".join(repr(e) for e in kernel.edges) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,value\n")
        if kernel.arity == 1:
            for a, v in enumerate(vals):
                fh.write(f"{a},0,{float(v)!r}\n")
        else:
            for a in range(vals.shape[0]):
                for b in range(vals.shape[1]):
                    fh.write(f"{a},{b},{float(vals[a, b])!r}\n")


def grid_from_csv(path) -> GridKernel:
    meta = {}
    with open(str(path) + ".meta", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.partition("=")
            meta[key.strip()] = val.strip()
    edges = tuple(float(t) for t in meta["edges"].split(","))
    arity = int(meta["arity"])
    k = len(edges) - 1
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if arity == 1:
        vals = np.zeros(k)
        for row, _, v in data:
            vals[int(row)] = v
    else:
        vals = np.zeros((k, k))
        for row, col, v in data:
            vals[int(row), int(col)] = v
    return GridKernel(edges, vals)


def pattern_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if data.size == 0:
        return np.empty(0), np.empty(0)
    return data[:, 0], data[:, 1]


@dataclass(frozen=True)
class OUInstantKernel(Kernel):
    """Pair kernel of the squared OU level at one instant t:
    2 lam u u' e^{-lam(t-x) - lam(t-x')} on (-inf, t]^2."""

    lam: float
    t: float
    arity = 2

    def __call__(self, u1, x1, u2, x2):
        lam, t = self.lam, self.t
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        inside = (x1 <= t) & (x2 <= t)
        val = 2.0 * lam * np.asarray(u1) * np.asarray(u2) * np.exp(-lam * (2.0 * t - x1 - x2))
        return np.where(inside, val, 0.0)

    def symmetrize(self):
        return self

    def lp_norm(self, p, control, window):
        lam, t = self.lam, self.t
        L = -window.x_lo
        time_part = (1.0 - math.exp(-p * lam * (t + L))) / (p * lam)
        return control.abs_moment(p) ** 2 * (2.0 * lam) ** p * time_part ** 2

    def partial_integral(self, control, window, u, x):
        lam, t = self.lam, self.t
        k1 = control.moment(1)
        x = np.asarray(x, dtype=float)
        L = -window.x_lo
        time_part = (1.0 - math.exp(-lam * (t + L))) / lam
        val = 2.0 * lam * np.asarray(u) * np.exp(-lam * (t - x)) * k1 * time_part
        return np.where(x <= t, val, 0.0)

    def double_integral(self, control, window):
        lam, t = self.lam, self.t
        k1 = control.moment(1)
        L = -window.x_lo
        time_part = (1.0 - math.exp(-lam * (t + L))) / lam
        return 2.0 * lam * k1 ** 2 * time_part ** 2


def sqrt4_section_integral(kernel: Kernel, control, window) -> float:
    """int (int f(z, w)^4 mu(dw))^{1/2} mu(dz) of a grid, block, OU pair or
    scaled kernel; a scaled kernel gives factor^2 times its base's value."""
    if isinstance(kernel, ScaledKernel):
        return kernel.factor ** 2 * sqrt4_section_integral(kernel.base, control, window)
    if isinstance(kernel, GridKernel):
        # exact cell sum: sum_a m_a (sum_b m_b v_ab^4)^{1/2}
        m = kernel.cell_masses(control)
        return float(m @ np.sqrt(kernel.values ** 4 @ m))
    if isinstance(kernel, BlockKernel):
        # each block contributes m (c^4 m)^{1/2}
        m = kernel._block_mass(control)
        return kernel.n * kernel.coef ** 2 * m ** 1.5
    if isinstance(kernel, OUDoubleHKernel):
        return ou_sqrt4_section_integral(kernel, control, window)
    raise TypeError(f"no fourth-power section oracle for {type(kernel).__name__}")


class DenseHazardKernel(HazardKernel):
    """Hazard kernels whose int h^2 is the dense pair sum of their
    pair_time_integral, int_0^T k(t, x1) k(t, x2) dt."""

    def path_integrals(self, u, x, T) -> tuple[float, float]:
        """(H(T), int_0^T h^2) with
        int_0^T h^2 = sum_{i,j} u_i u_j int_0^T k(t, x_i) k(t, x_j) dt.

        Dense: evaluates the n x n pair-time-integral matrix, O(n^2) time and
        memory, and refuses matrices over DENSE_PAIR_BYTES_MAX.
        """
        u = np.asarray(u, dtype=float)
        x = np.asarray(x, dtype=float)
        if not x.size:
            return 0.0, 0.0
        _check_dense_budget(x.size)
        return (_dot(u, self.time_integral(x, T)),
                float(u @ self.pair_time_integral(x[:, None], x[None, :], T) @ u))


@dataclass(frozen=True)
class DykstraLaudHazardKernel(DenseHazardKernel):
    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return ((x >= 0.0) & (x <= t)).astype(float)

    def time_integral(self, x, T):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, np.maximum(T - x, 0.0), 0.0)

    def pair_time_integral(self, x1, x2, T):
        m = np.maximum(np.asarray(x1), np.asarray(x2))
        return np.where(m >= 0.0, np.maximum(T - m, 0.0), 0.0)

    def x_support(self, T):
        return (0.0, T)


@dataclass(frozen=True)
class OUHazardKernel(DenseHazardKernel):
    lam: float

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= t)
        return np.where(inside, math.sqrt(2.0 * self.lam) * np.exp(-self.lam * (t - x)), 0.0)

    def time_integral(self, x, T):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= T)
        return np.where(inside,
                        math.sqrt(2.0 * self.lam) * (1.0 - np.exp(-self.lam * (T - x))) / self.lam,
                        0.0)

    def pair_time_integral(self, x1, x2, T):
        lam = self.lam
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        m = np.maximum(x1, x2)
        inside = (np.minimum(x1, x2) >= 0.0) & (m <= T)
        val = np.exp(-lam * np.abs(x1 - x2)) - np.exp(lam * (x1 + x2 - 2.0 * T))
        return np.where(inside, val, 0.0)

    def x_support(self, T):
        return (0.0, T)
