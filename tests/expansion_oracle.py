"""Product expansion of I_p(f) I_q(g) on grid kernels, the oracle of the
pathwise product-formula tests.

``product_expand`` lists, for each r <= p ^ q and l <= r, the term of order
p + q - r - l with coefficient r! C(p,r) C(q,r) C(r,l) and kernel
sym(f *_r^l g).  ``star`` computes the p = q = 2 contractions on the
kernels' ``as_grid`` views (grid, block and scaled kernels): outputs of
arity <= 2 are materialized exactly, the arity-3 and arity-4 outputs
(l = 0, r < 2) are lazy tensor views, so cubic and quartic grids are never
stored.  First-order terms are
materialized on shared grids.  Mixed orders (p != q) are not expanded:
their r = 0 term has arity 3 and no lazy view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poisson_chaos.kernels import (BlockKernel, ContractionError, GridKernel, Kernel,
                                   ScaledKernel, _check_arity)
from poisson_chaos.point_process import ControlMeasure, Window


def as_grid(kernel: Kernel) -> GridKernel:
    """The kernel as a cell-constant grid, on which contractions are
    materialized exactly: a grid kernel is its own view, a block kernel is
    the diagonal grid on its unit blocks, and a scaled kernel is its base's
    view times the factor."""
    if isinstance(kernel, GridKernel):
        return kernel
    if isinstance(kernel, ScaledKernel):
        grid = as_grid(kernel.base)
        return GridKernel(grid.edges, kernel.factor * grid.values)
    if isinstance(kernel, BlockKernel):
        return GridKernel(tuple(float(j) for j in range(kernel.n + 1)),
                          kernel.coef * np.eye(kernel.n))
    raise ContractionError(
        "pointwise contractions are materialized for grid/block kernels only; "
        "use contraction_norms for analytic families")


@dataclass(frozen=True)
class LazyTensorKernel(Kernel):
    """f *_r^0 g views of arity 3 or 4 (never materialized as grids)."""

    f: Kernel
    g: Kernel
    r: int

    def __post_init__(self):
        object.__setattr__(self, "arity", 4 - self.r)

    def __call__(self, *coords):
        if self.arity == 4:
            u1, x1, u2, x2, u3, x3, u4, x4 = coords
            return self.f(u1, x1, u2, x2) * self.g(u3, x3, u4, x4)
        ug, xg, u1, x1, u2, x2 = coords
        return self.f(ug, xg, u1, x1) * self.g(ug, xg, u2, x2)


@dataclass(frozen=True)
class ContractionIndex:
    """r identified variable pairs, l of them integrated out; 0 <= l <= r <= p ^ q."""

    r: int
    l: int

    def __post_init__(self):
        if not (0 <= self.l <= self.r):
            raise ContractionError(f"need 0 <= l <= r, got r={self.r}, l={self.l}")

    def validate(self, p: int, q: int):
        if self.r > min(p, q):
            raise ContractionError(f"r={self.r} exceeds min arity {min(p, q)}")


def star(f: Kernel, g: Kernel, idx: ContractionIndex,
         control: ControlMeasure, window: Window):
    """Contraction f *_r^l g for p = q = 2, on the kernels' grid views.

    Returns a scalar for (r, l) = (2, 2), a GridKernel for (1, 1), (2, 1) and
    (2, 0), and a LazyTensorKernel for (0, 0) and (1, 0).  Kernels without a
    grid view, or on different partitions, raise ContractionError.
    """
    _check_arity(f, 2)
    _check_arity(g, 2)
    idx.validate(2, 2)
    f, g = as_grid(f), as_grid(g)
    if f.edges != g.edges:
        raise ContractionError("grid kernels must share a partition")
    r, l = idx.r, idx.l
    if l == 0 and r < 2:
        return LazyTensorKernel(f, g, r)
    m = f.cell_masses(control)
    vf, vg = f.values, g.values
    if (r, l) == (1, 1):
        return GridKernel(f.edges, (vf * m[:, None]).T @ vg)
    if (r, l) == (2, 1):
        return GridKernel(f.edges, (vf * vg).T @ m)
    if (r, l) == (2, 2):
        return float(m @ (vf * vg) @ m)
    return GridKernel(f.edges, vf * vg)


@dataclass(frozen=True)
class ExpansionTerm:
    order: int        # chaos order p + q - r - l of the term
    r: int
    l: int
    coefficient: float
    kernel: object    # Kernel of matching arity, or a scalar for order 0


@dataclass(frozen=True)
class ProductExpansion:
    p: int
    q: int
    terms: tuple[ExpansionTerm, ...]

    def constant(self) -> float:
        return sum(t.coefficient * t.kernel for t in self.terms if t.order == 0)


def product_expand(p: int, q: int, f: Kernel, g: Kernel,
                   control: ControlMeasure, window: Window) -> ProductExpansion:
    """Expansion of I_p(f) I_q(g) into single terms: for each r <= p ^ q and
    l <= r, a term of order p + q - r - l with coefficient
    r! C(p,r) C(q,r) C(r,l) and kernel sym(f *_r^l g).

    Terms with equal order but different (r, l) are kept separate.
    """
    if (p, q) not in {(1, 1), (2, 2)}:
        raise ContractionError("orders p = q must lie in {1, 2}")
    _check_arity(f, p)
    _check_arity(g, q)
    terms = []
    for r in range(min(p, q) + 1):
        for l in range(r + 1):
            coef = math.factorial(r) * math.comb(p, r) * math.comb(q, r) * math.comb(r, l)
            kern = _star_general(p, q, f, g, r, l, control, window)
            terms.append(ExpansionTerm(order=p + q - r - l, r=r, l=l,
                                       coefficient=float(coef), kernel=kern))
    return ProductExpansion(p=p, q=q, terms=tuple(terms))


def _star_general(p, q, f, g, r, l, control, window):
    if p == 2 and q == 2:
        return star(f, g, ContractionIndex(r, l), control, window)
    if p == 1 and q == 1:
        if (r, l) == (0, 0):
            return _sym_outer(f, g)
        if (r, l) == (1, 0):
            return _pointwise_product(f, g)
        if (r, l) == (1, 1):
            return _inner_product(f, g, control, window)
    raise ContractionError(f"unsupported (p={p}, q={q}, r={r}, l={l})")


def _require_grids(*kernels):
    for k in kernels:
        if not isinstance(k, GridKernel):
            raise ContractionError("this expansion path materializes grid kernels only")
    edges = kernels[0].edges
    if any(k.edges != edges for k in kernels):
        raise ContractionError("grid kernels must share a partition")


def _sym_outer(g: GridKernel, h: GridKernel) -> GridKernel:
    _require_grids(g, h)
    outer = np.outer(g.values, h.values)
    return GridKernel(g.edges, 0.5 * (outer + outer.T))


def _pointwise_product(g: GridKernel, h: GridKernel) -> GridKernel:
    _require_grids(g, h)
    return GridKernel(g.edges, g.values * h.values)


def _inner_product(g: GridKernel, h: GridKernel, control, window) -> float:
    _require_grids(g, h)
    m = g.cell_masses(control)
    return float(np.sum(g.values * h.values * m))
