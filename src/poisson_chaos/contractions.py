"""Contraction operators on quadratic kernels and the product expansion.

``star`` identifies r variable pairs between two symmetric arity-2 kernels
and integrates l of them out against the control.  It works on each
kernel's ``as_grid`` view, so outputs of arity <= 2 are materialized exactly
for grid, block and scaled kernels; arity-3 and arity-4 results are returned
as lazy views, so cubic and quartic grids are never stored.
``contraction_norms`` checks the arity and asks the kernel's own
``contraction_norms`` method, which is closed-form for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import ContractionError, GridKernel, Kernel, _check_arity
from .point_process import ControlMeasure, Window


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


def star(f: Kernel, g: Kernel, idx: ContractionIndex,
         control: ControlMeasure, window: Window):
    """Contraction f *_r^l g for p = q = 2, on the kernels' grid views.

    Returns a scalar for (r, l) = (2, 2), a Kernel otherwise; arity-3/4
    outputs are lazy tensor views.  Kernels without a grid view raise
    ContractionError.
    """
    _check_arity(f, 2)
    _check_arity(g, 2)
    idx.validate(2, 2)
    f, g = f.as_grid(), g.as_grid()
    if f.edges != g.edges:
        raise ContractionError("grid kernels must share a partition")
    m = f.cell_masses(control, window)
    vf, vg = f.values, g.values
    r, l = idx.r, idx.l
    if (r, l) == (1, 1):
        return GridKernel(f.edges, (vf * m[:, None]).T @ vg)
    if (r, l) == (2, 1):
        return GridKernel(f.edges, (vf * vg).T @ m)
    if (r, l) == (2, 2):
        return float(m @ (vf * vg) @ m)
    if (r, l) == (2, 0):
        return GridKernel(f.edges, vf * vg)
    if (r, l) == (1, 0) or (r, l) == (0, 0):
        return LazyTensorKernel(f, g, r)
    raise ContractionError(f"unsupported contraction (r={r}, l={l}) for arity-2 kernels")


def contraction_norms(f: Kernel, control: ControlMeasure, window: Window):
    """Squared norms ||f *_1^1 f||^2, ||f *_2^1 f||^2, ||f *_1^0 f||^2 of an
    arity-2 kernel; see ``Kernel.contraction_norms``."""
    _check_arity(f, 2)
    return f.contraction_norms(control, window)


# ---------------------------------------------------------------------------
# product expansion
# ---------------------------------------------------------------------------


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
    if (p, q) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
        raise ContractionError("orders p, q must lie in {1, 2}")
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
    if {p, q} == {1, 2}:
        one, two = (f, g) if p == 1 else (g, f)
        if (r, l) == (0, 0):
            return LazyMixedTensor(one, two)
        if (r, l) == (1, 0):
            return _mixed_contraction(one, two, integrate=False, control=control, window=window)
        if (r, l) == (1, 1):
            return _mixed_contraction(one, two, integrate=True, control=control, window=window)
    raise ContractionError(f"unsupported (p={p}, q={q}, r={r}, l={l})")


@dataclass(frozen=True)
class LazyMixedTensor(Kernel):
    one: Kernel
    two: Kernel
    arity = 3

    def __call__(self, u1, x1, u2, x2, u3, x3):
        return self.one(u1, x1) * self.two(u2, x2, u3, x3)


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
    m = g.cell_masses(control, window)
    return float(np.sum(g.values * h.values * m))


def _mixed_contraction(one: GridKernel, two: GridKernel, integrate: bool, control, window):
    _require_grids(one, two)
    if integrate:
        m = one.cell_masses(control, window)
        return GridKernel(one.edges, (one.values * m) @ two.values)
    # identify one variable, no integration: k(a, b) = one(a) two(a, b), symmetrized
    vals = one.values[:, None] * two.values
    return GridKernel(one.edges, 0.5 * (vals + vals.T))
