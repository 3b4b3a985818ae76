"""Contraction operators on quadratic kernels.

``star`` identifies r variable pairs between two symmetric arity-2 kernels
and integrates l of them out against the control.  It works on each
kernel's ``as_grid`` view, so outputs of arity <= 2 are materialized exactly
for grid, block and scaled kernels; cubic and quartic grids are never
stored.
``contraction_norms`` checks the arity and asks the kernel's own
``contraction_norms`` method, which is closed-form for every family.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def star(f: Kernel, g: Kernel, idx: ContractionIndex,
         control: ControlMeasure, window: Window):
    """Contraction f *_r^l g for p = q = 2, on the kernels' grid views.

    Returns a scalar for (r, l) = (2, 2), a GridKernel for (1, 1), (2, 1) and
    (2, 0).  The arity-3/4 outputs (l = 0, r < 2) and kernels without a grid
    view raise ContractionError.
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
    raise ContractionError(f"f *_{r}^{l} g has arity {4 - r - l}; only arity <= 2 is materialized")


def contraction_norms(f: Kernel, control: ControlMeasure, window: Window):
    """Squared norms ||f *_1^1 f||^2, ||f *_2^1 f||^2, ||f *_1^0 f||^2 of an
    arity-2 kernel; see ``Kernel.contraction_norms``."""
    _check_arity(f, 2)
    return f.contraction_norms(control, window)
