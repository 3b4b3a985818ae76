"""Contraction norms of quadratic kernels.

``contraction_norms`` checks the arity and asks the kernel's own
``contraction_norms`` method, which is closed-form for every family.  The
pointwise contractions f *_r^l g themselves are materialized only by the
product-expansion oracle of the tests.
"""

from __future__ import annotations

from .kernels import ContractionError, Kernel, _check_arity
from .point_process import ControlMeasure, Window

__all__ = ["ContractionError", "contraction_norms"]


def contraction_norms(f: Kernel, control: ControlMeasure, window: Window):
    """Squared norms ||f *_1^1 f||^2, ||f *_2^1 f||^2, ||f *_1^0 f||^2 of an
    arity-2 kernel; see ``Kernel.contraction_norms``."""
    _check_arity(f, 2)
    return f.contraction_norms(control, window)
