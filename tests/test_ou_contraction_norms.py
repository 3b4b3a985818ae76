"""Closed-form contraction norms of the OU pair kernel against a 50-digit
evaluation of the expansions in c = e^{-2 lam L} and against the panel
quadrature oracle."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_chaos.kernels import (
    _EXP_POLY_DEN, _EXP_POLY_SWITCH, _OU_NORM_PARTS, OUDoubleHKernel, _exp_poly_series,
    _horner, _ou_norm_parts,
)
from poisson_chaos.point_process import DiscreteControl, Window

from ou_contraction_oracle import contraction_norms_by_quadrature

UNIT = DiscreteControl(values=(1.0,), weights=(1.0,))


def reference_norms(lam, T, L):
    """(n11, n21) for unit jumps from the expansions in c, at 50 digits.

    lam^4 Tr(R^4) = Tr0 - 4c m3 + c^2 (4 m0 m2 + 2 m1^2) - 4c^3 m0^2 m1 + c^4 m0^4
    lam^3 S = x - 9/8 + (x + 3/2) e2 - (x/2 + 3/8) e4 + sum_k e^{-2k lam L} P_k
    with x = lam T and e_j = e^{-j x}.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        D = Decimal
        lam, T, L = D(lam), D(T), D(L)
        x, ell = lam * T, lam * L
        e2, e4, e6 = ((-j * x).exp() for j in (2, 4, 6))
        c = (-2 * ell).exp()
        tr0 = 5 * x / 2 - D(29) / 8 + (2 * x ** 2 + 5 * x + D(7) / 2) * e2 + e4 / 8
        m0 = (1 - e2) / 2
        m1 = D(1) / 2 - (x + D(1) / 2) * e2
        m2 = D(5) / 8 - (x ** 2 + 3 * x / 2 + D(1) / 2) * e2 - e4 / 8
        m3 = (D(7) / 8 - (2 * x ** 3 / 3 + 2 * x ** 2 + 2 * x + D(1) / 2) * e2
              - (x / 2 + D(3) / 8) * e4)
        trace = (tr0 - 4 * c * m3 + c ** 2 * (4 * m0 * m2 + 2 * m1 ** 2)
                 - 4 * c ** 3 * m0 ** 2 * m1 + c ** 4 * m0 ** 4)
        p1 = (x ** 2 * e2 + 7 * x * e2 / 2 + x * e4 - D(3) / 4 - 7 * e2 / 8 + 7 * e4 / 4
              - e6 / 8)
        p2 = -x ** 2 * e4 + x * e2 + x * e4 / 2 - D(1) / 8 - e2 / 4 + e4 / 8 + e6 / 4
        p3 = (-x * e2 / 2 + x * e4 - x * e6 / 2 + D(1) / 4 - 3 * e2 / 4 + 3 * e4 / 4
              - e6 / 4)
        p4 = -(1 - e2) ** 4 / 16
        sec = (x - D(9) / 8 + (x + D(3) / 2) * e2 - (x / 2 + D(3) / 8) * e4
               + sum(c ** k * p for k, p in enumerate((p1, p2, p3, p4), 1)))
        return float(trace / x ** 4), float(sec / (lam ** 3 * T ** 4))


def closed_form(lam, T, L, control=UNIT):
    return OUDoubleHKernel(lam, T).contraction_norms(control, Window(-L, T))


# lam T on both sides of the series/direct switch, and across [1e-3, 1e4]
_XS = sorted(set(np.geomspace(1e-3, 1e4, 29).tolist()
                 + [_EXP_POLY_SWITCH * (1 + d) for d in (-1e-9, -1e-3, 0.0, 1e-3)]))


@pytest.mark.parametrize("ells, rtol", [((0.5, 1.0, 3.0, 12.0, 60.0), 1e-12),
                                        ((0.0, 0.01, 0.05, 0.2, 0.49), 1e-9)])
@pytest.mark.parametrize("lam", [0.3, 1.0, 4.0])
def test_matches_50_digit_reference(lam, ells, rtol):
    worst = 0.0
    for x in _XS:
        for ell in ells:
            T, L = x / lam, ell / lam
            got = closed_form(lam, T, L)
            want = reference_norms(lam, T, L)
            for g, w in zip(got[:2], want):
                worst = max(worst, abs(g / w - 1.0))
    assert worst <= rtol


# The parts of _OU_NORM_PARTS as the rationals they stand for, written out
# independently of the kernel module's integer table.
_RATIONAL_PARTS = {
    "trace_r1": {0: ("-93/16", "5/2"), 2: ("7/2", "9", "8", "8/3"),
                 4: ("7/4", "5", "4"), 6: ("1/2", "1"), 8: ("1/16",)},
    "p0": {0: ("1/2",), 2: ("-1/2",)},
    "p1": {0: ("1/4",), 2: ("0", "-1"), 4: ("-1/4",)},
    "p2": {0: ("1/4",), 2: ("1/8", "-1/2", "-1"), 4: ("-1/4", "-1"), 6: ("-1/8",)},
    "p3": {0: ("5/16",), 2: ("1/4", "-1/4", "-1", "-2/3"), 4: ("-1/4", "-3/2", "-2"),
           6: ("-1/4", "-3/4"), 8: ("-1/16",)},
    "s_aa": {0: ("-29/16", "1"), 2: ("-1/8", "5", "1"), 4: ("15/8", "2", "-1"),
             6: ("1/8", "-1/2"), 8: ("-1/16",)},
    "s_ab": {0: ("3/16",), 2: ("21/16", "-3/2", "-1/2"), 4: ("-5/4", "-5/2"),
             6: ("-5/16", "1/4"), 8: ("1/16",)},
    "s_bb": {0: ("1/16",), 2: ("-1/2",), 4: ("0", "3/2"), 6: ("1/2",), 8: ("-1/16",)},
}


def direct_part(name, x):
    """One part by its direct sum, fsum of horner(P_j) e^{-j x} over j, with
    every coefficient rounded once from its rational and its own e^{-j x}."""
    return math.fsum(_horner([float(Fraction(c)) for c in reversed(cs)], x) * math.exp(-j * x)
                     for j, cs in _RATIONAL_PARTS[name].items())


def test_integer_table_is_the_rationals():
    assert list(_OU_NORM_PARTS) == list(_RATIONAL_PARTS)
    for name, part in _RATIONAL_PARTS.items():
        want = {j: tuple(Fraction(c) for c in cs) for j, cs in part.items()}
        got = {j: tuple(Fraction(c, _EXP_POLY_DEN) for c in cs)
               for j, cs in _OU_NORM_PARTS[name].items()}
        assert got == want, name


def test_one_pass_equals_each_part_summed_alone():
    # at and above the switch, one call gives every part bit for bit as its
    # own direct sum does
    xs = np.geomspace(_EXP_POLY_SWITCH, 1e4, 97).tolist()
    for x in xs:
        assert _ou_norm_parts(x) == [direct_part(name, x) for name in _RATIONAL_PARTS], x


@pytest.mark.parametrize("name", list(_OU_NORM_PARTS))
def test_part_branches_agree_around_switch(name):
    # both evaluation branches of every part are accurate from about x = 1.05
    # (direct sum) up to about x = 2 (40-term series), around the switch
    h, series = _exp_poly_series(name)
    for x in (1.2, _EXP_POLY_SWITCH, 1.8):
        by_series = math.exp(-h * x) * _horner(series, x)
        assert by_series > 0.0
        assert by_series == pytest.approx(direct_part(name, x), rel=1e-13)


def test_series_branch_is_built_only_below_the_switch():
    # the 40-term big-integer series costs milliseconds; horizons with
    # lam T >= _EXP_POLY_SWITCH evaluate the direct sums alone
    _exp_poly_series.cache_clear()
    closed_form(1.0, 50.0, 12.0)
    assert _exp_poly_series.cache_info().currsize == 0
    closed_form(1.0, 1.0, 12.0)
    assert _exp_poly_series.cache_info().currsize == len(_OU_NORM_PARTS)


def test_moments_and_scale_enter_as_powers():
    jumps = DiscreteControl(values=(2.0, -0.5), weights=(0.3, 0.7))
    n11, n21, n10 = closed_form(0.8, 30.0, 15.0, jumps)
    u11, u21, _ = closed_form(0.8, 30.0, 15.0)
    k2, k4 = jumps.moment(2), jumps.moment(4)
    assert n11 == pytest.approx(k2 ** 4 * u11, rel=1e-14)
    assert n21 == n10 == pytest.approx(k4 * k2 ** 2 * u21, rel=1e-14)


def test_window_starting_after_zero_refused():
    with pytest.raises(ValueError, match="at or below 0"):
        OUDoubleHKernel(1.0, 10.0).contraction_norms(UNIT, Window(0.5, 10.0))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.05, 5.0), x=st.floats(0.05, 2000.0), ell=st.floats(0.5, 40.0))
def test_matches_quadrature_oracle(lam, x, ell):
    T, L = x / lam, ell / lam
    kern = OUDoubleHKernel(lam, T)
    w = Window(-L, T)
    n11, n21, n10 = kern.contraction_norms(UNIT, w)
    q11, q21, q10, _ = contraction_norms_by_quadrature(kern, UNIT, w)
    assert n11 == pytest.approx(q11, rel=1e-9)
    assert n21 == pytest.approx(q21, rel=1e-9)
    assert n10 == pytest.approx(q10, rel=1e-9)
