"""quadpack.qags against scipy's own dqagse, compared with ==: the result,
the error estimate, the flag, the evaluation count and every subdivision
list.  scipy gets the same integrand one point at a time; qags gets it a
21-point rule at a time, which for elementwise numpy gives the same values.
"""

import numpy as np
import pytest

from poisson_chaos import hazard
from poisson_chaos.point_process import BetaControl, ExtendedGammaControl, Window
from poisson_chaos.quadpack import qags

_qagse = pytest.importorskip("scipy.integrate._quadpack")._qagse
quad = pytest.importorskip("scipy.integrate").quad


def assert_matches_scipy(f, a, b, epsabs, epsrel, limit):
    port = qags(f, a, b, epsabs, epsrel, limit)
    result, abserr, info, ier = _qagse(lambda x: float(f(np.array([x]))[0]), a, b, (), 1,
                                       epsabs, epsrel, limit)
    last = info["last"]
    assert (port.result, port.abserr, port.ier, port.neval, port.last) == (
        result, abserr, ier, info["neval"], last)
    for name in ("alist", "blist", "rlist", "elist"):
        assert getattr(port, name) == info[name][:last].tolist(), name
    # dqpsrt writes only the first min(last, limit // 2 + 2) positions of iord
    assert port.iord == info["iord"][:min(last, limit // 2 + 2)].tolist()
    return port


def campbell_case(case, T, power):
    control = ExtendedGammaControl() if case == 2 else BetaControl()
    model = hazard.rect_model(control, T)
    return (hazard._campbell_integrand(model, power), model.window.x_lo, model.window.x_hi,
            1e-11, 1e-9, 800)


CAMPBELL = [(case, T, power) for case, horizons in ((2, (50.0, 200.0, 1e4)), (3, (50.0, 200.0)))
            for T in horizons for power in (1, 2)]


@pytest.mark.parametrize("case, T, power", CAMPBELL)
def test_campbell_integrands(case, T, power):
    assert assert_matches_scipy(*campbell_case(case, T, power)).ier == 0


BATTERY = {
    # an endpoint square-root singularity, and an integrable one of 1/sqrt
    "sqrt": (np.sqrt, 0.0, 1.0, 1e-11, 1e-9, 800),
    "inverse-sqrt": (lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 1.0, 1.49e-8,
                     1.49e-8, 50),
    "kink": (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, 1e-11, 1e-9, 800),
    "smooth": (lambda x: np.exp(-x * x), -1.0, 3.0, 1.49e-8, 1.49e-8, 50),
    "oscillatory": (lambda x: np.cos(50.0 * x) * np.exp(-x), 0.0, 10.0, 1e-11, 1e-9, 800),
    "reversed": (np.sqrt, 1.0, 0.0, 1.49e-8, 1.49e-8, 50),
    "zero": (lambda x: 0.0 * x, 0.0, 1.0, 1.49e-8, 1.49e-8, 50),
}

# (integrand, a, b, epsabs, epsrel, limit, the flag it stops with)
STOPS = {
    "limit": (lambda x: np.sin(300.0 * x), 0.0, 7.0, 1e-12, 1e-12, 30, 1),
    "limit-one": (np.sqrt, 0.0, 1.0, 1e-14, 1e-14, 1, 1),
    "limit-extrapolated": (lambda x: np.maximum(x, 1e-300) ** -0.9, 0.0, 1.0, 1e-14, 1e-14,
                           8, 1),
    "roundoff": (lambda x: np.sign(x - 0.3), 0.0, 1.0, 0.0, 2e-14, 400, 2),
    "extrapolation-roundoff": (lambda x: np.maximum(x, 1e-300) ** -0.9, 0.0, 1.0, 0.0, 2e-14,
                               400, 4),
    "divergent": (lambda x: np.maximum(x, 1e-300) ** -1.5, 0.0, 1.0, 1e-8, 1e-8, 200, 5),
    "tolerance": (np.sqrt, 0.0, 1.0, 0.0, 1e-30, 50, 6),
}


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_battery(name):
    assert assert_matches_scipy(*BATTERY[name]).ier == 0


@pytest.mark.parametrize("name", sorted(STOPS))
def test_stops_with_scipy_flag(name):
    *args, ier = STOPS[name]
    assert assert_matches_scipy(*args).ier == ier


def test_random_kinked_oscillatory_integrands():
    rng = np.random.default_rng(20260522)
    flags = set()
    for _ in range(40):
        c, p, w = rng.uniform(-1.0, 2.0), rng.uniform(-0.95, 2.0), rng.uniform(1.0, 200.0)
        f = lambda x, c=c, p=p, w=w: (np.abs(x - c) + 1e-300) ** p * np.cos(w * x)
        flags.add(assert_matches_scipy(f, -1.0, 2.5, 10 ** rng.uniform(-14, -6),
                                       10 ** rng.uniform(-14, -4),
                                       int(rng.integers(2, 300))).ier)
    assert {0, 1} <= flags


def test_campbell_values_are_the_scipy_quad_values():
    """The Campbell integrals equal quad of the integrand with scipy's
    incomplete Gamma function, at the recorded case-2 horizons."""
    from scipy.special import gammaincc
    for control, T in ((ExtendedGammaControl(), 50.0), (ExtendedGammaControl(), 200.0),
                       (ExtendedGammaControl(), 1e4), (ExtendedGammaControl(eps=1e-3), 50.0)):
        model = hazard.rect_model(control, T)
        for power, exact in ((1, hazard.cumulative_mean_exact),
                             (2, hazard.cumulative_variance_exact)):
            def f(x):
                b = control.beta(x)
                w = model.kernel.time_integral(np.array([x]), T)[0]
                return float(gammaincc(power, b * control.eps) / b ** power) * w ** power
            assert exact(model) == quad(f, model.window.x_lo, model.window.x_hi,
                                        epsabs=1e-11, epsrel=1e-9, limit=800)[0]


@pytest.mark.parametrize("x_lo, x_hi", [(0.0, 50.0), (3.0, 7.0), (0.0, 10001.0)])
def test_extended_gamma_mass_is_the_scipy_quad_value(x_lo, x_hi):
    control = ExtendedGammaControl()
    assert control.mass(Window(x_lo, x_hi)) == quad(control.x_mass, x_lo, x_hi, epsabs=1e-11,
                                                    epsrel=1e-9, limit=400)[0]


def test_refuses_an_empty_subdivision():
    with pytest.raises(ValueError, match="limit"):
        qags(np.sqrt, 0.0, 1.0, 1.49e-8, 1.49e-8, 0)
