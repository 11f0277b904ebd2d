"""Special-function kernel: Gamma pair and Gauss 2F1 against independent
oracles (scipy.special, exact rational series, frozen high-precision values).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from blowlab.errors import DomainError
from blowlab.specfun import hyp2f1, rgamma
from blowlab.specfun import _connection_regular, _digamma, _series
from blowlab.spectral import _hyp_params


def test_rgamma_exact_pole_zeros():
    for x in (0.0, -1.0, -2.0, -7.0, -23.0):
        assert rgamma(x) == 0.0


def test_rgamma_known_values():
    assert rgamma(3.0) == pytest.approx(0.5, rel=1e-13)
    assert rgamma(1.0) == pytest.approx(1.0, rel=1e-13)


def test_rgamma_against_scipy_sweep():
    xs = np.linspace(-30.0, 30.0, 3001)
    for x in xs:
        ref = sps.rgamma(x)
        if abs(ref) < 1e-280:
            continue
        assert rgamma(x) == pytest.approx(ref, rel=1e-12)


def test_rgamma_lngamma_inverse_identity():
    xs = np.linspace(0.1, 30.0, 999)
    worst = max(abs(rgamma(x) * math.exp(math.lgamma(x)) - 1.0) for x in xs)
    assert worst <= 1e-12


def test_digamma_against_scipy():
    xs = np.concatenate([np.linspace(0.05, 25.0, 400),
                         np.linspace(-8.97, -0.03, 200)])
    for x in xs:
        if abs(x - round(x)) < 1e-3:
            continue
        assert _digamma(x) == pytest.approx(sps.psi(x), rel=1e-12, abs=1e-12)


def test_hyp2f1_terminating_a_zero():
    assert hyp2f1(0.0, 2.0, 0.5, 0.7) == 1.0


def test_hyp2f1_euler_collapse():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    assert hyp2f1(-0.5, 2.0, 2.0, 0.75) == pytest.approx(0.5, rel=1e-12)


def test_hyp2f1_log_case_against_rational_series():
    # 2F1(1, 1; 2; z) = -log(1-z)/z; oracle is the exact rational partial sum
    z = Fraction(1, 2)
    series = sum(Fraction(1, k + 1) * z**k for k in range(200))
    oracle = float(series)
    assert oracle == pytest.approx(-math.log(0.5) / 0.5, rel=1e-15)
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(oracle, rel=1e-12)
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906,
                                                       rel=1e-12)


# frozen 30-digit evaluations of the z -> 1-z branches, including the
# logarithmic limits at integer c - a - b (= 1, 0, 2, -1, 4 below)
_FROZEN = [
    (1.0, -1.5, 0.5, 0.75, -0.55269462291928232),
    (1.0, -1.5, 0.5, 0.92, -0.602762539527512),
    (2.0, -0.5, 1.5, 0.85, 0.076715912215820287),
    (1.0, -2.5, 0.5, 0.75, -0.42271706966227573),
    (0.3, 1.2, 0.5, 0.8, 3.7095736589437843),
    (1.0, -4.5, 0.5, 0.75, -0.20655100962073356),
]


@pytest.mark.parametrize("a,b,c,z,expected", _FROZEN)
def test_hyp2f1_connection_branches_frozen(a, b, c, z, expected):
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-10)


def test_hyp2f1_argument_symmetry_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(80):
        a = rng.uniform(-5.0, 5.0)
        b = rng.uniform(-5.0, 5.0)
        c = rng.uniform(0.3, 4.0)
        z = rng.uniform(0.0, 0.97)
        assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_hyp2f1_series_and_connection_agree_in_overlap():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 60:
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.3, 4.0)
        d = c - a - b
        if abs(d - round(d)) < 1e-3:
            continue
        z = rng.uniform(0.3, 0.5)
        direct = _series(a, b, c, z)
        conn = _connection_regular(a, b, c, z)
        assert conn == pytest.approx(direct, rel=1e-9, abs=1e-9)
        checked += 1


def test_hyp2f1_contiguous_relation():
    # c [F(a,b;c;z) - F(a+1,b;c;z)] + b z F(a+1,b+1;c+1;z) = 0
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 120:
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(-4.0, 4.0)
        c = rng.uniform(0.3, 4.0)
        z = rng.uniform(0.05, 0.95)
        if abs((c - a - b) - round(c - a - b)) < 1e-3:
            continue
        f0 = hyp2f1(a, b, c, z)
        f1 = hyp2f1(a + 1.0, b, c, z)
        f2 = hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        resid = c * (f0 - f1) + b * z * f2
        scale = max(abs(c * f0), abs(c * f1), abs(b * z * f2), 1.0)
        assert abs(resid) / scale <= 1e-9
        checked += 1


def test_hyp2f1_against_scipy_general_sweep():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        a = rng.uniform(-6.0, 6.0)
        b = rng.uniform(-6.0, 6.0)
        c = rng.uniform(0.2, 5.0)
        z = rng.uniform(0.0, 0.98)
        d = c - a - b
        if abs(d - round(d)) < 5e-3:
            continue
        ref = sps.hyp2f1(a, b, c, z)
        assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-9, abs=1e-11)
        checked += 1


@pytest.mark.parametrize("m", range(-4, 5))
def test_hyp2f1_degenerate_window_against_scipy(m):
    # c - a - b = m exactly: the logarithmic limit, after Euler's
    # transformation for m < 0, on the branch z > 1/2
    rng = np.random.default_rng(100 + m)
    for _ in range(30):
        a = rng.uniform(-6.0, 6.0)
        c = rng.uniform(0.2, 5.0)
        b = c - a - m
        z = rng.uniform(0.5, 0.97)
        ref = sps.hyp2f1(a, b, c, z)
        assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-10)


def test_hyp2f1_domain_errors():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, -0.2)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, -3.0, 0.5)


def test_hyp_params_eigenvalue_map():
    assert _hyp_params(1.0, 3.0) == (-0.5, 2.0, 0.5)
    assert _hyp_params(-1.0, 2.0) == (-1.5, 2.0, 0.5)
