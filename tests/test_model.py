"""Closed-form model objects: parameters, psi_T, nonlinearities, data maps,
reconstruction, energy norm."""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from blowlab import evolve as ev
from blowlab import model as md
from blowlab.errors import DomainError
from blowlab.grid import bary_interpolator
from conftest import cached_grid, cached_params


def test_params_p3():
    p = md.params_new(3.0, T=1.0, eps=0.1)
    assert p.kappa0 == pytest.approx(2.0)
    assert p.omega_tilde == pytest.approx(-0.5)
    assert p.omega == pytest.approx(-0.5)
    assert p.mu == pytest.approx(0.4)


def test_params_p2():
    p = md.params_new(2.0, T=1.0, eps=0.1)
    assert p.kappa0 == pytest.approx(6.0)
    assert p.omega_tilde == pytest.approx(-1.5)
    assert p.omega == pytest.approx(-1.0)
    assert p.mu == pytest.approx(0.9)


def test_params_derives_constants_from_p():
    # p, T and eps are the only inputs, so replacing p re-derives the rest
    assert [f.name for f in dataclasses.fields(md.Params) if f.init] == [
        "p", "T", "eps"]
    moved, p2 = dataclasses.replace(md.params_new(3.0), p=2.0), md.params_new(2.0)
    for name in ("q", "kappa0", "omega_tilde", "omega", "mu", "kappa_root"):
        assert getattr(moved, name) == getattr(p2, name), name


def test_params_domain_errors():
    with pytest.raises(DomainError):
        md.params_new(5.0)
    with pytest.raises(DomainError):
        md.params_new(1.0)
    with pytest.raises(DomainError):
        md.params_new(3.0, T=2.0)
    with pytest.raises(DomainError):
        md.params_new(3.0, eps=0.6)  # |omega| = 0.5 at p = 3


def test_params_exponent_ranges():
    for p in (1.1, 1.5, 2.0, 2.5, 3.0):
        pr = md.params_new(p, eps=0.05)
        assert pr.omega_tilde <= -0.5
        assert -1.0 <= pr.omega <= -0.5
        assert pr.mu > 0.0


def test_psi_T_values():
    p = cached_params(3.0)
    assert md.psi_T(p, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert md.psi_T(p, 0.5) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        md.psi_T(p, 1.0)


def test_psi_T_blowup_exponent():
    p = cached_params(2.0)
    ts = np.linspace(0.0, 0.9, 25)
    vals = [md.psi_T(p, t) for t in ts]
    slope = np.polyfit(np.log(1.0 - ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-2.0 / (p.p - 1.0), abs=1e-12)


def test_psi_T_solves_its_ode():
    # psi_tt = psi^p via finite differences, converging at 4th order
    p = cached_params(2.5)
    t0 = 0.4
    errs = []
    for h in (0.01, 0.005):
        vals = [md.psi_T(p, t0 + k * h) for k in (-2, -1, 0, 1, 2)]
        fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
              - vals[4]) / (12 * h * h)
        errs.append(abs(fd - md.psi_T(p, t0) ** p.p))
    assert errs[0] <= 1e-6 * md.psi_T(p, t0) ** p.p
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_nonlin_N_values():
    p3 = cached_params(3.0)
    assert md.nonlin_N(p3, 0.0) == 0.0
    # symbolic expansion at p = 3: N(x) = 3 sqrt(2) x^2 + x^3 for x > -sqrt(2)
    assert md.nonlin_N(p3, 1.0) == pytest.approx(3.0 * math.sqrt(2.0) + 1.0,
                                                 rel=1e-14)
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.allclose(md.nonlin_N(p3, xs),
                       3.0 * math.sqrt(2.0) * xs**2 + xs**3, atol=1e-12)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0])
def test_nonlin_dN_matches_central_differences(p):
    # on y = k + x > 0 and on the y < 0 branch (x = -1.5 k, -3 k); the
    # difference step 1e-5 k leaves about 4e-11 of p kappa0
    params = cached_params(p)
    k = params.kappa_root
    xs = np.concatenate([np.linspace(-0.5, 0.5, 21) * k, [-1.5 * k, -3 * k]])
    h = 1e-5 * k
    fd = (md.nonlin_N(params, xs + h) - md.nonlin_N(params, xs - h)) / (2 * h)
    scale = p * params.kappa0
    assert np.abs(md.nonlin_dN(params, xs) - fd).max() <= 1e-9 * scale
    # N' is even about y = 0: p |y|^(p-1) - p kappa0
    assert md.nonlin_dN(params, -3 * k) == pytest.approx(
        scale * (2.0 ** (p - 1.0) - 1.0), rel=1e-14)
    zero = md.nonlin_dN(params, 0.0)
    assert type(zero) is float
    assert abs(zero) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("p", [1.02, 1.1, 1.5, 2.0, 3.0])
def test_kappa_root_is_computed_once(p):
    # the value is the float power, formed on first access and then kept
    params = md.params_new(p)
    assert "kappa_root" not in vars(params)
    k = params.kappa_root
    assert k == params.kappa0 ** (1.0 / (p - 1.0))
    assert vars(params)["kappa_root"] is k and params.kappa_root is k


def test_kappa_root_overflow_raises_on_every_access():
    # nothing is kept when the power overflows, so no access returns a value
    params = md.params_new(1.01)
    for _ in range(2):
        with pytest.raises(DomainError):
            params.kappa_root
    assert "kappa_root" not in vars(params)


def _decimal_N(params, xs):
    """N(x) = sign(y)|y|^p - k^p - p k^(p-1) x, y = k + x, at the float k,
    in decimal arithmetic: the terms cancel to about 2 log10(k/|x|)
    digits, and 30 more are kept."""
    with localcontext() as ctx:
        ctx.prec = 30 + math.ceil(
            2.0 * math.log10(params.kappa_root / np.abs(xs).min()))
        k, p = Decimal(params.kappa_root), Decimal(params.p)
        kp, slope = k ** p, p * k ** (p - 1)
        return np.array([float((abs(k + d) ** p).copy_sign(k + d) - kp
                               - slope * d)
                         for d in map(Decimal, xs.tolist())])


@pytest.mark.parametrize("p", [1.02, 1.05, 1.1, 1.25, 1 + 1 / 2.8, 1.5, 1.75,
                               2.0, 2.5, 3.0], ids=lambda p: f"p{p:.6g}")
def test_nonlin_N_matches_a_decimal_reference(p):
    # reads of either sign from 1e-8 to 1, where the direct formula loses
    # up to 2 log10(k/|x|) digits: passed as one array, where small and
    # large reads mix (and at p = 2.5, |x/k| < 1/10 and >= 1/10), and one
    # by one as floats; k > 1 at every p here, so k + x > 0
    params = cached_params(p)
    mags = np.geomspace(1e-8, 1.0, 40)
    xs = np.concatenate([mags, -mags])
    ref = _decimal_N(params, xs)
    assert np.abs(md.nonlin_N(params, xs) / ref - 1.0).max() <= 1e-13
    for x, want in zip(xs.tolist(), ref):
        got = md.nonlin_N(params, x)
        assert type(got) is float
        assert abs(got / want - 1.0) <= 1e-13
    # at y = k + x = 0 and y = -k, which take the direct formula off p = 2
    # and 3, and the y < 0 branch at p = 2
    k = params.kappa_root
    edge = np.array([-k, -2.0 * k])
    assert np.abs(md.nonlin_N(params, edge) / _decimal_N(params, edge)
                  - 1.0).max() <= 1e-13


def test_nonlin_N_is_a_polynomial_at_p_2_and_3():
    # p = 3 (k = sqrt 2): N = x^2 (3k + x) for either sign of k + x;
    # p = 2 (k = 6): N = x^2, and N = x^2 - 2 y^2 where y = 6 + x < 0
    xs = np.concatenate([np.linspace(-20.0, 20.0, 401), [-6.0]])
    p3, p2 = cached_params(3.0), cached_params(2.0)
    k = p3.kappa_root
    assert np.array_equal(md.nonlin_N(p3, xs), (xs + 3.0 * k) * xs * xs)
    y = xs + 6.0
    assert np.array_equal(md.nonlin_N(p2, xs),
                          np.where(y < 0.0, xs * xs - 2.0 * y * y, xs * xs))
    for params in (p3, p2):
        for x in (0.0, 1e-3, -30.0):
            assert md.nonlin_N(params, x) == md.nonlin_N(params, [x])[0]
            assert type(md.nonlin_N(params, x)) is float
            assert type(md.nonlin_dN(params, x)) is float


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sign_hook_negates_the_power_term(monkeypatch, p):
    # a hook of -1 negates |k + x|^(p-1)(k + x) in N and its derivative in
    # N': N -> -N - 2k^p - 2p kappa0 x and N' -> -N' - 2p kappa0
    params = cached_params(p)
    k = params.kappa_root
    scale = p * params.kappa0
    xs = np.linspace(-0.5, 0.5, 21) * k
    n, dn = md.nonlin_N(params, xs), md.nonlin_dN(params, xs)
    monkeypatch.setattr(md, "_SIGN_HOOK", -1.0)
    flipped = -n - 2.0 * k ** p - 2.0 * scale * xs
    assert np.abs(md.nonlin_N(params, xs) - flipped).max() \
        <= 1e-14 * k ** p
    assert np.abs(md.nonlin_dN(params, xs) - (-dn - 2.0 * scale)).max() \
        <= 1e-14 * scale


def test_nonlin_N_rational_oracle_p2():
    # p = 2: N(x) = |6 + x|(6 + x) - 36 - 12 x, exact in rationals
    p2 = cached_params(2.0)
    x = Fraction(-10)
    y = 6 + x
    oracle = abs(y) * y - 36 - 12 * x  # |y| y = -16 for y = -4
    assert float(oracle) == 68.0
    assert md.nonlin_N(p2, -10.0) == pytest.approx(68.0, rel=1e-13)


def test_nonlin_n():
    # the nonlinear term (rho N(A phi2), 0) of the evolution, row 0 zeroed;
    # A maps constants to themselves, so phi2 = 1 gives rho N(1); phi1
    # does not enter
    p3 = cached_params(3.0)
    grid = cached_grid(48)
    term = ev.nonlinear_term(grid, p3, np.ones(96))
    assert term[0] == 0.0 and not term[48:].any()
    assert term[1:48] == pytest.approx(
        grid.nodes[1:] * (3.0 * math.sqrt(2.0) + 1.0), rel=1e-13)


def test_nonlin_n_japanese_bracket_bound():
    # |rho N(x)| <= C rho x^2 <x>^(p-2) on 0 <= rho <= 1: the bound on N
    for p in (1.5, 2.0, 3.0):
        pr = cached_params(p)
        xs = np.linspace(-5.0, 5.0, 501)
        xs = xs[np.abs(xs) > 1e-8]
        vals = np.abs(md.nonlin_N(pr, xs))
        bound = xs**2 * (1.0 + xs**2) ** ((p - 2.0) / 2.0)
        assert np.all(vals <= 50.0 * bound)


def test_avg_A_constant_and_linear():
    g = cached_grid(64)
    assert np.allclose(md.avg_A(g, np.ones(64)), 1.0, atol=1e-12)
    assert np.allclose(md.avg_A(g, g.nodes), g.nodes / 2.0, atol=1e-12)


def test_avg_A_hardy_bound():
    g = cached_grid(64)
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = md.random_polynomial_state(g, rng, amplitude=1.0)[64:]
        au = md.avg_A(g, u)
        assert math.sqrt(g.integrate(au**2)) <= 2.0 * math.sqrt(g.integrate(u**2))


def test_data_to_v_exact_background():
    p3 = cached_params(3.0)
    gd = cached_grid(64, 1.5)
    k = p3.kappa_root
    fg = md.RadialPair(f=k * np.ones(64), g=k * np.ones(64), grid=gd)
    v = md.data_to_v(fg, p3)
    assert np.abs(v.v1).max() <= 1e-12
    assert np.abs(v.v2).max() <= 1e-11


def test_data_to_v_quadratic_profile():
    # f = sqrt(2) + rho^2 gives v2 = rho (2 rho) + rho^2 = 3 rho^2
    p3 = cached_params(3.0)
    gd = cached_grid(64, 1.5)
    k = p3.kappa_root
    fg = md.RadialPair(f=k + gd.nodes**2, g=k * np.ones(64), grid=gd)
    v = md.data_to_v(fg, p3)
    assert np.allclose(v.v2, 3.0 * gd.nodes**2, atol=1e-10)


def test_data_to_v_norm_matches_energy_distance():
    p3 = cached_params(3.0)
    gd = cached_grid(96, 1.5)
    rng = np.random.default_rng(12)
    fg = md.random_polynomial_data(gd, rng, p3, amplitude=0.3)
    v = md.data_to_v(fg, p3)
    vnorm = math.sqrt(gd.integrate(v.v1**2 + v.v2**2))
    k = p3.kappa_root
    diff = md.RadialPair(f=fg.f - k, g=fg.g - 2.0 / (p3.p - 1.0) * k, grid=gd)
    assert vnorm == pytest.approx(md.energy_norm(diff), rel=1e-12)


def test_U_map_vanishes_at_reference():
    p3 = cached_params(3.0)
    g = cached_grid(64)
    gd = cached_grid(64, 1.5)
    zero = md.DataPair(v1=np.zeros(64), v2=np.zeros(64), grid=gd)
    u = md.U_map(zero, 1.0, p3, g)
    assert u.shape == (128,) and np.abs(u).max() == 0.0


def test_U_map_explicit_value():
    # p = 3, v = 0, T = 1.1: U = sqrt(2) (0.21 rho, 0.1)
    p3 = cached_params(3.0)
    g = cached_grid(64)
    gd = cached_grid(64, 1.5)
    zero = md.DataPair(v1=np.zeros(64), v2=np.zeros(64), grid=gd)
    u = md.U_map(zero, 1.1, p3, g)
    assert np.allclose(u[:64], math.sqrt(2.0) * 0.21 * g.nodes, atol=1e-12)
    assert np.allclose(u[64:], math.sqrt(2.0) * 0.1, atol=1e-12)
    with pytest.raises(DomainError):
        md.U_map(zero, 1.6, p3, g)


def test_U_map_T_derivative_is_symmetry_mode():
    p3 = cached_params(3.0)
    g = cached_grid(64)
    gd = cached_grid(64, 1.5)
    zero = md.DataPair(v1=np.zeros(64), v2=np.zeros(64), grid=gd)
    h = 1e-5
    up = md.U_map(zero, 1.0 + h, p3, g)
    dn = md.U_map(zero, 1.0 - h, p3, g)
    coef = 2.0 / (p3.p - 1.0) * p3.kappa_root
    gsym1 = (p3.p + 1.0) / (p3.p - 1.0) * g.nodes
    assert np.allclose((up[:64] - dn[:64]) / (2 * h), coef * gsym1, atol=1e-8)
    assert np.allclose((up[64:] - dn[64:]) / (2 * h), coef, atol=1e-8)


@pytest.mark.parametrize("n, p", [(48, 1.5), (48, 3.0), (64, 1.5),
                                  (64, 3.0)])
def test_U_map_keeps_the_bits_of_one_interpolation_per_component(n, p):
    # U_map builds the barycentric weights once for v1 and v2; weights
    # built once per component give the same bits
    params, g = cached_params(p), cached_grid(n)
    fg = md.random_polynomial_data(cached_grid(n, 1.5),
                                   np.random.default_rng(0), params,
                                   amplitude=1e-3)
    v = md.data_to_v(fg, params)
    t_star = {1.5: 0.9999998285943468, 3.0: 0.9995551115007707}[p]
    for T in (0.9, t_star, 1.0, 1.2):
        rho = g.nodes
        scaled = T * rho
        vs = np.concatenate([bary_interpolator(v.grid, scaled)(v.v1),
                             bary_interpolator(v.grid, scaled)(v.v2)])
        amp = T ** (2.0 / (params.p - 1.0))
        want = (amp * (vs + md._kappa_pair(params, scaled))
                - md._kappa_pair(params, rho))
        want[0] = 0.0
        assert np.array_equal(md.U_map(v, T, params, g), want)


def test_reconstruct_zero_state_gives_background():
    p3 = cached_params(3.0)
    g = cached_grid(64)
    rec = md.reconstruct_field(np.zeros(128), 0.3, p3, g)
    t = 1.0 - math.exp(-0.3)
    assert np.abs(rec.f - md.psi_T(p3, t)).max() == 0.0
    assert np.abs(rec.g - md.psi_T_t(p3, t)).max() == 0.0


def test_reconstruct_data_roundtrip():
    # v -> U(v, T) -> physical fields at t = 0 -> v again
    T = 1.13
    pT = md.params_new(3.0, T=T)
    g = cached_grid(64)
    gd = cached_grid(64, 1.5)
    rng = np.random.default_rng(3)
    vp = md.DataPair(
        v1=gd.nodes * np.polyval(rng.standard_normal(4), gd.nodes**2) * 1e-2,
        v2=np.polyval(rng.standard_normal(4), gd.nodes**2) * 1e-2, grid=gd)
    state = md.U_map(vp, T, pT, g)
    rec = md.reconstruct_field(state, -math.log(T), pT, g)
    vrec = md.data_to_v(rec, pT)
    interpolate = bary_interpolator(gd, rec.grid.nodes)
    v1o, v2o = interpolate(vp.v1), interpolate(vp.v2)
    assert np.abs(vrec.v1 - v1o).max() <= 1e-8
    assert np.abs(vrec.v2 - v2o).max() <= 1e-8


def test_energy_norm_closed_forms():
    g = cached_grid(48)
    pair = md.RadialPair(f=np.full(48, 0.7), g=np.zeros(48), grid=g)
    assert md.energy_norm(pair) == pytest.approx(0.7, rel=1e-12)
    g2 = cached_grid(48, 2.0)
    pair = md.RadialPair(f=np.full(48, -0.7), g=np.zeros(48), grid=g2)
    assert md.energy_norm(pair) == pytest.approx(0.7 * math.sqrt(2.0),
                                                 rel=1e-12)
    # f = r^2, g = 1: r f' + f = 3 r^2, so the norm is sqrt(9 R^5/5 + R^3/3);
    # a constant f cannot tell it from r f' - f = r^2, which would read
    # sqrt(R^5/5 + R^3/3)
    for R in (1.0, 1.5):
        gR = cached_grid(48, R)
        pair = md.RadialPair(f=gR.nodes**2, g=np.ones(48), grid=gR)
        assert md.energy_norm(pair) == pytest.approx(
            math.sqrt(9 * R**5 / 5 + R**3 / 3), rel=1e-12), R


def test_energy_norm_background_value():
    # closed form: sqrt(2 + 2/3) = 2 sqrt(2) / sqrt(3) at p=3, t=0, R=1
    p3 = cached_params(3.0)
    g = cached_grid(64)
    pair = md.RadialPair(f=np.full(64, md.psi_T(p3, 0.0)),
                         g=np.full(64, md.psi_T_t(p3, 0.0)), grid=g)
    assert md.energy_norm(pair) == pytest.approx(
        2.0 * math.sqrt(2.0) / math.sqrt(3.0), abs=1e-12)
