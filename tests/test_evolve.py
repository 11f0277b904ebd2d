"""Time evolution: Lawson RK4 stepping and its matrix exponential, fits,
blow-up-time tuning, Duhamel check, physical-space cross-validation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from blowlab import evolve as ev
from blowlab import model as md
from blowlab import spectral as sp
from blowlab.errors import (AmplitudeAbort, DegenerateFitError, DomainError,
                            NoSignChangeError, NonConvergenceError,
                            OverflowAbort, StepSizeError)
from conftest import cached_grid, cached_ops, cached_params, cached_projection


def _setup(p=3.0, n=48):
    return (cached_params(p), cached_grid(n), cached_ops(p, n),
            cached_projection(p, n))


def _rhs(u, ops, grid, params):
    """The right-hand side L u + (rho N(A u2), 0) that integrate steps."""
    return ops.L @ u + ev.nonlinear_term(grid, params, u)


def test_rhs_zero_state():
    params, grid, ops, _ = _setup()
    out = _rhs(np.zeros(96), ops, grid, params)
    assert md.state_norm(grid, out) <= 1e-13


def test_rhs_linear_on_symmetry_mode():
    params, grid, ops, _ = _setup()
    gvec = sp.symmetry_mode(grid, params)
    assert md.state_norm(grid, ops.L @ gvec - gvec) <= 1e-10


def test_rhs_nonlinear_extra_term():
    # A(phi2) = 1 on the symmetry mode, so the extra term is rho N(1)
    params, grid, ops, _ = _setup()
    gvec = sp.symmetry_mode(grid, params)
    extra = _rhs(gvec, ops, grid, params) - ops.L @ gvec
    expect = np.concatenate([grid.nodes * (3.0 * math.sqrt(2.0) + 1.0),
                             np.zeros(48)])
    expect[0] = 0.0
    assert np.abs(extra - expect).max() <= 1e-12


def test_integrate_symmetry_mode_grows_exponentially():
    params, grid, ops, proj = _setup()
    gvec = sp.symmetry_mode(grid, params)
    traj = ev.integrate(gvec, 2.0, ops, grid, params, nonlinear=False,
                        dtau=1e-3, projection=proj)
    assert traj.states.shape == (21, 96)
    for tau, u, a in zip(traj.taus, traj.states, traj.unstable_coeffs):
        err = md.state_norm(grid, u - math.exp(tau) * gvec)
        assert err / math.exp(tau) <= 1e-6
        assert a == pytest.approx(math.exp(tau), rel=1e-6)


def _lawson_reference(initial, tau_end, ops, grid, params, h):
    """The Lawson RK4 loop on full 2n-vectors, each stage through
    nonlinear_term; the samples every 0.1 as rows."""
    nsub = round(ev._SAMPLE_DTAU / h)
    E2 = ev._expm(0.5 * h * ops.L)
    E = E2 @ E2

    def N(v):
        return ev.nonlinear_term(grid, params, v)

    u = np.array(initial, dtype=float)
    u[0] = 0.0
    states = [u]
    for _ in range(round(tau_end / ev._SAMPLE_DTAU)):
        for _ in range(nsub):
            k1 = N(u)
            half = E2 @ u
            k2 = N(half + (0.5 * h) * (E2 @ k1))
            k3 = N(half + (0.5 * h) * k2)
            k4 = N(E @ u + h * (E2 @ k3))
            u = (E @ (u + (h / 6.0) * k1) + E2 @ ((h / 3.0) * (k2 + k3))
                 + (h / 6.0) * k4)
            u[0] = 0.0
        states.append(u)
    return np.array(states)


@pytest.mark.parametrize("p, amplitude", [(1.5, 1e-3), (1.5, 1e-1),
                                          (3.0, 1e-3), (3.0, 1e-1),
                                          (1.25, 1e-3)])
def test_integrate_matches_full_state_lawson(p, amplitude):
    # the stepper works on the n-vector reads A phi2 in two rounds of
    # stages; the reference steps the stacked state with four
    # nonlinear_term calls per step.  p = 1.25, the lowest exponent of the
    # sweep, runs at the sweep's n = 64, where k^p is about 2e9
    params, grid, ops, proj = _setup(p, n=64 if p == 1.25 else 48)
    rng = np.random.default_rng(3)
    u = md.random_polynomial_state(grid, rng, amplitude=amplitude)
    traj = ev.integrate(u, 2.0, ops, grid, params, nonlinear=True,
                        dtau=0.025, projection=proj)
    ref = _lawson_reference(u, 2.0, ops, grid, params, 0.025)
    assert traj.states.shape == ref.shape
    for got, want in zip(traj.states, ref):
        err = md.state_norm(grid, got - want)
        assert err <= 1e-13 * md.state_norm(grid, want)


def test_integrate_evaluates_stages_in_two_rounds(monkeypatch):
    # a nonlinear step makes two nonlin_N calls on stacked 2n-vectors of
    # reads, (N1, N3) and then (N2, N4); integrate looks nonlin_N up
    # through blowlab.evolve, where tracing and fault injection replace it
    params, grid, ops, proj = _setup()
    lengths = []
    original = ev.nonlin_N

    def counting(params, x):
        lengths.append(len(x))
        return original(params, x)

    monkeypatch.setattr(ev, "nonlin_N", counting)
    u = md.random_polynomial_state(grid, np.random.default_rng(0))
    ev.integrate(u, 0.1, ops, grid, params, nonlinear=True, projection=proj)
    assert ev.stable_dtau(ops) == 0.025
    assert lengths == [2 * grid.n] * (2 * 4)
    lengths.clear()
    ev.integrate(u, 0.1, ops, grid, params, nonlinear=False, projection=proj)
    assert lengths == []


@pytest.mark.parametrize("nonlinear, dtau", [(True, None), (False, None),
                                              (True, 0.02)])
def test_integrate_reuses_step_matrices_bit_for_bit(nonlinear, dtau):
    # a second run on one operator steps with the matrices the first one
    # built, and reads what a run on a freshly assembled operator reads
    params, grid, _, _ = _setup()
    ops = sp.assemble_L(grid, params)
    proj = sp.riesz_projection(ops)
    u = md.random_polynomial_state(grid, np.random.default_rng(5))
    kw = dict(nonlinear=nonlinear, dtau=dtau, projection=proj)
    ev.integrate(0.5 * u, 1.0, ops, grid, params, **kw)
    assert len(ops.steps) == 1
    again = ev.integrate(u, 1.0, ops, grid, params, **kw)
    assert len(ops.steps) == 1
    fresh = ev.integrate(u, 1.0, sp.assemble_L(grid, params), grid, params,
                         **kw)
    for name in ("states", "norms", "unstable_coeffs"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name))


def test_step_matrices_belong_to_their_operator():
    params, grid, _, proj = _setup()
    a, b = sp.assemble_L(grid, params), sp.assemble_L(grid, params)
    u = 1e-3 * sp.symmetry_mode(grid, params)
    for ops in (a, b):
        ev.integrate(u, 0.1, ops, grid, params, projection=proj)
    assert a.steps.keys() == b.steps.keys() == {0.025}
    for ma, mb in zip(a.steps[0.025], b.steps[0.025]):
        assert np.array_equal(ma, mb)
        assert not np.shares_memory(ma, mb)
        assert not ma.flags.writeable


def test_integrate_step_size_guard():
    params, grid, ops, proj = _setup(n=96)
    gsym = sp.symmetry_mode(grid, params)
    for dtau in (0.5, 0.0):
        with pytest.raises(StepSizeError):
            ev.integrate(gsym, 1.0, ops, grid, params, nonlinear=False,
                         dtau=dtau, projection=proj)


@pytest.mark.parametrize("tau_end", [0.0, -1.0, math.nan, math.inf])
def test_integrate_tau_end_guard(tau_end):
    # every run starts at tau = 0 and ends at a finite tau_end > 0
    params, grid, ops, proj = _setup()
    with pytest.raises(DomainError):
        ev.integrate(sp.symmetry_mode(grid, params), tau_end, ops, grid,
                     params, projection=proj)


@pytest.mark.parametrize("n", [32, 48, 64, 96])
@pytest.mark.parametrize("p", [1.25, 2.0, 3.0])
def test_expm_matches_scipy(n, p):
    from scipy.linalg import expm

    ops = cached_ops(p, n)
    # h = 1e-4 takes the unscaled branch, the others scale and square
    for h in (1e-4, 0.00625, 0.1):
        ref = expm(h * ops.L)
        err = np.abs(ev._expm(h * ops.L) - ref).sum(axis=0).max()
        assert err <= 1e-13 * np.abs(ref).sum(axis=0).max()


def test_import_loads_no_scipy():
    code = ("import sys, blowlab; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(ev.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_integrate_superposition_linear():
    params, grid, ops, proj = _setup()
    rng = np.random.default_rng(2)
    ua = md.random_polynomial_state(grid, rng, amplitude=0.3)
    ub = md.random_polynomial_state(grid, rng, amplitude=0.3)
    kw = dict(nonlinear=False, dtau=1e-3, projection=proj)
    ta = ev.integrate(ua, 1.5, ops, grid, params, **kw)
    tb = ev.integrate(ub, 1.5, ops, grid, params, **kw)
    tc = ev.integrate(1.5 * ua - 0.25 * ub, 1.5, ops, grid, params, **kw)
    lin = 1.5 * ta.states[-1] - 0.25 * tb.states[-1]
    assert md.state_norm(grid, tc.states[-1] - lin) <= 1e-9


def test_amplitude_guard_carries_partial_trajectory():
    params, grid, ops, proj = _setup()
    big = 0.3 * sp.symmetry_mode(grid, params)
    with pytest.raises(AmplitudeAbort) as info:
        ev.integrate(big, 6.0, ops, grid, params, nonlinear=True,
                     dtau=1e-3, projection=proj)
    traj = info.value.trajectory
    assert traj is not None and traj.norms[-1] > 1.0
    assert traj.taus[-1] < 6.0


def test_unstable_coefficient_projections():
    params, grid, ops, proj = _setup()
    gsym = sp.symmetry_mode(grid, params)
    assert ev.unstable_coefficient(gsym, proj) == pytest.approx(1.0,
                                                                abs=1e-10)
    rng = np.random.default_rng(8)
    u = md.random_polynomial_state(grid, rng, amplitude=0.5)
    assert abs(ev.unstable_coefficient(u - proj.P @ u, proj)) <= 1e-8


def test_unstable_coefficient_grows_at_unit_rate():
    params, grid, ops, proj = _setup()
    rng = np.random.default_rng(15)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    a0 = ev.unstable_coefficient(u, proj)
    traj = ev.integrate(u, 4.0, ops, grid, params, nonlinear=False,
                        dtau=1e-3, projection=proj)
    assert np.abs(traj.unstable_coeffs / (a0 * np.exp(traj.taus)) - 1.0
                  ).max() <= 1e-6


def test_decay_fit_exact_synthetic():
    taus = np.arange(0.0, 5.01, 0.1)
    traj = ev.Trajectory(taus=taus, states=np.zeros((taus.size, 96)),
                         norms=3.0 * np.exp(-0.5 * taus),
                         unstable_coeffs=np.zeros(taus.size))
    rate, amp = ev.decay_fit(traj, (0.0, 5.0))
    assert rate == pytest.approx(0.5, abs=1e-12)
    assert amp == pytest.approx(3.0, rel=1e-12)
    # growth_fit shares the fit: signed values, the rate of |values|
    values = -2.0 * np.exp(1.5 * taus)
    assert ev.growth_fit(taus, values, (1.0, 4.0)) == pytest.approx(
        1.5, abs=1e-12)


def test_decay_fit_with_multiplicative_noise():
    rng = np.random.default_rng(77)
    taus = np.arange(0.0, 8.01, 0.1)
    norms = 2.0 * np.exp(-0.7 * taus) * (1.0 + 0.01 * rng.standard_normal(taus.size))
    traj = ev.Trajectory(taus=taus, states=np.zeros((taus.size, 96)),
                         norms=norms, unstable_coeffs=np.zeros(taus.size))
    rate, _ = ev.decay_fit(traj, (0.0, 8.0))
    assert rate == pytest.approx(0.7, abs=0.02)


def test_decay_fit_degenerate_inputs():
    taus = np.arange(0.0, 5.01, 0.1)
    traj = ev.Trajectory(taus=taus, states=np.zeros((taus.size, 96)),
                         norms=np.full(taus.size, 1e-16),
                         unstable_coeffs=np.zeros(taus.size))
    with pytest.raises(DegenerateFitError):
        ev.decay_fit(traj, (0.0, 5.0))
    with pytest.raises(DegenerateFitError):
        ev.decay_fit(traj, (0.0, 0.3))
    values = np.exp(taus)
    with pytest.raises(DegenerateFitError):
        ev.growth_fit(taus, values, (0.0, 0.3))
    for small in (1e-14, -1e-15):
        values[20] = small
        with pytest.raises(DegenerateFitError):
            ev.growth_fit(taus, values, (0.0, 5.0))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_linear_decay_on_stable_subspace(p):
    # the stable part of each state decays at least at |omega| - 0.15,
    # and the full state's unstable coefficient grows at rate 1
    params, grid, ops, proj = _setup(p)
    rng = np.random.default_rng(100)
    for _ in range(20):
        u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
        traj = ev.integrate(u - proj.P @ u, 8.0, ops, grid, params,
                            nonlinear=False, projection=proj)
        rate, _ = ev.decay_fit(traj, (2.0, 8.0))
        assert rate >= abs(params.omega) - 0.15
        full = ev.integrate(u, 8.0, ops, grid, params, nonlinear=False,
                            projection=proj)
        growth = ev.growth_fit(full.taus, full.unstable_coeffs, (2.0, 7.0))
        assert abs(growth - 1.0) <= 0.05


def _count_integrations(monkeypatch):
    """Wrap ev.integrate; the returned list collects the initial state of
    each call."""
    calls = []
    integrate = ev.integrate

    def counted(initial, tau_end, ops, grid, params, **kwargs):
        calls.append(initial)
        return integrate(initial, tau_end, ops, grid, params, **kwargs)

    monkeypatch.setattr(ev, "integrate", counted)
    return calls


def test_tune_T_zero_data_returns_one(monkeypatch):
    params, grid, ops, proj = _setup()
    gdata = cached_grid(48, 1.5)
    zero = md.DataPair(v1=np.zeros(48), v2=np.zeros(48), grid=gdata)
    calls = _count_integrations(monkeypatch)
    t_star, traj = ev.tune_T(zero, params, 5.0, grid, ops, projection=proj)
    assert abs(t_star - 1.0) <= 1e-9
    assert traj.norms.max() <= 1e-9
    assert len(calls) <= 2


def test_tune_T_small_perturbation_decays(monkeypatch):
    params, grid, ops, proj = _setup()
    gdata = cached_grid(48, 1.5)
    rng = np.random.default_rng(42)
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=1e-3)
    v = md.data_to_v(fg, params)
    calls = _count_integrations(monkeypatch)
    t_star, traj = ev.tune_T(v, params, 8.0, grid, ops, projection=proj)
    assert 0.9 < t_star < 1.1
    assert traj.norms[-1] < traj.norms[0]
    assert (np.exp(0.35 * traj.taus) * traj.norms).max() \
        <= 10.0 * traj.norms[0]
    resid = ev.correction_residual(traj, grid, params, proj)
    assert resid <= 1e-4
    # the search integrates each T once, from U(v, T), and records every
    # integration
    Ts = [step.T for step in traj.tuning]
    assert len(calls) <= 4
    assert len(Ts) == len(calls) == len(set(Ts))
    for T, init in zip(Ts, calls):
        assert np.array_equal(init, md.U_map(v, T, params, grid))
    assert t_star in Ts


def test_tune_T_builds_step_matrices_once(monkeypatch):
    # every integration of a tuning steps with one e^{hL/2}, built on the
    # operator's first run
    params, grid, _, _ = _setup()
    ops = sp.assemble_L(grid, params)
    proj = sp.riesz_projection(ops)
    gdata = cached_grid(48, 1.5)
    fg = md.random_polynomial_data(gdata, np.random.default_rng(42), params,
                                   amplitude=1e-3)
    v = md.data_to_v(fg, params)
    expm_calls = []
    expm = ev._expm

    def counted(A):
        expm_calls.append(A)
        return expm(A)

    monkeypatch.setattr(ev, "_expm", counted)
    integrations = _count_integrations(monkeypatch)
    ev.tune_T(v, params, 8.0, grid, ops, projection=proj)
    assert len(integrations) >= 2
    assert len(expm_calls) == 1


def test_tune_T_no_sign_change_raises(monkeypatch):
    params, grid, ops, proj = _setup()
    gdata = cached_grid(48, 1.5)
    # data of unit size: the linear prediction has no zero in (1/2, 3/2),
    # so its secant search leaves the domain before any integration
    rng = np.random.default_rng(2)
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=1.0)
    with pytest.raises(NoSignChangeError):
        ev.tune_T(md.data_to_v(fg, params), params, 5.0, grid, ops,
                  projection=proj)

    zero = md.DataPair(v1=np.zeros(48), v2=np.zeros(48), grid=gdata)
    partial = ev.Trajectory(taus=np.array([0.0, 0.1]),
                            states=np.zeros((2, 96)),
                            norms=np.array([0.5, 2.0]),
                            unstable_coeffs=np.array([0.5, 2.0]))

    def always_grows(*args, **kwargs):
        raise AmplitudeAbort("left the unit ball", trajectory=partial)

    monkeypatch.setattr(ev, "integrate", always_grows)
    with pytest.raises(NoSignChangeError):
        ev.tune_T(zero, params, 5.0, grid, ops, projection=proj)

    # every run aborts with the same small coefficient: the secant step
    # stays inside (1/2, 3/2) and the search stalls
    stalled = ev.Trajectory(taus=np.array([0.0, 0.1]),
                            states=np.zeros((2, 96)),
                            norms=np.array([0.5, 2.0]),
                            unstable_coeffs=np.array([1e-9, 1e-9]))

    def always_stalls(*args, **kwargs):
        raise AmplitudeAbort("left the unit ball", trajectory=stalled)

    monkeypatch.setattr(ev, "integrate", always_stalls)
    with pytest.raises(NoSignChangeError):
        ev.tune_T(zero, params, 5.0, grid, ops, projection=proj)


@pytest.mark.parametrize("p", [1.35, 1.4])
def test_tune_T_below_p_one_and_a_half(p):
    # k is 3.4e4 at p = 1.35, so the secant's first step from T_lin, a_lin
    # / (q k e^7), can be below half an ulp of T: the search stops there
    # ("sub_ulp") instead of reading the repeated value as a stall
    params, grid, ops, proj = _setup(p)
    gdata = cached_grid(48, 1.5)
    stops = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        fg = md.random_polynomial_data(gdata, rng, params, amplitude=1e-3)
        _, traj = ev.tune_T(md.data_to_v(fg, params), params, 8.0, grid,
                            ops, projection=proj)
        assert traj.xnorm(params.mu) <= 10.0 * traj.norms[0]
        stops.add(traj.tuning_stop)
    assert "sub_ulp" in stops
    assert stops <= {"zero", "sub_ulp", "repeat"}


def test_tune_T_iteration_budget(monkeypatch):
    # a triple zero of the target at T = 1.001: the secant method converges
    # only linearly there and runs out of steps
    params, grid, ops, proj = _setup()
    zero = md.DataPair(v1=np.zeros(48), v2=np.zeros(48), grid=grid)
    monkeypatch.setattr(ev, "U_map",
                        lambda v, T, params, grid: np.full(96, T - 1.0))

    def cubic(initial, tau_end, *args, **kwargs):
        a = (initial[0] - 1e-3) ** 3
        return ev.Trajectory(taus=np.array([0.0, tau_end - 1.0]),
                             states=np.zeros((2, 96)), norms=np.ones(2),
                             unstable_coeffs=np.array([a, a]))

    monkeypatch.setattr(ev, "integrate", cubic)
    with pytest.raises(NonConvergenceError):
        ev.tune_T(zero, params, 5.0, grid, ops, projection=proj)


def test_tune_T_returns_python_float():
    # data seed 4 is the one whose T* came back as a numpy scalar
    params, grid, ops, proj = _setup()
    gdata = cached_grid(48, 1.5)
    rng = np.random.default_rng(4)
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=1e-3)
    t_star, _ = ev.tune_T(md.data_to_v(fg, params), params, 8.0, grid, ops,
                          projection=proj)
    assert type(t_star) is float


def test_tune_T_derivative_sign_at_one():
    params, grid, ops, proj = _setup()
    gdata = cached_grid(48, 1.5)
    zero = md.DataPair(v1=np.zeros(48), v2=np.zeros(48), grid=gdata)

    def a_probe(T):
        init = md.U_map(zero, T, params, grid)
        tr = ev.integrate(init, 3.0, ops, grid, params, nonlinear=True,
                          projection=proj)
        return tr.unstable_coeffs[-1]

    h = 1e-6
    slope = (a_probe(1.0 + h) - a_probe(1.0 - h)) / (2.0 * h)
    assert slope > 0.0


def test_duhamel_residual_zero_and_linear():
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    proj = cached_projection(3.0, 64)
    trz = ev.integrate(np.zeros(128), 3.0, ops, grid, params, nonlinear=True,
                       dtau=1e-3, projection=proj)
    assert ev.duhamel_residual(trz, ops, grid, params) <= 1e-14
    rng = np.random.default_rng(11)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    trl = ev.integrate(u, 3.0, ops, grid, params, nonlinear=False,
                       dtau=1e-3, projection=proj)
    assert ev.duhamel_residual(trl, ops, grid, params) <= 1e-6


def test_duhamel_residual_nonlinear_small():
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    proj = cached_projection(3.0, 64)
    rng = np.random.default_rng(11)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    tr = ev.integrate(u, 3.0, ops, grid, params, nonlinear=True,
                      dtau=1e-3, projection=proj)
    assert ev.duhamel_residual(tr, ops, grid, params) <= 1e-4
    # the residual is the trapezoid-quadrature floor of the identity, not
    # the stepping error: a step eight times finer leaves it unchanged
    rng = np.random.default_rng(11)
    u2 = md.random_polynomial_state(grid, rng, amplitude=1e-4)
    h = ev.stable_dtau(ops)
    r_default, r_fine = (ev.duhamel_residual(
        ev.integrate(u2, 3.0, ops, grid, params, nonlinear=True,
                     dtau=dt, projection=proj), ops, grid, params)
        for dt in (h, h / 8.0))
    assert abs(r_default - r_fine) <= 0.01 * r_fine


def test_physical_oracle_reproduces_background():
    params = cached_params(3.0)
    gd = cached_grid(96, 1.0)
    fg = md.RadialPair(f=np.full(96, md.psi_T(params, 0.0)),
                       g=np.full(96, md.psi_T_t(params, 0.0)), grid=gd)
    s = ev.physical_oracle(fg, params, 0.3, nr=4096)
    assert s.t == pytest.approx(0.3, abs=1e-12)
    assert np.abs(s.psi - md.psi_T(params, s.t)).max() <= 1e-6
    assert np.abs(s.psi_t - md.psi_T_t(params, s.t)).max() <= 1e-5


def test_physical_oracle_zero_data():
    params = cached_params(3.0)
    gd = cached_grid(48, 1.0)
    fg = md.RadialPair(f=np.zeros(48), g=np.zeros(48), grid=gd)
    s = ev.physical_oracle(fg, params, 0.4, nr=512)
    assert np.abs(s.psi).max() == 0.0
    assert np.abs(s.psi_t).max() == 0.0


def test_physical_oracle_matches_reconstructed_field():
    # the one cross-check of the similarity-coordinate solver against the
    # physical-space one, up to t = 0.5
    params = cached_params(3.0)
    n = 96
    grid = cached_grid(n)
    gd15 = cached_grid(n, 1.5)
    gd1 = cached_grid(n, 1.0)
    rng = np.random.default_rng(21)
    cf = rng.standard_normal(4)
    cg = rng.standard_normal(4)
    k = params.kappa_root
    amp = 1e-3

    def f_of(r):
        return k + amp * np.polyval(cf, r**2)

    def g_of(r):
        return 2.0 / (params.p - 1.0) * k + amp * np.polyval(cg, r**2)

    fg15 = md.RadialPair(f=f_of(gd15.nodes), g=g_of(gd15.nodes), grid=gd15)
    fg1 = md.RadialPair(f=f_of(gd1.nodes), g=g_of(gd1.nodes), grid=gd1)
    v = md.data_to_v(fg15, params)
    ops = cached_ops(3.0, n)
    proj = cached_projection(3.0, n)
    init = md.U_map(v, 1.0, params, grid)
    traj = ev.integrate(init, 0.8, ops, grid, params, nonlinear=True,
                        dtau=5e-4, projection=proj)
    sup = 0.0
    for tau, u in zip(traj.taus, traj.states):
        t = 1.0 - math.exp(-tau)
        if tau == 0.0 or t > 0.5 + 1e-9:
            continue
        rec = md.reconstruct_field(u, tau, params, grid)
        orc = ev.physical_oracle(fg1, params, t, nr=4096)
        mask = rec.grid.nodes <= orc.r[-1]
        psi_i = np.interp(rec.grid.nodes[mask], orc.r, orc.psi)
        psit_i = np.interp(rec.grid.nodes[mask], orc.r, orc.psi_t)
        sup = max(sup, np.abs(rec.f[mask] - psi_i).max(),
                  np.abs(rec.g[mask] - psit_i).max())
    assert sup <= 1e-4


def test_physical_oracle_guards():
    params = cached_params(3.0)
    gd = cached_grid(48, 1.0)
    fg = md.RadialPair(f=np.zeros(48), g=np.zeros(48), grid=gd)
    with pytest.raises(DomainError):
        ev.physical_oracle(fg, params, 0.97)


def test_rhs_overflow_guard():
    # integrate checks the state after every sample, before its amplitude,
    # so a run this large overflows (to inf and NaN, which persist) within
    # the first sample and aborts there without a RuntimeWarning
    # (OverflowAbort and AmplitudeAbort are sibling classes)
    params, grid, ops, proj = _setup()
    u = np.concatenate([np.zeros(48), np.full(48, 1e11)])
    with pytest.raises(OverflowAbort):
        ev.integrate(u, 1.0, ops, grid, params, nonlinear=True,
                     projection=proj)


@pytest.mark.parametrize("nonlinear", [False, True])
def test_integrate_aborts_on_nan(nonlinear):
    # the overflow guard is one comparison, which NaN fails too
    params, grid, ops, proj = _setup()
    u = np.zeros(96)
    u[60] = math.nan
    with pytest.raises(OverflowAbort):
        ev.integrate(u, 1.0, ops, grid, params, nonlinear=nonlinear,
                     projection=proj)


def test_field_csv_format(tmp_path):
    params, grid, _, _ = _setup()
    rec = md.reconstruct_field(np.zeros(96), 0.2, params, grid)
    t = 1.0 - math.exp(-0.2)
    path = tmp_path / "field.csv"
    md.field_to_csv(rec, t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,r,psi,psi_t"
    assert len(lines) == 49
    row = lines[1].split(",")
    assert float(row[1]) == 0.0
    assert float(row[2]) == pytest.approx(md.psi_T(params, t), rel=1e-12)


def test_trajectory_csv_format(tmp_path):
    params, grid, ops, proj = _setup()
    rng = np.random.default_rng(5)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-4)
    tr = ev.integrate(u, 1.0, ops, grid, params, nonlinear=True,
                      projection=proj)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,norm,unstable_coeff"
    assert len(lines) == tr.taus.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) > 0.0
