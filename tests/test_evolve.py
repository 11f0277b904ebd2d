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
from blowlab.cli import main
from blowlab.errors import (AmplitudeAbort, DomainError, OverflowAbort,
                            PerturbationTooLarge, SolverError)
from conftest import (cached_grid, cached_ops, cached_params,
                      cached_projection, record_calls)


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
    # row 0 of every step matrix is e^{-50h} e_0 or zero, so phi1(0) = 0,
    # imposed on the initial state, holds exactly at every sample
    assert not traj.states[:, 0].any()
    for got, want in zip(traj.states, ref):
        err = md.state_norm(grid, got - want)
        assert err <= 1e-13 * md.state_norm(grid, want)


def test_integrate_evaluates_stages_in_two_rounds(monkeypatch):
    # a nonlinear step makes two nonlin_N calls on stacked 2n-vectors of
    # reads, (N1, N3) and then (N2, N4); integrate looks nonlin_N up
    # through blowlab.evolve, where tracing and fault injection replace it
    params, grid, ops, proj = _setup()
    lengths = record_calls(monkeypatch, ev, "nonlin_N",
                           lambda params, x: len(x))
    u = md.random_polynomial_state(grid, np.random.default_rng(0))
    traj = ev.integrate(u, 0.1, ops, grid, params, nonlinear=True,
                        projection=proj)
    # the default longest step is the sample spacing, and the first sample
    # takes 4 steps of 0.025
    assert ev.stable_dtau(ops) == 0.1
    assert traj.step_counts == {0.025: 4}
    assert lengths == [2 * grid.n] * (2 * 4)
    lengths.clear()
    ev.integrate(u, 0.1, ops, grid, params, nonlinear=False, projection=proj)
    assert lengths == []


def _decaying_state(grid, params, proj, seed=5):
    """A smooth state with its unstable coefficient removed: to tau = 4 it
    decays below 1/64 of its size, so a default run takes all three step
    sizes."""
    u = md.random_polynomial_state(grid, np.random.default_rng(seed))
    return u - (proj.functional @ u) * sp.symmetry_mode(grid, params)


@pytest.mark.parametrize("nonlinear, dtau", [(True, None), (False, None),
                                              (True, 0.02)])
def test_integrate_reuses_step_matrices_bit_for_bit(nonlinear, dtau):
    # a second run on one operator steps with the matrices the first one
    # built, and reads what a run on a freshly assembled operator reads;
    # the default steps 0.025, 0.05 and 0.1, dtau = 0.02 is a fixed step
    sizes = 3 if dtau is None else 1
    params, grid, _, _ = _setup()
    ops = sp.assemble_L(grid, params)
    proj = sp.riesz_projection(ops)
    u = _decaying_state(grid, params, proj)
    kw = dict(nonlinear=nonlinear, dtau=dtau, projection=proj)
    first = ev.integrate(0.5 * u, 4.0, ops, grid, params, **kw)
    assert len(ops.steps) == len(first.step_counts) == sizes
    again = ev.integrate(u, 4.0, ops, grid, params, **kw)
    assert len(ops.steps) == sizes
    fresh = ev.integrate(u, 4.0, sp.assemble_L(grid, params), grid, params,
                         **kw)
    for name in ("states", "norms", "unstable_coeffs"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name))
    assert again.step_counts == fresh.step_counts
    assert not again.states[:, 0].any()


def test_step_matrices_belong_to_their_operator():
    params, grid, _, proj = _setup()
    a, b = sp.assemble_L(grid, params), sp.assemble_L(grid, params)
    u = _decaying_state(grid, params, proj)
    for ops in (a, b):
        ev.integrate(u, 4.0, ops, grid, params, projection=proj)
    assert a.steps.keys() == b.steps.keys() == {0.025, 0.05, 0.1}
    n = grid.n
    for h in a.steps:
        # E, reads, stage and combine
        assert [m.shape for m in a.steps[h]] == [
            (2 * n, 2 * n), (5 * n, 2 * n), (2 * n, 2 * n), (2 * n, 4 * n)]
        for ma, mb in zip(a.steps[h], b.steps[h]):
            assert np.array_equal(ma, mb)
            assert not np.shares_memory(ma, mb)
            assert not ma.flags.writeable


def test_coarse_step_matrices_square_the_finer_ones():
    # the e^{hL/2} of the 0.05 and 0.1 steps is the e^{hL} of the step
    # below, so only the 0.025 step calls _expm; each E agrees with scipy
    from scipy.linalg import expm

    params, grid, _, proj = _setup()
    ops = sp.assemble_L(grid, params)
    ev.integrate(_decaying_state(grid, params, proj), 4.0, ops, grid, params,
                 projection=proj)
    E = {h: ops.steps[h][0] for h in ops.steps}
    assert np.array_equal(E[0.05], E[0.025] @ E[0.025])
    assert np.array_equal(E[0.1], E[0.05] @ E[0.05])
    for h, Eh in E.items():
        ref = expm(h * ops.L)
        assert np.abs(Eh - ref).sum(axis=0).max() \
            <= 1e-13 * np.abs(ref).sum(axis=0).max()


def _stacked_step_matrices(ops, steps):
    """_step_matrices as built by stacking blocks: np.vstack of avg_A of
    the 2n identity, np.kron for stage and products with lift for
    combine."""
    h = ev._SAMPLE_DTAU / steps
    n = ops.grid.n
    rho = ops.grid.nodes
    if steps in (1, 2):
        E2 = _stacked_step_matrices(ops, 2 * steps)[0]
    else:
        E2 = ev._expm(0.5 * h * ops.L)
    E = E2 @ E2
    reads = np.vstack([md.avg_A(ops.grid, M[n:])
                       for M in (np.eye(2 * n), E2, E)] + [E])
    stage = np.kron(np.diag([0.5 * h, h]),
                    md.avg_A(ops.grid, E2[n:, :n]) * rho)
    lift = np.vstack([np.diag(rho), np.zeros((n, n))])
    third = (h / 3.0) * E2 @ lift
    combine = np.hstack([(h / 6.0) * E @ lift, third, third,
                         (h / 6.0) * lift])
    return E, reads, stage, combine


@pytest.mark.parametrize("n", [16, 48, 64])
@pytest.mark.parametrize("p", [1.25, 1.5, 2.5, 3.0])
def test_step_matrices_keep_the_bits_of_the_stacked_build(n, p):
    # the blocks are filled into zeroed arrays, R from avg_A of the n
    # identity, S from the R E2 block of reads and M lift as a column
    # scaling, with the same arithmetic as the stacked build
    params, grid = cached_params(p), cached_grid(n)
    ops = sp.assemble_L(grid, params)
    for steps in (1, 2, 4, 5):
        got = ev._step_matrices(ops, steps)
        want = _stacked_step_matrices(ops, steps)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_each_step_holds_its_propagator_once():
    # E is the last 2n rows of reads, not a second array
    params, grid = cached_params(3.0), cached_grid(48)
    ops = sp.assemble_L(grid, params)
    for steps in (1, 2, 4):
        ev._step_matrices(ops, steps)
    assert len(ops.steps) == 3
    for E, reads, _, _ in ops.steps.values():
        assert np.shares_memory(E, reads)
        assert E.base is reads and E.shape == (96, 96)
        assert not E.flags.writeable


def _stacked_step_states(initial, tau_end, ops, grid, params, dtau=None):
    """integrate's samples as a step computed them with fresh arrays: r =
    reads @ u, stage @ n13 added to its reads, and combine applied to
    np.concatenate((n13, n24)), on _stacked_step_matrices."""
    nsub = 1 if dtau is None else math.ceil(0.1 / dtau - 1e-12)
    n = grid.n
    built = {}
    u = np.array(initial, dtype=float)
    u[0] = 0.0
    states, norms = [u], [md.state_norm(grid, u)]
    for _ in range(int(math.floor(tau_end / ev._SAMPLE_DTAU + 1e-9))):
        m = max(nsub, ev._sample_steps(norms[-1], norms[0]))
        if m not in built:
            built[m] = _stacked_step_matrices(ops, m)
        E, reads, stage, combine = built[m]
        for _ in range(m):
            r = reads @ u
            n13 = md.nonlin_N(params, r[:2 * n])
            n24 = md.nonlin_N(params, r[n:3 * n] + stage @ n13)
            u = r[3 * n:] + combine @ np.concatenate((n13, n24))
        states.append(u)
        norms.append(md.state_norm(grid, u))
    return np.array(states)


@pytest.mark.parametrize("case", ["decaying", "growing", "fixed"])
def test_integrate_keeps_the_bits_of_the_stacked_step(case):
    # the step reads into buffers allocated once per run and adds in
    # place; its states equal the fresh-array step's bit for bit, for a
    # decaying run through all three step sizes, a growing one at the
    # finest step and the fixed step dtau = 0.02
    n = 64 if case == "growing" else 48
    params, grid, ops, proj = _setup(3.0, n=n)
    dtau = 0.02 if case == "fixed" else None
    if case == "growing":
        fg = md.random_polynomial_data(cached_grid(n, 1.5),
                                       np.random.default_rng(0), params,
                                       amplitude=1e-3)
        u = md.U_map(md.data_to_v(fg, params), 1.0, params, grid)
    else:
        u = _decaying_state(grid, params, proj)
    traj = ev.integrate(u, 4.0, ops, grid, params, dtau=dtau,
                        projection=proj)
    sizes = {"decaying": 3, "growing": 1, "fixed": 1}[case]
    assert len(traj.step_counts) == sizes
    want = _stacked_step_states(u, 4.0, ops, grid, params, dtau=dtau)
    assert np.array_equal(traj.states, want)


def test_growing_run_keeps_the_finest_step():
    # the sweep's untuned configuration at p = 3 grows like e^tau, so the
    # default stepping takes 4 steps per sample throughout and is the fixed
    # step 0.025 bit for bit
    params, grid, ops, proj = _setup(3.0, n=64)
    fg = md.random_polynomial_data(cached_grid(64, 1.5),
                                   np.random.default_rng(0), params,
                                   amplitude=1e-3)
    init = md.U_map(md.data_to_v(fg, params), 1.0, params, grid)
    runs = [ev.integrate(init, 2.0, ops, grid, params, dtau=dtau,
                         projection=proj)
            for dtau in (ev.stable_dtau(ops), 0.025)]
    assert runs[1].norms[-1] > runs[1].norms[0]
    for name in ("states", "norms", "unstable_coeffs"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
    assert runs[0].step_counts == runs[1].step_counts == {0.025: 80}


def test_integrate_step_size_guard():
    params, grid, ops, proj = _setup(n=96)
    gsym = sp.symmetry_mode(grid, params)
    for dtau in (0.5, 0.0):
        with pytest.raises(DomainError, match="dtau"):
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
    # the command line imports every module of the package
    code = ("import sys, blowlab.cli; "
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
    stable = u - ev.unstable_coefficient(u, proj) * gsym
    assert abs(ev.unstable_coefficient(stable, proj)) <= 1e-8


def test_integrate_takes_the_coefficients_once_per_run(monkeypatch):
    # a run's unstable coefficients are one product of its states with the
    # projection functional, on a finished run and on an aborted one; they
    # agree with the per-sample unstable_coefficient to the rounding of a
    # dot product
    params, grid, ops, proj = _setup()
    reference = ev.unstable_coefficient

    def per_sample(*args):
        raise AssertionError("integrate called unstable_coefficient")

    monkeypatch.setattr(ev, "unstable_coefficient", per_sample)
    u = md.random_polynomial_state(grid, np.random.default_rng(4))
    traj = ev.integrate(u, 1.0, ops, grid, params, projection=proj)
    with pytest.raises(AmplitudeAbort) as info:
        ev.integrate(0.3 * sp.symmetry_mode(grid, params), 6.0, ops, grid,
                     params, projection=proj)
    for run in (traj, info.value.trajectory):
        want = [reference(row, proj) for row in run.states]
        scale = np.abs(run.states) @ np.abs(proj.functional)
        assert np.all(np.abs(run.unstable_coeffs - want)
                      <= 2 * run.states.shape[1] * np.finfo(float).eps
                      * scale)


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
    with pytest.raises(DomainError, match="underflow"):
        ev.decay_fit(traj, (0.0, 5.0))
    with pytest.raises(DomainError, match="samples in fit window"):
        ev.decay_fit(traj, (0.0, 0.3))
    values = np.exp(taus)
    with pytest.raises(DomainError, match="samples in fit window"):
        ev.growth_fit(taus, values, (0.0, 0.3))
    for small in (1e-14, -1e-15):
        values[20] = small
        with pytest.raises(DomainError, match="underflow"):
            ev.growth_fit(taus, values, (0.0, 5.0))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_linear_decay_on_stable_subspace(p):
    # the stable part of each state decays at least at |omega| - 0.15,
    # and the full state's unstable coefficient grows at rate 1
    params, grid, ops, proj = _setup(p)
    gsym = sp.symmetry_mode(grid, params)
    rng = np.random.default_rng(100)
    for _ in range(20):
        u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
        stable = u - ev.unstable_coefficient(u, proj) * gsym
        traj = ev.integrate(stable, 8.0, ops, grid, params,
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
    return record_calls(monkeypatch, ev, "integrate",
                        lambda initial, *args, **kwargs: initial)


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
    resid = ev.correction_residual(traj, ops, proj)
    assert resid <= 1e-4
    # the search integrates each T once, from U(v, T), and records every
    # integration
    Ts = [step.T for step in traj.tuning]
    assert len(calls) <= 3
    assert len(Ts) == len(calls) == len(set(Ts))
    for T, init in zip(Ts, calls):
        assert np.array_equal(init, md.U_map(v, T, params, grid))
    assert t_star in Ts


# T* at n = 48, amplitude 1e-3, tau_end 8 and data seeds 0-9, as the search
# from T_lin found them
_T_STAR = {
    1.5: (0.9999998285943468, 1.0000003366660255, 1.0000008464739982,
          1.000000258745074, 0.9999996251933094, 1.0000000072317237,
          1.0000001131043925, 1.000000247498248, 1.000000325368572,
          0.9999999368127584),
    2.0: (0.9999638639782599, 1.0000325007164774, 1.0001200885645618,
          1.000045747653673, 0.9999401647550519, 1.0000230288300034,
          1.000007657482279, 1.0000306507005507, 1.0000810958473423,
          1.000007497348632),
    3.0: (0.9995551115007707, 1.0001080711029544, 1.0010818297706912,
          1.000495495697995, 0.9994352555509548, 1.000481236129608,
          0.9998919795028867, 1.0002402265566586, 1.0012054575878853,
          1.0002506505102922),
}


def _seeded_v(params, seed, amplitude=1e-3):
    fg = md.random_polynomial_data(cached_grid(48, 1.5),
                                   np.random.default_rng(seed), params,
                                   amplitude=amplitude)
    return md.data_to_v(fg, params)


# integrations over the ten seeds of _T_STAR from T_pred; with the Duhamel
# integral by the trapezoid rule they read 17, 23 and 23.  T_pred and T*
# sit within an ulp of the zero of a(T), so N's rounding decides some
# counts: with a correctly rounded N, seed 4 at p = 1.5 and seed 6 at p = 3
# take one more run than with the cancelling N that read 11 and 21
_INTEGRATIONS = {1.5: 12, 2.0: 22, 3.0: 22}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_tune_T_star_per_seed(monkeypatch, p):
    # starting at T_pred leaves every T* as it was, in one to three
    # integrations
    params, grid, ops, proj = _setup(p)
    calls = _count_integrations(monkeypatch)
    counts = []
    for seed, expected in enumerate(_T_STAR[p]):
        start = len(calls)
        t_star, traj = ev.tune_T(_seeded_v(params, seed), params, 8.0, grid,
                                 ops, projection=proj)
        assert t_star == expected
        assert traj.tuning[0].T == traj.T_pred
        counts.append(len(calls) - start)
    assert max(counts) <= 3
    assert sum(counts) <= _INTEGRATIONS[p]


def test_tune_T_starts_at_the_duhamel_prediction():
    # the Duhamel correction brings the first run's coefficient 1e4 times
    # closer to zero than the linear prediction's (2.2e-9 against 3.7e-5)
    params, grid, ops, proj = _setup()
    v = _seeded_v(params, 0)
    _, traj = ev.tune_T(v, params, 8.0, grid, ops, projection=proj)
    assert traj.T_pred != traj.T_lin
    lin = ev.integrate(md.U_map(v, traj.T_lin, params, grid), 8.0, ops,
                       grid, params, projection=proj)
    a_lin = lin.unstable_coeffs[int(np.argmin(np.abs(lin.taus - 7.0)))]
    assert abs(traj.tuning[0].a) <= 1e-2 * abs(a_lin)


def test_tune_T_large_data_takes_no_more_integrations(monkeypatch):
    # amplitude 3e-2 at p = 3: the integrations per seed 0-9 of the search
    # from T_lin
    params, grid, ops, proj = _setup()
    before = (6, 8, 6, 5, 5, 9, 8, 6, 10, 8)
    calls = _count_integrations(monkeypatch)
    for seed, bound in enumerate(before):
        start = len(calls)
        ev.tune_T(_seeded_v(params, seed, 3e-2), params, 8.0, grid, ops,
                  projection=proj)
        assert len(calls) - start <= bound


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_duhamel_slope_is_the_derivative_of_the_integral(p):
    # dI/dT = q k J: the symmetry mode g flows as e^s g and A g2 = 1
    params, grid, ops, proj = _setup(p)
    v = _seeded_v(params, 0)
    T = ev.tune_T(v, params, 8.0, grid, ops, projection=proj)[1].T_lin
    dT = 1e-7

    def integrals(T):
        return ev._linear_flow_integrals(md.U_map(v, T, params, grid), 8.0,
                                         ops, proj)

    taus, _, J = integrals(T)
    I_plus, I_minus = integrals(T + dT)[1], integrals(T - dT)[1]
    qk = 2.0 / (p - 1.0) * params.kappa_root
    for tau in (1.0, 3.0):
        j = int(np.argmin(np.abs(taus - tau)))
        fd = (I_plus[j] - I_minus[j]) / (2.0 * dT)
        assert fd == pytest.approx(qk * J[j], rel=2e-3)


@pytest.mark.parametrize("size", [7, 8])
def test_cumulative_simpson_is_exact_to_its_degree(size):
    # composite Simpson integrates a cubic exactly at every even index; an
    # odd index adds the integral of the quadratic through three values,
    # exact on a quadratic and off by -h^4 f'''/24 on a cubic (+h^4 f'''/24
    # at a last odd index, where the three values end at it); two values
    # take the trapezoid.  Size 8 ends on an odd index
    h = 0.25
    x = h * np.arange(size)
    odd = np.arange(size) % 2 == 1
    tol = 8 * np.finfo(float).eps
    quad = ev._cumulative_simpson(1.0 + 2.0 * x - 3.0 * x**2, h)
    assert quad[0] == 0.0
    assert np.abs(quad - (x + x**2 - x**3)).max() <= tol
    # f = 4 x^3 - x: f''' = 24
    cubic = ev._cumulative_simpson(4.0 * x**3 - x, h)
    err = cubic - (x**4 - 0.5 * x**2)
    want = np.where(odd, -h**4, 0.0)
    if size % 2 == 0:
        want[-1] = h**4
    assert np.abs(err - want).max() <= tol
    two = ev._cumulative_simpson(np.array([3.0, 5.0]), h)
    assert np.array_equal(two, [0.0, 0.5 * h * (3.0 + 5.0)])


@pytest.mark.parametrize("tau_end", [math.inf, math.nan, 1.05])
def test_tune_T_checks_tau_end_first(monkeypatch, tau_end):
    params, grid, ops, proj = _setup()
    zero = md.DataPair(v1=np.zeros(48), v2=np.zeros(48),
                       grid=cached_grid(48, 1.5))

    def no_work(*args, **kwargs):
        raise AssertionError("tune_T worked before checking tau_end")

    monkeypatch.setattr(md, "U_map", no_work)
    with pytest.raises(DomainError):
        ev.tune_T(zero, params, tau_end, grid, ops, projection=proj)


def test_nonlinear_term_of_a_stack_is_the_per_row_term(monkeypatch):
    # one nonlin_N call on the stacked reads gives nonlinear_term(u) for
    # every sample to rounding, and so does nonlin_dN; N and N' cancel
    # k^p = 2.8 and p k^(p-1) = 6, so their rounding is absolute, a few
    # ulp of numbers below 8
    params, grid, ops, proj = _setup()
    u = md.random_polynomial_state(grid, np.random.default_rng(3),
                                   amplitude=1e-2)
    states = ev.integrate(u, 2.0, ops, grid, params, projection=proj).states
    for term in (md.nonlin_N, md.nonlin_dN):
        got = ev.nonlinear_term(grid, params, states, term)
        assert got.shape == states.shape
        assert not got[:, 0].any() and not got[:, grid.n:].any()
        for row, s in zip(got, states):
            want = ev.nonlinear_term(grid, params, s, term)
            assert np.abs(row - want).max() <= 16 * np.finfo(float).eps
    # the default term is looked up through blowlab.evolve at each call
    calls = record_calls(monkeypatch, ev, "nonlin_N",
                         lambda params, x: np.shape(x))
    ev.nonlinear_term(grid, params, states)
    assert calls == [(48, len(states))]


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
    expm_calls = record_calls(monkeypatch, ev, "_expm", lambda A: A)
    integrations = _count_integrations(monkeypatch)
    ev.tune_T(v, params, 8.0, grid, ops, projection=proj)
    assert len(integrations) >= 2
    assert len(expm_calls) == 1
    # the longer steps of the decaying runs are squared from the 0.025 one
    assert len(ops.steps) >= 2


def test_tuned_run_lengthens_its_step(monkeypatch):
    # a tuned run decays like e^-tau, so it takes 4, then 2, then 1 step
    # per sample: its counts per step size span tau_end and add up to the
    # steps it takes (two nonlin_N calls each), under the 4 * 80 steps of
    # a fixed 0.025
    params, grid, ops, proj = _setup()
    fg = md.random_polynomial_data(cached_grid(48, 1.5),
                                   np.random.default_rng(0), params,
                                   amplitude=1e-3)
    _, traj = ev.tune_T(md.data_to_v(fg, params), params, 8.0, grid, ops,
                        projection=proj)
    counts = traj.step_counts
    assert list(counts) == [0.025, 0.05, 0.1]
    assert sum(h * c for h, c in counts.items()) == pytest.approx(8.0)
    calls = record_calls(monkeypatch, ev, "nonlin_N",
                         lambda params, x: len(x))
    again = ev.integrate(traj.states[0], 8.0, ops, grid, params,
                         projection=proj)
    assert np.array_equal(again.states, traj.states)
    assert again.step_counts == counts
    assert len(calls) == 2 * sum(counts.values()) < 2 * 4 * 80


@pytest.mark.parametrize("p, bound", [(1.5, 0.0), (2.0, 7.8e-15),
                                      (3.0, 4.3e-13)])
def test_tuned_T_star_matches_a_fine_fixed_step(p, bound):
    # the default stepping tunes T* as closely to a fixed step of 0.1/32
    # as 4 steps per sample throughout did; the bounds are the worst case
    # of that stepping over seeds 0-9 (n = 48, amplitude 1e-3, tau_end 8)
    params, grid, ops, proj = _setup(p)
    fg = md.random_polynomial_data(cached_grid(48, 1.5),
                                   np.random.default_rng(0), params,
                                   amplitude=1e-3)
    v = md.data_to_v(fg, params)
    t_star, _ = ev.tune_T(v, params, 8.0, grid, ops, projection=proj)
    t_ref, _ = ev.tune_T(v, params, 8.0, grid, ops, projection=proj,
                         dtau=0.1 / 32)
    assert abs(t_star - t_ref) <= bound


def test_tune_T_no_sign_change_raises(monkeypatch):
    params, grid, ops, proj = _setup()
    gdata = cached_grid(48, 1.5)
    # data of unit size: the linear prediction has no zero in (1/2, 3/2),
    # so its secant search leaves the domain before any integration
    rng = np.random.default_rng(2)
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=1.0)
    with pytest.raises(PerturbationTooLarge, match=r"left \(1/2, 3/2\)"):
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
    with pytest.raises(PerturbationTooLarge, match=r"left \(1/2, 3/2\)"):
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
    with pytest.raises(PerturbationTooLarge, match="stalls"):
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
    monkeypatch.setattr(md, "U_map",
                        lambda v, T, params, grid: np.full(96, T - 1.0))

    def cubic(initial, tau_end, *args, **kwargs):
        a = (initial[0] - 1e-3) ** 3
        return ev.Trajectory(taus=np.array([0.0, tau_end - 1.0]),
                             states=np.zeros((2, 96)), norms=np.ones(2),
                             unstable_coeffs=np.array([a, a]))

    monkeypatch.setattr(ev, "integrate", cubic)
    with pytest.raises(SolverError, match="not converged"):
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


def _duhamel_residual(traj, ops, nonlinear):
    """Max defect of Phi(tau) = e^{tau L} Phi(0) + int_0^tau e^{(tau-s)L} N(Phi(s)) ds
    over the samples of an integrate run with tau <= 3.

    The semigroup is the matrix exponential of the discretized generator at
    the 0.1 sample spacing, and the Duhamel integral is the trapezoid rule
    over the samples.  For a linear run the integral term is absent and the
    residual is the raw stepping-versus-matrix-exponential discrepancy.
    """
    ds = float(traj.taus[1] - traj.taus[0])
    E = ev._expm(ds * ops.L)
    kmax = int(min(traj.taus.size - 1, math.floor(3.0 / ds + 1e-9)))
    nl = (ev.nonlinear_term(ops.grid, ops.params, traj.states[:kmax + 1])
          if nonlinear else np.zeros_like(traj.states))
    # acc = E^k u0 + ds (E^k nl_0 / 2 + sum_{0<j<k} E^(k-j) nl_j), advanced
    # by one matvec per sample; the trapezoid's last half weight is added
    # in the defect
    acc = traj.states[0]
    worst = 0.0
    for k in range(1, kmax + 1):
        weight = 0.5 if k == 1 else 1.0
        acc = E @ (acc + weight * ds * nl[k - 1])
        defect = traj.states[k] - acc - 0.5 * ds * nl[k]
        worst = max(worst, md.state_norm(ops.grid, defect))
    return worst


def test_duhamel_residual_zero_and_linear():
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    proj = cached_projection(3.0, 64)
    trz = ev.integrate(np.zeros(128), 3.0, ops, grid, params, nonlinear=True,
                       dtau=1e-3, projection=proj)
    assert _duhamel_residual(trz, ops, nonlinear=True) <= 1e-14
    rng = np.random.default_rng(11)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    trl = ev.integrate(u, 3.0, ops, grid, params, nonlinear=False,
                       dtau=1e-3, projection=proj)
    assert _duhamel_residual(trl, ops, nonlinear=False) <= 1e-6


def test_duhamel_residual_nonlinear_small():
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    proj = cached_projection(3.0, 64)
    rng = np.random.default_rng(11)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    tr = ev.integrate(u, 3.0, ops, grid, params, nonlinear=True,
                      dtau=1e-3, projection=proj)
    assert _duhamel_residual(tr, ops, nonlinear=True) <= 1e-4
    # the residual is the trapezoid-quadrature floor of the identity, not
    # the stepping error: a step eight times finer than the default's
    # finest, 0.025, leaves it unchanged
    rng = np.random.default_rng(11)
    u2 = md.random_polynomial_state(grid, rng, amplitude=1e-4)
    r_default, r_fine = (_duhamel_residual(
        ev.integrate(u2, 3.0, ops, grid, params, nonlinear=True,
                     dtau=dt, projection=proj), ops, nonlinear=True)
        for dt in (None, 0.025 / 8.0))
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


def test_field_csv_format(tmp_path, monkeypatch):
    # the --field-out file of a zero-data run, whose last sample at
    # tau = 0.2 is the background psi^T at T = 1
    calls = record_calls(monkeypatch, md, "reconstruct_field",
                         lambda *args: args)
    path = tmp_path / "field.csv"
    assert main(["evolve", "--p", "3", "--n", "48", "--amplitude", "0",
                 "--no-tune", "--tau-end", "0.2",
                 "--out", str(tmp_path / "traj.csv"),
                 "--field-out", str(path)]) == 0
    params = cached_params(3.0)
    t = 1.0 - math.exp(-0.2)
    [args] = calls
    rec = md.reconstruct_field(*args)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,r,psi,psi_t"
    assert len(lines) == 49
    row = lines[1].split(",")
    assert float(row[1]) == 0.0
    assert float(row[2]) == pytest.approx(md.psi_T(params, t), rel=1e-12)
    # t to its 10 printed digits; r, psi and psi_t back to the same floats
    for line, r, psi, psi_t in zip(lines[1:], rec.grid.nodes, rec.f,
                                   rec.g):
        row = line.split(",")
        assert row[0] == f"{t:.10g}"
        assert [float(x) for x in row[1:]] == [r, psi, psi_t]


def test_trajectory_csv_format(tmp_path, monkeypatch):
    # the --out file of an untuned run; the first integrate call is the
    # run, the second the summary's step-halving estimate
    calls = record_calls(monkeypatch, ev, "integrate",
                         lambda *args, **kwargs: (args, kwargs))
    path = tmp_path / "traj.csv"
    command = ["evolve", "--p", "3", "--n", "48", "--amplitude", "1e-4",
               "--seed", "5", "--no-tune", "--tau-end", "1"]
    assert main(command + ["--out", str(path)]) == 0
    args, kwargs = calls[0]
    tr = ev.integrate(*args, **kwargs)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,norm,unstable_coeff"
    assert len(lines) == tr.taus.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) > 0.0
    # tau to its 10 printed digits; norm and coefficient back to the same
    # floats
    for line, tau, nrm, a in zip(lines[1:], tr.taus, tr.norms,
                                 tr.unstable_coeffs):
        row = line.split(",")
        assert row[0] == f"{tau:.10g}"
        assert [float(x) for x in row[1:]] == [nrm, a]
    # a path ending in .gz gets the same plain text
    gz = tmp_path / "traj.csv.gz"
    assert main(command + ["--out", str(gz)]) == 0
    assert gz.read_text() == path.read_text()
