"""Linearized generator: assembly, quantization, discrete spectra filtered
by refinement, Riesz projection, analytic eigenfunctions."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from blowlab import grid as gr
from blowlab import spectral as sp
from blowlab import validate as vl
from blowlab.errors import DomainError
from blowlab.grid import build_grid
from blowlab.model import (params_new, random_polynomial_state, state_inner,
                           state_norm)
from blowlab.specfun import _sinpi
from conftest import cached_grid, cached_ops, cached_params, cached_projection


def test_build_grid_invariants():
    for n in (32, 64, 96):
        g = cached_grid(n)
        rho = g.nodes
        assert np.abs(g.D @ rho**2 - 2 * rho).max() <= 1e-10
        assert np.abs(g.V @ np.ones(n) - rho).max() <= 1e-10
    g = cached_grid(64)
    assert g.integrate(g.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_build_grid_size_error():
    with pytest.raises(DomainError):
        build_grid(8)


def test_bary_interp_is_exact_at_nodes():
    # a target on a node, 0 among them, returns the nodal value itself;
    # off the nodes it reproduces a polynomial of degree below n
    g = cached_grid(48, 1.5)
    values = np.cos(7.0 * g.nodes)
    got = gr.bary_interp(g, values, np.append(g.nodes, 0.0))
    assert np.array_equal(got, np.append(values, values[0]))

    def poly(r):
        return 1.0 - 2.0 * r + 0.5 * r**5

    off = np.array([1e-9, 0.3, 0.7071, 1.49])
    assert np.abs(gr.bary_interp(g, poly(g.nodes), off)
                  - poly(off)).max() <= 1e-12


# The loop constructions the grid and the generator were first written
# with (Trefethen, Spectral Methods in MATLAB, cheb and clencurt): the
# vectorised ones must reproduce them bit for bit.
def _reference_cheb_nodes_and_diff(N):
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _reference_clencurt(N):
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
    w[ii] = 2.0 * v / N
    return w


def _reference_volterra(N, length):
    j = np.arange(N + 1)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    A = (2.0 / N) * np.cos(np.pi * np.outer(j, j) / N) / np.outer(c, c)
    S = np.zeros((N + 2, N + 1))
    S[1, 0] = 1.0
    S[2, 1] = 0.25
    for k in range(2, N + 1):
        S[k + 1, k] = 0.5 / (k + 1)
        S[k - 1, k] -= 0.5 / (k - 1)
    E = np.cos(np.pi * np.outer(j, np.arange(N + 2)) / N)
    SA = S @ A
    G = E @ SA
    G1 = SA.sum(axis=0)
    return (length / 2.0) * (G1[None, :] - G)


def _reference_L(grid, params):
    n = grid.n
    c = 2.0 / (params.p - 1.0)
    advect = -np.diag(grid.nodes) @ grid.D - c * np.eye(n)
    L = np.block([[advect, grid.D], [grid.D, advect]])
    L[:n, n:] += params.p * params.kappa0 * grid.V
    L[0, :] = 0.0
    L[0, 0] = -max(50.0, c + 10.0)
    return L


# both parities of N = n - 1, since the reference weights branch on it
@pytest.mark.parametrize("n", [16, 17, 48, 63, 64, 96, 144, 161])
@pytest.mark.parametrize("length", [1.0, 1.5])
def test_grid_and_generator_match_loop_construction(n, length):
    N = n - 1
    x, Dx = _reference_cheb_nodes_and_diff(N)
    x_new, Dx_new = gr._cheb_nodes_and_diff(N)
    assert np.array_equal(x_new, x) and np.array_equal(Dx_new, Dx)
    grid = build_grid(n, length)
    assert np.array_equal(grid.D, Dx * (-2.0 / length))
    assert np.array_equal(grid.V, _reference_volterra(N, length))
    # the weights are V's last row, the Clenshaw-Curtis rule to rounding
    w_ref = _reference_clencurt(N) * (length / 2.0)
    eps = np.finfo(float).eps
    assert np.abs(grid.w - w_ref).max() <= 16 * eps * np.abs(w_ref).max()
    assert not grid.w.flags.writeable
    for p in (1.5, 3.0):
        params = cached_params(p)
        assert np.array_equal(sp.assemble_L(grid, params).L,
                              _reference_L(grid, params))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_symmetry_mode_is_eigenvector(p):
    params = cached_params(p)
    grid = cached_grid(96)
    ops = cached_ops(p, 96)
    gsym = sp.symmetry_mode(grid, params)
    if p == 3.0:
        assert np.allclose(gsym[:96], 2.0 * grid.nodes, atol=1e-14)
    if p == 2.0:
        assert np.allclose(gsym[:96], 3.0 * grid.nodes, atol=1e-14)
    assert np.allclose(gsym[96:], 1.0, atol=1e-15)
    resid = state_norm(grid, ops.L @ gsym - gsym)
    assert resid <= 1e-10


def test_volterra_block_action():
    # below the penalty row, L - L0 = L' reads only phi2 and writes only
    # phi1; on (0, 1) its first component is p kappa0 rho
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    diff = (ops.L - ops.L0)[1:]
    u = np.concatenate([np.zeros(64), np.ones(64)])
    out = diff @ u
    assert np.allclose(out[:63], params.p * params.kappa0 * grid.nodes[1:],
                       atol=1e-12)
    assert np.abs(out[63:]).max() == 0.0
    assert np.abs(diff[:, :64]).max() == 0.0


def test_free_part_symbolic_action():
    # L0 on (rho sin(pi rho / 2), cos(pi rho)) vs hand derivatives
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    rho = grid.nodes
    c = 2.0 / (params.p - 1.0)
    u1 = rho * np.sin(np.pi * rho / 2.0)
    u2 = np.cos(np.pi * rho)
    du1 = np.sin(np.pi * rho / 2.0) + rho * np.pi / 2.0 * np.cos(np.pi * rho / 2.0)
    du2 = -np.pi * np.sin(np.pi * rho)
    expect1 = du2 - rho * du1 - c * u1
    expect2 = du1 - rho * du2 - c * u2
    out = ops.L0 @ np.concatenate([u1, u2])
    interior = slice(1, 63)
    assert np.abs(out[:64][interior] - expect1[interior]).max() <= 1e-8
    assert np.abs(out[64:][interior] - expect2[interior]).max() <= 1e-8


def test_quantization_zeros_and_values():
    p3 = cached_params(3.0)
    p2 = cached_params(2.0)
    for p in (1.5, 2.0, 3.0):
        assert sp.quantization_Q(1.0, cached_params(p)) == 0.0
    assert sp.quantization_Q(-1.0, p2) == 0.0
    q = sp.quantization_Q(0.5, p3)
    assert q != 0.0
    # independent evaluation through math.gamma and reflection
    def gamma_inv(x):
        if x > 0:
            return 1.0 / math.gamma(x)
        return _sinpi(x) * math.gamma(1.0 - x) / math.pi
    a = (0.5 - 2.0) / 2.0
    b = (0.5 + 3.0) / 2.0
    oracle = gamma_inv(a + 0.5) * gamma_inv(b + 0.5)
    assert q == pytest.approx(oracle, rel=1e-12)


def test_quantization_domain():
    p3 = cached_params(3.0)
    with pytest.raises(DomainError):
        sp.quantization_Q(-0.6, p3)


def test_analytic_eigenvalues_families():
    assert sp.analytic_eigenvalues(cached_params(3.0), -0.4) == [1.0]
    assert sp.analytic_eigenvalues(cached_params(2.0), -1.4) == [-1.0, 1.0]
    assert sp.analytic_eigenvalues(cached_params(1.5), -3.4) == [-3.0, -1.0, 1.0]
    with pytest.raises(DomainError):
        sp.analytic_eigenvalues(cached_params(3.0), -0.6)


def test_discrete_eigenvalues_p3_window_is_exactly_one():
    ops = cached_ops(3.0, 64)
    report = sp.discrete_eigenvalues(ops, (cached_grid(64), cached_grid(96)))
    stable = report.stable_eigenvalues()
    assert len(stable) == 1
    assert abs(stable[0] - 1.0) <= 1e-8
    assert report.projection_rank == 1


def test_discrete_eigenvalues_p2_stable_set():
    ops = cached_ops(2.0, 64)
    report = sp.discrete_eigenvalues(ops, (cached_grid(64), cached_grid(96)))
    stable = report.stable_eigenvalues()
    assert any(abs(lam - 1.0) <= 1e-8 for lam in stable)
    for lam in stable:
        assert min(abs(lam - a) for a in (-1.0, 1.0)) <= 1e-6


@pytest.mark.parametrize("p", [2.25, 1.0 + 1.0 / 1.8, 1.0 + 1.0 / 2.8])
def test_window_edge_eigenvalue_in_both_lists(p):
    # at p = 1 + 1/(k - 0.2) the window edge omega_tilde + 0.1 is the
    # analytic eigenvalue 1 - 2k itself; it and the discrete eigenvalue
    # that resolves it are reported together, whichever way each rounds
    params = params_new(p)
    edge = 1.0 - 2.0 * round(1.0 / (p - 1.0) + 0.2)
    assert abs(params.omega_tilde + 0.1 - edge) <= 1e-12
    ops = sp.assemble_L(cached_grid(64), params)
    report = sp.discrete_eigenvalues(ops, (cached_grid(64), cached_grid(96)))
    assert edge in report.analytic
    stable = sorted(lam.real for lam in report.stable_eigenvalues())
    assert len(stable) == len(report.analytic)
    assert np.abs(np.array(stable) - report.analytic).max() <= 1e-6


def test_discrete_eigenvalues_refinement_precondition():
    ops = cached_ops(3.0, 64)
    with pytest.raises(DomainError):
        sp.discrete_eigenvalues(ops, (cached_grid(64), cached_grid(80)))


def test_eigenvector_at_one_parallel_to_symmetry_mode():
    params = cached_params(3.0)
    grid = cached_grid(96)
    ops = cached_ops(3.0, 96)
    vals, vecs = np.linalg.eig(ops.L)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    assert abs(vals[idx] - 1.0) <= 1e-8
    vec = np.real(vecs[:, idx])
    gvec = sp.symmetry_mode(grid, params)
    cosang = abs(state_inner(grid, vec, gvec)) / (
        state_norm(grid, vec) * state_norm(grid, gvec))
    assert math.acos(min(cosang, 1.0)) <= 1e-6


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_riesz_projection_diagnostics(p):
    proj = cached_projection(p, 96)
    assert proj.idempotency_defect <= 1e-8
    assert proj.rank == 1


def _dense_projection(p, n):
    """P = g l^T as a 2n x 2n matrix, the reference the closed forms in g
    and l are compared with."""
    gvec = sp.symmetry_mode(cached_grid(n), cached_params(p))
    return np.outer(gvec, cached_projection(p, n).functional)


def _dense_commutator(P, L):
    return np.linalg.norm(P @ L - L @ P, 2)


def test_commutator_closed_form_matches_dense():
    # the p = 2 projection against the p = 3 operator does not commute,
    # so the rank-two closed form is compared on an O(1) value
    L = cached_ops(3.0, 96).L
    gvec = sp.symmetry_mode(cached_grid(96), cached_params(2.0))
    dense = _dense_commutator(_dense_projection(2.0, 96), L)
    assert dense > 0.1
    closed = vl._commutator_norm(L, gvec, cached_projection(2.0, 96).functional)
    assert closed == pytest.approx(dense, rel=1e-10)


@settings(derandomize=True, deadline=None)
@given(p=hst.floats(1.01, 3.0), n=hst.integers(16, 160))
@example(p=1.1, n=96)
def test_riesz_projection_on_admissible_domain(p, n):
    ops = sp.assemble_L(build_grid(n), params_new(p))
    proj = sp.riesz_projection(ops)
    assert proj.rank == 1
    assert proj.idempotency_defect <= 1e-8
    gvec = sp.symmetry_mode(ops.grid, ops.params)
    assert vl._commutator_norm(ops.L, gvec, proj.functional) <= 1e-8


@pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [48, 96, 144])
def test_projection_diagnostics_match_dense_linear_algebra(p, n):
    proj = cached_projection(p, n)
    P = _dense_projection(p, n)
    svals = np.linalg.svd(P, compute_uv=False)
    assert proj.rank == int(np.sum(svals > 1e-6))
    assert abs(proj.idempotency_defect
               - np.linalg.norm(P @ P - P, 2)) <= 1e-13
    # P commutes with L: the dense and the closed-form commutator both
    # read rounding
    L = cached_ops(p, n).L
    gvec = sp.symmetry_mode(cached_grid(n), cached_params(p))
    assert _dense_commutator(P, L) <= 1e-10
    assert vl._commutator_norm(L, gvec, proj.functional) <= 1e-10


def test_projection_defect_sees_a_misnormalised_functional(monkeypatch):
    # the closed form |l.g - 1| sigma must read a functional scaled off
    # l^T g = 1 as the dense ||P^2 - P||_2 does
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1.01 * solve(a, b))
    proj = sp.riesz_projection(cached_ops(3.0, 96))
    P = np.outer(sp.symmetry_mode(cached_grid(96), cached_params(3.0)),
                 proj.functional)
    dense = np.linalg.norm(P @ P - P, 2)
    assert dense > 1e-3
    assert proj.idempotency_defect == pytest.approx(dense, rel=1e-10)
    checks = {r.name: r.ok for r in vl.suite_spectral(cached_params(3.0),
                                                      96, 0)}
    assert checks["projection_idempotency"] is False


def _contour_projection(L, m=32, center=1.0, radius=0.5):
    """(2 pi i)^-1 oint (lam - L)^-1 dlam by the m-point trapezoid rule on
    |lam - center| = radius; converges exponentially in m when the circle
    separates 1 from the rest of the spectrum."""
    eye = np.eye(L.shape[0])
    acc = np.zeros(L.shape, dtype=complex)
    for k in range(m):
        z = radius * np.exp(2j * np.pi * k / m)
        acc += z * np.linalg.solve((center + z) * eye - L, eye)
    return (acc / m).real


@pytest.mark.parametrize("p", [1.02, 1.1, 1.5, 2.0, 3.0])
def test_riesz_projection_matches_contour_quadrature(p):
    ops = cached_ops(p, 48)
    ref = _contour_projection(ops.L)
    P = _dense_projection(p, 48)
    assert np.linalg.norm(P - ref, 2) <= 1e-11 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("p", [1.02, 1.03, 1.05, 1.1])
def test_suite_spectral_projection_checks_pass_near_p_one(p):
    # the boundary-penalty eigenvalue stays left of the reported window, so
    # the stable eigenvalues match the quantization from p = 1.03 on (at
    # p = 1.02 the agreement is 2e-5, rounding in the b ~ 100 eigenvalues)
    results = vl.suite_spectral(cached_params(p), 96, 0)
    names = {"projection_idempotency", "projection_commutator"}
    if p >= 1.03:
        names.add("quantization_agreement")
    checks = {r.name: r.ok for r in results if r.name in names}
    assert checks == dict.fromkeys(names, True)


def test_spectrum_report_json_schema():
    ops = cached_ops(3.0, 64)
    report = sp.discrete_eigenvalues(ops, (cached_grid(64), cached_grid(96)))
    doc = json.loads(report.to_json())
    assert set(doc) == {"p", "n_coarse", "n_fine", "analytic", "discrete",
                        "projection_rank", "projection_defect", "timings"}
    assert doc["n_coarse"] == 64 and doc["n_fine"] == 96
    assert all(set(d) == {"re", "im", "stable", "refinement"}
               for d in doc["discrete"])
    # the flag reads the recorded distance
    assert all(d["stable"] == (d["refinement"] < 1e-6)
               for d in doc["discrete"])
    assert set(doc["timings"]) == {"operators_s", "eigenvalues_s",
                                   "refinement_s", "projection_s"}


def _dense_flags(report, coarse_L, fine_L):
    """The stable flags of a report recomputed from all eigenvalues of both
    grids: whether the fine operator has an eigenvalue within 1e-6 of the
    coarse eigenvalue each entry started from, the one nearest its
    reported value (the fine eigenvalue if stable, that coarse one if
    not)."""
    ev_c = np.linalg.eigvals(coarse_L)
    ev_f = np.linalg.eigvals(fine_L)
    flags = []
    for d in report.discrete:
        mu = ev_c[np.abs(ev_c - complex(d["re"], d["im"])).argmin()]
        flags.append(bool(np.abs(ev_f - mu).min() < 1e-6))
    return flags


@pytest.mark.parametrize("p", [1.1, 1.25, 1.0 + 1.0 / 2.8, 1.5,
                               1.0 + 1.0 / 1.8, 1.75, 2.0, 2.25, 2.5, 3.0])
def test_refinement_flags_match_dense_coarse_oracle(p):
    # inverse iteration on the fine operator flags exactly the coarse
    # eigenvalues that a dense solve of it finds a fine eigenvalue within
    # 1e-6 of, on every refinement pair
    params = cached_params(p)
    for nc, nf in ((16, 24), (32, 48), (64, 96), (96, 144)):
        ops = sp.assemble_L(cached_grid(nc), params)
        report = sp.discrete_eigenvalues(ops, (cached_grid(nc),
                                               cached_grid(nf)))
        flags = [d["stable"] for d in report.discrete]
        assert flags == _dense_flags(report, ops.L, cached_ops(p, nf).L), (
            nc, nf)
        assert any(flags)


def test_refinement_flags_match_oracle_on_complex_candidates():
    # for p >= 1.1 no complex eigenvalue lies above omega_tilde; at p =
    # 1.05 the 16-point grid has some in the window, and they take the
    # complex inverse iteration
    ops = cached_ops(1.05, 16)
    report = sp.discrete_eigenvalues(ops, (cached_grid(16), cached_grid(24)))
    assert any(d["im"] != 0.0 for d in report.discrete)
    assert ([d["stable"] for d in report.discrete]
            == _dense_flags(report, ops.L, cached_ops(1.05, 24).L))


@pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 2.0, 3.0])
def test_stable_entries_are_fine_grid_eigenvalues(p):
    # a stable entry holds the fine eigenvalue that inverse iteration
    # found, not a dense solve's
    ops = cached_ops(p, 96)
    report = sp.discrete_eigenvalues(ops, (cached_grid(96), cached_grid(144)))
    ev_f = np.linalg.eigvals(cached_ops(p, 144).L)
    stable = report.stable_eigenvalues()
    assert stable
    for lam in stable:
        assert np.abs(ev_f - lam).min() <= 1e-9, lam


def test_nearest_eigenvalue_on_and_near_coarse_eigenvalues():
    L = cached_ops(3.0, 16).L
    # the penalty row makes L + 50 I exactly singular: distance 0, no error
    assert sp._nearest_eigenvalue(L, np.complex128(-50.0)) == -50.0
    # 1e-7 from the eigenvalue 1 and from the complex eigenvalue of
    # largest real part, real and complex shifts find it
    ev = np.linalg.eigvals(L)
    cplx = ev[ev.imag != 0.0]
    for mu in (ev[np.abs(ev - 1.0).argmin()], cplx[cplx.real.argmax()]):
        for offset in (1e-7, 1e-7j):
            est = sp._nearest_eigenvalue(L, mu + offset)
            assert abs(est - mu) <= 1e-12, (mu, offset)


def test_one_dense_eigenvalue_solve_per_spectrum(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return np.linalg.eigvals(matrix)

    monkeypatch.setattr(sp, "_eigvals", counting)
    for p in (1.5, 3.0):
        sp.discrete_eigenvalues(cached_ops(p, 64),
                                (cached_grid(64), cached_grid(96)))
    assert calls == [(128, 128), (128, 128)]


def test_refinement_distance_against_extended_precision():
    # p = 1.02, grids 16/24: the coarse eigenvalue near -9 lies 1.3911e-6
    # from the nearest exact eigenvalue of the fine matrix (mpmath, 40
    # digits), so its entry is unstable and holds it; inverse iteration
    # reads 1.336e-6 and a dense solve 5.5e-7
    mpmath = pytest.importorskip("mpmath")
    params = cached_params(1.02)
    ops = sp.assemble_L(cached_grid(16), params)
    report = sp.discrete_eigenvalues(ops, (cached_grid(16), cached_grid(24)))
    entry = min(report.discrete, key=lambda d: abs(d["re"] + 9.0))
    assert not entry["stable"]
    lam = entry["re"]
    fine_L = cached_ops(1.02, 24).L
    with mpmath.workdps(40):
        shifted = mpmath.matrix(fine_L.tolist()) - lam * mpmath.eye(48)
        x = mpmath.matrix([1] * 48)
        for _ in range(4):
            y = mpmath.lu_solve(shifted, x)
            c = (y.H * x)[0] / (y.H * y)[0]
            x = y / mpmath.norm(y)
        exact = float(abs(c))
    assert abs(exact - 1.3911e-6) <= 1e-10
    assert abs(entry["refinement"] - exact) <= 3e-7


def test_eigenfunction_lambda_one_proportional_to_rho():
    grid = cached_grid(64)
    for p in (2.0, 3.0):
        params = cached_params(p)
        u = sp.eigenfunction_analytic(1.0, params, grid)
        ratio = u[1:] / grid.nodes[1:]
        assert np.abs(ratio - ratio[0]).max() <= 1e-8


def test_eigenfunction_lambda_minus_one_ode_residual():
    # plug u into the reduced second-order equation at lam = -1, p = 2
    p2 = cached_params(2.0)
    grid = cached_grid(64)
    lam = -1.0
    u = sp.eigenfunction_analytic(lam, p2, grid)
    c = 2.0 / (p2.p - 1.0)
    du = grid.D @ u
    ddu = grid.D @ du
    resid = (-(1.0 - grid.nodes**2) * ddu
             + 2.0 * (lam + c) * grid.nodes * du
             + ((lam + c) * (lam + c - 1.0) - p2.p * p2.kappa0) * u)
    assert np.abs(resid[1:-1]).max() <= 1e-6


def test_eigenfunction_rejects_non_eigenvalues():
    p3 = cached_params(3.0)
    grid = cached_grid(64)
    with pytest.raises(DomainError):
        sp.eigenfunction_analytic(0.5, p3, grid)
    # the logarithmically degenerate point for p = 3 is 1 - 2/(p-1) = 0
    with pytest.raises(DomainError):
        sp.eigenfunction_analytic(0.0, p3, grid)


def test_free_part_dissipativity_sampled():
    params = cached_params(3.0)
    grid = cached_grid(96)
    ops = cached_ops(3.0, 96)
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = random_polynomial_state(grid, rng, amplitude=1.0)
        lhs = state_inner(grid, ops.L0 @ u, u)
        assert lhs <= (params.omega_tilde + 1e-8) * state_inner(grid, u, u)
