"""Invariant suites behind the `validate` subcommand.

`SUITES` lists the suites in order.  Each takes (params, n, seed) and
returns one CheckResult per check, with the measured value and its bound;
`blowlab validate` prints one line per check (and writes them as JSON with
`--out`) and exits nonzero if any fail, and pytest runs each suite as its
own test.  The suites are grouped so that a fault in one ingredient (say,
a sign error in the nonlinearity) shows up in the groups that depend on it.
`suite_specfun` and `suite_integrator` read neither p nor n.  No two
checks read the same quantity; one holds by construction: N(0) in
`lipschitz/nonlin_N_at_zero` is exactly 0.0 at every tested exponent.
"""

import decimal
import math
from dataclasses import dataclass

import numpy as np

from . import evolve as ev
from . import model as md
from . import spectral as sp
from .grid import build_grid
from .specfun import hyp2f1, rgamma
from .specfun import _connection_regular, _series


@dataclass
class CheckResult:
    """A check passes when lower <= value <= bound; `bound` is the upper
    end and `lower` the lower one, None where a check has no such end."""

    suite: str
    name: str
    value: float
    bound: float | None
    ok: bool
    lower: float | None = None

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        if self.lower is None:
            limit = f"{self.bound:.6g}"
        else:
            upper = "inf)" if self.bound is None else f"{self.bound:.6g}]"
            limit = f"[{self.lower:.6g}, {upper}"
        return (f"{status} {self.suite}/{self.name}: "
                f"value={self.value:.6g} bound={limit}")


def _worst(*values):
    """The largest value, or NaN if any is NaN (max drops a late NaN)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _upper(suite, name, value, bound):
    return CheckResult(suite, name, float(value), float(bound),
                       bool(value <= bound))


def _lower(suite, name, value, lo):
    return CheckResult(suite, name, float(value), None, bool(value >= lo),
                       float(lo))


def _interval(suite, name, value, lo, hi):
    return CheckResult(suite, name, float(value), float(hi),
                       bool(lo <= value <= hi), float(lo))


def suite_specfun(params, n, seed):
    """Gamma and 2F1 identities; params and n are not used."""
    rng = np.random.default_rng(seed)
    out = []
    xs = np.linspace(0.1, 30.0, 733)
    ident = _worst(*(abs(rgamma(x) * math.exp(math.lgamma(x)) - 1.0)
                     for x in xs))
    out.append(_upper("specfun", "rgamma_lngamma_identity", ident, 1e-12))

    # Gauss relation c [F(a,b;c) - F(a+1,b;c)] + b z F(a+1,b+1;c+1) = 0
    worst = 0.0
    count = 0
    while count < 100:
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(-4.0, 4.0)
        c = rng.uniform(0.3, 4.0)
        z = rng.uniform(0.05, 0.95)
        d = c - a - b
        if abs(d - round(d)) < 1e-3:
            continue
        f0 = hyp2f1(a, b, c, z)
        f1 = hyp2f1(a + 1.0, b, c, z)
        f2 = hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        resid = c * (f0 - f1) + b * z * f2
        scale = max(abs(c * f0), abs(c * f1), abs(b * z * f2), 1.0)
        worst = _worst(worst, abs(resid) / scale)
        count += 1
    out.append(_upper("specfun", "contiguous_relation", worst, 1e-9))

    overlap = 0.0
    for _ in range(50):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.3, 4.0)
        d = c - a - b
        if min(abs(d - round(d)), 1.0) < 1e-3:
            continue
        z = rng.uniform(0.3, 0.5)
        direct = _series(a, b, c, z)
        conn = _connection_regular(a, b, c, z)
        overlap = _worst(overlap, abs(direct - conn) / max(abs(direct), 1.0))
    out.append(_upper("specfun", "series_connection_overlap", overlap, 1e-9))
    return out


def suite_lipschitz(params, n, seed):
    """Nonlinearity estimates: vanishing at zero, quadratic bound, and the
    sampled Lipschitz property with a single fitted constant."""
    grid = build_grid(n)
    rng = np.random.default_rng(seed)
    out = []
    out.append(_upper("lipschitz", "nonlin_N_at_zero",
                      abs(md.nonlin_N(params, 0.0)), 1e-12))
    xs = np.linspace(-1.0, 1.0, 401)
    xs = xs[np.abs(xs) > 1e-3]
    quad = float(np.max(np.abs(md.nonlin_N(params, xs)) / xs**2))
    out.append(_upper("lipschitz", "quadratic_bound_constant", quad, 100.0))

    lip = 0.0
    c1 = 0.0
    norm = lambda u: math.sqrt(grid.integrate(u**2))
    for _ in range(200):
        amp_u = 10.0 ** rng.uniform(-1.7, 0.0)
        amp_v = 10.0 ** rng.uniform(-1.7, 0.0)
        su = md.random_polynomial_state(grid, rng, amplitude=amp_u)
        sv = md.random_polynomial_state(grid, rng, amplitude=amp_v)
        u, v = su[grid.n:], sv[grid.n:]
        nu = ev.nonlinear_term(grid, params, su)[:grid.n]
        nv = ev.nonlinear_term(grid, params, sv)[:grid.n]
        c1 = _worst(c1, norm(nu) / norm(u) ** 2)
        diff = norm(u - v)
        if diff > 1e-12:
            lip = _worst(lip, norm(nu - nv) / ((norm(u) + norm(v)) * diff))
    out.append(_upper("lipschitz", "quadratic_smallness_constant", c1, 100.0))
    out.append(_upper("lipschitz", "lipschitz_constant", lip, 100.0))
    return out


def suite_model(params, n, seed):
    """Hardy and sup bounds of the grid operators, the energy norm, the
    blow-up solution's ODE and the initial-state map U."""
    rng = np.random.default_rng(seed)
    out = []
    unit = build_grid(n)
    linfty = 0.0
    hardy = 0.0
    for _ in range(200):
        u = md.random_polynomial_state(unit, rng, amplitude=1.0)[n:]
        unorm = math.sqrt(unit.integrate(u**2))
        iu = unit.V @ u
        linfty = _worst(linfty, float(np.max(
            np.abs(iu[1:]) / np.sqrt(unit.nodes[1:])) - unorm))
        au = md.avg_A(unit, u)
        hardy = _worst(hardy, math.sqrt(unit.integrate(au**2)) / unorm)
    out.append(_upper("model", "linfty_bound_violation", linfty, 1e-10))
    out.append(_upper("model", "hardy_constant", hardy, 2.0))

    cone = build_grid(n, 1.5)
    homog = 0.0
    triangle = 0.0
    for _ in range(20):
        fa = md.random_polynomial_data(cone, rng, params, amplitude=1.0)
        fb = md.random_polynomial_data(cone, rng, params, amplitude=1.0)
        na, nb = md.energy_norm(fa), md.energy_norm(fb)
        lam = rng.uniform(-3.0, 3.0)
        scaled = md.RadialPair(f=lam * fa.f, g=lam * fa.g, grid=cone)
        homog = _worst(homog, abs(md.energy_norm(scaled) - abs(lam) * na))
        summed = md.RadialPair(f=fa.f + fb.f, g=fa.g + fb.g, grid=cone)
        triangle = _worst(triangle, md.energy_norm(summed) - (na + nb))
    out.append(_upper("model", "energy_homogeneity", homog, 1e-9))
    out.append(_upper("model", "energy_triangle_violation", triangle, 1e-10))

    # U(v, T) = T^q [v(T rho) + kappa(T rho)] - kappa(rho) in closed form
    # for polynomial v (scaled by k); T != 1 and v != 0 make U_map
    # interpolate v off its grid
    k, q, T = params.kappa_root, 2.0 / (params.p - 1.0), 1.1

    def v_at(s):
        return np.concatenate([k * s * (1.0 - s**2), k * (s - 0.5 * s**4)])

    def kappa_at(s):
        return np.concatenate([q * k * s, np.full(s.size, k)])

    vs = v_at(cone.nodes)
    rho = unit.nodes
    exact = T**q * (v_at(T * rho) + kappa_at(T * rho)) - kappa_at(rho)
    umap = md.U_map(md.DataPair(v1=vs[:n], v2=vs[n:], grid=cone), T, params,
                    unit)
    out.append(_upper("model", "U_map_closed_form",
                      np.abs(umap - exact).max() / np.abs(exact).max(),
                      1e-12))

    # psi_tt = psi^p pointwise, 4th-order finite-difference accuracy
    t0 = 0.3
    exact = params.kappa0 ** (params.p / (params.p - 1.0)) \
        * (params.T - t0) ** (-2.0 * params.p / (params.p - 1.0))
    errs = []
    for h in (0.02, 0.01):
        vals = [md.psi_T(params, t0 + k * h) for k in (-2, -1, 0, 1, 2)]
        fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
              - vals[4]) / (12 * h * h)
        errs.append(abs(fd - exact))
    out.append(_interval("model", "psi_T_ode_fd_order", errs[0] / errs[1],
                         12.0, 20.0))
    return out


def _commutator_norm(L, gvec, lvec):
    """||P L - L P||_2 for P = g l^T without forming P: P L - L P = X Y^T
    with X = [g, -b], Y = [a, l], a = L^T l - l and b = L g - g, so with
    X = Q1 R1 and Y = Q2 R2 its 2-norm is that of the 2 x 2 R1 R2^T."""
    a = L.T @ lvec - lvec
    b = L @ gvec - gvec
    r1 = np.linalg.qr(np.column_stack([gvec, -b]), mode="r")
    r2 = np.linalg.qr(np.column_stack([a, lvec]), mode="r")
    return float(np.linalg.norm(r1 @ r2.T, 2))


def suite_spectral(params, n, seed):
    """Grid operators, the generator, its projection and its spectrum.  The
    refinement filter of the spectrum compares 64 points with max(n, 96),
    at least 1.5 times as many."""
    out = []
    n_fine = max(n, 96)
    gc, gf = build_grid(64), build_grid(n_fine)
    rho = gf.nodes
    out.append(_upper("spectral", "grid_diff_rho2",
                      float(np.abs(gf.D @ rho**2 - 2 * rho).max()), 1e-10))
    out.append(_upper("spectral", "grid_volterra_const",
                      float(np.abs(gf.V @ np.ones(n_fine) - rho).max()), 1e-10))

    ops_f = sp.assemble_L(gf, params)
    gvec = sp.symmetry_mode(gf, params)
    out.append(_upper("spectral", "symmetry_mode_residual",
                      md.state_norm(gf, ops_f.L @ gvec - gvec), 1e-10))

    proj = sp.riesz_projection(ops_f)
    out.append(_upper("spectral", "projection_idempotency",
                      proj.idempotency_defect, 1e-8))
    out.append(_upper("spectral", "projection_commutator",
                      _commutator_norm(ops_f.L, gvec, proj.functional), 1e-8))

    # each stable eigenvalue claims the nearest analytic one not yet
    # claimed, so two stable eigenvalues on one analytic eigenvalue fail
    report = sp.discrete_eigenvalues(ops_f, (gc, gf), projection=proj)
    agree = 0.0
    free = list(report.analytic)
    for lam in report.stable_eigenvalues():
        match = min(free, key=lambda a: abs(lam - a), default=math.inf)
        free = [a for a in free if a != match]
        agree = _worst(agree, abs(lam - match))
    out.append(_upper("spectral", "quantization_agreement", agree, 1e-5))

    # Wronskian of the fundamental pair of the eigenvalue-1 equation
    q = (params.p + 1.0) / (params.p - 1.0)
    expo = 2.0 / (params.p - 1.0)
    a1, b1, c1 = 1.0, 0.5 - q, 0.5
    worst = 0.0
    for r in np.linspace(0.12, 0.93, 24):
        z = r * r
        h1t = hyp2f1(a1, b1, c1, z)
        dh1t = 2.0 * r * (a1 * b1 / c1) * hyp2f1(a1 + 1, b1 + 1, c1 + 1, z)
        h1 = (1 - z) ** (-expo) * h1t
        dh1 = 2.0 * expo * r * (1 - z) ** (-expo - 1) * h1t \
            + (1 - z) ** (-expo) * dh1t
        wron = r * dh1 - h1
        worst = _worst(worst, abs(wron * (1 - z) ** (q) + 1.0))
    out.append(_upper("spectral", "wronskian_identity", worst, 1e-6))

    rng = np.random.default_rng(seed)
    L0 = sp.free_part(gf, params)
    diss = -np.inf
    for _ in range(100):
        u = md.random_polynomial_state(gf, rng, amplitude=1.0)
        lhs = md.state_inner(gf, L0 @ u, u)
        diss = _worst(diss, lhs - params.omega_tilde
                      * md.state_inner(gf, u, u))
    out.append(_upper("spectral", "free_part_dissipativity", diss, 1e-8))
    return out


def suite_rhs(params, n, seed):
    """The nonlinear part (rho N(A u2), 0) of `integrate`'s right-hand side
    at the symmetry mode, where A u2 = 1, against N(1) in decimal, with 20
    digits beyond the 2 log10 k its terms cancel to; seed is not used."""
    out = []
    grid = build_grid(n)
    gvec = sp.symmetry_mode(grid, params)
    extra = ev.nonlinear_term(grid, params, gvec)
    with decimal.localcontext() as ctx:
        ctx.prec = 20 + math.ceil(2.0 * math.log10(params.kappa_root))
        k, p = decimal.Decimal(params.kappa_root), decimal.Decimal(params.p)
        n_of_one = float((k + 1) ** p - k ** p - p * k ** (p - 1))
    oracle = np.concatenate([grid.nodes * n_of_one, np.zeros(n)])
    oracle[0] = 0.0
    out.append(_upper("rhs", "nonlinear_term_oracle",
                      float(np.abs(extra - oracle).max()), 1e-10))
    return out


def suite_integrator(params, n, seed):
    """Richardson self-convergence of the Lawson RK4 step on a smooth run
    at p = 3 and n = 32, whatever params and n: below p = 3 its step error
    sits at rounding (the ratio reads 0.93, 1.08, 4.08 and 16.46 at
    p = 1.25, 1.5, 2 and 3)."""
    p3 = md.params_new(3.0)
    g32 = build_grid(32)
    ops32 = sp.assemble_L(g32, p3)
    proj32 = sp.riesz_projection(ops32)
    gsym = sp.symmetry_mode(g32, p3)
    smooth = 0.2 / md.state_norm(g32, gsym) * gsym
    kw = dict(nonlinear=True, projection=proj32)
    ref = ev.integrate(smooth, 1.0, ops32, g32, p3, dtau=2.5e-4, **kw)
    e_coarse = md.state_norm(g32, ev.integrate(
        smooth, 1.0, ops32, g32, p3, dtau=4e-3, **kw).states[-1]
        - ref.states[-1])
    e_fine = md.state_norm(g32, ev.integrate(
        smooth, 1.0, ops32, g32, p3, dtau=2e-3, **kw).states[-1]
        - ref.states[-1])
    return [_interval("integrator", "richardson_ratio", e_coarse / e_fine,
                      12.0, 20.0)]


def suite_evolve(params, n, seed):
    """Growth, decay and tuning of the evolution, on grids of its own (48
    and 72 points): n is not used."""
    out = []
    tau_end = 8.0
    grid = build_grid(48)
    gdata = build_grid(48, 1.5)
    ops = sp.assemble_L(grid, params)
    proj = sp.riesz_projection(ops)
    rng = np.random.default_rng(seed)

    # untuned symmetry-mode growth at rate 1
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    traj = ev.integrate(u, 6.0, ops, grid, params, nonlinear=False,
                        projection=proj)
    grate = ev.growth_fit(traj.taus, traj.unstable_coeffs, (1.0, 5.0))
    out.append(_interval("evolve", "unstable_coefficient_growth_rate",
                         grate, 0.95, 1.05))

    # linear decay on the stable subspace
    stable = u - (proj.functional @ u) * sp.symmetry_mode(grid, params)
    trajd = ev.integrate(stable, tau_end, ops, grid, params,
                         nonlinear=False, projection=proj)
    rate, _ = ev.decay_fit(trajd, (2.0, tau_end))
    out.append(_lower("evolve", "stable_subspace_decay_rate", rate,
                      abs(params.omega) - 0.15))

    # tuned run: weighted boundedness, early attainment, zero-correction
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=1e-3)
    v = md.data_to_v(fg, params)
    _, tuned = ev.tune_T(v, params, tau_end, grid, ops, projection=proj)
    weighted = np.exp(params.mu * tuned.taus) * tuned.norms
    out.append(_upper("evolve", "xnorm_attained_at_small_tau",
                      float(tuned.taus[int(np.argmax(weighted))]), 1.0))
    out.append(_upper("evolve", "xnorm_over_initial",
                      float(weighted.max() / tuned.norms[0]), 10.0))
    out.append(_upper("evolve", "zero_correction_identity",
                      ev.correction_residual(tuned, ops, proj), 1e-4))

    # decay-fit rate stability under grid refinement
    n2 = 72
    grid2 = build_grid(n2)
    ops2 = sp.assemble_L(grid2, params)
    proj2 = sp.riesz_projection(ops2)
    _, tuned2 = ev.tune_T(v, params, tau_end, grid2, ops2,
                          projection=proj2)
    r1, _ = ev.decay_fit(tuned, (2.0, tau_end - 1.0))
    r2, _ = ev.decay_fit(tuned2, (2.0, tau_end - 1.0))
    out.append(_upper("evolve", "refinement_rate_drift", abs(r1 - r2), 0.02))
    return out


SUITES = (suite_specfun, suite_lipschitz, suite_model, suite_spectral,
          suite_rhs, suite_integrator, suite_evolve)

