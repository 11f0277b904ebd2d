"""Acceptance suite: the quantitative desk-scale checks, one per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with the measured values.
"""

import math

import numpy as np

from blowlab import evolve as ev
from blowlab import model as md
from blowlab import spectral as sp
from blowlab import validate as vl
from blowlab.grid import build_grid
from conftest import cached_grid, cached_ops, cached_params, cached_projection


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_spectral_quantization():
    detail = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        ops = cached_ops(p, 64)
        report = sp.discrete_eigenvalues(ops, (cached_grid(64),
                                               cached_grid(96)))
        stable = report.stable_eigenvalues()
        worst = max((min(abs(lam - a) for a in report.analytic)
                     for lam in stable), default=0.0)
        ok &= worst <= 1e-5
        detail.append(f"p={p}: max dist {worst:.2e}")
        if p == 3.0:
            ok &= len(stable) == 1 and abs(stable[0] - 1.0) <= 1e-8
            detail.append(f"p=3 window set size {len(stable)}, "
                          f"|lam-1|={abs(stable[0] - 1.0):.2e}")
    _report(1, "spectral quantization matches collocation spectra",
            ok, "; ".join(detail))


def test_criterion_02_symmetry_mode_residual():
    detail = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        grid = cached_grid(96)
        ops = cached_ops(p, 96)
        gvec = sp.symmetry_mode(grid, cached_params(p)).stacked()
        resid = sp.state_norm(grid, ops.L @ gvec - gvec)
        ok &= resid <= 1e-10
        detail.append(f"p={p}: {resid:.2e}")
    _report(2, "symmetry mode solves (L - I) g = 0", ok, "; ".join(detail))


def test_criterion_03_riesz_projection():
    detail = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        proj = cached_projection(p, 96)
        ok &= proj.idempotency_defect <= 1e-8
        ok &= proj.rank == 1
        ok &= proj.g_residual <= 1e-8
        detail.append(f"p={p}: defect {proj.idempotency_defect:.2e}, "
                      f"rank {proj.rank}, Pg-g {proj.g_residual:.2e}")
    _report(3, "Riesz projection is a rank-one idempotent fixing g",
            ok, "; ".join(detail))


def test_criterion_04_linear_decay_rates():
    detail = []
    ok = True
    n = 48
    for p in (2.0, 3.0):
        params = cached_params(p)
        grid = cached_grid(n)
        ops = cached_ops(p, n)
        proj = cached_projection(p, n)
        rng = np.random.default_rng(100)
        rates, growths = [], []
        for _ in range(20):
            u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
            stable = md.State.from_stacked(u.stacked() - proj.P @ u.stacked(),
                                           0.0)
            traj = ev.integrate(stable, 8.0, ops, grid, params,
                                nonlinear=False, projection=proj)
            rate, _ = ev.decay_fit(traj, (2.0, 8.0))
            rates.append(rate)
            full = ev.integrate(u, 8.0, ops, grid, params, nonlinear=False,
                                projection=proj)
            growths.append(ev.growth_fit(full.taus, full.unstable_coeffs,
                                         (2.0, 7.0)))
        ok &= min(rates) >= abs(params.omega) - 0.15
        ok &= max(abs(g - 1.0) for g in growths) <= 0.05
        detail.append(f"p={p}: min decay {min(rates):.3f} "
                      f"(>= {abs(params.omega) - 0.15}), growth "
                      f"{min(growths):.3f}..{max(growths):.3f}")
    _report(4, "linear decay on the stable subspace, unit growth of g-part",
            ok, "; ".join(detail))


def test_criterion_05_nonlinear_stability_with_tuning():
    params = md.params_new(3.0, eps=0.15)
    n = 48
    grid = cached_grid(n)
    gdata = cached_grid(n, 1.5)
    ops = sp.assemble_L(grid, params)
    proj = sp.riesz_projection(ops)
    rng = np.random.default_rng(42)
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=1e-3)
    v = md.data_to_v(fg, params)
    t_star, traj = ev.tune_T(v, params, 10.0, grid, ops, projection=proj)
    weighted = np.exp(0.35 * traj.taus) * traj.norms
    ratio = weighted.max() / traj.norms[0]
    zero = md.DataPair(v1=np.zeros(n), v2=np.zeros(n), grid=gdata)
    t_zero, _ = ev.tune_T(zero, params, 10.0, grid, ops, projection=proj)
    ok = (0.9 < t_star < 1.1) and ratio <= 10.0 \
        and abs(t_zero - 1.0) <= 1e-9
    _report(5, "tuned blow-up time suppresses the instability", ok,
            f"T*={t_star:.6f}, sup e^(0.35 tau)||Phi||/||Phi(0)||="
            f"{ratio:.3f}, T*(v=0)-1={t_zero - 1.0:.2e}")


def test_criterion_06_energy_blowup_rate():
    detail = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        params = cached_params(p)
        ts = np.linspace(0.0, 0.9, 46)
        vals = []
        for t in ts:
            gr = build_grid(48, 1.0 - t)
            pair = md.RadialPair(f=np.full(48, md.psi_T(params, t)),
                                 g=np.full(48, md.psi_T_t(params, t)),
                                 grid=gr)
            vals.append(md.energy_norm(pair))
        slope = np.polyfit(np.log(1.0 - ts), np.log(vals), 1)[0]
        theory = -(5.0 - p) / (2.0 * (p - 1.0))
        ok &= abs(slope - theory) <= 1e-3
        detail.append(f"p={p}: slope err {abs(slope - theory):.2e}")
    g64 = cached_grid(64)
    p3 = cached_params(3.0)
    pair = md.RadialPair(f=np.full(64, md.psi_T(p3, 0.0)),
                         g=np.full(64, md.psi_T_t(p3, 0.0)), grid=g64)
    value_err = abs(md.energy_norm(pair) - 2.0 * math.sqrt(2.0) / math.sqrt(3.0))
    ok &= value_err <= 1e-8
    detail.append(f"p=3 value err {value_err:.2e}")
    _report(6, "energy norm blows up at rate (5-p)/(2(p-1))", ok,
            "; ".join(detail))


def test_criterion_07_oracle_equivalence():
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
    for tau, st, _, _ in traj.samples:
        t = 1.0 - math.exp(-tau)
        if tau == 0.0 or t > 0.5 + 1e-9:
            continue
        rec = md.reconstruct_field(st, tau, params, grid)
        orc = ev.physical_oracle(fg1, params, t, nr=4096)
        mask = rec.grid.nodes <= orc.r[-1]
        psi_i = np.interp(rec.grid.nodes[mask], orc.r, orc.psi)
        psit_i = np.interp(rec.grid.nodes[mask], orc.r, orc.psi_t)
        sup = max(sup, np.abs(rec.f[mask] - psi_i).max(),
                  np.abs(rec.g[mask] - psit_i).max())
    _report(7, "physical-space solver matches the reconstructed field",
            sup <= 1e-4, f"sup discrepancy {sup:.2e} up to t=0.5")


def test_criterion_08_duhamel_residual():
    params = cached_params(3.0)
    grid = cached_grid(64)
    ops = cached_ops(3.0, 64)
    proj = cached_projection(3.0, 64)
    rng = np.random.default_rng(11)
    u = md.random_polynomial_state(grid, rng, amplitude=1e-3)
    tr = ev.integrate(u, 3.0, ops, grid, params, nonlinear=True,
                      dtau=1e-3, projection=proj)
    res = ev.duhamel_residual(tr, ops, grid, params)
    # the residual is the trapezoid-quadrature floor of the identity, not
    # the stepping error: a step eight times finer leaves it unchanged
    rng = np.random.default_rng(11)
    u2 = md.random_polynomial_state(grid, rng, amplitude=1e-4)
    h = ev.stable_dtau(ops)
    r_default, r_fine = (ev.duhamel_residual(
        ev.integrate(u2, 3.0, ops, grid, params, nonlinear=True,
                     dtau=dt, projection=proj), ops, grid, params)
        for dt in (h, h / 8.0))
    ok = res <= 1e-4 and abs(r_default - r_fine) <= 0.01 * r_fine
    _report(8, "Duhamel identity residual small and step-independent", ok,
            f"residual {res:.2e}; default step {r_default:.4e}, "
            f"step/8 {r_fine:.4e}")


def test_criterion_09_nonlinearity_estimates():
    params = cached_params(3.0)
    grid = cached_grid(96)
    lip = vl.suite_lipschitz(params, grid, seed=0, npairs=200)
    mod = vl.suite_model(params, n=96, seed=0)
    wanted = {"quadratic_smallness_constant", "lipschitz_constant",
              "linfty_bound_violation", "hardy_constant"}
    checks = [r for r in lip + mod if r.name in wanted or r.suite == "lipschitz"]
    ok = all(r.ok for r in checks)
    _report(9, "nonlinearity smallness/Lipschitz and L-infty/Hardy bounds",
            ok, "; ".join(f"{r.name}={r.value:.3g}" for r in checks))


def test_criterion_10_hypergeometric_kernel():
    suite = vl.suite_specfun(seed=0)
    ok = all(r.ok for r in suite)
    exact_zero = all(sp.quantization_Q(1.0, cached_params(p)) == 0.0
                     for p in (1.5, 2.0, 3.0))
    ok &= exact_zero
    detail = "; ".join(f"{r.name}={r.value:.3g}" for r in suite)
    _report(10, "Gamma/2F1 kernel identities and exact quantization zeros",
            ok, detail + f"; Q(1)=0 exactly: {exact_zero}")
