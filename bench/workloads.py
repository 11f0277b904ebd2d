"""The benchmark's workloads.

One op does the work of one CLI run (``blowlab evolve`` or ``blowlab
spectrum``) in the same order, without the file writes.  Each workload
splits an op into ``setup`` and ``solve``, which the harness times, and
``check``, which applies the correctness gates and takes the fingerprint
outside the timed region.  The gates use only bounds the package's own
validation suites already use.

Every package function is looked up through its module at call time, so
the traced run sees the calls the benchmark makes as well as the calls
between the package's own modules.
"""

import math
from dataclasses import dataclass

import numpy as np

from blowlab import evolve as ev
from blowlab import grid as gr
from blowlab import model as md
from blowlab import spectral as sp

AMPLITUDE = 1e-3
EPS = 0.1

# gates, as in blowlab.validate
PROJ_DEFECT_MAX = 1e-8
EIG_AGREE_MAX = 1e-5
DECAY_SLACK = 0.15
GROWTH_RANGE = (0.95, 1.05)

# accuracy metrics read at least this much, so that differences below the
# rounding level of each quantity read as no change
FLOORS = {"tune_residual": 1e-9, "proj_defect": 1e-12, "eig_err": 1e-12}


@dataclass(frozen=True)
class Workload:
    """A round of op configurations and the three phases of one op."""

    name: str
    configs: tuple        # one round; the harness shuffles it per round
    setup: object         # (config, data seed) -> state
    solve: object         # state -> outputs
    check: object         # (state, outputs or None if the solve raised)
                          #   -> (fingerprint, accuracy, failures)


def _evolution_setup(cfg, data_seed):
    """The setup of ``blowlab evolve``: operator, projection, step, data."""
    params = md.params_new(cfg["p"], T=1.0, eps=EPS)
    n = cfg["n"]
    grid = gr.build_grid(n)
    ops = sp.assemble_L(grid, params)
    proj = sp.riesz_projection(ops)
    dtau = ev.stable_dtau(ops)
    gdata = gr.build_grid(n, 1.5)
    rng = np.random.default_rng(data_seed)
    fg = md.random_polynomial_data(gdata, rng, params, amplitude=AMPLITUDE)
    v = md.data_to_v(fg, params)
    return {"params": params, "grid": grid, "ops": ops, "proj": proj,
            "dtau": dtau, "v": v}


def _projection_failures(rank, defect):
    out = []
    if rank != 1:
        out.append(f"projection rank {rank} != 1")
    if not defect <= PROJ_DEFECT_MAX:
        out.append(f"projection defect {defect:.3g} > {PROJ_DEFECT_MAX:g}")
    return out


def _coeff_at(traj, tau):
    return float(traj.unstable_coeffs[int(np.argmin(np.abs(traj.taus - tau)))])


# --- tune: blowlab evolve --tune-T --p 3 --n 48 --tau-end 8 -------------

TUNE_TAU_END = 8.0


def _tune_solve(st):
    t_star, traj = ev.tune_T(st["v"], st["params"], TUNE_TAU_END, st["grid"],
                             st["ops"], projection=st["proj"], dtau=st["dtau"])
    # the CLI's fit window for a run to tau_end = 8
    rate, _ = ev.decay_fit(traj, (2.0, TUNE_TAU_END - 1.0))
    return t_star, traj, rate


def _tune_check(st, out):
    proj = st["proj"]
    failures = _projection_failures(proj.rank, proj.idempotency_defect)
    fingerprint = {"dtau": st["dtau"], "projection_rank": proj.rank,
                   "projection_defect": proj.idempotency_defect}
    accuracy = {"proj_defect": proj.idempotency_defect}
    if out is None:
        return fingerprint, accuracy, failures
    t_star, traj, rate = out
    a_probe = _coeff_at(traj, TUNE_TAU_END - 1.0)
    if not 0.5 < t_star < 1.5:
        failures.append(f"T* {t_star!r} outside (1/2, 3/2)")
    if not rate >= abs(st["params"].omega) - DECAY_SLACK:
        failures.append(f"decay rate {rate:.4g} < |omega| - {DECAY_SLACK}")
    fingerprint.update(T_star=t_star, a0=float(traj.unstable_coeffs[0]),
                       a_probe=a_probe, rate=rate)
    accuracy["tune_residual"] = abs(a_probe) / float(traj.norms[0])
    return fingerprint, accuracy, failures


TUNE = Workload(name="tune", configs=({"p": 3.0, "n": 48},),
                setup=_evolution_setup, solve=_tune_solve, check=_tune_check)


# --- spectrum: blowlab spectrum --n 96 at three exponents ----------------

def _spectrum_setup(cfg, data_seed):
    params = md.params_new(cfg["p"], eps=EPS)
    coarse = gr.build_grid(cfg["n"])
    fine = gr.build_grid(int(math.ceil(1.5 * cfg["n"])))
    ops = sp.assemble_L(coarse, params)
    return {"params": params, "coarse": coarse, "fine": fine, "ops": ops}


def _spectrum_solve(st):
    params, coarse = st["params"], st["coarse"]
    report = sp.discrete_eigenvalues(st["ops"], (coarse, st["fine"]))
    qs = [sp.quantization_Q(lam, params) for lam in report.analytic]
    efs = [sp.eigenfunction_analytic(lam, params, coarse)
           for lam in report.analytic]
    return report, qs, efs


def _spectrum_check(st, out):
    if out is None:  # the projection is computed in the solve
        return {}, {}, []
    report, qs, efs = out
    stable = report.stable_eigenvalues()
    eig_err = max((min(abs(lam - a) for a in report.analytic)
                   for lam in stable), default=0.0)
    failures = _projection_failures(report.projection_rank,
                                    report.projection_defect)
    if not eig_err <= EIG_AGREE_MAX:
        failures.append(f"stable eigenvalue {eig_err:.3g} from the nearest "
                        f"analytic one > {EIG_AGREE_MAX:g}")
    nonzero = [lam for lam, q in zip(report.analytic, qs) if q != 0.0]
    if nonzero:
        failures.append(f"quantization_Q nonzero at {nonzero}")
    if not all(np.all(np.isfinite(ef)) for ef in efs):
        failures.append("eigenfunction not finite")
    fingerprint = {"analytic": len(report.analytic), "stable": len(stable),
                   "eig_err": eig_err,
                   "projection_rank": report.projection_rank,
                   "projection_defect": report.projection_defect}
    accuracy = {"eig_err": eig_err, "proj_defect": report.projection_defect}
    return fingerprint, accuracy, failures


# p=1.1 is left out here and in SWEEP: it fails the gates on the current
# code (projection defect above 1e-8; OverflowAbort in the sweep)
SPECTRUM = Workload(
    name="spectrum",
    configs=tuple({"p": p, "n": 96} for p in (1.5, 2.0, 3.0)),
    setup=_spectrum_setup, solve=_spectrum_solve, check=_spectrum_check)


# --- sweep: blowlab evolve --no-tune --T 1 --n 64 --tau-end 2 -----------

SWEEP_TAU_END = 2.0
# the CLI's window (1.0, 1.6) holds fewer than the 10 samples a fit needs
# at tau_end = 2; skip only the first 0.5 of transient instead
SWEEP_FIT_WINDOW = (0.5, SWEEP_TAU_END)


def _sweep_solve(st):
    init = md.U_map(st["v"], 1.0, st["params"], st["grid"])
    traj = ev.integrate(init, SWEEP_TAU_END, st["ops"], st["grid"],
                        st["params"], nonlinear=True, dtau=st["dtau"],
                        projection=st["proj"])
    rate = ev.growth_fit(traj.taus, traj.unstable_coeffs, SWEEP_FIT_WINDOW)
    return traj, rate


def _sweep_check(st, out):
    proj = st["proj"]
    failures = _projection_failures(proj.rank, proj.idempotency_defect)
    fingerprint = {"dtau": st["dtau"], "projection_rank": proj.rank,
                   "projection_defect": proj.idempotency_defect}
    if out is not None:
        traj, rate = out
        lo, hi = GROWTH_RANGE
        if not lo <= rate <= hi:
            failures.append(f"growth rate {rate:.4g} outside [{lo}, {hi}]")
        fingerprint.update(a0=float(traj.unstable_coeffs[0]),
                           a_end=float(traj.unstable_coeffs[-1]), rate=rate)
    return fingerprint, {"proj_defect": proj.idempotency_defect}, failures


SWEEP = Workload(
    name="sweep",
    configs=tuple({"p": p, "n": 64} for p in (1.25, 1.5, 2.0, 2.5, 3.0)),
    setup=_evolution_setup, solve=_sweep_solve, check=_sweep_check)

WORKLOADS = {w.name: w for w in (TUNE, SPECTRUM, SWEEP)}
