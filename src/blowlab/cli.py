"""Command-line orchestration: spectra, evolutions, validation.

Subcommands
-----------
spectrum   eigenvalue quantization vs collocation spectrum, JSON report
evolve     similarity-coordinate evolution (optionally tuning T), CSV + JSON
validate   run every invariant suite, one line per check (JSON with --out)

Exit codes: 0 ok, 1 validation failure, 2 domain error, 3 solver failure,
4 overflow / perturbation too large.  All outputs are deterministic for a
fixed seed.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import evolve as ev
from . import model as md
from . import spectral as sp
from . import validate as vl
from .errors import (AmplitudeAbort, DomainError, PerturbationTooLarge,
                     SolverError)
from .grid import build_grid


def cmd_spectrum(args):
    params = md.params_new(args.p)
    coarse = build_grid(args.n)
    fine = build_grid(int(math.ceil(1.5 * args.n)))
    ops = sp.assemble_L(coarse, params)
    report = sp.discrete_eigenvalues(ops, (coarse, fine))
    out = args.out or "spectrum.json"
    with open(out, "w") as fh:
        fh.write(report.to_json() + "\n")
    stable = report.stable_eigenvalues()
    print(f"spectrum: p={args.p} n={coarse.n}/{fine.n} "
          f"analytic={report.analytic} stable={len(stable)} "
          f"projection_rank={report.projection_rank} -> {out}")
    return 0


def _seeded_data(args, params):
    gdata = build_grid(args.n, 1.5)
    rng = np.random.default_rng(args.seed)
    fg = md.random_polynomial_data(gdata, rng, params,
                                   amplitude=args.amplitude)
    return md.data_to_v(fg, params)


def _step_error(traj, ops, grid, params, proj):
    """Relative state difference after the first 0.1 sample between the
    step h the run took there and h/2, or None for a run without that
    sample."""
    if len(traj.states) < 2:
        return None
    h = next(iter(traj.step_counts))
    try:
        half = ev.integrate(traj.states[0], 0.1, ops, grid, params,
                            nonlinear=True, dtau=0.5 * h, projection=proj)
    except AmplitudeAbort as exc:
        half = exc.trajectory
    diff = md.state_norm(grid, traj.states[1] - half.states[1])
    return diff / half.norms[1] if diff else 0.0


def cmd_evolve(args):
    marks = [("start", time.perf_counter())]    # (phase, when it ended)
    params = md.params_new(args.p, T=args.T)
    grid = build_grid(args.n)
    ops = sp.assemble_L(grid, params)
    marks.append(("grid_operator", time.perf_counter()))
    proj = sp.riesz_projection(ops)
    marks.append(("projection", time.perf_counter()))
    v = _seeded_data(args, params)
    marks.append(("data", time.perf_counter()))
    t_star = None
    abort = None
    if args.tune:
        t_star, traj = ev.tune_T(v, params, args.tau_end, grid, ops,
                                 projection=proj)
    else:
        init = md.U_map(v, args.T, params, grid)
        try:
            traj = ev.integrate(init, args.tau_end, ops, grid, params,
                                nonlinear=True, projection=proj)
        except AmplitudeAbort as exc:
            # untuned runs grow like e^tau; keep the partial trajectory so
            # the growth rate stays measurable, then report the abort
            traj = exc.trajectory
            abort = exc
    marks.append(("solve", time.perf_counter()))
    step_error = _step_error(traj, ops, grid, params, proj)
    marks.append(("step_error", time.perf_counter()))
    summary = {
        "p": args.p, "n": args.n, "eps": params.eps, "seed": args.seed,
        "amplitude": args.amplitude, "tau_end": args.tau_end,
        "T": args.T, "T_star": t_star,
        "mu": params.mu, "rate": None, "fit_amplitude": None,
        "growth_rate": None, "xnorm_mu": None,
        "aborted_at": None if abort is None else float(traj.taus[-1]),
        "T_lin": traj.T_lin,
        "T_pred": traj.T_pred,
        "tuning": [step._asdict() for step in traj.tuning],
        "tuning_stop": traj.tuning_stop,
        "integrator": {"scheme": ev.SCHEME,
                       "substep": next(iter(traj.step_counts), None),
                       "steps": sum(traj.step_counts.values()),
                       "steps_by_substep": {str(h): count for h, count
                                            in traj.step_counts.items()},
                       "step_error": step_error},
    }
    span = float(traj.taus[-1])
    window = (min(2.0, 0.5 * span), float(traj.taus[-1]) - min(1.0, 0.2 * span))
    if traj.norms.max() > 1e-14:
        summary["xnorm_mu"] = traj.xnorm(params.mu)
        try:
            rate, amp = ev.decay_fit(traj, window)
            summary["rate"] = rate
            summary["fit_amplitude"] = amp
        except DomainError:
            pass
        try:
            summary["growth_rate"] = ev.growth_fit(
                traj.taus, traj.unstable_coeffs, window)
        except DomainError:
            pass
    marks.append(("fits", time.perf_counter()))
    out = args.out or "trajectory.csv"
    traj.to_csv(out)
    if args.field_out:
        # reconstructed physical field at the last sample; trajectory time
        # is the shifted variable, the unshifted one is tau - log T
        T_used = t_star if t_star is not None else args.T
        p_used = md.params_new(args.p, T=T_used)
        tau_phys = float(traj.taus[-1]) - math.log(T_used)
        rec = md.reconstruct_field(traj.states[-1], tau_phys, p_used, grid)
        md.field_to_csv(rec, T_used - math.exp(-tau_phys), args.field_out)
    marks.append(("writes", time.perf_counter()))
    summary["timings"] = {f"{name}_s": end - start for (_, start), (name, end)
                          in zip(marks, marks[1:])}
    spath = os.path.splitext(out)[0] + ".summary.json"
    with open(spath, "w") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    if abort is not None:
        print(f"evolve: partial trajectory to tau={traj.taus[-1]:.1f} "
              f"-> {out}, {spath}")
        raise abort
    print(f"evolve: p={args.p} n={args.n} tuned={args.tune} "
          f"T_star={t_star} rate={summary['rate']} -> {out}, {spath}")
    return 0


def cmd_validate(args):
    params = md.params_new(args.p)
    results = []
    for suite in vl.SUITES:
        # print each suite as it finishes, so the checks that ran stay on
        # stdout when a later suite stops the run with an exception
        batch = suite(params, args.n, args.seed)
        for res in batch:
            print(res.line())
        sys.stdout.flush()
        results += batch
    failures = sum(not res.ok for res in results)
    print(f"validate: {len(results) - failures}/{len(results)} checks passed")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps([dataclasses.asdict(res) for res in results],
                                indent=2) + "\n")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="Numerical laboratory for stable self-similar blow-up "
                    "of the radial focusing wave equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp_):
        sp_.add_argument("--p", type=float, default=3.0,
                         help="nonlinearity exponent in (1, 3]")
        sp_.add_argument("--n", type=int, default=96, help="grid size")
        sp_.add_argument("--out", type=str, default="")

    common(sub.add_parser("spectrum", help="eigenvalue report (JSON)"))

    p_ev = sub.add_parser("evolve", help="similarity-coordinate evolution")
    common(p_ev)
    p_ev.add_argument("--seed", type=int, default=0)
    p_ev.add_argument("--tau-end", type=float, default=10.0)
    p_ev.add_argument("--amplitude", type=float, default=1e-3)
    p_ev.add_argument("--T", type=float, default=1.0)
    p_ev.add_argument("--field-out", type=str, default="",
                      help="also write the reconstructed physical field at "
                           "the last sample (CSV t,r,psi,psi_t)")
    tune = p_ev.add_mutually_exclusive_group()
    tune.add_argument("--tune-T", dest="tune", action="store_true",
                      help="tune the blow-up time to suppress the unstable "
                           "mode (secant method from the Duhamel "
                           "prediction T_pred; needs --tau-end >= 1.1)")
    tune.add_argument("--no-tune", dest="tune", action="store_false")
    p_ev.set_defaults(tune=False)

    p_val = sub.add_parser("validate", help="run every invariant suite")
    common(p_val)
    p_val.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"spectrum": cmd_spectrum, "evolve": cmd_evolve,
               "validate": cmd_validate}[args.command]
    try:
        # spectrum takes no seed
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"seed={args.seed} out of range: need seed >= 0")
        return handler(args)
    except DomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 3
    except PerturbationTooLarge as exc:
        print(f"error: overflow: {exc}; retry with a smaller --amplitude",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
