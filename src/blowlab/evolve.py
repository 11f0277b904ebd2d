"""Time evolution in similarity coordinates and its verification oracles.

The nonlinear system d/dtau Phi = L Phi + (rho N(A phi2), 0) is stepped
by Lawson's integrating-factor RK4 (Lawson, SIAM J. Numer. Anal. 4, 1967),
sampling every 0.1 in tau: the linear part is propagated exactly by the
matrix exponential e^{hL/2} and its square, and RK4 steps only the small,
smooth nonlinear term, so the step is set by accuracy, not by the
O(n^-2) stiffness of the Chebyshev operator.  The default is 4 steps per
sample, aimed at a relative state error of at most 6.1e-9 over tau <= 4
at amplitude 1e-3 (against 128 steps per sample, untuned runs from
stable-subspace data at p = 3; 8 steps give 3.8e-10, 2 steps 9.9e-8);
phi1(0) = 0 is re-imposed after every step, and overflow or NaN is caught
once per sample.  The nonlinear term reads the state only through A phi2
and writes only phi1, so the RK4 stages are carried as n-vectors of those
reads, two levels deep: a step evaluates them in two rounds, each one
nonlin_N call on two stages' stacked reads, with matrices built once per
operator and step.  The exponential is
`_expm`, Higham's Pade-13 scaling and squaring (SIAM J. Matrix Anal.
Appl. 26, 2005) in numpy, so that no scipy module is imported.

Also here: decay-rate fitting, the unstable-mode coefficient, blow-up-time
tuning by the secant method from the linear prediction of T, a
Duhamel-identity residual check against the matrix exponential, and an
independent physical-space leapfrog solver used for cross-validation.
"""

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AmplitudeAbort, DegenerateFitError, DomainError,
                     NoSignChangeError, NonConvergenceError, OverflowAbort,
                     StepSizeError)
from .grid import bary_interp
from .model import U_map, avg_A, nonlin_N, state_norm
from .spectral import riesz_projection

SCHEME = "lawson-rk4"
_SAMPLE_DTAU = 0.1
_SUBSTEPS = 4
_OVERFLOW_LIMIT = 1e12
_AMPLITUDE_LIMIT = 1.0
# U_map needs T strictly inside (1/2, 3/2)
_T_DOMAIN = (0.5 + 1e-9, 1.5 - 1e-9)
# secant steps per search
_MAXITER = 20

# Higham (2005): the degree-13 Pade approximant of exp is accurate to
# double precision for 1-norms up to theta_13 (Table 2.3); b holds its
# coefficients b_0, ..., b_13
_PADE_THETA_13 = 5.371920351148152
_PADE_B_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
              1187353796428800.0, 129060195264000.0, 10559470521600.0,
              670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
              960960.0, 16380.0, 182.0, 1.0)


def _expm(A):
    """Matrix exponential of a square float array by scaling and squaring
    with the degree-13 Pade approximant (Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005), in numpy alone."""
    A = np.asarray(A, dtype=float)
    norm = float(np.abs(A).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA_13))) if norm else 0
    A = A / 2.0**s
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE_B_13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X


def stable_dtau(ops):
    """The default step: 1/4 of the 0.1 sample spacing.

    The linear part is propagated exactly, so no eigenvalue of `ops` caps
    the step; it is the same for every operator.
    """
    return _SAMPLE_DTAU / _SUBSTEPS


def substeps(dtau):
    """(steps per 0.1 sample, step taken) for a requested step in
    (0, 0.1], shortened so that a whole number of steps spans each
    sample."""
    if not 0.0 < dtau <= _SAMPLE_DTAU:
        raise StepSizeError(
            f"dtau={dtau} out of range: need 0 < dtau <= {_SAMPLE_DTAU} "
            f"(the sample spacing)")
    nsub = math.ceil(_SAMPLE_DTAU / dtau - 1e-12)
    return nsub, _SAMPLE_DTAU / nsub


def nonlinear_term(grid, params, u):
    """The nonlinear part (rho N(A phi2), 0) of the right-hand side at the
    stacked state u = (phi1, phi2), with row 0 zeroed like the boundary row
    of L."""
    n = grid.n
    out = np.zeros(2 * n)
    out[:n] = grid.nodes * nonlin_N(params, avg_A(grid, u[n:]))
    out[0] = 0.0
    return out


class TuneStep(NamedTuple):
    """One evaluation of the tuning target: the blow-up time T, the
    unstable coefficient a read from its run, the abort tau (None for a run
    that reached tau_end) and the wall seconds the run took."""

    T: float
    a: float
    abort_tau: object
    seconds: float


@dataclass
class Trajectory:
    """Sampled evolution from tau = 0: the sample times, the stacked states
    as the rows of a (samples x 2n) array, their L2 norms and their
    unstable coefficients.

    A run returned by tune_T also carries its search history in `tuning`
    and the reason its secant search stopped in `tuning_stop`.
    """

    taus: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    unstable_coeffs: np.ndarray
    nonlinear: bool = True
    tuning: tuple = ()
    tuning_stop: object = None

    def xnorm(self, mu):
        """Weighted sup-norm sup_tau exp(mu tau) ||Phi(tau)||."""
        return float(np.max(np.exp(mu * self.taus) * self.norms))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("tau,norm,unstable_coeff\n")
            for tau, nrm, a in zip(self.taus, self.norms, self.unstable_coeffs):
                fh.write(f"{tau:.10g},{nrm:.17g},{a:.17g}\n")


def unstable_coefficient(u, projection):
    """Coefficient a with P u = a g: the projection functional l @ u."""
    if projection.rank != 1:
        raise DomainError(
            f"projection rank {projection.rank} out of range: need rank 1")
    return float(projection.functional @ u)


def integrate(initial, tau_end, ops, grid, params, nonlinear=True,
              dtau=None, projection=None):
    """Lawson RK4 trajectory from the stacked state `initial` at tau = 0
    to tau_end, sampled every 0.1.

    Each step of length h propagates the linear part exactly with
    E2 = e^{hL/2} and E = E2^2 and applies classical RK4 to the nonlinear
    term in the integrating-factor variable; a linear run is u <- E u.
    The stages k_i = (rho N_i, 0) live in phi1 and N reads only the
    running average R u = A phi2, so R k_i = 0 and N3 = N(R E2 u) reads
    the state alone, like N1 = N(R u).  A nonlinear step is one (5n x 2n)
    matvec for R u, R E2 u, R E u and E u; round one, one nonlin_N call
    on the 2n reads (R u, R E2 u) for (N1, N3); two n x n matvecs, as one
    batched product, for R E2 k1 and R E2 k3; round two, one nonlin_N call
    on the 2n reads (R E2 u + h/2 R E2 k1, R E u + h R E2 k3) for
    (N2, N4); and one (2n x 2n) matvec for E k1 and E2 (k2 + k3).
    These matrices are built once per operator and step and kept on
    `ops`, so repeated runs, such as tune_T's, build them once.
    With dtau=None the step is stable_dtau(ops); an explicit dtau must lie
    in (0, 0.1] and is shortened so that a whole number of steps spans
    each 0.1-sample interval.  Nonlinear runs abort (AmplitudeAbort,
    carrying the partial trajectory) once the perturbation norm exceeds 1,
    the boundary of the smallness regime; every run raises OverflowAbort
    when a sample has an entry above 1e12 or NaN, checked once per sample.
    """
    if not 0.0 < tau_end < math.inf:
        raise DomainError(
            f"tau_end={tau_end} out of range: need 0 < tau_end < inf")
    nsub, h = substeps(stable_dtau(ops) if dtau is None else dtau)
    if projection is None:
        projection = riesz_projection(ops)
    nsamples = int(math.floor(tau_end / _SAMPLE_DTAU + 1e-9))

    u = np.array(initial, dtype=float)
    u[0] = 0.0
    taus, states, norms, coeffs = [], [], [], []

    def record(k, vec):
        taus.append(_SAMPLE_DTAU * k)
        states.append(vec)
        norms.append(state_norm(grid, vec))
        coeffs.append(unstable_coefficient(vec, projection))

    def partial_trajectory():
        return Trajectory(taus=np.array(taus), states=np.array(states),
                          norms=np.array(norms),
                          unstable_coeffs=np.array(coeffs),
                          nonlinear=nonlinear)

    record(0, u)
    n = grid.n
    E, reads, stage_reads, combine, last = _step_matrices(ops, grid, h)
    # inf and NaN persist, so the guard after each sample sees any overflow
    # of its steps; the steps in between may overflow silently
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nsamples + 1):
            for _ in range(nsub):
                if nonlinear:
                    r = reads @ u
                    # round one: (N1, N3) = N(R u, R E2 u)
                    n13 = nonlin_N(params, r[:2 * n])
                    # round two: (N2, N4) = N(R E2 u + h/2 R E2 k1,
                    # R E u + h R E2 k3)
                    n24 = nonlin_N(params, r[n:3 * n] + np.matmul(
                        stage_reads, n13.reshape(2, n, 1)).ravel())
                    n13[n:] += n24[:n]
                    u = r[3 * n:] + combine @ n13
                    u[:n] += last * n24[n:]
                else:
                    u = E @ u
                u[0] = 0.0
            # fails on NaN as well as on overflow
            if not np.abs(u).max() <= _OVERFLOW_LIMIT:
                raise OverflowAbort(
                    "state overflow during integration: perturbation "
                    "exceeded 1e12")
            record(k, u)
            if nonlinear and norms[-1] > _AMPLITUDE_LIMIT:
                raise AmplitudeAbort(
                    f"perturbation norm {norms[-1]:.3g} left the smallness "
                    f"regime (> 1) at tau={taus[-1]:.2f}",
                    trajectory=partial_trajectory())
    return partial_trajectory()


def _step_matrices(ops, grid, h):
    """(E, reads, stage_reads, combine, last), the matrices a Lawson step
    of length h reads (see integrate), built once per operator and step
    and kept in ops.steps."""
    if h not in ops.steps:
        n = grid.n
        rho = grid.nodes    # rho[0] = 0 zeroes the boundary row of N
        E2 = _expm(0.5 * h * ops.L)
        E = E2 @ E2
        # R u, R E2 u, R E u and E u, R the read u -> A phi2
        reads = np.vstack([avg_A(grid, M[n:])
                           for M in (np.eye(2 * n), E2, E)] + [E])
        # x -> R E2 (rho x, 0), scaled by h/2 for N1 and by h for N3
        stage_read = avg_A(grid, E2[n:, :n]) * rho
        stage_reads = np.stack([(0.5 * h) * stage_read, h * stage_read])
        # (x, y) -> E (h/6 rho x, 0) + E2 (h/3 rho y, 0)
        combine = np.hstack([(h / 6.0) * E[:, :n] * rho,
                             (h / 3.0) * E2[:, :n] * rho])
        ops.steps[h] = (E, reads, stage_reads, combine, (h / 6.0) * rho)
        for a in ops.steps[h]:
            a.setflags(write=False)
    return ops.steps[h]


def _log_linear_fit(taus, values, tau_window):
    """Least-squares line through (tau, log|value|) over the samples with
    tau in tau_window; returns (slope, intercept).

    Raises DegenerateFitError for fewer than 10 samples in the window or a
    |value| at or below 1e-14 there.
    """
    taus = np.asarray(taus)
    values = np.abs(np.asarray(values))
    mask = (taus >= tau_window[0] - 1e-9) & (taus <= tau_window[1] + 1e-9)
    if mask.sum() < 10:
        raise DegenerateFitError(
            f"only {int(mask.sum())} samples in fit window {tau_window}, "
            f"need >= 10")
    if values[mask].min() <= 1e-14:
        raise DegenerateFitError("fitted values underflow below 1e-14")
    slope, intercept = np.polyfit(taus[mask], np.log(values[mask]), 1)
    return float(slope), intercept


def decay_fit(traj, tau_window):
    """Exponential fit of ||Phi|| over the window; returns (rate,
    amplitude): rate is the negated slope of log||Phi|| vs tau, amplitude
    the fit's value at tau = 0."""
    slope, intercept = _log_linear_fit(traj.taus, traj.norms, tau_window)
    return -slope, float(np.exp(intercept))


def growth_fit(taus, values, tau_window):
    """Fitted exponential rate of |values| over the window."""
    return _log_linear_fit(taus, values, tau_window)[0]


def tune_T(v, params, tau_end, grid, ops, projection, dtau=None):
    """Suppress the unstable mode by a secant search on the blow-up time T.

    The target a(T) is the unstable coefficient of the nonlinear run from
    U(v, T), read at tau_end - 1, or at the abort time for runs that leave
    the smallness regime (their sign is already decided by the dominant
    mode).  To first order a is linear in T: dU/dT = q k g at T = 1, with
    q = 2/(p-1), k = kappa_root and l @ g = 1, and the linear flow
    multiplies a by e^tau.  The linear prediction T_lin is the zero of the
    unstable coefficient of U(v, T) itself, found by the secant method from
    T = 1 and its Newton step with slope q k, at no integration.  The
    secant method then finds the zero of the target from T_lin and its
    Newton step with slope q k e^tau, tau the time the target was read at.
    Each T is integrated at most once, and the tuned run is the integrated
    one with the smallest |a|.

    Returns (T_star, trajectory of the tuned run).  The trajectory's
    `tuning` holds one TuneStep per integration, in order; the first is at
    T_lin.  Its `tuning_stop` says why the search for T_star stopped:
    "zero" (a vanished), "sub_ulp" (the Newton step from T_lin is below
    half an ulp of T, so T_lin is already the best float) or "repeat" (the
    next iterate was already integrated).  Raises DomainError unless
    tau_end - 1 >= 0.1, the first sample after tau = 0, and
    NoSignChangeError when a secant iterate leaves (1/2, 3/2) or the
    target stalls.
    """
    tau_probe = tau_end - 1.0
    if not tau_probe >= _SAMPLE_DTAU:
        raise DomainError(
            f"tau_end={tau_end} out of range: tune_T reads its target at "
            f"tau_end - 1, which must be >= {_SAMPLE_DTAU}")
    slope = 2.0 / (params.p - 1.0) * params.kappa_root

    def predicted(T):
        return unstable_coefficient(U_map(v, T, params, grid), projection)

    runs = {}      # T -> (TuneStep, trajectory, AmplitudeAbort or None)

    def target(T):
        if T not in runs:
            start = time.perf_counter()
            try:
                traj = integrate(U_map(v, T, params, grid), tau_end, ops,
                                 grid, params, nonlinear=True, dtau=dtau,
                                 projection=projection)
            except AmplitudeAbort as exc:
                traj, abort = exc.trajectory, exc
                a, abort_tau = traj.unstable_coeffs[-1], float(traj.taus[-1])
            else:
                abort = abort_tau = None
                a = traj.unstable_coeffs[
                    int(np.argmin(np.abs(traj.taus - tau_probe)))]
            step = TuneStep(T=T, a=float(a), abort_tau=abort_tau,
                            seconds=time.perf_counter() - start)
            runs[T] = (step, traj, abort)
        return runs[T][0].a

    T_lin, _ = _secant(predicted, 1.0, 1.0 - predicted(1.0) / slope)
    a_lin = target(T_lin)
    abort_tau = runs[T_lin][0].abort_tau
    tau_read = tau_probe if abort_tau is None else abort_tau
    T_star, stop = _secant(target, T_lin,
                           T_lin - a_lin / (slope * math.exp(tau_read)))
    _, traj, abort = runs[T_star]
    if abort is not None:
        raise abort
    traj.tuning = tuple(step for step, _, _ in runs.values())
    traj.tuning_stop = stop
    return T_star, traj


def _secant(f, x0, x1):
    """Zero of f in T by the secant method from x0 and x1.

    Stops when f vanishes ("zero"), when the starting step is below half
    an ulp so that x1 == x0 ("sub_ulp"), or when the next iterate was
    already evaluated ("repeat").  Returns the evaluated point with the
    smallest |f| and the stop reason.  Raises NoSignChangeError when an
    iterate leaves the tuning domain or two successive values of f at
    distinct points are equal, and NonConvergenceError after _MAXITER
    steps.
    """
    lo, hi = _T_DOMAIN
    values = {}
    for _ in range(_MAXITER):
        for x in (x0, x1):
            if not lo <= x <= hi:
                raise NoSignChangeError(
                    f"tune_T: secant iterate T={x:.17g} left (1/2, 3/2); "
                    f"perturbation too large")
            if x not in values:
                values[x] = f(x)
        f0, f1 = values[x0], values[x1]
        if f1 == 0.0:
            stop = "zero"
            break
        if x1 == x0:
            stop = "sub_ulp"
            break
        if f1 == f0:
            raise NoSignChangeError(
                f"tune_T: unstable-mode coefficient stalls at {f1:.3g} near "
                f"T={x1:.17g}; perturbation too large")
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
        if x1 in values:
            stop = "repeat"
            break
    else:
        raise NonConvergenceError(
            f"tune_T: secant search not converged in {_MAXITER} steps")
    return min(values, key=lambda x: abs(values[x])), stop


def duhamel_residual(traj, ops, grid, params):
    """Max defect of Phi(tau) = e^{tau L} Phi(0) + int_0^tau e^{(tau-s)L} N(Phi(s)) ds
    over the stored samples with tau <= 3.

    The semigroup is realized by the matrix exponential of the discretized
    generator at the sample spacing; the Duhamel integral uses trapezoid
    quadrature over the samples.  For a linear trajectory the integral
    term is absent and the residual is the raw stepping-versus-matrix-
    exponential discrepancy.
    """
    taus = traj.taus
    if taus.size < 2:
        return 0.0
    spacing = np.diff(taus)
    if np.abs(spacing - spacing[0]).max() > 1e-9 or spacing[0] > _SAMPLE_DTAU + 1e-12:
        raise DomainError("duhamel_residual: samples must be uniform with "
                          "spacing <= 0.1")
    ds = float(spacing[0])
    E = _expm(ds * ops.L)
    kmax = int(min(taus.size - 1, math.floor(3.0 / ds + 1e-9)))
    nl = [nonlinear_term(grid, params, u) if traj.nonlinear
          else np.zeros(2 * grid.n) for u in traj.states[:kmax + 1]]
    # acc = E^k u0 + ds (E^k nl_0 / 2 + sum_{0<j<k} E^(k-j) nl_j), advanced
    # by one matvec per sample; the trapezoid's last half weight is added
    # in the defect
    acc = traj.states[0]
    worst = 0.0
    for k in range(1, kmax + 1):
        weight = 0.5 if k == 1 else 1.0
        acc = E @ (acc + weight * ds * nl[k - 1])
        defect = traj.states[k] - acc - 0.5 * ds * nl[k]
        worst = max(worst, state_norm(grid, defect))
    return worst


def correction_residual(traj, grid, params, projection):
    """Discrete zero-correction identity of a tuned run.

    On a trajectory with the unstable mode suppressed, the initial
    coefficient cancels the weighted tail of the projected nonlinearity:
    a(0) + int_0^inf e^{-s} l(N(Phi(s))) ds = 0, l the projection
    functional (P N = l(N) g).  Returns the magnitude of the left side
    with the integral truncated at the last sample (trapezoid rule).
    """
    taus = traj.taus
    vals = np.empty(taus.size)
    for j, u in enumerate(traj.states):
        nl = nonlinear_term(grid, params, u)
        vals[j] = np.exp(-taus[j]) * (projection.functional @ nl)
    integral = float(np.trapezoid(vals, taus))
    return abs(traj.unstable_coeffs[0] + integral)


class OracleSample(NamedTuple):
    """Physical-space snapshot on a uniform radial grid."""

    t: float
    r: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray


def physical_oracle(fg, params, t_end, nr=4096):
    """Independent (t, r)-solver for the radial wave equation.

    Works on psi_tilde = r psi, for which the equation becomes the 1+1
    wave equation psi_tilde_tt = psi_tilde_rr + r |psi_tilde/r|^(p-1)
    (psi_tilde/r), integrated by leapfrog on a uniform grid over [0, T]
    with psi_tilde(t, 0) = 0.  The active region shrinks by one node per
    step, which at unit Courant number tracks the backward lightcone
    exactly; no outer boundary condition is ever used.  The step is
    dt = t_end / steps with the smallest step count satisfying dt <= dr,
    so the returned snapshot sits exactly at t_end.
    """
    T = params.T
    if t_end >= T - 0.05:
        raise DomainError(
            f"t_end={t_end} out of range: need t_end < T - 0.05 (blow-up "
            f"proximity)")
    dr = T / nr
    r = np.linspace(0.0, T, nr + 1)
    f = bary_interp(fg.grid, fg.f, r)
    g = bary_interp(fg.grid, fg.g, r)
    p = params.p
    if t_end <= 0.0:
        return OracleSample(t=0.0, r=r, psi=f.copy(), psi_t=g.copy())
    steps = int(math.ceil(t_end / dr - 1e-12))
    dt = t_end / steps
    if steps > nr - 4:
        raise DomainError(
            f"physical_oracle: {steps} steps exhaust the {nr}-node grid "
            f"(one node is lost per step); increase nr")

    def source(w):
        out = np.zeros_like(w)
        out[1:] = np.sign(w[1:]) * np.abs(w[1:]) ** p / r[1:] ** (p - 1.0)
        return out

    def second_diff(w):
        out = np.zeros_like(w)
        out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dr**2
        return out

    w_prev = r * f
    wt0 = r * g
    accel = second_diff(w_prev) + source(w_prev)
    jerk = second_diff(wt0)
    jerk[1:] += p * np.abs(w_prev[1:] / r[1:]) ** (p - 1.0) * wt0[1:]
    w_cur = w_prev + dt * wt0 + 0.5 * dt**2 * accel + dt**3 / 6.0 * jerk
    w_cur[0] = 0.0
    # run one step past t_end so psi_t comes out of a central difference;
    # the active index range loses one node per step (numerical lightcone)
    w_old = None
    valid = nr - 1
    for _ in range(steps):
        w_next = np.empty_like(w_cur)
        w_next[1:valid] = (2.0 * w_cur[1:valid] - w_prev[1:valid]
                           + dt**2 * ((w_cur[2:valid + 1]
                                       - 2.0 * w_cur[1:valid]
                                       + w_cur[:valid - 1]) / dr**2
                                      + source(w_cur)[1:valid]))
        w_next[0] = 0.0
        w_next[valid:] = w_cur[valid:]
        w_old, w_prev, w_cur = w_prev, w_cur, w_next
        valid -= 1
    # levels: w_old at (steps-1) dt, w_prev at steps dt, w_cur at (steps+1) dt
    jmax = nr - steps - 1
    rr = r[:jmax + 1]
    w_mid = w_prev[:jmax + 1]
    wt = (w_cur[:jmax + 1] - w_old[:jmax + 1]) / (2.0 * dt)
    psi = np.empty(jmax + 1)
    psi_t = np.empty(jmax + 1)
    psi[1:] = w_mid[1:] / rr[1:]
    psi_t[1:] = wt[1:] / rr[1:]
    psi[0] = (4.0 * w_mid[1] - w_mid[2]) / (2.0 * dr)
    psi_t[0] = (4.0 * wt[1] - wt[2]) / (2.0 * dr)
    return OracleSample(t=steps * dt, r=rr, psi=psi, psi_t=psi_t)
