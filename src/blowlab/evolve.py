"""Time evolution in similarity coordinates and its verification oracles.

The nonlinear system d/dtau Phi = L Phi + (rho N(A phi2), 0) is stepped
by Lawson's integrating-factor RK4 (Lawson, SIAM J. Numer. Anal. 4, 1967),
sampling every 0.1 in tau: the linear part is propagated exactly by the
matrix exponential e^{hL/2} and its square, and RK4 steps only the small,
smooth nonlinear term, so the step is set by accuracy, not by the
O(n^-2) stiffness of the Chebyshev operator.  The default is 8 steps per
sample; phi1(0) = 0 is re-imposed after every step.  The exponential is
`_expm`, Higham's Pade-13 scaling and squaring (SIAM J. Matrix Anal.
Appl. 26, 2005) in numpy, so that no scipy module is imported.

Also here: decay-rate fitting, the unstable-mode coefficient, blow-up-time
tuning by Brent's method from the linear prediction of T, a
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
from .model import U_map, avg_A, nonlin_N
from .spectral import riesz_projection, state_norm

SCHEME = "lawson-rk4"
_SAMPLE_DTAU = 0.1
_SUBSTEPS = 8
_OVERFLOW_LIMIT = 1e12
_AMPLITUDE_LIMIT = 1.0
# U_map needs T strictly inside (1/2, 3/2)
_T_DOMAIN = (0.5 + 1e-9, 1.5 - 1e-9)
# root-finder tolerances at their floating-point limits, and its budget
_XTOL = np.finfo(float).tiny
_RTOL = 4.0 * np.finfo(float).eps
_MAXITER = 100

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
    """The default step: 1/8 of the 0.1 sample spacing.

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

    A run returned by tune_T also carries its search history in `tuning`.
    """

    taus: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    unstable_coeffs: np.ndarray
    nonlinear: bool = True
    tuning: tuple = ()

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
    With dtau=None the step is stable_dtau(ops); an explicit dtau must lie
    in (0, 0.1] and is shortened so that a whole number of steps spans
    each 0.1-sample interval.  Nonlinear runs abort (AmplitudeAbort,
    carrying the partial trajectory) once the perturbation norm exceeds 1,
    the boundary of the smallness regime.
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

    def N(v):
        return nonlinear_term(grid, params, v)

    record(0, u)
    E2 = _expm(0.5 * h * ops.L)
    E = E2 @ E2
    for k in range(1, nsamples + 1):
        for _ in range(nsub):
            if nonlinear:
                k1 = N(u)
                half = E2 @ u
                k2 = N(half + (0.5 * h) * (E2 @ k1))
                k3 = N(half + (0.5 * h) * k2)
                k4 = N(E @ u + h * (E2 @ k3))
                u = (E @ (u + (h / 6.0) * k1) + E2 @ ((h / 3.0) * (k2 + k3))
                     + (h / 6.0) * k4)
            else:
                u = E @ u
            u[0] = 0.0
            m = np.abs(u).max()
            if not np.isfinite(m) or m > _OVERFLOW_LIMIT:
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
    """Suppress the unstable mode by a root-find on the blow-up time T.

    The target is the unstable coefficient of the nonlinear run from
    U(v, T), read at tau_end - 1, or at the abort time for runs that leave
    the smallness regime (their sign is already decided by the dominant
    mode).  The search starts at the linear prediction T_lin, the zero of
    the unstable coefficient of U(v, T) itself, which costs no integration
    (T = 1 if that coefficient has no zero in (1/2, 3/2)).  The run at
    T_lin is one end of the bracket; the other starts 1e-6 away, on the
    side where the prediction puts the zero, and widens ten-fold up to the
    edge of (1/2, 3/2), then tries the opposite edge, until the target
    changes sign.  Brent's method then finds the zero to floating-point
    precision.  Each T is integrated at most once: the tuned run is the
    one Brent's method evaluated at T_star.

    Returns (T_star, trajectory of the tuned run).  The trajectory's
    `tuning` holds one TuneStep per target evaluation, in order; the first
    is at T_lin.
    """
    tau_probe = tau_end - 1.0
    lo, hi = _T_DOMAIN

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

    pred_lo, pred_hi = predicted(lo), predicted(hi)
    T_lin = _brentq(predicted, lo, hi) if pred_lo * pred_hi <= 0.0 else 1.0
    a_lin = target(T_lin)
    T_star = T_lin
    if a_lin != 0.0:
        toward_zero = -1.0 if (a_lin > 0.0) == (pred_hi > pred_lo) else 1.0
        for T_far in _bracket_ends(T_lin, toward_zero):
            if target(T_far) * a_lin <= 0.0:
                break
        else:
            raise NoSignChangeError(
                "tune_T: unstable-mode coefficient does not change sign over "
                "T in (1/2, 3/2); perturbation too large")
        T_star = _brentq(target, min(T_lin, T_far), max(T_lin, T_far))
    _, traj, abort = runs[T_star]
    if abort is not None:
        raise abort
    traj.tuning = tuple(step for step, _, _ in runs.values())
    return T_star, traj


def _brentq(f, xa, xb):
    """Zero of f on [xa, xb], where f(xa) and f(xb) differ in sign, by
    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973) in the form of scipy.optimize.brentq, with xtol and rtol at their
    floating-point limits.

    It evaluates f at the same points as scipy.optimize.brentq and returns
    the same root, but costs no import of scipy.optimize, whose modules
    take about 20 MB of resident memory.  The root returned is always a
    point where f was evaluated.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)    # secant
            else:                             # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NonConvergenceError(
        f"brentq: no convergence in {_MAXITER} iterations on [{xa}, {xb}]")


def _bracket_ends(T_lin, direction):
    """Candidate far ends of the tuning bracket: T_lin + direction * 1e-6,
    the offset growing ten-fold and clipped to the tuning domain, then the
    domain's opposite edge."""
    lo, hi = _T_DOMAIN
    offset = 1e-6
    while True:
        T = min(max(T_lin + direction * offset, lo), hi)
        yield T
        if T in (lo, hi):
            break
        offset *= 10.0
    yield hi if direction < 0.0 else lo


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
