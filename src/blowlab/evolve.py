"""Time evolution in similarity coordinates and its verification oracles.

The nonlinear system d/dtau Phi = L Phi + (rho N(A phi2), 0) is stepped
by Lawson's integrating-factor RK4 (Lawson, SIAM J. Numer. Anal. 4, 1967),
sampling every 0.1 in tau: the linear part is propagated exactly by the
matrix exponential e^{hL/2} and its square, and RK4 steps only the small,
smooth nonlinear term, so the step is set by accuracy, not by the
O(n^-2) stiffness of the Chebyshev operator.  A sample takes 4 steps
while the state is above 1/16 of its initial norm, then 2, and 1 below
1/64: the step error shrinks with the quadratic nonlinear term.  Over
tau <= 4 that keeps the state within 7.3e-9 of ||Phi(0)|| of 128 steps
per sample, as 4 steps throughout do (p = 3, amplitude 1e-3, stable
part of `evolve`'s data, seeds 0-9).  phi1(0) = 0 holds exactly, and
overflow or NaN is caught once per sample.  The nonlinear term reads the
state only through A phi2 and writes only phi1, so a step evaluates the
RK4 stages in two rounds, each one nonlin_N call on two stages' stacked
reads, with four matrices built once per operator and step.  The
exponential is `_expm`, Higham's Pade-13 scaling and squaring (SIAM J.
Matrix Anal. Appl. 26, 2005) in numpy, so that no scipy module is
imported.

Also here: decay-rate fitting, the unstable-mode coefficient, blow-up-time
tuning by the secant method from the Duhamel prediction of T, and an
independent physical-space leapfrog solver used for cross-validation.
"""

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model
from .errors import (AmplitudeAbort, DomainError, OverflowAbort,
                     PerturbationTooLarge, SolverError)
from .grid import bary_interpolator
from .model import avg_A, nonlin_dN, nonlin_N, state_norm
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
    """The longest step: the 0.1 sample spacing, so that a decaying run
    takes 4, then 2, then 1 step per sample (see integrate).

    The linear part is propagated exactly, so no eigenvalue of `ops` caps
    the step; it is the same for every operator.  integrate's default
    (dtau=None) is this step without calling here; the benchmark's setup
    and tracing still look this function up by name.
    """
    return _SAMPLE_DTAU


def _sample_steps(norm, norm0):
    """Lawson steps for a sample that starts at state norm `norm` in a run
    that started at `norm0`: the fewest m in (1, 2, 4) with
    (4/m)^4 (norm/norm0)^2 <= 1/16, that is norm <= norm0 m^2/64.

    With N quadratic, the error of a sample of m RK4 steps scales like
    m h^5 ||u||^2, h = 0.1/m, so this keeps each sample's error at most
    1/16 of that of 4 steps at the initial size.
    """
    if 64.0 * norm <= norm0:
        return 1
    if 16.0 * norm <= norm0:
        return 2
    return _SUBSTEPS


def nonlinear_term(grid, params, u, term=None):
    """The nonlinear part (rho N(A phi2), 0) of the right-hand side at the
    stacked state u = (phi1, phi2), or at each row of a stack of them in
    one term call, with row 0 zeroed like the boundary row of L.  `term`
    (nonlin_dN for N') replaces N; nonlin_N is looked up when called,
    where tracing and fault injection replace it."""
    n = grid.n
    term = nonlin_N if term is None else term
    out = np.zeros(u.shape)
    out[..., :n] = grid.nodes * term(params, avg_A(grid, u[..., n:].T)).T
    out[..., 0] = 0.0
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
    unstable coefficients l @ u.

    `step_counts` maps each Lawson step size to the number of steps taken
    at it, in the order first taken, so its first key is the step of the
    first sample.  A run returned by tune_T also carries its search
    history in `tuning`, the reason its secant search stopped in
    `tuning_stop`, and the linear and Duhamel predictions of T it started
    from in `T_lin` and `T_pred`.
    """

    taus: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    unstable_coeffs: np.ndarray
    step_counts: dict = field(default_factory=dict)
    tuning: tuple = ()
    tuning_stop: object = None
    T_lin: object = None
    T_pred: object = None

    def xnorm(self, mu):
        """Weighted sup-norm sup_tau exp(mu tau) ||Phi(tau)||."""
        return float(np.max(np.exp(mu * self.taus) * self.norms))

    def to_csv(self, path):
        with open(path, "w") as fh:   # plain text even for a .gz path
            np.savetxt(fh, np.column_stack((self.taus, self.norms,
                                            self.unstable_coeffs)),
                       fmt=("%.10g", "%.17g", "%.17g"), delimiter=",",
                       header="tau,norm,unstable_coeff", comments="")


def unstable_coefficient(u, projection):
    """Coefficient a with P u = a g: the projection functional l @ u."""
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
    the state alone, like N1 = N(R u).  A nonlinear step is the four
    matrices of _step_matrices, applied in two rounds of one nonlin_N call
    on 2n reads each: r = reads @ u; (N1, N3) = N(R u, R E2 u);
    (N2, N4) = N((R E2 u, R E u) + stage @ (N1, N3)); and
    u = E u + combine @ (N1, N3, N2, N4), with r, the second round's reads
    and (N1, N3, N2, N4) in three buffers allocated once per run; each u is
    a new array.  The matrices are kept on `ops`, so repeated runs, such as
    tune_T's, build them once.  A run records each sample's state and
    norm; its unstable coefficients are one product of the states with the
    projection functional.

    dtau (default 0.1) is the longest step and must lie in (0, 0.1].
    Each sample takes the larger of ceil(0.1/dtau) steps and the 4, 2 or
    1 steps that _sample_steps allows the state's size at the start of
    the sample, so a decaying run lengthens its step as its nonlinear
    term fades, a growing one keeps 4 steps, and a dtau of at most 0.025
    is a fixed step, shortened so that a whole number of steps
    spans each sample.  Nonlinear runs abort (AmplitudeAbort, carrying the
    partial trajectory) once the perturbation norm exceeds 1, the boundary
    of the smallness regime; every run raises OverflowAbort when a sample
    has an entry above 1e12 or NaN, checked once per sample.
    """
    if not 0.0 < tau_end < math.inf:
        raise DomainError(
            f"tau_end={tau_end} out of range: need 0 < tau_end < inf")
    if dtau is not None and not 0.0 < dtau <= _SAMPLE_DTAU:
        raise DomainError(
            f"dtau={dtau} out of range: need 0 < dtau <= {_SAMPLE_DTAU} "
            f"(the sample spacing)")
    nsub = 1 if dtau is None else math.ceil(_SAMPLE_DTAU / dtau - 1e-12)
    if projection is None:
        projection = riesz_projection(ops)
    nsamples = int(math.floor(tau_end / _SAMPLE_DTAU + 1e-9))

    u = np.array(initial, dtype=float)
    u[0] = 0.0
    taus, states, norms = [], [], []
    counts = {}

    def record(k, vec):
        taus.append(_SAMPLE_DTAU * k)
        states.append(vec)
        norms.append(state_norm(grid, vec))

    def partial_trajectory():
        rows = np.array(states)
        return Trajectory(taus=np.array(taus), states=rows,
                          norms=np.array(norms),
                          unstable_coeffs=rows @ projection.functional,
                          step_counts=dict(counts))

    record(0, u)
    n = grid.n
    r, t, nn = np.empty(5 * n), np.empty(2 * n), np.empty(4 * n)
    m = None
    # inf and NaN persist, so the guard after each sample sees any overflow
    # of its steps; the steps in between may overflow silently
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nsamples + 1):
            steps = max(nsub, _sample_steps(norms[-1], norms[0]))
            if steps != m:
                m, h = steps, _SAMPLE_DTAU / steps
                E, reads, stage, combine = _step_matrices(ops, m)
            for _ in range(m):
                if nonlinear:
                    np.dot(reads, u, out=r)
                    nn[:2 * n] = nonlin_N(params, r[:2 * n])
                    np.dot(stage, nn[:2 * n], out=t)
                    t += r[n:3 * n]
                    nn[2 * n:] = nonlin_N(params, t)
                    u = combine.dot(nn)
                    u += r[3 * n:]
                else:
                    u = E @ u
            counts[h] = counts.get(h, 0) + m
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


def _step_matrices(ops, steps):
    """(E, reads, stage, combine), the matrices a Lawson step of length
    h = 0.1/steps reads (see integrate), built once per operator and step
    and kept in ops.steps under h.  With R the read u -> A phi2, E2 =
    e^{hL/2}, E = E2^2, lift x -> (rho x, 0) and S = R E2 lift: reads
    stacks R, R E2, R E and E; stage is [[h/2 S, 0], [0, h S]]; combine
    is [h/6 E lift | h/3 E2 lift | h/3 E2 lift | h/6 lift], filled into
    zeroed arrays with R's block A of the n identity and M lift taken as
    M's phi1 columns scaled by rho, so S is rho times R E2's phi1 columns.
    E is computed into the last 2n rows of reads and returned as that
    view, so each step size holds it once.

    The steps 0.05 and 0.1 call no _expm: their e^{hL/2} is the e^{hL}
    of the step half as long, which is built first.  Every other step
    computes its own.
    """
    h = _SAMPLE_DTAU / steps
    if h not in ops.steps:
        n = ops.grid.n
        rho = ops.grid.nodes    # rho[0] = 0 zeroes the boundary row of N
        if steps in (1, 2):
            E2 = _step_matrices(ops, 2 * steps)[0]
        else:
            E2 = _expm(0.5 * h * ops.L)
        reads = np.zeros((5 * n, 2 * n))
        E = np.matmul(E2, E2, out=reads[3 * n:])
        reads[:n, n:] = avg_A(ops.grid, np.eye(n))
        reads[n:2 * n] = avg_A(ops.grid, E2[n:])
        reads[2 * n:3 * n] = avg_A(ops.grid, E[n:])
        S = reads[n:2 * n, :n] * rho
        stage = np.zeros((2 * n, 2 * n))
        stage[:n, :n] = (0.5 * h) * S
        stage[n:, n:] = h * S
        combine = np.zeros((2 * n, 4 * n))
        combine[:, :n] = ((h / 6.0) * E[:, :n]) * rho
        combine[:, n:2 * n] = combine[:, 2 * n:3 * n] = (
            ((h / 3.0) * E2[:, :n]) * rho)
        combine[np.arange(n), np.arange(3 * n, 4 * n)] = (h / 6.0) * rho
        ops.steps[h] = (E, reads, stage, combine)
        for a in ops.steps[h]:
            a.setflags(write=False)
    return ops.steps[h]


def decay_fit(traj, tau_window):
    """Exponential fit of ||Phi|| over the window; returns (rate,
    amplitude): rate is the negated slope of log||Phi|| vs tau, amplitude
    the fit's value at tau = 0."""
    slope, intercept = model._log_linear_fit(traj.taus, traj.norms, tau_window)
    return -slope, float(np.exp(intercept))


def growth_fit(taus, values, tau_window):
    """Fitted exponential rate of |values| over the window."""
    return model._log_linear_fit(taus, values, tau_window)[0]


def tune_T(v, params, tau_end, grid, ops, projection, dtau=None):
    """Suppress the unstable mode by a secant search on the blow-up time T.

    The target a(T) is the unstable coefficient of the nonlinear run from
    U(v, T), read at tau_end - 1, or at the abort time for runs that leave
    the smallness regime (their sign is already decided by the dominant
    mode).  dU/dT = q k g at T = 1, with q = 2/(p-1), k = kappa_root and
    l @ g = 1.  The linear prediction T_lin is the zero of l @ U(v, T),
    found by the secant method from T = 1 and its Newton step with slope
    q k.  By Duhamel's formula a(tau) = e^tau (a(0) + I(tau)), with
    I(tau) = int_0^tau e^-s l @ (rho N(A phi2(s)), 0) ds.  The Duhamel
    prediction T_pred is the zero of l @ U(v, T) + I(tau_end - 1), I taken
    along the linear flow from U(v, T_lin) (_linear_flow_integrals), found
    by the secant method from T_lin; neither prediction integrates.  The
    linear flow of g is e^s g and A g2 = 1, so dI/dT = q k J(tau) with
    J(tau) = int_0^tau l @ (rho N'(A phi2(s)), 0) ds.  The secant method
    then finds the zero of the target from T_pred and its Newton step with
    slope e^tau (a0' + q k J(tau)), tau the time the target was read at and
    a0' the slope of l @ U(v, T) between T_lin and T_pred (q k if they
    are equal).  Each T is integrated at most once, and the tuned run is
    the integrated one with the smallest |a|.

    Returns (T_star, trajectory of the tuned run).  The trajectory carries
    T_lin and T_pred, and its `tuning` holds one TuneStep per integration,
    in order; the first is at T_pred.  Its `tuning_stop` says why the
    search for T_star stopped: "zero" (a vanished), "sub_ulp" (the Newton
    step from T_pred is below half an ulp of T, so T_pred is already the
    best float) or "repeat" (the next iterate was already integrated).
    Raises DomainError unless tau_end is finite and tau_end - 1 >= 0.1,
    the first sample after tau = 0, and PerturbationTooLarge when a secant
    iterate leaves (1/2, 3/2) or the target stalls.
    """
    tau_probe = tau_end - 1.0
    if not _SAMPLE_DTAU <= tau_probe < math.inf:
        raise DomainError(
            f"tau_end={tau_end} out of range: tune_T reads its target at "
            f"tau_end - 1, which must be finite and >= {_SAMPLE_DTAU}")
    slope = 2.0 / (params.p - 1.0) * params.kappa_root

    # U_map is looked up in blowlab.model when called, where tracing and
    # fault injection replace it
    @functools.cache
    def initial(T):
        return model.U_map(v, T, params, grid)

    def predicted(T):
        return unstable_coefficient(initial(T), projection)

    runs = {}      # T -> (TuneStep, trajectory, AmplitudeAbort or None)

    def target(T):
        if T not in runs:
            start = time.perf_counter()
            try:
                traj = integrate(initial(T), tau_end, ops, grid, params,
                                 nonlinear=True, dtau=dtau,
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
    taus, I, J = _linear_flow_integrals(initial(T_lin), tau_end, ops,
                                        projection)
    I_probe = float(np.interp(tau_probe, taus, I))
    T_pred, _ = _secant(lambda T: predicted(T) + I_probe, T_lin,
                        T_lin - (predicted(T_lin) + I_probe) / slope)
    if T_pred == T_lin:
        a0_slope = slope
    else:
        a0_slope = (predicted(T_pred) - predicted(T_lin)) / (T_pred - T_lin)
    a_pred = target(T_pred)
    abort_tau = runs[T_pred][0].abort_tau
    tau_read = tau_probe if abort_tau is None else abort_tau
    J_read = float(np.interp(tau_read, taus, J))
    a_slope = math.exp(tau_read) * (a0_slope + slope * J_read)
    T_star, stop = _secant(target, T_pred, T_pred - a_pred / a_slope)
    _, traj, abort = runs[T_star]
    if abort is not None:
        raise abort
    traj.tuning = tuple(step for step, _, _ in runs.values())
    traj.tuning_stop = stop
    traj.T_lin, traj.T_pred = T_lin, T_pred
    return T_star, traj


def _linear_flow_integrals(u, tau_end, ops, projection):
    """The Duhamel integrals of tune_T along the linear flow from the
    stacked state u: (taus, I, J) at every 0.025 up to the last 0.1 sample
    before tau_end, with I(tau) = int_0^tau e^-s l @ (rho N, 0) ds and
    J(tau) = int_0^tau l @ (rho N', 0) ds at N = N(A phi2(s)), by
    _cumulative_simpson.  The flow is held whole, (tau_end/0.025 + 1) x 2n
    floats, each row written in place as E times the last, so N and N'
    each take one nonlinear_term call.
    """
    E = _step_matrices(ops, _SUBSTEPS)[0]
    h = _SAMPLE_DTAU / _SUBSTEPS
    nsteps = _SUBSTEPS * int(math.floor(tau_end / _SAMPLE_DTAU + 1e-9))
    flow = np.empty((nsteps + 1, u.size))
    flow[0] = u
    flow[0, 0] = 0.0
    for k in range(1, nsteps + 1):
        np.dot(E, flow[k - 1], out=flow[k])
    taus = h * np.arange(nsteps + 1)
    n_vals = np.exp(-taus) * (nonlinear_term(ops.grid, ops.params, flow)
                              @ projection.functional)
    dn_vals = (nonlinear_term(ops.grid, ops.params, flow, nonlin_dN)
               @ projection.functional)
    return (taus, _cumulative_simpson(n_vals, h),
            _cumulative_simpson(dn_vals, h))


def _cumulative_simpson(values, h):
    """Integrals of equally spaced values from the first one to each,
    starting at 0: composite Simpson at even indices, and at an odd index
    the even value before it plus the integral of the quadratic through
    that value and the next two, h/12 (5 y0 + 8 y1 - y2); a last odd
    index takes the quadratic through itself and the two values before
    it, h/12 (-y0 + 8 y1 + 5 y2).  Two values take the trapezoid."""
    out = np.zeros_like(values)
    if values.size == 2:
        out[1] = 0.5 * h * (values[0] + values[1])
        return out
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    np.cumsum((h / 3.0) * (y0 + 4.0 * y1 + y2), out=out[2::2])
    out[1:-1:2] = out[:-2:2] + (h / 12.0) * (5.0 * y0 + 8.0 * y1 - y2)
    if values.size % 2 == 0:
        out[-1] = out[-2] + (h / 12.0) * (
            -values[-3] + 8.0 * values[-2] + 5.0 * values[-1])
    return out


def _secant(f, x0, x1):
    """Zero of f in T by the secant method from x0 and x1.

    Stops when f vanishes ("zero"), when the starting step is below half
    an ulp so that x1 == x0 ("sub_ulp"), or when the next iterate was
    already evaluated ("repeat").  Returns the evaluated point with the
    smallest |f| and the stop reason.  Raises PerturbationTooLarge when
    an iterate leaves the tuning domain or two successive values of f at
    distinct points are equal, and SolverError after _MAXITER steps.
    """
    lo, hi = _T_DOMAIN
    values = {}
    for _ in range(_MAXITER):
        for x in (x0, x1):
            if not lo <= x <= hi:
                raise PerturbationTooLarge(
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
            raise PerturbationTooLarge(
                f"tune_T: unstable-mode coefficient stalls at {f1:.3g} near "
                f"T={x1:.17g}; perturbation too large")
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
        if x1 in values:
            stop = "repeat"
            break
    else:
        raise SolverError(
            f"tune_T: secant search not converged in {_MAXITER} steps")
    return min(values, key=lambda x: abs(values[x])), stop


def correction_residual(traj, ops, projection):
    """Discrete zero-correction identity of a tuned run.

    On a trajectory with the unstable mode suppressed, the initial
    coefficient cancels the weighted tail of the projected nonlinearity:
    a(0) + int_0^inf e^{-s} l(N(Phi(s))) ds = 0, l the projection
    functional (P N = l(N) g).  Returns the magnitude of the left side
    with the integral truncated at the last sample, by _cumulative_simpson,
    the rule of tune_T's Duhamel prediction.
    """
    vals = np.exp(-traj.taus) * (
        nonlinear_term(ops.grid, ops.params, traj.states)
        @ projection.functional)
    integral = float(_cumulative_simpson(vals, _SAMPLE_DTAU)[-1])
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
    interpolate = bary_interpolator(fg.grid, r)
    f, g = interpolate(fg.f), interpolate(fg.g)
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
                           + dt**2 * (second_diff(w_cur)
                                      + source(w_cur))[1:valid])
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
