"""Spectral analysis of the linearized similarity-coordinate generator.

The generator splits as L = L0 + L' with

    L0 u = (u2' - rho u1' - (2/(p-1)) u1,  u1' - rho u2' - (2/(p-1)) u2)
    L' u = (p kappa0 int_0^rho u2,  0)

discretized by Chebyshev collocation and acting on stacked states
u = (u1, u2).  `free_part` builds L0, which only its dissipativity bound
omega_tilde is read from; `assemble_L` adds L' to that array in place,
and only L is kept.  The rho = 0 boundary condition u1(0) = 0 is
enforced by replacing the first row of L with a penalty row -c e0,
c = max(50, 2/(p-1) + 10); this pins a single artificial eigenvalue at
-c and leaves all admissible eigenvectors and the Riesz projection
untouched.  For every p it lies at least 10.6 left of the reported
window Re(lam) > omega_tilde + 0.1 (omega_tilde = 1/2 - 2/(p-1)), and
c = 50 for p >= 1.05.

Raw eigenvalues of the discretization are untrusted: the continuous part
of the spectrum produces resolution-dependent values, so only eigenvalues
that move by < 1e-6 between two grids are flagged refinement-stable, and
only the half-plane Re(lam) > omega_tilde + 0.1 is reported.  One dense
eigenvalue solve, on the coarse grid, finds the candidates.  The fine
eigenvalue of the one within 1e-6 of 1 is 1 + l @ (L g - g), g the
symmetry mode and l the fine projection's functional; that nearest each
other candidate comes from shifted inverse iteration on the fine
operator, two LU solves per candidate.  A stable entry reports that fine
eigenvalue, an unstable one its coarse candidate.  The refinement cost
grows with the window's roughly 1/(p - 1) eigenvalues and, at n = 96,
passes that of a dense fine solve at 14 of them (p = 1.075).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .grid import Grid
from .model import Params
from .specfun import hyp2f1, rgamma

_BOUNDARY_PENALTY = 50.0
_STABILITY_TOL = 1e-6


@dataclass(frozen=True)
class OperatorMatrices:
    """Dense collocation matrix of the linearized generator L = L0 + L',
    the Volterra block p kappa0 V acting phi2 -> phi1 added to the free
    part, with the rho=0 penalty row.  `steps` maps a Lawson step h to
    the matrices evolve.integrate steps with, built on first use."""

    L: np.ndarray     # L0 + L' with the rho=0 penalty row
    grid: Grid
    params: Params
    steps: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


def free_part(grid, params):
    """The free transport part L0 of the generator on a grid, without the
    boundary row: [[-rho D - c, D], [D, -rho D - c]], c = 2/(p-1)."""
    n = grid.n
    advect = -grid.nodes[:, None] * grid.D    # -diag(rho) D
    advect.flat[::n + 1] -= params.q
    return np.block([[advect, grid.D], [grid.D, advect]])


def assemble_L(grid, params):
    """Assemble the boundary-corrected L = L0 + L' on a grid, in place in
    the array free_part returns."""
    n = grid.n
    L = free_part(grid, params)
    L[:n, n:] += params.p * params.kappa0 * grid.V
    L[0, :] = 0.0
    L[0, 0] = -max(_BOUNDARY_PENALTY, params.q + 10.0)
    L.setflags(write=False)
    return OperatorMatrices(L=L, grid=grid, params=params)


def symmetry_mode(grid, params):
    """Eigenvector of L at eigenvalue 1: g = ((p+1)/(p-1) rho, 1), stacked."""
    q = (params.p + 1.0) / (params.p - 1.0)
    return np.concatenate([q * grid.nodes, np.ones(grid.n)])


def _hyp_params(lam, p):
    """Hypergeometric parameters (a, b, c) of the eigenvalue problem at lam."""
    return 0.5 * (lam - 2.0), 0.5 * (lam + (p + 3.0) / (p - 1.0)), 0.5


def quantization_Q(lam, params):
    """Pole-safe connection-coefficient quantization.

    Q(lam) = rgamma(a + 1 - c) * rgamma(b + 1 - c) with the eigenvalue
    parameter map a = (lam-2)/2, b = (lam + (p+3)/(p-1))/2, c = 1/2.
    Q vanishes exactly at lam = 1 - 2k and lam = -2k - 2(p+1)/(p-1).
    """
    if not lam > params.omega_tilde:
        raise DomainError(
            f"lam={lam} out of range: need lam > omega_tilde={params.omega_tilde}")
    a, b, c = _hyp_params(lam, params.p)
    return rgamma(a + 1.0 - c) * rgamma(b + 1.0 - c)


def analytic_eigenvalues(params, re_min):
    """The zeros 1 - 2k of Q in (re_min, inf), sorted.

    The other family of zeros, -2k - 2(p+1)/(p-1), starts 2.5 + 2/(p-1)
    below omega_tilde, so it never meets a half-plane with re_min >
    omega_tilde.
    """
    if not re_min > params.omega_tilde:
        raise DomainError(
            f"re_min={re_min} out of range: need re_min > omega_tilde="
            f"{params.omega_tilde}")
    vals = []
    k = 0
    while 1.0 - 2.0 * k > re_min:
        vals.append(1.0 - 2.0 * k)
        k += 1
    return sorted(vals)


@dataclass(frozen=True)
class ProjectionResult:
    """Riesz projection P = g l^T onto the symmetry mode, held as l; P is
    never formed.  With g = symmetry_mode(grid, params), P u = (l @ u) g,
    so l @ u is the unstable-mode coefficient of a stacked state u.
    `rank` and `idempotency_defect` = ||P^2 - P||_2 are closed forms in g
    and l (see riesz_projection)."""

    idempotency_defect: float
    rank: int
    functional: np.ndarray   # l with L^T l = l and l @ g = 1


def riesz_projection(ops):
    """Riesz projection of L onto its simple eigenvalue 1, P = g l^T, as l.

    For a simple eigenvalue the Riesz projection is exactly the rank-one
    g l^T / (l^T g), l the left null vector of L - I (Kato, Perturbation
    Theory for Linear Operators, III 6.5).  l comes from one real solve of
    the bordered system

        [(L - I)^T  g] [l]   [0]
        [   g^T     0] [s] = [1],

    which is nonsingular exactly when eigenvalue 1 is algebraically simple
    and normalises l^T g = 1 (then s = 0).  The diagnostics need no P:
    sigma = ||g|| ||l|| is its one singular value, the rank counts
    sigma > 1e-6, and ||P^2 - P||_2 = |l^T g - 1| sigma because
    P^2 = (l^T g) P.
    """
    L = ops.L
    dim = L.shape[0]
    gvec = symmetry_mode(ops.grid, ops.params)
    border = np.zeros((dim + 1, dim + 1))
    border[:dim, :dim] = L.T
    np.fill_diagonal(border[:dim, :dim], L.diagonal() - 1.0)
    border[:dim, dim] = border[dim, :dim] = gvec
    rhs = np.zeros(dim + 1)
    rhs[dim] = 1.0
    try:
        lvec = np.linalg.solve(border, rhs)[:dim]
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"bordered left-eigenvector solve failed: {exc}") from exc
    sigma = float(np.linalg.norm(gvec) * np.linalg.norm(lvec))
    defect = abs(float(lvec @ gvec) - 1.0) * sigma
    lvec.setflags(write=False)
    return ProjectionResult(idempotency_defect=defect,
                            rank=int(sigma > 1e-6), functional=lvec)


@dataclass
class SpectrumReport:
    """Analytic and refinement-filtered discrete spectra with diagnostics."""

    p: float
    n_coarse: int
    n_fine: int
    analytic: list
    # dicts {re, im, stable, refinement}
    discrete: list = field(default_factory=list)
    projection_rank: int = 0
    projection_defect: float = 0.0
    timings: dict = field(default_factory=dict)   # seconds per phase

    def stable_eigenvalues(self):
        return [complex(d["re"], d["im"]) for d in self.discrete if d["stable"]]


def _eigvals(matrix):
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense eigenvalue solve failed: {exc}") from exc


def _nearest_eigenvalue(matrix, shift):
    """The eigenvalue of `matrix` nearest `shift`, by two steps of shifted
    inverse iteration from the vector of ones (Ipsen, "Computing an
    eigenvector with inverse iteration", SIAM Review 39, 1997), in real
    arithmetic for a real shift and complex for a complex one.  Two steps
    resolve it when the shift lies much nearer to it than to any other
    eigenvalue, as for a refinement-stable one; for a distant shift the
    result is an estimate.

    With y = (A - shift I)^-1 x the estimate is shift + c, c = (y^H x) /
    (y^H y) the least-squares fit of x by c y.  It is read after the
    second step: the first step's c is at most ||x|| / ||y||, which on
    these non-normal matrices can lie orders of magnitude below the
    distance to the nearest eigenvalue.  An exactly singular A - shift I
    has an eigenvalue at the shift; a non-finite estimate raises
    SolverError.
    """
    real = shift.imag == 0.0
    shift = float(shift.real) if real else complex(shift)
    dim = matrix.shape[0]
    shifted = matrix.astype(float if real else complex)
    shifted.flat[::dim + 1] -= shift
    x = np.ones(dim, dtype=shifted.dtype)
    for _ in range(2):
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:   # exactly singular
            return shift
        norm = np.linalg.norm(y)
        x, last = y / norm, x
    c = np.vdot(x, last) / norm
    if not np.isfinite(c):
        raise SolverError(
            f"inverse iteration at shift {shift} gave a non-finite eigenvalue")
    return shift + c


def discrete_eigenvalues(ops, grids, projection=None):
    """Collocation eigenvalues of L filtered by refinement stability.

    `grids` is a (coarse, fine) pair whose sizes differ by a factor of at
    least 1.5; a (fine, coarse) pair fails that and raises DomainError.
    One dense solve finds the coarse grid's eigenvalues; those with real
    part in the window, above omega_tilde + 0.1, are refined on the fine
    grid.  The one within 1e-6 of 1 is the symmetry mode's, and its fine
    eigenvalue is the two-sided Rayleigh quotient 1 + l @ (L g - g) of g
    and the fine projection's functional l (l @ g = 1), with error
    quadratic in their residuals (Parlett, Math. Comp. 28, 1974).  Every
    other one is a shift for `_nearest_eigenvalue` on the fine operator,
    two LU solves each.  An entry is flagged stable when its fine
    eigenvalue lies within 1e-6, and its `refinement` is that distance;
    above about 1e-4 it is an inverse-iteration estimate of it (see
    `_nearest_eigenvalue`), which no flag depends on.  A stable entry
    holds the fine eigenvalue; an unstable one holds the coarse
    eigenvalue, which no finer grid confirms, since from a distant shift
    the estimate is an eigenvalue of neither grid.  Both this list and
    the analytic one keep what lies above one edge, 1e-6 below the
    window, so an analytic eigenvalue on the window's edge and the
    discrete one that resolves it are reported together.

    The inverse iterations cost more than the fine grid's dense solve
    they replace once the window holds 14 eigenvalues (p = 1.075 at
    n = 96).  The report's `timings` holds the seconds spent assembling
    the operators not passed in (`operators_s`), in the coarse grid's
    eigenvalue solve (`eigenvalues_s`), in the fine grid's Riesz
    projection (`projection_s`) and in the refinements (`refinement_s`).
    `projection`, a `riesz_projection` of the fine operator the caller
    already holds, is used instead of a new one; it feeds the lambda = 1
    entry, so one of another grid's operator raises DomainError.
    """
    coarse, fine = grids
    if fine.n < 1.5 * coarse.n:
        raise DomainError(
            f"refinement pair n={coarse.n}/{fine.n} out of range: need a factor >= 1.5")
    if projection is not None and projection.functional.size != 2 * fine.n:
        raise DomainError(f"projection is of another grid than n={fine.n}")
    params = ops.params
    start = time.perf_counter()
    ops_c = ops if ops.grid.n == coarse.n else assemble_L(coarse, params)
    ops_f = ops if ops.grid.n == fine.n else assemble_L(fine, params)
    assembled = time.perf_counter()
    ev_c = _eigvals(ops_c.L)
    solved = time.perf_counter()
    window = params.omega_tilde + 0.1
    # a discrete eigenvalue that resolves an analytic one on the window's
    # edge may round to either side of it, so both lists are cut below it
    edge = window - _STABILITY_TOL
    report = SpectrumReport(p=params.p, n_coarse=coarse.n, n_fine=fine.n,
                            analytic=analytic_eigenvalues(params, edge))
    proj = riesz_projection(ops_f) if projection is None else projection
    projected = time.perf_counter()
    # a coarse eigenvalue just below the edge may refine to one above it
    cands = ev_c[ev_c.real > edge - _STABILITY_TOL]
    near = np.abs(cands - 1.0).argmin()
    gvec = symmetry_mode(fine, params)
    for i, mu in enumerate(cands):
        if i == near and abs(mu - 1.0) < _STABILITY_TOL:   # g's eigenvalue
            lam = 1.0 + proj.functional @ (ops_f.L @ gvec - gvec)
        else:
            lam = _nearest_eigenvalue(ops_f.L, mu)
        dist = float(abs(lam - mu))
        stable = dist < _STABILITY_TOL
        # from a distant shift the estimate is no grid's eigenvalue
        value = lam if stable else mu
        if value.real > edge:
            report.discrete.append({"re": float(value.real),
                                    "im": float(value.imag),
                                    "stable": stable, "refinement": dist})
    report.discrete.sort(key=lambda d: (-d["re"], d["im"]))
    report.timings = {"operators_s": assembled - start,
                      "eigenvalues_s": solved - assembled,
                      "projection_s": projected - solved,
                      "refinement_s": time.perf_counter() - projected}
    report.projection_rank = proj.rank
    report.projection_defect = proj.idempotency_defect
    return report


def eigenfunction_analytic(lam, params, grid):
    """Admissible eigenfunction u(rho) = int_0^rho u2 at an analytic eigenvalue.

    Evaluated through the boundary-vanishing hypergeometric branch
    u(rho) = rho * 2F1(a + 1/2, b + 1/2; 3/2; rho^2), which coincides with
    the interior-regular solution exactly when the quantization vanishes;
    at lam = 1 the series collapses and u is proportional to rho.
    """
    families = analytic_eigenvalues(params, params.omega_tilde + 1e-9)
    if not any(abs(lam - v) < 1e-9 for v in families):
        if abs(lam - (1.0 - params.q)) < 1e-9:
            raise DomainError(
                f"lam={lam} is the logarithmically degenerate point 1 - 2/(p-1)")
        raise DomainError(f"lam={lam} is not an analytic eigenvalue")
    a, b, _ = _hyp_params(lam, params.p)
    rho = grid.nodes
    out = np.empty(grid.n)
    out[0] = 0.0
    for i in range(1, grid.n):
        z = min(rho[i] ** 2, 1.0 - 1e-14)
        out[i] = rho[i] * hyp2f1(a + 0.5, b + 0.5, 1.5, z)
    return out
