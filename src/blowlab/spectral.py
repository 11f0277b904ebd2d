"""Spectral analysis of the linearized similarity-coordinate generator.

The generator splits as L = L0 + L' with

    L0 u = (u2' - rho u1' - (2/(p-1)) u1,  u1' - rho u2' - (2/(p-1)) u2)
    L' u = (p kappa0 int_0^rho u2,  0)

discretized by Chebyshev collocation and acting on stacked states
u = (u1, u2).  The rho = 0 boundary condition u1(0) = 0 is enforced by
replacing the first row of L with a penalty row -c e0, c = max(50,
2/(p-1) + 10); this pins a single artificial eigenvalue at -c and leaves
all admissible eigenvectors and the Riesz projection untouched.  For every
p it lies at least 10.6 left of the reported window Re(lam) > omega_tilde
+ 0.1 (omega_tilde = 1/2 - 2/(p-1)), and c = 50 for p >= 1.05.

Raw eigenvalues of the discretization are untrusted: the continuous part
of the spectrum produces resolution-dependent values, so only eigenvalues
that move by < 1e-6 between two grids are flagged refinement-stable, and
only the half-plane Re(lam) > omega_tilde + 0.1 is reported.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .grid import Grid
from .model import Params
from .specfun import HypParams, hyp2f1, rgamma

_BOUNDARY_PENALTY = 50.0
_STABILITY_TOL = 1e-6


@dataclass(frozen=True)
class OperatorMatrices:
    """Dense collocation matrices of the linearized generator: the free
    part L0 and L itself, L0 plus the Volterra block p kappa0 V acting
    phi2 -> phi1, with the rho=0 penalty row.  `steps` maps a Lawson step
    h to the matrices evolve.integrate steps with, built on first use."""

    L0: np.ndarray    # free transport part, no boundary condition
    L: np.ndarray     # L0 + L' with the rho=0 penalty row
    grid: Grid
    params: Params
    steps: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


def assemble_L(grid, params):
    """Assemble L0 and the boundary-corrected L = L0 + L' on a grid."""
    n = grid.n
    c = 2.0 / (params.p - 1.0)
    advect = -grid.nodes[:, None] * grid.D    # -diag(rho) D
    advect.flat[::n + 1] -= c
    L0 = np.block([[advect, grid.D], [grid.D, advect]])
    L = L0.copy()
    L[:n, n:] += params.p * params.kappa0 * grid.V
    L[0, :] = 0.0
    L[0, 0] = -max(_BOUNDARY_PENALTY, c + 10.0)
    for a in (L0, L):
        a.setflags(write=False)
    return OperatorMatrices(L0=L0, L=L, grid=grid, params=params)


def symmetry_mode(grid, params):
    """Eigenvector of L at eigenvalue 1: g = ((p+1)/(p-1) rho, 1), stacked."""
    q = (params.p + 1.0) / (params.p - 1.0)
    return np.concatenate([q * grid.nodes, np.ones(grid.n)])


def quantization_Q(lam, params):
    """Pole-safe connection-coefficient quantization.

    Q(lam) = rgamma(a + 1 - c) * rgamma(b + 1 - c) with the eigenvalue
    parameter map a = (lam-2)/2, b = (lam + (p+3)/(p-1))/2, c = 1/2.
    Q vanishes exactly at lam = 1 - 2k and lam = -2k - 2(p+1)/(p-1).
    """
    if not lam > params.omega_tilde:
        raise DomainError(
            f"lam={lam} out of range: need lam > omega_tilde={params.omega_tilde}")
    hp = HypParams.for_eigenvalue(lam, params.p)
    return rgamma(hp.a + 1.0 - hp.c) * rgamma(hp.b + 1.0 - hp.c)


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
    """Riesz projection P = g l^T onto the symmetry mode, with diagnostics.

    `functional` is l, the left eigenvector of L at eigenvalue 1 scaled to
    l^T g = 1, so the unstable-mode coefficient of a stacked state u is
    l @ u and P u = (l @ u) g.  The diagnostics are closed forms in g and
    l: P has the one singular value sigma = ||g|| ||l||, so `rank` is 1
    when sigma > 1e-6, and P^2 - P = (l^T g - 1) P, so
    `idempotency_defect` = |l^T g - 1| sigma is ||P^2 - P||_2.
    """

    P: np.ndarray
    idempotency_defect: float
    rank: int
    functional: np.ndarray   # l with L^T l = l and l @ g = 1


def riesz_projection(ops):
    """Riesz projection of L onto its simple eigenvalue 1, P = g l^T.

    For a simple eigenvalue the Riesz projection is exactly the rank-one
    g l^T / (l^T g), l the left null vector of L - I (Kato, Perturbation
    Theory for Linear Operators, III 6.5).  l comes from one real solve of
    the bordered system

        [(L - I)^T  g] [l]   [0]
        [   g^T     0] [s] = [1],

    which is nonsingular exactly when eigenvalue 1 is algebraically simple
    and normalises l^T g = 1 (then s = 0).  The diagnostics need no
    factorisation of P: sigma = ||g|| ||l|| is its one singular value, the
    rank counts sigma > 1e-6, and ||P^2 - P||_2 = |l^T g - 1| sigma because
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
    P = np.outer(gvec, lvec)
    sigma = float(np.linalg.norm(gvec) * np.linalg.norm(lvec))
    defect = abs(float(lvec @ gvec) - 1.0) * sigma
    for a in (P, lvec):
        a.setflags(write=False)
    return ProjectionResult(P=P, idempotency_defect=defect,
                            rank=int(sigma > 1e-6), functional=lvec)


@dataclass
class SpectrumReport:
    """Analytic and refinement-filtered discrete spectra with diagnostics."""

    p: float
    n_coarse: int
    n_fine: int
    analytic: list
    discrete: list = field(default_factory=list)  # dicts {re, im, stable}
    projection_rank: int = 0
    projection_defect: float = 0.0
    timings: dict = field(default_factory=dict)   # seconds per phase

    def stable_eigenvalues(self):
        return [complex(d["re"], d["im"]) for d in self.discrete if d["stable"]]

    def to_json(self):
        return json.dumps({
            "p": self.p,
            "n_coarse": self.n_coarse,
            "n_fine": self.n_fine,
            "analytic": self.analytic,
            "discrete": self.discrete,
            "projection_rank": self.projection_rank,
            "projection_defect": self.projection_defect,
            "timings": self.timings,
        }, indent=2)


def _eigvals(matrix):
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense eigenvalue solve failed: {exc}") from exc


def discrete_eigenvalues(ops, grids, halfplane=None):
    """Collocation eigenvalues of L filtered by refinement stability.

    `grids` is a (coarse, fine) pair whose sizes differ by a factor of at
    least 1.5.  Eigenvalues of the fine discretization with real part above
    omega_tilde + 0.1 (or `halfplane` if given) are reported; each is
    flagged stable when a coarse-grid eigenvalue lies within 1e-6.  Both
    this list and the analytic one keep what lies above one edge, 1e-6
    below the window, so an analytic eigenvalue on the window's edge and
    the discrete one that resolves it are reported together.  The
    report's `timings` holds the seconds spent assembling the operators
    not passed in (`operators_s`), in the two eigenvalue solves
    (`eigenvalues_s`) and in the fine grid's Riesz projection
    (`projection_s`).
    """
    coarse, fine = grids
    if fine.n < coarse.n:
        coarse, fine = fine, coarse
    if fine.n < 1.5 * coarse.n:
        raise DomainError(
            f"refinement pair n={coarse.n}/{fine.n} out of range: need a factor >= 1.5")
    params = ops.params
    start = time.perf_counter()
    ops_c = ops if ops.grid.n == coarse.n else assemble_L(coarse, params)
    ops_f = ops if ops.grid.n == fine.n else assemble_L(fine, params)
    assembled = time.perf_counter()
    ev_c = _eigvals(ops_c.L)
    ev_f = _eigvals(ops_f.L)
    solved = time.perf_counter()
    window = params.omega_tilde + 0.1 if halfplane is None else halfplane
    # a discrete eigenvalue that resolves an analytic one on the window's
    # edge may round to either side of it, so both lists are cut below it
    edge = window - _STABILITY_TOL
    report = SpectrumReport(p=params.p, n_coarse=coarse.n, n_fine=fine.n,
                            analytic=analytic_eigenvalues(params, edge))
    candidates = ev_f[ev_f.real > edge]
    order = np.lexsort((candidates.imag, -candidates.real))
    for lam in candidates[order]:
        dist = np.abs(ev_c - lam).min() if ev_c.size else np.inf
        report.discrete.append({
            "re": float(lam.real),
            "im": float(lam.imag),
            "stable": bool(dist < _STABILITY_TOL),
        })
    start_proj = time.perf_counter()
    proj = riesz_projection(ops_f)
    report.timings = {"operators_s": assembled - start,
                      "eigenvalues_s": solved - assembled,
                      "projection_s": time.perf_counter() - start_proj}
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
        if abs(lam - (1.0 - 2.0 / (params.p - 1.0))) < 1e-9:
            raise DomainError(
                f"lam={lam} is the logarithmically degenerate point 1 - 2/(p-1)")
        raise DomainError(f"lam={lam} is not an analytic eigenvalue")
    hp = HypParams.for_eigenvalue(lam, params.p)
    rho = grid.nodes
    out = np.empty(grid.n)
    out[0] = 0.0
    for i in range(1, grid.n):
        z = min(rho[i] ** 2, 1.0 - 1e-14)
        out[i] = rho[i] * hyp2f1(hp.a + 0.5, hp.b + 0.5, 1.5, z)
    return out
