"""Closed-form model objects for the similarity-coordinate blow-up problem.

Everything here evaluates explicit formulas on collocation grids: the
space-homogeneous blow-up solution psi_T, the expanded nonlinearity N, the
running average A, the initial data maps v/kappa/U relative to psi^1,
field reconstruction from similarity-coordinate states, and the local
energy norm on a cone section with its blow-up table.

A similarity-coordinate state is the stacked float vector u = (phi1, phi2)
of length 2n on the n-point unit-interval grid; phi1 = u[:n] vanishes at
rho = 0 (boundary condition).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import Grid, bary_interp, build_grid

# test hook: flipping this breaks the sign-explicit power in nonlin_N,
# used to fault-inject the validation suites
_SIGN_HOOK = 1.0


@dataclass(frozen=True)
class Params:
    """Model constants for fixed exponent p, blow-up time T and rate loss eps.

    kappa0   = 2(p+1)/(p-1)^2
    omega_tilde = 1/2 - 2/(p-1)   (free-part growth bound)
    omega    = max(-1, omega_tilde)  (stable-subspace decay exponent)
    mu       = |omega| - eps         (weighted-norm decay rate)
    """

    p: float
    T: float
    eps: float
    kappa0: float
    omega_tilde: float
    omega: float
    mu: float

    @property
    def kappa_root(self):
        """kappa0^(1/(p-1)), the amplitude of psi^T at T - t = 1; it
        overflows a float below p of about 1.014."""
        try:
            return self.kappa0 ** (1.0 / (self.p - 1.0))
        except OverflowError:
            raise DomainError(f"p={self.p}: kappa0^(1/(p-1)) overflows a "
                              f"float (kappa0={self.kappa0:.6g})") from None


def params_new(p, T=1.0, eps=0.1):
    """Validate (p, T, eps) and derive the model constants."""
    if not 1.0 < p <= 3.0:
        raise DomainError(f"p={p} out of range (1, 3]")
    if not 0.5 < T < 1.5:
        raise DomainError(f"T={T} out of range (1/2, 3/2)")
    omega_tilde = 0.5 - 2.0 / (p - 1.0)
    omega = max(-1.0, omega_tilde)
    if not 0.0 < eps < abs(omega):
        raise DomainError(f"eps={eps} out of range (0, |omega|={abs(omega)})")
    kappa0 = 2.0 * (p + 1.0) / (p - 1.0) ** 2
    return Params(p=float(p), T=float(T), eps=float(eps), kappa0=kappa0,
                  omega_tilde=omega_tilde, omega=omega,
                  mu=abs(omega) - float(eps))


@dataclass(frozen=True)
class RadialPair:
    """Radial field and time-derivative profiles sampled on [0, R]."""

    f: np.ndarray
    g: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class DataPair:
    """Initial data (v1, v2) relative to psi^1, sampled on [0, 3/2]."""

    v1: np.ndarray
    v2: np.ndarray
    grid: Grid


def psi_T(params, t):
    """The space-homogeneous blow-up solution kappa0^(1/(p-1)) (T-t)^(-2/(p-1))."""
    if t >= params.T:
        raise DomainError(f"t={t} out of range: need t < T={params.T}")
    return params.kappa_root * (params.T - t) ** (-2.0 / (params.p - 1.0))


def psi_T_t(params, t):
    """Time derivative of psi_T."""
    if t >= params.T:
        raise DomainError(f"t={t} out of range: need t < T={params.T}")
    q = 2.0 / (params.p - 1.0)
    return q * params.kappa_root * (params.T - t) ** (-q - 1.0)


def nonlin_N(params, x):
    """Quadratic-and-higher remainder of the expanded power nonlinearity.

    N(x) = |k + x|^(p-1) (k + x) - k^p - p kappa0 x with k = kappa0^(1/(p-1)),
    written sign-explicitly as sign(y)|y|^p to stay real for y < 0.
    N(0) = 0 and N'(0) = 0.
    """
    x = np.asarray(x, dtype=float)
    k = params.kappa_root
    y = k + x
    power = _SIGN_HOOK * np.sign(y) * np.abs(y) ** params.p
    # constant written as |k|^p so the x = 0 cancellation is exact
    out = power - np.abs(k) ** params.p - params.p * params.kappa0 * x
    return out if out.ndim else float(out)


def avg_A(grid, u):
    """Running average (Au)(rho) = rho^-1 int_0^rho u, with Au(0) = u(0)."""
    u = np.asarray(u, dtype=float)
    out = grid.V @ u
    out[1:] /= grid.nodes[1:]
    out[0] = u[0]
    return out


def data_to_v(fg, params):
    """Initial data relative to psi^1: v1 = rho g - (2 rho/(p-1)) k,
    v2 = rho f' + f - k, with k = kappa0^(1/(p-1)).

    The derivative of f is taken spectrally on the pair's grid; exact psi^1
    data maps to the zero pair.
    """
    grid = fg.grid
    rho = grid.nodes
    k = params.kappa_root
    v1 = rho * fg.g - (2.0 * rho / (params.p - 1.0)) * k
    v2 = rho * (grid.D @ fg.f) + fg.f - k
    return DataPair(v1=v1, v2=v2, grid=grid)


def _kappa_pair(params, rho):
    k = params.kappa_root
    return np.concatenate([(2.0 * rho / (params.p - 1.0)) * k,
                           k * np.ones_like(rho)])


def U_map(v, T, params, grid):
    """Initial state U(v, T)(rho) = T^(2/(p-1)) [v(T rho) + kappa(T rho)] - kappa(rho).

    v lives on its own grid over [0, 3/2] and is resampled to the points
    T*rho by barycentric interpolation; the result is the stacked state
    (phi1, phi2) on the unit-interval grid.
    """
    if not 0.5 < T < 1.5:
        raise DomainError(f"T={T} out of range (1/2, 3/2)")
    rho = grid.nodes
    scaled = T * rho
    vs = np.concatenate([bary_interp(v.grid, v.v1, scaled),
                         bary_interp(v.grid, v.v2, scaled)])
    amp = T ** (2.0 / (params.p - 1.0))
    u = amp * (vs + _kappa_pair(params, scaled)) - _kappa_pair(params, rho)
    u[0] = 0.0
    return u


def reconstruct_field(u, tau, params, grid):
    """Physical field (psi, psi_t) at similarity time tau from the stacked
    state u = (phi1, phi2).

    tau is the unshifted similarity time, t = T - exp(-tau) (so tau >=
    -log T); the output is sampled on r = rho (T - t) over [0, T - t].
    The removable r = 0 singularity is filled with the analytic limits
    phi2(tau, 0) and the spectral derivative of phi1 at 0.
    """
    T = params.T
    if tau < -np.log(T) - 1e-12:
        raise DomainError(f"tau={tau} out of range: need tau >= -log T")
    t = T - np.exp(-tau)
    scale = (T - t) ** (-2.0 / (params.p - 1.0))
    rho = grid.nodes
    phi1, phi2 = u[:grid.n], u[grid.n:]
    psi = psi_T(params, t) + scale * avg_A(grid, phi2)
    psi_t = np.empty_like(psi)
    psi_t[1:] = psi_T_t(params, t) + scale * phi1[1:] / (rho[1:] * (T - t))
    psi_t[0] = psi_T_t(params, t) + scale / (T - t) * (grid.D @ phi1)[0]
    r_grid = build_grid(grid.n, length=T - t)
    return RadialPair(f=psi, g=psi_t, grid=r_grid)


def field_to_csv(fg, t, path):
    """Write a physical-space snapshot as CSV rows `t,r,psi,psi_t`."""
    with open(path, "w") as fh:
        fh.write("t,r,psi,psi_t\n")
        for r, psi, psi_t in zip(fg.grid.nodes, fg.f, fg.g):
            fh.write(f"{t:.10g},{r:.17g},{psi:.17g},{psi_t:.17g}\n")


def energy_norm(fg):
    """Local energy norm on [0, R]:
    ||(f, g)||^2 = int_0^R |r f' + f|^2 dr + int_0^R r^2 |g|^2 dr.
    """
    grid = fg.grid
    r = grid.nodes
    first = r * (grid.D @ fg.f) + fg.f
    return float(np.sqrt(grid.integrate(first**2) + grid.integrate(r**2 * fg.g**2)))


def energy_blowup(params, n):
    """Energy norm of psi_T on the shrinking cone [0, T - t] at 46 times t
    in [0, 0.9], on n-point grids, and the slope of its log against
    log(T - t), which is -(5 - p)/(2(p - 1)).  Returns (ts, norms, slope).
    """
    ts = np.linspace(0.0, 0.9, 46)
    norms = []
    for t in ts:
        pair = RadialPair(f=np.full(n, psi_T(params, t)),
                          g=np.full(n, psi_T_t(params, t)),
                          grid=build_grid(n, params.T - t))
        norms.append(energy_norm(pair))
    slope = float(np.polyfit(np.log(params.T - ts), np.log(norms), 1)[0])
    return ts, norms, slope


def random_polynomial_state(grid, rng, amplitude=1e-3, degree=6):
    """Seeded smooth stacked state: phi1 = rho * poly(rho), phi2 =
    poly(rho), normalized so the quadrature L2 norm equals `amplitude`."""
    rho = grid.nodes
    c1 = rng.standard_normal(degree)
    c2 = rng.standard_normal(degree)
    u = np.concatenate([rho * np.polyval(c1, rho), np.polyval(c2, rho)])
    nrm = np.sqrt(grid.integrate(u[:grid.n]**2 + u[grid.n:]**2))
    if amplitude > 0.0 and nrm > 0.0:
        u *= amplitude / nrm
    else:
        u[:] = 0.0
    return u


def random_polynomial_data(grid, rng, params, amplitude=1e-3, degree=4):
    """Seeded smooth Cauchy data (f, g) near psi^1, as a RadialPair on the
    given grid, with the perturbation scaled to `amplitude`.

    The perturbations are polynomials in r^2: regular radial fields are
    even in r, and odd content would spoil smoothness at the origin.
    """
    if not abs(amplitude) < np.inf:
        raise DomainError(f"amplitude={amplitude} out of range: need a "
                          f"finite amplitude")
    r2 = grid.nodes**2
    k = params.kappa_root
    pf = np.polyval(rng.standard_normal(degree), r2)
    pg = np.polyval(rng.standard_normal(degree), r2)
    f = k + amplitude * pf
    g = 2.0 / (params.p - 1.0) * k + amplitude * pg
    return RadialPair(f=f, g=g, grid=grid)
