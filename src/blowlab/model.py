"""Closed-form model objects for the similarity-coordinate blow-up problem.

Everything here evaluates explicit formulas on collocation grids: the
space-homogeneous blow-up solution psi_T, the expanded nonlinearity N and
its derivative, formed without the cancelling k^p (see nonlin_N), the
running average A, the initial data maps v/kappa/U relative to psi^1,
field reconstruction from similarity-coordinate states, and the local
energy norm on a cone section.

A similarity-coordinate state is the stacked float vector u = (phi1, phi2)
of length 2n on the n-point unit-interval grid; phi1 = u[:n] vanishes at
rho = 0 (boundary condition).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .grid import Grid, bary_interpolator, build_grid

# test hook: any value but 1.0 scales |k+x|^(p-1)(k+x) in N, and the
# power term of N', by it, to fault-inject the validation suites
_SIGN_HOOK = 1.0

# N's series sums the reads with |x/k| < 1/10, to rounding in <= 16 terms
_SERIES_LIMIT, _SERIES_TERMS = 0.1, 16
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Params:
    """Model constants for fixed exponent p, blow-up time T and rate loss eps.

    Only p, T and eps are set; the rest are derived from them when the
    Params is made:
    q        = 2/(p-1)             (self-similar exponent of psi^T)
    kappa0   = 2(p+1)/(p-1)^2
    omega_tilde = 1/2 - q          (free-part growth bound)
    omega    = max(-1, omega_tilde)  (stable-subspace decay exponent)
    mu       = |omega| - eps         (weighted-norm decay rate)
    """

    p: float
    T: float
    eps: float
    q: float = field(init=False)
    kappa0: float = field(init=False)
    omega_tilde: float = field(init=False)
    omega: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        p, q = self.p, 2.0 / (self.p - 1.0)
        omega = max(-1.0, 0.5 - q)
        for name, value in dict(q=q, kappa0=2.0 * (p + 1.0) / (p - 1.0) ** 2,
                                omega_tilde=0.5 - q, omega=omega,
                                mu=abs(omega) - self.eps).items():
            object.__setattr__(self, name, value)   # frozen: set once here

    @cached_property
    def kappa_root(self):
        """kappa0^(1/(p-1)), the amplitude of psi^T at T - t = 1, computed
        on first access; it overflows a float below p of about 1.014, and
        then every access raises."""
        try:
            return self.kappa0 ** (1.0 / (self.p - 1.0))
        except OverflowError:
            raise DomainError(f"p={self.p}: kappa0^(1/(p-1)) overflows a "
                              f"float (kappa0={self.kappa0:.6g})") from None

    @cached_property
    def binomial_tail(self):
        """(kappa0/k) C(p, j), j = 2..17: nonlin_N's series coefficients."""
        p = self.p
        coef = [self.kappa0 / self.kappa_root * p * (p - 1.0) / 2.0]
        for j in range(2, _SERIES_TERMS + 1):
            coef.append(coef[-1] * (p - j) / (j + 1))
        return tuple(coef)


def params_new(p, T=1.0, eps=0.1):
    """Validate (p, T, eps) and derive the model constants."""
    if not 1.0 < p <= 3.0:
        raise DomainError(f"p={p} out of range (1, 3]")
    if not 0.5 < T < 1.5:
        raise DomainError(f"T={T} out of range (1/2, 3/2)")
    params = Params(p=float(p), T=float(T), eps=float(eps))
    if not 0.0 < eps < abs(params.omega):
        raise DomainError(f"eps={eps} out of range (0, |omega|={abs(params.omega)})")
    return params


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


def state_inner(grid, u, v):
    """Quadrature L2 x L2 inner product of stacked states."""
    n = grid.n
    return float(grid.w @ (u[:n] * v[:n] + u[n:] * v[n:]))


def state_norm(grid, u):
    return float(np.sqrt(max(state_inner(grid, u, u), 0.0)))


def psi_T(params, t):
    """The space-homogeneous blow-up solution kappa0^(1/(p-1)) (T-t)^(-2/(p-1))."""
    if t >= params.T:
        raise DomainError(f"t={t} out of range: need t < T={params.T}")
    return params.kappa_root * (params.T - t) ** -params.q


def psi_T_t(params, t):
    """Time derivative of psi_T."""
    if t >= params.T:
        raise DomainError(f"t={t} out of range: need t < T={params.T}")
    return params.q * params.kappa_root * (params.T - t) ** (-params.q - 1.0)


def nonlin_N(params, x):
    """N(x) = |k + x|^(p-1) (k + x) - k^p - p kappa0 x, k = kappa0^(1/(p-1)),
    to a few ulps: x^2 (3k + x) at p = 3, x^2 (x^2 - 2 (k + x)^2 where
    k + x < 0) at p = 2, else (kappa0/k) x^2 sum_{j>=2} C(p, j) (x/k)^(j-2)
    by Horner, in as few terms as max |x/k| needs, and the direct formula
    at |x/k| >= 1/10.  A 0-d x gives a float."""
    p = params.p
    k = params.kappa_root
    x = np.asarray(x, dtype=float)
    if p == 3.0:
        out = (x + 3.0 * k) * x
        out *= x
    elif p == 2.0:
        out = x * x
        if x.min() < -k:
            out = np.where(x < -k, out - 2.0 * (x + k) ** 2, out)
    else:
        s = x / k
        smax = float(np.abs(s).max())
        far = not smax < _SERIES_LIMIT     # NaN included
        m = _SERIES_TERMS if far else max(2, math.ceil(
            math.log(_EPS) / math.log(max(smax, _EPS))))
        coef = params.binomial_tail
        out = s * coef[m - 1]
        out += coef[m - 2]
        for c in reversed(coef[:m - 2]):
            out *= s
            out += c
        out *= x
        out *= x
        if far:
            out = np.where(np.abs(s) < _SERIES_LIMIT, out,
                           np.copysign(np.abs(x + k) ** p, x + k) - k ** p
                           - (p * params.kappa0) * x)
    if _SIGN_HOOK != 1.0:
        out = _SIGN_HOOK * out + (_SIGN_HOOK - 1.0) * (
            k ** p + (p * params.kappa0) * x)
    return out if out.ndim else float(out)


def nonlin_dN(params, x):
    """N'(x) = p |k + x|^(p-1) - p kappa0, as p kappa0 expm1((p-1)
    log1p(x/k)) where x/k > -1 and directly elsewhere; N'(0) = 0."""
    p = params.p
    k = params.kappa_root
    x = np.asarray(x, dtype=float)
    s = x / k
    low = s <= -1.0
    out = np.expm1((p - 1.0) * np.log1p(np.where(low, 0.0, s)))
    out *= p * params.kappa0
    if low.any():
        out = np.where(low, p * np.abs(x + k) ** (p - 1.0)
                       - p * params.kappa0, out)
    if _SIGN_HOOK != 1.0:
        out = _SIGN_HOOK * out + (_SIGN_HOOK - 1.0) * (p * params.kappa0)
    return out if out.ndim else float(out)


def avg_A(grid, u):
    """Running average (Au)(rho) = rho^-1 int_0^rho u, with Au(0) = u(0);
    a 2-D u is a stack of columns, each averaged."""
    u = np.asarray(u, dtype=float)
    out = grid.V @ u
    out[1:] = (out[1:].T / grid.nodes[1:]).T
    out[0] = u[0]
    return out


def _kappa_pair(params, rho):
    """psi^1's stacked pair kappa(rho) = ((2 rho/(p-1)) k, k)."""
    k = params.kappa_root
    return np.concatenate([(2.0 * rho / (params.p - 1.0)) * k,
                           k * np.ones_like(rho)])


def data_to_v(fg, params):
    """Initial data relative to psi^1: v1 = rho g - (2 rho/(p-1)) k,
    v2 = rho f' + f - k, with k = kappa0^(1/(p-1)).

    The derivative of f is taken spectrally on the pair's grid; exact psi^1
    data maps to the zero pair.
    """
    grid = fg.grid
    rho = grid.nodes
    v = (np.concatenate([rho * fg.g, rho * (grid.D @ fg.f) + fg.f])
         - _kappa_pair(params, rho))
    return DataPair(v1=v[:grid.n], v2=v[grid.n:], grid=grid)


def U_map(v, T, params, grid):
    """Initial state U(v, T)(rho) = T^(2/(p-1)) [v(T rho) + kappa(T rho)] - kappa(rho).

    v lives on its own grid over [0, 3/2] and is resampled to the points
    T*rho by barycentric interpolation, one set of weights for both
    components; the result is the stacked state (phi1, phi2) on the
    unit-interval grid.
    """
    if not 0.5 < T < 1.5:
        raise DomainError(f"T={T} out of range (1/2, 3/2)")
    rho = grid.nodes
    scaled = T * rho
    interp = bary_interpolator(v.grid, scaled)
    vs = np.concatenate([interp(v.v1), interp(v.v2)])
    amp = T ** params.q
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
    scale = (T - t) ** -params.q
    rho = grid.nodes
    phi1, phi2 = u[:grid.n], u[grid.n:]
    psi = psi_T(params, t) + scale * avg_A(grid, phi2)
    psi_t = np.empty_like(psi)
    psi_t[1:] = psi_T_t(params, t) + scale * phi1[1:] / (rho[1:] * (T - t))
    psi_t[0] = psi_T_t(params, t) + scale / (T - t) * (grid.D @ phi1)[0]
    r_grid = build_grid(grid.n, length=T - t)
    return RadialPair(f=psi, g=psi_t, grid=r_grid)


def energy_norm(fg):
    """Local energy norm on [0, R]:
    ||(f, g)||^2 = int_0^R |r f' + f|^2 dr + int_0^R r^2 |g|^2 dr.
    """
    grid = fg.grid
    r = grid.nodes
    first = r * (grid.D @ fg.f) + fg.f
    return float(np.sqrt(grid.integrate(first**2) + grid.integrate(r**2 * fg.g**2)))


def _log_linear_fit(x, values, window):
    """Least-squares line through (x, log|value|) over the samples with x
    in window, for every rate fit; returns (slope, intercept).

    Raises DomainError for fewer than 10 samples in the window or a
    |value| at or below 1e-14 there.
    """
    x = np.asarray(x)
    values = np.abs(np.asarray(values))
    mask = (x >= window[0] - 1e-9) & (x <= window[1] + 1e-9)
    if mask.sum() < 10:
        raise DomainError(
            f"only {int(mask.sum())} samples in fit window {window}, "
            f"need >= 10")
    if values[mask].min() <= 1e-14:
        raise DomainError("fitted values underflow below 1e-14")
    slope, intercept = np.polyfit(x[mask], np.log(values[mask]), 1)
    return float(slope), intercept


def random_polynomial_state(grid, rng, amplitude=1e-3):
    """Seeded state phi1 = rho q1(rho), phi2 = q2(rho), q1, q2 quintics with
    standard normal coefficients, scaled to quadrature L2 norm `amplitude`."""
    rho = grid.nodes
    c1 = rng.standard_normal(6)
    c2 = rng.standard_normal(6)
    u = np.concatenate([rho * np.polyval(c1, rho), np.polyval(c2, rho)])
    nrm = state_norm(grid, u)
    if amplitude > 0.0 and nrm > 0.0:
        u *= amplitude / nrm
    else:
        u[:] = 0.0
    return u


def random_polynomial_data(grid, rng, params, amplitude=1e-3):
    """Seeded smooth Cauchy data (f, g) near psi^1, as a RadialPair on the
    given grid, with the perturbation scaled to `amplitude`.

    The perturbations are cubics in r^2 with standard normal coefficients:
    regular radial fields are even in r, and odd content would spoil
    smoothness at the origin.
    """
    if not abs(amplitude) < np.inf:
        raise DomainError(f"amplitude={amplitude} out of range: need a "
                          f"finite amplitude")
    r2 = grid.nodes**2
    k = params.kappa_root
    pf = np.polyval(rng.standard_normal(4), r2)
    pg = np.polyval(rng.standard_normal(4), r2)
    f = k + amplitude * pf
    g = params.q * k + amplitude * pg
    return RadialPair(f=f, g=g, grid=grid)
