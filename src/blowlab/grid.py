"""Chebyshev-Gauss-Lobatto collocation grid on [0, L].

Nodes are stored ascending with rho[0] = 0 and rho[-1] = L.  The grid
carries the spectral differentiation matrix D, a Volterra integration
matrix V realizing u -> int_0^rho u and quadrature weights w;
bary_interpolator evaluates grid functions off the grid.

V integrates the Chebyshev interpolant coefficient-wise, pinned to zero at
rho = 0, so it is exact for polynomials up to degree n-1.  Its last row,
the integral over [0, L], is the Clenshaw-Curtis rule (Trefethen, Spectral
Methods in MATLAB, ch. 12), and w is that row: one quadrature per grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _cheb_nodes_and_diff(N):
    """Differentiation matrix on cos(j*pi/N), j = 0..N (Trefethen)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    dX = x[:, None] - x[None, :]
    dX.flat[::N + 2] += 1.0
    D = np.outer(c, 1.0 / c) / dX
    D.flat[::N + 2] -= D.sum(axis=1)
    return x, D


def _volterra(N, length):
    """Integration matrix u |-> int_0^rho u on the mapped CGL grid.

    Works in Chebyshev coefficient space: values -> coefficients ->
    integrated coefficients (degree N+1) -> values, with the constant fixed
    so the antiderivative vanishes at rho = 0 (x = +1).  The last row,
    which integrates over [0, L], holds the grid's Clenshaw-Curtis weights.
    """
    j = np.arange(N + 1)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    # evaluate T_0..T_{N+1} at the nodes x_j = cos(j pi / N)
    E = np.cos(np.pi * np.outer(j, np.arange(N + 2)) / N)
    # values-to-coefficients (DCT-I normalization for CGL nodes)
    A = (2.0 / N) * E[:, :N + 1] / np.outer(c, c)
    # coefficient integration: b = S a with int T_0 = T_1,
    # int T_1 = T_2/4, int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1))
    k = np.arange(2, N + 1)
    S = np.zeros((N + 2, N + 1))
    S[np.r_[1, 2, k + 1, k - 1], np.r_[0, 1, k, k]] = np.r_[
        1.0, 0.25, 0.5 / (k + 1), -0.5 / (k - 1)]
    SA = S @ A
    G = E @ SA          # antiderivative in x, up to a constant
    # int_0^rho u drho' = (L/2) * (G(1) - G(x)), G(1) the value at rho = 0
    np.subtract(SA.sum(axis=0), G, out=G)
    G *= length / 2.0
    return G


@dataclass(frozen=True)
class Grid:
    """Collocation grid: nodes, differentiation, integration, quadrature."""

    n: int
    length: float
    nodes: np.ndarray   # ascending, nodes[0] = 0, nodes[-1] = length
    D: np.ndarray       # spectral differentiation, (n, n)
    V: np.ndarray       # Volterra integration u -> int_0^rho u, (n, n)
    w: np.ndarray       # quadrature weights, V's last row, (n,)

    def integrate(self, u):
        """Quadrature integral of a grid function over [0, length]."""
        return float(self.w @ np.asarray(u))


def build_grid(n, length=1.0):
    """Build an n-node Chebyshev-Gauss-Lobatto grid on [0, length].

    Raises DomainError for n < 16; coarser grids cannot resolve the
    operators this package assembles.
    """
    if n < 16:
        raise DomainError(f"grid size n={n} out of range: need n >= 16")
    if length <= 0:
        raise DomainError(f"grid length {length} out of range: need length > 0")
    N = n - 1
    x, Dx = _cheb_nodes_and_diff(N)
    # rho = (1 - x)/2 * length maps x (descending) to ascending rho in [0, L]
    nodes = (1.0 - x) / 2.0 * length
    nodes[0] = 0.0
    nodes[-1] = length
    D = Dx * (-2.0 / length)
    V = _volterra(N, length)
    w = V[-1]
    for a in (nodes, D, V, w):
        a.setflags(write=False)
    return Grid(n=n, length=float(length), nodes=nodes, D=D, V=V, w=w)


def bary_interpolator(grid, targets):
    """Barycentric interpolation from the nodes to targets in [0, length],
    as a function of the nodal values: the weights are built once and
    applied to each value array by its own matvec.  The CGL barycentric
    weights are (-1)^j, halved at both ends.  Exact on grid nodes;
    spectrally accurate for smooth data."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.min() < -1e-12 or targets.max() > grid.length + 1e-12:
        raise DomainError(
            f"interpolation target outside [0, {grid.length}]")
    diff = targets[:, None] - grid.nodes[None, :]
    exact = np.abs(diff) <= 1e-300
    diff[exact] = 1.0
    bary = (-1.0) ** np.arange(grid.n)
    bary[[0, -1]] *= 0.5
    weights = bary / diff
    sums = weights.sum(axis=1)
    hit_rows, hit_cols = np.nonzero(exact)

    def interpolate(values):
        values = np.asarray(values, dtype=float)
        out = (weights @ values) / sums
        out[hit_rows] = values[hit_cols]
        return out

    return interpolate

