"""Real special functions: reciprocal Gamma, digamma, Gauss 2F1.

Implementations sized for the eigenvalue quantization and eigenfunction
evaluations of the spectral module, on top of `math.lgamma`/`math.gamma`:

* rgamma extends 1/Gamma to the whole real line by reflection and returns
  an exact 0.0 at the poles x = 0, -1, -2, ...  This is what makes the
  quantization function vanish exactly at eigenvalue candidates.
* hyp2f1(a, b, c, z) on z in [0, 1) sums the defining series for z <= 1/2,
  or at every z when the smaller of a, b is a non-positive integer (the
  series is then a polynomial), and switches to the z -> 1-z connection
  formula beyond.
  When c - a - b is within 1e-6 of an integer m it uses the logarithmic
  limit for m >= 0 (DLMF 15.8.10) and maps m < 0 onto it by Euler's
  transformation (DLMF 15.8.1).  Arguments are canonicalized to a <= b so
  the a/b symmetry is exact.

Series stop when |term| < 1e-16 * |partial sum| and error out after 500
terms.  Complex parameters and z >= 1 are out of scope.
"""

import math

from .errors import DomainError, SolverError

_SERIES_TOL = 1e-16
_MAX_TERMS = 500
_DEGENERATE_WINDOW = 1e-6


def _sinpi(x):
    """sin(pi x) with exact zeros at integers (range-reduced)."""
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def rgamma(x):
    """1/Gamma(x), entire in x; exactly 0.0 at x = 0, -1, -2, ..."""
    if x > 0.5:
        return math.exp(-math.lgamma(x))
    if x == round(x):  # poles of Gamma
        return 0.0
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1 - x) / pi
    return _sinpi(x) * math.exp(math.lgamma(1.0 - x)) / math.pi


def _digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for real non-pole x."""
    if x <= 0.0:
        if x == round(x):
            raise DomainError(f"digamma: pole at x={x}")
        # psi(x) = psi(1 - x) - pi / tan(pi x), tan range-reduced
        r = x - round(x)
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * r)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # asymptotic series, Bernoulli coefficients through x^-12
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (
            1.0 / 132.0 - inv2 * 691.0 / 32760.0)))))
    return acc + math.log(x) - 0.5 / x - tail


def _is_nonpositive_int(x):
    return x == round(x) and x <= 0.0


def _series(a, b, c, z):
    """Direct series sum_k (a)_k (b)_k / ((c)_k k!) z^k."""
    term = 1.0
    total = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if term == 0.0 or abs(term) < _SERIES_TOL * abs(total):
            return total
    raise SolverError(
        f"hyp2f1 series failed tolerance at a={a}, b={b}, c={c}, z={z}")


def _connection_regular(a, b, c, z):
    """z -> 1-z linear transformation, c - a - b away from integers."""
    w = 1.0 - z
    d = c - a - b
    coef1 = math.gamma(c) * math.gamma(d) * rgamma(c - a) * rgamma(c - b)
    coef2 = math.gamma(c) * math.gamma(-d) * rgamma(a) * rgamma(b)
    out = 0.0
    if coef1 != 0.0:
        out += coef1 * _series(a, b, 1.0 - d, w)
    if coef2 != 0.0:
        out += coef2 * w**d * _series(c - a, c - b, 1.0 + d, w)
    return out


def _connection_degenerate(a, b, z, m):
    """Logarithmic limit of the connection formula at c = a + b + m, m >= 0
    (DLMF 15.8.10); the finite sum is empty when m = 0."""
    w = 1.0 - z
    logw = math.log(w)
    gam_c = math.gamma(a + b + m)
    part1 = 0.0
    term = gam_c * rgamma(a + m) * rgamma(b + m)
    for k in range(m):
        part1 += term * math.gamma(m - k)
        term *= (a + k) * (b + k) / (k + 1.0) * -w
    pre2 = gam_c * rgamma(a) * rgamma(b) * (-w) ** m
    term = 1.0 / math.factorial(m)
    total = 0.0
    for n in range(_MAX_TERMS):
        bracket = (logw - _digamma(n + 1.0) - _digamma(n + m + 1.0)
                   + _digamma(a + m + n) + _digamma(b + m + n))
        piece = term * bracket
        total += piece
        if n > 2 and abs(piece) < _SERIES_TOL * abs(total):
            return part1 - pre2 * total
        term *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
    raise SolverError(
        f"hyp2f1 logarithmic branch failed at a={a}, b={b}, z={z}")


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters, z in [0, 1).

    Relative error below 1e-10 on |a|, |b| <= 10 with c bounded away from
    non-positive integers.  Inside the 1e-6 window around an integer
    m = c - a - b the logarithmic limit formula at that integer is
    returned, for m < 0 after Euler's transformation
    F(a, b; c; z) = (1 - z)^(c-a-b) F(c - a, c - b; c; z).
    """
    if not (0.0 <= z < 1.0):
        raise DomainError(f"hyp2f1: z={z} out of range: need 0 <= z < 1")
    if _is_nonpositive_int(c):
        raise DomainError(f"hyp2f1: c={c} is a non-positive integer")
    if b < a:  # exact a <-> b symmetry
        a, b = b, a
    if z <= 0.5 or _is_nonpositive_int(a):
        # a = -m ends the series at its exact zero term k = m, at every z
        return _series(a, b, c, z)
    d = c - a - b
    m = round(d)
    if abs(d - m) >= _DEGENERATE_WINDOW:
        return _connection_regular(a, b, c, z)
    if m < 0:
        return (1.0 - z) ** d * hyp2f1(c - a, c - b, c, z)
    return _connection_degenerate(a, b, z, m)
