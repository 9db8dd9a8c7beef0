"""Landau radial eigenfunctions and Gauss-Laguerre radial quadrature.

Conventions. The transverse (Landau) eigenfunctions live in L^2(R_+; rho drho):

    phi_{q,m}(rho) = sqrt(2 q!/(q+m)! (b/2)^(m+1)) rho^m L_q^(m)(b rho^2/2) e^(-b rho^2/4),

for m >= 0, with H_perp^(m) phi_{q,m} = 2 b q phi_{q,m} and
int_0^inf phi_{q,m} phi_{q',m} rho drho = delta_{qq'}.  For m < 0 the same
eigenspace is spanned by phi_{q+m,-m}, and we *define* phi_{q,m} := phi_{q+m,-m},
which fixes the sign so that phi_{q,m}(rho) > 0 as rho -> 0+.

``gammaln`` (integer arguments) and ``roots_laguerre`` are step-for-step ports
of cephes ``lgam`` and ``scipy.special.roots_laguerre``, bitwise equal to them,
so the package imports no ``scipy.special``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lapack import eigvals_banded

# Gauss-Laguerre total weights carry a factor e^{s_i}; beyond ~170 nodes the
# raw Christoffel weights underflow double precision.
_MAX_GL_NODES = 170


# cephes lgam: the coefficients of its Stirling correction for 13 <= x < 1000,
# ln sqrt(2 pi), and the argument beyond which ln Gamma overflows
_LGAM_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_LN_SQRT_2PI = 0.91893853320467274178
_LGAM_MAX = 2.556348e305


def gammaln(k):
    """ln Gamma(k) = ln (k-1)! for an integer k >= 1, as cephes ``lgam`` computes it.

    Below 13 the factorial is an exact product and one log; from 13 on, Stirling's
    series with cephes' correction polynomial, in its operation order.
    """
    x = float(k)
    if not (x >= 1.0 and x.is_integer()):
        raise DomainError(f"gammaln takes integers >= 1, got {k!r}")
    if x < 13.0:
        z = 1.0
        u = x
        while u >= 3.0:
            u -= 1.0
            z *= u
        return math.log(z)
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    c = _LGAM_STIRLING[0]
    for a in _LGAM_STIRLING[1:]:
        c = c * p + a
    return q + c / x


def _laguerre_l(n, s):
    """(L_(n-1)(s), L_n(s)) for n >= 1 by scipy's ``eval_genlaguerre``
    recurrence at alpha = 0, whose p after k steps is L_(k+1)."""
    neg = d = -s
    prev, p = 1.0, d + 1
    for k in range(1, n):
        d = neg / (k + 1.0) * p + (k / (k + 1.0)) * d
        prev, p = p, d + p
    return prev, p


def roots_laguerre(n):
    """Gauss-Laguerre nodes and weights for int_0^inf f(s) e^(-s) ds, as
    ``scipy.special.roots_laguerre(n)`` computes them: Golub-Welsch eigenvalues
    of the Jacobi band, one Newton step on L_n, and weights 1/(L_(n-1) L_n')
    log-normalized before the product and scaled to sum to 1.
    """
    if n == 1:
        return np.array([1.0]), np.array([1.0])
    k = np.arange(n, dtype=float)
    band = np.zeros((2, n))
    band[0, 1:] = -np.sqrt(k[1:] * k[1:])
    band[1] = 2 * k + 1
    s = eigvals_banded(band, overwrite_a_band=True)
    lm, ln = _laguerre_l(n, s)
    dln = (n * ln - n * lm) / s
    s -= ln / dln
    fm = _laguerre_l(n - 1, s)[1]
    log_fm = np.log(np.abs(fm))
    log_dln = np.log(np.abs(dln))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dln /= np.exp((log_dln.max() + log_dln.min()) / 2.0)
    w = 1.0 / (fm * dln)
    w *= 1.0 / w.sum()
    return s, w


def m_minus(m):
    """Lower admissible Landau index for angular momentum m."""
    return max(0, -m)


@dataclass(frozen=True)
class RadialMode:
    """Landau quantum numbers (q, m) at field strength b > 0 (units hbar=1, 2m*=1)."""

    b: float
    q: int
    m: int

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError(f"field strength must be positive, got b={self.b}")
        if self.q < m_minus(self.m):
            raise DomainError(
                f"Landau index q={self.q} below m_- = {m_minus(self.m)} for m={self.m}"
            )


def _phi_nonneg_m(b, q, m, rho):
    """phi_{q,m}(rho) for m >= 0 via an orthonormal-recurrence evaluation.

    The ground profile sqrt(2 (b/2)^(m+1)/m!) rho^m e^(-b rho^2/4) is assembled in
    log space, so large m stays finite; the degree recurrence runs on functions
    normalized to O(1) values.
    """
    rho = np.asarray(rho, dtype=float)
    s = 0.5 * b * rho**2
    log_g = (
        0.5 * math.log(2.0)
        + 0.5 * (m + 1) * math.log(0.5 * b)
        - 0.5 * s
        - 0.5 * gammaln(m + 1)
    )
    if m > 0:
        with np.errstate(divide="ignore"):
            # rho = 0 contributes log 0 = -inf, i.e. g = 0: correct for m > 0
            log_g = log_g + m * np.log(rho)
    g = np.exp(log_g)
    # f_n = sqrt(n! m!/(n+m)!) L_n^(m)(s), seeded with f_0 = 1
    fk = np.ones_like(s)
    fkp = (1.0 + m - s) / math.sqrt(1.0 + m)
    if q == 0:
        return g * fk
    for n in range(1, q):
        fk, fkp = (
            fkp,
            ((2 * n + m + 1 - s) * fkp - math.sqrt(n * (n + m)) * fk)
            / math.sqrt((n + 1.0) * (n + 1.0 + m)),
        )
    return g * fkp


def radial_eigenfunction(mode, rho):
    """Normalized radial eigenfunction phi_{q,m}(rho) of the fibered Landau operator.

    Normalization: int_0^inf phi^2 rho drho = 1.  Sign: phi > 0 as rho -> 0+.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("radial coordinate must be nonnegative")
    if mode.m < 0:
        val = _phi_nonneg_m(mode.b, mode.q + mode.m, -mode.m, rho)
    else:
        val = _phi_nonneg_m(mode.b, mode.q, mode.m, rho)
    return val if val.ndim else val[()]


@dataclass(frozen=True)
class RadialQuadrature:
    """Nodes/weights for int_0^inf f(rho) rho drho."""

    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be positive")
        d = np.diff(self.nodes)
        if np.any(self.nodes <= 0) or np.any(d <= 0):
            raise DomainError("quadrature nodes must be positive and increasing")


def gauss_laguerre_rule(b, n_nodes):
    """Gauss-Laguerre rule in s = b rho^2/2 mapped to the rho half-line: exact
    on s^k e^(-s) for k <= 2 n_nodes - 1, i.e. on Landau-type integrands.

    Node counts above ~170 are rejected: the tail Christoffel weights underflow
    and the positivity invariant would silently break.  Large-m Toeplitz tails
    use the windowed integrator in toeplitz_ssf instead.
    """
    if not b > 0:
        raise DomainError("field strength must be positive")
    if n_nodes < 1 or n_nodes > _MAX_GL_NODES:
        raise DomainError(
            f"node count {n_nodes} outside [1, {_MAX_GL_NODES}]"
        )
    s, w = roots_laguerre(n_nodes)
    rho = np.sqrt(2.0 * s / b)
    weights = w * np.exp(s) / b
    return RadialQuadrature(b=b, nodes=rho, weights=weights)


def default_rule(b, q_max, m_max, deg_w=0):
    """Rule sized for products phi_{q,m} phi_{q',m} W with polynomial proxy degree deg_w."""
    n = 2 * (q_max + abs(m_max)) + deg_w + 8
    return gauss_laguerre_rule(b, min(n, _MAX_GL_NODES))


def radial_overlap(mode_a, mode_b, w, rule):
    """Quadrature evaluation of int_0^inf phi_a(rho) phi_b(rho) W(rho) rho drho.

    ``w`` is either a callable of rho or an array of samples at the rule nodes.
    """
    if mode_a.b != mode_b.b:
        raise DomainError(f"field strengths differ: {mode_a.b} vs {mode_b.b}")
    if mode_a.m != mode_b.m:
        raise DomainError(f"angular momenta differ: {mode_a.m} vs {mode_b.m}")
    if callable(w):
        wv = np.asarray(w(rule.nodes))
    else:
        wv = np.asarray(w)
        if wv.shape != rule.nodes.shape:
            raise DomainError("weight samples must align with the quadrature nodes")
    fa = radial_eigenfunction(mode_a, rule.nodes)
    fb = radial_eigenfunction(mode_b, rule.nodes)
    return float(np.dot(rule.weights, fa * fb * wv))
