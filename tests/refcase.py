"""Shared reference configuration and cached expensive computations.

The reference setup (b = 1, v0 = -2 sech^2, V = e^(-rho^2) e^(-x3^2), m = 0,
q = 1, Im theta = 0.3) exercises every pipeline; several suites need the same
branches and golden-rule values, so they are computed once per session.
``eigh_series`` is the exact-truncation oracle for the autocorrelation (from
the energy window only, with ``dense_eigh_series`` as its oracle),
``even_sector_basis`` the orthonormal columns S of the even sector,
``radial_quad`` the adaptive-quadrature oracle for the radial rule, and
``neville_to_zero`` the polynomial extrapolation behind the long-box
delta -> 0 oracle of the resolvent route.
"""

import math
from functools import lru_cache

import numpy as np

from landau.dynamics import smooth_cutoff
from landau.fgr import fgr_value
from landau.errors import SolverError
from landau.operators import (BasisTruncation, LandauProblem, assemble, embedded_eigenpair,
                              symmetric_band_lower)
from landau.potentials import gaussian_product, sech2
from landau.resonance import continue_in_kappa, fit_expansion
from landau.resonance import richardson_branch as _branch
from landau.schrodinger1d import Grid1D

_EPS = np.finfo(float).eps
# eigh_series: eigenvalues closer than this fraction of the operator norm send
# it to the dense eigh; inverse iteration steps per window eigenvector
_LEVEL_GAP = 1e-8
_INVERSE_STEPS = 3


def problem():
    return LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)


def basis(n=1201, J=7, L=18.0):
    return BasisTruncation(J=J, grid=Grid1D(-L, L, n))


@lru_cache(maxsize=None)
def branch_pair(theta_im=0.3, q=1, kmax=0.08, npts=9):
    """(coarse, fine) resonance branches on (h, h/2) grids."""
    prob = problem()
    bas = basis()
    grid_k = np.linspace(0.0, kmax, npts)
    coarse = continue_in_kappa(prob, bas, 1j * theta_im, q, grid_k)
    fine = continue_in_kappa(prob, bas.refined(), 1j * theta_im, q, grid_k)
    return coarse, fine


@lru_cache(maxsize=None)
def richardson_branch(theta_im=0.3, q=1, kmax=0.08, npts=9):
    """The Richardson-combined branch from ``resonance.richardson_branch``."""
    return tuple(_branch(problem(), basis(), 1j * theta_im, q,
                         np.linspace(0.0, kmax, npts)))


@lru_cache(maxsize=None)
def reference_fit():
    return fit_expansion(richardson_branch())


@lru_cache(maxsize=None)
def reference_fgr(q=1):
    return fgr_value(problem(), basis(), q)


def eigh_series(problem, basis, q, kappa, times, delta):
    """Oracle for the autocorrelation: the exact spectral sum of
    ⟨e^(-iHt) g(H) Phi, Phi⟩ on the self-adjoint (theta = 0) truncation, over
    the eigenpairs in the window (E0 - delta, E0 + delta) of g only.

    The window's eigenvalues come from ``eigvals_banded`` on the symmetric band,
    each vector from ``_INVERSE_STEPS`` steps of inverse iteration on
    ``op.factorized`` at its eigenvalue, which the vector's Rayleigh quotient
    then refines.  When two eigenvalues within ``_LEVEL_GAP`` of the window lie
    closer than ``_LEVEL_GAP`` (both relative to the operator norm), inverse
    iteration could not separate them, and the series is
    ``dense_eigh_series``.  Returns (values, center, horizon): the truncated
    spectrum is discrete, so the series is quasi-periodic and faithful only up
    to the recurrence horizon pi / (median level spacing in the window).
    """
    from scipy.linalg import eigvals_banded

    op = assemble(problem, basis, theta=0.0, kappa=kappa)
    pair = embedded_eigenpair(problem, basis, q)
    lo, hi = pair.energy - delta, pair.energy + delta
    gap = _LEVEL_GAP * op.norm_estimate()
    near = eigvals_banded(symmetric_band_lower(op.D, op.hpar_off), lower=True,
                          select="v", select_range=(lo - gap, hi + gap))
    if np.any(np.diff(near) < gap):
        return dense_eigh_series(problem, basis, q, kappa, times, delta)
    energies = near[(near > lo) & (near < hi)]
    start = np.random.default_rng(0).standard_normal(op.dim)
    vecs = np.empty((op.dim, len(energies)))
    for k, lam in enumerate(energies):
        try:
            solver = op.factorized(lam)
        except SolverError:  # lam is an eigenvalue to the last bit
            solver = op.factorized(lam + _EPS * op.norm_estimate())
        x = start
        for _ in range(_INVERSE_STEPS):
            x = solver.solve(x)
            x /= np.linalg.norm(x)
        vecs[:, k] = x.real  # real operator, shift and start: x is real
        # the Rayleigh quotient: eigvals_banded's own values were off by 8e-11
        # (85 eps |M|) at n = 1201, J = 5, an error the phases multiply by t
        energies[k] = vecs[:, k] @ op.matvec(vecs[:, k])
    return _spectral_series(energies, vecs, pair, basis.grid.h, times, delta)


def dense_eigh_series(problem, basis, q, kappa, times, delta):
    """``eigh_series`` from a dense eigh of the whole truncation: the oracle of
    the window-only series, and its fallback for near-degenerate levels."""
    op = assemble(problem, basis, theta=0.0, kappa=kappa)
    energies, vecs = np.linalg.eigh(op.dense())
    pair = embedded_eigenpair(problem, basis, q)
    return _spectral_series(energies, vecs, pair, basis.grid.h, times, delta)


def _spectral_series(energies, vecs, pair, h, times, delta):
    """sum_k g(E_k) w_k e^(-i E_k t) over the weights w_k = h (v_k . Phi)^2 of
    unit eigenvectors v_k, keeping the levels whose g w_k exceeds roundoff,
    eps h |Phi|^2."""
    weights = h * (vecs.T @ pair.vector) ** 2
    g = smooth_cutoff(energies, pair.energy, delta)
    sel = g * weights > _EPS * h * (pair.vector @ pair.vector)
    en, wg = energies[sel], (weights * g)[sel]
    spacing = np.median(np.diff(np.sort(en))) if en.size > 1 else math.inf
    horizon = math.pi / spacing if np.isfinite(spacing) else math.inf
    phases = np.exp(-1j * np.outer(times, en))
    values = phases @ wg
    return values, pair.energy, horizon


def even_sector_basis(J, n):
    """The orthonormal columns S (J n, J n_sector) of the even sector of J modes
    on n interior nodes, built node by node: e_c and (e_(c+i) + e_(c-i)) /
    sqrt(2) about the centre node c for odd n, (e_(c+i) + e_(c-1-i)) / sqrt(2)
    for even n, with c = n // 2."""
    c = n // 2
    pairs = [(c, c)] if n % 2 else []
    pairs += [(c + i, c - i) for i in range(1, n - c)] if n % 2 else [
        (c + i, c - 1 - i) for i in range(n - c)]
    S = np.zeros((J, n, J, len(pairs)))
    for k, (right, left) in enumerate(pairs):
        weight = 1.0 if right == left else math.sqrt(0.5)
        for a in range(J):
            S[a, right, a, k] = S[a, left, a, k] = weight
    return S.reshape(J * n, J * len(pairs))


def radial_quad(f, b, degree, breaks=()):
    """(int f rho drho, int |f| rho drho) by ``scipy.integrate.quad`` on
    [0, inf) split at ``breaks`` and at the turning point s = b rho^2/2 =
    4 degree + 2 of a Landau factor of degree ``degree`` (past it f has no
    sign change left), the first to 1e-13 and the second, a scale, to 1e-3:
    the independent oracle of the radial rule."""
    from scipy.integrate import quad

    rho_t = math.sqrt(2.0 * (4 * degree + 2) / b)
    edges = [0.0] + sorted(r for r in breaks if r < rho_t) + [rho_t, math.inf]
    total = mass = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += quad(lambda r: f(r) * r, lo, hi, epsabs=0.0, epsrel=1e-13,
                      limit=200)[0]
        mass += quad(lambda r: abs(f(r)) * r, lo, hi, epsrel=1e-3, limit=200)[0]
    return total, mass


def neville_to_zero(xs, ys):
    """Polynomial extrapolation of samples (xs, ys) to x = 0 (Neville tableau).

    Returns (value, residual) where residual is the magnitude of the last
    tableau correction, a standard error surrogate for the extrapolated limit.
    """
    xs = np.asarray(xs, dtype=float)
    t = np.asarray(ys, dtype=complex).copy()
    n = len(xs)
    if n != len(t) or n < 2:
        raise ValueError("need at least two samples with matching abscissae")
    prev_top = t[0]
    for j in range(1, n):
        for i in range(n - j):
            t[i] = (xs[i + j] * t[i] - xs[i] * t[i + 1]) / (xs[i + j] - xs[i])
        prev_top, last = t[0], abs(t[0] - prev_top)
    return t[0], last
