"""Resonances of the dilated operator: locate the complex eigenvalue near an
embedded energy, continue it in the coupling, and fit the small-coupling
expansion w(kappa) ~ c0 + c1 kappa + c2 kappa^2 (with c2 = -F, the golden-rule
quantity, checked against the independent quadrature routes in fgr)."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, DomainError, SolverError
from .numutil import richardson_h2
from .operators import assemble, embedded_eigenpair

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ResonanceResult:
    """One tracked eigenvalue of the dilated operator with its residual certificate."""

    kappa: float
    w: complex
    residual: float
    iterations: int
    theta_used: complex


@dataclass(frozen=True)
class AsymptoticFit:
    """Fitted expansion coefficients of a resonance branch."""

    c0: complex
    c1: complex
    c2: complex
    fit_residual: float
    kappa_window: tuple
    degree: int


def find_eigenvalue_near(op, shift, tol=1e-10, maxiter=40, x0=None):
    """Eigenvalue of the assembled operator nearest the shift.

    Shifted inverse iteration with Rayleigh-quotient refinement; the Rayleigh
    functional is bilinear (u^T M u / u^T u), correct for the complex-symmetric
    matrices produced by dilation.  Returns (w, eigenvector, residual, iterations);
    the residual is ||(M - w) u||_2 with ||u||_2 = 1.
    """
    if x0 is None:
        x = np.ones(op.dim, dtype=complex)
    else:
        x = np.asarray(x0, dtype=complex).copy()
    nx = np.linalg.norm(x)
    if nx == 0:
        raise DomainError("zero start vector")
    x /= nx

    sigma = complex(shift)
    floor = 50.0 * _EPS * op.norm_estimate()
    target = max(tol, floor)
    best = (None, None, math.inf, 0)
    for attempt in range(3):
        try:
            solver = op.factorized(sigma)
            break
        except SolverError:
            # shift hit an eigenvalue: nudge and retry
            sigma = sigma * (1.0 + 1e-9) + 1e-9 * (1 + 1j)
    else:
        raise SolverError(f"factorization failed near shift {shift}")

    prev_res = math.inf
    stagnant = 0
    for it in range(1, maxiter + 1):
        y = solver.solve(x)
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0:
            raise SolverError("inverse iteration produced a non-finite vector")
        x = y / ny
        denom = x @ x
        if abs(denom) < 1e-12:
            raise SolverError("bilinear normalization degenerate (exceptional point?)")
        mu = (x @ op.matvec(x)) / denom
        r = float(np.linalg.norm(op.matvec(x) - mu * x))
        if r < best[2]:
            best = (complex(mu), x.copy(), r, it)
        if r <= target:
            return complex(mu), x, r, it
        if r > 0.5 * prev_res:
            stagnant += 1
            if stagnant >= 2 and best[2] <= 10 * target:
                w, xb, rb, itb = best
                return w, xb, rb, itb
            if stagnant >= 4:
                break
        else:
            stagnant = 0
        prev_res = r
        sigma = mu
        try:
            solver = op.factorized(sigma)
        except SolverError:
            sigma = sigma * (1.0 + 1e-9) + 1e-9 * (1 + 1j)
            solver = op.factorized(sigma)
    if best[2] <= 10 * target:
        w, xb, rb, itb = best
        return w, xb, rb, itb
    raise SolverError(
        f"inverse iteration stalled at residual {best[2]:.2e} (target {target:.2e})"
    )


def isolation_radius(problem, basis, theta, q, lam):
    """Half the distance from 2bq + lambda to the rest of the dilated spectrum.

    The other discrete eigenvalues sit at 2bj + lambda; each threshold 2bj
    launches a continuum ray 2bj + e^(-2 theta) R_+.  Estimated analytically.
    """
    e0 = 2.0 * problem.b * q + lam
    u = cmath.exp(-2 * theta)
    u /= abs(u)
    dists = []
    for j in basis.landau_indices(problem.m):
        if j != q:
            dists.append(abs(2.0 * problem.b * j + lam - e0))
        p = e0 - 2.0 * problem.b * j
        t = max(0.0, (p * u.conjugate()).real)
        dists.append(abs(p - t * u))
    return 0.5 * min(dists)


def continue_in_kappa(problem, basis, theta, q, kappa_grid, tol=1e-10, which=0):
    """Track the resonance branch w(kappa) from the embedded energy at kappa = 0.

    Each converged eigenvalue seeds the next shift; a step that leaves the
    isolation radius aborts with the partial branch attached to the error.
    """
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    if kappa_grid[0] != 0.0:
        raise DomainError("kappa grid must start at 0")
    if np.any(np.diff(kappa_grid) <= 0):
        raise DomainError("kappa grid must be strictly increasing")
    pair = embedded_eigenpair(problem, basis, q, which=which)
    radius = isolation_radius(problem, basis, theta, q, pair.lam)
    results = []
    shift = complex(pair.energy)
    x0 = pair.vector.astype(complex)
    w_prev = shift
    for kappa in kappa_grid:
        op = assemble(problem, basis, theta=theta, kappa=float(kappa))
        w, x0, res, its = find_eigenvalue_near(op, shift, tol=tol, x0=x0)
        if abs(w - w_prev) > radius:
            raise ContinuationError(
                f"branch jump at kappa={kappa}: |dw| = {abs(w - w_prev):.3e} "
                f"exceeds isolation radius {radius:.3e}",
                partial=results,
            )
        results.append(
            ResonanceResult(kappa=float(kappa), w=w, residual=res, iterations=its,
                            theta_used=complex(theta))
        )
        w_prev = w
        shift = w
    return results


def richardson_branch(problem, basis, theta, q, kappa_grid):
    """The branch on the (h, h/2) grid pair, Richardson-combined pointwise."""
    coarse = continue_in_kappa(problem, basis, theta, q, kappa_grid)
    fine = continue_in_kappa(problem, basis.refined(), theta, q, kappa_grid)
    return [
        ResonanceResult(c.kappa, (4.0 * f.w - c.w) / 3.0, max(c.residual, f.residual),
                        c.iterations + f.iterations, c.theta_used)
        for c, f in zip(coarse, fine)
    ]


def _lsq_poly(kappas, ws, degree):
    A = np.vander(kappas, degree + 1, increasing=True).astype(complex)
    coef, *_ = np.linalg.lstsq(A, ws, rcond=None)
    resid = float(np.max(np.abs(A @ coef - ws)))
    return coef, resid


def fit_expansion(branch, cubic_fraction=0.1):
    """Least-squares expansion of a branch in kappa.

    The window shrinks until the estimated cubic contribution at kappa_max is
    below ``cubic_fraction`` of the quadratic one (the expansion has an O(kappa^3)
    remainder with an unknown constant).  When enough points remain, a cubic
    model is fitted as well; if its quadratic coefficient differs visibly, the
    cubic model's low-order coefficients are reported (removes the O(kappa^3)
    projection bias onto c2).
    """
    if len(branch) < 5:
        raise DomainError("need at least 5 branch points to fit the expansion")
    pts = sorted(branch, key=lambda r: r.kappa)
    kappas = np.array([p.kappa for p in pts])
    ws = np.array([p.w for p in pts])

    n = len(kappas)
    while True:
        kk, ww = kappas[:n], ws[:n]
        coef2, resid2 = _lsq_poly(kk, ww, 2)
        coef3 = None
        if n >= 7:
            coef3, resid3 = _lsq_poly(kk, ww, 3)
            kmax = kk[-1]
            cubic_part = abs(coef3[3]) * kmax**3
            quad_part = abs(coef3[2]) * kmax**2
            if cubic_part > cubic_fraction * quad_part and n > 7:
                n -= 1
                continue
        break

    degree = 2
    coef = coef2
    resid = resid2
    if coef3 is not None and abs(coef3[2] - coef2[2]) > 0.02 * abs(coef2[2]):
        coef, resid, degree = coef3, resid3, 3
    return AsymptoticFit(
        c0=complex(coef[0]),
        c1=complex(coef[1]),
        c2=complex(coef[2]),
        fit_residual=resid,
        kappa_window=(float(kappas[0]), float(kappas[n - 1])),
        degree=degree,
    )


@dataclass(frozen=True)
class ThetaIndependenceResult:
    spread: float
    values: dict  # Im theta -> extrapolated w


def theta_independence(problem, basis, q, kappa, thetas, refine=True, tol=1e-10):
    """Max pairwise |w| difference across dilation angles.

    Each w is tracked from kappa = 0 in two steps; with ``refine`` the value is
    Richardson-extrapolated over (h, h/2), which removes the theta-dependent
    O(h^2) discretization bias and certifies genuine theta-independence.
    """
    grids = [basis] + ([basis.refined()] if refine else [])
    kappas = [0.0] if kappa == 0 else [0.0, 0.5 * kappa, kappa]
    values = {}
    for theta in thetas:
        ws = []
        for bas in grids:
            branch = continue_in_kappa(problem, bas, theta, q, kappas, tol=tol)
            ws.append(branch[-1].w)
        values[complex(theta)] = richardson_h2(ws[0], ws[1]) if refine else ws[0]
    vals = list(values.values())
    spread = max(
        (abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]), default=0.0
    )
    return ThetaIndependenceResult(spread=float(spread), values=values)
