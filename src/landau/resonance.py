"""Resonances of the dilated operator: locate the complex eigenvalue near an
embedded energy, continue it in the coupling, and fit the small-coupling
expansion w(kappa) = c0 + c1 kappa + c2 kappa^2 + ... (with c2 = -F, the complex
golden-rule quantity, checked against the independent routes in fgr).

The perturbed eigenvalue is isolated, so w(kappa) is analytic near 0 and the
fit is a polynomial whose degree is the lowest that reproduces the branch to
its own inverse-iteration residual: the fit has no tuning parameter.  The same
analyticity lets the continuation predict each step's shift from the branch
so far, so most steps converge on one factorization; the branch's operator is
assembled once per grid and each step is its copy at that step's kappa
(``AssembledOperator.with_kappa``), which shares its coupling.  The embedded
state is even in x3, so the branch is tracked on the even sector, at half the
band."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, DomainError, SolverError
from .numutil import dot, norm, richardson
from .operators import assemble, embedded_eigenpair

_EPS = np.finfo(float).eps
_TOL = 1e-10
_MAXITER = 40
# fewest branch points fit_expansion accepts: degrees 2 and 3 both fit
MIN_BRANCH_POINTS = 5


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
    c2_uncertainty: float  # |c2(degree) - c2(degree + 1)|: the fit's, not the grid's
    fit_residual: float
    kappa_window: tuple
    degree: int


def find_eigenvalue_near(op, shift, x0):
    """Eigenvalue of the assembled operator nearest the shift.

    Shifted inverse iteration with Rayleigh-quotient refinement; the Rayleigh
    functional is bilinear (u^T M u / u^T u), correct for the complex-symmetric
    matrices produced by dilation.  Returns (w, eigenvector, residual, iterations);
    the residual is ||(M - w) u||_2 with ||u||_2 = 1.  The iteration stops at
    residual ``_TOL`` (or the roundoff floor) or after ``_MAXITER`` steps.
    At most one LU of ``op`` is alive at a time.  The start vector ``x0`` and
    the eigenvector are in the operator's coordinates (``op.restrict``); every long reduction
    is ``numutil``'s, so the bits do not depend on the BLAS thread count.
    """
    x = np.asarray(x0, dtype=complex).copy()
    nx = norm(x)
    if nx == 0:
        raise DomainError("zero start vector")
    x /= nx

    sigma = complex(shift)
    floor = 50.0 * _EPS * op.norm_estimate()
    target = max(_TOL, floor)
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
    for it in range(1, _MAXITER + 1):
        y = solver.solve(x)
        ny = norm(y)
        if not np.isfinite(ny) or ny == 0:
            raise SolverError("inverse iteration produced a non-finite vector")
        x = y / ny
        denom = dot(x, x)
        if abs(denom) < 1e-12:
            raise SolverError("bilinear normalization degenerate (exceptional point?)")
        mx = op.matvec(x)
        mu = dot(x, mx) / denom
        r = norm(mx - mu * x)
        if r < best[2]:
            best = (complex(mu), x, r, it)  # x is rebound, never written in place
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
        solver = y = mx = None  # free this step's LU and vectors before the next LU
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


def _extrapolated(points, kappa):
    """Value at kappa of the polynomial through the branch ``points``."""
    return sum(p.w * math.prod((kappa - o.kappa) / (p.kappa - o.kappa)
                               for o in points if o is not p)
               for p in points)


def continue_in_kappa(problem, basis, theta, q, kappa_grid):
    """Track the resonance branch w(kappa) from the embedded energy at kappa = 0.

    Each step starts from the previous eigenvector at a predicted shift: the
    polynomial through the last (up to 3) branch points at the new kappa, or,
    after the first point, the Rayleigh quotient of its eigenvector under the
    new operator.  A good prediction lets the first inverse-iteration step meet
    the residual target on one factorization; a poor one costs only the
    ordinary Rayleigh refinement.  A step that leaves the isolation radius
    aborts with the partial branch attached to the error.  The branch lives in
    the even sector of the embedded state (``assemble(..., even_sector=True)``).
    """
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    if kappa_grid[0] != 0.0:
        raise DomainError("kappa grid must start at 0")
    if np.any(np.diff(kappa_grid) <= 0):
        raise DomainError("kappa grid must be strictly increasing")
    # assembled at the last kappa, so that it holds the coupling C(theta)
    branch = assemble(problem, basis, theta=theta, kappa=float(kappa_grid[-1]),
                      even_sector=True)
    pair = embedded_eigenpair(problem, basis, q)
    radius = isolation_radius(problem, basis, theta, q, pair.lam)
    results = []
    x0 = branch.restrict(pair.vector).astype(complex)
    w_prev = complex(pair.energy)
    for kappa in kappa_grid:
        kappa = float(kappa)
        op = branch.with_kappa(kappa)
        if not results:
            shift = w_prev
        elif len(results) == 1:
            shift = dot(x0, op.matvec(x0)) / dot(x0, x0)
        else:
            shift = _extrapolated(results[-3:], kappa)
        w, x0, res, its = find_eigenvalue_near(op, shift, x0=x0)
        if abs(w - w_prev) > radius:
            raise ContinuationError(
                f"branch jump at kappa={kappa}: |dw| = {abs(w - w_prev):.3e} "
                f"exceeds isolation radius {radius:.3e}",
                partial=results,
            )
        results.append(
            ResonanceResult(kappa=kappa, w=w, residual=res, iterations=its,
                            theta_used=complex(theta))
        )
        w_prev = w
    return results


def richardson_branch(problem, basis, theta, q, kappa_grid):
    """The branch on the (h, h/2) grid pair, Richardson-combined pointwise."""
    coarse = continue_in_kappa(problem, basis, theta, q, kappa_grid)
    fine = continue_in_kappa(problem, basis.refined(), theta, q, kappa_grid)
    return [
        ResonanceResult(c.kappa, complex(richardson(c.w, f.w)),
                        max(c.residual, f.residual), c.iterations + f.iterations,
                        c.theta_used)
        for c, f in zip(coarse, fine)
    ]


def _lsq_poly(kappas, ws, degree):
    A = np.vander(kappas, degree + 1, increasing=True).astype(complex)
    coef, *_ = np.linalg.lstsq(A, ws, rcond=None)
    resid = float(np.max(np.abs(A @ coef - ws)))
    return coef, resid


def fit_expansion(branch):
    """Least-squares polynomial expansion of a branch in kappa, over all its points.

    The floor is the largest inverse-iteration residual on the branch.  The
    degree d = 2, 3, ..., n - 2 (n points) is the first whose max |fit - w|
    reaches the floor, or n - 2 when none does.  ``c2_uncertainty`` is
    |c2(d) - c2(d + 1)|.
    """
    if len(branch) < MIN_BRANCH_POINTS:
        raise DomainError(f"a fit needs at least {MIN_BRANCH_POINTS} branch points")
    pts = sorted(branch, key=lambda r: r.kappa)
    kappas = np.array([p.kappa for p in pts])
    ws = np.array([p.w for p in pts])
    floor = max(p.residual for p in pts)

    for degree in range(2, len(pts) - 1):
        coef, resid = _lsq_poly(kappas, ws, degree)
        if resid <= floor:
            break
    above, _ = _lsq_poly(kappas, ws, degree + 1)
    return AsymptoticFit(
        c0=complex(coef[0]),
        c1=complex(coef[1]),
        c2=complex(coef[2]),
        c2_uncertainty=float(abs(coef[2] - above[2])),
        fit_residual=resid,
        kappa_window=(float(kappas[0]), float(kappas[-1])),
        degree=degree,
    )


@dataclass(frozen=True)
class ThetaIndependenceResult:
    spread: float
    values: dict  # Im theta -> extrapolated w


def theta_independence(problem, basis, q, kappa, thetas):
    """Max pairwise |w| difference across dilation angles.

    Each w is tracked from kappa = 0 in two steps and Richardson-extrapolated
    over (h, h/2), which removes the theta-dependent O(h^2) discretization bias
    and certifies genuine theta-independence.
    """
    kappas = [0.0] if kappa == 0 else [0.0, 0.5 * kappa, kappa]
    values = {
        complex(theta): richardson_branch(problem, basis, theta, q, kappas)[-1].w
        for theta in thetas
    }
    vals = list(values.values())
    spread = max(
        (abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]), default=0.0
    )
    return ThetaIndependenceResult(spread=float(spread), values=values)
