"""The longitudinal operator -d^2/dx^2 + v0: bound states, Jost solutions,
scattering coefficients, scattering states, and resolvent boundary values.

Discretization: symmetric three-point stencil on a uniform grid with Dirichlet
ends; eigenvalue errors are O(h^2) and Richardson extrapolation over (h, h/2)
removes the leading term.  All discrete inner products are h * sum over grid
values (ends carry zeros for Dirichlet eigenvectors).

``hamiltonian_tridiagonal`` is the one discretization of the dilated operator
H_par(theta) = -e^(-2 theta) d^2/dx^2 + v0(e^theta x): every tridiagonal,
banded and block-tridiagonal matrix of H_par (theta = 0 or Im theta > 0) is
built from its (d, e), and it alone checks theta against v0's analyticity
sector.  The tridiagonal solves and eigensolves take (d, e) as it is
(``lapack.solve_banded(d, e, b)``, ``lapack.eigh_tridiagonal(d, e, vl, vu)``).

Jost solutions march the smooth envelope by RK4.  The envelope equation is
linear, so the march is a product of 2 x 2 step propagators, formed and
chained as array operations rather than a loop over grid points.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError
from .lapack import eigh_tridiagonal, solve_banded
from .numutil import richardson

__all__ = [
    "Grid1D",
    "BoundState",
    "ScatteringSolution",
    "hamiltonian_tridiagonal",
    "bound_states",
    "solved_bound_states",
    "ground_state",
    "richardson_ground_state",
    "jost_solutions",
    "scattering_states",
    "outgoing_root",
    "outgoing_solve",
]

_TAIL_FRACTION = 1e-8  # pre: |v0| at the grid ends relative to max|v0|


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n points covering [x_min, x_max] inclusive."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (self.x_min < 0.0 < self.x_max):
            raise DomainError("grid must straddle the origin: x_min < 0 < x_max")
        if self.n < 3:
            raise DomainError("grid needs at least 3 points")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def points(self):
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def interior(self):
        return self.points[1:-1]

    def refined(self):
        """Same interval at half the spacing (for Richardson pairs)."""
        return Grid1D(self.x_min, self.x_max, 2 * self.n - 1)


@dataclass(frozen=True, eq=False)
class BoundState:
    """Negative eigenvalue and normalized real eigenvector of the longitudinal
    operator; hashed by identity, so caches can key on a solved state."""

    lam: float
    psi: np.ndarray  # samples on the full grid, zeros at the Dirichlet ends
    grid: Grid1D

    def __post_init__(self):
        if not self.lam < 0:
            raise DomainError("bound-state eigenvalue must be negative")


@dataclass(frozen=True)
class ScatteringSolution:
    """Jost solutions at momentum k with transmission and reflection amplitudes.

    y1(x;k) ~ e^(ikx) as x -> +inf and y2(x;k) ~ e^(-ikx) as x -> -inf; their
    matching in the right tail reads y2 = (1/T) y1(.;-k) + (R/T) y1(.;k).

    T and R are the *physical* (flux-normalized) transmission and reflection
    amplitudes for right incidence, so |T|^2 + |R|^2 = 1.  The matching
    coefficient 1/T is exposed as ``transition``; the Wronskian of (y1, y2)
    equals -2ik/T = -2ik * transition.  dy1/dy2 carry the first derivatives,
    so discrete Wronskians need no finite differencing.
    """

    y1: np.ndarray
    y2: np.ndarray
    dy1: np.ndarray
    dy2: np.ndarray
    T: complex
    R: complex

    @property
    def transition(self):
        """Matching coefficient of y2 against y1(.;-k) (reciprocal transmission)."""
        return 1.0 / self.T

    @property
    def flux_defect(self):
        return abs(abs(self.T) ** 2 + abs(self.R) ** 2 - 1.0)

    def wronskian(self):
        """Pointwise W(y1, y2) = y1 y2' - y1' y2 (constant = -2ik/T for exact solutions)."""
        return self.y1 * self.dy2 - self.dy1 * self.y2


def hamiltonian_tridiagonal(v0, grid, theta=0.0):
    """Interior three-point discretization of H_par(theta): diagonal d and
    off-diagonal e, complex for Im theta > 0.

    Im theta > 0 needs a dilatable v0 and Im theta < v0.theta0; Im theta < 0
    is refused.  Real theta is an exact change of variables and stays real.
    """
    theta = complex(theta)
    if theta.imag < 0:
        raise DomainError("dilation expects Im theta >= 0")
    if theta.imag > 0:
        if not v0.dilatable:
            raise DomainError("v0 is not dilatable; cannot take Im theta > 0")
        if not theta.imag < v0.theta0:
            raise DomainError(
                f"Im theta = {theta.imag} outside [0, theta0 = {v0.theta0})"
            )
    scale = cmath.exp(-2 * theta)
    arg = cmath.exp(theta)
    if theta.imag == 0.0:
        scale, arg = scale.real, arg.real
    h = grid.h
    d = 2.0 * scale / h**2 + np.asarray(v0.evaluate(arg * grid.interior))
    e = np.full(grid.n - 3, -scale / h**2)
    return d, e


def _check_tails(v0, grid, exc=DomainError):
    vals = np.abs(np.asarray(v0.evaluate(grid.points), dtype=float))
    vmax = vals.max()
    if vmax == 0.0:
        return
    if max(vals[0], vals[-1]) >= _TAIL_FRACTION * vmax:
        raise exc(
            "potential not negligible at the grid ends; widen the grid "
            f"(|v0(ends)|/max|v0| = {max(vals[0], vals[-1]) / vmax:.2e})"
        )


def bound_states(v0, grid, check_tails=True):
    """All negative eigenvalues of the discretized operator, sorted ascending.

    Returns an empty list when the discrete spectrum is empty (e.g. v0 = 0).
    ``check_tails=False`` skips the grid-width precondition (used for
    deliberately shifted potentials in diagnostics).
    """
    if check_tails:
        _check_tails(v0, grid)
    d, e = hamiltonian_tridiagonal(v0, grid)
    vmin = float(np.min(np.asarray(v0.evaluate(grid.interior), dtype=float)))
    lo = min(0.0, vmin) - 1.0
    w, v = eigh_tridiagonal(d, e, lo, -1e-12)
    out = []
    h = grid.h
    for i in range(len(w)):
        psi_int = v[:, i]
        psi_int = psi_int / math.sqrt(h * float(np.dot(psi_int, psi_int)))
        if psi_int[int(np.argmax(np.abs(psi_int)))] < 0:
            psi_int = -psi_int
        psi = np.zeros(grid.n)
        psi[1:-1] = psi_int
        out.append(BoundState(lam=float(w[i]), psi=psi, grid=grid))
    return out


@lru_cache(maxsize=8)
def solved_bound_states(v0, grid):
    """``bound_states(v0, grid)`` solved once and shared: a tuple whose psi
    arrays are read-only.

    Every embedded energy 2bq + lambda, on the grids h, h/2, h/4 of a run,
    reads its state here.  Potentials compare their closures by identity, so
    separately built v0 never share an entry, and the cache holds its keys,
    so an id is not reused while its entry lives.  A run uses at most 3 grids.
    """
    states = tuple(bound_states(v0, grid))
    for st in states:
        st.psi.flags.writeable = False
    return states


def ground_state(v0, grid, check_tails=True):
    """The lowest bound state: the one every embedded eigenvalue 2bq + lambda uses.

    Read from ``solved_bound_states``; ``check_tails=False`` solves afresh
    without the grid-width precondition.  Raises DomainError when the discrete
    spectrum is empty.
    """
    states = (solved_bound_states(v0, grid) if check_tails
              else bound_states(v0, grid, check_tails=False))
    if not states:
        raise DomainError("longitudinal operator has no bound state")
    return states[0]


def richardson_ground_state(v0, grid, which=0):
    """Bound-state eigenvalue extrapolated over (h, h/2); O(h^4) accurate.

    Returns (lam_extrapolated, BoundState on the refined grid).
    """
    coarse = solved_bound_states(v0, grid)
    fine = solved_bound_states(v0, grid.refined())
    if which >= len(coarse) or which >= len(fine):
        raise DomainError(f"bound state #{which} not present on both grids")
    lam = richardson(coarse[which].lam, fine[which].lam)
    return float(lam), fine[which]


def _march_envelope(vp, vm, vmid, h, k, sigma, backward):
    """RK4 on the envelope u of y = e^(sigma i k x) u, i.e. p' = v u - 2 sigma i k p.

    vp/vm are potential samples nudged forward/backward off the nodes (so that
    piecewise potentials with jumps at nodes are sampled inside the step), vmid
    at midpoints.  Returns (u, p) arrays over the full grid.

    The equation is linear, so each RK4 step is a 2 x 2 propagator: the stage
    formulas applied to both unit start vectors at once give every step's
    propagator, and a doubling prefix product (log2 n passes over four
    component arrays) chains them from the start node.
    """
    c = -2j * sigma * k
    if backward:  # steps in marching order: node n-1 -> n-2 -> ... -> 0
        dh, v_start, v_mid, v_end = -h, vm[:0:-1], vmid[::-1], vp[-2::-1]
    else:
        dh, v_start, v_mid, v_end = h, vp[:-1], vmid, vm[1:]
    # column 0 starts from (u, p) = (1, 0), column 1 from (0, 1)
    ui = np.array([[1.0], [0.0]])
    pi = np.array([[0.0], [1.0]])
    k1u, k1p = pi, v_start * ui + c * pi
    au, ap = ui + 0.5 * dh * k1u, pi + 0.5 * dh * k1p
    k2u, k2p = ap, v_mid * au + c * ap
    au, ap = ui + 0.5 * dh * k2u, pi + 0.5 * dh * k2p
    k3u, k3p = ap, v_mid * au + c * ap
    au, ap = ui + dh * k3u, pi + dh * k3p
    k4u, k4p = ap, v_end * au + c * ap
    p00, p01 = ui + dh / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
    p10, p11 = pi + dh / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    # inclusive prefix product: step i becomes P_i P_(i-1) ... P_0
    s = 1
    while s < len(p00):
        p00[s:], p01[s:], p10[s:], p11[s:] = (
            p00[s:] * p00[:-s] + p01[s:] * p10[:-s],
            p00[s:] * p01[:-s] + p01[s:] * p11[:-s],
            p10[s:] * p00[:-s] + p11[s:] * p10[:-s],
            p10[s:] * p01[:-s] + p11[s:] * p11[:-s],
        )
        s *= 2
    u = np.concatenate(([1.0 + 0j], p00))
    p = np.concatenate(([0j], p10))
    return (u[::-1], p[::-1]) if backward else (u, p)


def jost_solutions(v0, k, grid):
    """Jost solutions y1, y2 at momentum k > 0 with physical T(k), R(k).

    The oscillation e^(+-ikx) is factored out analytically; RK4 integrates only
    the smooth envelopes, so accuracy is uniform in k.  The matching
    coefficients come from constant Wronskians: W(y1, y2) = -2ik/T and
    W(y1(.;-k), y2) = 2ik R/T, with y1(.;-k) = conj(y1(.;k)) for real
    potentials.
    """
    if not k > 0:
        raise DomainError("momentum k must be positive")
    _check_tails(v0, grid, exc=AccuracyError)  # tail residual spoils the matching
    x = grid.points
    h = grid.h
    nudge = 1e-9 * h
    vp = np.asarray(v0.evaluate(x + nudge), dtype=float)
    vm = np.asarray(v0.evaluate(x - nudge), dtype=float)
    vmid = np.asarray(v0.evaluate(x[:-1] + 0.5 * h), dtype=float)

    u1, p1 = _march_envelope(vp, vm, vmid, h, k, sigma=+1, backward=True)
    u2, p2 = _march_envelope(vp, vm, vmid, h, k, sigma=-1, backward=False)

    phase_p = np.exp(1j * k * x)
    phase_m = np.exp(-1j * k * x)
    y1 = phase_p * u1
    dy1 = phase_p * (1j * k * u1 + p1)
    y2 = phase_m * u2
    dy2 = phase_m * (-1j * k * u2 + p2)

    mid = grid.n // 2
    w12 = y1[mid] * dy2[mid] - dy1[mid] * y2[mid]
    trans = w12 / (-2j * k)  # matching coefficient 1/T
    wcross = np.conj(y1[mid]) * dy2[mid] - np.conj(dy1[mid]) * y2[mid]
    refl = wcross / (2j * k)  # matching coefficient R/T

    if abs(trans) < 1e-12:
        raise AccuracyError(f"degenerate Jost matching at k={k}")
    T = 1.0 / trans
    R = refl * T
    sol = ScatteringSolution(y1=y1, y2=y2, dy1=dy1, dy2=dy2, T=T, R=R)
    if sol.flux_defect > 1e-4:
        raise AccuracyError(
            f"flux conservation violated at k={k}: |T|^2+|R|^2 - 1 = {sol.flux_defect:.2e}"
        )
    return sol


def scattering_states(v0, E, grid):
    """Both scattering states (Psi_1, Psi_2) at energy E from one Jost solve.

    Psi_l(x; E) = y_l(x; sqrt(E)) / (sqrt(4 pi sqrt(E)) * transition) are the
    unit-incidence physical scattering states over sqrt(4 pi k); the boundary
    values of the resolvent satisfy
    Im <x>^-s R(E+i0) <x>^-s = pi * sum_l |Psi_l><Psi_l| sandwiched by the weights.
    """
    if not E > 0:
        raise DomainError("energy E must be positive")
    k = math.sqrt(E)
    sol = jost_solutions(v0, k, grid)
    return tuple(y * sol.T / math.sqrt(4.0 * math.pi * k) for y in (sol.y1, sol.y2))


def outgoing_root(eps, h):
    """The root zeta of zeta + 1/zeta = 2 - h^2 eps with |zeta| <= 1 on the
    E + i0 branch: beyond a grid end, the stencil's solutions at energy eps
    above v0 there go as zeta^|j|.  Open (0 < h^2 eps < 4): zeta = e^(i k_h h)
    with Im zeta > 0.  Closed (eps < 0): zeta in (0, 1).  A threshold
    (zeta = +-1) raises DomainError."""
    a = 0.5 * h * h * eps  # 1 - (zeta + 1/zeta) / 2, kept unrounded
    if a < 0.0:
        return 1.0 / (1.0 - a + math.sqrt(-a * (2.0 - a)))
    if 0.0 < a < 2.0:
        return complex(1.0 - a, math.sqrt(a * (2.0 - a)))
    raise DomainError(f"channel energy {eps!r} at a threshold of the discrete band "
                      f"[0, {4.0 / (h * h)!r}] or above it; move E or refine the grid")


def outgoing_solve(v0, grid, energy, rhs):
    """(H - energy - i0)^(-1) rhs on the interior, with zeta/h^2 of
    ``outgoing_root`` subtracted from each end's diagonal entry: the discrete
    whole-line boundary value, exact when v0 keeps its end values outside the
    grid (Lent & Kirkner, J. Appl. Phys. 67 (1990) 6353; Arnold, VLSI Design 6
    (1998) 313)."""
    d, e = hamiltonian_tridiagonal(v0, grid)
    h = grid.h
    v_ends = np.asarray(v0.evaluate(np.array([grid.x_min, grid.x_max])), dtype=float)
    shifted = d - complex(energy)  # complex: the ends take zeta
    shifted[0] -= outgoing_root(energy - v_ends[0], h) / h**2
    shifted[-1] -= outgoing_root(energy - v_ends[1], h) / h**2
    return solve_banded(shifted, e, rhs)

