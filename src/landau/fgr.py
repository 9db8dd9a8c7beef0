"""First-order eigenvalue shifts and the golden-rule quantity F_{q,m} by two
independent routes, plus the overlap-polynomial machinery behind the density
of admissible perturbations.

Route one (open channels): Im F = pi * sum over scattering channels of squared
coupling integrals against the channel scattering states.  Route two
(resolvent): F = <(H^(m) - E0 - i delta)^(-1) (I - P) V Phi, V Phi> extrapolated
delta -> 0 on a long grid; the unperturbed operator is block-diagonal over the
radial modes, so this costs J tridiagonal solves per delta.  Their agreement is
the module's self-check and is reported, never silently resolved.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import AccuracyError, DomainError
from .numutil import neville_to_zero, richardson_h2
from .operators import BasisTruncation
from .schrodinger1d import Grid1D, bound_states, hamiltonian_tridiagonal, scattering_state
from .specfun import RadialMode, gauss_laguerre_rule, m_minus, radial_eigenfunction

__all__ = [
    "FgrResult",
    "first_order_shift",
    "channel_amplitudes",
    "fgr_channel",
    "fgr_value",
    "im_from_amplitudes",
    "omega_profile",
    "overlap_polynomial_check",
    "OverlapPolynomialResult",
    "fgr_positivity_scan",
]

_DEFAULT_RESOLVENT_GRID = Grid1D(-4000.0, 4000.0, 160001)
_DEFAULT_DELTAS = 0.1 * 0.5 ** np.arange(5)


def _radial_factor(problem, basis, qa, qb, x, arg=1.0):
    """C_ab(x) = int phi_a phi_b V(rho, arg*x) rho drho at longitudinal samples x."""
    rule = basis.rule(problem.b, problem.m)
    fa = radial_eigenfunction(RadialMode(problem.b, int(qa), problem.m), rule.nodes)
    fb = radial_eigenfunction(RadialMode(problem.b, int(qb), problem.m), rule.nodes)
    vv = problem.V.evaluate(rule.nodes[:, None], arg * np.asarray(x)[None, :])
    return np.einsum("k,k,k,kx->x", rule.weights, fa, fb, vv)


def _bound_state(v0, grid, which):
    states = bound_states(v0, grid)
    if len(states) <= which:
        raise DomainError(
            f"longitudinal operator has no bound state with index {which}")
    return states[which]


def _first_order_on_grid(problem, basis, q, which):
    st = _bound_state(problem.v0, basis.grid, which)
    x = basis.grid.interior
    cqq = _radial_factor(problem, basis, q, q, x)
    psi2 = st.psi[1:-1] ** 2
    return basis.grid.h * float(np.dot(cqq, psi2))


def first_order_shift(problem, basis, q, refine=1, which=0):
    """<V Phi_{q,m}, Phi_{q,m}> in L^2(R_+ x R; rho drho dx3).

    ``refine`` Richardson-extrapolates over (h, h/2) grid pairs to remove the
    O(h^2) bias of the discretized bound state.
    """
    if q < m_minus(problem.m):
        raise DomainError(f"q={q} below m_- for m={problem.m}")
    val = _first_order_on_grid(problem, basis, q, which)
    for _ in range(refine):
        fine = _first_order_on_grid(problem, basis.refined(), q, which)
        val, basis = richardson_h2(val, fine), basis.refined()
    return float(val)


def _channel_amplitude(problem, basis, q, j, l, st):
    """int phi_j phi_q psi(x) Psi_l(x; 2b(q-j)+lambda) V(rho, x) dx rho drho."""
    energy = 2.0 * problem.b * (q - j) + st.lam
    psi_l = scattering_state(problem.v0, energy, l, basis.grid)
    x = basis.grid.interior
    cjq = _radial_factor(problem, basis, j, q, x)
    integrand = cjq * st.psi[1:-1] * psi_l[1:-1]
    return basis.grid.h * complex(np.sum(integrand))


def fgr_channel(problem, basis, q, j, l, refine=1, which=0):
    """Single open-channel coupling amplitude (l = 1 or 2, m_- <= j < q)."""
    if not (m_minus(problem.m) <= j < q):
        raise DomainError(f"channel index j={j} outside [m_-, q) for q={q}")
    if l not in (1, 2):
        raise DomainError("branch index l must be 1 or 2")
    bas = basis
    st = _bound_state(problem.v0, bas.grid, which)
    val = _channel_amplitude(problem, bas, q, j, l, st)
    for _ in range(refine):
        bas = bas.refined()
        st = _bound_state(problem.v0, bas.grid, which)
        val = richardson_h2(val, _channel_amplitude(problem, bas, q, j, l, st))
    return complex(val)


def channel_amplitudes(problem, basis, q, refine=1, which=0):
    """Every open-channel amplitude {(l, j): a} for m_- <= j < q and l = 1, 2."""
    if q < m_minus(problem.m):
        raise DomainError(f"q={q} below m_- for m={problem.m}")
    return {(l, j): fgr_channel(problem, basis, q, j, l, refine=refine, which=which)
            for j in range(m_minus(problem.m), q) for l in (1, 2)}


def im_from_amplitudes(amps):
    """Channel-route Im F = pi * sum |a|^2 over the amplitudes of ``amps``."""
    return math.pi * sum(abs(a) ** 2 for a in amps.values())


@dataclass(frozen=True)
class FgrResult:
    """Golden-rule data at the embedded energy 2bq + lambda.

    F is the resolvent-route value; channel_amplitudes the per-(l, j) coupling
    integrals whose squared moduli rebuild Im F independently.  When the two
    imaginary parts disagree beyond ``tolerance`` the result is flagged
    (returned, not raised: systematic disagreement is reportable data).
    """

    first_order: float
    F: complex
    channel_amplitudes: dict
    q: int
    m: int
    lam: float
    route_agreement: float
    flagged: bool

    @property
    def im_from_channels(self):
        return im_from_amplitudes(self.channel_amplitudes)


def _resolvent_route(problem, basis, q, grid, deltas, which):
    """F(E0 + i0) on a long grid; H^(m) is block-diagonal so solves are per-mode."""
    st = _bound_state(problem.v0, grid, which)
    coarse = Grid1D(grid.x_min, grid.x_max, (grid.n - 1) // 2 + 1)
    lam_c = _bound_state(problem.v0, coarse, which).lam
    lam_star = richardson_h2(lam_c, st.lam)  # continuum-limit eigenvalue
    e0 = 2.0 * problem.b * q + lam_star

    x = grid.interior
    h = grid.h
    qs = basis.landau_indices(problem.m)
    bas_on_grid = BasisTruncation(basis.J, grid, basis.quad_nodes)
    d, e = hamiltonian_tridiagonal(problem.v0, grid)

    # w = V Phi: mode rows C_{a q}(x) psi(x)
    psi = st.psi[1:-1]
    w = np.stack(
        [_radial_factor(problem, bas_on_grid, qa, q, x) * psi for qa in qs]
    )
    # (I - P) w: remove the embedded eigenvector component exactly
    a_idx = int(np.where(qs == q)[0][0])
    w_proj = w.copy()
    w_proj[a_idx] -= psi * (h * float(np.dot(w[a_idx], psi)))

    n_int = len(d)
    ab = np.zeros((3, n_int), dtype=complex)
    vals = []
    for delta in deltas:
        z = e0 + 1j * delta
        total = 0.0 + 0.0j
        for a, qa in enumerate(qs):
            ab[0, 1:] = e
            ab[1, :] = d + 2.0 * problem.b * qa - z
            ab[2, :-1] = e
            u = solve_banded((1, 1), ab, w_proj[a])
            total += h * np.dot(u, w[a])  # w real: pairing linear in first slot
        vals.append(total)
    value, _ = neville_to_zero(deltas, vals)
    return complex(value), float(lam_star)


def fgr_value(problem, basis, q, resolvent_grid=None, deltas=None, tolerance=1e-3,
              refine=1, which=0):
    """F_{q,m}(2bq + lambda) with the dual-route imaginary-part self-check."""
    if resolvent_grid is None:
        resolvent_grid = _DEFAULT_RESOLVENT_GRID
    if deltas is None:
        deltas = _DEFAULT_DELTAS

    first = first_order_shift(problem, basis, q, refine=refine, which=which)

    amps = channel_amplitudes(problem, basis, q, refine=refine, which=which)
    im_channels = im_from_amplitudes(amps)

    f_coarse, lam_star = _resolvent_route(problem, basis, q, resolvent_grid, deltas,
                                          which)
    f_val = f_coarse
    if refine:
        f_fine, _ = _resolvent_route(problem, basis, q, resolvent_grid.refined(),
                                     deltas, which)
        f_val = complex(richardson_h2(f_coarse, f_fine))

    scale = max(im_channels, abs(f_val.imag), 1e-12)
    agreement = abs(im_channels - f_val.imag) / scale
    return FgrResult(
        first_order=first,
        F=f_val,
        channel_amplitudes=amps,
        q=q,
        m=problem.m,
        lam=lam_star,
        route_agreement=agreement,
        flagged=agreement > tolerance,
    )


def omega_profile(problem, grid, which=0):
    """The longitudinal weight psi(x) Re Psi_1(x; 2b + lambda) on the grid.

    This is the profile whose radial pairing controls golden-rule positivity
    for product perturbations; it is nonzero and Schwartz-class.
    """
    st = _bound_state(problem.v0, grid, which)
    psi1 = scattering_state(problem.v0, 2.0 * problem.b + st.lam, 1, grid)
    return st.psi * psi1.real


@dataclass(frozen=True)
class OverlapPolynomialResult:
    """Quadrature/interpolation comparison for the overlap polynomial in gamma."""

    pairs: list  # (alpha, quadrature value, polynomial value)
    polynomial: np.polynomial.Polynomial  # in gamma = 1/(1 + alpha)
    degree_bound: int
    node_gammas: np.ndarray


def _candidate_overlap(b, q, m, poly, alpha, rule):
    wa = poly(0.5 * b * rule.nodes**2) * np.exp(-0.5 * alpha * b * rule.nodes**2)
    fa = radial_eigenfunction(RadialMode(b, q - 1, m), rule.nodes)
    fb = radial_eigenfunction(RadialMode(b, q, m), rule.nodes)
    return float(np.dot(rule.weights, fa * fb * wa))


def overlap_polynomial_check(q, m, poly_coeffs, alphas, b=1.0, rule=None,
                             gamma_range=(0.12, 0.88)):
    """Overlap of phi_{q-1,m} phi_{q,m} against P(b rho^2/2) e^(-alpha b rho^2/2).

    The overlap is a polynomial of degree at most 2q + m + 1 + deg P in
    gamma = 1/(1+alpha); it is reconstructed by interpolation on Chebyshev
    gamma nodes and evaluated against direct quadrature at the requested alphas.
    """
    if q < m_minus(m) + 1:
        raise DomainError("need q >= m_- + 1 so that both modes exist")
    poly = np.polynomial.Polynomial(np.asarray(poly_coeffs, dtype=float))
    if rule is None:
        rule = gauss_laguerre_rule(b, 150)
    deg_bound = 2 * q + m + 1 + poly.degree()
    n_nodes = deg_bound + 1
    kk = np.arange(n_nodes)
    glo, ghi = gamma_range
    gammas = 0.5 * (glo + ghi) + 0.5 * (ghi - glo) * np.cos(
        math.pi * (2 * kk + 1) / (2 * n_nodes)
    )
    vals = np.array(
        [_candidate_overlap(b, q, m, poly, 1.0 / g - 1.0, rule) for g in gammas]
    )
    fitted = np.polynomial.Polynomial.fit(gammas, vals, deg=n_nodes - 1)
    cond_resid = float(np.max(np.abs(fitted(gammas) - vals)))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if cond_resid > 1e-8 * scale:
        raise AccuracyError(
            f"overlap-polynomial interpolation residual {cond_resid:.2e} "
            f"exceeds 1e-8 of scale {scale:.2e}"
        )
    pairs = []
    for alpha in alphas:
        if not alpha > 0:
            raise DomainError("alpha must be positive")
        quad = _candidate_overlap(b, q, m, poly, alpha, rule)
        pairs.append((float(alpha), quad, float(fitted(1.0 / (1.0 + alpha)))))
    return OverlapPolynomialResult(
        pairs=pairs,
        polynomial=fitted,
        degree_bound=deg_bound,
        node_gammas=gammas,
    )


def fgr_positivity_scan(problem_family, basis, q_range, m_range, threshold=1e-12,
                        refine=0, which=0):
    """Channel-route Im F over candidate perturbations and (q, m) cells.

    ``problem_family``: iterable of (label, LandauProblem); m is overridden by
    the scanned cell.  Returns rows of dicts with the Im F value and whether
    the golden-rule positivity holds at the threshold.
    """
    rows = []
    for label, prob in problem_family:
        for m in m_range:
            pm = replace(prob, m=m)
            for q in q_range:
                if q <= m_minus(m):
                    continue
                im_f = im_from_amplitudes(
                    channel_amplitudes(pm, basis, q, refine=refine, which=which))
                rows.append(
                    {
                        "label": label,
                        "q": q,
                        "m": m,
                        "im_f": im_f,
                        "passes": im_f > threshold,
                    }
                )
    return rows
