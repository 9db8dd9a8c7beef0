"""First-order eigenvalue shifts and the golden-rule quantity F_{q,m} by two
independent routes, plus the overlap-polynomial machinery behind the density
of admissible perturbations.

The embedded state is Phi = phi_{q,m} (x) psi, with psi the ground state of the
longitudinal operator H_par; its energy is E0 = 2bq + lambda.

Route one (open channels): Im F = pi * sum over scattering channels of squared
coupling integrals against the channel scattering states.  Route two
(resolvent): F = <(H^(m) - E0 - i0)^(-1) (I - P) V Phi, V Phi> on the working
grid, at E0 = 2bq + lambda_h with the grid's own eigenvalue, and Richardson
over (h, h/2).  The unperturbed operator is block-diagonal over the radial
modes, so this costs J tridiagonal solves per grid.  Each mode a != q is closed
at both grid ends by the outgoing root zeta of its channel energy (the exact
discrete transparent boundary; Lent & Kirkner, J. Appl. Phys. 67 (1990) 6353),
so the solve is the E + i0 boundary value itself, with no delta -> 0 limit and
no long box.  Mode q is the reduced resolvent of the Dirichlet T - lambda_h,
which has psi as its null vector.  The two routes share no scattering state;
their agreement is the module's self-check and is reported, never silently
resolved.

The rows C_{a q}(x) of both routes are those of the operators' coupling at
theta = 0 (``operators.coupling``), contracted once per grid: ``fgr_value``
hands each grid's rows to both routes before it contracts the next grid's.
The first-order shift is ``specfun.radial_overlap`` of phi_q, phi_q and the
longitudinal average U_h(rho) = h sum_x V(rho, x) psi(x)^2
(``toeplitz_ssf``), which equals h sum_x C_qq(x) psi(x)^2 and needs no
truncation.  Every radial integral here
is on ``specfun.radial_rule``, one rule for every low q and J, so U_h is
sampled once per grid for every first-order shift.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .lapack import solve_banded
from .numutil import richardson
from .operators import checked_floor, coupling
from .schrodinger1d import (ground_state, hamiltonian_tridiagonal, outgoing_solve,
                            scattering_states)
from .specfun import RadialMode, m_minus, radial_overlap, radial_rule
from .toeplitz_ssf import longitudinal_average, rule_samples

__all__ = [
    "FgrResult",
    "first_order_shift",
    "channel_amplitudes",
    "fgr_channel",
    "fgr_value",
    "im_from_amplitudes",
    "overlap_polynomial_check",
    "OverlapPolynomialResult",
]

_ROUTE_TOLERANCE = 1e-3  # relative Im F disagreement that flags a result


def _coupling_rows(problem, basis, q):
    """Rows C_{a q}(x), (J, n_int), of the theta = 0 coupling on the grid of
    ``basis``."""
    return coupling(problem, basis, 0j)[:, basis.mode_index(problem.m, q)]


def _bases(basis, refine):
    """The truncations on the grids (h, h/2)[:1 + refine]."""
    # one (h, h/2) step removes the O(h^2) term; a second step on the already
    # O(h^4) value would bring an O(h^2) error back
    if refine not in (0, 1):
        raise DomainError(f"refine must be >= 0 and <= 1, got {refine}")
    return (basis, basis.refined())[:1 + refine]


def _checked_bases(problem, basis, refine):
    """``_bases``, each refused as ``operators.assemble`` refuses its grid
    unless inf spec(H_par) > -2b."""
    bases = _bases(basis, refine)
    for b in bases:
        checked_floor(problem.v0, b.grid, problem.b)
    return bases


def _first_order_on_grid(problem, basis, q):
    u = longitudinal_average(problem.V, ground_state(problem.v0, basis.grid))
    rule = radial_rule(problem.b, q, problem.m, problem.V.breaks)
    mode = RadialMode(problem.b, q, problem.m)
    return radial_overlap(mode, mode, rule_samples(u, rule), rule)


def first_order_shift(problem, basis, q, refine=1):
    """<V Phi_{q,m}, Phi_{q,m}> in L^2(R_+ x R; rho drho dx3).

    ``refine`` = 1 Richardson-extrapolates over the (h, h/2) grid pair to remove
    the O(h^2) bias of the discretized bound state; 0 keeps the grid value.
    """
    bases = _bases(basis, refine)
    if q < m_minus(problem.m):
        raise DomainError(f"q={q} below m_- for m={problem.m}")
    return float(richardson(*(_first_order_on_grid(problem, b, q) for b in bases)))


def _channel_pairs_on_grid(problem, basis, q, js, rows):
    """{(l, j): a_l} with a_l = int phi_j phi_q psi(x) Psi_l(x; 2b(q-j)+lambda)
    V(rho, x) dx rho drho on the grid of ``basis``, whose coupling rows C_{a q}
    are ``rows``; one Jost solve per j serves both l."""
    st = ground_state(problem.v0, basis.grid)
    amps = {}
    for j in js:
        energy = 2.0 * problem.b * (q - j) + st.lam
        weight = rows[basis.mode_index(problem.m, j)] * st.psi[1:-1]
        for l, psi_l in zip((1, 2), scattering_states(problem.v0, energy, basis.grid)):
            amps[(l, j)] = basis.grid.h * complex(np.sum(weight * psi_l[1:-1]))
    return amps


def _richardson_amplitudes(grids):
    """The per-grid amplitudes of (h, h/2)[:len(grids)], Richardson-combined."""
    return {key: complex(richardson(*(amps[key] for amps in grids)))
            for key in grids[0]}


def fgr_channel(problem, basis, q, j, l, refine=1):
    """Single open-channel coupling amplitude (l = 1 or 2, m_- <= j < q):
    ``channel_amplitudes(...)[(l, j)]``, with the Jost solve of channel j alone
    on each grid."""
    if not (m_minus(problem.m) <= j < q):
        raise DomainError(f"channel index j={j} outside [m_-, q) for q={q}")
    if l not in (1, 2):
        raise DomainError("branch index l must be 1 or 2")
    return _richardson_amplitudes([
        _channel_pairs_on_grid(problem, b, q, [j], _coupling_rows(problem, b, q))
        for b in _checked_bases(problem, basis, refine)])[(l, j)]


def channel_amplitudes(problem, basis, q, refine=1):
    """Every open-channel amplitude {(l, j): a} for m_- <= j < q and l = 1, 2
    over (h, h/2)[:1 + refine], Richardson-combined; with no open channel
    nothing is contracted."""
    if q < m_minus(problem.m):
        raise DomainError(f"q={q} below m_- for m={problem.m}")
    js = range(m_minus(problem.m), q)
    return _richardson_amplitudes([
        _channel_pairs_on_grid(problem, b, q, js, _coupling_rows(problem, b, q))
        if js else {} for b in _checked_bases(problem, basis, refine)])


def im_from_amplitudes(amps):
    """Channel-route Im F = pi * sum |a|^2 over the amplitudes of ``amps``."""
    return math.pi * sum(abs(a) ** 2 for a in amps.values())


@dataclass(frozen=True)
class FgrResult:
    """Golden-rule data at the embedded energy 2bq + lambda.

    F is the resolvent-route value; channel_amplitudes the per-(l, j) coupling
    integrals whose squared moduli rebuild Im F independently.  When the two
    imaginary parts disagree beyond ``_ROUTE_TOLERANCE`` the result is flagged
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
    resolvent_route: dict  # grid sizes, banded solves and open channels

    @property
    def im_from_channels(self):
        return im_from_amplitudes(self.channel_amplitudes)


def _mode_rows(problem, basis, q, st, rows):
    """Landau indices, w = V Phi as mode rows C_{a q}(x) psi(x), and (I - P) w,
    on the grid of ``basis`` (that of ``st``) from its coupling ``rows``."""
    grid = st.grid
    a_idx = basis.mode_index(problem.m, q)
    qs = basis.landau_indices(problem.m)
    psi = st.psi[1:-1]
    w = rows * psi
    # (I - P) w: remove the embedded eigenvector component exactly
    w_proj = w.copy()
    w_proj[a_idx] -= psi * (grid.h * float(np.dot(w[a_idx], psi)))
    return qs, w, w_proj


def _reduced_solve(v0, st, rhs):
    """u = (H_par - lambda_h)^(-1) rhs on the complement of psi, for rhs
    orthogonal to psi.  The Dirichlet H_par - lambda_h has the null vector psi,
    so u is pinned to 0 where |psi| is largest, that equation dropped (it
    follows from the others, as psi^T (H_par - lambda_h) = 0 = psi^T rhs), and
    psi projected out."""
    d, e = hamiltonian_tridiagonal(v0, st.grid)
    psi = st.psi[1:-1]
    k = int(np.argmax(np.abs(psi)))
    # u_k = 0: row and column k become those of the identity
    d -= st.lam
    d[k] = 1.0
    e[max(k - 1, 0):k + 1] = 0.0
    r = rhs.copy()
    r[k] = 0.0
    u = solve_banded(d, e, r)
    return u - psi * (st.grid.h * float(np.dot(psi, u)))


def _resolvent_route(problem, basis, q, st, rows):
    """F(E0 + i0) at E0 = 2bq + lambda_h on the grid of ``basis`` and ``st``,
    from its coupling ``rows``, and the number of open channels.  H^(m) is
    block-diagonal over the radial modes, so this is one tridiagonal solve per
    mode: the reduced resolvent for mode q, the outgoing resolvent at the
    channel energy E0 - 2b q_a for every other."""
    e0 = 2.0 * problem.b * q + st.lam
    qs, w, w_proj = _mode_rows(problem, basis, q, st, rows)
    total = 0.0 + 0.0j
    n_open = 0
    for a, qa in enumerate(qs):
        if qa == q:
            u = _reduced_solve(problem.v0, st, w_proj[a])
        else:
            energy = e0 - 2.0 * problem.b * qa
            n_open += int(energy > 0)
            u = outgoing_solve(problem.v0, st.grid, energy, w_proj[a])
        # w real: the pairing is linear in its first slot
        total += st.grid.h * np.dot(u, w[a])
    return complex(total), n_open


def fgr_value(problem, basis, q, refine=1):
    """F_{q,m}(2bq + lambda) with the dual-route imaginary-part self-check.

    The resolvent route runs on the grid of ``basis`` and, with ``refine``,
    on its refinement, each at its own lambda_h, and is Richardson-combined;
    a relative Im F disagreement above ``_ROUTE_TOLERANCE`` flags the result.
    """
    bases = _checked_bases(problem, basis, refine)
    first = first_order_shift(problem, basis, q, refine=refine)

    # one grid at a time: its coupling rows serve its channel amplitudes and
    # its resolvent route, and are dropped before the next grid's contraction
    js = range(m_minus(problem.m), q)
    states = [ground_state(problem.v0, b.grid) for b in bases]
    grids, routes = [], []
    for b, st in zip(bases, states):
        rows = _coupling_rows(problem, b, q)
        grids.append(_channel_pairs_on_grid(problem, b, q, js, rows))
        routes.append(_resolvent_route(problem, b, q, st, rows))
        del rows
    amps = _richardson_amplitudes(grids)
    im_channels = im_from_amplitudes(amps)
    f_val = complex(richardson(*(f for f, _ in routes)))
    lam = richardson(*(st.lam for st in states))
    counters = {"grid_n": [st.grid.n for st in states],
                "banded_solves": basis.J * len(states),
                "open_channels": [n for _, n in routes]}

    scale = max(im_channels, abs(f_val.imag), 1e-12)
    agreement = abs(im_channels - f_val.imag) / scale
    return FgrResult(
        first_order=first,
        F=f_val,
        channel_amplitudes=amps,
        q=q,
        m=problem.m,
        lam=float(lam),
        route_agreement=agreement,
        flagged=agreement > _ROUTE_TOLERANCE,
        resolvent_route=counters,
    )


@dataclass(frozen=True)
class OverlapPolynomialResult:
    """Quadrature/interpolation comparison for the overlap polynomial in gamma."""

    pairs: list  # (alpha, quadrature value, polynomial value)
    polynomial: np.polynomial.Polynomial  # in gamma = 1/(1 + alpha)
    degree_bound: int


def _candidate_overlap(b, q, m, poly, alpha, rule):
    wa = poly(0.5 * b * rule.nodes**2) * np.exp(-0.5 * alpha * b * rule.nodes**2)
    return radial_overlap(RadialMode(b, q - 1, m), RadialMode(b, q, m), wa, rule)


def overlap_polynomial_check(q, m, poly_coeffs, alphas):
    """Overlap of phi_{q-1,m} phi_{q,m} against P(b rho^2/2) e^(-alpha b rho^2/2)
    at b = 1.

    The overlap is a polynomial of degree at most 2q + m + 1 + deg P in
    gamma = 1/(1+alpha); it is reconstructed by interpolation on Chebyshev
    gamma nodes in [0.12, 0.88] and evaluated against direct quadrature at the
    requested alphas.
    """
    if q < m_minus(m) + 1:
        raise DomainError("need q >= m_- + 1 so that both modes exist")
    b = 1.0
    poly = np.polynomial.Polynomial(np.asarray(poly_coeffs, dtype=float))
    rule = radial_rule(b, q + poly.degree(), m)
    deg_bound = 2 * q + m + 1 + poly.degree()
    n_nodes = deg_bound + 1
    kk = np.arange(n_nodes)
    glo, ghi = 0.12, 0.88
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
    )
