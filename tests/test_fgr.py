import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded

import refcase
from landau.errors import DomainError
from landau.fgr import (
    _coupling_rows,
    _mode_rows,
    _reduced_solve,
    _resolvent_route,
    channel_amplitudes,
    fgr_channel,
    fgr_value,
    first_order_shift,
    im_from_amplitudes,
    overlap_polynomial_check,
)
from landau.potentials import (
    PerturbationProfile,
    compact_radial,
    gaussian_product,
    power_radial,
    sech2,
    square_well,
)
from landau.schrodinger1d import (Grid1D, bound_states, ground_state,
                                  hamiltonian_tridiagonal, scattering_states)
from landau.specfun import RadialMode, m_minus, radial_eigenfunction, radial_rule

PROBLEM = refcase.problem()
BASIS = refcase.basis()


def zero_v():
    return PerturbationProfile(
        evaluate=lambda rho, x: np.zeros(np.broadcast(np.asarray(rho), np.asarray(x)).shape),
        theta0=math.pi / 4,
        sign_definite=True,
    )


def test_first_order_zero_perturbation():
    prob = replace(PROBLEM, V=zero_v())
    assert first_order_shift(prob, BASIS, 1) == 0.0


def test_first_order_separable_oracle():
    # radial Gaussian overlap in closed form x longitudinal quadrature oracle
    # <e^(-rho^2) phi_{0,0}, phi_{0,0}> = (b/(b+2))^1 = 1/3 at b=1
    long_part = quad(lambda x: math.exp(-x * x) / math.cosh(x) ** 2 / 2.0, -12, 12,
                     epsabs=1e-14)[0]
    got = first_order_shift(PROBLEM, BASIS, 0)
    assert got == pytest.approx(long_part / 3.0, rel=1e-8)
    # q = 1 radial factor: int (1-s)^2 e^(-3s) ds = 5/27
    got1 = first_order_shift(PROBLEM, BASIS, 1)
    assert got1 == pytest.approx(5.0 / 27.0 * long_part, rel=1e-8)


def test_first_order_matches_toeplitz_row():
    # for axisymmetric V these shifts enumerate the transverse-compression
    # eigenvalues; cross-checked module-to-module in test_toeplitz_ssf
    vals = [first_order_shift(replace(PROBLEM, m=m), BASIS, 1, refine=0)
            for m in (-1, 0, 1, 2)]
    assert all(v > 0 for v in vals)
    assert vals[2] < vals[1]  # decay in m


def test_channel_zero_perturbation():
    prob = replace(PROBLEM, V=zero_v())
    assert fgr_channel(prob, BASIS, 1, 0, 1, refine=0) == 0.0


def test_channel_radial_only_separability():
    # x3-independent V: channel = (radial overlap) * int psi Psi_l dx
    vrad = PerturbationProfile(
        evaluate=lambda rho, x: np.exp(-np.asarray(rho) ** 2)
        * np.ones_like(np.asarray(x, dtype=float)),
    )
    prob = replace(PROBLEM, V=vrad)
    amp = fgr_channel(prob, BASIS, 1, 0, 1, refine=0)
    st = bound_states(PROBLEM.v0, BASIS.grid)[0]
    from landau.specfun import radial_overlap

    rule = radial_rule(1.0, 1, 0)
    rad = radial_overlap(RadialMode(1.0, 0, 0), RadialMode(1.0, 1, 0),
                         np.exp(-rule.nodes**2), rule)
    psi1 = scattering_states(PROBLEM.v0, 2.0 + st.lam, BASIS.grid)[0]
    long_part = BASIS.grid.h * complex(np.sum(st.psi * psi1))
    assert amp == pytest.approx(rad * long_part, rel=1e-10)


def test_channel_requires_open_index():
    with pytest.raises(DomainError):
        fgr_channel(PROBLEM, BASIS, 1, 1, 1)
    with pytest.raises(DomainError):
        fgr_channel(PROBLEM, BASIS, 1, 0, 3)


def test_fgr_zero_perturbation():
    prob = replace(PROBLEM, V=zero_v())
    res = fgr_value(prob, BASIS, 1, refine=0)
    assert res.first_order == 0.0
    assert abs(res.F) < 1e-12
    assert res.im_from_channels == 0.0


def test_fgr_isolated_no_channels():
    res = refcase.reference_fgr(q=0) if False else fgr_value(PROBLEM, BASIS, 0, refine=0)
    assert res.im_from_channels == 0.0
    assert abs(res.F.imag) < 1e-9


def test_fgr_dual_route_agreement():
    res = refcase.reference_fgr()
    assert res.im_from_channels > 0
    assert res.route_agreement < 1e-3
    assert not res.flagged
    # channel count: two scattering branches per open Landau channel
    assert len(res.channel_amplitudes) == 2 * (1 - 0)
    assert res.F.imag >= 0.0


def test_fgr_channel_count_q2():
    res = fgr_value(PROBLEM, BASIS, 2, refine=0)
    assert len(res.channel_amplitudes) == 4
    assert res.im_from_channels > 0


def test_channel_amplitudes_one_jost_solve_per_channel_and_grid(monkeypatch):
    from landau import schrodinger1d

    basis = refcase.basis(n=601, J=4)
    solves = []
    real = schrodinger1d.jost_solutions
    monkeypatch.setattr(schrodinger1d, "jost_solutions",
                        lambda *args: solves.append(args[1]) or real(*args))
    amps = channel_amplitudes(PROBLEM, basis, 2)
    # channels j = 0, 1, each on the (h, h/2) pair, serve l = 1 and l = 2
    assert len(amps) == 4 and len(solves) == 4
    for (l, j), a in amps.items():
        assert a == fgr_channel(PROBLEM, basis, 2, j, l)


def test_fgr_channel_solves_only_its_own_channel(monkeypatch):
    from landau import schrodinger1d

    basis = refcase.basis(n=601, J=4)
    amps = channel_amplitudes(PROBLEM, basis, 2)
    momenta = []
    real = schrodinger1d.jost_solutions
    monkeypatch.setattr(schrodinger1d, "jost_solutions",
                        lambda *args: momenta.append(args[1]) or real(*args))
    lams = [bound_states(PROBLEM.v0, b.grid)[0].lam for b in (basis, basis.refined())]
    for (l, j), a in amps.items():
        momenta.clear()
        assert fgr_channel(PROBLEM, basis, 2, j, l) == a
        # one Jost solve on each grid of (h, h/2), at channel j's energy
        assert momenta == [math.sqrt(2.0 * PROBLEM.b * (2 - j) + lam) for lam in lams]


def test_fgr_quadratic_scaling():
    res1 = refcase.reference_fgr()
    prob2 = replace(PROBLEM, V=gaussian_product(amplitude=2.0))
    res2 = fgr_value(prob2, BASIS, 1)
    assert res2.first_order == pytest.approx(2 * res1.first_order, rel=1e-12)
    assert res2.F == pytest.approx(4 * res1.F, rel=1e-10)
    assert res2.im_from_channels == pytest.approx(4 * res1.im_from_channels, rel=1e-12)


def test_quadrature_doubling_stability():
    # halving the longitudinal step changes the channel amplitude by < 1e-8 rel
    a1 = fgr_channel(PROBLEM, refcase.basis(n=1801), 1, 0, 1, refine=1)
    a2 = fgr_channel(PROBLEM, refcase.basis(n=2401), 1, 0, 1, refine=1)
    assert abs(a1 - a2) / abs(a1) < 1e-8


def test_overlap_polynomial_reproduces_quadrature():
    # interpolated polynomial in gamma must reproduce held-out quadrature overlaps
    rng = np.random.default_rng(11)
    for (q, m) in [(1, 0), (2, 1), (2, -1)]:
        alphas = rng.uniform(0.2, 6.0, size=10)
        res = overlap_polynomial_check(q, m, [1.0], alphas)
        for alpha, quad_val, poly_val in res.pairs:
            assert abs(quad_val - poly_val) < 1e-9, (q, m, alpha)


def test_overlap_polynomial_degree_bound():
    # stated bound: deg <= 2q + m + 1 + deg P; the fitted polynomial respects it
    res = overlap_polynomial_check(1, 0, [1.0], [0.5])
    assert res.degree_bound == 3
    # exact overlap for q=1, m=0, P=1 is gamma - gamma^2 (Gamma integrals)
    coeffs = res.polynomial.convert().coef
    expect = np.zeros_like(coeffs)
    expect[1], expect[2] = 1.0, -1.0
    assert np.allclose(coeffs, expect, atol=1e-10)


def test_overlap_polynomial_root_bracketing():
    # alpha on either side of a polynomial root gives a sign change
    res = overlap_polynomial_check(1, 0, [1.0], [0.5])
    # gamma - gamma^2 has no root in (0,1): overlap positive for all alpha > 0
    g = np.linspace(0.05, 0.95, 50)
    vals = res.polynomial(g)
    assert np.all(vals > 0)
    # force a root: P(s) = s - 0.1 gives -gamma (2 gamma^2 - 1.1 gamma + 0.1),
    # with a real root at gamma ~ 0.435
    res2 = overlap_polynomial_check(1, 0, [-0.1, 1.0], [0.5])
    g = np.linspace(0.15, 0.85, 400)
    vals = res2.polynomial(g)
    assert np.any(vals > 0) and np.any(vals < 0)
    roots = [r.real for r in res2.polynomial.roots() if abs(r.imag) < 1e-12
             and 0.15 < r.real < 0.85]
    assert roots
    g0 = roots[0]
    a_lo, a_hi = 1 / (g0 + 1e-3) - 1, 1 / (g0 - 1e-3) - 1
    pair = overlap_polynomial_check(1, 0, [-0.1, 1.0], [a_lo, a_hi]).pairs
    assert pair[0][1] * pair[1][1] < 0


def omega_profile(problem, grid):
    """The longitudinal weight psi(x) Re Psi_1(x; 2b + lambda) on the grid.

    This is the profile whose radial pairing controls golden-rule positivity
    for product perturbations; it is nonzero and Schwartz-class.
    """
    st = ground_state(problem.v0, grid)
    psi1 = scattering_states(problem.v0, 2.0 * problem.b + st.lam, grid)[0]
    return st.psi * psi1.real


def fgr_positivity_scan(problem_family, basis, q_range, m_range, threshold=1e-12):
    """Channel-route Im F over candidate perturbations and (q, m) cells, each
    on the grid of ``basis`` without Richardson refinement.

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
                im_f = im_from_amplitudes(channel_amplitudes(pm, basis, q, refine=0))
                rows.append({"label": label, "q": q, "m": m, "im_f": im_f,
                             "passes": im_f > threshold})
    return rows


def test_positivity_scan_zero_fails_all():
    rows = fgr_positivity_scan(
        [("zero", replace(PROBLEM, V=zero_v()))], BASIS, range(1, 3), range(-1, 2)
    )
    assert rows and all(not r["passes"] for r in rows)


def _product_candidate(w_perp, omega, grid):
    """V(rho, x) = W(rho) omega(x) / ||omega||^2 with omega sampled on the grid."""
    xs = grid.points
    norm2 = grid.h * float(np.dot(omega, omega))

    def ev(rho, x):
        om = np.interp(np.asarray(x, dtype=float), xs, omega)
        return w_perp(np.asarray(rho)) * om / norm2

    return PerturbationProfile(evaluate=ev)


def test_positivity_scan_candidate_family():
    # W_alpha(rho) = e^(-alpha b rho^2 / 2) times the module-built longitudinal
    # weight: all but finitely many alpha give Im F > 0 in every scanned cell
    omega = omega_profile(PROBLEM, BASIS.grid)
    fam = []
    for alpha in (0.4, 0.9, 1.7):
        w = lambda rho, a=alpha: np.exp(-0.5 * a * rho**2)
        fam.append(
            (f"alpha={alpha}", replace(PROBLEM, V=_product_candidate(w, omega, BASIS.grid)))
        )
    rows = fgr_positivity_scan(fam, BASIS, range(1, 3), range(-1, 2), threshold=1e-16)
    assert rows
    assert all(r["passes"] for r in rows)


def test_positivity_scan_adjusted_candidate():
    # replacing the omega-component of a V by a strictly positive radial profile
    # makes every scanned cell pass (the overlap integral sees only V_perp)
    omega = omega_profile(PROBLEM, BASIS.grid)
    xs = BASIS.grid.points
    h = BASIS.grid.h
    norm2 = h * float(np.dot(omega, omega))

    def v_raw(rho, x):
        return np.exp(-np.asarray(rho, float) ** 2) * np.exp(-np.asarray(x, float) ** 2)

    def v_perp(rho):
        r = np.asarray(rho, dtype=float)
        flat = r.reshape(-1)
        vals = h * np.sum(v_raw(flat[:, None], xs[None, :]) * omega[None, :], axis=1)
        return vals.reshape(r.shape)

    def w_good(rho):
        return np.exp(-0.45 * np.asarray(rho, float) ** 2)

    def v_adjusted(rho, x):
        om = np.interp(np.asarray(x, dtype=float), xs, omega)
        return v_raw(rho, x) + (w_good(rho) - v_perp(rho)) * om / norm2

    prob_adj = replace(PROBLEM, V=PerturbationProfile(evaluate=v_adjusted))
    rows = fgr_positivity_scan([("adjusted", prob_adj)], BASIS, range(1, 3),
                               range(-1, 2), threshold=1e-16)
    assert all(r["passes"] for r in rows)


@pytest.mark.parametrize("call", [
    lambda r: first_order_shift(PROBLEM, BASIS, 1, refine=r),
    lambda r: fgr_channel(PROBLEM, BASIS, 1, 0, 1, refine=r),
    lambda r: fgr_value(PROBLEM, BASIS, 1, refine=r),
], ids=["first_order_shift", "fgr_channel", "fgr_value"])
def test_negative_refine_rejected(call):
    # a second (h, h/2) step would bring back an O(h^2) error, so refine <= 1
    for refine in (-1, 2):
        with pytest.raises(DomainError, match="refine"):
            call(refine)


def _whole_grid_rows(problem, basis, qs, q, x):
    """C_{a q}(x) for each a in qs from one evaluation of V on all of x (oracle)."""
    rule = radial_rule(problem.b, int(qs[-1]), problem.m, problem.V.breaks)
    fq = radial_eigenfunction(RadialMode(problem.b, int(q), problem.m), rule.nodes)
    vv = problem.V.evaluate(rule.nodes[:, None], np.asarray(x)[None, :])
    return np.stack([
        np.einsum("k,k,k,kx->x", rule.weights,
                  radial_eigenfunction(RadialMode(problem.b, int(qa), problem.m),
                                       rule.nodes), fq, vv)
        for qa in qs
    ])


# -- the resolvent route on the working grid


def test_reduced_solve_matches_bordered_solve():
    grid = Grid1D(-12.0, 12.0, 241)
    bound = bound_states(sech2(), grid)[0]
    d, e = hamiltonian_tridiagonal(sech2(), grid)
    psi = bound.psi[1:-1]
    rhs = np.random.default_rng(5).standard_normal(len(d)) * np.exp(-grid.interior**2)
    rhs -= psi * (grid.h * np.dot(rhs, psi))
    got = _reduced_solve(sech2(), bound, rhs)
    # dense system bordered with psi: (T - lambda) u + mu psi = rhs, psi^T u = 0
    a = np.diag(d - bound.lam) + np.diag(e, 1) + np.diag(e, -1)
    border = np.block([[a, psi[:, None]], [psi[None, :], np.zeros((1, 1))]])
    want = np.linalg.solve(border, np.r_[rhs, 0.0])[:-1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


ORACLE_DELTAS = 0.1 * 0.5 ** np.arange(5)


def _full_grid_route(problem, basis, q, grid, deltas):
    """The long-grid resolvent route (oracle): every mode solved on the whole
    Dirichlet grid at E0 + i delta, E0 = 2bq + lambda_h of that grid, and
    extrapolated delta -> 0."""
    st_ = bound_states(problem.v0, grid)[0]
    e0 = 2.0 * problem.b * q + st_.lam

    x = grid.interior
    h = grid.h
    qs = basis.landau_indices(problem.m)
    d, e = hamiltonian_tridiagonal(problem.v0, grid)

    psi = st_.psi[1:-1]
    w = _whole_grid_rows(problem, basis, qs, q, x) * psi
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
            total += h * np.dot(u, w[a])
        vals.append(total)
    value, _ = refcase.neville_to_zero(deltas, vals)
    return complex(value)


@pytest.mark.parametrize("m,q", [(0, 1), (0, 2), (-1, 2)])
def test_closed_box_route_matches_long_grid_oracle(m, q):
    # same h on +-18 with outgoing ends and on a +-4000 Dirichlet box with
    # delta -> 0; measured relative differences 1.6e-9, 8.9e-7 and 9.0e-10
    prob = replace(PROBLEM, m=m)
    basis = refcase.basis(n=601)
    h = basis.grid.h
    pad = 66367
    long_grid = Grid1D(basis.grid.x_min - pad * h, basis.grid.x_max + pad * h,
                       basis.grid.n + 2 * pad)
    got, n_open = _resolvent_route(prob, basis, q, bound_states(prob.v0, basis.grid)[0],
                                   _coupling_rows(prob, basis, q))
    want = _full_grid_route(prob, basis, q, long_grid, ORACLE_DELTAS)
    assert n_open == q - m_minus(m)
    assert abs(got - want) <= 1e-5 * abs(want)


def test_square_well_routes_agree():
    # +-1 is not a node of this grid; the former long-grid route, whose nodes
    # hit the jump, read a route agreement of 1.74e-3 here and was flagged
    res = fgr_value(replace(PROBLEM, v0=square_well()), BASIS, 1)
    assert res.route_agreement < 1e-3
    assert not res.flagged


def test_resolvent_route_counters():
    res = refcase.reference_fgr()
    assert res.resolvent_route == {"grid_n": [1201, 2401], "banded_solves": 14,
                                   "open_channels": [1, 1]}
    assert fgr_value(PROBLEM, BASIS, 1, refine=0).resolvent_route == {
        "grid_n": [1201], "banded_solves": 7, "open_channels": [1]}


V_CASES = {
    "gaussian_product": gaussian_product(),
    "power_radial": power_radial(x3_rate=0.7),
    "power_radial_no_x3": power_radial(),
    "compact_radial": compact_radial(x3_rate=0.5),
}


@settings(max_examples=30, deadline=None)
@given(v_name=st.sampled_from(sorted(V_CASES)), m=st.sampled_from([-1, 0, 1]),
       q_offset=st.integers(0, 2))
def test_mode_rows_match_whole_grid_oracle(v_name, m, q_offset):
    # the rows read from the operators' coupling are the direct contraction of
    # V against phi_a phi_q, to rounding
    prob = replace(PROBLEM, V=V_CASES[v_name], m=m)
    q = m_minus(m) + q_offset
    bound = ground_state(PROBLEM.v0, BASIS.grid)
    psi = bound.psi[1:-1]
    qs = BASIS.landau_indices(m)
    want = _whole_grid_rows(prob, BASIS, qs, q, BASIS.grid.interior) * psi
    a = BASIS.mode_index(m, q)
    want_proj = want.copy()
    want_proj[a] -= psi * (BASIS.grid.h * float(np.dot(want[a], psi)))
    got_qs, w, w_proj = _mode_rows(prob, BASIS, q, bound, _coupling_rows(prob, BASIS, q))
    assert np.array_equal(got_qs, qs)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(w - want)) <= 1e-15 * scale
    assert np.max(np.abs(w_proj - want_proj)) <= 1e-15 * scale


@pytest.mark.parametrize("q", [1, 2])
def test_fgr_value_samples_v_once_per_grid_and_integral(q):
    # per grid: one coupling, whose rows serve every channel amplitude and the
    # resolvent route, and one transverse average for the first-order shift.
    # The coupling samples V at the radial rule's nodes on blocks of grid
    # points that cover the interior once; the average samples V on every
    # grid point at blocks of radii that cover the rule's nodes once
    calls = []

    def counted(rho, x3):
        calls.append((np.ravel(rho).copy(), np.ravel(x3).copy()))
        return PROBLEM.V.evaluate(rho, x3)

    prob = replace(PROBLEM, V=replace(PROBLEM.V, evaluate=counted))
    basis = refcase.basis(n=601, J=4)
    res = fgr_value(prob, basis, q, refine=1)
    assert len(res.channel_amplitudes) == 2 * q
    nodes = radial_rule(PROBLEM.b, q, 0).nodes  # the same rule for every q <= 16
    grids = (basis.grid, basis.grid.refined())
    blocks = [x for rho, x in calls if np.array_equal(rho, nodes)]
    assert np.array_equal(np.concatenate(blocks),
                          np.concatenate([g.interior for g in grids]))
    radii = [[rho for rho, x in calls if np.array_equal(x, g.points)] for g in grids]
    for per_grid in radii:
        assert np.array_equal(np.concatenate(per_grid), nodes)
    assert len(calls) == len(blocks) + sum(map(len, radii))


def test_compact_radial_fgr_independent_of_truncation():
    # the radial rule is the same at J = 7 and J = 15, so are the rows C_aq of
    # the open channels, up to the summation order a BLAS may pick (a few
    # ulps); the first-order shift does not read J at all.  The reference
    # values come from the same panels with two and three times the nodes,
    # which agree to 2e-15
    prob = replace(PROBLEM, V=compact_radial(radius=1.0, x3_rate=1.0))
    res = [fgr_value(prob, refcase.basis(J=J), 1) for J in (7, 15)]
    amps = [r.channel_amplitudes for r in res]
    assert amps[0].keys() == amps[1].keys()
    for key, a in amps[0].items():
        assert abs(a - amps[1][key]) <= 1e-14 * abs(a)
    assert res[0].im_from_channels == pytest.approx(res[1].im_from_channels, rel=1e-14)
    assert res[0].im_from_channels == pytest.approx(6.18200849508597e-3, rel=1e-10)
    assert res[0].first_order == res[1].first_order
    assert res[0].first_order == pytest.approx(0.136192516827962, rel=1e-10)
