import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.errors import AccuracyError, DomainError
from landau.numutil import richardson
from landau.potentials import sech2, square_well, zero_potential
from landau.schrodinger1d import (
    Grid1D,
    bound_states,
    ground_state,
    jost_solutions,
    outgoing_root,
    outgoing_solve,
    _march_envelope,
    richardson_ground_state,
    scattering_states,
    solved_bound_states,
)

GRID = Grid1D(-20.0, 20.0, 4001)


def test_grid_invariants():
    with pytest.raises(DomainError):
        Grid1D(1.0, 2.0, 100)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 2)
    g = Grid1D(-2.0, 2.0, 5)
    assert g.h == 1.0
    assert g.refined().n == 9


def test_ground_state_solved_once_per_potential_and_grid():
    grid = Grid1D(-20.0, 20.0, 401)
    v = sech2(2.0)
    st = ground_state(v, grid)
    assert ground_state(v, grid) is st
    assert solved_bound_states(v, grid)[0] is st
    with pytest.raises(ValueError):
        st.psi[1] = 0.0  # shared by every computation on the grid
    # separately built potentials never share an entry
    assert ground_state(sech2(3.0), grid).lam != st.lam
    assert ground_state(sech2(2.0), grid) is not st


def test_free_potential_no_bound_states():
    assert bound_states(zero_potential(), GRID) == []


def test_ground_state():
    st = ground_state(sech2(), GRID)
    first = bound_states(sech2(), GRID)[0]
    assert st.lam == first.lam and np.array_equal(st.psi, first.psi)
    with pytest.raises(DomainError, match="no bound state"):
        ground_state(zero_potential(), GRID)
    narrow = Grid1D(-3.0, 3.0, 301)  # sech2 not negligible at the ends
    with pytest.raises(DomainError, match="widen the grid"):
        ground_state(sech2(), narrow)
    loose = ground_state(sech2(), narrow, check_tails=False)
    assert loose.lam == bound_states(sech2(), narrow, check_tails=False)[0].lam


def test_poschl_teller_bound_state():
    # analytic reflectionless well: lambda = -1, psi proportional to sech
    lam, state = richardson_ground_state(sech2(), GRID)
    assert abs(lam + 1.0) < 1e-6
    x = state.grid.points
    assert np.max(np.abs(state.psi - 1 / np.cosh(x) / math.sqrt(2.0))) < 1e-5
    # discrete normalization
    assert abs(state.grid.h * np.dot(state.psi, state.psi) - 1.0) < 1e-12


def test_bound_state_h2_convergence():
    # |lambda(h) - lambda(h/2)| = O(h^2): ratio across two refinements ~ 4
    lam_h = bound_states(sech2(), GRID)[0].lam
    lam_h2 = bound_states(sech2(), GRID.refined())[0].lam
    lam_h4 = bound_states(sech2(), GRID.refined().refined())[0].lam
    r = (lam_h - lam_h2) / (lam_h2 - lam_h4)
    assert 3.7 < r < 4.3


def test_square_well_transcendental_oracle():
    # even ground state of v = -V0 on |x|<a: sqrt(V0+lam) tan(a sqrt(V0+lam)) = sqrt(-lam)
    v0, a = 0.5, 1.0
    def mismatch(lam):
        kin = math.sqrt(v0 + lam)
        return kin * math.tan(a * kin) - math.sqrt(-lam)
    lo, hi = -v0 + 1e-9, -1e-9
    for _ in range(200):  # bisection
        mid = 0.5 * (lo + hi)
        if mismatch(lo) * mismatch(mid) <= 0:
            hi = mid
        else:
            lo = mid
    lam_exact = 0.5 * (lo + hi)
    # kappa = sqrt(-lam) ~ 0.39: the box must be wide enough that the Dirichlet
    # truncation error e^(-2 kappa L) stays below the h^4 extrapolation level
    grid = Grid1D(-30.0, 30.0, 12001)  # well edges fall on nodes
    lam, _ = richardson_ground_state(square_well(v0, a), grid)
    assert abs(lam - lam_exact) < 1e-7
    assert len(bound_states(square_well(v0, a), grid)) == 1


def test_grid_too_narrow_rejected():
    with pytest.raises(DomainError):
        bound_states(sech2(), Grid1D(-4.0, 4.0, 200))


def test_jost_free():
    sol = jost_solutions(zero_potential(), 1.3, GRID)
    assert sol.T == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.R) < 1e-12
    x = GRID.points
    assert np.allclose(sol.y1, np.exp(1.3j * x), atol=1e-10)


def test_jost_reflectionless():
    for k in (0.5, 1.0, 2.0, 4.0):
        sol = jost_solutions(sech2(), k, GRID)
        assert abs(sol.R) < 1e-6
        assert abs(abs(sol.T) - 1.0) < 1e-6
        # analytic transmission for the -2 sech^2 well: t(k) = (1 - ik)/(-(1 + ik)) inverted
        t_exact = 1.0 / (-(1 + 1j * k) / (1 - 1j * k))
        assert sol.T == pytest.approx(t_exact, abs=1e-8)


def test_flux_conservation_all_builtins():
    grid = Grid1D(-20.0, 20.0, 8001)
    for name, v in (("sech2", sech2()), ("square_well", square_well(0.5, 1.0)),
                    ("zero", zero_potential())):
        for k in (0.3, 0.7, 1.0, 2.5, 5.0):
            sol = jost_solutions(v, k, grid)
            assert sol.flux_defect < 1e-6, (name, k, sol.flux_defect)


def test_square_well_transfer_matrix_oracle():
    # piecewise-exact amplitudes for the finite well (symmetric: same moduli both incidences)
    v0, a = 0.5, 1.0
    def exact(k):
        kp = math.sqrt(k * k + v0)
        den = np.cos(2 * kp * a) - 0.5j * (kp / k + k / kp) * np.sin(2 * kp * a)
        t = np.exp(-2j * k * a) / den
        r = np.exp(-2j * k * a) * (-0.5j) * (kp / k - k / kp) * np.sin(2 * kp * a) / den
        return t, r
    grid = Grid1D(-20.0, 20.0, 8001)
    for k in (0.3, 1.0, 3.0):
        t, r = exact(k)
        sol = jost_solutions(square_well(v0, a), k, grid)
        assert abs(abs(sol.T) - abs(t)) < 1e-8
        assert abs(abs(sol.R) - abs(r)) < 1e-8


def test_wronskian_constancy_and_value():
    sol = jost_solutions(sech2(), 1.0, GRID)
    w = sol.wronskian()[200:-200]
    wmid = w[len(w) // 2]
    assert np.max(np.abs(w - wmid)) / abs(wmid) < 1e-8
    # W(y1, y2) = -2ik * transition
    assert wmid == pytest.approx(-2j * 1.0 * sol.transition, rel=1e-10)


def test_transition_nonzero_over_k_sweep():
    for k in np.geomspace(0.05, 10.0, 12):
        sol = jost_solutions(sech2(), float(k), GRID)
        assert abs(sol.transition) > 0.0
        assert abs(sol.T) > 1e-6


def test_jost_domain_errors():
    with pytest.raises(DomainError):
        jost_solutions(sech2(), -1.0, GRID)
    with pytest.raises(DomainError):
        scattering_states(sech2(), -2.0, GRID)


def test_scattering_state_free():
    x = GRID.points
    E = 2.0
    psi = scattering_states(zero_potential(), E, GRID)[0]
    ref = np.exp(1j * math.sqrt(E) * x) / math.sqrt(4 * math.pi * math.sqrt(E))
    assert np.allclose(psi, ref, atol=1e-10)


def test_scattering_state_parts_nonvanishing():
    for l in (1, 2):
        psi = scattering_states(sech2(), 1.0, GRID)[l - 1]
        assert np.max(np.abs(psi.real)) > 1e-3
        assert np.max(np.abs(psi.imag)) > 1e-3


def test_scattering_state_constant_modulus_tails():
    # |T| = 1 for the reflectionless well: |Psi_1| constant in both tails
    psi = scattering_states(sech2(), 1.0, GRID)[0]
    for sl in (slice(0, 400), slice(-400, None)):
        mod = np.abs(psi[sl])
        assert np.max(mod) - np.min(mod) < 1e-8


LAP_GRID = Grid1D(-3000.0, 3000.0, 120001)


def _bump(grid, center=0.31):
    x = grid.points
    f = np.exp(-((x - center) ** 2)) / np.sqrt(1 + x**2)
    return f / math.sqrt(grid.h * np.dot(f, f))


def limiting_resolvent(v0, E, f, g, grid):
    # boundary value <(H - E - i0)^(-1) f, g>, linear in the first slot
    return grid.h * np.dot(outgoing_solve(v0, grid, E, f[1:-1]), np.conj(g[1:-1]))


def test_limiting_resolvent_free_green_oracle():
    # oracle: quadrature of the outgoing free kernel +i e^(ik|x-x'|)/(2k)
    E = 1.0
    vals = []
    for g in (LAP_GRID, LAP_GRID.refined()):
        vals.append(limiting_resolvent(zero_potential(), E, _bump(g), _bump(g), g))
    val = richardson(vals[0], vals[1])
    xs = np.linspace(-9.0, 9.0, 2401)
    hh = xs[1] - xs[0]
    ff = np.exp(-((xs - 0.31) ** 2)) / np.sqrt(1 + xs**2)
    ff /= math.sqrt(hh * np.dot(ff, ff))
    kern = 1j * np.exp(1j * math.sqrt(E) * np.abs(xs[:, None] - xs[None, :])) / (2 * math.sqrt(E))
    oracle = hh * hh * np.einsum("i,ij,j->", ff, kern, ff)
    assert abs(val - oracle) / abs(oracle) < 1e-5
    assert val.imag > 0


def test_limiting_resolvent_positive_imaginary_part():
    for c in (-1.0, 0.0, 0.8):
        f = _bump(LAP_GRID, center=c)
        val = limiting_resolvent(sech2(), 1.0, f, f, LAP_GRID)
        assert val.imag > 0


def test_limiting_resolvent_rank_two():
    E = 1.0
    fam = [_bump(LAP_GRID, c) for c in (-1.2, -0.4, 0.3, 0.9, 1.7)]
    G = np.zeros((5, 5), complex)
    for i in range(5):
        for j in range(5):
            G[i, j] = limiting_resolvent(zero_potential(), E, fam[i], fam[j], LAP_GRID)
    im_part = (G - G.conj().T) / 2j
    sv = np.linalg.svd(im_part, compute_uv=False)
    assert sv[1] > 1e-2 * sv[0]       # genuinely rank >= 2
    assert sv[2] < 1e-6 * sv[0]       # and no more


def test_limiting_resolvent_bounded_on_compact_interval():
    f = _bump(LAP_GRID)
    vals = [abs(limiting_resolvent(sech2(), E, f, f, LAP_GRID))
            for E in (0.5, 0.8, 1.0, 1.5, 2.0)]
    assert max(vals) < 10.0


OPEN = st.floats(1e-9, 4.0 - 1e-9)     # h^2 eps inside the discrete band
CLOSED = st.floats(-40.0, -1e-9)       # h^2 eps below it


@settings(max_examples=200, deadline=None)
@given(h=st.floats(1e-3, 0.5), s=st.one_of(OPEN, CLOSED))
def test_outgoing_root_branch(h, s):
    eps = s / h**2
    t = 1.0 - 0.5 * h * h * eps
    zeta = outgoing_root(eps, h)
    assert abs(zeta + 1.0 / zeta - 2.0 * t) <= 1e-14 * (1.0 + abs(t))
    assert abs(zeta) <= 1.0 + 1e-15
    if eps > 0:  # open: on the unit circle, outgoing
        assert isinstance(zeta, complex) and zeta.imag > 0
        assert abs(zeta) == pytest.approx(1.0, abs=1e-15)
    else:  # closed: real and decaying
        assert isinstance(zeta, float) and 0.0 < zeta < 1.0
    # the E + i0 branch: the limit of the root inside the unit circle at
    # eps + i delta, with delta well inside the distance to either threshold
    tc = 1.0 - 0.5 * complex(s, 1e-6 * min(abs(s), 4.0 - s))
    root = np.sqrt((tc - 1.0) * (tc + 1.0))
    inside = 1.0 / max(tc + root, tc - root, key=abs)
    assert abs(inside - zeta) <= 1e-4 * min(abs(1.0 - zeta), abs(1.0 + zeta))


def test_outgoing_root_threshold_rejected():
    for eps in (0.0, 16.0):  # zeta = 1 and zeta = -1 at h = 1/2
        with pytest.raises(DomainError, match="threshold"):
            outgoing_root(eps, 0.5)


@pytest.mark.parametrize("eps", [-0.7, 0.9, 3.0])
def test_outgoing_solve_is_whole_line_green_function(eps):
    # v0 = 0: the closed box is exact, G_jk = h^2 zeta^|j-k| / (1/zeta - zeta)
    grid = Grid1D(-3.0, 3.0, 61)
    h = grid.h
    zeta = outgoing_root(eps, h)
    j = np.arange(grid.n - 2)
    want = h * h * zeta ** np.abs(j[:, None] - j[None, :]) / (1.0 / zeta - zeta)
    got = outgoing_solve(zero_potential(), grid, eps, np.eye(grid.n - 2))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jost_tail_residual_accuracy_error():
    # Jost matching on a too-narrow grid is an accuracy failure, not a usage one
    with pytest.raises(AccuracyError):
        jost_solutions(sech2(), 1.0, Grid1D(-4.0, 4.0, 400))


def test_scattering_states_share_one_jost_solve(monkeypatch):
    from landau import schrodinger1d

    sols = []
    real = schrodinger1d.jost_solutions
    monkeypatch.setattr(schrodinger1d, "jost_solutions",
                        lambda *args: sols.append(real(*args)) or sols[-1])
    both = scattering_states(sech2(), 1.0, GRID)
    assert len(sols) == 1
    # Psi_l = y_l T / sqrt(4 pi k) at k = 1, both from the one solve
    for y, psi in zip((sols[0].y1, sols[0].y2), both):
        assert psi.tobytes() == (y * sols[0].T / math.sqrt(4.0 * math.pi)).tobytes()


def _march_envelope_loop(vp, vm, vmid, h, k, sigma, backward):
    """The scalar RK4 loop that ``_march_envelope`` replaced: the oracle of
    its propagator product."""
    n = len(vp)
    u = np.empty(n, dtype=complex)
    p = np.empty(n, dtype=complex)
    c = -2j * sigma * k
    if backward:
        rng = range(n - 1, 0, -1)
        dh = -h
        u[-1], p[-1] = 1.0, 0.0
    else:
        rng = range(0, n - 1)
        dh = h
        u[0], p[0] = 1.0, 0.0
    for i in rng:
        j = i - 1 if backward else i + 1
        v_start = vm[i] if backward else vp[i]
        v_mid = vmid[min(i, j)]
        v_end = vp[j] if backward else vm[j]
        ui, pi = u[i], p[i]
        k1u, k1p = pi, v_start * ui + c * pi
        au, ap = ui + 0.5 * dh * k1u, pi + 0.5 * dh * k1p
        k2u, k2p = ap, v_mid * au + c * ap
        au, ap = ui + 0.5 * dh * k2u, pi + 0.5 * dh * k2p
        k3u, k3p = ap, v_mid * au + c * ap
        au, ap = ui + dh * k3u, pi + dh * k3p
        k4u, k4p = ap, v_end * au + c * ap
        u[j] = ui + dh / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        p[j] = pi + dh / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return u, p


_FAMILIES = {"sech2": sech2, "square_well": square_well, "zero": zero_potential}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), k=st.floats(0.05, 5.0),
       steps_per_unit=st.integers(10, 60), sigma=st.sampled_from([1, -1]),
       backward=st.booleans())
def test_propagator_march_matches_scalar_loop(family, k, steps_per_unit, sigma,
                                              backward):
    # n = 201 .. 1201 on [-10, 10]: h = 1/steps_per_unit puts the square
    # well's jumps at +-1 on nodes, where vp and vm differ
    v0 = _FAMILIES[family]()
    grid = Grid1D(-10.0, 10.0, 20 * steps_per_unit + 1)
    x, h = grid.points, grid.h
    vp = np.asarray(v0.evaluate(x + 1e-9 * h), dtype=float)
    vm = np.asarray(v0.evaluate(x - 1e-9 * h), dtype=float)
    vmid = np.asarray(v0.evaluate(x[:-1] + 0.5 * h), dtype=float)
    u, p = _march_envelope(vp, vm, vmid, h, k, sigma, backward)
    u_ref, p_ref = _march_envelope_loop(vp, vm, vmid, h, k, sigma, backward)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    # v0 = 0 keeps p exactly 0 in both
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))


_FLUX_GRID = Grid1D(-20.0, 20.0, 4001)  # h = 0.01: multiples of 0.05 are nodes


@st.composite
def _longitudinal_wells(draw):
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    if family == "sech2":
        return sech2(depth=draw(st.floats(0.2, 6.0)))
    if family == "square_well":
        return square_well(depth=draw(st.floats(0.1, 2.0)),
                           half_width=0.05 * draw(st.integers(5, 40)))
    return zero_potential()


@settings(max_examples=60, deadline=None)
@given(v0=_longitudinal_wells(), k=st.floats(0.05, 5.0))
def test_flux_conservation_property(v0, k):
    # |T|^2 + |R|^2 = 1: jost_solutions refuses a defect above 1e-4; at h = 0.01
    # the RK4 defect is O(h^4): a scan of these families peaked at 2.3e-9
    # (square well of depth 2, its jumps on nodes), so 1e-8 is four decades
    # tighter
    assert jost_solutions(v0, k, _FLUX_GRID).flux_defect < 1e-8
