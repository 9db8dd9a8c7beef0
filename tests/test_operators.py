import math
import warnings

import numpy as np
import pytest

import refcase
from landau.errors import DegenerateInputError, DomainError
from landau.fgr import fgr_value
from landau.operators import (
    BasisTruncation,
    LandauProblem,
    assemble,
    commutator_ad,
    commutator_coefficients,
    coupling,
    embedded_eigenpair,
    inertia_counts,
    mourre_quantity,
    symmetric_band_lower,
)
from landau.potentials import (
    Potential1D,
    compact_radial,
    gaussian_product,
    power_radial,
    sech2,
    square_well,
    zero_potential,
)
from landau.resonance import find_eigenvalue_near
from landau.schrodinger1d import Grid1D, bound_states
from landau.sector import EvenSectorOperator
from landau.specfun import RadialMode, radial_eigenfunction

PROBLEM = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)
BASIS = BasisTruncation(J=4, grid=Grid1D(-18.0, 18.0, 901))


def test_block_structure_unperturbed():
    # kappa = 0: exactly zero coupling between radial modes
    op = assemble(PROBLEM, BASIS)
    assert op.coupling is None
    M = op.dense()
    n = op.n_int
    for a in range(op.J):
        for b in range(op.J):
            if a != b:
                blk = M[a * n : (a + 1) * n, b * n : (b + 1) * n]
                assert np.all(blk == 0.0)


def test_unperturbed_spectrum_contains_embedded_energies():
    op = assemble(PROBLEM, BASIS)
    lam = bound_states(PROBLEM.v0, BASIS.grid)[0].lam
    ev = np.linalg.eigvalsh(op.dense())
    # dense eigensolve carries its own eps * ||M|| rounding
    for q in range(BASIS.J):
        assert np.min(np.abs(ev - (2 * q + lam))) < 1e-11


def test_real_dilation_preserves_spectrum():
    basis = BasisTruncation(J=2, grid=Grid1D(-18.0, 18.0, 601))
    lam = bound_states(PROBLEM.v0, basis.grid)[0].lam
    op = assemble(PROBLEM, basis, theta=0.2)
    ev = np.linalg.eigvals(op.dense())
    # bound-state energies move only by discretization error, O(h^2)
    h = basis.grid.h
    assert np.min(np.abs(ev - (2.0 + lam))) < 5.0 * h**2


def test_complex_symmetry_exact():
    op = assemble(PROBLEM, BASIS, theta=0.3j, kappa=0.05)
    M = op.dense()
    assert np.max(np.abs(M - M.T)) == 0.0


def test_continuum_string_rotation():
    # Im theta = 0.3 rotates each continuum branch to angle ~ -2 Im theta
    basis = BasisTruncation(J=2, grid=Grid1D(-18.0, 18.0, 601))
    op = assemble(PROBLEM, basis, theta=0.3j)
    ev = np.linalg.eigvals(op.dense())
    sel = ev[(ev.real > 0.3) & (ev.real < 1.8) & (ev.imag < -1e-6)]
    assert sel.size > 5
    angles = np.angle(sel)
    assert abs(np.median(angles) + 2 * 0.3) < 0.08


def test_dilation_requires_analytic_inputs():
    prob = LandauProblem(b=1.0, v0=square_well(), V=gaussian_product(), m=0)
    with pytest.raises(DomainError):
        assemble(prob, BasisTruncation(J=2, grid=Grid1D(-20.0, 20.0, 801)), theta=0.2j)
    # theta beyond the Gaussian sector bound
    with pytest.raises(DomainError):
        assemble(PROBLEM, BASIS, theta=1.0j, kappa=0.1)


def test_deep_well_rejected():
    # inf spec(H_par) <= -2b violates the fibered-band condition
    prob = LandauProblem(b=0.4, v0=sech2(), V=gaussian_product(), m=0)
    with pytest.raises(DomainError):
        assemble(prob, BASIS)


def test_floor_guard_reads_the_grid_bound_states():
    # the guard takes lambda_0 from the solved bound states: a deep well is
    # refused with the inf spec message by assemble and by fgr alike ...
    prob = LandauProblem(b=0.4, v0=sech2(), V=gaussian_product(), m=0)
    for call in (lambda: assemble(prob, BASIS, kappa=0.05),
                 lambda: fgr_value(prob, BASIS, 1, refine=0)):
        with pytest.raises(DomainError, match=r"inf spec\(H_par\) = -1\.0000\d+ <= -2b"):
            call()
    # ... a v0 with no bound state has nothing to refuse ...
    free = LandauProblem(b=1.0, v0=zero_potential(), V=gaussian_product(), m=0)
    assert bound_states(free.v0, BASIS.grid) == []
    assert assemble(free, BASIS, kappa=0.05).coupling is not None
    # ... and a v0 that is not negligible at the grid ends fails that solve's
    # tail check, so assemble refuses it as ground_state does
    wide = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)
    narrow = BasisTruncation(J=2, grid=Grid1D(-3.0, 3.0, 301))
    with pytest.raises(DomainError, match="not negligible at the grid ends"):
        assemble(wide, narrow)


def test_banded_solver_matches_dense():
    op = assemble(PROBLEM, BASIS, theta=0.3j, kappa=0.05)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    shift = 1.0 + 0.01j
    x_banded = op.factorized(shift).solve(rhs)
    x_dense = np.linalg.solve(op.dense() - shift * np.eye(op.dim), rhs)
    assert np.max(np.abs(x_banded - x_dense)) < 1e-9
    v = rng.standard_normal(op.dim) + 0j
    assert np.max(np.abs(op.matvec(v) - op.dense() @ v)) < 1e-10


def test_embedded_eigenpair():
    lam = bound_states(PROBLEM.v0, BASIS.grid)[0].lam
    op = assemble(PROBLEM, BASIS)
    h = BASIS.grid.h
    for q, kind in [(0, "isolated"), (1, "embedded"), (2, "embedded")]:
        pair = embedded_eigenpair(PROBLEM, BASIS, q)
        assert pair.energy == pytest.approx(2 * q + lam, abs=1e-14)
        r = op.matvec(pair.vector) - pair.energy * pair.vector
        assert math.sqrt(h) * np.linalg.norm(r) < 1e-8
        assert abs(h * np.dot(pair.vector, pair.vector) - 1.0) < 1e-12
        if kind == "isolated":
            assert pair.energy < 2 * PROBLEM.b * PROBLEM.m_minus
        else:
            assert pair.energy > 2 * PROBLEM.b * PROBLEM.m_minus


def test_embedded_eigenpair_negative_m():
    prob = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=-2)
    basis = BasisTruncation(J=3, grid=Grid1D(-18.0, 18.0, 601))
    pair = embedded_eigenpair(prob, basis, q=2)  # q = m_- : isolated
    assert pair.energy < 2 * prob.b * prob.m_minus
    with pytest.raises(DomainError):
        embedded_eigenpair(prob, basis, q=1)  # below m_-


def test_no_bound_state_error():
    prob = LandauProblem(b=1.0, v0=zero_potential(), V=gaussian_product(), m=0)
    with pytest.raises(DomainError):
        embedded_eigenpair(prob, BASIS, q=1)


def test_commutator_coefficients():
    assert commutator_coefficients(1) == {1: -1.0}
    assert commutator_coefficients(2) == {1: 1.0, 2: 1.0}
    c3 = commutator_coefficients(3)
    assert c3 == {1: -1.0, 2: -3.0, 3: -1.0}
    for k in range(1, 7):
        assert commutator_coefficients(k)[k] == (-1.0) ** k


def test_commutator_free_case_exact():
    prob = LandauProblem(b=1.0, v0=zero_potential(), V=gaussian_product(), m=0)
    op = commutator_ad(prob, BASIS, 1)
    h = BASIS.grid.h
    assert np.all(op.hpar_diag == 2 * 2.0 / h**2)
    assert op.hpar_off == -2.0 / h**2
    assert np.all(op.mode_shifts == 0.0)


def test_commutator_k1_general_form():
    # i ad_A(H) = 2 (I x H_0par) - v_1
    op = commutator_ad(PROBLEM, BASIS, 1)
    x = BASIS.grid.interior
    h = BASIS.grid.h
    expect = 2 * 2.0 / h**2 - PROBLEM.v0.weighted_derivative(1, x)
    assert np.allclose(op.hpar_diag, expect, rtol=0, atol=1e-14)


def _dilation_difference_oracle(problem, basis, k, s=1e-3):
    """Richardson central differences of the inverse-dilated family U(-s) H U(s)."""
    hp = assemble(problem, basis, theta=+s).dense()
    hm = assemble(problem, basis, theta=-s).dense()
    h2p = assemble(problem, basis, theta=+2 * s).dense()
    h2m = assemble(problem, basis, theta=-2 * s).dense()
    if k == 1:
        return (8 * (hm - hp) - (h2m - h2p)) / (12 * s)
    if k == 2:
        h0 = assemble(problem, basis).dense()
        return (16 * (hp + hm - 2 * h0) - (h2p + h2m - 2 * h0)) / (12 * s * s)
    raise ValueError(k)


def test_commutator_matches_dilation_oracle():
    for k in (1, 2):
        oracle = _dilation_difference_oracle(PROBLEM, BASIS, k)
        ad = commutator_ad(PROBLEM, BASIS, k).dense()
        scale = np.max(np.abs(ad))
        denom = np.maximum(np.abs(ad), 1e-3 * scale)
        tol = 1e-6 if k == 1 else 1e-5
        assert np.max(np.abs(oracle - ad) / denom) < tol


def test_commutator_requires_derivatives():
    prob = LandauProblem(b=1.0, v0=square_well(), V=gaussian_product(), m=0)
    with pytest.raises(DomainError):
        commutator_ad(prob, BasisTruncation(J=2, grid=Grid1D(-20.0, 20.0, 801)), 1)


def test_mourre_positive_reference():
    val = mourre_quantity(PROBLEM, BASIS, q=1, delta=0.1)
    assert val > 0.0


def test_mourre_scalar_at_bottom():
    # q = m_-: the window sits below the essential spectrum; rank-one compression
    val = mourre_quantity(PROBLEM, BASIS, q=0, delta=0.1)
    # the scalar is the discrete virial defect of the bound state: small
    assert abs(val) < 1e-2


def test_mourre_empty_window():
    # far window with no spectrum: b large pushes everything away
    prob = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=3)
    basis = BasisTruncation(J=3, grid=Grid1D(-18.0, 18.0, 601))
    with pytest.raises((DegenerateInputError, DomainError)):
        mourre_quantity(prob, basis, q=30, delta=0.1)


def test_mourre_constant_shift_invariance():
    v = sech2()
    c = 0.3
    vshift = Potential1D(
        evaluate=lambda x: np.asarray(v.evaluate(x)) + c,
        derivatives=v.derivatives,
        theta0=None,
    )
    prob_shift = LandauProblem(b=1.0, v0=vshift, V=gaussian_product(), m=0)
    base = mourre_quantity(PROBLEM, BASIS, q=1, delta=0.1)
    shifted = mourre_quantity(prob_shift, BASIS, q=1, delta=0.1, check_tails=False)
    assert shifted == pytest.approx(base, abs=1e-8)


RADIAL_FAMILIES = {
    "gaussian_product": gaussian_product(),
    "power_radial_1": power_radial(alpha=1.0, x3_rate=1.0),
    "power_radial_4": power_radial(alpha=4.0, x3_rate=1.0),
    "compact_radial_1": compact_radial(radius=1.0, x3_rate=1.0),
    "compact_radial_3": compact_radial(radius=3.0, x3_rate=1.0),
}


@pytest.mark.parametrize("m", [-1, 0, 2])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("family", sorted(RADIAL_FAMILIES))
def test_coupling_matches_adaptive_quadrature(family, b, m):
    # C_aq(x3) against scipy's adaptive quadrature split at the declared
    # breaks, to 1e-12 of int |phi_a phi_q V| rho drho (the rounding scale of
    # the integral: a near-orthogonal pair can sum to 1e-6 of it), for an
    # adjacent, the diagonal and a distant a at x3 = 0, 1.6 and -1.6.  The
    # Gauss-Laguerre rule sized by J, which this replaced, missed by up to
    # 1.5e-3 (power_radial) and 15% (compact_radial) at J = 7
    V = RADIAL_FAMILIES[family]
    prob = LandauProblem(b=b, v0=sech2(), V=V, m=m)
    basis = BasisTruncation(J=4, grid=Grid1D(-3.2, 3.2, 5))  # x3 = -1.6, 0, 1.6
    c = coupling(prob, basis, 0j)
    qs = basis.landau_indices(m)
    phi_q = RadialMode(b, int(qs[1]), m)
    for a, i in [(0, 1), (1, 2), (3, 0)]:
        phi_a = RadialMode(b, int(qs[a]), m)
        x3 = basis.grid.interior[i]

        def f(r):
            return float(radial_eigenfunction(phi_a, r) * radial_eigenfunction(phi_q, r)
                         * V.evaluate(r, x3))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad's roundoff notes at 1e-13
            want, mass = refcase.radial_quad(f, b, int(qs[-1]) + abs(m), V.breaks)
        assert abs(c[a, 1, i] - want) <= 1e-12 * mass, (a, x3, c[a, 1, i], want)


# -- the even sector


@pytest.mark.parametrize("n", [121, 122])  # odd and even interior counts
@pytest.mark.parametrize("theta", [0.0, 0.3j])
def test_even_sector_is_the_compression_to_even_vectors(n, theta):
    # S^T M S from the full operator, and M S = S (S^T M S): the sector is
    # invariant, which is what lets even solves run on it
    basis = BasisTruncation(J=3, grid=Grid1D(-12.0, 12.0, n))
    full = assemble(PROBLEM, basis, theta=theta, kappa=0.3)
    sector = assemble(PROBLEM, basis, theta=theta, kappa=0.3, even_sector=True)
    S = refcase.even_sector_basis(3, n - 2)
    assert sector.dim == S.shape[1] == 3 * ((n - 1) // 2)
    M = full.dense()
    scale = np.abs(M).max()
    assert np.abs(sector.dense() - S.T @ M @ S).max() <= 1e-14 * scale
    assert np.abs(M @ S - S @ sector.dense()).max() <= 1e-14 * scale
    v = np.random.default_rng(n).standard_normal(full.dim)
    assert np.abs(sector.restrict(v) - S.T @ v).max() <= 1e-15 * np.abs(v).max()
    assert np.abs(sector.matvec(S.T @ v) - sector.dense() @ (S.T @ v)).max() <= (
        1e-14 * scale * np.abs(v).max())


@pytest.mark.parametrize("grid, J, kappa", [
    (Grid1D(-12.0, 12.0, 121), 3, 0.3), (Grid1D(-12.0, 12.0, 122), 3, 0.3),
    (Grid1D(-18.0, 18.0, 601), 5, 0.05), (Grid1D(-18.0, 18.0, 602), 5, 0.05),
])
@pytest.mark.parametrize("theta", [0.0, 0.3j])
def test_even_sector_owns_its_half_coupling_with_the_bits_of_a_view(grid, J, kappa,
                                                                    theta):
    # the sector contracts C on x3 >= 0 only, into memory of its own, and
    # computes bit for bit what a sector built on a view of the full C does
    basis = BasisTruncation(J=J, grid=grid)
    full = assemble(PROBLEM, basis, theta=theta, kappa=kappa)
    sector = assemble(PROBLEM, basis, theta=theta, kappa=kappa, even_sector=True)
    view = EvenSectorOperator(full.kappa, full.mode_shifts, full.hpar_diag, full.hpar_off,
                              full.coupling[:, :, full.n_int // 2:])
    assert sector.coupling.shape == (J, J, sector.n_int)
    assert sector.coupling.flags.owndata
    assert not np.shares_memory(sector.coupling, full.coupling)
    if sector.dim < 1000:
        assert sector.dense().tobytes() == view.dense().tobytes()
    rng = np.random.default_rng(grid.n)
    rhs = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
    assert sector.matvec(rhs).tobytes() == view.matvec(rhs).tobytes()
    shift = 2.0 + 0.5j
    assert (sector.factorized(shift).solve(rhs).tobytes()
            == view.factorized(shift).solve(rhs).tobytes())
    if theta:
        pair = embedded_eigenpair(PROBLEM, basis, 1)
        x0 = sector.restrict(pair.vector)
        w, v, res, its = find_eigenvalue_near(sector, pair.energy, x0=x0)
        w_view, v_view, res_view, its_view = find_eigenvalue_near(view, pair.energy,
                                                                  x0=x0)
        assert (w, res, its) == (w_view, res_view, its_view)
        assert v.tobytes() == v_view.tobytes()


def _undeclared(v0):
    return Potential1D(evaluate=v0.evaluate, derivatives=v0.derivatives, theta0=v0.theta0)


@pytest.mark.parametrize("problem, grid", [
    (PROBLEM, Grid1D(-17.0, 18.0, 121)),  # asymmetric grid
    (LandauProblem(b=1.0, v0=_undeclared(sech2()), V=gaussian_product(), m=0),
     Grid1D(-12.0, 12.0, 121)),  # v0 not declared even
])
def test_even_sector_needs_a_declared_symmetry(problem, grid):
    basis = BasisTruncation(J=3, grid=grid)
    op = assemble(problem, basis, theta=0.3j, kappa=0.05, even_sector=True)
    assert op.dim == basis.J * (grid.n - 2)
    assert op.coupling.shape == (basis.J, basis.J, grid.n - 2)  # the full grid's C
    v = np.arange(op.dim, dtype=float)
    assert op.restrict(v) is v


def test_layouts_of_D_refuse_a_sector_operator():
    # D and a scalar hpar_off would drop the sector's first link
    basis = BasisTruncation(J=2, grid=Grid1D(-12.0, 12.0, 61))
    op = assemble(PROBLEM, basis, kappa=0.05, even_sector=True)
    with pytest.raises(DomainError, match="first link"):
        symmetric_band_lower(op.D, op.hpar_off)
    with pytest.raises(DomainError, match="first link"):
        inertia_counts(op.D[None], op.hpar_off, [0.0], [op.norm_estimate()])
