from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refcase
from landau.errors import DomainError
from landau.operators import (AssembledOperator, BasisTruncation, assemble,
                              embedded_eigenpair)
from landau.potentials import gaussian_product
from landau.resonance import (
    ResonanceResult,
    _lsq_poly,
    continue_in_kappa,
    find_eigenvalue_near,
    fit_expansion,
    isolation_radius,
    theta_independence,
)
from landau.schrodinger1d import Grid1D, bound_states

PROBLEM = refcase.problem()
BASIS = refcase.basis()


def test_find_eigenvalue_unperturbed():
    pair = embedded_eigenpair(PROBLEM, BASIS, 1)
    op = assemble(PROBLEM, BASIS, theta=0.3j)
    w, u, res, its = find_eigenvalue_near(op, pair.energy, x0=pair.vector)
    # dilated discrete eigenvalue sits within discretization distance of 2b + lambda
    assert abs(w - pair.energy) < 1e-4
    assert res < 1e-10


def test_residual_certificate_along_branch():
    for r in refcase.branch_pair()[0]:
        assert r.residual < 1e-10
        assert r.w.imag <= 1e-10


def test_small_matrix_dense_oracle():
    basis = BasisTruncation(J=4, grid=Grid1D(-12.0, 12.0, 101))  # dim = 396
    pair = embedded_eigenpair(PROBLEM, basis, 1)
    op = assemble(PROBLEM, basis, theta=0.3j, kappa=0.05)
    w, _, res, _ = find_eigenvalue_near(op, pair.energy, x0=pair.vector)
    dense_ev = np.linalg.eigvals(op.dense())
    assert np.min(np.abs(dense_ev - w)) < 1e-8


@pytest.mark.parametrize("n", [601, 602])
def test_even_sector_eigenvalue_equals_full(n):
    # the embedded state is even, so its resonance is an eigenvalue of the
    # even sector: half the grid finds the full operator's value
    basis = BasisTruncation(J=5, grid=Grid1D(-18.0, 18.0, n))
    pair = embedded_eigenpair(PROBLEM, basis, 1)
    full = assemble(PROBLEM, basis, theta=0.3j, kappa=0.05)
    sector = assemble(PROBLEM, basis, theta=0.3j, kappa=0.05, even_sector=True)
    assert 2 * sector.dim in (full.dim, full.dim + basis.J)
    w_full, v_full, res_full, _ = find_eigenvalue_near(full, pair.energy, x0=pair.vector)
    w, v, res, _ = find_eigenvalue_near(sector, pair.energy,
                                        x0=sector.restrict(pair.vector))
    assert max(res, res_full) < 1e-10
    assert abs(w - w_full) < 1e-12
    # the residue's pairing keeps its value in sector coordinates
    phi = pair.vector
    alpha_full = (v_full @ phi) ** 2 / (v_full @ v_full)
    alpha = (v @ sector.restrict(phi)) ** 2 / (v @ v)
    assert abs(alpha - alpha_full) < 1e-10


def test_shift_perturbation_stability():
    basis = BasisTruncation(J=4, grid=Grid1D(-14.0, 14.0, 301))
    pair = embedded_eigenpair(PROBLEM, basis, 1)
    op = assemble(PROBLEM, basis, theta=0.3j, kappa=0.05)
    w0, _, _, _ = find_eigenvalue_near(op, pair.energy, x0=pair.vector)
    w1, _, _, _ = find_eigenvalue_near(op, pair.energy + 1e-3, x0=pair.vector)
    assert abs(w0 - w1) < 1e-10


def test_exact_shift_retry():
    # shift exactly on an eigenvalue: factorization retries with a nudge
    basis = BasisTruncation(J=2, grid=Grid1D(-12.0, 12.0, 101))
    pair = embedded_eigenpair(PROBLEM, basis, 1)
    op = assemble(PROBLEM, basis, theta=0.3j)
    w0, _, _, _ = find_eigenvalue_near(op, pair.energy, x0=pair.vector)
    w1, _, res, _ = find_eigenvalue_near(op, w0, x0=pair.vector)
    assert abs(w0 - w1) < 1e-9 and res < 1e-10


def test_continuation_zero_coupling_constant():
    branch = continue_in_kappa(PROBLEM, BASIS, 0.3j, 1, [0.0, 0.02, 0.04])
    # with kappa = 0 at the head, the branch starts at the embedded energy
    pair = embedded_eigenpair(PROBLEM, BASIS, 1)
    assert abs(branch[0].w - pair.energy) < 1e-4


def _plain_continuation(problem, basis, theta, q, kappa_grid):
    """The continuation before predicted shifts, kept as the oracle of
    ``continue_in_kappa``: each step starts at the previous eigenvalue."""
    pair = embedded_eigenpair(problem, basis, q)
    shift, x0 = complex(pair.energy), pair.vector.astype(complex)
    ws = []
    for kappa in kappa_grid:
        op = assemble(problem, basis, theta=theta, kappa=float(kappa))
        shift, x0, _, _ = find_eigenvalue_near(op, shift, x0=x0)
        ws.append(shift)
    return ws


def test_predicted_shifts_keep_the_branch_and_save_factorizations(monkeypatch):
    basis = refcase.basis(n=601, J=5)
    kappas = np.linspace(0.0, 0.08, 9)
    plain = _plain_continuation(PROBLEM, basis, 0.3j, 1, kappas)
    shifts = []
    real = AssembledOperator.factorized

    def counted(self, shift=0.0):
        shifts.append(shift)
        return real(self, shift)

    monkeypatch.setattr(AssembledOperator, "factorized", counted)
    branch = continue_in_kappa(PROBLEM, basis, 0.3j, 1, kappas)
    # the plain loop makes 2 per point; the predictor saves most second ones
    assert len(shifts) <= 12
    floor = max(r.residual for r in branch)
    for r, w in zip(branch, plain):
        assert abs(r.w - w) <= 10 * floor, r.kappa


def test_continuation_grid_validation():
    with pytest.raises(DomainError):
        continue_in_kappa(PROBLEM, BASIS, 0.3j, 1, [0.01, 0.02])
    with pytest.raises(DomainError):
        continue_in_kappa(PROBLEM, BASIS, 0.3j, 1, [0.0, 0.02, 0.015])


def test_branch_lower_half_plane_and_smoothness():
    branch = refcase.richardson_branch()
    ws = np.array([r.w for r in branch])
    ks = np.array([r.kappa for r in branch])
    # extrapolated values carry an O(h^4) residual on top of the raw bound
    assert np.all(ws.imag <= 5e-9)
    # second divided differences bounded (analytic perturbation of simple eigenvalue)
    d2 = np.diff(ws, 2) / np.diff(ks)[0] ** 2
    assert np.max(np.abs(d2)) < 1.0


def test_sign_flip_of_coupling():
    # kappa -> -kappa flips the linear term; Im w stays below the axis.
    # realized by flipping the sign of V and rerunning the positive-kappa branch.
    neg = replace(PROBLEM, V=gaussian_product(amplitude=-1.0))
    branch_neg = continue_in_kappa(neg, BASIS, 0.3j, 1, [0.0, 0.02, 0.04, 0.06, 0.08])
    branch_pos = refcase.branch_pair()[0]
    fit_pos = fit_expansion(branch_pos)
    fit_neg = fit_expansion(branch_neg)
    assert fit_neg.c1.real == pytest.approx(-fit_pos.c1.real, rel=1e-6)
    assert fit_neg.c2.imag == pytest.approx(fit_pos.c2.imag, rel=2e-2)
    assert all(r.w.imag <= 1e-10 for r in branch_neg)


def test_fit_zero_perturbation_branch():
    branch = continue_in_kappa(PROBLEM, BASIS, 0.3j, 1,
                               [0.0, 0.01, 0.02, 0.03, 0.04])
    flat = [ResonanceResult(r.kappa, branch[0].w, r.residual, r.iterations,
                            r.theta_used) for r in branch]
    fit = fit_expansion(flat)
    assert abs(fit.c1) < 1e-12 and abs(fit.c2) < 1e-9


def test_reference_expansion_coefficients():
    fit = refcase.reference_fit()
    res = refcase.reference_fgr()
    lam, _ = bound_states(PROBLEM.v0, BASIS.grid)[0].lam, None
    # c0 = 2b + lambda (continuum value: the branch is Richardson-extrapolated)
    assert abs(fit.c0 - 1.0) < 1e-6
    assert abs(fit.c0.imag) < 1e-7
    # c1 against the independent quadrature
    assert abs(fit.c1 - res.first_order) / abs(res.first_order) < 1e-4
    assert abs(fit.c1.imag) < 1e-6
    # c2 = -F: imaginary part against the channel-sum golden rule
    assert fit.c2.imag <= 0
    assert abs(fit.c2.imag + res.im_from_channels) / res.im_from_channels < 5e-2


def test_reference_fit_matches_complex_golden_rule():
    # c2 = -F in full: Re F (second-order shift) and Im F (golden-rule width)
    fit = refcase.reference_fit()
    F = refcase.reference_fgr().F
    assert abs(fit.c2 + F) / abs(F) < 1e-3
    assert fit.c2_uncertainty < 1e-3 * abs(F)
    # the degree is the lowest whose fit reaches the branch's residual floor
    branch = refcase.richardson_branch()
    kappas = np.array([r.kappa for r in branch])
    ws = np.array([r.w for r in branch])
    floor = max(r.residual for r in branch)
    resids = {d: _lsq_poly(kappas, ws, d)[1] for d in range(2, fit.degree + 1)}
    assert resids[fit.degree] <= floor
    assert all(resids[d] > floor for d in range(2, fit.degree))
    assert fit.fit_residual == resids[fit.degree]


_COEF = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(coefs=st.lists(_COEF, min_size=3, max_size=6),
       npts=st.integers(7, 11),
       kmax=st.floats(0.02, 0.1))
def test_fit_degree_rule_recovers_polynomial(coefs, npts, kmax):
    # an exact polynomial of degree 2-5 with every residual at 1e-12; a fit that
    # stops at the floor errs in c_i by at most 1e-12 times the l1 norm of row i
    # of the Vandermonde pseudo-inverse: 1.7e-12, 3.5e-9 and 1.4e-6 on these grids
    kappas = np.linspace(0.0, kmax, npts)
    ws = np.polynomial.polynomial.polyval(kappas, coefs)

    def fit(sign):
        return fit_expansion([ResonanceResult(sign * k, complex(w), 1e-12, 1, 0.3j)
                              for k, w in zip(kappas, ws)])

    # kappa -> -kappa flips c1 and leaves c0 and c2
    for f, c1 in ((fit(1.0), coefs[1]), (fit(-1.0), -coefs[1])):
        assert f.degree <= npts - 2
        assert abs(f.c0 - coefs[0]) < 1e-11
        assert abs(f.c1 - c1) < 1e-8
        assert abs(f.c2 - coefs[2]) < 1e-5


def test_isolation_radius_sane():
    lam = bound_states(PROBLEM.v0, BASIS.grid)[0].lam
    rad = isolation_radius(PROBLEM, BASIS, 0.3j, 1, lam)
    assert 0.05 < rad < 1.0


def test_theta_independence_reference():
    res = theta_independence(PROBLEM, BASIS, 1, 0.05, [0.2j, 0.3j, 0.4j])
    assert res.spread < 1e-5
    assert len(res.values) == 3


def test_theta_independence_kappa_zero():
    res = theta_independence(PROBLEM, BASIS, 1, 0.0, [0.2j, 0.3j, 0.4j])
    assert res.spread < 1e-8


@settings(max_examples=25, deadline=None)
@given(im_thetas=st.lists(st.floats(0.12, 0.48), min_size=2, max_size=2),
       kappa=st.floats(0.02, 0.08))
def test_theta_independence_over_drawn_angles(im_thetas, kappa):
    # criterion 09's bound at any two angles of the sector, not only at 0.2, 0.3, 0.4
    basis = refcase.basis(n=601, J=5)
    res = theta_independence(PROBLEM, basis, 1, kappa, [1j * t for t in im_thetas])
    assert res.spread < 1e-5


def test_continuum_strings_move_with_theta():
    # while the resonance stays put, rotated-continuum eigenvalues move O(Im theta)
    basis = BasisTruncation(J=2, grid=Grid1D(-14.0, 14.0, 201))
    evs = {}
    for th in (0.25j, 0.35j):
        op = assemble(PROBLEM, basis, theta=th, kappa=0.05)
        ev = np.linalg.eigvals(op.dense())
        sel = ev[(ev.real > 0.4) & (ev.real < 0.9)]
        evs[th] = np.median(sel.imag)
    assert abs(evs[0.25j] - evs[0.35j]) > 0.05


def test_branch_jump_detected():
    # a huge kappa step moves the eigenvalue beyond the isolation radius
    basis = BasisTruncation(J=4, grid=Grid1D(-18.0, 18.0, 601))
    from landau.errors import ContinuationError

    with pytest.raises(ContinuationError) as exc:
        continue_in_kappa(PROBLEM, basis, 0.3j, 1, [0.0, 3.0])
    assert len(exc.value.partial) == 1  # the kappa = 0 head survived
