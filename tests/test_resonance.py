from dataclasses import replace

import numpy as np
import pytest

import refcase
from landau.errors import DomainError
from landau.operators import BasisTruncation, assemble, embedded_eigenpair
from landau.potentials import gaussian_product
from landau.resonance import (
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
    fit_pos = fit_expansion(branch_pos, cubic_fraction=1.0)
    fit_neg = fit_expansion(branch_neg, cubic_fraction=1.0)
    assert fit_neg.c1.real == pytest.approx(-fit_pos.c1.real, rel=1e-6)
    assert fit_neg.c2.imag == pytest.approx(fit_pos.c2.imag, rel=2e-2)
    assert all(r.w.imag <= 1e-10 for r in branch_neg)


def test_fit_zero_perturbation_branch():
    branch = continue_in_kappa(PROBLEM, BASIS, 0.3j, 1,
                               [0.0, 0.01, 0.02, 0.03, 0.04])
    from landau.resonance import ResonanceResult

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
