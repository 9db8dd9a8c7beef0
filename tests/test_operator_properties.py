"""Property tests of the block-tridiagonal operator core.

Inertia counting is checked against dense eigenvalues on random real
operators, one at a time and in stacks on one grid.  The derived diagonal
blocks and the matrix-vector product are checked bit for bit against the
stored-block kernels they replaced, the per-shift band against a fancy-index
scatter of those blocks, its factorization against dense solves on dilated
operators and against itself, and the pole search and assembly against memory
bounds of one live band and no block array.  The assembled diagonal blocks are
exactly complex symmetric and carry the shared longitudinal stencil bit for
bit.  On the even sector, an even right-hand side solves as on the full grid.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import refcase
from landau import operators, toeplitz_ssf
from landau.errors import SolverError
from landau.operators import (AssembledOperator, BasisTruncation, LandauProblem, assemble,
                              embedded_eigenpair)
from landau.potentials import gaussian_product, sech2
from landau.resonance import find_eigenvalue_near
from landau.schrodinger1d import Grid1D, bound_states, hamiltonian_tridiagonal
from landau.specfun import m_minus
from landau.toeplitz_ssf import gap_accumulation_check

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


def _real_operator(draw, J, n, uncoupled=False):
    m = draw(st.integers(-2, 3))
    kappa = 0.0 if uncoupled else (draw(st.floats(0.05, 3.0))
                                   * draw(st.sampled_from([-1.0, 1.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid1D(-18.0, 18.0, n)
    h = grid.h
    qs = np.arange(m_minus(m), m_minus(m) + J)
    coupling = rng.standard_normal((J, J, n - 2))
    coupling = 0.5 * (coupling + coupling.transpose(1, 0, 2))
    return AssembledOperator(
        kappa=kappa, mode_shifts=2.0 * qs,
        hpar_diag=2.0 / h**2 + rng.uniform(-2.0, 0.0, n - 2),
        hpar_off=-1.0 / h**2, coupling=coupling,
    )


@st.composite
def real_operators(draw):
    """Random real block-tridiagonal operators with the assembled layout."""
    return _real_operator(draw, draw(st.integers(1, 4)), draw(st.integers(20, 80)))


@st.composite
def real_operator_stacks(draw):
    """One to four random real operators on one grid (different m and kappa)."""
    J = draw(st.integers(1, 4))
    n = draw(st.integers(20, 80))
    return [_real_operator(draw, J, n) for _ in range(draw(st.integers(1, 4)))]


@SETTINGS
@given(op=real_operators(), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
       side=st.sampled_from([-1.0, 1.0]))
def test_count_below_equals_dense_count(op, fracs, picks, side):
    ev = np.linalg.eigvalsh(op.dense())
    across = ev[0] - 1.0 + (ev[-1] - ev[0] + 2.0) * np.array(fracs)
    near = ev[np.array(picks) % len(ev)] + side * 1e-9  # 1e-9 off an eigenvalue
    sigmas = np.concatenate([across, near])
    counts, singular, _ = operators.inertia_counts(op.D[None], op.hpar_off, sigmas,
                                                   [op.norm_estimate()])
    assume(not singular[0])  # the guard refused the sweep; the gap check recounts then
    got = counts[0]
    want = np.array([np.count_nonzero(ev < s) for s in sigmas])
    assert np.array_equal(got, want)


def test_count_below_guard_on_singular_schur_block():
    diag = np.linspace(1.0, 2.0, 10)
    op = AssembledOperator(kappa=0.0, mode_shifts=[0.0], hpar_diag=diag, hpar_off=-0.1,
                           coupling=None)
    _, singular, _ = operators.inertia_counts(op.D[None], op.hpar_off, [diag[0]],
                                              [op.norm_estimate()])
    assert singular[0]  # S_0 = D_0 - sigma = 0 exactly


@SETTINGS
@given(ops=real_operator_stacks(),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6)),
                      min_size=1, max_size=3),
       side=st.sampled_from([-1.0, 1.0]), singular=st.integers(0, 3))
def test_inertia_counts_on_a_stack_equal_dense_counts(ops, fracs, picks, side, singular):
    evs = [np.linalg.eigvalsh(op.dense()) for op in ops]
    lo = min(ev[0] for ev in evs)
    hi = max(ev[-1] for ev in evs)
    across = lo - 1.0 + (hi - lo + 2.0) * np.array(fracs)
    near = [evs[k % len(ops)][i % len(evs[0])] + side * 1e-9 for k, i in picks]
    sigmas = np.concatenate([across, near])
    D = np.stack([op.D for op in ops])
    norms = [op.norm_estimate() for op in ops]
    counts, flagged, _ = operators.inertia_counts(D, ops[0].hpar_off, sigmas, norms)
    assume(not flagged.any())  # the guard refused a member; the gap check recounts it
    for k, ev in enumerate(evs):
        assert np.array_equal(counts[k], [np.count_nonzero(ev < s) for s in sigmas])

    bad = singular % len(ops)
    D[bad, 0] = sigmas[0] * np.eye(ops[0].J)  # S_0 = D_0 - sigma = 0 exactly
    again, flagged, _ = operators.inertia_counts(D, ops[0].hpar_off, sigmas, norms)
    assert np.array_equal(flagged, np.arange(len(ops)) == bad)
    others = np.arange(len(ops)) != bad
    assert np.array_equal(again[others], counts[others])


@SETTINGS
@given(J=st.integers(1, 3), n=st.integers(41, 121), im_theta=st.floats(0.05, 0.45),
       kappa=st.floats(-0.1, 0.1), re_shift=st.floats(-2.0, 6.0),
       im_shift=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
def test_cached_band_solve_matches_dense(J, n, im_theta, kappa, re_shift, im_shift,
                                         seed):
    problem = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)
    basis = BasisTruncation(J=J, grid=Grid1D(-18.0, 18.0, n))
    op = assemble(problem, basis, theta=1j * im_theta, kappa=kappa)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    shift = complex(re_shift, im_shift)
    x_band = op.factorized(shift).solve(rhs)
    x_dense = np.linalg.solve(op.dense() - shift * np.eye(op.dim), rhs)
    assert np.max(np.abs(x_band - x_dense)) <= 1e-9 * np.max(np.abs(x_dense))


@SETTINGS
@given(J=st.integers(1, 3), n=st.integers(41, 122), im_theta=st.floats(0.0, 0.45),
       kappa=st.floats(-0.1, 0.1), re_shift=st.floats(-2.0, 6.0),
       im_shift=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
def test_even_sector_solve_equals_full_solve(J, n, im_theta, kappa, re_shift, im_shift,
                                             seed):
    # an even right-hand side has an even solution, which the sector finds on
    # half the grid, for odd and even interior counts
    problem = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)
    basis = BasisTruncation(J=J, grid=Grid1D(-18.0, 18.0, n))
    full = assemble(problem, basis, theta=1j * im_theta, kappa=kappa)
    sector = assemble(problem, basis, theta=1j * im_theta, kappa=kappa, even_sector=True)
    S = refcase.even_sector_basis(J, n - 2)
    rng = np.random.default_rng(seed)
    rhs = S @ (rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim))
    shift = complex(re_shift, im_shift)
    x_full = full.factorized(shift).solve(rhs)
    x_sector = S @ sector.factorized(shift).solve(sector.restrict(rhs))
    assert np.max(np.abs(x_sector - x_full)) <= 1e-12 * np.max(np.abs(x_full))


@SETTINGS
@given(J=st.integers(1, 3), n=st.integers(41, 121),
       im_theta=st.floats(0.0, 0.45, exclude_min=True, exclude_max=True),
       kappa=st.floats(-0.1, 0.1))
def test_dilated_blocks_symmetric_and_share_the_stencil(J, n, im_theta, kappa):
    problem = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)
    basis = BasisTruncation(J=J, grid=Grid1D(-18.0, 18.0, n))
    theta = 1j * im_theta
    op = assemble(problem, basis, theta=theta, kappa=kappa)
    assert op.D.tobytes() == op.D.transpose(0, 2, 1).tobytes()
    d, e = hamiltonian_tridiagonal(problem.v0, basis.grid, theta)
    assert op.hpar_diag.tobytes() == d.tobytes()
    assert np.full_like(e, op.hpar_off).tobytes() == e.tobytes()


@SETTINGS
@given(shifts=st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                          allow_infinity=False),
                       min_size=2, max_size=4))
def test_factorizations_at_one_shift_are_bitwise_equal(shifts):
    op = assemble(refcase.problem(), refcase.basis(n=201, J=3), theta=0.3j, kappa=0.05)
    rhs = np.linspace(-1.0, 1.0, op.dim) + 0.5j
    try:
        first = op.factorized(shifts[0]).solve(rhs)
        for s in shifts[1:]:
            op.factorized(s).solve(rhs)
    except SolverError:
        assume(False)  # a drawn shift landed on an eigenvalue
    again = op.factorized(shifts[0]).solve(rhs)
    assert first.tobytes() == again.tobytes()


def _stored_blocks(op):
    """The diagonal blocks D as operators stored them, built from the whole
    kappa C at once: the oracle of the derived ``op.D`` and, through
    ``_fancy_index_band``, of the band written from the parameters."""
    diag = op.hpar_diag[None, :] + op.mode_shifts[:, None]
    D = np.zeros((op.n_int, op.J, op.J), dtype=float if op.is_real else complex)
    if op.coupling is not None and op.kappa != 0:
        kc = op.kappa * op.coupling
        D[...] = kc.transpose(2, 0, 1)
        diag = diag + np.einsum("aax->ax", kc)
    idx = np.arange(op.J)
    D[:, idx, idx] = diag.T
    return D


def _out_of_place_matvec(op, vec):
    """M vec with the coupling term added out of place: the oracle of the
    in-place ``op.matvec``."""
    v = np.asarray(vec).reshape(op.J, op.n_int)
    out = (op.hpar_diag + op.mode_shifts[:, None]) * v
    out[:, :-1] += op.hpar_off * v[:, 1:]
    out[:, 1:] += op.hpar_off * v[:, :-1]
    if op.coupling is not None and op.kappa != 0:
        out = out + op.kappa * np.einsum("abx,bx->ax", op.coupling, v)
    return out.reshape(-1)


def _fancy_index_band(op, shift):
    """The zgbtrf band of M - shift by one fancy-indexed scatter of the stored
    blocks: the construction the per-mode writes replaced, kept as their
    oracle."""
    J, n, N = op.J, op.n_int, op.dim
    ab = np.zeros((3 * J + 1, N), dtype=complex, order="F")
    a = np.arange(J)[:, None]
    b = np.arange(J)[None, :]
    ab[2 * J + a - b, np.arange(n)[:, None, None] * J + b] = _stored_blocks(op)
    ab[3 * J, : N - J] = op.hpar_off
    ab[J, J:] = op.hpar_off
    ab[2 * J] -= shift
    return ab


@st.composite
def band_operators(draw):
    """Real random operators and dilated assembled ones, J = 1..4, each also
    at kappa = 0 (no coupling term)."""
    J = draw(st.integers(1, 4))
    uncoupled = draw(st.booleans())
    if draw(st.booleans()):
        return _real_operator(draw, J, draw(st.integers(20, 80)), uncoupled)
    problem = LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)
    basis = BasisTruncation(J=J, grid=Grid1D(-18.0, 18.0, draw(st.integers(41, 121))))
    return assemble(problem, basis, theta=1j * draw(st.floats(0.05, 0.45)),
                    kappa=0.0 if uncoupled else draw(st.floats(-0.1, 0.1)))


@SETTINGS
@given(op=band_operators(), seed=st.integers(0, 2**32 - 1), real=st.booleans())
def test_derived_blocks_and_matvec_are_bitwise_the_stored_block_ones(op, seed, real):
    assert op.D.tobytes() == _stored_blocks(op).tobytes()
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(op.dim)
    if not real:
        vec = vec + 1j * rng.standard_normal(op.dim)
    assert op.matvec(vec).tobytes() == _out_of_place_matvec(op, vec).tobytes()


@SETTINGS
@given(op=band_operators(), re_shift=st.floats(-2.0, 6.0), im_shift=st.floats(0.1, 1.0))
def test_shifted_band_and_its_solve_are_bitwise_the_fancy_index_ones(op, re_shift,
                                                                     im_shift):
    shift = complex(re_shift, im_shift)
    band = op._shifted_band(shift)
    oracle = _fancy_index_band(op, shift)
    assert band.tobytes(order="F") == oracle.tobytes(order="F")
    rhs = np.linspace(-1.0, 1.0, op.dim) + 0.5j
    lu, piv, info = operators._lapack.zgbtrf(oracle, op.J, op.J, overwrite_ab=1)
    assert info == 0
    expected = operators._BandSolver(lu, piv, op.J, op.n_int).solve(rhs)
    assert op.factorized(shift).solve(rhs).tobytes() == expected.tobytes()


def test_pole_search_keeps_one_band_alive():
    # dim 10003: two live LUs plus a band under construction would be 3 bands
    problem, basis = refcase.problem(), refcase.basis(n=1431, J=7)
    op = assemble(problem, basis, theta=0.3j, kappa=0.05)
    pair = embedded_eigenpair(problem, basis, 1)
    band_bytes = (3 * op.J + 1) * op.dim * 16
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, _, _, iterations = find_eigenvalue_near(op, pair.energy + 0.01,
                                                   x0=pair.vector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iterations >= 2  # at least two factorizations
    assert peak - start < 1.5 * band_bytes


def test_assembled_operator_holds_no_block_array():
    # with the dilated coupling held, assembly adds only the stencil: storing
    # D, or forming kappa C whole, would each take one block array
    problem, basis = refcase.problem(), refcase.basis(n=1201, J=7)
    held = operators.coupling(problem, basis, 0.3j)
    assemble(problem, basis, theta=0.3j, kappa=0.05)  # solves the -2b guard's states
    block_bytes = (basis.grid.n - 2) * basis.J**2 * 16
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op = assemble(problem, basis, theta=0.3j, kappa=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.coupling is held
    assert peak - start < block_bytes


def test_gap_fallback_reproduces_inertia_counts(monkeypatch):
    problem = refcase.problem()
    basis = refcase.basis(n=401, J=3)
    state = bound_states(problem.v0, basis.grid)[0]
    profile = toeplitz_ssf.transverse_profile(problem.V, state, problem.b)
    top = toeplitz_ssf.toeplitz_eigenvalues(profile, 0, m_max=10).eigenvalues.max()
    for sign in ("-", "+"):
        etas = top * np.array([0.1, 0.03])
        fast = gap_accumulation_check(problem, basis, sign, etas, profile=profile)
        shifts_per_m = len(etas) + (sign == "+")
        assert fast.inertia_sweeps == fast.m_used + 1
        assert fast.inertia_shifts == fast.inertia_sweeps * shifts_per_m
        assert fast.eig_banded_fallbacks == 0

        def refuse(D, hpar_off, sigmas, norms):
            # every block flagged singular
            return (np.zeros((len(D), len(sigmas)), dtype=int),
                    np.ones(len(D), dtype=bool), 0)

        with monkeypatch.context() as mp:
            mp.setattr(toeplitz_ssf, "inertia_counts", refuse)
            slow = gap_accumulation_check(problem, basis, sign, etas, profile=profile)
        assert slow.rows == fast.rows
        assert slow.m_used == fast.m_used
        assert (slow.inertia_sweeps, slow.inertia_shifts) == (0, 0)
        assert slow.eig_banded_fallbacks == fast.m_used + 1


def test_cached_coupling_gives_the_bits_of_a_fresh_one():
    problem, basis = refcase.problem(), refcase.basis(n=201, J=3)
    rhs = np.linspace(-1.0, 1.0, basis.J * (basis.grid.n - 2)) + 0.25j
    for theta in (0.0, 0.3j):
        op = assemble(problem, basis, theta=theta, kappa=0.05)
        # the next kappa reads the same read-only coupling
        assert assemble(problem, basis, theta=theta, kappa=0.07).coupling is op.coupling
        assert not op.coupling.flags.writeable
        operators._COUPLINGS.clear()
        fresh = operators.coupling(problem, basis, complex(theta))
        assert fresh is not op.coupling
        built = AssembledOperator(op.kappa, op.mode_shifts, op.hpar_diag, op.hpar_off,
                                  fresh)
        assert built.D.tobytes() == op.D.tobytes()
        assert built.matvec(rhs).tobytes() == op.matvec(rhs).tobytes()
        assert built.norm_estimate() == op.norm_estimate()


def test_coupling_shared_only_while_an_operator_holds_it():
    problem, basis = refcase.problem(), refcase.basis(n=201, J=3)
    op = assemble(problem, basis, theta=0.3j, kappa=0.05)
    key = (problem, basis, 0.3j, False)  # the full contraction, not the sector's
    assert operators._COUPLINGS[key] is op.coupling
    del op  # gap's m blocks are dropped after counting: nothing piles up
    assert key not in operators._COUPLINGS
