"""Finite truncations of the fibered magnetic Schrodinger operator.

The truncation keeps J radial (Landau) modes q = m_-, ..., m_- + J - 1 tensored
with the interior points of a longitudinal grid.  In that basis the dilated,
coupled operator reads

    M(theta, kappa) = diag_a(2 b q_a) (x) I  +  I (x) H_par(theta)
                      + kappa * [C_ab(theta)(x3) as x3-diagonal coupling],

    H_par(theta) = -e^(-2 theta) d^2/dx3^2 + v0(e^theta x3),
    C_ab(theta)(x3) = int phi_{q_a,m} phi_{q_b,m} V(rho, e^theta x3) rho drho.

H_par(theta) is the tridiagonal of ``schrodinger1d.hamiltonian_tridiagonal``,
which also checks theta against v0.  The matrix is complex symmetric (exactly,
by construction) for Im theta > 0 and real symmetric for theta = 0.  An operator
stores only the parameters that define it: the stencil of H_par (its diagonal
and its scalar off-diagonal), the shifts 2 b q_a, kappa and the shared
read-only coupling C.  In grid-major order it is block tridiagonal, with J x J
diagonal blocks D_i = diag(H_par,ii + 2 b q_a) + kappa C(x_i) and off-diagonal
blocks H_par,i,i+1 times I.  Every storage layout is derived from the
parameters with the float operations of that formula, so every layout holds
the same bits: the LAPACK band of a banded LU is written straight from them for
each shift and factorized in place (no band outlives its solver), and the
blocks D, computed on demand, feed the dense matrix (small truncations and
oracles), the symmetric band for eig_banded, and eigenvalue counts by Sylvester
inertia: ``inertia_counts`` sweeps a stack of real operators on one grid (the
angular-momentum fibers of one problem) and every shift at once, with a
Cholesky certificate per step.

When v0, V and the grid are even in x3, so is the embedded state
phi_q (x) psi_0, and ``assemble(..., even_sector=True)`` returns the
compression of the operator to the even sector (``landau.sector``), a subclass
that overrides the layouts its first link changes; it is built from the
stencil and a coupling contracted on x3 >= 0 only.

Of the parameters only kappa changes along a kappa-continuation.  The coupling
C(theta) of a (problem, basis, theta), full or even-sector half, is shared by
every live operator built from it, and the guard inf spec(H_par) > -2b (``checked_floor``) reads the
ground state that ``schrodinger1d.solved_bound_states`` holds for the grid, so
each step of a continuation assembles only the stencil; a v0 that fails that
solve's grid-end tail check is refused here too.  ``fgr`` reads its rows
C_aq(x3) from the theta = 0 coupling and applies the same guard.  The radial
integrals of C are on ``specfun.radial_rule``, split at ``V.breaks``.
"""

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import lapack as _lapack
from .errors import DegenerateInputError, DomainError, SolverError
from .lapack import eigh_tridiagonal
from .potentials import PerturbationProfile, Potential1D
from .schrodinger1d import (Grid1D, ground_state, hamiltonian_tridiagonal,
                            solved_bound_states)
from .specfun import RadialMode, m_minus, radial_eigenfunction, radial_rule

_DENSE_DIM_LIMIT = 12000
_X_BLOCK = 32  # grid points per V sample in coupling: 0.1 MB, not 21 MB at n = 4801


@dataclass(frozen=True)
class LandauProblem:
    """Field strength b, longitudinal well v0, perturbation V, angular momentum m."""

    b: float
    v0: Potential1D
    V: PerturbationProfile
    m: int

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError("field strength b must be positive")

    @property
    def m_minus(self):
        return m_minus(self.m)


@dataclass(frozen=True)
class BasisTruncation:
    """J radial modes (q = m_- .. m_- + J - 1) times a longitudinal grid."""

    J: int
    grid: Grid1D

    def __post_init__(self):
        if self.J < 1:
            raise DomainError("need at least one radial mode")

    def landau_indices(self, m):
        lo = m_minus(m)
        return np.arange(lo, lo + self.J)

    def mode_index(self, m, q):
        qs = self.landau_indices(m)
        if q not in qs:
            raise DomainError(f"Landau index q={q} outside truncation {qs[0]}..{qs[-1]}")
        return int(q - qs[0])

    def refined(self):
        return BasisTruncation(self.J, self.grid.refined())


# A Schur block eigenvalue below this fraction of the operator norm means the
# shift sits (numerically) on the spectrum of a leading section, where the
# block LDL^T sweep loses its backward stability; that operator's count is then
# refused.
_INERTIA_RTOL = 1e-12


class _BandSolver:
    """Solves with one zgbtrf factorization; right-hand sides are mode-major.

    A plain module-level class: a class built per call would sit in a
    reference cycle and keep its LU alive until the cyclic collector ran.
    """

    __slots__ = ("_lu", "_piv", "_J", "_n")

    def __init__(self, lu, piv, J, n):
        self._lu, self._piv, self._J, self._n = lu, piv, J, n

    def solve(self, rhs):
        J, n = self._J, self._n
        # flatten copies even at J = 1, where the reordering is a view of rhs,
        # so zgbtrs may overwrite its own right-hand side
        r = np.asarray(rhs, dtype=complex).reshape(J, n).T.flatten()
        x, info = _lapack.zgbtrs(self._lu, J, J, r, self._piv, overwrite_b=1)
        if info != 0:
            raise SolverError(f"zgbtrs failed with info={info}")
        return x.reshape(n, J).T.reshape(-1)


class AssembledOperator:
    """The truncated operator as its five parameters; see the module docstring.

    ``kappa``; ``mode_shifts`` 2 b q_a (J,); the longitudinal stencil
    ``hpar_diag`` (n_int,) and ``hpar_off`` (a scalar); and the shared
    read-only ``coupling`` C (J, J, n_int), or None when kappa = 0.  Nothing
    else is stored: J and n_int are the lengths of the shifts and of the
    diagonal.  Derived: the diagonal blocks ``D`` (n_int, J, J), the dense
    matrix, the banded LU.  Vectors are flat in mode-major order:
    index = a * n_int + i.
    """

    def __init__(self, kappa, mode_shifts, hpar_diag, hpar_off, coupling):
        self.kappa = kappa
        self.mode_shifts = np.asarray(mode_shifts, dtype=float)
        self.hpar_diag = np.asarray(hpar_diag)
        self.hpar_off = hpar_off
        self.coupling = coupling  # (J, J, n_int) or None
        self.J = len(self.mode_shifts)
        self.n_int = len(self.hpar_diag)

    @property
    def _coupled(self):
        return self.coupling is not None and self.kappa != 0

    def _block_diagonal(self, a):
        """Diagonal entries of mode a, (n_int,): (hpar_diag + 2bq_a) + kappa C_aa,
        the float-operation order every derived storage shares."""
        diag = self.hpar_diag + self.mode_shifts[a]
        if self._coupled:
            diag = diag + self.kappa * self.coupling[a, a]
        return diag

    @property
    def D(self):
        """The J x J diagonal blocks (n_int, J, J), computed on each access."""
        return self._blocks()

    def _blocks(self):
        D = np.zeros((self.n_int, self.J, self.J),
                     dtype=float if self.is_real else complex)
        for a in range(self.J):
            if self._coupled:
                D[:, a, :] = (self.kappa * self.coupling[a]).T
            D[:, a, a] = self._block_diagonal(a)
        return D

    @property
    def dim(self):
        return self.J * self.n_int

    @property
    def is_real(self):
        return (
            not np.iscomplexobj(self.hpar_diag)
            and not np.iscomplexobj(np.asarray(self.hpar_off))
            and (self.coupling is None or not np.iscomplexobj(self.coupling))
        )

    def dense(self):
        """Dense mode-major matrix; meant for small truncations and oracles."""
        if self.dim > _DENSE_DIM_LIMIT:
            raise DomainError(
                f"refusing dense materialization at dimension {self.dim}"
            )
        J, n = self.J, self.n_int
        D = self._blocks()
        out = np.zeros((J, n, J, n), dtype=D.dtype)
        i = np.arange(n)
        out[:, i, :, i] = D
        a = np.arange(J)[:, None]
        links = self._links()
        out[a, i[:-1], a, i[:-1] + 1] = links
        out[a, i[:-1] + 1, a, i[:-1]] = links
        return out.reshape(self.dim, self.dim)

    def _links(self):
        """The longitudinal off-diagonal, one scalar on the full grid."""
        return self.hpar_off

    def restrict(self, vec):
        """A full-grid vector in this operator's coordinates: itself."""
        return vec

    def matvec(self, vec):
        v = np.asarray(vec).reshape(self.J, self.n_int)
        out = (self.hpar_diag + self.mode_shifts[:, None]) * v
        links = self._links()
        out[:, :-1] += links * v[:, 1:]
        out[:, 1:] += links * v[:, :-1]
        if self._coupled:
            cv = np.einsum("abx,bx->ax", self.coupling, v)
            cv *= self.kappa
            out += cv
        return out.reshape(-1)

    def norm_estimate(self):
        """Cheap upper bound on the operator norm (Gershgorin-flavored)."""
        est = np.max(np.abs(self.hpar_diag)) + 2 * abs(self.hpar_off)
        est += np.max(np.abs(self.mode_shifts))
        if self._coupled:
            est += abs(self.kappa) * float(np.max(np.sum(np.abs(self.coupling), axis=1)))
        return float(est)

    def _shifted_band(self, shift):
        """zgbtrf storage of M - shift (grid-major, kl = ku = J, kl fill rows on
        top), written from the parameters one mode column at a time."""
        J, n, N = self.J, self.n_int, self.dim
        ab = np.zeros((3 * J + 1, N), dtype=complex, order="F")
        # entry (i J + a, i J + b) sits in row 2J + a - b, column i J + b
        cols = ab.T.reshape(n, J, 3 * J + 1)
        for b in range(J):
            if self._coupled:
                cols[:, b, 2 * J - b : 3 * J - b] = (self.kappa * self.coupling[:, b]).T
            cols[:, b, 2 * J] = self._block_diagonal(b)
        ab[3 * J, : N - J] = self.hpar_off
        ab[J, J:] = self.hpar_off
        ab[2 * J] -= shift
        return ab

    def factorized(self, shift):
        """Banded LU of (M - shift); returns a solver with .solve(rhs) (mode-major).

        The band is built for this shift and factorized in place, so the
        solver's LU is the only band the call leaves alive.
        """
        J = self.J
        ab = self._shifted_band(shift)
        lu, piv, info = _lapack.zgbtrf(ab, J, J, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"singular factorization at shift {shift}")
        if info < 0:
            raise SolverError(f"zgbtrf failed with info={info}")
        return _BandSolver(lu, piv, J, self.n_int)


def symmetric_band_lower(D, hpar_off):
    """Lower band storage (for ``eig_banded``) of the real block-tridiagonal
    matrix with diagonal blocks D (n, J, J) and off-diagonal blocks hpar_off I."""
    if np.iscomplexobj(D):
        raise DomainError("symmetric band storage requires a real operator")
    n, J = D.shape[:2]
    N = n * J
    ab = np.zeros((J + 1, N))
    a, b = np.tril_indices(J)
    ab[a - b, np.arange(n)[:, None] * J + b] = D[:, a, b]
    ab[J, : N - J] = hpar_off
    return ab


def inertia_counts(D, hpar_off, sigmas, norms):
    """Eigenvalue counts below each sigma for a stack of block-tridiagonal operators.

    ``D`` (M, n, J, J): the real diagonal blocks of M operators on one grid,
    all with off-diagonal blocks ``hpar_off`` I; ``norms`` (M,): their
    ``norm_estimate()``.  One block LDL^T sweep takes the Schur blocks
    S_i = D_i - sigma I - hpar_off^2 S_(i-1)^(-1) of every operator and sigma
    at once; by Haynsworth's inertia additivity a count is the number of
    negative eigenvalues of all its S_i.

    One Cholesky factorization of S_i - floor I, floor = ``_INERTIA_RTOL``
    (norm + |sigma|), certifies a whole step: no eigenvalue is negative or
    within the floor, and S_i^(-1) comes from ``inv``.  A step that fails is
    diagonalized; an eigenvalue within the floor there flags its operator
    singular (its counts are void) and leaves the others exact.

    Returns (counts (M, len(sigmas)), singular (M,) bool, the number of steps
    that failed the certificate).
    """
    D = np.asarray(D)
    if np.iscomplexobj(D):
        raise DomainError("inertia counting requires a real operator")
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    M, n, J = D.shape[:3]
    floor = _INERTIA_RTOL * (np.asarray(norms, dtype=float)[:, None] + np.abs(sig))
    eye = np.eye(J)
    shifted = sig[:, None, None] * eye
    certified_above = floor[..., None, None] * eye
    off2 = hpar_off**2
    counts = np.zeros((M, len(sig)), dtype=int)
    singular = np.zeros(M, dtype=bool)
    eigh_steps = 0
    s_inv = None
    for i in range(n):
        s = D[:, i, None] - shifted
        if s_inv is not None:
            s -= off2 * s_inv
        try:
            np.linalg.cholesky(s - certified_above)
        except np.linalg.LinAlgError:
            eigh_steps += 1
            w, vecs = np.linalg.eigh(s)
            small = np.abs(w) < floor[..., None]
            singular |= small.any(axis=(1, 2))
            counts += np.count_nonzero(w < 0, axis=2)
            w[small] = 1.0  # keeps a flagged operator's sweep finite
            s_inv = (vecs / w[..., None, :]) @ vecs.swapaxes(-1, -2)
        else:
            s_inv = np.linalg.inv(s)
    return counts, singular, eigh_steps


def checked_floor(v0, grid, b):
    """Refuse the grid unless inf spec(H_par) lies above -2b.  The bottom is
    the ground state of ``solved_bound_states``; with no bound state every
    eigenvalue lies above -1e-12, so above -2b."""
    states = solved_bound_states(v0, grid)
    if states and states[0].lam <= -2 * b:
        raise DomainError(
            f"inf spec(H_par) = {states[0].lam:.6f} <= -2b = {-2 * b}; "
            "the fibered analysis requires the bound-state band above -2b"
        )


# Couplings shared by the live operators (and fgr calls) of one (problem, basis,
# theta, half): an entry lasts while one holds it, so a kappa-continuation
# computes C once per grid, and gap's m blocks, each dropped after counting,
# keep none.
_COUPLINGS = weakref.WeakValueDictionary()


def _has_even_sector(problem, grid):
    """v0, V and the grid are even in x3, so the even sector (``landau.sector``)
    is invariant."""
    return problem.v0.even and problem.V.even and grid.x_min == -grid.x_max


def coupling(problem, basis, theta, even_sector=False):
    """The coupling C_ab(theta)(x3) on the interior points, (J, J, n_int),
    shared as a read-only array by the operators and by ``fgr``, and cached
    while anything holds it: a caller that holds it across a kappa loop has
    every operator of the loop share it.  ``even_sector=True`` asks, as in
    ``assemble``, for the even sector's coupling: when v0, V and the grid are
    even, only the nodes x3 >= 0 (from index n_int // 2) are contracted,
    (J, J, n_int - n_int // 2).  The cache key is (problem, basis, theta,
    half), half telling the two contractions apart; potentials compare by
    identity, as in ``schrodinger1d.solved_bound_states``.  Im theta > 0 needs
    V dilatable with Im theta < V.theta0.  V is sampled at the nodes of
    ``specfun.radial_rule`` on ``_X_BLOCK`` grid points at a time, each block
    contracted with the weights w phi_a phi_b of the pairs a <= b in one
    matrix product set at (a, b) and (b, a), so C is exactly symmetric.  A
    half contraction takes the full one's blocks, from the one holding node
    n_int // 2, so its entries are bitwise those of the full coupling.
    """
    half = even_sector and _has_even_sector(problem, basis.grid)
    key = (problem, basis, theta, half)
    c = _COUPLINGS.get(key)
    if c is not None:
        return c
    if theta.imag > 0:
        if not problem.V.dilatable:
            raise DomainError("V is not dilatable; cannot take Im theta > 0")
        if not theta.imag < problem.V.theta0:
            raise DomainError(
                f"Im theta = {theta.imag} outside [0, V.theta0 = {problem.V.theta0})"
            )
    qs = basis.landau_indices(problem.m)
    rule = radial_rule(problem.b, int(qs[-1]), problem.m, problem.V.breaks)
    B = np.stack([radial_eigenfunction(RadialMode(problem.b, int(q), problem.m), rule.nodes)
                  for q in qs])
    rows, cols = np.triu_indices(len(qs))
    w_ab = rule.weights * B[rows] * B[cols]
    arg = cmath.exp(theta)
    x = (arg if theta.imag else arg.real) * basis.grid.interior
    start = len(x) // 2 if half else 0
    c = np.empty((len(qs), len(qs), len(x) - start),
                 dtype=complex if theta.imag else float)
    for lo in range(start - start % _X_BLOCK, len(x), _X_BLOCK):
        vv = problem.V.evaluate(rule.nodes[:, None], x[None, lo:lo + _X_BLOCK])
        skip = max(start - lo, 0)
        out = slice(lo + skip - start, lo + _X_BLOCK - start)
        c[rows, cols, out] = c[cols, rows, out] = (w_ab @ vv)[:, skip:]
    c.flags.writeable = False
    _COUPLINGS[key] = c
    return c


def assemble(problem, basis, theta=0.0, kappa=0.0, even_sector=False):
    """Matrix of H^(m)(theta) + kappa V_theta on the truncation.

    theta real is an exact change of variables (spectrum-preserving up to
    discretization); Im theta > 0 requires dilatable v0 (and V when kappa != 0,
    checked by ``coupling``) and rotates the continuum strings into the lower
    half-plane.  C and the -2b guard may be shared (see the module docstring).
    ``even_sector=True`` returns the even sector (``landau.sector``) when v0
    and V declare themselves even and the grid is symmetric about 0; it is
    built from the stencil and the x3 >= 0 half of the coupling alone.
    """
    theta = complex(theta)
    grid = basis.grid
    sector = even_sector and _has_even_sector(problem, grid)
    checked_floor(problem.v0, grid, problem.b)
    hpar_diag, e = hamiltonian_tridiagonal(problem.v0, grid, theta)
    hpar_off = e[0].item() if e.size else 0.0  # n = 3: no off-diagonal

    params = (kappa, 2.0 * problem.b * basis.landau_indices(problem.m), hpar_diag,
              hpar_off, coupling(problem, basis, theta, sector) if kappa != 0.0 else None)
    if sector:
        from .sector import EvenSectorOperator

        return EvenSectorOperator(*params)
    return AssembledOperator(*params)


@dataclass(frozen=True)
class EmbeddedEigenpair:
    """Tensor eigenpair Phi = phi_{q,m} (x) psi with energy 2bq + lambda.

    Coefficients are psi samples in the radial-orthonormal basis row q, so the
    discrete norm h * sum Phi^2 equals 1.
    """

    energy: float
    coefficients: np.ndarray  # (J, n_int), mode-major rows
    lam: float

    @property
    def vector(self):
        return self.coefficients.reshape(-1)


def embedded_eigenpair(problem, basis, q):
    """Exact tensor eigenvector of the truncated unperturbed operator.

    The longitudinal factor is the ground state of H_par on ``basis.grid``, so
    the energy is 2bq + lambda_0.
    """
    a = basis.mode_index(problem.m, q)
    st = ground_state(problem.v0, basis.grid)
    coeff = np.zeros((basis.J, basis.grid.n - 2))
    coeff[a, :] = st.psi[1:-1]
    return EmbeddedEigenpair(
        energy=2.0 * problem.b * q + st.lam,
        coefficients=coeff,
        lam=st.lam,
    )


def commutator_coefficients(k):
    """Constants c_{k,j} in i^k ad_A^k(H) = 2^k H_0par + sum_j c_{k,j} v_j.

    Recurrence: one more commutator with iA maps v_j -> -(j v_j + v_{j+1}),
    so c_{k+1,j} = -(j c_{k,j} + c_{k,j-1}); c_{1,1} = -1 and c_{k,k} = (-1)^k.
    """
    if k < 1:
        raise DomainError("commutator order k must be >= 1")
    c = {1: -1.0}
    for _ in range(k - 1):
        c = {j: -(j * c.get(j, 0.0) + c.get(j - 1, 0.0)) for j in range(1, max(c) + 2)}
    assert abs(c[max(c)] - (-1.0) ** k) < 1e-12
    return c


def _commutator_tridiagonal(v0, grid, k):
    """Diagonal and scalar off-diagonal of i^k ad_A^k(H_par) =
    2^k H_0par + sum_j c_{k,j} v_j on the interior points."""
    if v0.derivative_order < k:
        raise DomainError(
            f"commutator order {k} needs v0 derivatives up to {k}, "
            f"have {v0.derivative_order}"
        )
    x = grid.interior
    h = grid.h
    coeffs = commutator_coefficients(k)
    diag = (2.0**k) * 2.0 / h**2 + sum(
        cj * v0.weighted_derivative(j, x) for j, cj in coeffs.items()
    )
    return diag, -(2.0**k) / h**2


def commutator_ad(problem, basis, k=1):
    """Matrix of i^k ad_A^k(H^(m)) = 2^k (I (x) H_0par) + sum_j c_{k,j} v_j.

    A is the longitudinal dilation generator; the transverse part commutes,
    so the result is the same in every radial block (no 2bq shifts).
    """
    diag, off = _commutator_tridiagonal(problem.v0, basis.grid, k)
    return AssembledOperator(0.0, np.zeros(basis.J), diag, off, None)


def free_kinetic_eigenvalues(grid):
    """Closed-form Dirichlet eigenvalues of the three-point free kinetic matrix."""
    n = grid.n - 2
    l = np.arange(1, n + 1)
    return 2.0 * (1.0 - np.cos(math.pi * l / (n + 1))) / grid.h**2


def mourre_quantity(problem, basis, q, delta, check_tails=True):
    """Numerical surrogate of the compressed-commutator positivity diagnostic.

    Builds P_J(H^(m)) on the truncation for the window J = (E0 - delta, E0 + delta),
    E0 = 2bq + lambda with lambda the ground-state eigenvalue of H_par, compresses
    [H^(m), iA] = 2 H_0par - v_1 to Ran P_J, removes the best rank-r
    approximation (r = estimated lower-Landau-channel count in the window), and
    returns the smallest remaining eigenvalue.  Positive output is
    the diagnostic; it is reported, never asserted by the library itself.
    q must be among the retained Landau indices.
    """
    basis.mode_index(problem.m, q)
    lam = ground_state(problem.v0, basis.grid, check_tails=check_tails).lam
    b = problem.b
    # the channel thresholds sit at the potential's background value, not at 0;
    # this keeps the diagnostic exactly invariant under constant shifts of v0
    ends = np.asarray(
        problem.v0.evaluate(np.array([basis.grid.x_min, basis.grid.x_max])), dtype=float
    )
    v_inf = 0.5 * float(ends[0] + ends[1])
    if not (0 < delta < min(-(lam - v_inf) / 2.0, (2 * b + lam - v_inf) / 2.0)):
        raise DomainError(
            f"window half-width delta={delta} outside (0, min(-lam/2, (2b+lam)/2))"
        )
    e0 = 2.0 * b * q + lam
    lo, hi = e0 - delta, e0 + delta

    grid = basis.grid
    d, e = hamiltonian_tridiagonal(problem.v0, grid)
    wd, we = _commutator_tridiagonal(problem.v0, grid, 1)  # 2 H_0par - v_1

    # the compressed commutator is block-diagonal over the radial modes, so its
    # spectrum is the union of the spectra of the symmetrized blocks
    qs = basis.landau_indices(problem.m)
    spectra = []
    for qa in qs:
        wlo, whi = lo - 2 * b * qa, hi - 2 * b * qa
        if whi <= d.min() - 2 * abs(e[0] if len(e) else 0) - 1:
            continue
        vals, vecs = eigh_tridiagonal(d, e, wlo, whi)
        if vals.size == 0:
            continue
        wu = wd[:, None] * vecs
        wu[:-1] += we * vecs[1:]
        wu[1:] += we * vecs[:-1]
        blk = vecs.T @ wu
        spectra.append(np.linalg.eigvalsh(0.5 * (blk + blk.T)))
    if not spectra:
        raise DegenerateInputError("spectral window contains no truncation eigenvalues")
    vals = np.sort(np.concatenate(spectra))

    free = free_kinetic_eigenvalues(grid) + v_inf
    r = 0
    for qa in qs:
        if qa < q:
            r += int(np.count_nonzero((free + 2 * b * qa > lo) & (free + 2 * b * qa < hi)))
    if r >= len(vals):
        return float(vals.min())  # nothing left after removal; report raw bottom
    order = np.argsort(-np.abs(vals))
    kept = np.delete(vals, order[:r])
    return float(kept.min())
