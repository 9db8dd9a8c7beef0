"""landau.lapack against the scipy.linalg functions it stands in for: the same
LAPACK routines with the same arguments, so every result is bitwise equal.
The tridiagonal solves take (d, e); the (3, n) band that scipy's
``solve_banded`` reads is rebuilt here as their oracle.  The band LU is
checked against ``scipy.linalg.lapack``'s f2py wrappers of the same scipy
OpenBLAS, and the loading against what a fresh interpreter maps."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import landau
import refcase
from landau import lapack
from landau.fgr import _reduced_solve
from landau.operators import BasisTruncation, assemble, symmetric_band_lower
from landau.potentials import Potential1D, sech2
from landau.schrodinger1d import (Grid1D, ground_state, hamiltonian_tridiagonal,
                                  outgoing_root, outgoing_solve)

SIZES = st.integers(1, 400)
SEEDS = st.integers(0, 2**32 - 1)
DTYPES = st.sampled_from([float, complex])


def _vector(rng, n, dtype=float):
    v = rng.standard_normal(n)
    return v + 1j * rng.standard_normal(n) if dtype is complex else v


def _tridiagonal(rng, n, d_dtype=float, e_dtype=float):
    return _vector(rng, n, d_dtype), _vector(rng, n - 1, e_dtype)


def _band_of(d, e):
    """The symmetric tridiagonal (d, e) as the (3, n) band of
    ``scipy.linalg.solve_banded((1, 1), ab, b)``: rows e shifted right, d, e."""
    ab = np.zeros((3, len(d)), dtype=np.result_type(d, e))
    ab[0, 1:] = e
    ab[1] = d
    ab[2, :-1] = e
    return ab


def _scipy_solve(d, e, b):
    """``scipy.linalg.solve_banded`` of the tridiagonal (d, e).  At n = 1 scipy
    divides by d in numpy rather than call ?gtsv (and refuses a real b against
    a complex d), so there the 1 x 1 system is solved as the leading block of
    diag(d, 1) with b padded by 0: ?gtsv's first row of that is the same
    Fortran division B(1) / D(1) that it makes at n = 1."""
    if len(d) > 1:
        return scipy.linalg.solve_banded((1, 1), _band_of(d, e), b)
    pad = (np.append(d, 1.0), np.append(e, 0.0), np.append(b, 0.0))
    return scipy.linalg.solve_banded((1, 1), _band_of(*pad[:2]), pad[2])[:1]


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=SEEDS, d_dtype=DTYPES, e_dtype=DTYPES, b_dtype=DTYPES)
@example(n=1, seed=0, d_dtype=complex, e_dtype=float, b_dtype=float)
@example(n=1, seed=1, d_dtype=float, e_dtype=float, b_dtype=complex)
def test_solve_banded_matches_scipy(n, seed, d_dtype, e_dtype, b_dtype):
    rng = np.random.default_rng(seed)
    d, e = _tridiagonal(rng, n, d_dtype, e_dtype)
    b = _vector(rng, n, b_dtype)
    x = lapack.solve_banded(d, e, b)
    assert np.array_equal(x, _scipy_solve(d, e, b))
    assert x.dtype == np.result_type(d, e, b)


_GRID = Grid1D(-12.0, 12.0, 241)


@pytest.mark.parametrize("energy", [-0.3, 0.05, 0.4, 2.5])  # closed, one or both open
@pytest.mark.parametrize("rhs_dtype", [float, complex])
def test_outgoing_solve_matches_the_band_route(energy, rhs_dtype):
    # the band route: zeta / h^2 subtracted from the two ends of the band's d - E;
    # the ends of v0 differ (-0.1 and 0.1), so each end takes its own zeta
    v0 = Potential1D(evaluate=lambda x: sech2().evaluate(x) + 0.1 * np.tanh(x))
    h = _GRID.h
    d, e = hamiltonian_tridiagonal(v0, _GRID)
    rhs = _vector(np.random.default_rng(7), len(d), rhs_dtype)
    v_ends = v0.evaluate(np.array([_GRID.x_min, _GRID.x_max]))
    ab = _band_of(d - complex(energy), e)
    ab[1, 0] -= outgoing_root(energy - v_ends[0], h) / h**2
    ab[1, -1] -= outgoing_root(energy - v_ends[1], h) / h**2
    want = scipy.linalg.solve_banded((1, 1), ab, rhs)
    assert np.array_equal(outgoing_solve(v0, _GRID, energy, rhs), want)


@pytest.mark.parametrize("where", ["first", "centre", "last"])
def test_reduced_solve_matches_the_band_route(where):
    # the band route pins u_k = 0 by making row and column k of the band's
    # d - lambda those of the identity; k is where |psi| is largest
    v0 = sech2()
    st_ = ground_state(v0, _GRID)
    psi = st_.psi.copy()
    n = len(psi) - 2
    k = {"first": 0, "centre": int(np.argmax(np.abs(psi[1:-1]))), "last": n - 1}[where]
    psi[1 + k] = 2.0 * np.abs(psi).max()
    state = SimpleNamespace(grid=_GRID, psi=psi, lam=st_.lam)
    rhs = _vector(np.random.default_rng(8), n)
    d, e = hamiltonian_tridiagonal(v0, _GRID)
    ab = _band_of(d - st_.lam, e)
    ab[0, k:k + 2] = 0.0
    ab[2, max(k - 1, 0):k + 1] = 0.0
    ab[1, k] = 1.0
    r = rhs.copy()
    r[k] = 0.0
    u = scipy.linalg.solve_banded((1, 1), ab, r)
    want = u - psi[1:-1] * (_GRID.h * float(np.dot(psi[1:-1], u)))
    assert np.array_equal(_reduced_solve(v0, state, rhs), want)


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=SEEDS, window=st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 4.0)))
@example(n=1, seed=0, window=(-4.0, 8.0))  # d = 0.126, inside (-4, 4]
@example(n=1, seed=0, window=(1.0, 1.0))  # and outside (1, 2]
def test_tridiagonal_value_window_matches_scipy(n, seed, window):
    rng = np.random.default_rng(seed)
    d, e = _tridiagonal(rng, n)
    lo, width = window
    sr = (lo, lo + width)
    w, v = lapack.eigh_tridiagonal(d, e, *sr)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=sr)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert v.shape == v_ref.shape == (n, w.size)


def test_tridiagonal_empty_value_window():
    d, e = _tridiagonal(np.random.default_rng(1), 50)
    sr = (100.0, 101.0)  # above every Gershgorin disc
    w, v = lapack.eigh_tridiagonal(d, e, *sr)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=sr)
    assert w.size == 0 and v.shape == v_ref.shape == (50, 0)
    assert np.array_equal(w, w_ref)


_SMALL = assemble(refcase.problem(), BasisTruncation(J=3, grid=Grid1D(-12.0, 12.0, 61)),
                  theta=0.0, kappa=0.05)
_SMALL_BAND = symmetric_band_lower(_SMALL.D, _SMALL.hpar_off)


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(-3.0, 40.0), width=st.floats(1e-3, 40.0))
def test_eig_banded_value_window_on_operator_band(lo, width):
    sr = (lo, lo + width)
    w = lapack.eig_banded(_SMALL_BAND, *sr)
    assert np.array_equal(w, scipy.linalg.eig_banded(
        _SMALL_BAND, lower=True, eigvals_only=True, select="v", select_range=sr))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(bad):
    rng = np.random.default_rng(2)
    d, e = _tridiagonal(rng, 8)
    b = rng.standard_normal(8)
    d_bad, e_bad, b_bad = d.copy(), e.copy(), b.copy()
    d_bad[3] = e_bad[3] = b_bad[3] = bad
    calls = [
        lambda: lapack.solve_banded(d_bad, e, b),
        lambda: lapack.solve_banded(d, e_bad, b),
        lambda: lapack.solve_banded(d, e, b_bad),
        lambda: lapack.eigh_tridiagonal(d_bad, e, -1.0, 1.0),
        lambda: lapack.eig_banded(_band_of(d_bad, e)[1:], -1.0, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_singular_tridiagonal_raises_lin_alg_error():
    d, e = _tridiagonal(np.random.default_rng(3), 10)
    d[4] = e[3] = e[4] = 0.0  # row and column 4 of the matrix are zero
    with pytest.raises(np.linalg.LinAlgError):
        lapack.solve_banded(d, e, np.ones(10))
    with pytest.raises(np.linalg.LinAlgError):
        lapack.solve_banded(d.astype(complex), e, np.ones(10))


def _fresh(code, *path):
    """The stdout lines of ``code`` run in a fresh interpreter that finds
    ``path`` and then the package on its import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [*map(str, path), str(Path(landau.__file__).resolve().parents[1])]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.splitlines()


def test_missing_extension_raises_import_error_with_its_path(tmp_path):
    # a scipy package whose wheel bundles no OpenBLAS beside it: the import of
    # landau.lapack fails and names the path it searched
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (tmp_path / "scipy.libs").mkdir()
    err = _fresh("try:\n    import landau.lapack\nexcept ImportError as err:\n"
                 "    print(err.path)\n    print(err)\n", tmp_path)
    assert err[0].startswith(str(tmp_path / "scipy.libs" / "libscipy_openblas"))
    assert err[0] in err[1]


_ROUND_TRIP = """\
import numpy as np
d, e = np.array([4.0, 5.0, 6.0]), np.array([1.0, 2.0])
ab = np.array([[0.0, 1.0, 2.0], [4.0, 5.0, 6.0], [1.0, 2.0, 0.0]])
b = np.array([1.0, 2.0, 3.0])
{first}
{second}
import scipy.linalg
assert np.array_equal(lapack.solve_banded(d, e, b),
                      scipy.linalg.solve_banded((1, 1), ab, b))
assert np.array_equal(lapack.zgbtrf(ab.astype(complex), 1, 0)[0],
                      scipy.linalg.lapack.zgbtrf(ab.astype(complex), 1, 0)[0])
assert scipy.linalg._flapack.dgtsv is not None
print("ok")
"""


@pytest.mark.parametrize("scipy_first", [True, False])
def test_both_import_orders_work(scipy_first):
    first, second = "import scipy.linalg", "from landau import lapack"
    if not scipy_first:
        first, second = second, first
    assert _fresh(_ROUND_TRIP.format(first=first, second=second)) == ["ok"]


def _lu_oracle(ab, J, b):
    """zgbtrf and zgbtrs of ``ab`` (kl = ku = J) and b by landau.lapack and by
    scipy's f2py wrappers, as (lu, piv, info, x) pairs; x is None for a
    singular band."""
    pairs = []
    for lib in (lapack, scipy.linalg.lapack):
        lu, piv, info = lib.zgbtrf(ab, J, J)
        x = lib.zgbtrs(lu, J, J, b, piv) if info == 0 else None
        pairs.append((lu, piv, info, x))
    return pairs


def _assert_lu_equal(ours, theirs):
    (lu, piv, info, x), (lu_ref, piv_ref, info_ref, x_ref) = ours, theirs
    assert np.array_equal(lu, lu_ref) and lu.dtype == lu_ref.dtype
    assert np.array_equal(piv, piv_ref) and piv.dtype == piv_ref.dtype == np.int32
    assert info == info_ref
    if x is not None:
        assert np.array_equal(x[0], x_ref[0]) and x[1] == x_ref[1] == 0


@settings(max_examples=60, deadline=None)
@given(J=st.integers(1, 7), nodes=st.integers(1, 12), seed=SEEDS, nrhs=st.integers(0, 2),
       singular=st.booleans())
def test_band_lu_matches_scipy(J, nodes, seed, nrhs, singular):
    # the operator's shape: kl = ku = J on n = nodes * J unknowns, J fill rows
    # on top; a zero column makes the band singular (info > 0); nrhs = 0 is
    # a 1-D right-hand side
    rng = np.random.default_rng(seed)
    n = nodes * J
    ab = np.zeros((3 * J + 1, n), dtype=complex, order="F")
    ab[J:] = rng.standard_normal((2 * J + 1, n)) + 1j * rng.standard_normal((2 * J + 1, n))
    if singular:
        ab[:, rng.integers(n)] = 0.0
    b = _vector(rng, n * max(nrhs, 1), complex).reshape((n, nrhs) if nrhs else n, order="F")
    ours, theirs = _lu_oracle(ab, J, b)
    _assert_lu_equal(ours, theirs)
    assert (ours[2] > 0) == singular


_DILATED = assemble(refcase.problem(), BasisTruncation(J=3, grid=Grid1D(-12.0, 12.0, 61)),
                    theta=0.3j, kappa=0.05)


@settings(max_examples=20, deadline=None)
@given(re=st.floats(-1.0, 8.0), im=st.floats(-0.5, 0.5), seed=SEEDS)
def test_band_lu_matches_scipy_on_assembled_bands(re, im, seed):
    band = _DILATED._shifted_band(complex(re, im))
    b = _vector(np.random.default_rng(seed), band.shape[1], complex)
    _assert_lu_equal(*_lu_oracle(band, _DILATED.J, b))


def test_band_lu_overwrites_only_what_it_may():
    J, n = 2, 8
    ab = np.zeros((3 * J + 1, n), dtype=complex, order="F")
    ab[J:] = np.random.default_rng(4).standard_normal((2 * J + 1, n))
    want, piv, _ = scipy.linalg.lapack.zgbtrf(ab, J, J)
    # a real or C-ordered band is copied, as f2py copies it, even with overwrite_ab
    for other in (ab.real.copy(order="F"), np.ascontiguousarray(ab)):
        kept = other.copy()
        lu, _, _ = lapack.zgbtrf(other, J, J, overwrite_ab=1)
        assert np.array_equal(lu, want) and np.array_equal(other, kept)
    lu, _, _ = lapack.zgbtrf(ab.copy(order="F"), J, J)
    assert np.array_equal(lu, want)
    inplace = ab.copy(order="F")
    assert lapack.zgbtrf(inplace, J, J, overwrite_ab=1)[0] is inplace
    b = np.ones(n, dtype=complex)
    x, _ = lapack.zgbtrs(want, J, J, b, piv)
    assert np.array_equal(b, np.ones(n)) and lapack.zgbtrs(want, J, J, b, piv, 1)[0] is b
    assert np.array_equal(b, x)


_BAD_CALLS = {
    "e of length n": lambda: lapack.solve_banded(np.ones(4), np.ones(4), np.ones(4)),
    "e of length n - 2": lambda: lapack.eigh_tridiagonal(np.ones(4), np.ones(2), 0, 1),
    "empty d": lambda: lapack.solve_banded(np.ones(0), np.ones(0), np.ones(0)),
    "b of length n + 1": lambda: lapack.solve_banded(np.ones(4), np.ones(3), np.ones(5)),
    "b of n + 1 rows": lambda: lapack.solve_banded(np.ones(4), np.ones(3), np.ones((5, 2))),
    "3-D b": lambda: lapack.solve_banded(np.ones(4), np.ones(3), np.ones((4, 1, 1))),
    "1-D band": lambda: lapack.eig_banded(np.ones(4), 0, 1),
    "ab with 2 kl + ku rows": lambda: lapack.zgbtrf(np.ones((3, 6)), 1, 1),
    "1-D ab": lambda: lapack.zgbtrf(np.ones(6), 0, 0),
    "negative kl": lambda: lapack.zgbtrf(np.ones((4, 6)), -1, 1),
    "lu with 2 kl + ku rows": lambda: lapack.zgbtrs(
        np.ones((3, 6)), 1, 1, np.ones(6), np.arange(6)),
    "rhs of length n - 1": lambda: lapack.zgbtrs(
        np.ones((4, 6)), 1, 1, np.ones(5), np.arange(6)),
    "rhs of n + 1 rows": lambda: lapack.zgbtrs(
        np.ones((4, 6)), 1, 1, np.ones((7, 2)), np.arange(6)),
    "n - 1 pivots": lambda: lapack.zgbtrs(
        np.ones((4, 6)), 1, 1, np.ones(6), np.arange(5)),
    "pivot n": lambda: lapack.zgbtrs(
        np.ones((4, 6)), 1, 1, np.ones(6), np.array([0, 1, 2, 3, 4, 6])),
    "pivot -1": lambda: lapack.zgbtrs(
        np.ones((4, 6)), 1, 1, np.ones(6), np.array([-1, 1, 2, 3, 4, 5])),
}


@pytest.mark.parametrize("name", sorted(_BAD_CALLS))
def test_wrong_buffers_raise_value_error(name):
    # f2py refused these before LAPACK saw a pointer; ctypes would not
    with pytest.raises(ValueError):
        _BAD_CALLS[name]()


_LOAD = """\
import json, os, sys
from pathlib import PurePath
from landau.cli import main
rc = main([{subcommand!r}, "--config", {config!r}, "--out", {out!r}, "--threads", "1"])
linux = os.path.exists("/proc/self/maps")
maps = {{line.split()[-1] for line in open("/proc/self/maps")}} if linux else set()
threads = [int(line.split()[1]) for line in open("/proc/self/status")
           if line.startswith("Threads:")] if linux else [None]
print(json.dumps({{
    "rc": rc, "linux": linux, "threads": threads[0],
    "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
    "libs": sorted(PurePath(p).name for p in maps
                   if {{"scipy", "scipy.libs"}} & set(PurePath(p).parts)),
}}))
"""


def _load(subcommand, tmp_path):
    """What ``landau <subcommand> --threads 1`` on its shipped config imported
    from scipy, mapped from scipy's folders and ran as OS threads at its end,
    in a fresh interpreter."""
    code = _LOAD.format(subcommand=subcommand, out=str(tmp_path / subcommand),
                        config=str(Path(refcase.__file__).resolve().parents[1]
                                   / "configs" / f"{subcommand}.cfg"))
    run = json.loads(_fresh(code)[-1])
    assert run["rc"] == 0 and run["modules"] == []
    return run


@pytest.mark.parametrize("subcommand", ["bound", "fgr", "toeplitz", "gap", "mourre"])
def test_light_subcommands_map_no_scipy_library(subcommand, tmp_path):
    # they factorize no complex band, so scipy's OpenBLAS is never opened
    run = _load(subcommand, tmp_path)
    if not run["linux"]:
        pytest.skip("no /proc/self/maps")
    assert run["libs"] == []


def test_dynamics_maps_scipy_openblas_and_one_thread(tmp_path):
    run = _load("dynamics", tmp_path)
    if not run["linux"]:
        pytest.skip("no /proc/self/maps")
    assert any(lib.startswith("libscipy_openblas-") for lib in run["libs"])
    assert not any(lib.startswith("_flapack") for lib in run["libs"])
    assert run["threads"] == 1
