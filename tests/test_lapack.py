"""landau.lapack against the scipy.linalg functions it stands in for: the same
LAPACK routines with the same arguments, so every result is bitwise equal.
The tridiagonal solves take (d, e); the (3, n) band that scipy's
``solve_banded`` reads is rebuilt here as their oracle."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import landau
import refcase
from landau import lapack
from landau.fgr import _reduced_solve
from landau.operators import BasisTruncation, assemble, symmetric_band_lower
from landau.potentials import Potential1D, sech2
from landau.schrodinger1d import (Grid1D, ground_state, hamiltonian_tridiagonal,
                                  outgoing_root, outgoing_solve)

SIZES = st.integers(2, 400)
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


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=SEEDS, d_dtype=DTYPES, e_dtype=DTYPES, b_dtype=DTYPES)
def test_solve_banded_matches_scipy(n, seed, d_dtype, e_dtype, b_dtype):
    rng = np.random.default_rng(seed)
    d, e = _tridiagonal(rng, n, d_dtype, e_dtype)
    b = _vector(rng, n, b_dtype)
    x = lapack.solve_banded(d, e, b)
    assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), _band_of(d, e), b))
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
def test_tridiagonal_value_window_matches_scipy(n, seed, window):
    rng = np.random.default_rng(seed)
    d, e = _tridiagonal(rng, n)
    lo, width = window
    sr = (lo, lo + width)
    w, v = lapack.eigh_tridiagonal(d, e, *sr)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=sr)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


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


def test_missing_extension_raises_import_error_with_its_path(monkeypatch, tmp_path):
    (tmp_path / "linalg").mkdir()
    spec = importlib.util.spec_from_file_location(
        "scipy", tmp_path / "__init__.py", submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError) as err:
        lapack._load_flapack()
    assert err.value.path.startswith(str(tmp_path / "linalg" / "_flapack"))
    assert err.value.path in str(err.value)


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
    env = dict(os.environ, PYTHONPATH=str(Path(landau.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c",
                           _ROUND_TRIP.format(first=first, second=second)],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["ok"]
