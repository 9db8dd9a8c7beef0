"""landau.lapack against the scipy.linalg functions it stands in for: the same
LAPACK routines with the same arguments, so every result is bitwise equal."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import landau
import refcase
from landau import lapack
from landau.operators import BasisTruncation, assemble, symmetric_band_lower
from landau.schrodinger1d import Grid1D

SIZES = st.integers(2, 400)
SEEDS = st.integers(0, 2**32 - 1)


def _tridiagonal(rng, n):
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _band(rng, n, dtype):
    ab = rng.standard_normal((3, n))
    if dtype is complex:
        ab = ab + 1j * rng.standard_normal((3, n))
    return ab


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=SEEDS, ab_dtype=st.sampled_from([float, complex]),
       b_dtype=st.sampled_from([float, complex]))
def test_solve_banded_matches_scipy(n, seed, ab_dtype, b_dtype):
    rng = np.random.default_rng(seed)
    ab = _band(rng, n, ab_dtype)
    b = _band(rng, n, b_dtype)[1]
    x = lapack.solve_banded((1, 1), ab, b)
    assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
    assert x.dtype == np.result_type(ab, b)


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=SEEDS, window=st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 4.0)))
def test_tridiagonal_value_window_matches_scipy(n, seed, window):
    rng = np.random.default_rng(seed)
    d, e = _tridiagonal(rng, n)
    lo, width = window
    sr = (lo, lo + width)
    w, v = lapack.eigh_tridiagonal(d, e, select="v", select_range=sr)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=sr)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_tridiagonal_empty_value_window():
    d, e = _tridiagonal(np.random.default_rng(1), 50)
    sr = (100.0, 101.0)  # above every Gershgorin disc
    w, v = lapack.eigh_tridiagonal(d, e, select="v", select_range=sr)
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
    w = lapack.eig_banded(_SMALL_BAND, lower=True, eigvals_only=True, select="v",
                          select_range=sr)
    assert np.array_equal(w, scipy.linalg.eig_banded(
        _SMALL_BAND, lower=True, eigvals_only=True, select="v", select_range=sr))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(bad):
    rng = np.random.default_rng(2)
    d, e = _tridiagonal(rng, 8)
    ab, b = _band(rng, 8, float), rng.standard_normal(8)
    d_bad, ab_bad, b_bad = d.copy(), ab.copy(), b.copy()
    d_bad[3] = ab_bad[1, 3] = b_bad[3] = bad
    calls = [
        lambda: lapack.solve_banded((1, 1), ab_bad, b),
        lambda: lapack.solve_banded((1, 1), ab, b_bad),
        lambda: lapack.eigh_tridiagonal(d_bad, e, select="v", select_range=(-1.0, 1.0)),
        lambda: lapack.eig_banded(ab_bad[1:], lower=True, eigvals_only=True, select="v",
                                  select_range=(-1.0, 1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_singular_tridiagonal_raises_lin_alg_error():
    ab = _band(np.random.default_rng(3), 10, float)
    ab[0, 4] = ab[1, 4] = ab[2, 4] = 0.0  # column 4 of the matrix is zero
    with pytest.raises(np.linalg.LinAlgError):
        lapack.solve_banded((1, 1), ab, np.ones(10))
    with pytest.raises(np.linalg.LinAlgError):
        lapack.solve_banded((1, 1), ab.astype(complex), np.ones(10))


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
ab = np.array([[0.0, 1.0, 2.0], [4.0, 5.0, 6.0], [1.0, 1.0, 0.0]])
b = np.array([1.0, 2.0, 3.0])
{first}
{second}
import scipy.linalg
assert np.array_equal(lapack.solve_banded((1, 1), ab, b),
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
