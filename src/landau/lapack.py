"""The LAPACK calls of the package, made on scipy's compiled ``_flapack`` module.

The module is loaded from its file, so no scipy package ``__init__`` runs:
``scipy.linalg``'s own import pulls in its array-API layer (and through it
``numpy.f2py`` and ``numpy.testing``), which costs about 0.2 s and 26 MB per
run.  Each function below makes the LAPACK calls, with the arguments, that the
``scipy.linalg`` function of the same name makes for the call form the package
uses, so its results are bitwise those of scipy; it keeps scipy's checks of
finite input and of LAPACK's ``info``.  The package needs four call forms:
the tridiagonal solve ``solve_banded``, the eigenpairs of a tridiagonal in a
value window ``eigh_tridiagonal``, the eigenvalues of a symmetric band in a
value window ``eig_banded``, and the banded LU ``zgbtrf``/``zgbtrs``.
"""

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("landau needs scipy, which is not installed", name="scipy")
    folder = Path(scipy_spec.submodule_search_locations[0]) / "linalg"
    paths = [folder / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension {paths[0]} is missing",
                          name=_NAME, path=str(paths[0]))
    registered = _NAME in sys.modules
    spec = importlib.util.spec_from_file_location(
        _NAME, path, loader=ExtensionFileLoader(_NAME, str(path)))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        # the loader files the module under its scipy name; leave sys.modules
        # as it was, so that a later `import scipy.linalg` runs as usual
        sys.modules.pop(_NAME, None)
    return module


_flapack = _load_flapack()
zgbtrf = _flapack.zgbtrf
zgbtrs = _flapack.zgbtrs
_ABSTOL = 2 * _flapack.dlamch("s")  # the abstol scipy passes to dsbevx


def _check_info(info, routine):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise LinAlgError(f"{routine} did not converge (LAPACK info={info})")


def _only(condition, form):
    if not condition:
        raise NotImplementedError(f"landau.lapack supports only {form}")


def solve_banded(l_and_u, ab, b):
    """x with A x = b for the tridiagonal A in ``ab`` (rows: super-, main and
    sub-diagonal); ``scipy.linalg.solve_banded((1, 1), ab, b)`` by ?gtsv."""
    _only(tuple(l_and_u) == (1, 1), "solve_banded((1, 1), ab, b)")
    a1 = np.asarray_chkfinite(ab)
    b1 = np.asarray_chkfinite(b)
    gtsv = _flapack.zgtsv if np.iscomplexobj(a1) or np.iscomplexobj(b1) else _flapack.dgtsv
    _, _, _, x, info = gtsv(a1[2, :-1], a1[1, :], a1[0, 1:], b1)
    if info > 0:
        raise LinAlgError("singular matrix")
    _check_info(info, "gtsv")
    return x


def eigh_tridiagonal(d, e, select, select_range):
    """(w, v): the eigenpairs in (vl, vu] = ``select_range`` of the symmetric
    tridiagonal (d, e), ascending; ``scipy.linalg.eigh_tridiagonal(d, e,
    select="v", select_range=(vl, vu))`` by dstebz and dstein."""
    _only(select == "v", 'eigh_tridiagonal(d, e, select="v", select_range=...)')
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    vl, vu = np.asarray(select_range)
    # range 1 selects by value (il, iu unused), tol 0, as scipy calls it
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 1, vl, vu, 1, 1, 0.0, "B")
    _check_info(info, "stebz")
    w = w[:m]
    v, info = _flapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein")
    order = np.argsort(w)
    return w[order], v[:, order]


def eig_banded(a_band, lower=False, eigvals_only=False, select="a", select_range=None):
    """The eigenvalues in (vl, vu] = ``select_range`` of the symmetric band
    ``a_band`` in lower storage; ``scipy.linalg.eig_banded(a_band, lower=True,
    eigvals_only=True, select="v", select_range=(vl, vu))`` by dsbevx."""
    _only(lower and eigvals_only and select == "v",
          'eig_banded(ab, lower=True, eigvals_only=True, select="v", select_range=...)')
    a1 = np.asarray_chkfinite(a_band)
    vl, vu = np.asarray(select_range)
    w, _, m, _, info = _flapack.dsbevx(a1, vl, vu, 1, 1, compute_v=0, mmax=1, range=1,
                                       lower=1, overwrite_ab=0, abstol=_ABSTOL)
    _check_info(info, "sbevx")
    return w[:m]
