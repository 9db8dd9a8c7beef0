"""The LAPACK calls of the package, made on scipy's compiled ``_flapack`` module.

The module is loaded from its file, so no scipy package ``__init__`` runs:
``scipy.linalg``'s own import pulls in its array-API layer (and through it
``numpy.f2py`` and ``numpy.testing``), which costs about 0.2 s and 26 MB per
run.  Each function below makes the LAPACK calls, with the arguments, that the
``scipy.linalg`` function of the same name makes for the call form the package
uses, so its results are bitwise those of scipy; it keeps scipy's checks of
finite input and of LAPACK's ``info``.  Each takes only what that call form
reads: the symmetric tridiagonal solve ``solve_banded(d, e, b)``, the
eigenpairs of a tridiagonal in a value window ``eigh_tridiagonal(d, e, vl,
vu)``, the eigenvalues of a symmetric lower band in a value window
``eig_banded(ab, vl, vu)``, and the banded LU ``zgbtrf``/``zgbtrs``.
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


def solve_banded(d, e, b):
    """x with A x = b for the symmetric tridiagonal A = (d, e) by ?gtsv:
    ``scipy.linalg.solve_banded(l_and_u, ab, b)`` with one sub- and one
    superdiagonal, the rows of ``ab`` being e shifted right, d and e."""
    d, e, b = (np.asarray_chkfinite(a) for a in (d, e, b))
    gtsv = _flapack.zgtsv if any(map(np.iscomplexobj, (d, e, b))) else _flapack.dgtsv
    _, _, _, x, info = gtsv(e, d, e, b)
    if info > 0:
        raise LinAlgError("singular matrix")
    _check_info(info, "gtsv")
    return x


def eigh_tridiagonal(d, e, vl, vu):
    """(w, v): the eigenpairs in (vl, vu] of the symmetric tridiagonal (d, e),
    ascending; ``scipy.linalg.eigh_tridiagonal(d, e)`` with ``select="v"`` and
    the window (vl, vu), by dstebz and dstein."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    # range 1 selects by value (il, iu unused), tol 0, as scipy calls it
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 1, vl, vu, 1, 1, 0.0, "B")
    _check_info(info, "stebz")
    w = w[:m]
    v, info = _flapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein")
    order = np.argsort(w)
    return w[order], v[:, order]


def eig_banded(ab, vl, vu):
    """The eigenvalues in (vl, vu] of the symmetric band ``ab`` in lower
    storage; ``scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)``
    with ``select="v"`` and the window (vl, vu), by dsbevx."""
    w, _, m, _, info = _flapack.dsbevx(np.asarray_chkfinite(ab), vl, vu, 1, 1,
                                       compute_v=0, mmax=1, range=1,
                                       lower=1, overwrite_ab=0, abstol=_ABSTOL)
    _check_info(info, "sbevx")
    return w[:m]
