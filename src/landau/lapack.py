"""The LAPACK calls of the package, made through ``ctypes`` on the OpenBLAS
builds that the numpy and scipy wheels bundle.

The real routines (?gtsv, dstebz/dstein, dsbevx and dlamch) run on numpy's own
OpenBLAS (``numpy.libs/libscipy_openblas64_*``: 64-bit integers, symbols
``scipy_<name>_64_``), which numpy has already mapped, so binding it maps no
page.  The complex band LU (zgbtrf/zgbtrs) runs on scipy's OpenBLAS
(``scipy.libs/libscipy_openblas-*``: 32-bit integers, symbols
``scipy_<name>_``): numpy's build gives the same LU bit for bit but is 25–40%
slower at it on the J = 7 bands the package factorizes.  That library is found
at import (``importlib.util.find_spec`` imports no scipy module) and opened on
the first band LU, so a run that factorizes no complex band never maps it, and
no run loads scipy's f2py module.

Each function makes the LAPACK calls, with the arguments, that the
``scipy.linalg`` function of the same name makes for the call form the package
uses, so its results are bitwise those of scipy; it keeps scipy's checks of
finite input and of LAPACK's ``info``.  As f2py does for scipy, every array is
checked for its shape and made of the type and order LAPACK reads before its
pointer is passed.  Each function takes only what that call form reads: the
symmetric tridiagonal solve ``solve_banded(d, e, b)``, the eigenpairs of a
tridiagonal in a value window ``eigh_tridiagonal(d, e, vl, vu)``, the
eigenvalues of a symmetric lower band in a value window ``eig_banded(ab, vl,
vu)``, and the banded LU ``zgbtrf``/``zgbtrs`` with scipy's 0-based int32
pivots.
"""

import ctypes
import functools
import importlib.util
from ctypes import POINTER, byref, c_char_p, c_double, c_int32, c_int64, c_size_t
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer
from numpy.linalg import LinAlgError


def _library(package_dir, prefix):
    """The OpenBLAS a wheel bundles beside its package: ``<package>.libs/prefix*``."""
    folder = package_dir.parent / f"{package_dir.name}.libs"
    found = sorted(folder.glob(f"{prefix}*"))
    if not found:
        searched = str(folder / f"{prefix}*")
        raise ImportError(f"landau needs the OpenBLAS that the {package_dir.name} wheel "
                          f"bundles, and {searched} matches no file", path=searched)
    return found[0]


def _scipy_openblas():
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("landau needs scipy, which is not installed", name="scipy")
    return _library(Path(spec.submodule_search_locations[0]), "libscipy_openblas-")


def _bind(lib, symbol, restype, *argtypes):
    function = getattr(lib, symbol)
    function.argtypes, function.restype = argtypes, restype
    return function


# argument types: an array is passed as an ndarray, which ctypes refuses unless
# it has the dtype and order named; a scalar by reference; a character as bytes
# followed, at the end of the list, by gfortran's hidden length of it
_D, _Z = ndpointer(np.float64, flags="F"), ndpointer(np.complex128, flags="F")
_IA, _PIV = ndpointer(np.int64, flags="F"), ndpointer(np.int32, flags="F")
_C, _L, _DP = c_char_p, c_size_t, POINTER(c_double)
_I = c_int64  # numpy's OpenBLAS takes 64-bit integers
_IP = POINTER(_I)

_NP = ctypes.CDLL(str(_library(Path(np.__file__).parent, "libscipy_openblas64_")))
_gtsv = {t: _bind(_NP, f"scipy_{c}gtsv_64_", None, _IP, _IP, a, a, a, a, _IP, _IP)
         for t, c, a in ((float, "d", _D), (complex, "z", _Z))}
_dstebz = _bind(_NP, "scipy_dstebz_64_", None, _C, _C, _IP, _DP, _DP, _IP, _IP, _DP,
                _D, _D, _IP, _IP, _D, _IA, _IA, _D, _IA, _IP, _L, _L)
_dstein = _bind(_NP, "scipy_dstein_64_", None, _IP, _D, _D, _IP, _D, _IA, _IA, _D,
                _IP, _D, _IA, _IA, _IP)
_dsbevx = _bind(_NP, "scipy_dsbevx_64_", None, _C, _C, _C, _IP, _IP, _D, _IP, _D, _IP,
                _DP, _DP, _IP, _IP, _DP, _IP, _D, _D, _IP, _D, _IA, _IA, _IP, _L, _L, _L)
# the abstol scipy passes to dsbevx
_ABSTOL = 2 * _bind(_NP, "scipy_dlamch_64_", c_double, _C, _L)(b"s", 1)
_SCIPY_OPENBLAS = _scipy_openblas()


@functools.cache
def _band_lu():
    """(zgbtrf, zgbtrs) of scipy's OpenBLAS, which the first call opens."""
    lib = ctypes.CDLL(str(_SCIPY_OPENBLAS))
    ip = POINTER(c_int32)
    return (_bind(lib, "scipy_zgbtrf_", None, ip, ip, ip, ip, _Z, ip, _PIV, ip),
            _bind(lib, "scipy_zgbtrs_", None, _C, ip, ip, ip, ip, _Z, ip, _PIV, _Z, ip,
                  ip, _L))


def _ref(value, ctype=_I):
    return byref(ctype(value))


def _check_info(info, routine):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise LinAlgError(f"{routine} did not converge (LAPACK info={info})")


def _order(d, e):
    """The order n of the tridiagonal (d, e), refused unless len(e) = n - 1."""
    if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
        raise ValueError(f"a tridiagonal needs n >= 1 diagonal and n - 1 off-diagonal "
                         f"entries, got shapes {d.shape} and {e.shape}")
    return d.size


def _output(a, dtype, overwrite):
    """``a`` as the F-ordered array LAPACK overwrites: ``a`` itself if
    ``overwrite`` allows it and it already is one, else a copy (f2py's rule)."""
    if overwrite:
        out = np.asarray(a, dtype=dtype, order="F")
        if out.flags.behaved:
            return out
    return np.array(a, dtype=dtype, order="F")


def _nrhs(x, n):
    """The column count of the right-hand side ``x``, refused unless it is
    (n,) or (n, nrhs)."""
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} for a matrix of order {n}")
    return 1 if x.ndim == 1 else x.shape[1]


def solve_banded(d, e, b):
    """x with A x = b for the symmetric tridiagonal A = (d, e) by ?gtsv:
    ``scipy.linalg.solve_banded(l_and_u, ab, b)`` with one sub- and one
    superdiagonal, the rows of ``ab`` being e shifted right, d and e."""
    d, e, b = (np.asarray_chkfinite(a) for a in (d, e, b))
    n = _order(d, e)
    dtype = complex if any(map(np.iscomplexobj, (d, e, b))) else float
    dl, d, du = (np.array(a, dtype=dtype) for a in (e, d, e))  # ?gtsv overwrites them
    x = np.array(b, dtype=dtype, order="F")
    info = _I()
    _gtsv[dtype](_ref(n), _ref(_nrhs(x, n)), dl, d, du, x, _ref(n), byref(info))
    if info.value > 0:
        raise LinAlgError("singular matrix")
    _check_info(info.value, "gtsv")
    return x


def eigh_tridiagonal(d, e, vl, vu):
    """(w, v): the eigenpairs in (vl, vu] of the symmetric tridiagonal (d, e),
    ascending; ``scipy.linalg.eigh_tridiagonal(d, e)`` with ``select="v"`` and
    the window (vl, vu), by dstebz and dstein."""
    d, e = (np.asarray(np.asarray_chkfinite(a), dtype=float, order="F") for a in (d, e))
    n = _order(d, e)
    w, (iblock, isplit) = np.empty(n), np.empty((2, n), dtype=np.int64)
    m, nsplit, info = _I(), _I(), _I()
    # range "V" selects by value (il, iu unused), tol 0, as scipy calls it
    _dstebz(b"V", b"B", _ref(n), _ref(vl, c_double), _ref(vu, c_double), _ref(1),
            _ref(1), _ref(0.0, c_double), d, e, byref(m), byref(nsplit), w, iblock,
            isplit, np.empty(4 * n), np.empty(3 * n, dtype=np.int64), byref(info), 1, 1)
    _check_info(info.value, "stebz")
    w = w[:m.value]
    v = np.empty((n, w.size), order="F")
    _dstein(_ref(n), d, e, _ref(w.size), w, iblock, isplit, v, _ref(n), np.empty(5 * n),
            np.empty(n, dtype=np.int64), np.empty(w.size, dtype=np.int64), byref(info))
    _check_info(info.value, "stein")
    order = np.argsort(w)
    return w[order], v[:, order]


def eig_banded(ab, vl, vu):
    """The eigenvalues in (vl, vu] of the symmetric band ``ab`` in lower
    storage; ``scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)``
    with ``select="v"`` and the window (vl, vu), by dsbevx."""
    ab = np.array(np.asarray_chkfinite(ab), dtype=float, order="F")  # dsbevx writes it
    if ab.ndim != 2 or ab.size == 0:
        raise ValueError(f"a symmetric band needs a non-empty 2-D ab, got {ab.shape}")
    ldab, n = ab.shape
    w = np.empty(n)
    m, info = _I(), _I()
    # jobz "N" references neither Q, Z nor IFAIL: one entry each, ldq = ldz = 1
    _dsbevx(b"N", b"V", b"L", _ref(n), _ref(ldab - 1), ab, _ref(ldab), np.empty(1),
            _ref(1), _ref(vl, c_double), _ref(vu, c_double), _ref(1), _ref(1),
            _ref(_ABSTOL, c_double), byref(m), w, np.empty(1), _ref(1), np.empty(7 * n),
            np.empty(5 * n, dtype=np.int64), np.empty(1, dtype=np.int64), byref(info),
            1, 1, 1)
    _check_info(info.value, "sbevx")
    return w[:m.value]


def _band_shape(ab, kl, ku):
    """(ldab, n) of a zgbtrf band, refused unless ``ab`` holds the kl fill rows
    and the kl + ku + 1 diagonals."""
    if ab.ndim != 2 or min(kl, ku) < 0 or ab.shape[0] < 2 * kl + ku + 1:
        raise ValueError(f"a band LU with kl={kl}, ku={ku} needs a 2-D ab of at least "
                         f"{2 * kl + ku + 1} rows, got shape {ab.shape}")
    return ab.shape


def zgbtrf(ab, kl, ku, overwrite_ab=0):
    """(lu, piv, info): ``scipy.linalg.lapack.zgbtrf``, the LU of the complex
    band ``ab`` (kl fill rows on top) by zgbtrf; ``ab`` is factorized in place
    if ``overwrite_ab`` and it is complex and F-ordered, else a copy."""
    lu = _output(ab, complex, overwrite_ab)
    ldab, n = _band_shape(lu, kl, ku)
    piv, info = np.empty(n, dtype=np.int32), c_int32()
    _band_lu()[0](_ref(n, c_int32), _ref(n, c_int32), _ref(kl, c_int32),
                  _ref(ku, c_int32), lu, _ref(ldab, c_int32), piv, byref(info))
    piv -= 1  # scipy's pivots are 0-based
    return lu, piv, info.value


def zgbtrs(lu, kl, ku, b, piv, overwrite_b=0):
    """(x, info): ``scipy.linalg.lapack.zgbtrs``, the solution of L U x = b
    for the zgbtrf factors ``lu``, ``piv`` by zgbtrs; ``b`` is (n,) or
    (n, nrhs), solved in place if ``overwrite_b`` and it is complex and
    F-ordered, else a copy."""
    lu = np.asarray(lu, dtype=complex, order="F")
    ldab, n = _band_shape(lu, kl, ku)
    ipiv = np.asarray(piv, dtype=np.int32) + 1  # LAPACK's pivots are 1-based
    if ipiv.shape != (n,) or (n and not 1 <= ipiv.min() <= ipiv.max() <= n):
        raise ValueError(f"zgbtrs needs {n} pivots in [0, {n}), got shape {ipiv.shape}")
    x = _output(b, complex, overwrite_b)
    info = c_int32()
    _band_lu()[1](b"N", _ref(n, c_int32), _ref(kl, c_int32), _ref(ku, c_int32),
                  _ref(_nrhs(x, n), c_int32), lu, _ref(ldab, c_int32), ipiv, x,
                  _ref(n, c_int32), byref(info), 1)
    return x, info.value
