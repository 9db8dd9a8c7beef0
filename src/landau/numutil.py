"""Small numerical helpers: extrapolation and a bounded scalar minimiser."""

import numpy as np


def neville_to_zero(xs, ys):
    """Polynomial extrapolation of samples (xs, ys) to x = 0 (Neville tableau).

    Returns (value, residual) where residual is the magnitude of the last
    tableau correction, a standard error surrogate for the extrapolated limit.
    """
    xs = np.asarray(xs, dtype=float)
    t = np.asarray(ys, dtype=complex).copy()
    n = len(xs)
    if n != len(t) or n < 2:
        raise ValueError("need at least two samples with matching abscissae")
    prev_top = t[0]
    for j in range(1, n):
        for i in range(n - j):
            t[i] = (xs[i + j] * t[i] - xs[i] * t[i + 1]) / (xs[i + j] - xs[i])
        prev_top, last = t[0], abs(t[0] - prev_top)
    return t[0], last


def richardson_h2(coarse, fine):
    """Eliminate the O(h^2) error from a pair computed at spacings h and h/2."""
    coarse = np.asarray(coarse)
    fine = np.asarray(fine)
    out = (4.0 * fine - coarse) / 3.0
    if out.ndim == 0:
        return out[()]
    return out


def minimize_bounded(func, lo, hi, xatol):
    """Minimiser of ``func`` on the finite interval lo <= x <= hi by Brent's
    bounded method.

    A step-for-step port of ``_minimize_scalar_bounded`` in scipy's optimize
    package (BSD-3-Clause; maxiter 500): it returns the bits of scipy's
    ``minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol}).x`` without that package's import cost.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return float(xf)
