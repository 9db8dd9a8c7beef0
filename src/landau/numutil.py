"""Small numerical helpers: Neville extrapolation to zero and the O(h^2)
Richardson step."""

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

