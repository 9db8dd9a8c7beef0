"""Richardson extrapolation to h = 0 of values on the grid ladder h, h/2, h/4, ...,
and the long reductions whose bits reach an output.

Every h -> 0 limit of the package (lambda, F, the resonance branch, the decay
pole) is of a quantity with an even error expansion c1 h^2 + c2 h^4 + ...,
sampled on halved grids; ``richardson`` is the Richardson table of such a
ladder (Sidi, Practical Extrapolation Methods, 2003, ch. 1).

``dot`` and ``norm`` sum by numpy's pairwise summation, in one order whatever
the BLAS thread count: ``x @ y`` and ``np.linalg.norm`` call BLAS, which may
split a long reduction across threads and so round it differently.
"""

import math

import numpy as np


def dot(x, y):
    """The bilinear sum_i x_i y_i (no conjugation), summed pairwise."""
    return np.sum(x * y)


def norm(x):
    """The Euclidean norm of a real or complex vector, summed pairwise."""
    return math.sqrt(np.sum(x.real * x.real + x.imag * x.imag))


def richardson(*values):
    """The h -> 0 limit of values computed at spacings h, h/2, h/4, ...

    Step p of the table replaces each neighbouring pair (coarse, fine) by
    (4^p fine - coarse) / (4^p - 1), removing the O(h^(2p)) term; one value is
    returned as it is, two give (4 fine - coarse) / 3.
    """
    row = [np.asarray(v) for v in values]
    for p in range(1, len(row)):
        f = 4.0**p
        row = [(f * fine - coarse) / (f - 1.0) for coarse, fine in zip(row, row[1:])]
    out = row[0]
    return out[()] if out.ndim == 0 else out
