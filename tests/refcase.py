"""Shared reference configuration and cached expensive computations.

The reference setup (b = 1, v0 = -2 sech^2, V = e^(-rho^2) e^(-x3^2), m = 0,
q = 1, Im theta = 0.3) exercises every pipeline; several suites need the same
branches and golden-rule values, so they are computed once per session.
"""

from functools import lru_cache

import numpy as np

from landau.fgr import fgr_value
from landau.operators import BasisTruncation, LandauProblem
from landau.potentials import gaussian_product, sech2
from landau.resonance import continue_in_kappa, fit_expansion
from landau.resonance import richardson_branch as _branch
from landau.schrodinger1d import Grid1D


def problem():
    return LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)


def basis(n=1201, J=7, L=18.0):
    return BasisTruncation(J=J, grid=Grid1D(-L, L, n))


@lru_cache(maxsize=None)
def branch_pair(theta_im=0.3, q=1, kmax=0.08, npts=9):
    """(coarse, fine) resonance branches on (h, h/2) grids."""
    prob = problem()
    bas = basis()
    grid_k = np.linspace(0.0, kmax, npts)
    coarse = continue_in_kappa(prob, bas, 1j * theta_im, q, grid_k)
    fine = continue_in_kappa(prob, bas.refined(), 1j * theta_im, q, grid_k)
    return coarse, fine


@lru_cache(maxsize=None)
def richardson_branch(theta_im=0.3, q=1, kmax=0.08, npts=9):
    """The Richardson-combined branch from ``resonance.richardson_branch``."""
    return tuple(_branch(problem(), basis(), 1j * theta_im, q,
                         np.linspace(0.0, kmax, npts)))


@lru_cache(maxsize=None)
def reference_fit():
    return fit_expansion(richardson_branch())


@lru_cache(maxsize=None)
def reference_fgr(q=1):
    return fgr_value(problem(), basis(), q)
