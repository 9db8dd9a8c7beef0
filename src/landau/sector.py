"""The even sector of a parity-symmetric truncation.

When v0, V and the grid are even in x3, the reflection x3 -> -x3 commutes with
H, kappa V and the dilation, and the embedded state phi_q (x) psi_0 is even.
``EvenSectorOperator`` is the orthogonal compression S^T M S of a full-grid
operator M to the even sector: the interior nodes x3 >= 0 in the orthonormal
basis e_c, (e_(c+i) + e_(c-i)) / sqrt(2) about the centre node c.  Its stencil
is the x3 >= 0 half of M's with the first link sqrt(2) hpar_off; with no
centre node (an even interior count) the basis is (e_(c+i) + e_(c-1-i)) /
sqrt(2), the first link stays hpar_off and the first diagonal entry gains
hpar_off.  Its coupling is its own x3 >= 0 contraction
(``operators.coupling(..., half=True)``), bitwise M's entries there, so
M itself is never built.

The complex-scaled solves that start from the embedded state (the resonance
branch, the decay poles and the decay resolvent) run here, at half the band;
``restrict`` maps their full-grid vectors in, and for even vectors the
bilinear and Euclidean pairings keep their values.  Eigenvalue counts need
both sectors and stay on the full grid, so ``operators.assemble`` loads this
module only when asked for the sector.
"""

import math

import numpy as np

from .errors import DomainError
from .operators import AssembledOperator


class EvenSectorOperator(AssembledOperator):
    """S^T M S, with its first link ``first_off``, from M's parameters:
    ``hpar_diag`` is the full grid's stencil diagonal, of length ``n_full``,
    and ``coupling`` C on the nodes x3 >= 0 only, (J, J, n_full - n_full // 2),
    or None."""

    def __init__(self, kappa, mode_shifts, hpar_diag, hpar_off, coupling):
        n_full = self.n_full = len(hpar_diag)
        diag, self.first_off = hpar_diag[n_full // 2:], math.sqrt(2.0) * hpar_off
        if n_full % 2 == 0:
            diag, self.first_off = diag.copy(), hpar_off
            diag[0] += hpar_off
        super().__init__(kappa, mode_shifts, diag, hpar_off, coupling)

    @property
    def D(self):
        """Refused: with the scalar hpar_off, the layouts built from D
        (``symmetric_band_lower``, ``inertia_counts``) would drop the first link."""
        raise DomainError("D and hpar_off would drop the even sector's first link")

    def _links(self):
        links = np.full(self.n_int - 1, self.hpar_off)
        links[:1] = self.first_off
        return links

    def _shifted_band(self, shift):
        ab = super()._shifted_band(shift)
        J = self.J
        if self.n_int > 1:
            ab[3 * J, :J] = ab[J, J : 2 * J] = self.first_off
        return ab

    def restrict(self, vec):
        """Sector coordinates S^T v of a full-grid mode-major vector: v at the
        centre node, if any, then (v(x) + v(-x)) / sqrt(2) for x > 0."""
        n = self.n_full
        v = np.asarray(vec).reshape(self.J, n)
        out = v[:, n - self.n_int:].copy()
        paired = out[:, self.n_int - n // 2:]
        paired += v[:, : n // 2][:, ::-1]
        paired *= math.sqrt(0.5)
        return out.reshape(-1)
