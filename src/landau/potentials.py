"""Potential data types and the built-in potential families.

``Potential1D`` carries the longitudinal potential v0(x3); ``PerturbationProfile``
carries the axisymmetric perturbation V(rho, x3).  Families below supply analytic
derivatives and complex-argument evaluators where the family admits them, which is
what the dilation (complex-scaling) paths require.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def smoothstep(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, built from exp(-1/u)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fu = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        fc = np.where(1 - u > 0, np.exp(-1.0 / np.where(1 - u > 0, 1 - u, 1.0)), 0.0)
    out = fu / (fu + fc)
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class PowerDecay:
    """U(rho) ~ rho^-alpha as rho -> infinity."""

    alpha: float


@dataclass(frozen=True)
class ExponentialDecay:
    """ln U(rho) ~ -mu rho^(2 beta) as rho -> infinity."""

    beta: float
    mu: float


@dataclass(frozen=True)
class CompactSupport:
    """U(rho) = 0 for rho >= radius."""

    radius: float


@dataclass(frozen=True)
class Potential1D:
    """Longitudinal potential v0 with derivative access.

    evaluate        vectorized v0(x); must accept complex x when theta0 is set
    derivatives     analytic derivatives (v0', v0'', ...) as far as available
    theta0          analyticity half-angle of the sector; None = not dilatable
    even            v0(-x) = v0(x); with an even V and a grid symmetric about 0,
                    ``operators.assemble`` may work on the even sector
    """

    evaluate: callable
    derivatives: tuple = ()
    theta0: float = None
    even: bool = False

    @property
    def derivative_order(self):
        return len(self.derivatives)

    @property
    def dilatable(self):
        return self.theta0 is not None

    def weighted_derivative(self, j, x):
        """v_j(x) = x^j v0^(j)(x); j = 0 returns v0 itself."""
        x = np.asarray(x)
        if j == 0:
            return self.evaluate(x)
        if j > self.derivative_order:
            raise DomainError(
                f"derivative order {j} unavailable (have {self.derivative_order})"
            )
        return x**j * self.derivatives[j - 1](x)


@dataclass(frozen=True)
class PerturbationProfile:
    """Axisymmetric perturbation V(rho, x3) with its radial decay class.

    evaluate         vectorized V(rho, x3); complex x3 allowed when theta0 is set
    theta0           analyticity half-angle of the sector; None = not dilatable
    sign_definite    V >= 0 everywhere
    breaks           radii where V(., x3) is not analytic in rho^2; the radial
                     quadrature (``specfun.radial_rule``) splits its panels there
    decay            the class of the radial decay of V, hence of every
                     longitudinal average U (PowerDecay, ExponentialDecay or
                     CompactSupport); None leaves U unclassified, and the
                     counting laws of ``toeplitz_ssf`` unavailable
    even             V(rho, -x3) = V(rho, x3); see ``Potential1D.even``
    """

    evaluate: callable
    theta0: float = None
    sign_definite: bool = False
    breaks: tuple = ()
    decay: object = None
    even: bool = False

    @property
    def dilatable(self):
        return self.theta0 is not None


# ---------------------------------------------------------------------------
# longitudinal families


def sech2(depth=2.0):
    """v0(x) = -depth / cosh(x)^2.  Entire in the strip |Im x| < pi/2; depth=2 is
    the reflectionless well with the single bound state at -1."""
    if not depth > 0:
        raise DomainError("sech2 depth must be positive")
    d = float(depth)

    def sq(x):
        # sech^2 without cosh overflow on large real arguments
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return 1.0 / np.cosh(x) ** 2
        t = np.exp(-2.0 * np.abs(x))
        return 4.0 * t / (1.0 + t) ** 2

    def v(x):
        return -d * sq(x)

    def d1(x):
        return 2 * d * sq(x) * np.tanh(x)

    def d2(x):
        s, t = sq(x), np.tanh(x)
        return 2 * d * s * (s - 2 * t**2)

    def d3(x):
        s, t = sq(x), np.tanh(x)
        return 8 * d * s * t * (t**2 - 2 * s)

    def d4(x):
        s, t = sq(x), np.tanh(x)
        return 8 * d * s * (-2 * t**4 + 11 * s * t**2 - 2 * s**2)

    return Potential1D(
        evaluate=v,
        derivatives=(d1, d2, d3, d4),
        theta0=math.pi / 2 - 1e-9,
        even=True,
    )


def square_well(depth=0.5, half_width=1.0):
    """v0(x) = -depth on |x| < half_width, 0 outside.  Not dilatable; no
    classical derivatives (the jump is handled by breakpoint-aware marching)."""
    if not (depth > 0 and half_width > 0):
        raise DomainError("square well depth and half_width must be positive")
    d, a = float(depth), float(half_width)

    def v(x):
        # midpoint value at the jump keeps node-aligned grids second-order clean
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) < a, -d, 0.0)
        out = np.where(np.abs(np.abs(x) - a) < 1e-12, -0.5 * d, out)
        return out if out.ndim else out[()]

    return Potential1D(evaluate=v, even=True)


def zero_potential():
    """v0 = 0; free longitudinal motion."""

    def zero(x):
        out = np.zeros_like(np.asarray(x))
        return out if out.ndim else out[()]

    return Potential1D(
        evaluate=zero,
        derivatives=(zero, zero, zero, zero),
        theta0=math.pi / 2 - 1e-9,
        even=True,
    )


# ---------------------------------------------------------------------------
# perturbation families


def gaussian_product(amplitude=1.0, rho_rate=1.0, x3_rate=1.0):
    """V(rho, x3) = amplitude e^(-rho_rate rho^2) e^(-x3_rate x3^2).

    Analytic in x3 with sector half-angle pi/4 (the Gaussian keeps decaying for
    |Arg z| < pi/4).  Sign-definite when amplitude >= 0.
    """
    A, ar, ax = float(amplitude), float(rho_rate), float(x3_rate)
    if not (ar > 0 and ax > 0):
        raise DomainError("gaussian rates rho_rate and x3_rate must be positive")

    def v(rho, x3):
        return A * np.exp(-ar * np.asarray(rho) ** 2) * np.exp(-ax * np.asarray(x3) ** 2)

    return PerturbationProfile(
        evaluate=v,
        theta0=math.pi / 4 - 1e-9,
        sign_definite=A >= 0,
        decay=ExponentialDecay(beta=1.0, mu=ar) if A > 0 else None,
        even=True,
    )


def power_radial(alpha=4.0, amplitude=1.0, x3_rate=None):
    """V = amplitude (1+rho^2)^(-alpha/2), optionally times e^(-x3_rate x3^2).

    With x3_rate = None the profile is x3-independent (transverse-profile work);
    supply x3_rate when a genuine 3D perturbation is needed.
    """
    A, al = float(amplitude), float(alpha)
    if not (al > 0 and (x3_rate is None or x3_rate > 0)):
        raise DomainError("power-decay exponent alpha and x3_rate must be positive")
    ax = None if x3_rate is None else float(x3_rate)

    def v(rho, x3):
        rad = A * (1.0 + np.asarray(rho) ** 2) ** (-al / 2)
        if ax is None:
            return rad * np.ones_like(np.asarray(x3, dtype=float))
        return rad * np.exp(-ax * np.asarray(x3) ** 2)

    return PerturbationProfile(
        evaluate=v,
        theta0=None if ax is None else math.pi / 4 - 1e-9,
        sign_definite=A >= 0,
        decay=PowerDecay(alpha=al) if A > 0 else None,
        even=True,
    )


def compact_radial(radius=1.0, amplitude=1.0, x3_rate=None):
    """Smooth compactly supported radial bump: amplitude on [0, 0.7 radius],
    C-infinity decay to 0 at rho = radius.  Optional Gaussian x3 factor."""
    A, R = float(amplitude), float(radius)
    if not (R > 0 and (x3_rate is None or x3_rate > 0)):
        raise DomainError("support radius and x3_rate must be positive")
    ax = None if x3_rate is None else float(x3_rate)

    def v(rho, x3):
        rho = np.asarray(rho, dtype=float)
        rad = A * smoothstep((R - rho) / (0.3 * R))
        if ax is None:
            return rad * np.ones_like(np.asarray(x3, dtype=float))
        return rad * np.exp(-ax * np.asarray(x3) ** 2)

    return PerturbationProfile(
        evaluate=v,
        theta0=None,
        sign_definite=A >= 0,
        breaks=(0.7 * R, R),
        decay=CompactSupport(radius=R) if A > 0 else None,
        even=True,
    )


V_FAMILIES = {
    "gaussian_product": gaussian_product,
    "power_radial": power_radial,
    "compact_radial": compact_radial,
}

V0_FAMILIES = {
    "sech2": sech2,
    "square_well": square_well,
    "zero": zero_potential,
}
