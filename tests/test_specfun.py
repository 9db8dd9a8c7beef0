import math
from fractions import Fraction

import numpy as np
import pytest

from landau.errors import DomainError
from landau.specfun import (
    RadialMode,
    m_minus,
    panel_rule,
    radial_eigenfunction,
    radial_overlap,
    radial_rule,
)


def exact_laguerre(q, m, s_rational):
    """Independent oracle: the defining finite sum in exact rational arithmetic."""
    total = Fraction(0)
    for l in range(m_minus(m), q + 1):
        c = Fraction(
            math.factorial(q + m),
            math.factorial(m + l) * math.factorial(q - l) * math.factorial(l),
        )
        total += c * (-s_rational) ** l
    return total


def _exact_phi(b, q, m, rho):
    """The closed form sqrt(2 q!/(q+m)! (b/2)^(m+1)) rho^m L_q^(m)(b rho^2/2)
    e^(-b rho^2/4) at a float rho, exact but for one sqrt and one exp; m >= 0."""
    r2 = Fraction(rho) ** 2
    s = Fraction(b) * r2 / 2
    norm2 = (Fraction(2 * math.factorial(q), math.factorial(q + m))
             * (Fraction(b) / 2) ** (m + 1))
    return (math.sqrt(norm2 * r2**m) * float(exact_laguerre(q, m, s))
            * math.exp(-float(s) / 2))


def test_radial_eigenfunction_matches_closed_form():
    # the orthonormal recurrence against the defining Laguerre sum in rational
    # arithmetic, through the m < 0 reflection phi_{q,m} = phi_{q+m,-m}
    rho = np.array([0.0, 0.05, 0.4, 1.1, 1.9, 2.7, 3.6, 5.0, 7.5, 10.0])
    for b in (0.5, 1.0, 2.0):
        for m in range(-3, 7):
            for q in range(m_minus(m), 21):
                got = radial_eigenfunction(RadialMode(b, q, m), rho)
                qq, mm = (q + m, -m) if m < 0 else (q, m)
                exact = np.array([_exact_phi(b, qq, mm, r) for r in rho])
                err = np.abs(got - exact)
                assert np.all(err <= 1e-12 * np.abs(exact) + 1e-13), (b, q, m, err)


def test_mode_invariants():
    with pytest.raises(DomainError):
        RadialMode(b=-1.0, q=0, m=0)
    with pytest.raises(DomainError):
        RadialMode(b=1.0, q=1, m=-2)
    RadialMode(b=1.0, q=2, m=-2)  # q = m_- is admissible


def test_ground_state_gaussian():
    # phi_{0,0}(rho) = sqrt(b) e^(-b rho^2/4), positive, unit norm in rho drho
    b = 1.0
    rho = np.linspace(0.0, 6.0, 200)
    phi = radial_eigenfunction(RadialMode(b, 0, 0), rho)
    assert np.allclose(phi, np.sqrt(b) * np.exp(-b * rho**2 / 4), rtol=1e-13)


def test_orthonormality_grid():
    # |<phi_q, phi_q'> - delta| < 1e-10 for q,q' <= 12, |m| <= 6
    b = 1.0
    for m in (-6, -3, -1, 0, 1, 4, 6):
        lo = m_minus(m)
        rule = radial_rule(b, lo + 12, m)
        ones = np.ones_like(rule.nodes)
        for q in range(lo, lo + 13):
            for qp in range(q, lo + 13):
                val = radial_overlap(
                    RadialMode(b, q, m), RadialMode(b, qp, m), ones, rule
                )
                target = 1.0 if q == qp else 0.0
                assert abs(val - target) < 1e-10, (q, qp, m, val)


def test_sign_convention_near_origin():
    for q, m in [(0, 0), (1, 0), (2, 1), (2, -1), (3, -3), (5, -2)]:
        assert radial_eigenfunction(RadialMode(1.0, q, m), 1e-5) > 0.0


def test_first_excited_node():
    # phi_{1,0} changes sign at rho = sqrt(2) (zero of 1 - s at s = 1, s = b rho^2/2)
    mode = RadialMode(1.0, 1, 0)
    r0 = math.sqrt(2.0)
    assert radial_eigenfunction(mode, r0 - 1e-3) > 0
    assert radial_eigenfunction(mode, r0 + 1e-3) < 0
    assert abs(radial_eigenfunction(mode, r0)) < 1e-12


def test_negative_m_reflection():
    # phi_{q,m} for m < 0 spans the same eigenspace: equals phi_{q+m,-m}
    rho = np.linspace(0.01, 8.0, 50)
    a = radial_eigenfunction(RadialMode(1.0, 3, -2), rho)
    b_ = radial_eigenfunction(RadialMode(1.0, 1, 2), rho)
    assert np.allclose(a, b_, rtol=0, atol=1e-14)


def test_overlap_normalization_and_orthogonality():
    b = 1.0
    rule = radial_rule(b, 1, 0)
    ones = np.ones_like(rule.nodes)
    same = radial_overlap(RadialMode(b, 1, 0), RadialMode(b, 1, 0), ones, rule)
    cross = radial_overlap(RadialMode(b, 0, 0), RadialMode(b, 1, 0), ones, rule)
    assert abs(same - 1.0) < 1e-12
    assert abs(cross) < 1e-12


def test_gaussian_overlap_closed_form():
    # <e^(-mu rho^2) phi_{0,m}, phi_{0,m}> = (b/(b+2mu))^(m+1), Gamma integral
    for b, mu in [(1.0, 0.5), (2.0, 1.0)]:
        for m in (0, 3, 17):
            rule = radial_rule(b, 0, m)
            w = np.exp(-mu * rule.nodes**2)
            got = radial_overlap(RadialMode(b, 0, m), RadialMode(b, 0, m), w, rule)
            assert got == pytest.approx((b / (b + 2 * mu)) ** (m + 1), rel=1e-10)
    # the documented reference point
    rule = radial_rule(1.0, 0, 0)
    got = radial_overlap(
        RadialMode(1.0, 0, 0),
        RadialMode(1.0, 0, 0),
        np.exp(-0.5 * rule.nodes**2),
        rule,
    )
    assert got == pytest.approx(0.5, abs=1e-12)


def test_overlap_mode_mismatch():
    rule = radial_rule(1.0, 1, 0)
    ones = np.ones_like(rule.nodes)
    with pytest.raises(DomainError):
        radial_overlap(RadialMode(1.0, 0, 0), RadialMode(2.0, 0, 0), ones, rule)
    with pytest.raises(DomainError):
        radial_overlap(RadialMode(1.0, 1, 0), RadialMode(1.0, 1, 1), ones, rule)


def test_rule_invariants():
    rule = radial_rule(1.5, 40, 0)
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    # exactness: integrate rho^(2k) e^(-b rho^2/2) rho drho = k! (2/b)^k / b... check k=3
    b = 1.5
    k = 3
    val = np.dot(rule.weights, rule.nodes ** (2 * k) * np.exp(-b * rule.nodes**2 / 2))
    exact = math.factorial(k) * (2.0 / b) ** k / b
    assert val == pytest.approx(exact, rel=1e-13)
    with pytest.raises(DomainError):
        radial_rule(0.0, 4, 0)


def test_rule_panels_and_breaks():
    # panels [0, 1/2], [1/2, 1], ..., [128, 256] in s = b rho^2/2 at 20 nodes
    # each, the first shrinking with b; a declared break splits its panel, and
    # a panel ending at one gets 40 nodes
    s = 0.5 * radial_rule(1.0, 6, 0).nodes ** 2
    edges = [0.0] + [2.0**k for k in range(-1, 9)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        assert np.count_nonzero((s > lo) & (s < hi)) == 20
    assert len(radial_rule(2.0, 6, 0).nodes) == 200
    assert len(radial_rule(0.2, 6, 0).nodes) == 240  # first panel [0, 1/8]
    s = 0.5 * radial_rule(1.0, 6, 0, (0.7, 1.0)).nodes ** 2  # breaks at s = 0.245, 0.5
    counts = [np.count_nonzero((s > lo) & (s < hi))
              for lo, hi in [(0.0, 0.245), (0.245, 0.5), (0.5, 1.0), (1.0, 2.0)]]
    assert counts == [40, 40, 40, 20]
    # one rule per (b, size, nodes, breaks): the same for every Laguerre
    # degree n <= 16 at m = 0 and for n <= 1 at |m| <= 64 (n = q - m_-)
    rule = radial_rule(1.0, 0, 0, (0.7, 1.0))
    assert radial_rule(1.0, 16, 0, (1.0, 0.7)) is rule
    assert radial_rule(1.0, 1, 64, (0.7, 1.0)) is rule
    assert radial_rule(1.0, 65, -64, (0.7, 1.0)) is rule
    # higher degrees: more nodes per panel, panels past the turning point
    assert len(radial_rule(1.0, 17, 0).nodes) == 10 * 30
    assert len(radial_rule(1.0, 40, 0).nodes) == 11 * 40  # up to 512


@pytest.mark.parametrize("q, m", [(20, 0), (44, 0), (80, 0), (83, -3), (120, 0),
                                  (170, 0), (5, 64), (40, 64), (100, 16)])
def test_orthonormality_at_high_degree(q, m):
    # the Landau factor of Laguerre degree n = q - m_- oscillates up to
    # s = 4n + 2|m| + 2: the panels reach past it and resolve its
    # oscillations, to the tolerance of the low-degree test's closed forms
    b = 1.0
    rule = radial_rule(b, q, m)
    ones = np.ones_like(rule.nodes)
    for qp in (q, q - 1, q - 5):
        if qp < m_minus(m):
            continue
        val = radial_overlap(RadialMode(b, q, m), RadialMode(b, qp, m), ones, rule)
        assert abs(val - (q == qp)) < 1e-13, (qp, val)


def test_one_panel_rule_is_gauss_legendre():
    rule = panel_rule(2.0, (3.0, 7.0), (12,))
    xg, wg = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(rule.nodes, np.sqrt(2.0 * (5.0 + 2.0 * xg) / 2.0))
    assert np.array_equal(rule.weights, 2.0 * wg / 2.0)


@pytest.mark.parametrize("m", [100, 1000, 4000])
def test_ground_mode_normalized_at_large_m(m):
    # ln m! of the normalization is math.lgamma(m + 1); the toeplitz counting
    # laws reach m = 4000.  There the terms of the log-space sum (m ln rho and
    # ln m! among them) are of size ~3e4, and their rounding alone leaves the
    # norm up to 2.7e-12 off over b = 0.5, 1, 2
    tol = 1e-12 if m <= 1000 else 4e-12
    for b in (0.5, 1.0, 2.0):
        rule = radial_rule(b, 0, m)
        phi = radial_eigenfunction(RadialMode(b, 0, m), rule.nodes)
        assert abs(float(np.dot(rule.weights, phi * phi)) - 1.0) < tol, b
