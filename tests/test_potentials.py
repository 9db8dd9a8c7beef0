import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refcase
from landau.errors import DomainError
from landau.numutil import richardson
from landau.potentials import (
    compact_radial,
    gaussian_product,
    power_radial,
    sech2,
    smoothstep,
    square_well,
    zero_potential,
)


def _fd_derivative(f, x, order, h=1e-3):
    # central finite-difference stencils up to fourth order
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    if order == 4:
        return (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h)
                + f(x - 2 * h)) / h**4
    raise ValueError(order)


def test_sech2_analytic_derivatives():
    v = sech2(depth=1.7)
    x = np.array([-2.3, -0.7, 0.0, 0.4, 1.9])
    for order, d in enumerate(v.derivatives, start=1):
        # higher-order stencils amplify roundoff like h^-order: widen the step
        h = 1e-3 if order <= 2 else 2e-2
        fd = _fd_derivative(v.evaluate, x, order, h=h)
        assert np.allclose(d(x), fd, rtol=5e-3, atol=5e-3), order


def test_weighted_derivatives():
    v = sech2()
    x = np.array([0.5, 1.5])
    assert np.allclose(v.weighted_derivative(0, x), v.evaluate(x))
    assert np.allclose(v.weighted_derivative(1, x), x * v.derivatives[0](x))
    with pytest.raises(DomainError):
        square_well().weighted_derivative(1, x)


def test_complex_evaluation_sech2():
    v = sech2()
    z = np.exp(0.3j) * np.array([1.0, 5.0, 15.0])
    vals = v.evaluate(z)
    assert np.iscomplexobj(vals)
    assert np.all(np.isfinite(vals))
    # dilated potential still decays along the ray
    assert abs(vals[-1]) < 1e-9


def test_sech2_no_overflow_far_out():
    v = sech2()
    with np.errstate(over="raise"):
        vals = v.evaluate(np.array([-3000.0, 3000.0]))
    assert np.all(vals == 0.0)


def test_square_well_midpoint_convention():
    v = square_well(0.5, 1.0)
    assert v.evaluate(1.0) == -0.25
    assert v.evaluate(0.999999) == -0.5
    assert v.evaluate(1.000001) == 0.0


def test_profile_positivity_flags():
    assert gaussian_product(amplitude=1.0).sign_definite
    assert not gaussian_product(amplitude=-1.0).sign_definite
    assert power_radial().sign_definite
    assert compact_radial().sign_definite


def test_smoothstep_endpoints():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    u = np.linspace(0, 1, 100)
    assert np.all(np.diff(smoothstep(u)) >= 0)


def test_zero_potential_family():
    v = zero_potential()
    assert v.evaluate(3.0) == 0.0
    assert v.dilatable


def test_neville_extrapolation():
    xs = np.array([0.4, 0.2, 0.1, 0.05])
    ys = 2.0 + 3.0 * xs - xs**2
    val, resid = refcase.neville_to_zero(xs, ys)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert resid < 1e-10 or resid == pytest.approx(abs(val - 2.0), abs=1.0)


def test_richardson_pair():
    # f(h) = L + c h^2: the pair (h, h/2) recovers L exactly
    L, c, h = 1.37, 0.81, 0.1
    assert richardson(L + c * h**2, L + c * (h / 2) ** 2) == pytest.approx(L)


FINITE = st.floats(-1e6, 1e6)


@given(x=FINITE)
def test_richardson_returns_a_single_value_unchanged(x):
    assert richardson(x) == x


@given(coarse=FINITE, fine=FINITE)
def test_richardson_pair_is_the_h2_step_bitwise(coarse, fine):
    got = np.float64(richardson(coarse, fine))
    assert got.tobytes() == np.float64((4.0 * fine - coarse) / 3.0).tobytes()


@given(limit=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
       c1=st.floats(-10.0, 10.0), c2=st.floats(-10.0, 10.0), h=st.floats(1e-3, 0.2))
def test_richardson_ladder_of_three_removes_h2_and_h4(limit, sign, c1, c2, h):
    L = sign * limit
    vals = [L + c1 * x**2 + c2 * x**4 for x in (h, h / 2, h / 4)]
    assert abs(richardson(*vals) - L) <= 1e-12 * abs(L)

