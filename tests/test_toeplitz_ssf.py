import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refcase
from landau.errors import DomainError, RangeError
from landau.fgr import first_order_shift
from landau.potentials import (
    V_FAMILIES,
    PerturbationProfile,
    compact_radial,
    gaussian_product,
    power_radial,
    zero_potential,
)
from landau.schrodinger1d import Grid1D, bound_states
from landau.specfun import RadialMode, m_minus, radial_eigenfunction
from landau.toeplitz_ssf import (
    CompactSupport,
    CountingFunction,
    ExponentialDecay,
    PowerDecay,
    TransverseProfile,
    gap_accumulation_check,
    law_convergence_report,
    law_prediction,
    toeplitz_eigenvalue,
    toeplitz_eigenvalues,
    transverse_profile,
)

PROBLEM = refcase.problem()
BASIS = refcase.basis(n=1201, J=6)
PSI = bound_states(PROBLEM.v0, BASIS.grid)[0]


def test_transverse_profile_separable():
    # V = W(rho) w(x): U = W * int w psi^2
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    c = BASIS.grid.h * float(np.dot(np.exp(-BASIS.grid.points**2) * PSI.psi, PSI.psi))
    rho = np.linspace(0.0, 4.0, 50)
    assert np.allclose(prof(rho), c * np.exp(-(rho**2)), rtol=1e-12)
    # quadrature oracle at doubled resolution
    fine = bound_states(PROBLEM.v0, BASIS.grid.refined())[0]
    c2 = fine.grid.h * float(np.dot(np.exp(-fine.grid.points**2) * fine.psi, fine.psi))
    assert c == pytest.approx(c2, rel=1e-4)


def test_transverse_profile_positivity():
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    rho = np.geomspace(0.05, 20.0, 200)
    assert np.all(prof(rho) >= 0.0)


_FAMILY_PARAMS = {
    "gaussian_product": dict(rho_rate=st.floats(0.05, 5.0), x3_rate=st.floats(0.2, 4.0)),
    "power_radial": dict(alpha=st.floats(0.5, 12.0),
                         x3_rate=st.none() | st.floats(0.2, 4.0)),
    "compact_radial": dict(radius=st.floats(0.05, 10.0),
                           x3_rate=st.none() | st.floats(0.2, 4.0)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(_FAMILY_PARAMS)),
       amplitude=st.floats(-5.0, 0.0) | st.floats(0.01, 10.0))
def test_decay_classification(data, family, amplitude):
    # each family's declared decay class holds for U sampled from its V
    params = data.draw(st.fixed_dictionaries(_FAMILY_PARAMS[family]))
    V = V_FAMILIES[family](amplitude=amplitude, **params)
    prof = transverse_profile(V, PSI, 1.0)
    assert prof.decay == V.decay
    if amplitude <= 0:
        assert prof.decay is None
        return
    d = prof.decay
    if family == "gaussian_product":
        assert d == ExponentialDecay(beta=1.0, mu=params["rho_rate"])
        rho = np.linspace(0.0, 3.0, 31)
        c = np.log(prof(rho)) + d.mu * rho ** (2.0 * d.beta)
        assert np.all(np.abs(c - c[0]) <= 1e-12)
    elif family == "power_radial":
        assert d == PowerDecay(alpha=params["alpha"])
        for rho in (30.0, 100.0):
            ratio = rho**d.alpha * float(prof(rho)) / float(prof(0.0))
            assert abs(ratio - 1.0) <= d.alpha / rho**2
    else:
        assert d == CompactSupport(radius=params["radius"])
        R = d.radius
        assert np.all(prof(R * np.array([1.0, 1.0 + 1e-9, 1.3, 2.0, 10.0])) == 0.0)
        assert float(prof(R / 2.0)) > 0.0


def test_unclassified_profile_still_computes():
    # a profile with no declared decay class: oscillation-modulated decay
    wob = TransverseProfile(
        u=lambda r: np.exp(-r) * (1.5 + np.sin(3 * r)), b=1.0, decay=None
    )
    val = toeplitz_eigenvalue(wob, 0, 3)
    assert val > 0
    with pytest.raises(DomainError):
        law_prediction(wob, 1e-4)


def test_gaussian_spectrum_closed_form():
    for b, mu in [(1.0, 0.5), (2.0, 1.0)]:
        prof = TransverseProfile(u=lambda r, m_=mu: np.exp(-m_ * r * r), b=b)
        for m in range(0, 61):
            got = toeplitz_eigenvalue(prof, 0, m)
            exact = (b / (b + 2 * mu)) ** (m + 1)
            assert abs(got - exact) / exact < 1e-8, (b, mu, m)


TOEPLITZ_FAMILIES = {
    "gaussian_product": gaussian_product(),
    "power_radial_1": power_radial(alpha=1.0, x3_rate=1.0),
    "power_radial_4": power_radial(alpha=4.0, x3_rate=1.0),
    "compact_radial_1": compact_radial(radius=1.0, x3_rate=1.0),
    "compact_radial_3": compact_radial(radius=3.0, x3_rate=1.0),
}


@pytest.mark.parametrize("family", sorted(TOEPLITZ_FAMILIES))
def test_small_m_eigenvalue_matches_adaptive_quadrature(family):
    # <U phi_{q,m}, phi_{q,m}> against scipy's adaptive quadrature split at
    # the breaks the profile carries from V, to 1e-12 relative (U >= 0); the
    # Gauss-Laguerre rule this replaced missed compact_radial R = 1 by 13% at
    # m = 0
    V = TOEPLITZ_FAMILIES[family]
    prof = transverse_profile(V, PSI, 1.0)
    assert prof.breaks == V.breaks
    for b in (0.5, 1.0, 2.0):
        for m in (-1, 0, 2):
            q = m_minus(m) + 1
            mode = RadialMode(b, q, m)
            got = toeplitz_eigenvalue(replace(prof, b=b), q, m)

            def f(r):
                return float(prof(r) * radial_eigenfunction(mode, r) ** 2)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quad's roundoff notes at 1e-13
                want, _ = refcase.radial_quad(f, b, q + abs(m), V.breaks)
            assert abs(got - want) <= 1e-12 * want, (b, m, got, want)


def test_gaussian_spectrum_large_m_path():
    prof = TransverseProfile(u=lambda r: np.exp(-0.5 * r * r), b=1.0)
    for m in (80, 150, 300):
        got = toeplitz_eigenvalue(prof, 0, m)
        exact = 0.5 ** (m + 1)
        assert abs(got - exact) / exact < 1e-10


def test_constant_profile_eigenvalues():
    prof = TransverseProfile(u=lambda r: 0.7 * np.ones_like(r), b=1.0)
    spec = toeplitz_eigenvalues(prof, 1, m_max=10)
    assert np.allclose(spec.eigenvalues, 0.7, rtol=1e-10)


def test_spectrum_matches_first_order_shifts():
    # cross-module identity: compression eigenvalues = <V Phi, Phi> over m
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    q = 1
    spec = toeplitz_eigenvalues(prof, q, m_max=4)
    for m, eig in zip(spec.ms, spec.eigenvalues):
        shift = first_order_shift(replace(PROBLEM, m=int(m)), BASIS, q, refine=0)
        assert abs(eig - shift) < 1e-9, m


def test_counting_geometric():
    r = 0.5
    prof = TransverseProfile(u=lambda rr: np.exp(-0.5 * rr * rr), b=1.0)
    spec = toeplitz_eigenvalues(prof, 0, eta_min=1e-10)
    cf = CountingFunction(spec)
    for eta in np.geomspace(1e-9, 1e-2, 12):
        exact = math.ceil(math.log(eta) / math.log(r)) - 1
        assert cf.n_plus(float(eta)) == exact
    assert cf.n_plus(2.0) == 0
    # monotone nonincreasing over an eta sweep
    sweep = [cf.n_plus(float(e)) for e in np.geomspace(1e-9, 0.4, 40)]
    assert all(a >= b for a, b in zip(sweep, sweep[1:]))


def test_counting_range_guard():
    prof = TransverseProfile(u=lambda r: np.exp(-0.5 * r * r), b=1.0)
    spec = toeplitz_eigenvalues(prof, 0, m_max=20)
    with pytest.raises(RangeError):
        CountingFunction(spec).n_plus(1e-12)
    with pytest.raises(DomainError):
        CountingFunction(spec).n_plus(-1.0)


def test_nonnegative_spectrum_empty_n_minus():
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    spec = toeplitz_eigenvalues(prof, 0, m_max=30)
    assert np.all(spec.eigenvalues >= 0)
    cf = CountingFunction(spec)
    assert cf.n_minus(1e-6) == 0
    assert cf.n_star(1e-6) == cf.n_plus(1e-6)


def test_law_prediction_power_closed_form():
    # U = (1 + rho^2)^(-alpha/2): measure of {U > eta} = pi (eta^(-2/alpha) - 1)
    prof = TransverseProfile(
        u=lambda r: (1 + r * r) ** (-2.0), b=1.0, decay=PowerDecay(alpha=4.0)
    )
    for eta in (1e-4, 1e-6):
        pred = law_prediction(prof, eta)
        exact = 0.5 * (eta ** -0.5 - 1.0)
        assert pred == pytest.approx(exact, rel=1e-3)


def test_law_prediction_power_profile_memory_bounded():
    # the superlevel measure samples U at 400001 radii; sampling V there in
    # one call held a 400001 x n array (323 MB at n = 101, 3.8 GB at 1201)
    state = bound_states(PROBLEM.v0, Grid1D(-12.0, 12.0, 101))[0]
    prof = transverse_profile(power_radial(), state, 1.0)
    assert isinstance(prof.decay, PowerDecay)
    tracemalloc.start()
    try:
        assert law_prediction(prof, 1e-4) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_law_prediction_exponential_branches():
    b = 1.0
    for beta, mu, eta in [(0.5, 0.8, 1e-6), (1.0, 0.5, 1e-6), (2.0, 0.5, 1e-6)]:
        prof = TransverseProfile(u=lambda r: r, b=b,
                                 decay=ExponentialDecay(beta=beta, mu=mu))
        al = abs(math.log(eta))
        if beta < 1:
            exact = b / (2 * mu ** (1 / beta)) * al ** (1 / beta)
        elif beta == 1:
            exact = al / math.log(1 + 2 * mu / b)
        else:
            exact = beta / (beta - 1) * al / math.log(al)
        assert law_prediction(prof, eta) == pytest.approx(exact, rel=1e-12)


def test_law_prediction_compact_radius_independent():
    for radius in (0.5, 1.0, 3.0):
        prof = TransverseProfile(u=lambda r: r, b=1.0,
                                 decay=CompactSupport(radius=radius))
        assert law_prediction(prof, 1e-5) == pytest.approx(
            abs(math.log(1e-5)) / math.log(abs(math.log(1e-5))), rel=1e-12
        )


def test_sandwich_ordering():
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    spec = toeplitz_eigenvalues(prof, 0, m_max=40)
    cf = CountingFunction(spec)
    for eta in np.geomspace(1e-6, 0.05, 10):
        for eps in (0.1, 0.5, 0.9):
            assert cf.n_plus(float(eta) * (1 + eps)) <= cf.n_plus(float(eta) * (1 - eps))


def test_geometric_law_report():
    prof = TransverseProfile(u=lambda r: np.exp(-0.5 * r * r), b=1.0,
                             decay=ExponentialDecay(beta=1.0, mu=0.5))
    rep = law_convergence_report(prof, 0, np.geomspace(1e-8, 1e-3, 26))
    assert 0.95 <= rep.last_decade_mean <= 1.05


def test_power_law_report():
    prof = TransverseProfile(u=lambda r: (1 + r * r) ** (-2.0), b=1.0,
                             decay=PowerDecay(alpha=4.0))
    rep = law_convergence_report(prof, 0, np.geomspace(1e-6, 1e-3, 16))
    assert 0.9 <= rep.last_decade_mean <= 1.1


@pytest.mark.parametrize("alpha", [2.0, 4.0, 8.0])
def test_m_cap_guard_premise(alpha):
    # the power-law guard of toeplitz_eigenvalues estimates the eigenvalue at
    # the m cap 4000 by U at b rho^2 / 2 = 4000; it refuses at 1% above
    # eta_min/10, so the estimate must be well inside 1% of the computed value
    b = 1.0
    prof = TransverseProfile(u=lambda r: (1 + r * r) ** (-alpha / 2), b=b,
                             decay=PowerDecay(alpha=alpha))
    estimate = float(prof(math.sqrt(8000.0 / b)))
    assert abs(estimate / toeplitz_eigenvalue(prof, 0, 4000) - 1.0) < 5e-3


def test_power_law_report_samples_u_once_per_radius():
    # {U > eta} is measured on U at 400001 radii over [0, r_hi], r_hi the first
    # power of 2 with U(r_hi) <= eta: 8, 16 and 32 for eta in [1e-6, 1e-3]
    sampled = []

    def u(r):
        if r.size == 400001:
            sampled.append(float(r[-1]))
        return (1 + r * r) ** (-2.0)

    prof = TransverseProfile(u=u, b=1.0, decay=PowerDecay(alpha=4.0))
    etas = np.geomspace(1e-6, 1e-3, 16)
    rep = law_convergence_report(prof, 0, etas)
    assert sampled == [8.0, 16.0, 32.0]
    # each prediction is the one-threshold law, bit for bit
    assert [r[2] for r in rep.rows] == [law_prediction(prof, eta) for eta in etas[::-1]]


def test_compact_law_report_trend():
    # the doubly-log law has no usable rate at desk scale: assert only that the
    # ratio stays O(1) over six decades and that the staircase-smoothed trend
    # is monotone (the report's job is the trend, not a tolerance)
    prof = transverse_profile(compact_radial(radius=1.0), PSI, 1.0)
    assert isinstance(prof.decay, CompactSupport)
    rep = law_convergence_report(prof, 0, np.geomspace(1e-10, 1e-4, 14))
    ratios = np.array([r[3] for r in rep.rows])  # descending eta ordering
    assert np.all((ratios > 0.5) & (ratios < 2.0))
    # staircase-smoothed endpoints drift one way; the regression slope agrees
    smooth = np.convolve(ratios, np.ones(5) / 5.0, mode="valid")
    assert (smooth[-1] - smooth[0]) * rep.slope < 0.0  # slope is d ratio / d ln eta
    assert abs(rep.slope) > 1e-4


def test_gap_accumulation_reference():
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    top = toeplitz_eigenvalues(prof, 0, m_max=10).eigenvalues.max()
    etas = top * np.array([0.1, 0.04, 0.01])
    rep = gap_accumulation_check(PROBLEM, BASIS, "-", etas)
    assert all(r["slack"] <= 3 for r in rep.rows)
    assert any(r["count"] > 0 for r in rep.rows)


def test_gap_accumulation_mirror_sign():
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    top = toeplitz_eigenvalues(prof, 0, m_max=10).eigenvalues.max()
    etas = top * np.array([0.1, 0.01])
    rep = gap_accumulation_check(PROBLEM, BASIS, "+", etas)
    assert all(r["slack"] <= 3 for r in rep.rows)
    assert any(r["count"] > 0 for r in rep.rows)


def test_gap_accumulation_above_spectrum():
    prof = transverse_profile(gaussian_product(), PSI, 1.0)
    top = toeplitz_eigenvalues(prof, 0, m_max=10).eigenvalues.max()
    rep = gap_accumulation_check(PROBLEM, BASIS, "-", [2.0 * top])
    assert rep.rows[0]["count"] == 0
    assert rep.rows[0]["n_plus_lower"] == 0


def test_gap_accumulation_requires_sign_definite():
    bad = PerturbationProfile(
        evaluate=lambda rho, x: np.cos(np.asarray(rho))
        * np.exp(-np.asarray(x, float) ** 2),
        sign_definite=False,
    )
    with pytest.raises(DomainError):
        gap_accumulation_check(replace(PROBLEM, V=bad), BASIS, "-", [0.01])


def test_gap_accumulation_no_bound_state():
    prob = replace(PROBLEM, v0=zero_potential())
    with pytest.raises(DomainError, match="no bound state"):
        gap_accumulation_check(prob, refcase.basis(n=301, J=3), "-", [0.01])


def test_gap_accumulation_repeated_eta_counted_once():
    basis = refcase.basis(n=401, J=3)
    etas = [0.01, 0.003]
    once = gap_accumulation_check(PROBLEM, basis, "-", etas)
    twice = gap_accumulation_check(PROBLEM, basis, "-", etas + [0.01])
    counts = {r["eta"]: r["count"] for r in once.rows}
    assert all(r["count"] == counts[r["eta"]] for r in twice.rows)
