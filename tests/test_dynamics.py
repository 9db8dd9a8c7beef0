import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

import refcase
from landau import dynamics
from landau.dynamics import (
    AutocorrelationSeries,
    autocorrelation,
    default_fit_window,
    default_times,
    dilated_bound_vector,
    fit_decay,
    smooth_cutoff,
)
from landau.errors import AccuracyError, DomainError
from landau.operators import BasisTruncation
from landau.potentials import sech2, square_well, zero_potential
from landau.schrodinger1d import Grid1D

PROBLEM = refcase.problem()
SMALL = BasisTruncation(J=3, grid=Grid1D(-14.0, 14.0, 301))


def test_cutoff_plateau_and_support():
    g = smooth_cutoff
    assert g(1.0, 1.0, 0.2) == 1.0
    assert g(1.0 + 0.09, 1.0, 0.2) == 1.0   # inside the flat half-width
    assert g(1.0 + 0.2, 1.0, 0.2) == 0.0
    assert g(1.0 - 0.2, 1.0, 0.2) == 0.0
    assert g(1.0 + 0.5, 1.0, 0.2) == 0.0


def test_cutoff_shoulder_value():
    # closed form: u = 1/2 at |E - c| = 3 delta/4, so g = e^-2/(e^-2 + e^-2) = 1/2
    val = smooth_cutoff(1.0 + 0.15, 1.0, 0.2)
    assert val == pytest.approx(0.5, abs=1e-13)
    assert 0.0 < val < 1.0


def test_cutoff_monotone_shoulders():
    e = np.linspace(1.1, 1.2, 200)
    g = smooth_cutoff(e, 1.0, 0.2)
    assert np.all(np.diff(g) <= 1e-15)


def test_cutoff_domain_error():
    with pytest.raises(DomainError):
        smooth_cutoff(1.0, 1.0, -0.1)


def test_dilated_bound_vector_no_bound_state():
    prob = dataclasses.replace(PROBLEM, v0=zero_potential())
    with pytest.raises(DomainError, match="no bound state"):
        dilated_bound_vector(prob, SMALL, 0.3j)


@pytest.mark.parametrize("v0, im_theta", [
    (square_well(), 0.3),  # not dilatable
    (sech2(), 1.7),        # past its analyticity angle pi/2
    (sech2(), -0.3),       # the wrong half-plane
], ids=["square_well", "past_theta0", "negative"])
def test_dilated_bound_vector_rejects_theta_outside_sector(v0, im_theta):
    prob = dataclasses.replace(PROBLEM, v0=v0)
    with pytest.raises(DomainError):
        dilated_bound_vector(prob, SMALL, complex(0.0, im_theta))


def test_eigh_kappa_zero_constant_modulus():
    times = np.linspace(0.0, 10.0, 50)
    values, center, _ = refcase.eigh_series(PROBLEM, SMALL, 1, 0.0, times, 0.25)
    assert np.allclose(np.abs(values), 1.0, atol=1e-11)
    # phase advances at the embedded energy
    dphi = np.angle(values[1] / values[0])
    dt = times[1] - times[0]
    assert dphi == pytest.approx(-center * dt, abs=1e-9)


def test_eigh_t0_value_and_unitarity():
    times = np.linspace(0.0, 15.0, 80)
    values, _, _ = refcase.eigh_series(PROBLEM, SMALL, 1, 0.05, times, 0.25)
    v0 = values[0]
    assert abs(v0.imag) < 1e-12
    assert 0.0 < v0.real <= 1.0 + 1e-12
    assert np.all(np.abs(values) <= 1.0 + 1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.05])
@pytest.mark.parametrize("dense_fallback", [False, True])
def test_window_eigh_series_matches_dense(monkeypatch, kappa, dense_fallback):
    # the window-only oracle, by inverse iteration or by its dense fallback for
    # near-degenerate levels, against the dense eigh of the whole truncation
    if dense_fallback:
        monkeypatch.setattr(refcase, "_LEVEL_GAP", 1.0)
    times = np.linspace(0.0, 60.0, 200)
    values, center, horizon = refcase.eigh_series(PROBLEM, SMALL, 1, kappa, times, 0.25)
    dense, dense_center, dense_horizon = refcase.dense_eigh_series(PROBLEM, SMALL, 1,
                                                                   kappa, times, 0.25)
    assert center == dense_center
    assert horizon == pytest.approx(dense_horizon, rel=1e-10)
    assert np.max(np.abs(values - dense)) <= 1e-10


def test_times_validation():
    with pytest.raises(DomainError):
        autocorrelation(PROBLEM, SMALL, 1, 0.0, np.array([0.0, 0.0, 1.0]), 0.25)
    with pytest.raises(DomainError, match="nonempty"):
        autocorrelation(PROBLEM, SMALL, 1, 0.05, np.array([]), 0.25)


def test_resolvent_route_matches_eigh_at_short_times():
    # below the recurrence horizon the two constructions agree; the eigh series
    # carries the grid's O(h^2) frequency bias, so the gap grows like t h^2
    times = np.linspace(0.0, 12.0, 60)
    basis = refcase.basis(n=1201, J=5)
    values, _, _ = refcase.eigh_series(PROBLEM, basis, 1, 0.05, times, 0.25)
    sr = autocorrelation(PROBLEM, basis, 1, 0.05, times, 0.25)
    assert np.max(np.abs(values - sr.values)) < 1e-3


def test_resolvent_series_decays_monotonically_after_transient():
    imf = refcase.reference_fgr().im_from_channels
    kappa = 0.05
    t0, t1 = default_fit_window(0.25, 2 * kappa**2 * imf)
    times = default_times(t1)
    ser = autocorrelation(PROBLEM, refcase.basis(), 1, kappa, times, 0.25)
    mod = np.abs(ser.values[(ser.times >= t0)])
    assert np.all(np.diff(mod) < 1e-12)
    assert np.all(np.abs(ser.values) <= 1.0 + 1e-6)


def test_decay_rates_match_golden_rule():
    imf = refcase.reference_fgr().im_from_channels
    ratios = []
    anorm = []
    for kappa in (0.02, 0.04, 0.08):
        gamma_est = 2 * kappa**2 * imf
        t0, t1 = default_fit_window(0.25, gamma_est)
        times = default_times(t1)
        ser = autocorrelation(PROBLEM, refcase.basis(), 1, kappa, times, 0.25)
        fit = fit_decay(ser, (t0, t1))
        ratios.append(fit.gamma / gamma_est)
        anorm.append(abs(fit.a - 1.0) / kappa**2)
    assert all(abs(r - 1) < 0.10 for r in ratios)
    # |a - 1| = O(kappa^2): the normalized deviations admit one common bound
    assert max(anorm) < 3.0 * min(anorm) + 1e-12
    assert max(anorm) < 1.0


def test_three_rates_consistent():
    # quadratic-fit rate, decay-fit rate, and branch rate agree pairwise to 10%
    kappa = 0.04
    fit_branch = refcase.reference_fit()
    imf = refcase.reference_fgr().im_from_channels
    rate_c2 = -2.0 * fit_branch.c2.imag * kappa**2
    branch = refcase.richardson_branch()
    w_at = [r for r in branch if abs(r.kappa - kappa) < 1e-12][0]
    rate_w = -2.0 * w_at.w.imag
    gamma_est = 2 * kappa**2 * imf
    t0, t1 = default_fit_window(0.25, gamma_est)
    times = default_times(t1)
    ser = autocorrelation(PROBLEM, refcase.basis(), 1, kappa, times, 0.25)
    rate_fit = fit_decay(ser, (t0, t1)).gamma
    for a, b in [(rate_c2, rate_w), (rate_c2, rate_fit), (rate_w, rate_fit)]:
        assert abs(a - b) / max(a, b) < 0.10


def test_omega_matches_branch_real_part():
    kappa = 0.04
    branch = refcase.richardson_branch()
    w_at = [r for r in branch if abs(r.kappa - kappa) < 1e-12][0]
    imf = refcase.reference_fgr().im_from_channels
    t0, t1 = default_fit_window(0.25, 2 * kappa**2 * imf)
    times = default_times(t1)
    ser = autocorrelation(PROBLEM, refcase.basis(), 1, kappa, times, 0.25)
    fit = fit_decay(ser, (t0, t1))
    assert abs(fit.omega - w_at.w.real) < 1e-4


def test_series_stability_under_refinement():
    # growing the truncation must leave the series stable.  The radial
    # truncation biases the resonance frequency geometrically (measured:
    # ~2e-7 at J=7, x0.21 per two modes), and any frequency bias delta-omega
    # drifts the complex values like t * delta-omega; at J=13/15 the drift
    # stays below 1e-6 up to t = 500, while the modulus (the decay rate,
    # which the physics consumes) is stable over the whole window.
    kappa = 0.05
    imf = refcase.reference_fgr().im_from_channels
    t0, _ = default_fit_window(0.25, 2 * kappa**2 * imf)
    times = np.linspace(t0, 4000.0, 120)
    s1 = autocorrelation(PROBLEM, refcase.basis(n=1201, J=13), 1, kappa, times, 0.25)
    s2 = autocorrelation(PROBLEM, refcase.basis(n=1801, J=15), 1, kappa, times, 0.25)
    early = times <= 500.0
    assert np.max(np.abs(s1.values[early] - s2.values[early])) < 1e-6
    assert np.max(np.abs(np.abs(s1.values) - np.abs(s2.values))) < 2e-6


@pytest.mark.parametrize("kappa", [0.02, 0.08])
def test_surrogate_matches_direct_solves(kappa):
    # oracle: the direct scan the surrogate replaced, one banded solve per energy
    op, (center, phi), w_h, alpha = dynamics._dilated_pole(PROBLEM, SMALL, 1, kappa, 0.3j)
    h, delta = SMALL.grid.h, 0.25
    coef, err, solves, nodes = dynamics._pole_free_surrogate(op, phi, h, w_h, center,
                                                             delta)
    # the first rung certifies: 9 Lobatto nodes and 8 held-out midpoints
    assert (nodes, solves) == (dynamics._SURROGATE_START, 17)
    assert err < 1e-10
    x = np.linspace(-0.97, 0.97, 12)  # off the Chebyshev nodes, across the window
    energies = center + delta * x
    g_direct = np.array([h * (op.factorized(en).solve(phi) @ phi) for en in energies])
    f_cheb = chebyshev.chebval(x, coef)
    # |f| is about |alpha| = 1; the solves carry about 1e-12
    assert np.max(np.abs(f_cheb - (energies - w_h) * g_direct)) < 1e-10
    # backgrounds: the surrogate's divided difference against direct G minus the
    # eigenvector pole term, away from the pole where the latter cancels badly;
    # the background itself is 1e-7 to 1e-5 here
    bg_cheb = (f_cheb - chebyshev.chebval((w_h - center) / delta, coef)) / (
        energies - w_h)
    bg_direct = g_direct - alpha / (w_h - energies)
    far = np.abs(energies - w_h.real) > 200 * abs(w_h.imag)
    assert np.count_nonzero(far) >= 10
    assert np.max(np.abs(bg_cheb - bg_direct)[far]) < 1e-9


def test_surrogate_ladder_climbs_without_repeating_a_solve(monkeypatch):
    # 5 Lobatto nodes leave a held-out error above 1e-9 at kappa = 0.08, so the
    # ladder steps to 9 nodes and reuses the first rung's 9 solves there
    monkeypatch.setattr(dynamics, "_SURROGATE_START", 5)
    kappa = 0.08
    op, (center, phi), w_h, _ = dynamics._dilated_pole(PROBLEM, SMALL, 1, kappa, 0.3j)
    h, delta = SMALL.grid.h, 0.25
    shifts = []
    factorized = op.factorized

    def counting(shift=0.0):
        shifts.append(shift)
        return factorized(shift)

    monkeypatch.setattr(op, "factorized", counting)
    coef, err, solves, nodes = dynamics._pole_free_surrogate(op, phi, h, w_h, center,
                                                             delta)
    assert nodes == 9
    assert solves == 2 * nodes - 1 == len(shifts) == len(set(shifts))
    assert err < 1e-10
    x = np.linspace(-0.97, 0.97, 12)
    energies = center + delta * x
    g_direct = np.array([h * (factorized(en).solve(phi) @ phi) for en in energies])
    assert np.max(np.abs(chebyshev.chebval(x, coef) - (energies - w_h) * g_direct)) < 1e-10


def test_uncertified_surrogate_raises(monkeypatch):
    # a top rung of three nodes cannot resolve f to 1e-9: the held-out check
    # must refuse it
    monkeypatch.setattr(dynamics, "_SURROGATE_START", 3)
    monkeypatch.setattr(dynamics, "_SURROGATE_TOP", 3)
    times = np.linspace(0.0, 10.0, 20)
    with pytest.raises(AccuracyError, match="not certified.*with 3 nodes"):
        autocorrelation(PROBLEM, SMALL, 1, 0.05, times, 0.25)


def _dense_phase_sum(fw, energies, times):
    # the background sum before Horner's rule: one dense phase matrix
    return np.exp(-1j * np.outer(times, energies)) @ fw


# The bound: with u = 2^-53 and E_max = energies[-1], per unit weight at time
# t the two sums differ by at most the sum of
# - u t E_max, the dense phase fl(t E_k);
# - u t (2 delta + E_max), E_k itself: Horner's rule sums the exact
#   e0 + k d_e, while linspace rounds k d_e and then k d_e + e0, and sets the
#   last node to the stop, within u 4 delta of e0 + (n - 1) d_e;
# - u t E_max, Horner's prefactor phase fl(t e0);
# - u t 2 delta, Horner's phase fl(t d_e), which z^k takes k <= n - 1 times;
# - 7 u (n + 1), the rest: each exp (2u; z's error again k times), Horner's
#   complex products (sqrt(5) u each) and sums (u each), and the dense
#   product's sum of n terms (n u).
# The first four grow with t.  In the pinned example (t E = 5209) the sums
# differ by 1.1e-12, above the 1e-12 that the first and third alone stay under.
# Weights in the subnormal range round to whole multiples of the smallest
# subnormal, an absolute error that the relative bound cannot see (it
# underflows to 0 for fw = [0, 5e-324]); the floor allows one such unit per
# weight.
@settings(max_examples=60, deadline=None)
@example(fw=[0.0, 5e-324], center=1.0, delta=0.25, times=[1.0])
@example(fw=[0.0, 0.0, 1.0, 0.0], center=0.96875, delta=0.125,
         times=[5155.207612444366])
@given(fw=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=1401),
       center=st.floats(0.5, 1.0), delta=st.floats(0.01, 0.25),
       times=st.lists(st.floats(0.0, dynamics._BG_TIME_CAP), min_size=1,
                      max_size=40, unique=True))
def test_horner_background_matches_dense_phase_sum(fw, center, delta, times):
    fw = np.asarray(fw)
    times = np.sort(np.asarray(times))
    energies, d_e = np.linspace(center - delta, center + delta, len(fw),
                                retstep=True)
    horner = dynamics._horner_phase_sum(fw, energies[0], d_e, times)
    dense = _dense_phase_sum(fw, energies, times)
    u = 2.0**-53
    per_weight = u * (times * (3.0 * energies[-1] + 4.0 * delta) + 7.0 * (len(fw) + 1))
    floor = len(fw) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(horner - dense) <= per_weight * np.sum(np.abs(fw)) + floor)


def test_fit_decay_zero_coupling():
    times = np.linspace(0.0, 60.0, 400)
    values, center, _ = refcase.eigh_series(PROBLEM, SMALL, 1, 0.0, times, 0.25)
    ser = AutocorrelationSeries(times=times, values=values, center=center,
                                delta_window=0.25)
    fit = fit_decay(ser, (5.0, 55.0))
    assert abs(fit.gamma) < 1e-12
    assert fit.a == pytest.approx(1.0, abs=1e-10)


def test_fit_decay_rejects_nonexponential():
    times = np.linspace(0.0, 100.0, 400)
    vals = np.exp(-((times / 40.0) ** 2)) * np.exp(-1j * times)
    ser = AutocorrelationSeries(times=times, values=vals, center=1.0, delta_window=0.25)
    with pytest.raises(AccuracyError):
        fit_decay(ser, (5.0, 95.0))


def test_fit_window_defaults():
    t0, t1 = default_fit_window(0.25, 1e-4)
    assert t0 == pytest.approx(20.0)
    assert t1 == pytest.approx(3e4)
    with pytest.raises(DomainError):
        default_fit_window(0.25, 1.0)
