"""Acceptance suite: every gate criterion at its stated tolerance.

Each criterion runs self-contained (no cross-test caching) so its printed
runtime is honest.  Run with `pytest tests/test_acceptance.py -s` to see one
pass/fail line per criterion.
"""

import math
import time

import numpy as np

from landau.dynamics import autocorrelation, default_fit_window, default_times, fit_decay
from landau.fgr import fgr_value, overlap_polynomial_check
from landau.operators import (
    BasisTruncation,
    LandauProblem,
    assemble,
    commutator_ad,
)
from landau.potentials import gaussian_product, sech2, square_well, zero_potential
from landau.resonance import fit_expansion, richardson_branch, theta_independence
from landau.schrodinger1d import Grid1D, bound_states, jost_solutions, \
    richardson_ground_state
from landau.toeplitz_ssf import (
    CountingFunction,
    ExponentialDecay,
    PowerDecay,
    TransverseProfile,
    gap_accumulation_check,
    toeplitz_eigenvalues,
    transverse_profile,
)


def _problem():
    return LandauProblem(b=1.0, v0=sech2(), V=gaussian_product(), m=0)


def _basis(n=1201, J=7):
    return BasisTruncation(J=J, grid=Grid1D(-18.0, 18.0, n))


def _report(num, desc, ok, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {desc}: {verdict} ({elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_bound_state():
    t0 = time.monotonic()
    lam, _ = richardson_ground_state(sech2(), Grid1D(-20.0, 20.0, 4001))
    ok = abs(lam + 1.0) < 1e-6
    _report(1, "sech^2 bound state at -1 (Richardson, 1e-6)", ok,
            time.monotonic() - t0, 5.0)


def test_criterion_02_scattering():
    t0 = time.monotonic()
    grid = Grid1D(-20.0, 20.0, 8001)
    ok = True
    for k in (0.5, 1.0, 2.0, 4.0):
        sol = jost_solutions(sech2(), k, grid)
        ok &= abs(sol.R) < 1e-6 and abs(abs(sol.T) - 1.0) < 1e-6
    for v0 in (sech2(), square_well(0.5, 1.0), zero_potential()):
        for k in (0.3, 0.7, 1.0, 2.0, 4.0):
            ok &= jost_solutions(v0, k, grid).flux_defect < 1e-6
    _report(2, "reflectionless scattering and flux conservation (1e-6)", ok,
            time.monotonic() - t0, 5.0)


def test_criterion_03_toeplitz_closed_form():
    t0 = time.monotonic()
    ok = True
    for b, mu in ((1.0, 0.5), (2.0, 1.0)):
        prof = TransverseProfile(u=lambda r, m_=mu: np.exp(-m_ * r * r), b=b)
        spec = toeplitz_eigenvalues(prof, 0, m_max=60)
        exact = (b / (b + 2 * mu)) ** (spec.ms + 1.0)
        ok &= bool(np.all(np.abs(spec.eigenvalues - exact) / exact < 1e-8))
    _report(3, "compression spectrum vs (b/(b+2mu))^(m+1), m <= 60 (1e-8)", ok,
            time.monotonic() - t0, 2.0)


def test_criterion_04_log_law():
    t0 = time.monotonic()
    prof = TransverseProfile(u=lambda r: np.exp(-0.5 * r * r), b=1.0,
                             decay=ExponentialDecay(beta=1.0, mu=0.5))
    spec = toeplitz_eigenvalues(prof, 0, eta_min=1e-8)
    cf = CountingFunction(spec)
    etas = np.geomspace(1e-8, 1e-3, 26)
    ratios = np.array(
        [cf.n_plus(float(e)) / (abs(math.log(e)) / math.log(2.0)) for e in etas]
    )
    mean = float(np.mean(ratios[etas <= 1e-7]))
    ok = 0.95 <= mean <= 1.05
    _report(4, f"beta=1 counting law, last-decade mean {mean:.3f} in [0.95, 1.05]",
            ok, time.monotonic() - t0, 2.0)


def test_criterion_05_power_law():
    t0 = time.monotonic()
    b = 1.0
    prof = TransverseProfile(u=lambda r: (1 + r * r) ** (-2.0), b=b,
                             decay=PowerDecay(alpha=4.0))
    spec = toeplitz_eigenvalues(prof, 0, eta_min=1e-6)
    cf = CountingFunction(spec)
    etas = np.geomspace(1e-6, 1e-5, 9)  # the decade reached by eta = 1e-6
    vals = np.array([cf.n_plus(float(e)) * math.sqrt(e) for e in etas])
    mean = float(np.mean(vals))
    ok = 0.9 * b / 2 <= mean <= 1.1 * b / 2
    _report(5, f"power-law counting, n+ eta^(2/alpha) mean {mean:.3f} in "
            f"[{0.45}, {0.55}]", ok, time.monotonic() - t0, 30.0)


def test_criterion_06_resonance_expansion():
    t0 = time.monotonic()
    problem, basis = _problem(), _basis()
    branch = richardson_branch(problem, basis, 0.3j, 1, np.linspace(0.0, 0.08, 9))
    fit = fit_expansion(branch)
    res = fgr_value(problem, basis, 1)
    ok_c0 = abs(fit.c0 - 1.0) < 1e-6
    ok_c1 = abs(fit.c1 - res.first_order) / abs(res.first_order) < 1e-4
    ok_c2 = abs(fit.c2.imag + res.im_from_channels) / res.im_from_channels < 5e-2
    _report(6, "resonance expansion: c0 (1e-6), c1 vs quadrature (1e-4), "
            "Im c2 vs -Im F (5%)", ok_c0 and ok_c1 and ok_c2,
            time.monotonic() - t0, 180.0)


def test_criterion_07_fgr_dual_route():
    t0 = time.monotonic()
    res = fgr_value(_problem(), _basis(), 1)
    ok = res.route_agreement < 1e-3 and not res.flagged
    _report(7, f"golden-rule dual route agreement {res.route_agreement:.2e} < 1e-3",
            ok, time.monotonic() - t0, 60.0)


def test_criterion_08_dynamics():
    t0 = time.monotonic()
    problem, basis = _problem(), _basis()
    imf = fgr_value(problem, basis, 1).im_from_channels
    ok = True
    anorm = []
    for kappa in (0.02, 0.04, 0.08):
        gamma_gr = 2.0 * kappa**2 * imf
        win = default_fit_window(0.25, gamma_gr)
        ser = autocorrelation(problem, basis, 1, kappa, default_times(win[1]), 0.25)
        fit = fit_decay(ser, win)
        ok &= abs(fit.gamma - gamma_gr) / gamma_gr < 0.10
        anorm.append(abs(fit.a - 1.0) / kappa**2)
    ok &= max(anorm) < 3.0 * min(anorm) and max(anorm) < 1.0
    _report(8, "decay rate vs 2 kappa^2 Im F (10%) and |a-1| = O(kappa^2)", ok,
            time.monotonic() - t0, 180.0)


def test_criterion_09_theta_independence():
    t0 = time.monotonic()
    res = theta_independence(_problem(), _basis(), 1, 0.05, [0.2j, 0.3j, 0.4j])
    ok = res.spread < 1e-5
    _report(9, f"resonance spread {res.spread:.2e} < 1e-5 across Im theta", ok,
            time.monotonic() - t0, 120.0)


def test_criterion_10_gap_accumulation():
    t0 = time.monotonic()
    problem = _problem()
    basis = BasisTruncation(J=6, grid=Grid1D(-18.0, 18.0, 1201))
    st = bound_states(problem.v0, basis.grid)[0]
    prof = transverse_profile(problem.V, st, problem.b)
    top = float(toeplitz_eigenvalues(prof, 0, m_max=10).eigenvalues.max())
    etas = top * np.array([0.1, 0.0316, 0.01])  # one decade
    rep = gap_accumulation_check(problem, basis, "-", etas, eps=0.1)
    ok = all(r["slack"] <= 3 for r in rep.rows) and any(
        r["count"] > 0 for r in rep.rows
    )
    _report(10, "eigenvalue accumulation inside the eps=0.1 sandwich (slack <= 3)",
            ok, time.monotonic() - t0, 120.0)


def test_criterion_11_commutator():
    t0 = time.monotonic()
    problem = _problem()
    basis = BasisTruncation(J=4, grid=Grid1D(-18.0, 18.0, 901))
    s = 1e-3
    hp = assemble(problem, basis, theta=+s).dense()
    hm = assemble(problem, basis, theta=-s).dense()
    h2p = assemble(problem, basis, theta=+2 * s).dense()
    h2m = assemble(problem, basis, theta=-2 * s).dense()
    oracle = (8 * (hm - hp) - (h2m - h2p)) / (12 * s)
    ad1 = commutator_ad(problem, basis, 1).dense()
    scale = np.max(np.abs(ad1))
    ok = bool(
        np.max(np.abs(oracle - ad1) / np.maximum(np.abs(ad1), 1e-3 * scale)) < 1e-6
    )
    free = LandauProblem(b=1.0, v0=zero_potential(), V=gaussian_product(), m=0)
    op0 = commutator_ad(free, basis, 1)
    h = basis.grid.h
    ok &= bool(np.all(op0.hpar_diag == 4.0 / h**2)) and op0.hpar_off == -2.0 / h**2
    _report(11, "commutator identity vs dilation-difference oracle (1e-6 entrywise)",
            ok, time.monotonic() - t0, 10.0)


def test_criterion_12_overlap_polynomial():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    ok = True
    for (q, m) in ((1, 0), (2, 1), (2, -1)):
        alphas = rng.uniform(0.2, 6.0, size=10)
        res = overlap_polynomial_check(q, m, [1.0], alphas)
        ok &= all(abs(qv - pv) < 1e-9 for _, qv, pv in res.pairs)
    _report(12, "overlap polynomial reproduces quadrature at held-out alpha (1e-9)",
            ok, time.monotonic() - t0, 5.0)
