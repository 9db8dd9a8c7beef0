"""Time evolution of the embedded state under the perturbed operator: smoothed
autocorrelation series and exponential-decay fits against the golden-rule rate.
The embedded state is phi_{q,m} (x) psi with psi the ground state of H_par.

The series ⟨e^(-iHt) g(H) Phi, Phi⟩ comes from the infinite-volume spectral
density of Phi through the complex-scaled resolvent
G(E) = h phi_theta^T (M_theta - E)^(-1) phi_theta: one narrow Lorentzian at the
resonance plus a smooth background integrated against g.  This realizes the
resonance expansion a(kappa) e^(-iwt) + b(t) directly and has no recurrence,
which is what the decay-rate acceptance checks require.  (The exact spectral
sum on the self-adjoint truncation recurs after about pi / level spacing, far
below the decay times at desk-scale boxes; the tests keep it as a short-time
oracle.)  Phi is even in x3, so every complex-scaled solve here runs on the
even sector (``assemble(..., even_sector=True)``), where the pairings keep
their values.  The pole w_h and its residue alpha come from inverse iteration
on the base grid (alpha from the eigenvector); the pole used in the series is
extrapolated over (h, h/2, h/4) by ``numutil.richardson``, and
``refined_poles`` finds the h/2 and h/4 poles of every kappa one grid at a
time, from one operator and embedded state per grid; a series hands its
base-grid state (``AutocorrelationSeries.state``) to the next kappa's.  The pole is then
multiplied out: f(E) = (E - w_h) G(E) is analytic around the window
[E0 - delta, E0 + delta], so it is interpolated at N Chebyshev-Lobatto
points (one banded solve each) and certified against direct solves at the
N - 1 midpoints that complete the 2N - 1 Lobatto grid.  The grids nest, so a rung that fails reuses all its
solves in the next, N <- 2N - 1, from N = 9 up to 65; a held-out error still
above 1e-9 there raises AccuracyError.  The background is the divided
difference (f(E) - f(w_h)) / (E - w_h), which removes the interpolant's own
pole exactly, on a uniform 1401-point quadrature grid; its Fourier sum is a
polynomial in e^(-i t dE), summed by Horner's rule.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import AccuracyError, DomainError
from .lapack import solve_banded
from .numutil import dot, norm, richardson
from .operators import assemble, embedded_eigenpair
from .potentials import smoothstep
from .resonance import find_eigenvalue_near
from .schrodinger1d import ground_state, hamiltonian_tridiagonal

_BG_TIME_CAP = 6000.0  # beyond this the smooth-background Fourier tail is < 1e-12
# f(E) = (E - w_h) G(E) is analytic around the window: for the reference
# problem the nearest singularities (thresholds 0 and 2, rotated continua near
# Im E = -0.7) are 3 half-widths away and its Chebyshev coefficients reach the
# solve noise by degree 8, so 9 Lobatto nodes certify at held-out errors of
# 1.5e-11 to 4.5e-11 (5 nodes reach 6e-9).  Chebyshev-Lobatto grids nest,
# chebpts2(2N - 1)[::2] == chebpts2(N), so each rung N -> 2N - 1 reuses every
# solve; inputs that need more than the top rung fail the held-out check
# rather than return a wrong background.
_SURROGATE_START = 9  # nodes of the first rung: 9, 17, 33, 65
_SURROGATE_TOP = 65
_SURROGATE_TOL = 1e-9  # held-out error of f (|f| is about |alpha|, about 1)
_QUADRATURE_POINTS = 1401  # uniform; g * Im(background) is smooth on the window


def smooth_cutoff(energy, center, delta):
    """C-infinity bump: 1 on [center - delta/2, center + delta/2], 0 outside
    [center - delta, center + delta], monotone on the shoulders.

    Closed form on the shoulders: with u = (delta - |E - center|) / (delta/2),
    g = f(u) / (f(u) + f(1-u)) and f(u) = exp(-1/u) for u > 0 (else 0); the
    midpoint |E - center| = 3 delta/4 gives exactly 1/2.
    """
    if not delta > 0:
        raise DomainError("cutoff width delta must be positive")
    e = np.asarray(energy, dtype=float)
    u = (delta - np.abs(e - center)) / (0.5 * delta)
    out = smoothstep(np.clip(u, 0.0, 1.0))
    return out if np.ndim(energy) else float(out)


@dataclass(frozen=True)
class AutocorrelationSeries:
    """Sampled ⟨e^(-iHt) g(H) Phi, Phi⟩ with the cutoff's window metadata."""

    times: np.ndarray
    values: np.ndarray
    center: float
    delta_window: float
    # banded solves behind the surrogate, held-out error of f and the number of
    # Lobatto nodes of the rung that certified it
    resolvent_solves: int = 0
    held_out_error: float = math.nan
    surrogate_nodes: int = 0
    # the base grid's operator and embedded state, for the next kappa
    state: tuple = None


def dilated_bound_vector(problem, basis, theta):
    """Bilinear-normalized ground-state eigenvector of the dilated longitudinal
    operator.

    Under exact dilation this is the analytic continuation U(theta) psi; on the
    grid it comes from inverse iteration on the complex tridiagonal (until the
    eigenvalue moves by less than 1e-12), normalized by h * sum(u^2) = 1 with
    sign matched to psi.
    """
    grid = basis.grid
    d, e = hamiltonian_tridiagonal(problem.v0, grid, theta)
    st = ground_state(problem.v0, grid)
    h = grid.h
    u = st.psi[1:-1].astype(complex)
    w = complex(st.lam)
    for _ in range(50):
        y = solve_banded(d - w, e, u)
        u = y / norm(y)
        mu = d * u
        mu[:-1] += e * u[1:]
        mu[1:] += e * u[:-1]
        w_new = dot(u, mu) / dot(u, u)
        if abs(w_new - w) < 1e-12:
            w = w_new
            break
        w = w_new
    u = u / np.sqrt(h * dot(u, u))
    if (h * np.sum(u * st.psi[1:-1])).real < 0:
        u = -u
    return complex(w), u


def _dilated_pole(problem, basis, q, kappa, theta, state=None):
    """Resonance pole and residue of the dilated resolvent on one grid.

    Returns (state, w, alpha): state = (op, 2bq + lambda, phi_theta), the
    operator on the even sector and the embedded state in its coordinates; the
    pole; alpha = h (v^T phi_theta)^2 / (v^T v).  A caller passes back the
    state an earlier call returned: its op is stepped to kappa by ``with_kappa``.
    """
    if state is None:
        op = assemble(problem, basis, theta=theta, kappa=kappa, even_sector=True)
        pair = embedded_eigenpair(problem, basis, q)
        _, u_th = dilated_bound_vector(problem, basis, theta)
        phi_th = np.zeros((basis.J, basis.grid.n - 2), dtype=complex)
        phi_th[basis.mode_index(problem.m, q)] = u_th
        energy, phi_th = pair.energy, op.restrict(phi_th.reshape(-1))
    else:
        op, energy, phi_th = state
        op = op.with_kappa(kappa)
    w, v, _, _ = find_eigenvalue_near(op, energy, x0=phi_th)
    alpha = basis.grid.h * dot(v, phi_th) ** 2 / dot(v, v)
    return (op, energy, phi_th), w, alpha


def _pole_free_surrogate(op, phi, h, w_h, center, delta):
    """Chebyshev coefficients, in x = (E - center) / delta, of
    f(E) = (E - w_h) h phi^T (M - E)^(-1) phi interpolated at N Lobatto points,
    with the held-out error max|f_cheb - f| / max|f| at the N - 1 midpoints of
    chebpts2(2N - 1), the number of solves and N.

    N climbs 9, 17, 33, 65 until the held-out error is at most
    ``_SURROGATE_TOL``; each rung's nodes are the previous rung's nodes and
    held-out points, matched by index, so no energy is solved twice.  The
    ``_SURROGATE_TOP`` rung is returned whatever its error; the caller refuses
    an uncertified one.
    """
    def f(x):
        energies = center + delta * x
        return np.array([(en - w_h) * h * dot(op.factorized(en).solve(phi), phi)
                         for en in energies])

    n = _SURROGATE_START
    f_nodes = f(chebyshev.chebpts2(n))
    while True:
        x_out = chebyshev.chebpts2(2 * n - 1)[1::2]
        f_out = f(x_out)
        coef = chebyshev.chebfit(chebyshev.chebpts2(n), f_nodes, n - 1)
        err = float(np.max(np.abs(chebyshev.chebval(x_out, coef) - f_out))
                    / np.max(np.abs(f_out)))
        if err <= _SURROGATE_TOL or n >= _SURROGATE_TOP:
            return coef, err, 2 * n - 1, n
        f_next = np.empty(2 * n - 1, dtype=complex)
        f_next[::2] = f_nodes
        f_next[1::2] = f_out
        f_nodes, n = f_next, 2 * n - 1


def _horner_phase_sum(fw, e0, d_e, times):
    """sum_k fw[k] e^(-i t (e0 + k d_e)) at each t: a polynomial in
    z = e^(-i t d_e), summed by Horner's rule over k with O(len(times)) memory."""
    z = np.exp(-1j * d_e * times)
    acc = np.full(len(times), fw[-1], dtype=complex)
    for c in fw[-2::-1]:
        acc *= z
        acc += c
    return np.exp(-1j * e0 * times) * acc


def refined_poles(problem, basis, q, kappas, theta):
    """The poles (w_2, w_4) of each kappa on the grids h/2 and h/4, one grid at
    a time, each grid's operator and embedded state carried across the kappas:
    one dilated coupling is alive at a time, and each is contracted once."""
    b2 = basis.refined()
    per_grid = []
    for fine in (b2, b2.refined()):
        state, poles = None, []  # releases the previous grid's operator
        for k in kappas:
            state, w, _ = _dilated_pole(problem, fine, q, k, theta, state)
            poles.append(w)
        per_grid.append(poles)
    return list(zip(*per_grid))


def _series_resolvent(problem, basis, q, kappa, times, delta_window, theta, poles,
                      state):
    # the grid biases Im w by O(h^2), which would swamp widths Gamma ~ kappa^2,
    # and any frequency bias grows linearly in t; extrapolate the pole over
    # (h, h/2, h/4) and keep the background from the base grid
    w_2, w_4 = poles or refined_poles(problem, basis, q, [kappa], theta)[0]
    state, w_h, alpha = _dilated_pole(problem, basis, q, kappa, theta, state)
    op, center, phi_th = state
    h = basis.grid.h
    w_pole = richardson(w_h, w_2, w_4)

    coef, err, solves, nodes = _pole_free_surrogate(op, phi_th, h, w_h, center,
                                                    delta_window)
    if not err <= _SURROGATE_TOL:
        raise AccuracyError(
            f"kappa = {kappa:g}: resolvent surrogate not certified: held-out "
            f"error {err:.2e} > {_SURROGATE_TOL:.0e} with {nodes} nodes"
        )
    # G = f(w_h) / (E - w_h) + (f(E) - f(w_h)) / (E - w_h): the divided difference
    # is the background with the surrogate's own pole removed exactly
    energies, d_e = np.linspace(center - delta_window, center + delta_window,
                                _QUADRATURE_POINTS, retstep=True)
    x = (energies - center) / delta_window
    f_pole = chebyshev.chebval((w_h - center) / delta_window, coef)
    background = (chebyshev.chebval(x, coef) - f_pole) / (energies - w_h)
    # g vanishes at both window ends, so the trapezoid rule is the plain sum
    fw = (smooth_cutoff(energies, center, delta_window) * background.imag / math.pi
          * d_e)

    times = np.asarray(times)
    values = alpha * float(smooth_cutoff(w_pole.real, center, delta_window)) * (
        np.exp(-1j * w_pole * times)
    )
    t_bg = times <= _BG_TIME_CAP
    if np.any(t_bg):
        tb = times[t_bg]
        bg = _horner_phase_sum(fw, energies[0], d_e, tb)
        values[t_bg] += bg
        tail = np.abs(bg[-3:]).max() if len(tb) > 3 else 0.0
        if times[-1] > _BG_TIME_CAP and tail > 1e-9:
            raise AccuracyError(
                f"background not decayed at the time cap: |b| = {tail:.2e}"
            )
    return values, state, solves, err, nodes


def autocorrelation(problem, basis, q, kappa, times, delta_window, theta=0.3j,
                    poles=None, state=None):
    """Smoothed autocorrelation of the embedded state by the complex-scaled
    spectral density (pole + smooth background): no recurrence, valid at all
    times; requires dilatable inputs.  ``poles`` is this kappa's entry of
    ``refined_poles``, computed here if None; ``state`` is the ``state`` of a
    series on the same grid and theta, solved here if None.
    """
    times = np.asarray(times, dtype=float)
    if not times.size or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise DomainError("times must be nonempty, nonnegative and strictly increasing")
    if not delta_window > 0:
        raise DomainError("delta_window must be positive")
    values, state, solves, err, nodes = _series_resolvent(
        problem, basis, q, kappa, times, delta_window, theta, poles, state)
    return AutocorrelationSeries(
        times=times,
        values=values,
        center=state[1],
        delta_window=delta_window,
        resolvent_solves=solves,
        held_out_error=err,
        surrogate_nodes=nodes,
        state=state,
    )


@dataclass(frozen=True)
class DecayFit:
    """a e^(-i omega t - Gamma t / 2) fitted over a window, with the residual sup."""

    a: complex
    gamma: float
    omega: float
    background_norm: float


def default_fit_window(delta_window, gamma_est):
    """[5 / width of g, 3 / Gamma_est]."""
    t0 = 5.0 / delta_window
    t1 = 3.0 / max(gamma_est, 1e-30)
    if t1 <= t0:
        raise DomainError(f"empty fit window: [{t0:.3g}, {t1:.3g}]")
    return t0, t1


def default_times(t_max):
    """Dense early sampling (900 points, background) plus 1200 uniform to t_max."""
    dense = np.linspace(0.0, min(_BG_TIME_CAP / 2, 0.25 * t_max), 900,
                        endpoint=False)
    tail = np.linspace(min(_BG_TIME_CAP / 2, 0.25 * t_max), t_max, 1200)
    return np.concatenate([dense, tail])


def fit_decay(series, window):
    """Least-squares fit of the series to a e^(-i omega t - Gamma t/2).

    Log-modulus and demodulated phase (against the window center frequency)
    are fitted linearly; log-modulus curvature above a quarter of the linear
    drop over the half-window marks a non-exponential window and raises
    AccuracyError.
    """
    t0, t1 = window
    sel = (series.times >= t0) & (series.times <= t1)
    if np.count_nonzero(sel) < 10:
        raise DomainError("fit window contains fewer than 10 samples")
    t = series.times[sel]
    y = series.values[sel]
    if np.any(np.abs(y) < 1e-300):
        raise AccuracyError("series vanishes inside the fit window")

    logm = np.log(np.abs(y))
    # demodulate so the residual phase slope is small and unwrap is safe
    phase = np.unwrap(np.angle(y * np.exp(1j * series.center * t)))

    tm = t - t.mean()
    slope_m = float(np.dot(tm, logm - logm.mean()) / np.dot(tm, tm))
    icept_m = float(logm.mean() - slope_m * t.mean())
    slope_p = float(np.dot(tm, phase - phase.mean()) / np.dot(tm, tm))
    icept_p = float(phase.mean() - slope_p * t.mean())

    # curvature check on the log-modulus
    q2 = np.polynomial.polynomial.polyfit(tm, logm, 2)
    span = t1 - t0
    defect = abs(q2[2]) * (span / 2.0) ** 2
    scale = max(abs(slope_m) * span / 2.0, 1e-10)
    if defect > 0.25 * scale + 1e-8:
        raise AccuracyError(
            f"log-modulus curvature {defect:.2e} vs linear scale {scale:.2e}: "
            "window is not in the exponential regime"
        )

    gamma = -2.0 * slope_m
    omega = series.center - slope_p
    a = complex(math.exp(icept_m) * np.exp(1j * icept_p))
    model = a * np.exp(-1j * (omega - series.center) * t) * np.exp(slope_m * t)
    # background estimate: residual against the fitted pole term, in original phase
    resid = y * np.exp(1j * series.center * t) - model
    return DecayFit(
        a=a,
        gamma=float(gamma),
        omega=float(omega),
        background_norm=float(np.max(np.abs(resid))),
    )
