"""Transverse profile, Landau-level compression spectra, counting functions,
their asymptotic laws, and the isolated-eigenvalue accumulation check.

The compression of a radial multiplier U to the q-th Landau level is diagonal
in angular momentum: its eigenvalues are <U phi_{q,m}, phi_{q,m}>, m >= -q.
Counting how many exceed eta realizes the spectral-displacement asymptotics
near an infinite-multiplicity eigenvalue; three decay classes of U give three
closed-form leading laws (volume term for power decay, log / log-log laws for
exponential and compact profiles).
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import eig_banded

from .errors import DomainError, RangeError, SolverError
from .operators import assemble
from .schrodinger1d import bound_states
from .specfun import RadialMode, gauss_laguerre_rule, m_minus, radial_eigenfunction

_SMALL_M_CUTOFF = 64


@lru_cache(maxsize=64)
def _cached_gl_rule(b, n_nodes):
    return gauss_laguerre_rule(b, n_nodes)


@lru_cache(maxsize=8)
def _cached_leggauss(n):
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class PowerDecay:
    alpha: float
    u0: float  # angular average of the profile coefficient (axisymmetric: constant)


@dataclass(frozen=True)
class ExponentialDecay:
    beta: float
    mu: float


@dataclass(frozen=True)
class CompactSupport:
    radius: float
    lower_bound: float


@dataclass(frozen=True)
class TransverseProfile:
    """Radial profile U(rho) with field strength and fitted decay class."""

    u: callable
    b: float
    decay: object = None  # PowerDecay | ExponentialDecay | CompactSupport | None

    def __call__(self, rho):
        return self.u(np.asarray(rho, dtype=float))


def _power_fit(rho, lu):
    lr = np.log(rho)
    cp = np.polynomial.polynomial.polyfit(lr, lu, 1)  # ln U = ln u0 - alpha ln rho
    resid = float(np.sqrt(np.mean((lu - (cp[0] + cp[1] * lr)) ** 2)))
    return cp, resid


def _exp_fit(rho, lu):
    """Profile scan over beta of the model ln U = ln c - mu rho^(2 beta).

    Linear in (ln c, mu) at fixed beta, so a coarse-then-fine beta scan plus
    least squares recovers amplitude offsets exactly (a pure Gaussian fits with
    zero residual and beta = 1 to machine precision).
    """
    def solve(beta):
        a = np.stack([np.ones_like(rho), rho ** (2.0 * beta)], axis=1)
        coef, *_ = np.linalg.lstsq(a, lu, rcond=None)
        r = lu - a @ coef
        return float(np.sqrt(np.mean(r * r))), coef

    from scipy.optimize import minimize_scalar

    betas = np.geomspace(0.1, 4.0, 60)
    scans = [solve(b)[0] for b in betas]
    i0 = int(np.argmin(scans))
    lo = betas[max(i0 - 1, 0)]
    hi = betas[min(i0 + 1, len(betas) - 1)]
    opt = minimize_scalar(lambda b: solve(b)[0], bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9})
    beta = float(opt.x)
    resid, coef = solve(beta)
    if abs(beta - 1.0) < 5e-3:
        beta = 1.0
        resid, coef = solve(beta)
    mu = float(-coef[1])
    return beta, mu, resid


def _classify_tail(u, samples_rho, samples_u):
    """Decay class from tail regressions of ln U; exact zeros only count as
    compact support when the positive tail does not already look like a
    (possibly underflowed) smooth decay."""
    clean = samples_u > 1e-200  # stay clear of subnormal garbage
    rho = samples_rho[clean]
    uu = samples_u[clean]
    if len(rho) < 12:
        return None
    has_zeros = bool(np.any((samples_u <= 0) & (samples_rho > rho[-1])))
    sel = rho >= rho[-1] / 10.0  # last decade of resolved samples
    rho_t, lu_t = rho[sel], np.log(uu[sel])
    cp, rp = _power_fit(rho_t, lu_t)
    beta, mu, re_ = _exp_fit(rho_t, lu_t)
    # an exponential with 2 beta ln(rho range) << 1 degenerates into a power
    # law over the window; demand genuine curvature before preferring it
    bends = 2.0 * beta * math.log(rho_t[-1] / rho_t[0]) > 1.0 and mu > 0
    if has_zeros:
        if not (re_ < 0.05 and bends and beta <= 3.0):
            lo, hi = rho[-1], samples_rho[samples_rho > rho[-1]][0]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if u(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            head = np.linspace(0.0, lo, 512)
            return CompactSupport(radius=float(hi),
                                  lower_bound=float(np.max(u(head)) * 0.5))
    if bends and re_ < 0.5 * rp:
        return ExponentialDecay(beta=beta, mu=mu)
    if rp < 0.05:
        return PowerDecay(alpha=float(-cp[1]), u0=float(math.exp(cp[0])))
    return None


def transverse_profile(V, psi_state, b):
    """U(rho) = int V(rho, x3) psi(x3)^2 dx3 with a fitted decay class.

    When the tail fit is ambiguous the profile is returned unclassified: the
    spectrum stays computable, only the closed-form laws are unavailable.
    """
    x = psi_state.grid.points
    w = psi_state.psi**2 * psi_state.grid.h

    def u(rho):
        rho = np.asarray(rho, dtype=float)
        flat = rho.reshape(-1)
        vals = V.evaluate(flat[:, None], x[None, :]) @ w
        return vals.reshape(rho.shape)

    # adaptive tail sampling: stop once the tail is a few hundred decades deep
    # (well before underflow) or simply dead
    rho_hi = 8.0
    while rho_hi < 2.0e4:
        probe = u(np.array([rho_hi]))[0]
        if probe <= 0.0 or probe < 1e-60:
            break
        rho_hi *= 1.6
    samples_rho = np.geomspace(0.2, rho_hi, 400)
    samples_u = u(samples_rho)
    decay = _classify_tail(u, samples_rho, samples_u)
    return TransverseProfile(u=u, b=b, decay=decay)


@dataclass(frozen=True)
class ToeplitzSpectrum:
    """Eigenvalues <U phi_{q,m}, phi_{q,m}> of the Landau-level compression."""

    q: int
    ms: np.ndarray
    eigenvalues: np.ndarray

    def tail_resolved_down_to(self):
        """Smallest eta for which counting is trustworthy at this m_max."""
        return float(np.max(self.eigenvalues[-3:]))


def _eigenvalue_small_m(profile, q, m):
    n_nodes = min(2 * (q + abs(m)) + 40, 170)
    rule = _cached_gl_rule(profile.b, n_nodes)
    mode = RadialMode(profile.b, q, m)
    phi = radial_eigenfunction(mode, rule.nodes)
    return float(np.dot(rule.weights, phi * phi * profile(rule.nodes)))


def _eigenvalue_large_m(profile, q, m, n_nodes=320):
    # the density phi^2 rho concentrates near s = b rho^2/2 ~ m + O(sqrt(m));
    # integrate on that window with Gauss-Legendre in s (log-stable phi values)
    b = profile.b
    mm = m if m >= 0 else -m
    s_lo = max(mm - 12.0 * math.sqrt(mm + q + 1) - 25.0, 1e-12)
    s_hi = mm + 12.0 * math.sqrt(mm + q + 1) + 25.0
    xg, wg = _cached_leggauss(n_nodes)
    s = 0.5 * (s_hi + s_lo) + 0.5 * (s_hi - s_lo) * xg
    ws = 0.5 * (s_hi - s_lo) * wg
    rho = np.sqrt(2.0 * s / b)
    phi = radial_eigenfunction(RadialMode(b, q, m), rho)
    return float(np.sum(ws * phi * phi * profile(rho)) / b)


def toeplitz_eigenvalue(profile, q, m):
    if q < m_minus(m):
        raise DomainError(f"q={q} below m_- for m={m}")
    if abs(m) <= _SMALL_M_CUTOFF:
        return _eigenvalue_small_m(profile, q, m)
    return _eigenvalue_large_m(profile, q, m)


def toeplitz_eigenvalues(profile, q, m_max=None, eta_min=None, m_cap=4000):
    """Spectrum over m = -q .. m_max.

    With m_max = None the range grows until the eigenvalue falls below
    eta_min / 10 (capped at m_cap; power-law tails take large m_max).
    """
    ms = []
    vals = []
    m = -q
    below = 0
    while True:
        val = toeplitz_eigenvalue(profile, q, m)
        ms.append(m)
        vals.append(val)
        if m_max is not None and m >= m_max:
            break
        if m_max is None:
            if eta_min is None:
                raise DomainError("need m_max or eta_min")
            below = below + 1 if val < eta_min / 10.0 else 0
            if m > 8 and below >= 3:
                break
            if m >= m_cap:
                raise RangeError(
                    f"eigenvalues still above eta_min/10 at the m cap {m_cap}"
                )
        m += 1
    return ToeplitzSpectrum(q=q, ms=np.asarray(ms), eigenvalues=np.asarray(vals))


@dataclass(frozen=True)
class CountingFunction:
    """n_+(eta), n_-(eta), n_* for a computed compression spectrum."""

    spectrum: ToeplitzSpectrum

    def _check_range(self, eta):
        if not eta > 0:
            raise DomainError("counting threshold must be positive")
        if eta <= self.spectrum.tail_resolved_down_to():
            raise RangeError(
                f"eta={eta:.3e} at or below the resolved tail "
                f"{self.spectrum.tail_resolved_down_to():.3e}; increase m_max"
            )

    def n_plus(self, eta):
        self._check_range(eta)
        return int(np.count_nonzero(self.spectrum.eigenvalues > eta))

    def n_minus(self, eta):
        self._check_range(eta)
        return int(np.count_nonzero(self.spectrum.eigenvalues < -eta))

    def n_star(self, eta):
        return self.n_plus(eta) + self.n_minus(eta)


def counting(spectrum, eta):
    """Number of compression eigenvalues above eta."""
    return CountingFunction(spectrum).n_plus(eta)


def law_prediction(profile, eta):
    """Leading counting term for the profile's decay class at threshold eta.

    power: (b / 2 pi) * Lebesgue measure of the superlevel set {U > eta};
    exponential: the three-branch log law in |ln eta|;
    compact: |ln eta| / ln |ln eta| (radius-independent at leading order).
    """
    if not 0 < eta:
        raise DomainError("eta must be positive")
    d = profile.decay
    if d is None:
        raise DomainError("profile decay class unclassified; law unavailable")
    if isinstance(d, PowerDecay):
        # superlevel measure by radial quadrature of the indicator
        r_hi = 1.0
        while profile(np.array([r_hi]))[()] > eta and r_hi < 1e6:
            r_hi *= 2.0
        rho = np.linspace(0.0, r_hi, 400001)
        ind = profile(rho) > eta
        measure = 2.0 * math.pi * np.trapezoid(rho * ind, rho)
        return profile.b / (2.0 * math.pi) * measure
    if isinstance(d, ExponentialDecay):
        if not eta < math.exp(-1.0):
            raise DomainError("log laws need eta < 1/e")
        al = abs(math.log(eta))
        if d.beta < 1.0:
            return profile.b / (2.0 * d.mu ** (1.0 / d.beta)) * al ** (1.0 / d.beta)
        if d.beta == 1.0:
            return al / math.log1p(2.0 * d.mu / profile.b)
        return d.beta / (d.beta - 1.0) * al / math.log(al)
    if isinstance(d, CompactSupport):
        if not eta < math.exp(-1.0):
            raise DomainError("log laws need eta < 1/e")
        al = abs(math.log(eta))
        return al / math.log(al)
    raise DomainError(f"unknown decay class {d!r}")


@dataclass(frozen=True)
class LawReport:
    rows: list  # (eta, n_plus, prediction, ratio)
    last_decade_mean: float
    slope: float  # d ratio / d ln eta over the grid


def law_convergence_report(profile, q, eta_grid, m_max=None):
    """Ratios n_+(eta) / prediction(eta) with a last-decade trend summary."""
    eta_grid = np.sort(np.asarray(eta_grid, dtype=float))[::-1]
    spec = toeplitz_eigenvalues(profile, q, m_max=m_max, eta_min=float(eta_grid[-1]))
    cf = CountingFunction(spec)
    rows = []
    for eta in eta_grid:
        n = cf.n_plus(float(eta))
        pred = law_prediction(profile, float(eta))
        rows.append((float(eta), n, pred, n / pred if pred > 0 else math.inf))
    etas = np.array([r[0] for r in rows])
    ratios = np.array([r[3] for r in rows])
    last = etas <= etas.min() * 10.0
    mean = float(np.mean(ratios[last]))
    coef = np.polynomial.polynomial.polyfit(np.log(etas), ratios, 1)
    return LawReport(rows=rows, last_decade_mean=mean, slope=float(coef[1]))


@dataclass(frozen=True)
class GapAccumulationReport:
    rows: list  # dict per eta
    m_used: int
    lam: float
    inertia_sweeps: int  # block LDL^T sweeps, one per counted m
    inertia_shifts: int  # shifts counted over those sweeps
    eig_banded_fallbacks: int  # m blocks recounted with eig_banded


def _count_below_eig_banded(op, sigmas):
    """Fallback for ``op.count_below``: eigenvalues in (lower bound, sigma]."""
    band = op.symmetric_band_lower()
    lo = min(-op.norm_estimate(), float(np.min(sigmas))) - 1.0
    return np.array([len(eig_banded(band, lower=True, eigvals_only=True, select="v",
                                    select_range=(lo, float(s))))
                     for s in sigmas])


def gap_accumulation_check(problem, basis, sign, eta_grid, eps=0.1, which=0,
                           m_cap=200, state=None, profile=None):
    """Eigenvalue accumulation at the isolated embedded energy vs the counting law.

    For sign '-' counts eigenvalues of H^(m) - V below lambda - eta, aggregated
    over m >= 0, and sandwiches the total by n_+((1 +- eps) eta) of the
    transverse compression at the bottom Landau level.  sign '+' mirrors to
    (lambda + eta, 0).  Requires sign-definite V.  ``state`` (the bound state
    ``which``) and its transverse ``profile`` are built here unless given.

    Each m is counted by one inertia sweep over all eta (see
    ``AssembledOperator.count_below``); an m whose sweep breaks down is
    recounted with ``eig_banded``.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if not problem.V.sign_definite:
        raise DomainError("accumulation check requires sign-definite V")
    eta_grid = np.sort(np.asarray(eta_grid, dtype=float))[::-1]
    if np.any(eta_grid <= 0):
        raise DomainError("eta grid must be positive")

    if state is None:
        state = bound_states(problem.v0, basis.grid)[which]
    lam = state.lam
    if profile is None:
        profile = transverse_profile(problem.V, state, problem.b)
    spec = toeplitz_eigenvalues(profile, 0, eta_min=float(eta_grid[-1]) * (1 - eps))
    cf = CountingFunction(spec)

    kappa = -1.0 if sign == "-" else 1.0
    # the box continuum starts at the first free kinetic eigenvalue; counting
    # windows must stay clear of it on the '+' side, so '+' counts in
    # (lambda + eta, -1e-9] as count_below(-1e-9) - count_below(lambda + eta)
    if sign == "-":
        shifts = lam - eta_grid
    else:
        shifts = np.append(lam + eta_grid, -1e-9)
        open_window = lam + eta_grid < -1e-9
    counts = np.zeros(len(eta_grid), dtype=int)
    sweeps = fallbacks = 0
    m = 0
    m_used = 0
    zero_streak = 0
    while m <= m_cap:
        op = assemble(replace(problem, m=m), basis, theta=0.0, kappa=kappa)
        try:
            below = op.count_below(shifts)
        except SolverError:
            below = _count_below_eig_banded(op, shifts)
            fallbacks += 1
        else:
            sweeps += 1
        if sign == "-":
            found = below
        else:
            found = np.where(open_window, below[-1] - below[:-1], 0)
        counts += found
        m_used = m
        zero_streak = 0 if found.any() else zero_streak + 1
        mu_m = toeplitz_eigenvalue(profile, 0, m)
        if zero_streak >= 2 and mu_m < float(eta_grid[-1]) / 4.0:
            break
        m += 1
    else:
        raise RangeError(f"aggregation did not close by m = {m_cap}")

    rows = []
    for eta, c in zip(eta_grid, counts):
        n_hi = cf.n_plus(float(eta) * (1 - eps))
        n_lo = cf.n_plus(float(eta) * (1 + eps))
        c = int(c)
        slack = max(n_lo - c, c - n_hi, 0)
        rows.append(
            {
                "eta": float(eta),
                "count": c,
                "n_plus_lower": n_lo,
                "n_plus_upper": n_hi,
                "slack": int(slack),
            }
        )
    return GapAccumulationReport(rows=rows, m_used=m_used, lam=lam,
                                 inertia_sweeps=sweeps,
                                 inertia_shifts=sweeps * len(shifts),
                                 eig_banded_fallbacks=fallbacks)
