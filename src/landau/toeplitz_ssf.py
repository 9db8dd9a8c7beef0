"""Transverse profile, Landau-level compression spectra, counting functions,
their asymptotic laws, and the isolated-eigenvalue accumulation check.

The compression of a radial multiplier U to the q-th Landau level is diagonal
in angular momentum: its eigenvalues are <U phi_{q,m}, phi_{q,m}>, m >= -q.
Counting how many exceed eta realizes the spectral-displacement asymptotics
near an infinite-multiplicity eigenvalue; three decay classes of U give three
closed-form leading laws (volume term for power decay, log / log-log laws for
exponential and compact profiles).  U has the class its V declares
(``PerturbationProfile.decay``; the classes live in ``potentials`` and are
importable from here).

U is ``longitudinal_average``, shared with ``fgr``'s first-order shift.  Every
eigenvalue is one ``specfun.radial_overlap`` call: for |m| <= 64 on
``specfun.radial_rule``, at whose nodes U is sampled once (``rule_samples``),
and above on one Gauss-Legendre panel over the window of phi_{q,m}^2 rho.
"""

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .errors import DomainError, RangeError
from .lapack import eig_banded
from .operators import assemble, inertia_counts, symmetric_band_lower
from .potentials import CompactSupport, ExponentialDecay, PowerDecay
from .schrodinger1d import ground_state
from .specfun import RadialMode, m_minus, panel_rule, radial_overlap, radial_rule

_SMALL_M_CUTOFF = 64
_M_CAP = 4000  # largest m an automatic spectrum range may reach
_GAP_M_CAP = 200  # largest m the accumulation check aggregates over
_GAP_BATCH = 16  # most m blocks one inertia sweep of the accumulation check holds
_RHO_BLOCK = 32  # radii per V sample: 0.3 MB at n = 1201, the whole rule 2 to 3 MB


@dataclass(frozen=True)
class TransverseProfile:
    """Radial profile U(rho) with field strength and decay class."""

    u: callable
    b: float
    decay: object = None  # PowerDecay | ExponentialDecay | CompactSupport | None
    breaks: tuple = ()  # radii where U is not analytic in rho^2 (those of V)

    def __call__(self, rho):
        return self.u(np.asarray(rho, dtype=float))


@lru_cache(maxsize=4)
def longitudinal_average(V, state):
    """U(rho) = h sum_x V(rho, x) psi(x)^2 over the grid of the bound ``state``,
    as a vectorized callable of rho, one per (V, state).  V is sampled on blocks
    of ``_RHO_BLOCK`` radii, never as a whole radii-by-grid array."""
    x = state.grid.points
    w = state.psi**2 * state.grid.h

    def u(rho):
        rho = np.asarray(rho, dtype=float)
        flat = rho.reshape(-1)
        vals = np.concatenate([V.evaluate(flat[lo:lo + _RHO_BLOCK, None], x[None, :]) @ w
                               for lo in range(0, max(flat.size, 1), _RHO_BLOCK)])
        return vals.reshape(rho.shape)

    return u


@lru_cache(maxsize=8)
def rule_samples(u, rule):
    """u at the nodes of ``rule`` (read-only), sampled once per (u, rule)."""
    vals = np.asarray(u(rule.nodes), dtype=float)
    vals.flags.writeable = False
    return vals


def transverse_profile(V, psi_state, b):
    """U(rho) = int V(rho, x3) psi(x3)^2 dx3 with the decay class V declares.

    A V that declares none (``V.decay`` None) gives an unclassified profile:
    the spectrum stays computable, only the closed-form laws are unavailable.
    """
    return TransverseProfile(longitudinal_average(V, psi_state), b, V.decay, V.breaks)


@dataclass(frozen=True)
class ToeplitzSpectrum:
    """Eigenvalues <U phi_{q,m}, phi_{q,m}> of the Landau-level compression."""

    q: int
    ms: np.ndarray
    eigenvalues: np.ndarray

    def tail_resolved_down_to(self):
        """Smallest eta for which counting is trustworthy at this m_max."""
        return float(np.max(self.eigenvalues[-3:]))


def _window_rule(b, q, m):
    # the density phi^2 rho concentrates near s = b rho^2/2 ~ m + O(sqrt(m));
    # one Gauss-Legendre panel in s on that window (log-stable phi values)
    mm = m if m >= 0 else -m
    s_lo = max(mm - 12.0 * math.sqrt(mm + q + 1) - 25.0, 1e-12)
    s_hi = mm + 12.0 * math.sqrt(mm + q + 1) + 25.0
    return panel_rule(b, (s_lo, s_hi), (320,))


def toeplitz_eigenvalue(profile, q, m):
    if q < m_minus(m):
        raise DomainError(f"q={q} below m_- for m={m}")
    mode = RadialMode(profile.b, q, m)
    if abs(m) > _SMALL_M_CUTOFF:
        return radial_overlap(mode, mode, profile, _window_rule(profile.b, q, m))
    rule = radial_rule(profile.b, q, m, profile.breaks)
    return radial_overlap(mode, mode, rule_samples(profile.u, rule), rule)


def toeplitz_eigenvalues(profile, q, m_max=None, eta_min=None):
    """Spectrum over m = -q .. m_max.

    With m_max = None the range grows until the eigenvalue falls below
    eta_min / 10 (capped at ``_M_CAP``; power-law tails take large m_max).
    A power-law profile that plainly cannot get there by the cap is refused
    with DomainError before any eigenvalue is computed.
    """
    d = profile.decay
    if m_max is None and eta_min is not None and isinstance(d, PowerDecay):
        # eigenvalue m sits near U(rho) at b rho^2 / 2 = m: for U = (1 +
        # rho^2)^(-alpha/2) this is within 0.15% of the computed value at the
        # cap (alpha = 2, 4, 8).  The spectrum decreases in m, so an estimate
        # 1% above eta_min/10 means the scan would end at the cap with every
        # eigenvalue still above eta_min/10
        at_cap = float(profile(math.sqrt(2.0 * _M_CAP / profile.b)))
        if at_cap > 1.01 * eta_min / 10.0:
            raise DomainError(
                f"power-law profile (alpha = {d.alpha:.3g}) reaches only about "
                f"{at_cap:.2e} by the m cap {_M_CAP}, above eta_min/10; "
                "raise eta_min"
            )
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
            if m >= _M_CAP:
                raise RangeError(
                    f"eigenvalues still above eta_min/10 at the m cap {_M_CAP}"
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


def law_prediction(profile, eta):
    """Leading counting term for the profile's decay class at threshold eta.

    power: (b / 2 pi) * Lebesgue measure of the superlevel set {U > eta};
    exponential: the three-branch log law in |ln eta|;
    compact: |ln eta| / ln |ln eta| (radius-independent at leading order).
    """
    return law_predictions(profile, [eta])[0]


def law_predictions(profile, etas):
    """``law_prediction`` at each threshold of ``etas``.

    A power law measures {U > eta} on U sampled at 400001 radii over
    [0, r_hi], r_hi the first power of 2 with U(r_hi) <= eta; consecutive
    thresholds with the same r_hi share one sample (sorted thresholds share
    all of them), so a grid of etas costs one U sample per distinct r_hi.
    """
    etas = [float(eta) for eta in etas]
    if not all(0 < eta for eta in etas):
        raise DomainError("eta must be positive")
    d = profile.decay
    if d is None:
        raise DomainError("profile decay class unclassified; law unavailable")
    if isinstance(d, PowerDecay):
        # superlevel measure by radial quadrature of the indicator
        preds, sampled = [], None
        for eta in etas:
            r_hi = 1.0
            while profile(np.array([r_hi]))[()] > eta and r_hi < 1e6:
                r_hi *= 2.0
            if r_hi != sampled:
                rho = np.linspace(0.0, r_hi, 400001)
                u = profile(rho)
                sampled = r_hi
            measure = 2.0 * math.pi * np.trapezoid(rho * (u > eta), rho)
            preds.append(profile.b / (2.0 * math.pi) * measure)
        return preds
    if not isinstance(d, (ExponentialDecay, CompactSupport)):
        raise DomainError(f"unknown decay class {d!r}")
    if not all(eta < math.exp(-1.0) for eta in etas):
        raise DomainError("log laws need eta < 1/e")
    return [_log_law(profile.b, d, abs(math.log(eta))) for eta in etas]


def _log_law(b, d, al):
    """The exponential or compact law at |ln eta| = al."""
    if isinstance(d, CompactSupport):
        return al / math.log(al)
    if d.beta < 1.0:
        return b / (2.0 * d.mu ** (1.0 / d.beta)) * al ** (1.0 / d.beta)
    if d.beta == 1.0:
        return al / math.log1p(2.0 * d.mu / b)
    return d.beta / (d.beta - 1.0) * al / math.log(al)


@dataclass(frozen=True)
class LawReport:
    rows: list  # (eta, n_plus, prediction, ratio)
    last_decade_mean: float
    slope: float  # d ratio / d ln eta over the grid; NaN with one distinct eta


def law_convergence_report(profile, q, eta_grid):
    """Ratios n_+(eta) / prediction(eta) with a last-decade trend summary."""
    eta_grid = np.sort(np.asarray(eta_grid, dtype=float))[::-1]
    spec = toeplitz_eigenvalues(profile, q, eta_min=float(eta_grid[-1]))
    cf = CountingFunction(spec)
    rows = []
    for eta, pred in zip(eta_grid, law_predictions(profile, eta_grid)):
        n = cf.n_plus(float(eta))
        rows.append((float(eta), n, pred, n / pred if pred > 0 else math.inf))
    etas = np.array([r[0] for r in rows])
    ratios = np.array([r[3] for r in rows])
    last = etas <= etas.min() * 10.0
    mean = float(np.mean(ratios[last]))
    slope = math.nan  # a line through one distinct eta has no slope
    if etas.max() > etas.min():  # not np.unique, which imports numpy.ma
        slope = float(np.polynomial.polynomial.polyfit(np.log(etas), ratios, 1)[1])
    return LawReport(rows=rows, last_decade_mean=mean, slope=slope)


@dataclass(frozen=True)
class GapAccumulationReport:
    rows: list  # dict per eta
    m_used: int
    lam: float
    inertia_sweeps: int  # m blocks counted by the inertia sweep
    inertia_shifts: int  # shifts counted over those blocks
    eig_banded_fallbacks: int  # m blocks recounted with eig_banded
    inertia_eigh_steps: int  # sweep steps that failed the Cholesky certificate


def _count_below_eig_banded(blocks, hpar_off, norm, sigmas):
    """Fallback for a flagged inertia count: the eigenvalues in (lower bound,
    max sigma] from one ``eig_banded`` call, counted up to each sigma."""
    lo = min(-norm, float(np.min(sigmas))) - 1.0
    ev = eig_banded(symmetric_band_lower(blocks, hpar_off), lo, float(np.max(sigmas)))
    return np.searchsorted(ev, sigmas, side="right")


def _block_counts(problem, basis, kappa, shifts, batch_end, tally):
    """Yields (m, eigenvalue counts below each shift) for m = 0 .. ``_GAP_M_CAP``.

    When m is asked for, the blocks m .. ``batch_end(m)`` (at most
    ``_GAP_BATCH``) are assembled, kept as diagonal blocks and norm estimates
    only, and counted in one ``inertia_counts`` sweep; a block it flags is
    recounted with ``eig_banded``.  ``tally`` adds up the sweeps, fallbacks
    and eigh steps.
    """
    m = 0
    while m <= _GAP_M_CAP:
        ms = range(m, min(batch_end(m), m + _GAP_BATCH - 1) + 1)
        blocks = np.empty((len(ms), basis.grid.n - 2, basis.J, basis.J))
        norms = np.empty(len(ms))
        for k, mk in enumerate(ms):
            op = assemble(replace(problem, m=mk), basis, theta=0.0, kappa=kappa)
            blocks[k] = op.D
            norms[k] = op.norm_estimate()
            hpar_off = op.hpar_off
            del op  # one operator alive at a time, next to the stack
        below, singular, eigh_steps = inertia_counts(blocks, hpar_off, shifts, norms)
        tally["eigh_steps"] += eigh_steps
        for k, mk in enumerate(ms):
            if singular[k]:
                tally["fallbacks"] += 1
                yield mk, _count_below_eig_banded(blocks[k], hpar_off, norms[k], shifts)
            else:
                tally["sweeps"] += 1
                yield mk, below[k]
        m = ms[-1] + 1


def gap_accumulation_check(problem, basis, sign, eta_grid, eps=0.1, profile=None):
    """Eigenvalue accumulation at the isolated embedded energy vs the counting law.

    The embedded energy is lambda, the ground-state eigenvalue of H_par in the
    bottom Landau level.  For sign '-' counts eigenvalues of H^(m) - V below
    lambda - eta, aggregated over m = 0 .. ``_GAP_M_CAP``, and sandwiches the
    total by n_+((1 +- eps) eta) of the transverse compression at that level,
    0 < eps < 1.  sign '+' mirrors to (lambda + eta, 0).  Requires sign-definite
    V.  The transverse ``profile`` of the ground state is built here unless
    given.

    The aggregation stops at the first m with two zero counts in a row and
    mu_m < eta_min / 4, mu_m the m-th compression eigenvalue.  It cannot stop
    before the first m' with mu_m' < eta_min / 4, so the blocks m .. m' are
    counted together in one ``operators.inertia_counts`` sweep over all eta
    (see ``_block_counts``); past m' the blocks go one at a time.  A block the
    sweep flags singular is recounted with ``eig_banded``.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if not problem.V.sign_definite:
        raise DomainError("accumulation check requires sign-definite V")
    eta_grid = np.sort(np.asarray(eta_grid, dtype=float))[::-1]
    if np.any(eta_grid <= 0):
        raise DomainError("eta grid must be positive")
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")

    state = ground_state(problem.v0, basis.grid)
    lam = state.lam
    if profile is None:
        profile = transverse_profile(problem.V, state, problem.b)
    spec = toeplitz_eigenvalues(profile, 0, eta_min=float(eta_grid[-1]) * (1 - eps))
    cf = CountingFunction(spec)

    kappa = -1.0 if sign == "-" else 1.0
    # the box continuum starts at the first free kinetic eigenvalue; counting
    # windows must stay clear of it on the '+' side, so '+' counts in
    # (lambda + eta, -1e-9] as the count below -1e-9 minus the count below
    # lambda + eta
    if sign == "-":
        shifts = lam - eta_grid
    else:
        shifts = np.append(lam + eta_grid, -1e-9)
        open_window = lam + eta_grid < -1e-9
    mu = cache(lambda m: toeplitz_eigenvalue(profile, 0, m))
    mu_stop = float(eta_grid[-1]) / 4.0

    def batch_end(m):
        while mu(m) >= mu_stop and m < _GAP_M_CAP:
            m += 1
        return m

    tally = {"sweeps": 0, "fallbacks": 0, "eigh_steps": 0}
    counts = np.zeros(len(eta_grid), dtype=int)
    m_used = 0
    zero_streak = 0
    for m, below in _block_counts(problem, basis, kappa, shifts, batch_end, tally):
        if sign == "-":
            found = below
        else:
            found = np.where(open_window, below[-1] - below[:-1], 0)
        counts += found
        m_used = m
        zero_streak = 0 if found.any() else zero_streak + 1
        if zero_streak >= 2 and mu(m) < mu_stop:
            break
    else:
        raise RangeError(f"aggregation did not close by m = {_GAP_M_CAP}")

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
                                 inertia_sweeps=tally["sweeps"],
                                 inertia_shifts=tally["sweeps"] * len(shifts),
                                 eig_banded_fallbacks=tally["fallbacks"],
                                 inertia_eigh_steps=tally["eigh_steps"])
