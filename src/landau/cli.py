"""Configuration-driven experiment runner.

Usage:  landau <subcommand> --config PATH --out PATH [--format csv|json] [--threads N]

Subcommands: bound, fgr, resonance, dynamics, toeplitz, gap, mourre, all.
Config files are flat `section.key = value` assignments with `#` comments.
Outputs are CSV (one table per file plus a manifest) or a single
schema-versioned JSON document.  Identical configs produce bitwise-identical
output files; wall-clock timing goes to stderr only.

Each invocation has one run object, which builds the problem, the basis, the
transverse profile and the golden-rule data at most once and shares them among
the runners: the golden-rule data are computed once per run.  The H_par bound
states of each grid are solved once in ``schrodinger1d.solved_bound_states``.
v0 and V are families of ``landau.potentials``; ``problem.v0.<param>`` and
``problem.V.<param>`` set the keyword parameters of the selected family.

Exit codes: 0 success, 1 accuracy/solver failure or any other exception in a
runner (both write `<subcommand>_diagnostics.txt` naming the exception type;
an exception outside landau's own errors adds its traceback),
2 usage/config error or an output that cannot be written.
"""

import argparse
import inspect
import json
import math
import os
import sys
import time
from functools import cached_property

from .errors import ConfigError, DomainError, LandauError

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config parsing


def _float_list(raw):
    return [float(tok) for tok in raw.split(",") if tok.strip()]


class Config:
    """Flat dotted-key config with line tracking and consumption accounting."""

    def __init__(self, entries, source="<config>"):
        self.entries = entries  # key -> (value string, line number)
        self.source = source
        self.consumed = set()

    @classmethod
    def load(cls, path):
        entries = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected `key = value`", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError("empty key or value", line=lineno)
            if key in entries:
                raise ConfigError(f"duplicate key {key!r}", line=lineno)
            try:  # get_floats checks lists, _build_potential family parameters
                finite = math.isfinite(float(value))
            except ValueError:
                finite = True
            if not (finite or key.startswith(("problem.v0.", "problem.V."))):
                raise ConfigError(f"{key!r} must be finite, got {value!r}", line=lineno)
            entries[key] = (value, lineno)
        return cls(entries, source=str(path))

    def has(self, key):
        return key in self.entries

    def raw(self, key, default=None, required=False):
        if key not in self.entries:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        self.consumed.add(key)
        return self.entries[key][0]

    def _typed(self, key, cast, default, required, positive=False):
        raw = self.raw(key, default=None, required=required)
        if raw is None:
            return default
        try:
            val = cast(raw)
        except ValueError:
            raise ConfigError(
                f"cannot parse {key!r} = {raw!r}", line=self.entries[key][1]
            )
        if positive and not val > 0:
            raise ConfigError(
                f"{key!r} must be positive, got {val}", line=self.entries[key][1]
            )
        return val

    def get_float(self, key, default=None, required=False, positive=False):
        return self._typed(key, float, default, required, positive)

    def get_int(self, key, default=None, required=False, positive=False):
        return self._typed(key, int, default, required, positive)

    def get_str(self, key, default=None, required=False):
        return self.raw(key, default=default, required=required)

    def _list(self, key, required):
        vals = self._typed(key, _float_list, None, required)
        if vals == []:
            raise ConfigError(f"{key!r} lists no values", line=self.entries[key][1])
        return vals

    def get_floats(self, key, default=None, required=False):
        vals = self._list(key, required)
        if vals is None:
            return default
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"{key!r} must be finite, got {self.entries[key][0]!r}",
                              line=self.entries[key][1])
        return vals

    def get_ints(self, key, default=None):
        vals = self._list(key, False)
        if vals is None:
            return default
        if not all(v.is_integer() for v in vals):
            raise ConfigError(f"{key!r} must be a list of integers, got "
                              f"{self.entries[key][0]!r}", line=self.entries[key][1])
        return [int(v) for v in vals]

    def prefix_keys(self, prefix):
        return [k for k in self.entries if k.startswith(prefix)]

    def check_all_consumed(self):
        leftover = sorted(set(self.entries) - self.consumed)
        if leftover:
            key = leftover[0]
            raise ConfigError(f"unknown key {key!r}", line=self.entries[key][1])

    def echo(self):
        return {k: v for k, (v, _) in sorted(self.entries.items())}

    def experiment_id(self):
        canon = "\n".join(f"{k} = {v}" for k, (v, _) in sorted(self.entries.items()))
        return _sha256_id(canon)


def _sha256_id(text):
    """The first 16 hex digits of SHA-256(text), from CPython's built-in module:
    ``hashlib`` loads OpenSSL, 3.6 MB of every launch's resident set."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# builders


def _registries():
    from . import potentials

    return {"v0": potentials.V0_FAMILIES, "V": potentials.V_FAMILIES}


def _build_potential(cfg, part):
    """The ``problem.<part>.family`` member of its registry in ``potentials``.

    Its keyword parameters are read from ``problem.<part>.<param>``; absent keys
    keep the family's defaults, and the family validates the finite values.
    """
    key = f"problem.{part}.family"
    family = cfg.get_str(key, required=True)
    line = cfg.entries[key][1]
    build = _registries()[part].get(family)
    if build is None:
        raise ConfigError(f"unknown {part} family {family!r}", line=line)
    kwargs = {name: cfg.get_float(f"problem.{part}.{name}")
              for name in inspect.signature(build).parameters
              if cfg.has(f"problem.{part}.{name}")}
    try:
        bad = [name for name, val in kwargs.items() if not math.isfinite(val)]
        if bad:
            raise DomainError(f"{bad[0]} must be finite, got {kwargs[bad[0]]}")
        return build(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"{family}: {exc}", line=line)


def _common_keys(cfg):
    """Keys every runner may ignore without tripping the unknown-key check: the
    shared problem and numerics keys, and the keys of each part's selected
    family (a parameter of another family stays unknown)."""
    keys = ["problem.b", "problem.m", "problem.q", "numerics.x_min",
            "numerics.x_max", "numerics.n", "numerics.J"]
    for part, registry in _registries().items():
        family = f"problem.{part}.family"
        keys.append(family)
        build = registry.get(cfg.entries.get(family, (None,))[0])
        if build is not None:
            keys += [f"problem.{part}.{name}"
                     for name in inspect.signature(build).parameters]
    return keys


class _Run:
    """The inputs of one invocation, each built from the config at most once and
    shared by every runner (``all`` hands one run to its four runners)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._fgr = {}

    @cached_property
    def v0(self):
        return _build_potential(self.cfg, "v0")

    @cached_property
    def problem(self):
        from .operators import LandauProblem

        return LandauProblem(
            b=self.cfg.get_float("problem.b", 1.0, positive=True),
            v0=self.v0,
            V=_build_potential(self.cfg, "V"),
            m=self.cfg.get_int("problem.m", 0),
        )

    @cached_property
    def basis(self):
        from .operators import BasisTruncation
        from .schrodinger1d import Grid1D

        cfg = self.cfg
        grid = Grid1D(
            x_min=cfg.get_float("numerics.x_min", -18.0),
            x_max=cfg.get_float("numerics.x_max", 18.0),
            n=cfg.get_int("numerics.n", 1201, positive=True),
        )
        return BasisTruncation(J=cfg.get_int("numerics.J", 7, positive=True), grid=grid)

    @cached_property
    def q(self):
        return self.cfg.get_int("problem.q", 1)

    @cached_property
    def profile(self):
        from .schrodinger1d import ground_state
        from .toeplitz_ssf import transverse_profile

        state = ground_state(self.v0, self.basis.grid)
        return transverse_profile(self.problem.V, state, self.problem.b)

    def fgr(self, refine=1):
        """The golden-rule data at this run's q, computed once per ``refine``."""
        if refine not in self._fgr:
            from .fgr import fgr_value

            self._fgr[refine] = fgr_value(self.problem, self.basis, self.q,
                                          refine=refine)
        return self._fgr[refine]


# ---------------------------------------------------------------------------
# runners (each takes the run and returns (tables, diagnostics))


def _run_bound(run):
    from .schrodinger1d import (jost_solutions, richardson_ground_state,
                                solved_bound_states)

    cfg = run.cfg
    v0 = run.v0
    grid = run.basis.grid
    ks = cfg.get_floats("task.k_values", required=True)

    states = solved_bound_states(v0, grid)
    rows = []
    for i, st in enumerate(states):
        lam_r, _ = richardson_ground_state(v0, grid, which=i)
        rows.append([i, st.lam, lam_r])
    scat = []
    for k in ks:
        sol = jost_solutions(v0, float(k), grid)
        scat.append([k, sol.T.real, sol.T.imag, sol.R.real, sol.R.imag,
                     abs(sol.T), abs(sol.R), sol.flux_defect])
    tables = {
        "bound_states": (["index", "lambda", "lambda_richardson"], rows),
        "scattering": (["k", "re_T", "im_T", "re_R", "im_R", "abs_T", "abs_R",
                        "flux_defect"], scat),
    }
    diag = {"n_bound_states": len(states), "grid_n": grid.n}
    return tables, diag


def _run_fgr(run):
    from dataclasses import replace

    from .fgr import first_order_shift
    from .specfun import m_minus

    cfg = run.cfg
    problem, basis = run.problem, run.basis
    q_max = cfg.get_int("task.q_max", run.q, positive=True)
    m_values = cfg.get_ints("task.m_values", [problem.m])
    refine = cfg.get_int("task.refine", 1)

    shift_rows = []
    for m in m_values:
        pm = replace(problem, m=m)
        for qq in range(m_minus(m), q_max + 1):
            shift_rows.append([qq, m, first_order_shift(pm, basis, qq, refine=refine)])

    res = run.fgr(refine)
    fgr_rows = [[res.q, res.m, res.F.real, res.F.imag, res.im_from_channels,
                 res.first_order, res.route_agreement, res.flagged]]
    chan_rows = [[l, j, amp.real, amp.imag, abs(amp) ** 2]
                 for (l, j), amp in sorted(res.channel_amplitudes.items())]
    tables = {
        "first_order": (["q", "m", "shift"], shift_rows),
        "fgr": (["q", "m", "re_F", "im_F", "im_F_channels", "first_order",
                 "route_agreement", "flagged"], fgr_rows),
        "channels": (["l", "j", "re_amp", "im_amp", "abs2"], chan_rows),
    }
    return tables, {"lambda": res.lam, "flagged": res.flagged,
                    "resolvent_route": res.resolvent_route}


def _relative(diff, ref):
    """|diff| / |ref|; NaN when the reference is exactly 0 and the relative
    disagreement is undefined (no open channel, or V = 0)."""
    return abs(diff) / abs(ref) if ref else math.nan


def _run_resonance(run):
    import numpy as np

    from .resonance import MIN_BRANCH_POINTS, fit_expansion, richardson_branch

    cfg = run.cfg
    problem, basis, q = run.problem, run.basis, run.q
    kmax = cfg.get_float("task.kappa_max", 0.08, positive=True)
    steps = cfg.get_int("task.kappa_steps", 9, positive=True)
    if steps < MIN_BRANCH_POINTS:
        raise ConfigError(
            f"'task.kappa_steps' must be at least {MIN_BRANCH_POINTS} to fit the "
            f"expansion, got {steps}", line=cfg.entries["task.kappa_steps"][1])
    theta = 1j * cfg.get_float("task.im_theta", 0.3, positive=True)
    branch = richardson_branch(problem, basis, theta, q, np.linspace(0.0, kmax, steps))
    fit = fit_expansion(branch)
    res = run.fgr()

    rows = [[r.kappa, r.w.real, r.w.imag, r.residual, r.iterations] for r in branch]
    c1_rel = _relative(fit.c1 - res.first_order, res.first_order)
    imc2_rel = _relative(fit.c2.imag + res.im_from_channels, res.im_from_channels)
    rec2_rel = _relative(fit.c2.real + res.F.real, res.F.real)
    f_rel = _relative(fit.c2 + res.F, res.F)
    fit_rows = [[
        fit.c0.real, fit.c0.imag, fit.c1.real, fit.c1.imag, fit.c2.real, fit.c2.imag,
        fit.fit_residual, fit.degree, fit.kappa_window[0], fit.kappa_window[1],
        res.first_order, res.im_from_channels, c1_rel, imc2_rel,
        res.F.real, fit.c2_uncertainty, rec2_rel, f_rel,
    ]]
    tables = {
        "branch": (["kappa", "re_w", "im_w", "residual", "iterations"], rows),
        "fit": (["c0_re", "c0_im", "c1_re", "c1_im", "c2_re", "c2_im",
                 "fit_residual", "degree", "kappa_min", "kappa_max",
                 "first_order_quadrature", "im_F_channels",
                 "c1_rel_disagreement", "im_c2_rel_disagreement",
                 "re_F", "c2_uncertainty", "re_c2_rel_disagreement",
                 "F_rel_disagreement"], fit_rows),
    }
    diag = {"fit_degree": fit.degree, "c1_rel": c1_rel, "im_c2_rel": imc2_rel,
            "re_c2_rel": rec2_rel, "F_rel": f_rel, "c2_uncertainty": fit.c2_uncertainty}
    return tables, diag


def _run_dynamics(run):
    from .dynamics import (autocorrelation, default_fit_window, default_times, fit_decay,
                           refined_poles)
    from .fgr import channel_amplitudes, im_from_amplitudes
    from .operators import coupling

    cfg = run.cfg
    # one route; the key stays because shipped and benchmark configs set it
    method = cfg.get_str("task.method", "resolvent")
    if method != "resolvent":
        raise ConfigError(f"'task.method' must be resolvent, got {method!r}",
                          line=cfg.entries["task.method"][1])
    problem, basis, q = run.problem, run.basis, run.q
    kappas = cfg.get_floats("task.kappa_values", required=True)
    if 0.0 in kappas:  # no coupling, no decay: nothing to fit
        raise ConfigError(f"'task.kappa_values' must be nonzero, got "
                          f"{cfg.entries['task.kappa_values'][0]!r}",
                          line=cfg.entries["task.kappa_values"][1])
    delta_window = cfg.get_float("task.delta_window", 0.25, positive=True)
    theta = 1j * cfg.get_float("task.im_theta", 0.3, positive=True)

    # the golden-rule rate needs only Im F: the channel route
    imf = im_from_amplitudes(channel_amplitudes(problem, basis, q))
    # the poles on h/2 and h/4 first, one grid at a time; then the base grid's
    # dilated coupling (its even-sector half) and embedded state are held
    # across the kappa loop: each computed once
    poles = refined_poles(problem, basis, q, kappas, theta)
    shared = coupling(problem, basis, theta, even_sector=True)  # see ``coupling``
    state = None
    tables = {}
    fit_rows = []
    surrogate = []
    for kappa, pole in zip(kappas, poles):
        gamma_est = 2.0 * kappa**2 * imf
        t0, t1 = default_fit_window(delta_window, gamma_est)
        times = default_times(t1)
        ser = autocorrelation(problem, basis, q, float(kappa), times, delta_window,
                              theta=theta, poles=pole, state=state)
        state = ser.state
        fit = fit_decay(ser, (t0, t1))
        surrogate.append({"kappa": kappa, "nodes": ser.surrogate_nodes,
                          "resolvent_solves": ser.resolvent_solves,
                          "held_out_error": ser.held_out_error})
        tag = f"{kappa:g}".replace(".", "p").replace("-", "m")
        tables[f"series_kappa_{tag}"] = (
            ["t", "re_v", "im_v", "abs_v"],
            [[t, v.real, v.imag, abs(v)]
             for t, v in zip(ser.times[::17], ser.values[::17])],
        )
        fit_rows.append([kappa, fit.gamma, gamma_est,
                         fit.gamma / gamma_est if gamma_est > 0 else math.inf,
                         fit.a.real, fit.a.imag, abs(fit.a - 1) / kappa**2,
                         fit.omega, fit.background_norm, t0, t1])
    tables["decay_fits"] = (
        ["kappa", "gamma", "golden_rule_rate", "rate_ratio", "re_a", "im_a",
         "abs_a_minus_1_over_k2", "omega", "background_norm", "t_fit_lo", "t_fit_hi"],
        fit_rows,
    )
    diag = {"im_F": imf, "method": method, "resolvent_surrogate": surrogate}
    return tables, diag


def _run_toeplitz(run):
    import numpy as np

    from .toeplitz_ssf import (CountingFunction, law_convergence_report,
                               toeplitz_eigenvalues)

    cfg = run.cfg
    q = cfg.get_int("task.q", 0)
    eta_min = cfg.get_float("task.eta_min", 1e-8, positive=True)
    eta_max = cfg.get_float("task.eta_max", 1e-3, positive=True)
    eta_points = cfg.get_int("task.eta_points", 21, positive=True)
    profile = run.profile
    spec = toeplitz_eigenvalues(profile, q, eta_min=eta_min)
    cf = CountingFunction(spec)
    spec_rows = [[int(m), float(v)] for m, v in zip(spec.ms, spec.eigenvalues)]
    etas = np.geomspace(eta_min, eta_max, eta_points)
    report = None
    if profile.decay is not None:
        report = law_convergence_report(profile, q, etas)
        law_rows = [list(r) for r in report.rows]
    else:
        law_rows = [[float(e), cf.n_plus(float(e)), math.nan, math.nan]
                    for e in sorted(etas)[::-1]]
    tables = {
        "spectrum": (["m", "eigenvalue"], spec_rows),
        "counting": (["eta", "n_plus", "prediction", "ratio"], law_rows),
    }
    diag = {
        "decay_class": type(profile.decay).__name__ if profile.decay else "unclassified",
        "decay_params": repr(profile.decay),
        "m_max_used": int(spec.ms[-1]),
    }
    if report is not None:
        diag["last_decade_mean"] = report.last_decade_mean
        diag["slope"] = report.slope
    return tables, diag


def _run_gap(run):
    from .toeplitz_ssf import gap_accumulation_check, toeplitz_eigenvalues

    cfg = run.cfg
    problem, basis = run.problem, run.basis
    sign = cfg.get_str("task.sign", "-")
    eps = cfg.get_float("task.eps", 0.1, positive=True)
    fracs = cfg.get_floats("task.eta_fractions", [0.1, 0.04, 0.01])

    profile = run.profile
    top = float(toeplitz_eigenvalues(profile, 0, m_max=12).eigenvalues.max())
    etas = [top * f for f in fracs]
    rep = gap_accumulation_check(problem, basis, sign, etas, eps=eps, profile=profile)
    rows = [[r["eta"], r["count"], r["n_plus_lower"], r["n_plus_upper"], r["slack"]]
            for r in rep.rows]
    tables = {"gap": (["eta", "count", "n_plus_lower", "n_plus_upper", "slack"], rows)}
    diag = {"m_used": rep.m_used, "lambda": rep.lam, "sign": sign,
            "inertia_sweeps": rep.inertia_sweeps,
            "inertia_shifts": rep.inertia_shifts,
            "eig_banded_fallbacks": rep.eig_banded_fallbacks,
            "inertia_eigh_steps": rep.inertia_eigh_steps}
    return tables, diag


def _run_mourre(run):
    from .operators import mourre_quantity

    cfg = run.cfg
    q = run.q
    delta = cfg.get_float("task.delta", 0.1, positive=True)
    val = mourre_quantity(run.problem, run.basis, q, delta)
    tables = {"mourre": (["q", "delta", "value"], [[q, delta, val]])}
    return tables, {"positive": val > 0}


def _run_all(run):
    tables = {}
    diags = {}
    for name in ("bound", "fgr", "resonance", "toeplitz"):
        sub_tables, sub_diag = _RUNNERS[name](run)
        for tname, tbl in sub_tables.items():
            tables[f"{name}_{tname}"] = tbl
        diags[name] = sub_diag
    return tables, diags


_RUNNERS = {
    "bound": _run_bound,
    "fgr": _run_fgr,
    "resonance": _run_resonance,
    "dynamics": _run_dynamics,
    "toeplitz": _run_toeplitz,
    "gap": _run_gap,
    "mourre": _run_mourre,
    "all": _run_all,
}


# ---------------------------------------------------------------------------
# output


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".16e")
    return str(value)


def _write_csv_tables(out_dir, subcommand, tables, record):
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, (columns, rows) in tables.items():
        path = os.path.join(out_dir, f"{subcommand}_{name}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        written.append(path)
    manifest = os.path.join(out_dir, f"{subcommand}_manifest.json")
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(manifest)
    return written


def _write_json(out_path, subcommand, tables, record):
    if os.path.isdir(out_path) or not out_path.endswith(".json"):
        os.makedirs(out_path, exist_ok=True)
        out_path = os.path.join(out_path, f"{subcommand}.json")
    doc = dict(record)
    doc["tables"] = {
        name: {"columns": columns, "rows": rows}
        for name, (columns, rows) in tables.items()
    }
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return [out_path]


def _set_thread_env(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="landau",
        description="spectral experiments for the fibered magnetic Schrodinger operator",
    )
    parser.add_argument("subcommand", choices=tuple(_RUNNERS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    threads = args.threads
    if threads is None:
        env = os.environ.get("LANDAU_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                print(f"landau: bad LANDAU_THREADS value {env!r}", file=sys.stderr)
                return 2
    if threads is not None:
        if threads <= 0:
            print("landau: thread count must be positive", file=sys.stderr)
            return 2
        _set_thread_env(threads)

    started = time.monotonic()
    try:
        cfg = Config.load(args.config)
        if not cfg.prefix_keys("task."):
            raise ConfigError(f"empty task block for subcommand {args.subcommand!r}")
        for key in _common_keys(cfg):
            if cfg.has(key):
                cfg.raw(key)
        tables, diagnostics = _RUNNERS[args.subcommand](_Run(cfg))
        cfg.check_all_consumed()
    except (ConfigError, DomainError) as exc:
        print(f"landau: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a LandauError, or an unexpected one such as LinAlgError
        print(f"landau: computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        report = [f"{type(exc).__name__}: {exc}\n"]
        if not isinstance(exc, LandauError):
            import traceback

            report += traceback.format_exception(exc)
        diag_dir = ((os.path.dirname(args.out) or ".") if args.out.endswith(".json")
                    else args.out)
        try:
            os.makedirs(diag_dir, exist_ok=True)
            diag_path = os.path.join(diag_dir, f"{args.subcommand}_diagnostics.txt")
            with open(diag_path, "w", encoding="utf-8") as fh:
                fh.writelines(report)
        except OSError:
            pass
        return 1

    record = {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": cfg.experiment_id(),
        "subcommand": args.subcommand,
        "config_echo": cfg.echo(),
        "diagnostics": diagnostics,
    }
    write = _write_csv_tables if args.format == "csv" else _write_json
    try:
        written = write(args.out, args.subcommand, tables, record)
    except OSError as exc:
        print(f"landau: cannot write output: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    print(f"landau: {args.subcommand} wrote {len(written)} file(s) "
          f"in {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
