"""Configuration-driven experiment runner.

Usage:  landau <subcommand> --config PATH --out PATH [--format csv|json] [--threads N]

Subcommands: bound, fgr, resonance, dynamics, toeplitz, gap, mourre, all.
Config files are flat `section.key = value` assignments with `#` comments.
Outputs are CSV (one table per file plus a manifest) or a single
schema-versioned JSON document.  Identical configs produce bitwise-identical
output files; wall-clock timing goes to stderr only.

Exit codes: 0 success, 1 accuracy/solver failure, 2 usage/config error.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

SCHEMA_VERSION = 1

_SUBCOMMANDS = ("bound", "fgr", "resonance", "dynamics", "toeplitz", "gap",
                "mourre", "all")


# ---------------------------------------------------------------------------
# config parsing


class Config:
    """Flat dotted-key config with line tracking and consumption accounting."""

    def __init__(self, entries, source="<config>"):
        self.entries = entries  # key -> (value string, line number)
        self.source = source
        self.consumed = set()

    @classmethod
    def load(cls, path):
        from .errors import ConfigError

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
            entries[key] = (value, lineno)
        return cls(entries, source=str(path))

    def has(self, key):
        return key in self.entries

    def raw(self, key, default=None, required=False):
        from .errors import ConfigError

        if key not in self.entries:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        self.consumed.add(key)
        return self.entries[key][0]

    def _typed(self, key, cast, default, required, positive=False):
        from .errors import ConfigError

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

    def get_floats(self, key, default=None, required=False):
        from .errors import ConfigError

        raw = self.raw(key, default=None, required=required)
        if raw is None:
            return default
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(
                f"cannot parse list {key!r} = {raw!r}", line=self.entries[key][1]
            )

    def prefix_keys(self, prefix):
        return [k for k in self.entries if k.startswith(prefix)]

    def check_all_consumed(self):
        from .errors import ConfigError

        leftover = sorted(set(self.entries) - self.consumed)
        if leftover:
            key = leftover[0]
            raise ConfigError(f"unknown key {key!r}", line=self.entries[key][1])

    def echo(self):
        return {k: v for k, (v, _) in sorted(self.entries.items())}

    def experiment_id(self):
        canon = "\n".join(f"{k} = {v}" for k, (v, _) in sorted(self.entries.items()))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# builders


def _build_v0(cfg):
    from . import potentials
    from .errors import ConfigError

    family = cfg.get_str("problem.v0.family", required=True)
    if family == "sech2":
        return potentials.sech2(depth=cfg.get_float("problem.v0.depth", 2.0,
                                                    positive=True))
    if family == "square_well":
        return potentials.square_well(
            depth=cfg.get_float("problem.v0.depth", 0.5, positive=True),
            half_width=cfg.get_float("problem.v0.half_width", 1.0, positive=True),
        )
    if family == "zero":
        return potentials.zero_potential()
    raise ConfigError(f"unknown v0 family {family!r}")


def _build_V(cfg):
    from . import potentials
    from .errors import ConfigError

    family = cfg.get_str("problem.V.family", required=True)
    if family == "gaussian_product":
        return potentials.gaussian_product(
            amplitude=cfg.get_float("problem.V.amplitude", 1.0),
            rho_rate=cfg.get_float("problem.V.rho_rate", 1.0, positive=True),
            x3_rate=cfg.get_float("problem.V.x3_rate", 1.0, positive=True),
        )
    if family == "power_radial":
        return potentials.power_radial(
            alpha=cfg.get_float("problem.V.alpha", 4.0, positive=True),
            amplitude=cfg.get_float("problem.V.amplitude", 1.0),
            x3_rate=cfg.get_float("problem.V.x3_rate", None),
        )
    if family == "compact_radial":
        return potentials.compact_radial(
            radius=cfg.get_float("problem.V.radius", 1.0, positive=True),
            amplitude=cfg.get_float("problem.V.amplitude", 1.0),
            x3_rate=cfg.get_float("problem.V.x3_rate", None),
        )
    raise ConfigError(f"unknown V family {family!r}")


def _build_problem(cfg):
    from .operators import LandauProblem

    return LandauProblem(
        b=cfg.get_float("problem.b", 1.0, positive=True),
        v0=_build_v0(cfg),
        V=_build_V(cfg),
        m=cfg.get_int("problem.m", 0),
    )


def _build_basis(cfg):
    from .operators import BasisTruncation
    from .schrodinger1d import Grid1D

    grid = Grid1D(
        x_min=cfg.get_float("numerics.x_min", -18.0),
        x_max=cfg.get_float("numerics.x_max", 18.0),
        n=cfg.get_int("numerics.n", 1201, positive=True),
    )
    return BasisTruncation(
        J=cfg.get_int("numerics.J", 7, positive=True),
        grid=grid,
        quad_nodes=cfg.get_int("numerics.quad_nodes", 0),
    )


def _require_task(cfg, subcommand):
    from .errors import ConfigError

    if not cfg.prefix_keys("task."):
        raise ConfigError(f"empty task block for subcommand {subcommand!r}")


# ---------------------------------------------------------------------------
# runners (each returns (tables, diagnostics))


def _run_bound(cfg):
    import numpy as np

    from .schrodinger1d import bound_states, jost_solutions, richardson_ground_state

    _require_task(cfg, "bound")
    v0 = _build_v0(cfg)
    cfg.raw("problem.V.family")  # V irrelevant here but tolerated in shared configs
    basis = _build_basis(cfg)
    grid = basis.grid
    ks = cfg.get_floats("task.k_values", required=True)

    states = bound_states(v0, grid)
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


def _run_fgr(cfg):
    from dataclasses import replace

    from .fgr import fgr_value, first_order_shift
    from .specfun import m_minus

    _require_task(cfg, "fgr")
    problem = _build_problem(cfg)
    basis = _build_basis(cfg)
    q = cfg.get_int("problem.q", 1)
    q_max = cfg.get_int("task.q_max", q, positive=True)
    m_values = [int(v) for v in cfg.get_floats("task.m_values", [problem.m])]
    refine = cfg.get_int("task.refine", 1)

    shift_rows = []
    for m in m_values:
        pm = replace(problem, m=m)
        for qq in range(m_minus(m), q_max + 1):
            shift_rows.append([qq, m, first_order_shift(pm, basis, qq, refine=refine)])

    res = fgr_value(problem, basis, q, refine=refine)
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
    return tables, {"lambda": res.lam, "flagged": res.flagged}


def _resonance_branch(cfg, problem, basis):
    import numpy as np

    from .resonance import ResonanceResult, continue_in_kappa

    q = cfg.get_int("problem.q", 1)
    kmax = cfg.get_float("task.kappa_max", 0.08, positive=True)
    steps = cfg.get_int("task.kappa_steps", 9, positive=True)
    theta = 1j * cfg.get_float("task.im_theta", 0.3, positive=True)
    grid_k = np.linspace(0.0, kmax, steps)
    coarse = continue_in_kappa(problem, basis, theta, q, grid_k)
    fine = continue_in_kappa(problem, basis.refined(), theta, q, grid_k)
    branch = [
        ResonanceResult(c.kappa, (4.0 * f.w - c.w) / 3.0, max(c.residual, f.residual),
                        c.iterations + f.iterations, c.theta_used)
        for c, f in zip(coarse, fine)
    ]
    return q, branch


def _run_resonance(cfg):
    from .fgr import fgr_value
    from .resonance import fit_expansion

    _require_task(cfg, "resonance")
    problem = _build_problem(cfg)
    basis = _build_basis(cfg)
    q, branch = _resonance_branch(cfg, problem, basis)
    fit = fit_expansion(branch)
    res = fgr_value(problem, basis, q)

    rows = [[r.kappa, r.w.real, r.w.imag, r.residual, r.iterations] for r in branch]
    c1_rel = abs(fit.c1 - res.first_order) / abs(res.first_order)
    imc2_rel = abs(fit.c2.imag + res.im_from_channels) / res.im_from_channels
    fit_rows = [[
        fit.c0.real, fit.c0.imag, fit.c1.real, fit.c1.imag, fit.c2.real, fit.c2.imag,
        fit.fit_residual, fit.degree, fit.kappa_window[0], fit.kappa_window[1],
        res.first_order, res.im_from_channels, c1_rel, imc2_rel,
    ]]
    tables = {
        "branch": (["kappa", "re_w", "im_w", "residual", "iterations"], rows),
        "fit": (["c0_re", "c0_im", "c1_re", "c1_im", "c2_re", "c2_im",
                 "fit_residual", "degree", "kappa_min", "kappa_max",
                 "first_order_quadrature", "im_F_channels",
                 "c1_rel_disagreement", "im_c2_rel_disagreement"], fit_rows),
    }
    diag = {"fit_degree": fit.degree, "c1_rel": c1_rel, "im_c2_rel": imc2_rel}
    return tables, diag


def _run_dynamics(cfg):
    import numpy as np

    from .dynamics import autocorrelation, default_fit_window, default_times, fit_decay
    from .fgr import fgr_value

    _require_task(cfg, "dynamics")
    problem = _build_problem(cfg)
    basis = _build_basis(cfg)
    q = cfg.get_int("problem.q", 1)
    kappas = cfg.get_floats("task.kappa_values", required=True)
    delta_window = cfg.get_float("task.delta_window", 0.25, positive=True)
    theta = 1j * cfg.get_float("task.im_theta", 0.3, positive=True)
    method = cfg.get_str("task.method", "resolvent")

    res = fgr_value(problem, basis, q)
    imf = res.im_from_channels
    tables = {}
    fit_rows = []
    for kappa in kappas:
        gamma_est = 2.0 * kappa**2 * imf
        t0, t1 = default_fit_window(delta_window, gamma_est)
        times = default_times(t1)
        ser = autocorrelation(problem, basis, q, float(kappa), times, delta_window,
                              method=method, theta=theta)
        fit = fit_decay(ser, (t0, t1))
        tag = f"{kappa:g}".replace(".", "p").replace("-", "m")
        tables[f"series_kappa_{tag}"] = (
            ["t", "re_v", "im_v", "abs_v"],
            [[t, v.real, v.imag, abs(v)]
             for t, v in zip(ser.times[::17], ser.values[::17])],
        )
        fit_rows.append([kappa, fit.gamma, gamma_est,
                         fit.gamma / gamma_est if gamma_est > 0 else math.inf,
                         fit.a.real, fit.a.imag, abs(fit.a - 1) / kappa**2
                         if kappa else 0.0, fit.omega, fit.background_norm, t0, t1])
    tables["decay_fits"] = (
        ["kappa", "gamma", "golden_rule_rate", "rate_ratio", "re_a", "im_a",
         "abs_a_minus_1_over_k2", "omega", "background_norm", "t_fit_lo", "t_fit_hi"],
        fit_rows,
    )
    return tables, {"im_F": imf, "method": method}


def _toeplitz_profile(cfg, problem, basis):
    from .errors import ConfigError
    from .schrodinger1d import bound_states
    from .toeplitz_ssf import transverse_profile

    source = cfg.get_str("task.source", "derived")
    if source == "derived":
        st = bound_states(problem.v0, basis.grid)[0]
        return transverse_profile(problem.V, st, problem.b)
    raise ConfigError(f"unknown profile source {source!r}")


def _run_toeplitz(cfg):
    import numpy as np

    from .toeplitz_ssf import (CountingFunction, law_convergence_report,
                               toeplitz_eigenvalues)

    _require_task(cfg, "toeplitz")
    problem = _build_problem(cfg)
    basis = _build_basis(cfg)
    q = cfg.get_int("task.q", 0)
    eta_min = cfg.get_float("task.eta_min", 1e-8, positive=True)
    eta_max = cfg.get_float("task.eta_max", 1e-3, positive=True)
    eta_points = cfg.get_int("task.eta_points", 21, positive=True)

    profile = _toeplitz_profile(cfg, problem, basis)
    spec = toeplitz_eigenvalues(profile, q, eta_min=eta_min)
    cf = CountingFunction(spec)
    spec_rows = [[int(m), float(v)] for m, v in zip(spec.ms, spec.eigenvalues)]
    etas = np.geomspace(eta_min, eta_max, eta_points)
    law_rows = []
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


def _run_gap(cfg):
    import numpy as np

    from .schrodinger1d import bound_states
    from .toeplitz_ssf import gap_accumulation_check, toeplitz_eigenvalues, \
        transverse_profile

    _require_task(cfg, "gap")
    problem = _build_problem(cfg)
    basis = _build_basis(cfg)
    sign = cfg.get_str("task.sign", "-")
    eps = cfg.get_float("task.eps", 0.1, positive=True)
    fracs = cfg.get_floats("task.eta_fractions", [0.1, 0.04, 0.01])

    st = bound_states(problem.v0, basis.grid)[0]
    profile = transverse_profile(problem.V, st, problem.b)
    top = float(toeplitz_eigenvalues(profile, 0, m_max=12).eigenvalues.max())
    etas = [top * f for f in fracs]
    rep = gap_accumulation_check(problem, basis, sign, etas, eps=eps, state=st,
                                 profile=profile)
    rows = [[r["eta"], r["count"], r["n_plus_lower"], r["n_plus_upper"], r["slack"]]
            for r in rep.rows]
    tables = {"gap": (["eta", "count", "n_plus_lower", "n_plus_upper", "slack"], rows)}
    diag = {"m_used": rep.m_used, "lambda": rep.lam, "sign": sign,
            "inertia_sweeps": rep.inertia_sweeps,
            "inertia_shifts": rep.inertia_shifts,
            "eig_banded_fallbacks": rep.eig_banded_fallbacks}
    return tables, diag


def _run_mourre(cfg):
    from .operators import mourre_quantity

    _require_task(cfg, "mourre")
    problem = _build_problem(cfg)
    basis = _build_basis(cfg)
    q = cfg.get_int("problem.q", 1)
    delta = cfg.get_float("task.delta", 0.1, positive=True)
    val = mourre_quantity(problem, basis, q, delta)
    tables = {"mourre": (["q", "delta", "value"], [[q, delta, val]])}
    return tables, {"positive": val > 0}


def _run_all(cfg):
    tables = {}
    diags = {}
    for name, runner in (("bound", _run_bound), ("fgr", _run_fgr),
                         ("resonance", _run_resonance), ("toeplitz", _run_toeplitz)):
        sub_tables, sub_diag = runner(cfg)
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

# keys every runner may ignore without tripping the unknown-key check
_COMMON_KEYS = (
    "problem.b", "problem.m", "problem.q",
    "problem.v0.family", "problem.v0.depth", "problem.v0.half_width",
    "problem.V.family", "problem.V.amplitude", "problem.V.rho_rate",
    "problem.V.x3_rate", "problem.V.alpha", "problem.V.radius",
    "numerics.x_min", "numerics.x_max", "numerics.n", "numerics.J",
    "numerics.quad_nodes",
)


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
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
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

    from .errors import ConfigError, DomainError, LandauError

    started = time.monotonic()
    try:
        cfg = Config.load(args.config)
        for key in _COMMON_KEYS:
            if cfg.has(key):
                cfg.raw(key)
        tables, diagnostics = _RUNNERS[args.subcommand](cfg)
        cfg.check_all_consumed()
    except (ConfigError, DomainError) as exc:
        print(f"landau: config error: {exc}", file=sys.stderr)
        return 2
    except LandauError as exc:
        print(f"landau: computation failed: {exc}", file=sys.stderr)
        try:
            os.makedirs(args.out if not args.out.endswith(".json")
                        else os.path.dirname(args.out) or ".", exist_ok=True)
            diag_path = os.path.join(
                args.out if not args.out.endswith(".json")
                else os.path.dirname(args.out) or ".",
                f"{args.subcommand}_diagnostics.txt",
            )
            with open(diag_path, "w", encoding="utf-8") as fh:
                fh.write(f"{type(exc).__name__}: {exc}\n")
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
    if args.format == "csv":
        written = _write_csv_tables(args.out, args.subcommand, tables, record)
    else:
        written = _write_json(args.out, args.subcommand, tables, record)
    elapsed = time.monotonic() - started
    print(f"landau: {args.subcommand} wrote {len(written)} file(s) "
          f"in {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
