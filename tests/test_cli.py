import dataclasses
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau
from landau import (cli, dynamics, fgr, operators, potentials, resonance,
                    schrodinger1d, toeplitz_ssf)
from landau.cli import Config, main
from landau.errors import AccuracyError, ConfigError, DomainError

BOUND_CFG = """
# longitudinal reference
problem.v0.family = sech2
problem.v0.depth = 2.0
numerics.x_min = -20.0
numerics.x_max = 20.0
numerics.n = 2001
task.k_values = 0.5, 1.0, 2.0
"""

RES_CFG = """
problem.b = 1.0
problem.m = 0
problem.q = 1
problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = 601
numerics.J = 5
task.kappa_max = 0.06
task.kappa_steps = 7
task.im_theta = 0.3
"""

TOEPLITZ_CFG = """
problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = 801
task.q = 0
task.eta_min = 1e-7
task.eta_max = 1e-3
task.eta_points = 9
"""

MOURRE_CFG = """
problem.v0.family = sech2
problem.V.family = gaussian_product
problem.q = 1
numerics.n = 801
numerics.J = 4
task.delta = 0.1
"""

GAP_CFG = """
problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = 601
numerics.J = 4
task.sign = -
task.eta_fractions = 0.1, 0.02
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_bound_csv_output(tmp_path):
    cfg = _write(tmp_path, BOUND_CFG)
    out = tmp_path / "out"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    states = (out / "bound_bound_states.csv").read_text().splitlines()
    assert states[0] == "index,lambda,lambda_richardson"
    lam_r = float(states[1].split(",")[2])
    assert abs(lam_r + 1.0) < 1e-6
    scat = (out / "bound_scattering.csv").read_text().splitlines()
    for line in scat[1:]:
        assert float(line.split(",")[7]) < 1e-6  # flux defect column
    manifest = json.loads((out / "bound_manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["config_echo"]["problem.v0.family"] == "sech2"


def test_bound_json_output(tmp_path):
    cfg = _write(tmp_path, BOUND_CFG)
    out = tmp_path / "outj"
    assert main(["bound", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "bound.json").read_text())
    cols = doc["tables"]["scattering"]["columns"]
    assert cols[0] == "k"
    rows = doc["tables"]["scattering"]["rows"]
    assert len(rows) == 3


def test_determinism_bitwise(tmp_path):
    cfg = _write(tmp_path, BOUND_CFG)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["bound", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["bound", "--config", cfg, "--out", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_json_round_trip_reproduces_comparisons(tmp_path):
    cfg = _write(tmp_path, RES_CFG)
    out = tmp_path / "res"
    assert main(["resonance", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads((out / "resonance.json").read_text())
    fit = dict(zip(doc["tables"]["fit"]["columns"], doc["tables"]["fit"]["rows"][0]))
    # re-derive the echoed comparison from the raw ingredients in the document
    c1 = fit["c1_re"] + 1j * fit["c1_im"]
    redone = abs(c1 - fit["first_order_quadrature"]) / abs(
        fit["first_order_quadrature"]
    )
    assert redone == pytest.approx(fit["c1_rel_disagreement"], rel=1e-12)
    branch = doc["tables"]["branch"]["rows"]
    assert branch[0][0] == 0.0
    # Im w below the axis, up to the small-demo grid's extrapolation residual
    assert all(row[2] <= 1e-6 for row in branch)


def test_resonance_comparisons_pass(tmp_path):
    cfg = _write(tmp_path, RES_CFG)
    out = tmp_path / "res2"
    assert main(["resonance", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads((out / "resonance.json").read_text())
    diag = doc["diagnostics"]
    assert diag["c1_rel"] < 1e-3
    assert diag["im_c2_rel"] < 0.1


ROOT = Path(__file__).resolve().parents[1]


def _run_fresh(subcommand, out, threads, module):
    """``landau <subcommand>`` on its shipped config in a fresh interpreter, so
    that ``--threads`` applies before numpy loads; returns the exit code and
    whether ``module`` was loaded.  OpenSSL (``_hashlib``) must never load:
    the experiment ID comes from CPython's built-in SHA-256."""
    code = ("import sys\nfrom landau.cli import main\n"
            f"rc = main([{subcommand!r}, '--config', "
            f"{str(ROOT / 'configs' / f'{subcommand}.cfg')!r}, "
            f"'--out', {str(out)!r}, '--threads', {str(threads)!r}])\n"
            f"print(rc, {module!r} in sys.modules, '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(landau.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    rc, loaded, openssl = done.stdout.split()
    assert openssl == "False"
    return int(rc), loaded == "True"


def test_gap_run_does_not_import_scipy_optimize(tmp_path):
    # nothing on the gap path fits or minimises: the profile's decay class is
    # declared by its V family
    assert _run_fresh("gap", tmp_path / "gap", 1, "scipy.optimize") == (0, False)


def test_package_imports_no_scipy_special():
    # ln m! is math.lgamma, and LAPACK comes from landau.lapack, not through
    # scipy.linalg's package init; the benchmark's layer modules are the
    # import set every subcommand can reach
    code = ("import importlib, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
            "from layers import MODULES\n"
            "import landau.cli, landau.specfun\n"
            "for name in MODULES:\n"
            "    importlib.import_module('landau.' + name)\n"
            "print('scipy.special' in sys.modules, 'scipy.linalg' in sys.modules,\n"
            "      '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(landau.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["False", "False", "False"]


@settings(max_examples=60, deadline=None)
@given(st.text())
def test_experiment_id_is_the_hashlib_sha256_prefix(text):
    # the built-in SHA-256 gives hashlib's digest: the IDs are hashlib's
    import hashlib

    assert cli._sha256_id(text) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_gap_run_does_not_import_scipy_linalg(tmp_path):
    assert _run_fresh("gap", tmp_path / "gap", 1, "scipy.linalg") == (0, False)


def test_dynamics_run_does_not_import_numpy_ma(tmp_path):
    # numpy.ma comes in with np.unique; the sample times are increasing already
    assert _run_fresh("dynamics", tmp_path / "dyn", 1, "numpy.ma") == (0, False)


def test_benchmark_layer_names_resolve(monkeypatch):
    # the traced benchmark wraps these by name with getattr and no default, so a
    # deleted or renamed one would fail only there
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from layers import BINDINGS, FUNCTIONS

    for module, attr in [*FUNCTIONS.values(), *BINDINGS.values()]:
        getattr(importlib.import_module(f"landau.{module}"), attr)


def test_fgr_run_does_not_import_scipy_sparse(tmp_path):
    # the resolvent route's solves are LAPACK's tridiagonal ones (landau.lapack)
    assert _run_fresh("fgr", tmp_path / "fgr", 1, "scipy.sparse") == (0, False)


def _assert_same_bytes(outs):
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_fgr_output_independent_of_thread_count(tmp_path):
    # the solves are short tridiagonal ones; no BLAS reduction splits by thread
    outs = [tmp_path / f"threads{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert _run_fresh("fgr", out, n, "scipy.sparse") == (0, False)
    _assert_same_bytes(outs)


@pytest.mark.parametrize("subcommand", ["resonance", "dynamics", "all"])
def test_complex_scaled_output_independent_of_thread_count(subcommand, tmp_path):
    # the inverse iterations' long dot products and norms are numutil's
    # pairwise sums, which BLAS threads cannot reorder
    outs = [tmp_path / f"threads{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert _run_fresh(subcommand, out, n, "scipy.sparse")[0] == 0
    _assert_same_bytes(outs)


@pytest.mark.parametrize("subcommand", ["bound", "toeplitz", "mourre"])
def test_real_output_independent_of_thread_count(subcommand, tmp_path):
    # tridiagonal solves and eigensolves, Jost marching and small products:
    # nothing a BLAS thread count could reorder
    outs = [tmp_path / f"threads{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert _run_fresh(subcommand, out, n, "scipy.sparse") == (0, False)
    _assert_same_bytes(outs)


def test_gap_output_independent_of_thread_count(tmp_path):
    # the counts are integers, and the sweep's certificate and inverses act on
    # 6 x 6 blocks, too small for a BLAS call to split them by thread
    outs = [tmp_path / f"threads{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert _run_fresh("gap", out, n, "scipy.optimize") == (0, False)
    _assert_same_bytes(outs)


def test_toeplitz_run(tmp_path):
    cfg = _write(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "toe"
    assert main(["toeplitz", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads((out / "toeplitz.json").read_text())
    assert doc["diagnostics"]["decay_class"] == "ExponentialDecay"
    # at large eta only a handful of modes count: the staircase dominates
    # there; the asymptotic gate is the last-decade mean
    assert 0.9 < doc["diagnostics"]["last_decade_mean"] < 1.1
    ratios = [row[3] for row in doc["tables"]["counting"]["rows"]]
    assert all(0.5 < r < 1.5 for r in ratios)


@pytest.mark.parametrize("change", [
    ("task.eta_points = 9", "task.eta_points = 1"),
    ("task.eta_max = 1e-3", "task.eta_max = 1e-7"),
], ids=["one_point", "eta_min_equals_eta_max"])
def test_toeplitz_single_eta_slope_is_nan(tmp_path, change):
    # a line through one distinct eta has no slope
    cfg = _write(tmp_path, TOEPLITZ_CFG.replace(*change))
    out = tmp_path / "toe"
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        assert main(["toeplitz", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
    diag = json.loads((out / "toeplitz.json").read_text())["diagnostics"]
    assert math.isnan(diag["slope"])
    assert math.isfinite(diag["last_decade_mean"])


def test_toeplitz_compact_support_inside_first_sample(tmp_path):
    # compact_radial with R = 0.1 vanishes beyond every radius a tail fit
    # sampled from rho = 0.2 on; the family's declared class still gives the
    # compact law
    text = (ROOT / "configs" / "toeplitz.cfg").read_text()
    cfg = _write(tmp_path, text.replace("gaussian_product", "compact_radial")
                 .replace("task.eta_min = 1e-8", "task.eta_min = 1e-6")
                 + "problem.V.radius = 0.1\n")
    out = tmp_path / "toe"
    assert main(["toeplitz", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "toeplitz.json").read_text())
    assert doc["diagnostics"]["decay_class"] == "CompactSupport"
    preds = [row[2] for row in doc["tables"]["counting"]["rows"]]
    assert preds and all(math.isfinite(p) and p > 0 for p in preds)


def test_toeplitz_power_law_out_of_reach_exit_2(tmp_path, monkeypatch, capsys):
    # a power-law profile cannot fall to eta_min/10 = 1e-9 within the m cap;
    # the run is refused before any eigenvalue is computed
    def computed(*args, **kwargs):
        raise AssertionError("an eigenvalue was computed")

    monkeypatch.setattr(toeplitz_ssf, "toeplitz_eigenvalue", computed)
    cfg = _write(tmp_path, TOEPLITZ_CFG.replace("gaussian_product", "power_radial")
                 .replace("eta_min = 1e-7", "eta_min = 1e-8"))
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "m cap" in capsys.readouterr().err


def test_toeplitz_power_law_just_out_of_reach_exit_2(tmp_path, monkeypatch, capsys):
    # the shipped config with a power-law V and eta_min = 1e-7: the eigenvalue
    # at the m cap is about 1.56e-8, within 0.1% of its estimate, above
    # eta_min/10 = 1e-8, so the scan could only end at the cap; it is refused
    def computed(*args, **kwargs):
        raise AssertionError("an eigenvalue was computed")

    monkeypatch.setattr(toeplitz_ssf, "toeplitz_eigenvalue", computed)
    text = (ROOT / "configs" / "toeplitz.cfg").read_text()
    cfg = _write(tmp_path, text.replace("gaussian_product", "power_radial")
                 .replace("task.eta_min = 1e-8", "task.eta_min = 1e-7"))
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "m cap" in capsys.readouterr().err


def test_mourre_run(tmp_path):
    cfg = _write(tmp_path, MOURRE_CFG)
    out = tmp_path / "mou"
    assert main(["mourre", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads((out / "mourre.json").read_text())
    assert doc["diagnostics"]["positive"] in (True, False)


def test_gap_run(tmp_path):
    cfg = _write(tmp_path, GAP_CFG)
    out = tmp_path / "gap"
    assert main(["gap", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "gap.json").read_text())
    rows = doc["tables"]["gap"]["rows"]
    assert all(row[4] <= 3 for row in rows)  # slack column


@pytest.mark.parametrize("eps", ["1", "1.5"])
def test_gap_eps_outside_unit_interval_exit_2(tmp_path, monkeypatch, capsys, eps):
    # the count is sandwiched between n_+((1 +- eps) eta), void unless eps < 1;
    # the run is refused before any m block is assembled
    assembled = _counting(monkeypatch, toeplitz_ssf, "assemble")
    cfg = _write(tmp_path, GAP_CFG + f"task.eps = {eps}\n")
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "eps must lie in (0, 1)" in capsys.readouterr().err
    assert assembled == []


def test_unknown_key_exit_2(tmp_path):
    cfg = _write(tmp_path, BOUND_CFG + "\nwrong.key = 1\n")
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_quad_nodes_is_an_unknown_key_exit_2(tmp_path, capsys):
    # the radial rule has no size knob; a config that sets one is refused
    cfg = _write(tmp_path, FGR_CFG + "numerics.quad_nodes = 60\ntask.q_max = 1\n")
    assert main(["fgr", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "config error: line 5: unknown key 'numerics.quad_nodes'" in (
        capsys.readouterr().err)


def test_empty_task_exit_2(tmp_path):
    cfg = _write(tmp_path, "problem.v0.family = sech2\n")
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_malformed_line_exit_2(tmp_path):
    cfg = _write(tmp_path, "problem.v0.family sech2\n")
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_missing_config_exit_2(tmp_path):
    assert main(["bound", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("subcommand", ["dynamics", "toeplitz", "gap"])
def test_no_bound_state_exit_2(tmp_path, capsys, subcommand):
    cfg = _write(tmp_path, "problem.v0.family = zero\nproblem.V.family = "
                 "gaussian_product\nnumerics.n = 301\nnumerics.J = 3\n"
                 "task.kappa_values = 0.05\n")
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "no bound state" in capsys.readouterr().err


FGR_CFG = """problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = 601
numerics.J = 4
"""


@pytest.mark.parametrize("m_values", ["0.5, 1.7", "0, nan", "1, inf"])
def test_fgr_non_integer_m_values_exit_2(tmp_path, capsys, m_values):
    cfg = _write(tmp_path, FGR_CFG + f"task.m_values = {m_values}\n")
    assert main(["fgr", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error: line 5: 'task.m_values' must be a list of integers" in err


def test_fgr_negative_refine_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, FGR_CFG + "task.refine = -1\n")
    assert main(["fgr", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "config error: refine must be >= 0" in capsys.readouterr().err


def test_fgr_refine_above_one_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, FGR_CFG + "task.refine = 2\n")
    assert main(["fgr", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "config error: refine must be" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,text,key,value", [
    ("bound", BOUND_CFG, "task.k_values", "inf"),
    ("bound", BOUND_CFG, "numerics.x_max", "inf"),
    ("bound", BOUND_CFG, "problem.b", "inf"),
    ("gap", GAP_CFG, "task.eta_fractions", "inf"),
    ("gap", GAP_CFG, "task.eta_fractions", "nan"),
], ids=["bound-k_values", "bound-x_max", "bound-b", "gap-eta_inf", "gap-eta_nan"])
def test_non_finite_config_number_exit_2(tmp_path, capsys, subcommand, text, key, value):
    lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
    cfg = _write(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "x"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: line {len(lines) + 1}: {key!r} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["run", "run/mourre.json"])
def test_computation_failure_exit_1(tmp_path, monkeypatch, out):
    def fail(*args, **kwargs):
        raise AccuracyError("forced failure")

    monkeypatch.setattr(operators, "mourre_quantity", fail)
    cfg = _write(tmp_path, MOURRE_CFG)
    assert main(["mourre", "--config", cfg, "--out", str(tmp_path / out)]) == 1
    diag = tmp_path / "run" / "mourre_diagnostics.txt"
    assert diag.read_text() == "AccuracyError: forced failure\n"


@pytest.mark.parametrize("fmt, out", [("csv", "taken"), ("json", "taken/mourre.json")])
def test_unwritable_out_exit_2(tmp_path, capsys, fmt, out):
    # an existing file where the csv folder goes, or the json file's folder
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    cfg = _write(tmp_path, MOURRE_CFG)
    assert main(["mourre", "--config", cfg, "--out", str(tmp_path / out),
                 "--format", fmt]) == 2
    assert "landau: cannot write output: " in capsys.readouterr().err
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "taken"]


def test_unexpected_runner_exception_exit_1(tmp_path, monkeypatch, capsys):
    # an exception outside landau's own hierarchy is a computation failure too
    def fail(run):
        raise np.linalg.LinAlgError("forced singular matrix")

    monkeypatch.setitem(cli._RUNNERS, "bound", fail)
    cfg = _write(tmp_path, BOUND_CFG)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    diag = (tmp_path / "run" / "bound_diagnostics.txt").read_text().splitlines()
    assert diag[0] == "LinAlgError: forced singular matrix"
    assert diag[1] == "Traceback (most recent call last):"
    assert "LinAlgError" in capsys.readouterr().err


def test_bad_subcommand_usage(tmp_path):
    assert main(["frobnicate", "--config", "x", "--out", "y"]) == 2


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDAU_THREADS", "2")
    cfg = _write(tmp_path, BOUND_CFG)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    monkeypatch.setenv("LANDAU_THREADS", "zebra")
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "t2")]) == 2


ALL_CFG = """
problem.b = 1.0
problem.m = 0
problem.q = 1
problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = 601
numerics.J = 5
task.k_values = 0.5, 1.0
task.kappa_max = 0.06
task.kappa_steps = 7
task.im_theta = 0.3
task.q_max = 1
task.m_values = 0
task.refine = 1
task.q = 0
task.eta_min = 1e-6
task.eta_max = 1e-3
task.eta_points = 7
"""

DYN_CFG = """
problem.b = 1.0
problem.m = 0
problem.q = 1
problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = 601
numerics.J = 5
task.kappa_values = 0.05
task.delta_window = 0.25
task.im_theta = 0.3
task.method = resolvent
"""


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a pass-through that records its calls."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_all_subcommand(tmp_path, monkeypatch):
    cfg = _write(tmp_path, ALL_CFG)
    out = tmp_path / "all"
    calls = _counting(monkeypatch, fgr, "fgr_value")
    assert main(["all", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    # the fgr and resonance tables share one golden-rule computation
    assert len(calls) == 1
    doc = json.loads((out / "all.json").read_text())
    names = set(doc["tables"])
    assert {"bound_bound_states", "fgr_fgr", "resonance_branch",
            "toeplitz_counting"} <= names


@pytest.mark.parametrize("subcommand,text", [("fgr", FGR_CFG + "task.m_values = 0\n"),
                                             ("all", ALL_CFG), ("mourre", MOURRE_CFG)],
                         ids=["fgr", "all", "mourre"])
def test_q_outside_truncation_exit_2(tmp_path, capsys, subcommand, text):
    # J = 1 keeps only q = m_- = 0; the default q = 1 falls outside
    lines = [line for line in text.splitlines() if not line.startswith("numerics.J ")]
    cfg = _write(tmp_path, "\n".join(lines + ["numerics.J = 1"]) + "\n")
    out = tmp_path / "x"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "Landau index q=1 outside truncation 0..0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,text", [("resonance", RES_CFG), ("all", ALL_CFG)],
                         ids=["resonance", "all"])
@pytest.mark.parametrize("change,undefined", [
    # q = m_-: no open channel, so Im F = 0 but F itself is real and nonzero
    (("problem.q = 1", "problem.q = 0"), {"im_c2_rel"}),
    (("problem.b = 1.0", "problem.b = 1.0\nproblem.V.amplitude = 0"),
     {"c1_rel", "im_c2_rel", "re_c2_rel", "F_rel"}),
], ids=["no_open_channel", "zero_V"])
def test_resonance_zero_reference_reports_nan(tmp_path, subcommand, text, change,
                                               undefined):
    # a relative disagreement against an exact-zero reference is undefined
    cfg = _write(tmp_path, text.replace(*change))
    out = tmp_path / "res"
    assert main([subcommand, "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads((out / f"{subcommand}.json").read_text())
    diag = doc["diagnostics"]
    fit_table = doc["tables"]["fit" if subcommand == "resonance" else "resonance_fit"]
    if subcommand == "all":
        diag = diag["resonance"]
    fit = dict(zip(fit_table["columns"], fit_table["rows"][0]))
    for key, column in (("c1_rel", "c1_rel_disagreement"),
                        ("im_c2_rel", "im_c2_rel_disagreement"),
                        ("re_c2_rel", "re_c2_rel_disagreement"),
                        ("F_rel", "F_rel_disagreement")):
        assert np.isnan(diag[key]) == (key in undefined)
        assert np.isnan(fit[column]) == (key in undefined)


def test_resonance_short_branch_refused_before_continuation(tmp_path, monkeypatch,
                                                            capsys):
    calls = _counting(monkeypatch, resonance, "continue_in_kappa")
    cfg = _write(tmp_path, RES_CFG.replace("task.kappa_steps = 7",
                                           "task.kappa_steps = 4"))
    assert main(["resonance", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error: line 10: 'task.kappa_steps' must be at least" in err
    assert calls == []


def test_dynamics_subcommand(tmp_path, monkeypatch):
    cfg = _write(tmp_path, DYN_CFG)
    out = tmp_path / "dyn"
    resolvent = _counting(monkeypatch, fgr, "_resolvent_route")
    assert main(["dynamics", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    # the golden-rule rate needs only the channel route
    assert resolvent == []
    doc = json.loads((out / "dynamics.json").read_text())
    fits = dict(zip(doc["tables"]["decay_fits"]["columns"],
                    doc["tables"]["decay_fits"]["rows"][0]))
    assert abs(fits["rate_ratio"] - 1.0) < 0.10


@pytest.mark.parametrize("subcommand, text, grids", [
    ("fgr", FGR_CFG + "task.q_max = 2\ntask.m_values = -1, 0, 1\n", 2),
    ("dynamics", DYN_CFG.replace("kappa_values = 0.05", "kappa_values = 0.05, 0.08"),
     3),
    ("fgr", FGR_CFG + "task.q_max = 2\ntask.m_values = -1, 0, 1\ntask.refine = 0\n", 1),
], ids=["fgr", "dynamics", "fgr_refine0"])
def test_each_grid_bound_state_solved_once(tmp_path, monkeypatch, subcommand, text,
                                          grids):
    # fgr: the (h, h/2) states serve every first-order shift, channel and
    # resolvent route; dynamics: the (h, h/2, h/4) states serve every kappa;
    # fgr with refine = 0 never reads the h/2 grid
    calls = _counting(monkeypatch, schrodinger1d, "bound_states")
    cfg = _write(tmp_path, text)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 0
    assert sorted(args[1].n for args in calls) == [600 * 2**k + 1 for k in range(grids)]


def test_dynamics_contracts_each_pole_grid_coupling_once(tmp_path, monkeypatch):
    # the pole grids (h, h/2, h/4) go one at a time, each holding its dilated
    # coupling across the kappas: three kappas contract each grid's once (9
    # when every kappa contracted its own), and no other dilated coupling is
    # alive when one is stored; each is the even sector's x3 >= 0 half
    stored = []

    class Counting(weakref.WeakValueDictionary):
        def __setitem__(self, key, value):
            alive = [k for k in list(self.keys()) if k[2].imag]
            stored.append((key, alive))
            super().__setitem__(key, value)

    monkeypatch.setattr(operators, "_COUPLINGS", Counting())
    assert main(["dynamics", "--config", str(ROOT / "configs" / "dynamics.cfg"),
                 "--out", str(tmp_path / "dyn")]) == 0
    dilated = [(basis.grid.n, half, alive) for (_, basis, theta, half), alive in stored
               if theta.imag]
    assert dilated == [(2401, True, []), (4801, True, []), (1201, True, [])]


def test_dynamics_solves_each_grid_embedded_state_once(tmp_path, monkeypatch):
    # the base grid's embedded state is held across the kappas, as its
    # coupling is: one dilated bound vector per grid, and the bytes of a run
    # that solves the state afresh for every pole
    cfg = str(ROOT / "configs" / "dynamics.cfg")
    solved = _counting(monkeypatch, dynamics, "dilated_bound_vector")
    assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "held")]) == 0
    assert sorted(args[1].grid.n for args in solved) == [1201, 2401, 4801]

    pole = dynamics._dilated_pole
    monkeypatch.setattr(dynamics, "_dilated_pole",
                        lambda *args, state=None: pole(*args[:5]))
    solved.clear()
    assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "fresh")]) == 0
    assert len(solved) == 9  # three kappas on three grids
    _assert_same_bytes([tmp_path / "held", tmp_path / "fresh"])


def test_dynamics_uncertified_surrogate_exit_1(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "_SURROGATE_START", 3)
    monkeypatch.setattr(dynamics, "_SURROGATE_TOP", 3)
    cfg = _write(tmp_path, DYN_CFG)
    assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "dyn")]) == 1
    diag = (tmp_path / "dyn" / "dynamics_diagnostics.txt").read_text()
    assert diag.startswith("AccuracyError: kappa = 0.05: resolvent surrogate not "
                           "certified")


@pytest.mark.parametrize("kappas", ["0", "0.05, 0", "-0.0"])
def test_dynamics_zero_coupling_exit_2(tmp_path, monkeypatch, capsys, kappas):
    # kappa = 0 has no decay to fit; it is refused before any golden-rule work
    calls = _counting(monkeypatch, fgr, "channel_amplitudes")
    cfg = _write(tmp_path, DYN_CFG.replace("task.kappa_values = 0.05",
                                           f"task.kappa_values = {kappas}"))
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: line 9: 'task.kappa_values' must be nonzero" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("subcommand,text,key", [
    ("dynamics", DYN_CFG, "task.kappa_values"),
    ("bound", BOUND_CFG, "task.k_values"),
    ("fgr", FGR_CFG, "task.m_values"),
    ("gap", GAP_CFG, "task.eta_fractions"),
], ids=["dynamics-kappa_values", "bound-k_values", "fgr-m_values", "gap-eta_fractions"])
def test_list_key_with_no_values_exit_2(tmp_path, capsys, subcommand, text, key):
    # "," parses to no values: refused at its line, not run on an empty list
    lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
    cfg = _write(tmp_path, "\n".join(lines + [f"{key} = ,"]) + "\n")
    out = tmp_path / "x"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: line {len(lines) + 1}: {key!r} lists no values" in err
    assert not out.exists()


def test_dynamics_method_other_than_resolvent_exit_2(tmp_path, monkeypatch, capsys):
    # the exact-truncation series cannot reach the fit window (its recurrence
    # horizon is 17.4 on the reference box at J = 3, the window opens at 20):
    # refused before any golden-rule work
    calls = _counting(monkeypatch, fgr, "channel_amplitudes")
    text = (ROOT / "configs" / "dynamics.cfg").read_text()
    cfg = _write(tmp_path, text.replace("task.method = resolvent", "task.method = eigh"))
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: line 11: 'task.method' must be resolvent, got 'eigh'" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("subcommand,text", [
    ("fgr", FGR_CFG + "problem.b = 0.4\ntask.m_values = 0\n"),
    ("dynamics", DYN_CFG.replace("problem.b = 1.0", "problem.b = 0.4")),
    ("resonance", RES_CFG.replace("problem.b = 1.0", "problem.b = 0.4")),
], ids=["fgr", "dynamics", "resonance"])
def test_bound_band_below_minus_2b_exit_2(tmp_path, capsys, subcommand, text):
    # lambda = -1 at depth 2 lies below -2b = -0.8: the closed channel would
    # reach the scattering states, so every golden-rule run refuses it as
    # assemble does
    out = tmp_path / "x"
    assert main([subcommand, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: inf spec(H_par) = -1.0" in err
    assert "<= -2b = -0.8" in err
    assert not out.exists()


def test_dynamics_three_couplings_background_decays(tmp_path):
    # a direct energy scan that subtracts the pole from sampled G (of size
    # 1/|Im w| near the pole) leaves the solves' noise in the background; for
    # these couplings its tail at the time cap read 1.02e-9 > 1e-9 (exit 1)
    text = DYN_CFG.replace("numerics.n = 601", "numerics.n = 1201").replace(
        "numerics.J = 5", "numerics.J = 7").replace(
        "task.kappa_values = 0.05", "task.kappa_values = 0.02397, 0.04322, 0.07743")
    cfg = _write(tmp_path, text)
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "dynamics_manifest.json").read_text())
    counters = manifest["diagnostics"]["resolvent_surrogate"]
    assert [c["kappa"] for c in counters] == [0.02397, 0.04322, 0.07743]
    assert all(c["nodes"] == 9 and c["resolvent_solves"] == 17 for c in counters)
    assert all(0.0 < c["held_out_error"] < 1e-9 for c in counters)


# -- potentials from the family registries

POSITIVE_PARAMS = [
    ("v0", "sech2", "depth"),
    ("v0", "square_well", "depth"),
    ("v0", "square_well", "half_width"),
    ("V", "gaussian_product", "rho_rate"),
    ("V", "gaussian_product", "x3_rate"),
    ("V", "power_radial", "alpha"),
    ("V", "power_radial", "x3_rate"),
    ("V", "compact_radial", "radius"),
    ("V", "compact_radial", "x3_rate"),
]

REGISTRIES = {"v0": potentials.V0_FAMILIES, "V": potentials.V_FAMILIES}


def _config(text):
    entries = {}
    for lineno, line in enumerate(text.strip().splitlines(), start=1):
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = (value, lineno)
    return Config(entries)


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("part,family,param", POSITIVE_PARAMS)
def test_family_rejects_non_positive(tmp_path, capsys, part, family, param, value):
    with pytest.raises(DomainError):
        REGISTRIES[part][family](**{param: float(value)})
    v0 = family if part == "v0" else "sech2"
    V = family if part == "V" else "gaussian_product"
    text = (f"problem.v0.family = {v0}\nproblem.V.family = {V}\n"
            f"problem.{part}.{param} = {value}\ntask.delta = 0.1\n")
    cfg = _write(tmp_path, text)
    capsys.readouterr()
    assert main(["mourre", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    family_line = 1 if part == "v0" else 2
    assert f"config error: line {family_line}: {family}: " in err
    assert param in err


def test_family_rejects_non_finite(tmp_path, capsys):
    # refused at the family line, before the family function sees the value
    cfg = _write(tmp_path, FGR_CFG + "problem.V.amplitude = inf\ntask.m_values = 0\n")
    assert main(["fgr", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error: line 2: gaussian_product: amplitude must be finite" in err


@pytest.mark.parametrize("part, param", [("V", "alpha"),  # power_radial's
                                         ("v0", "half_width")])  # square_well's
def test_parameter_of_another_family_is_an_unknown_key(tmp_path, capsys, part, param):
    text = BOUND_CFG + f"problem.V.family = gaussian_product\nproblem.{part}.{param} = 3\n"
    cfg = _write(tmp_path, text)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    line = len(text.splitlines())
    assert (f"config error: line {line}: unknown key 'problem.{part}.{param}'"
            in capsys.readouterr().err)


def test_unread_parameter_of_the_selected_family_is_accepted(tmp_path):
    # bound never builds V, yet a parameter of V's selected family is no error
    cfg = _write(tmp_path, BOUND_CFG + "problem.V.family = gaussian_product\n"
                 "problem.V.amplitude = 3\n")
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x")]) == 0


def _same_potential(part, a, b):
    rho = np.array([0.0, 0.3, 1.1, 2.5])
    x = np.array([-3.0, -0.6, 0.0, 0.8, 4.0])

    def sample(fn):
        return fn(x) if part == "v0" else fn(rho[:, None], x[None, :])

    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if callable(va):
            assert np.array_equal(sample(va), sample(vb)), field.name
        elif isinstance(va, tuple):
            assert len(va) == len(vb), field.name
            for fa, fb in zip(va, vb):  # derivatives, or the breaks of V
                if callable(fa):
                    assert np.array_equal(sample(fa), sample(fb)), field.name
                else:
                    assert fa == fb, field.name
        else:
            assert va == vb, field.name


@pytest.mark.parametrize("part,family", [(part, family)
                                         for part, reg in REGISTRIES.items()
                                         for family in reg])
def test_registry_builder_matches_direct_call(part, family):
    build = REGISTRIES[part][family]
    params = inspect.signature(build).parameters
    values = {name: 1.3 + 0.1 * i for i, name in enumerate(params)}
    assert all(values[name] != p.default for name, p in params.items())
    lines = [f"problem.{part}.family = {family}"]
    lines += [f"problem.{part}.{name} = {v!r}" for name, v in values.items()]
    cfg = _config("\n".join(lines))
    built = cli._build_potential(cfg, part)
    cfg.check_all_consumed()
    _same_potential(part, built, build(**values))


_FAMILY_NAMES = st.one_of(
    st.sampled_from(sorted(potentials.V0_FAMILIES) + sorted(potentials.V_FAMILIES)),
    st.text(max_size=8),
)
_PROBLEM_KEYS = sorted(
    {"problem.b", "problem.m"}
    | {f"problem.{part}.{name}" for part, reg in REGISTRIES.items()
       for build in reg.values() for name in inspect.signature(build).parameters}
)
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str),
    st.text(max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(v0=_FAMILY_NAMES, V=_FAMILY_NAMES,
       values=st.dictionaries(st.sampled_from(_PROBLEM_KEYS), _NUMBERS))
def test_problem_builds_or_reports_input_error(v0, V, values):
    entries = {"problem.v0.family": (v0, 1), "problem.V.family": (V, 2)}
    for lineno, (key, value) in enumerate(sorted(values.items()), start=3):
        entries[key] = (value, lineno)
    try:
        problem = cli._Run(Config(entries)).problem
    except (ConfigError, DomainError):
        return
    assert problem.b > 0


# -- the exit-code contract under junk input

JUNK_VALUES = ("nan", "inf", "-1", "0", "abc", "1,,2", "1.5", "sech2")


def _shipped_lines(name):
    return [line for line in (ROOT / "configs" / f"{name}.cfg").read_text()
            .splitlines() if line.split("#", 1)[0].strip()]


def _small_lines(subcommand):
    """The shipped config at n = 201, J = 3."""
    lines = _shipped_lines(subcommand)
    small = {"numerics.n": "201", "numerics.J": "3"}
    keys = [line.split("=", 1)[0].strip() for line in lines]
    return [f"{key} = {small[key]}" if key in small else line
            for key, line in zip(keys, lines)]


def _check_exit_contract(subcommand, lines, pick, junk, unknown_key):
    """``landau <subcommand>`` on ``lines`` with one value replaced by ``junk``
    (or an unknown key added) exits 0, 1 or 2, and exit 1 leaves its
    diagnostics file."""
    lines = list(lines)
    if unknown_key:
        lines.append(f"task.fuzzed = {junk}")
    else:
        key = lines[pick % len(lines)].split("=", 1)[0].strip()
        lines[pick % len(lines)] = f"{key} = {junk}"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "out")
        code = main([subcommand, "--config", cfg, "--out", out])
        assert code in (0, 1, 2)
        if code == 1:
            assert os.path.isfile(os.path.join(out, f"{subcommand}_diagnostics.txt"))


@settings(max_examples=30, deadline=None)
@given(subcommand=st.sampled_from(["bound", "fgr", "toeplitz", "gap", "mourre"]),
       pick=st.integers(0, 15), junk=st.sampled_from(JUNK_VALUES),
       unknown_key=st.booleans())
def test_junk_in_shipped_config_exits_0_1_or_2(subcommand, pick, junk, unknown_key):
    # one value of a shipped config replaced by junk (non-finite, non-positive,
    # unparsable, a list where a number goes, a float where an int goes, a
    # family name where a number goes), or an unknown key added; every junk
    # value is at most the shipped sizes
    _check_exit_contract(subcommand, _shipped_lines(subcommand), pick, junk, unknown_key)


@pytest.mark.parametrize("subcommand", ["resonance", "dynamics", "all"])
@settings(max_examples=10, deadline=None)
@given(pick=st.integers(0, 20), junk=st.sampled_from(JUNK_VALUES),
       unknown_key=st.booleans())
def test_junk_in_small_config_exits_0_1_or_2(subcommand, pick, junk, unknown_key):
    # the same junk on the subcommands whose shipped grids take seconds a run,
    # on grids small enough for a run to take a fraction of a second
    _check_exit_contract(subcommand, _small_lines(subcommand), pick, junk, unknown_key)


def _readme_task_keys():
    """The README's task-key table: subcommand -> its keys, ``all`` the union
    of the subcommands its row names."""
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 4 and cells[1].strip("`") in cli._RUNNERS:
            rows[cells[1].strip("`")] = cells[2]
    union = re.fullmatch(r"union of ([\w/]+) keys.*", rows["all"]).group(1).split("/")
    keys = {name: set(re.findall(r"`(\w+)`", text)) for name, text in rows.items()}
    keys["all"] = set().union(*(keys[name] for name in union))
    return keys


@pytest.mark.parametrize("subcommand", sorted(cli._RUNNERS))
def test_readme_task_keys_are_the_keys_each_runner_asks_for(subcommand, tmp_path,
                                                           monkeypatch):
    asked = set()
    raw = Config.raw

    def recording(self, key, *args, **kwargs):
        if key.startswith("task."):
            asked.add(key.removeprefix("task."))
        return raw(self, key, *args, **kwargs)

    monkeypatch.setattr(Config, "raw", recording)
    cfg = _write(tmp_path, "\n".join(_small_lines(subcommand)) + "\n")
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert asked == _readme_task_keys()[subcommand]
