import dataclasses
import inspect
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import cli, fgr, potentials
from landau.cli import Config, main
from landau.errors import ConfigError, DomainError

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


def test_unknown_key_exit_2(tmp_path):
    cfg = _write(tmp_path, BOUND_CFG + "\nwrong.key = 1\n")
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


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
            for fa, fb in zip(va, vb):
                assert np.array_equal(sample(fa), sample(fb)), field.name
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
