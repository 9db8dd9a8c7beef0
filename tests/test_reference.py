"""Stored outputs of the seven subcommands and `all` on `configs/`.

A column that moves between versions fails here: integers and strings must
match exactly, other numbers to 1e-12 relative.  Roundoff-level columns (the
inverse-iteration ``residual``, ``c1_im``, ``fit_residual``,
``c2_uncertainty``, ``flux_defect``, the surrogate's ``held_out_error`` and the
route disagreements) carry no digits worth pinning: they pass while they stay
within a factor ``MAGNITUDE`` of the reference.

`resonance`, `dynamics` and `all` run in a fresh interpreter under
`--threads 1`, as a user runs them, with the thread count fixed before numpy
loads (``test_cli`` checks that their bytes do not depend on it); the others
run in-process.  After a deliberate change, regenerate the references with

    PYTHONPATH=src python tests/test_reference.py [subcommand ...]

and name the moved columns in the change's notes.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from landau.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference"
FRESH = ("resonance", "dynamics", "all")
SUBCOMMANDS = ("bound", "fgr", "toeplitz", "gap", "mourre") + FRESH
REL = 1e-12
MAGNITUDE = 10.0
ROUNDOFF = {"residual", "c1_im", "fit_residual", "c2_uncertainty", "flux_defect",
            "held_out_error", "c1_rel", "im_c2_rel", "re_c2_rel", "F_rel"}


def _run(subcommand, out, fresh):
    cfg = ROOT / "configs" / f"{subcommand}.cfg"
    argv = [subcommand, "--config", str(cfg), "--out", str(out), "--threads", "1"]
    if not fresh:
        assert main(argv) == 0
        return
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run([sys.executable, "-m", "landau.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _columns(path):
    """CSV table -> {column: [cell text, ...]}; manifest -> {key path: [value]}."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}
    flat = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, val in node.items():
                walk(f"{prefix}.{key}" if prefix else key, val)
        elif isinstance(node, list):
            for i, val in enumerate(node):
                walk(f"{prefix}[{i}]", val)
        else:
            flat[prefix] = [node]

    walk("", json.loads(path.read_text(encoding="utf-8")))
    return flat


def _number(cell):
    """int or float for a numeric CSV cell, else the cell itself."""
    if isinstance(cell, str):
        for kind in (int, float):
            try:
                return kind(cell)
            except ValueError:
                pass
    return cell


def _roundoff(name):
    leaf = name.rsplit(".", 1)[-1]
    return leaf in ROUNDOFF or leaf.endswith("_disagreement")


def _same(name, want, got):
    want, got = _number(want), _number(got)
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        if _roundoff(name):
            return abs(got) <= MAGNITUDE * abs(want)
        return abs(got - want) <= REL * abs(want)
    return type(want) is type(got) and want == got


def _moved(want, got):
    """(column, first differing index, reference, new) for every moved column."""
    moved = []
    for name in sorted(set(want) | set(got)):
        a, b = want.get(name), got.get(name)
        if a is None or b is None or len(a) != len(b):
            moved.append((name, None, a, b))
            continue
        for i, (x, y) in enumerate(zip(a, b)):
            if not _same(name, x, y):
                moved.append((name, i, x, y))
                break
    return moved


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_outputs_match_reference(subcommand, tmp_path):
    _run(subcommand, tmp_path, fresh=subcommand in FRESH)
    ref_dir = REFERENCE / subcommand
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    moved = []
    for name in names:
        for col, i, a, b in _moved(_columns(ref_dir / name), _columns(tmp_path / name)):
            moved.append(f"{name}: {col} (row {i}): {a!r} -> {b!r}")
    assert not moved, "moved columns:\n" + "\n".join(moved)


if __name__ == "__main__":
    for sub in sys.argv[1:] or SUBCOMMANDS:
        if sub not in SUBCOMMANDS:
            sys.exit(f"unknown subcommand {sub!r}; choose from {', '.join(SUBCOMMANDS)}")
        (REFERENCE / sub).mkdir(parents=True, exist_ok=True)
        for old in (REFERENCE / sub).glob("*"):
            old.unlink()
        _run(sub, REFERENCE / sub, fresh=True)
        print(f"wrote {REFERENCE / sub}", file=sys.stderr)
