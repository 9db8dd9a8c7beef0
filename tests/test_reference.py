"""Stored outputs of `landau toeplitz` and `landau gap` on `configs/`.

A column that moves between versions fails here: integers and strings must
match exactly, other numbers to 1e-12 relative.  After a deliberate change,
regenerate the references with

    PYTHONPATH=src python tests/test_reference.py

and name the moved columns in the change's notes.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from landau.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference"
SUBCOMMANDS = ("toeplitz", "gap")
REL = 1e-12


def _run(subcommand, out, extra=()):
    cfg = ROOT / "configs" / f"{subcommand}.cfg"
    assert main([subcommand, "--config", str(cfg), "--out", str(out), *extra]) == 0


def _columns(path):
    """CSV table -> {column: [cell text, ...]}; manifest -> {key path: value}."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}
    flat = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, val in node.items():
                walk(f"{prefix}.{key}" if prefix else key, val)
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


def _same(want, got):
    want, got = _number(want), _number(got)
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
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
            if not _same(x, y):
                moved.append((name, i, x, y))
                break
    return moved


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_outputs_match_reference(subcommand, tmp_path):
    _run(subcommand, tmp_path)
    ref_dir = REFERENCE / subcommand
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    moved = []
    for name in names:
        for col, i, a, b in _moved(_columns(ref_dir / name), _columns(tmp_path / name)):
            moved.append(f"{name}: {col} (row {i}): {a!r} -> {b!r}")
    assert not moved, "moved columns:\n" + "\n".join(moved)


if __name__ == "__main__":
    for sub in SUBCOMMANDS:
        for old in (REFERENCE / sub).glob("*"):
            old.unlink()
        _run(sub, REFERENCE / sub, ("--threads", "1"))
        print(f"wrote {REFERENCE / sub}", file=sys.stderr)
