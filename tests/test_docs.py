"""The README's API table and orbitchar.__all__ name only what exists, and
the demos run and write the figures the README names."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import orbitchar

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _entry_point_names():
    """Backticked names in the first column of the "Key entry points" table,
    each cut before its argument list."""
    lines = README.read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("Key entry points"))
    names = []
    for line in lines[start + 1:]:
        if names and not line.startswith("|"):
            break
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            names += [name.split("(")[0] for name in re.findall(r"`([^`]+)`", first_cell)]
    return names


def _resolves(dotted):
    try:
        functools.reduce(getattr, dotted.split("."), orbitchar)
    except AttributeError:
        return False
    return True


def test_readme_entry_points_resolve():
    names = _entry_point_names()
    assert "RegionAnalysis.build" in names and "min_norm_point" in names
    assert [name for name in names if not _resolves(name)] == []


def test_all_names_resolve():
    assert [name for name in orbitchar.__all__ if not _resolves(name)] == []


def test_demos_run_and_write_their_figures(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    for demo in demos:
        run = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, f"{demo.name}: {run.stderr}"
    figures = {"example_module_regions.svg", "little_adjoint_b2.svg", "little_adjoint_g2.svg"}
    assert figures <= {path.name for path in tmp_path.iterdir()}
    assert all(figure in README.read_text() for figure in figures)
