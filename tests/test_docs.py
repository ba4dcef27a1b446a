"""The README's API table and orbitchar.__all__ name only what exists."""

import functools
import re
from pathlib import Path

import orbitchar

README = Path(__file__).resolve().parent.parent / "README.md"


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
