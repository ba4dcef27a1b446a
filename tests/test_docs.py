"""The README's API table and orbitchar.__all__ name only what exists, the
demos run and write the figures the README names, and no module of the
package reaches for a sibling's private name or states a check as an
assert statement."""

import ast
import functools
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


def test_demos_run_and_write_their_figures(tmp_path, subprocess_env):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    for demo in demos:
        run = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=subprocess_env, capture_output=True, text=True
        )
        assert run.returncode == 0, f"{demo.name}: {run.stderr}"
    figures = {"example_module_regions.svg", "little_adjoint_b2.svg", "little_adjoint_g2.svg"}
    assert figures <= {path.name for path in tmp_path.iterdir()}
    assert all(figure in README.read_text() for figure in figures)


def _large_run_files(lines, prefix):
    """The test files named on the one line that starts with prefix and
    then ORBITCHAR_LARGE=1, its comment aside."""
    start = prefix + "ORBITCHAR_LARGE=1"
    [line] = [line.strip() for line in lines if line.strip().startswith(start)]
    return re.findall(r"tests/\S+\.py", line.split("#")[0])


def test_readme_and_ci_name_the_same_large_run():
    # read as text: CI installs no YAML parser
    tests_block = README.read_text().split("## Tests", 1)[1].split("```")[1]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    files = _large_run_files(tests_block.splitlines(), "")
    assert files and all((ROOT / f).is_file() for f in files)
    assert _large_run_files(workflow.splitlines(), "run: ") == files


def _defined_names(tree):
    """Every name a module defines, at any depth: its functions, classes,
    methods and assigned names (imported ones aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def sibling_private_names(package):
    """module: name for each underscore name a module imports or reads as an
    attribute that it does not define itself but a sibling module does."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = {module: _defined_names(tree) for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in defined[module] and any(
                    name in theirs for other, theirs in defined.items() if other != module
                ):
                    found.add(f"{module}: {name}")
    return sorted(found)


def test_no_module_uses_a_private_name_of_a_sibling():
    # each certificate check and shared helper has one public home, such as
    # linalg.satisfies, that its callers import by name
    package = Path(orbitchar.__file__).resolve().parent
    assert sibling_private_names(package) == []


def test_no_module_states_a_check_as_an_assert_statement():
    # every certificate raises AssertionError explicitly, so python -O,
    # which strips assert statements, strips none of them
    package = Path(orbitchar.__file__).resolve().parent
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
