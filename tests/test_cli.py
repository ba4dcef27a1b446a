"""Tests for the command-line interface (run in-process)."""

import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import orbitchar
from orbitchar import cli
from orbitchar.cli import main, parse_factors, parse_orbit
from orbitchar.orbits import AdjointSlModel, Example2x3Model, weighted_dynkin_from_partition

NS = "{http://www.w3.org/2000/svg}"


def test_parse_factors():
    assert parse_factors("A2", None) == [("A", 2)]
    assert parse_factors("A1xA1", None) == [("A", 1), ("A", 1)]
    assert parse_factors("A1XB2", None) == [("A", 1), ("B", 2)]
    assert parse_factors("g2", None) == [("G", 2)]
    assert parse_factors("A", 3) == [("A", 3)]
    from orbitchar.cli import CliError

    with pytest.raises(CliError):
        parse_factors("A", None)
    with pytest.raises(CliError):
        parse_factors("A2", 2)
    with pytest.raises(CliError):
        parse_factors("H3", None)
    with pytest.raises(CliError):
        parse_factors(None, None)


def test_parse_orbit():
    from orbitchar.cli import CliError

    adj = AdjointSlModel(4)
    assert parse_orbit(adj, "2,2") == (2, 2)
    assert parse_orbit(adj, "1,2,1") == (2, 1, 1)
    assert parse_orbit(adj, "3+1") == (3, 1)
    with pytest.raises(CliError):
        parse_orbit(adj, "3,2")
    ex = Example2x3Model()
    assert parse_orbit(ex, "O3") == "O3"
    assert parse_orbit(ex, "o_4") == "O4"
    assert parse_orbit(ex, "0") == "0"
    with pytest.raises(CliError):
        parse_orbit(ex, "O7")


def test_regions_command(tmp_path):
    out = tmp_path / "regions.json"
    fig = tmp_path / "figure.svg"
    code = main(
        [
            "regions",
            "--module",
            "example-2x3",
            "--out",
            str(out),
            "--svg",
            str(fig),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["hyperplanes"]) == 4
    assert len(doc["regions"]) == 6
    assert doc["root_system"] == {"factors": [["A", 1], ["A", 1]], "rank": 2}
    root = ET.fromstring(fig.read_text())
    assert len(root.findall(f".//{NS}line")) == 4
    # the example preset labels regions by Roman numerals
    labels = {t.text for t in root.findall(f".//{NS}text")}
    assert {"I", "II", "III", "IV", "V", "VI"} <= labels


def test_regions_reruns_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["regions", "--type", "A", "--rank", "3", "--module", "adjoint"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # regions accepts --seed and ignores it
    assert main(argv + ["--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_regions_past_twenty_hyperplanes(tmp_path):
    out = tmp_path / "regions.json"
    assert main(["regions", "--type", "F4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["hyperplanes"]) == 24
    assert len(doc["regions"]) == 105  # the W-Catalan number of F4


def test_regions_custom_level(tmp_path):
    out = tmp_path / "regions.json"
    code = main(
        ["regions", "--module", "example-2x3", "--level", "5/2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["level"] == "5/2"
    assert all(h["level"] == "5/2" for h in doc["hyperplanes"])


def test_characteristic_command(tmp_path):
    out = tmp_path / "ch.json"
    code = main(
        [
            "characteristic",
            "--module",
            "example-2x3",
            "--orbit",
            "O5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["point"] == ["2", "4"]
    assert doc["labels"] == ["4", "8"]
    assert doc["norm_sq"] == "40"
    assert doc["m_set"] == doc["tilde_m_set"]


def test_characteristic_partition(tmp_path):
    out = tmp_path / "ch.json"
    code = main(
        [
            "characteristic",
            "--type",
            "A3",
            "--orbit",
            "2,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["labels"] == ["0", "2", "0"]
    assert doc["orbit"] == [2, 2]
    assert doc["model"] == "sl4-adjoint"


def test_characteristic_past_twenty_hyperplanes(tmp_path):
    # sl7 has 21 chamber hyperplanes
    out = tmp_path / "ch.json"
    assert main(["characteristic", "--type", "A6", "--orbit", "4,3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["labels"] == ["1"] * 6
    assert doc["labels"] == [str(v) for v in weighted_dynkin_from_partition((4, 3))]


def test_characteristic_zero_orbit(tmp_path):
    out = tmp_path / "ch.json"
    code = main(
        ["characteristic", "--type", "A2", "--orbit", "1,1,1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["point"] == ["0", "0"]


def test_dense_undefined_exit_code(tmp_path, capsys):
    out = tmp_path / "ch.json"
    code = main(
        [
            "characteristic",
            "--module",
            "example-2x3",
            "--orbit",
            "O2",
            "--mode",
            "dense",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert not out.exists()
    assert "undefined" in capsys.readouterr().err


def test_characteristic_scale_invariance(tmp_path):
    base = tmp_path / "base.json"
    scaled = tmp_path / "scaled.json"
    argv = ["characteristic", "--type", "A2", "--orbit", "2,1"]
    assert main(argv + ["--out", str(base)]) == 0
    assert main(argv + ["--scales", "3", "--out", str(scaled)]) == 0
    doc_base = json.loads(base.read_text())
    doc_scaled = json.loads(scaled.read_text())
    assert doc_base["point"] == doc_scaled["point"]
    assert doc_base["norm_sq"] == "2"
    assert doc_scaled["norm_sq"] == "6"  # 3x the unscaled norm


def test_plot_without_model(tmp_path):
    fig = tmp_path / "fig.svg"
    code = main(
        ["plot", "--type", "B2", "--module", "little-adjoint", "--out", str(fig)]
    )
    assert code == 0
    root = ET.fromstring(fig.read_text())
    assert len(root.findall(f".//{NS}line")) == 2
    assert not root.findall(f".//{NS}circle")


def test_plot_example_markers(tmp_path):
    fig = tmp_path / "fig.svg"
    code = main(["plot", "--module", "example-2x3", "--out", str(fig)])
    assert code == 0
    root = ET.fromstring(fig.read_text())
    assert len(root.findall(f".//{NS}circle")) == 3
    captions = {
        t.text for t in root.findall(f".//{NS}text") if t.get("class") == "mark-label"
    }
    assert captions == {"O3", "O2=O4", "O5"}


def test_verify_command(capsys):
    assert main(["verify", "--suite", "example"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def _no_work(*args, **kwargs):
    raise AssertionError("the arrangement was built before the rank check")


def test_error_exits(tmp_path, capsys, monkeypatch):
    assert main(["regions", "--type", "Z9"]) == 1
    assert main(["characteristic", "--type", "A2", "--orbit", "4"]) == 1
    assert main(["characteristic", "--type", "B2", "--orbit", "2,1"]) == 1
    argv = ["characteristic", "--type", "B2", "--module", "little-adjoint", "--orbit", "2,1"]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 1
    # figure requests on a type of rank other than 2 fail before any work
    # and write nothing
    with monkeypatch.context() as m:
        m.setattr(cli, "_arrangement_parts", _no_work)
        m.setattr(cli.RegionAnalysis, "build", _no_work)
        assert (
            main(
                [
                    "regions",
                    "--type",
                    "A3",
                    "--svg",
                    str(tmp_path / "no.svg"),
                    "--out",
                    str(tmp_path / "r.json"),
                ]
            )
            == 1
        )
        assert not (tmp_path / "r.json").exists()
        svg, out = str(tmp_path / "c.svg"), str(tmp_path / "c.json")
        argv = ["characteristic", "--type", "A3", "--orbit", "2,2", "--svg", svg, "--out", out]
        assert main(argv) == 1
        assert main(["plot", "--type", "A3", "--out", str(tmp_path / "p.svg")]) == 1
        argv = ["plot", "--type", "B3", "--module", "little-adjoint"]
        assert main(argv + ["--out", str(tmp_path / "q.svg")]) == 1
        # the membership mode belongs to characteristic and plot only
        argv = ["regions", "--type", "A2", "--mode", "dense"]
        assert main(argv + ["--out", str(tmp_path / "m.json")]) == 1
        # only regions takes --seed, which it ignores
        argv = ["characteristic", "--type", "A2", "--orbit", "2,1", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "s.json")]) == 1
        assert main(["plot", "--type", "A2", "--seed", "3", "--out", str(tmp_path / "s.svg")]) == 1
    assert not any(tmp_path.iterdir())
    assert main(["regions", "--type", "A1xA1", "--module", "1,1;2"]) == 1
    assert main(["characteristic", "--module", "example-2x3", "--type", "A2", "--orbit", "O3"]) == 1
    # verify refuses empty batteries before running any
    with monkeypatch.context() as m:
        m.setattr(cli, "run_suites", lambda *args, **kwargs: pytest.fail("a battery ran"))
        assert main(["verify", "--suite", "dynkin", "--n", "1"]) == 1
        assert main(["verify", "--suite", "sampling", "--points", "-3"]) == 1
        assert main(["verify", "--suite", "theorem", "--n", "0"]) == 1
        assert main(["verify", "--suite", "sampling", "--points", "0"]) == 1
    out, err = capsys.readouterr()
    assert "checks passed" not in out
    assert err.count("the largest sl_n must be at least 2") == 2
    assert err.count("the sample count must be at least 1") == 2
    assert err.count("requires a rank-2 root system") == 4
    assert err.count("no orbit model") == 2
    assert err.count("unrecognized arguments: --mode dense") == 1
    assert err.count("unrecognized arguments: --seed 3") == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "regions" in capsys.readouterr().out


def test_exact_pipeline_imports_neither_numpy_nor_scipy(tmp_path):
    # Importing scipy.optimize alone costs about 60 MB of RSS and 0.6 s of
    # setup; only the float cross-check of the minnorm battery may pay for it.
    script = textwrap.dedent(
        """
        import sys
        from orbitchar.cli import main
        for argv in (
            ["regions", "--type", "A3", "--out", "r.json"],
            ["characteristic", "--type", "A3", "--orbit", "2,2", "--out", "c.json"],
            ["characteristic", "--module", "example-2x3", "--orbit", "O5", "--svg", "c.svg"],
            ["plot", "--type", "B2", "--module", "little-adjoint", "--out", "p.svg"],
            ["verify", "--suite", "example"],
        ):
            assert main(argv) == 0, argv
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
        """
    )
    src = str(Path(orbitchar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("module", ["numpy", "scipy"])
def test_minnorm_suite_without_its_float_reference_is_a_cli_error(tmp_path, module):
    # numpy and scipy are the optional extra `verify`; without them the
    # minnorm battery stops before any battery runs, the exact ones work
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules[{module!r}] = None
        from orbitchar.cli import main
        print(main(["verify", "--suite", "minnorm"]), main(["verify", "--suite", "all"]))
        print(main(["verify", "--suite", "example"]))
        """
    )
    src = str(Path(orbitchar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "1 1"
    assert run.stdout.splitlines()[-1] == "0"
    message = (
        f"error: the minnorm suite needs {module}, which is not installed; "
        "install it with: pip install -e .[verify]"
    )
    assert run.stderr.splitlines() == [message, message]
