"""Tests for the command-line interface (run in-process)."""

import json
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from fractions import Fraction as Q
from functools import partial

import pytest

from orbitchar import cli, verify
from orbitchar.cli import main, parse_factors
from orbitchar.liecore import build_root_system, highest_short_root
from orbitchar.orbits import (
    AdjointSlModel,
    Example2x3Model,
    Module,
    RegionAnalysis,
    characteristic,
    weighted_dynkin_from_partition,
)

NS = "{http://www.w3.org/2000/svg}"


def test_parse_factors():
    assert parse_factors("A2") == [("A", 2)]
    assert parse_factors("A1xA1") == [("A", 1), ("A", 1)]
    assert parse_factors("A1XB2") == [("A", 1), ("B", 2)]
    assert parse_factors("A2 x B2") == [("A", 2), ("B", 2)]
    assert parse_factors("g2") == [("G", 2)]
    # which series and ranks exist is build_root_system's to say
    assert parse_factors("H3") == [("H", 3)]
    from orbitchar.cli import CliError

    for text in ("A", "A3x", "2", "Ax3", "A+2", "A1_0", "A\u0663"):
        with pytest.raises(CliError, match="cannot parse root-system factor"):
            parse_factors(text)


def test_parse_orbit():
    adj = AdjointSlModel(4)
    assert adj.parse_orbit("2,2") == (2, 2)
    assert adj.parse_orbit("1,2,1") == (2, 1, 1)
    assert adj.parse_orbit("3+1") == (3, 1)
    with pytest.raises(ValueError):
        adj.parse_orbit("3,2")
    ex = Example2x3Model()
    assert ex.parse_orbit("O3") == "O3"
    assert ex.parse_orbit("o_4") == "O4"
    assert ex.parse_orbit("0") == "0"
    with pytest.raises(ValueError):
        ex.parse_orbit("O7")


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
    argv = ["regions", "--type", "A3", "--module", "adjoint"]
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


def _mark_labels(path):
    root = ET.fromstring(path.read_text())
    return [t.text for t in root.findall(f".//{NS}text") if t.get("class") == "mark-label"]


@pytest.mark.parametrize(
    "argv, orbit, caption",
    [
        (["--module", "example-2x3"], "O5", "O5"),
        (["--type", "A2"], "2,1", AdjointSlModel(3).descriptor((2, 1))),
    ],
)
def test_characteristic_and_plot_caption_a_marker_alike(tmp_path, argv, orbit, caption):
    fig = tmp_path / "c.svg"
    char = ["characteristic", *argv, "--orbit", orbit, "--out", str(tmp_path / "c.json")]
    assert main(char + ["--svg", str(fig)]) == 0
    assert _mark_labels(fig) == [caption]
    assert main(["plot", *argv, "--out", str(tmp_path / "p.svg")]) == 0
    assert caption in _mark_labels(tmp_path / "p.svg")


def test_verify_command(capsys):
    assert main(["verify", "--suite", "example"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def _no_battery(max_n):
    raise AssertionError("a battery ran")


def test_verify_refuses_an_unknown_suite_before_any_battery_runs(monkeypatch, capsys):
    monkeypatch.setattr(verify, "SUITES", {name: _no_battery for name in verify.SUITES})
    assert main(["verify", "--suite", "nope"]) == 1
    assert main(["verify", "--suite", "example", "--suite", "nope"]) == 1
    assert main(["verify", "--suite", "all", "--suite", "nope"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    message = f"error: unknown suite 'nope'; choose from {verify.SUITE_ORDER}"
    assert err.splitlines() == [message] * 3


def test_suite_help_names_every_battery(capsys):
    # the parser names the batteries without loading them
    assert main(["verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(verify.SUITE_ORDER) + " or all (repeatable; default all)" in text


def _no_work(*args, **kwargs):
    raise AssertionError("the arrangement was built before the rank check")


def test_error_exits(tmp_path, capsys, monkeypatch):
    assert main(["regions", "--type", "Z9"]) == 1
    assert main(["characteristic", "--type", "A2", "--orbit", "4"]) == 1
    assert main(["characteristic", "--type", "A3", "--orbit", "2,x"]) == 1
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
        argv = ["plot", "--type", "A3", "--module", "1,0,0"]
        assert main(argv + ["--out", str(tmp_path / "w.svg")]) == 1
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
        m.setattr(verify, "run_suites", lambda *args, **kwargs: pytest.fail("a battery ran"))
        assert main(["verify", "--suite", "dynkin", "--n", "1"]) == 1
        assert main(["verify", "--suite", "theorem", "--n", "0"]) == 1
        assert main(["verify", "--points", "5"]) == 1
    out, err = capsys.readouterr()
    assert "checks passed" not in out
    assert err.count("the largest sl_n must be at least 2") == 2
    assert err.count("error: cannot read orbit '2,x' as a partition of 4") == 1
    assert err.count("requires a rank-2 root system") == 5
    assert err.count("no orbit model") == 2
    assert err.count("unrecognized arguments: --mode dense") == 1
    assert err.count("unrecognized arguments: --points 5") == 1
    assert err.count("unrecognized arguments: --seed 3") == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--type", "A0"], "error: rank 0 is not valid for series A"),
        (["--type", "E5"], "error: rank 5 is not valid for series E"),
        (["--type", "H2"], "error: unknown series 'H'"),
        (["--type", "A3x"], "error: cannot parse root-system factor ''"),
        (["--type", "A", "--rank", "3"], "error: unrecognized arguments: --rank 3"),
        (
            ["--type", "A2", "--module", "1,0,0"],
            "error: weight (1, 0, 0) has 3 entries, but the rank is 2",
        ),
        (["--type", "A2", "--module", "1,x"], "error: cannot parse weight '1,x'"),
        (["--type", "A2", "--level", "abc"], "error: cannot parse --level 'abc' as a rational"),
        (["--type", "A2", "--level", "1/0"], "error: cannot parse --level '1/0' as a rational"),
        (["--type", "A2", "--level", "0"], "error: level must be positive"),
        (
            ["--type", "A2", "--scales", "1,x"],
            "error: cannot parse --scales entry 'x' as a rational",
        ),
        (["--type", "A2", "--scales", "-1"], "error: factor scales must be positive"),
    ],
)
def test_liecore_reports_bad_types_and_weights(tmp_path, capsys, argv, message):
    out = tmp_path / "r.json"
    assert main(["regions", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def _little_g2():
    rs = build_root_system([("G", 2)])
    return Module(rs, (highest_short_root(rs),))


@pytest.mark.parametrize(
    "make, level, scales",
    [
        (Example2x3Model, Q(2), (Q(1), Q(3, 2))),
        (partial(AdjointSlModel, 4), Q(2), None),
        (_little_g2, Q(3), (Q(2),)),
    ],
    ids=["example-2x3", "sl4", "G2-little"],
)
def test_both_builders_build_one_record(make, level, scales):
    model = make()
    analysis = cli._arrangement_parts(model, level, scales)
    assert analysis == RegionAnalysis.build(model, level, scales)
    assert analysis.model is model


def test_only_characteristic_asks_for_strata(tmp_path, monkeypatch):
    calls = []
    generic_stratum = AdjointSlModel.generic_stratum

    def counted(self, i_r):
        calls.append(i_r)
        return generic_stratum(self, i_r)

    monkeypatch.setattr(AdjointSlModel, "generic_stratum", counted)
    assert main(["regions", "--type", "A3", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == []
    argv = ["characteristic", "--type", "A3", "--orbit", "2,2"]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 0
    assert len(calls) == 14  # the regions of sl4, each once
    calls.clear()
    model = AdjointSlModel(4)
    analysis = RegionAnalysis.build(model)
    for orbit in model.orbit_ids():
        for mode in ("nonempty", "dense"):
            characteristic(analysis, orbit, mode)
    assert len(calls) == len(analysis.regions) == 14


def test_type_is_required_outside_the_example(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["regions", "--out", str(out)]) == 1
    message = "error: --type is required for this configuration"
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def _run_script(args, cwd, env):
    argv = [sys.executable, "-m", "orbitchar", *args]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def test_exit_codes_reach_the_shell(tmp_path, subprocess_env):
    run = _run_script(["regions", "--type", "A2"], tmp_path, subprocess_env)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "regions.json").exists()
    run = _run_script(["regions", "--type", "A0", "--out", "a0.json"], tmp_path, subprocess_env)
    assert run.returncode == 1
    assert run.stderr == "error: rank 0 is not valid for series A\n"
    argv = ["characteristic", "--module", "example-2x3", "--orbit", "O2", "--mode", "dense"]
    run = _run_script(argv, tmp_path, subprocess_env)
    assert run.returncode == 2
    assert "undefined" in run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regions.json"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "regions" in capsys.readouterr().out


def test_exact_pipeline_imports_neither_numpy_nor_scipy(tmp_path, subprocess_env):
    # Importing scipy.optimize alone costs about 60 MB of RSS and 0.6 s of
    # setup; no command, the minnorm battery included, may pay for it.
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
            ["verify", "--suite", "minnorm"],
        ):
            assert main(argv) == 0, argv
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=subprocess_env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_only_verify_loads_the_batteries(tmp_path, subprocess_env):
    # compiling verify.py costs about 1 MB of RSS in a process that writes
    # no bytecode; the pipeline commands leave it unloaded
    script = textwrap.dedent(
        """
        import sys
        from orbitchar.cli import main
        for argv in (
            ["regions", "--type", "A3", "--out", "r.json"],
            ["regions", "--module", "example-2x3", "--out", "e.json", "--svg", "e.svg"],
            ["characteristic", "--type", "A3", "--orbit", "2,2", "--out", "c.json"],
            ["plot", "--type", "B2", "--module", "little-adjoint", "--out", "p.svg"],
        ):
            assert main(argv) == 0, argv
            assert "orbitchar.verify" not in sys.modules, argv
        assert main(["verify", "--suite", "example"]) == 0
        print("orbitchar.verify" in sys.modules)
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=subprocess_env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "True"
