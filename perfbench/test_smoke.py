"""Smoke tests of the benchmark on tiny sizes.

    python -m pytest -q perfbench

They check that every metric BENCHMARK.json names is emitted, that a planted
wrong answer raises the failure count, that the tracer restores what it
wraps, and that the command refuses to run without the package sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from orbitchar import cli, minnorm, orbits  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_REQUESTS = (workloads.REQUESTS[0], workloads.REQUESTS[3])


def tiny(name, tmp_path):
    if name == "sl5-table":
        return workloads.SlTable(seed=3, n=3)
    if name == "arrangements":
        return workloads.Arrangements(seed=3, workdir=tmp_path / "work", requests=TINY_REQUESTS)
    return workloads.MinnormRandom(seed=3, per_cell=1, ranks=(3, 4))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(name, trace, tmp_path):
    result = run.benchmark(tiny(name, tmp_path), 3, 0, trace, tmp_path, DECLARED)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.json").is_file()


def _wrong_labels(real):
    def characteristic(analysis, orbit, mode="nonempty"):
        ch = real(analysis, orbit, mode)
        if ch is None or orbit == analysis.model.zero_orbit:
            return ch
        return dataclasses.replace(ch, labels=tuple(x + 1 for x in ch.labels))

    return characteristic


def _wrong_point(real):
    def min_norm_point(poly, form):
        res = real(poly, form)
        return dataclasses.replace(res, point=tuple(2 * x + 1 for x in res.point))

    return min_norm_point


def _one_region_short(real):
    def enumerate_regions(*args, **kwargs):
        return real(*args, **kwargs)[:-1]

    return enumerate_regions


PLANTS = {
    "sl5-table": (orbits, "characteristic", _wrong_labels),
    "arrangements": (cli, "enumerate_regions", _one_region_short),
    "minnorm-random": (minnorm, "min_norm_point", _wrong_point),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_planted_wrong_answer_is_counted(name, tmp_path, monkeypatch):
    owner, attr, plant = PLANTS[name]
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    wl = tiny(name, tmp_path)
    tally = run.Tally()
    run.untraced(wl, 0, tally)
    assert tally.failed > 0 and tally.failed <= tally.attempted


def test_tracer_restores_what_it_wraps():
    before = {
        (id(owner), name): vars(owner)[name.split(".", 1)[1]]
        for name, _, owners in spans.TARGETS
        for owner in owners
    }
    tracer = spans.Tracer(hostspeed.WorkClock())
    with tracer.installed(job=0):
        assert vars(minnorm)["min_norm_point"] is not before[(id(minnorm), "minnorm.min_norm_point")]
    for name, _, owners in spans.TARGETS:
        for owner in owners:
            assert vars(owner)[name.split(".", 1)[1]] is before[(id(owner), name)]


def test_sl4_counts_match_the_roadmap_table():
    wl = workloads.SlTable(seed=1, n=4)
    clock = hostspeed.WorkClock()
    tracer = spans.Tracer(clock)
    with tracer.installed(job=0):
        job = wl.run(None, clock)
    assert all(f is None for f in wl.check(0, None, job.outputs))
    m = spans.layer_metrics(tracer.spans, 0, lambda a, b: b - a)
    assert (m["ratlp.enum_solves"], m["ratlp.precheck_solves"]) == (53, 14)
    assert m["arrangement.regions"] == 14 and m["minnorm.solves"] == 14


def test_w_catalan():
    assert workloads.w_catalan("A", 4) == 42
    assert workloads.w_catalan("G", 2) == 8
    assert workloads.w_catalan("B", 3) == workloads.w_catalan("C", 3) == 20


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sl5-table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
