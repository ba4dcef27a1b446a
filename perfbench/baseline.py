"""Write perfbench/baseline.json: one untraced and one traced run of every
workload (seed 1), plus the exact LP counts of the sl4 and sl5 tables.

    python3 perfbench/baseline.py

It refuses to write a baseline whose counts differ from the ROADMAP table:
sl4 67 LP solves (53 enumeration + 14 precheck, 14 regions) and sl5 247
(205 + 42, 61 enumeration LPs infeasible, 42 regions).
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXPECTED = {
    4: {"enum": 53, "enum_infeasible": None, "precheck": 14, "regions": 14},
    5: {"enum": 205, "enum_infeasible": 61, "precheck": 42, "regions": 42},
}


def sl_counts(n: int) -> dict:
    wl = workloads.SlTable(seed=1, n=n)
    clock = hostspeed.WorkClock()
    tracer = spans.Tracer(clock)
    with tracer.installed(job=0):
        job = wl.run(None, clock)
    faults = [f for f in wl.check(0, None, job.outputs) if f is not None]
    if faults:
        raise SystemExit(f"sl{n} table is wrong: {faults}")
    m = spans.layer_metrics(tracer.spans, 0, lambda a, b: b - a)
    enum = m["ratlp.enum_solves"]
    return {
        "lp_solves": enum + m["ratlp.precheck_solves"],
        "enum": enum,
        "enum_infeasible": round(enum * (1 - m["ratlp.enum_feasible_ratio"])),
        "precheck": m["ratlp.precheck_solves"],
        "regions": m["arrangement.regions"],
        "hyperplanes": m["arrangement.hyperplanes"],
        "minnorm_solves": m["minnorm.solves"],
    }


def run(workload: str, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {}
    for n, want in EXPECTED.items():
        got = sl_counts(n)
        for key, value in want.items():
            if value is not None and got[key] != value:
                raise SystemExit(f"sl{n}: {key} is {got[key]}, the ROADMAP table says {value}")
        counts[f"sl{n}"] = got
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    doc = {
        "commit": commit,
        "python": sys.version.split()[0],
        "seed": 1,
        "run_seconds": declared["run_seconds"],
        "counts": counts,
        "runs": {
            w: {
                "untraced": run(w, declared["run_seconds"], 0),
                "traced": run(w, declared["run_seconds"], 1),
            }
            for w in workloads.WORKLOADS
        },
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
