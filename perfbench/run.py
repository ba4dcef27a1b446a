"""Run one benchmark workload of orbitchar and print its metrics as JSON.

    python3 perfbench/run.py --workload sl5-table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Jobs repeat until `--seconds` have passed (at least three jobs, or
one untraced/traced pair with `--trace 1`).  Every result is checked by an
oracle outside the timed region; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics, measured on jobs that alternate
untraced and traced; the spans go to `.perfbench-out/`.  The exit code is 0
when every result is correct, 1 when one is not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_JOBS = 3
MAX_LOGGED_FAULTS = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, after one warm-up run
    that leaves the byte-code caches written."""
    times = []
    for k in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if k:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Counts results and failures; logs the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, faults) -> None:
        for fault in faults:
            self.attempted += 1
            if fault is not None:
                self.failed += 1
                if self.failed <= MAX_LOGGED_FAULTS:
                    print(f"wrong result: {fault}", file=sys.stderr)


def untraced(wl, seconds: float, tally: Tally) -> dict[str, float]:
    """Time jobs until `seconds` have passed; each figure is a median over
    the jobs, the latency percentiles being taken within each job first."""
    jobs = []
    start = perf_counter()
    with hostspeed.WorkClock() as clock:
        while len(jobs) < MIN_JOBS or perf_counter() - start < seconds:
            inputs = wl.inputs(len(jobs))
            job = wl.run(inputs, clock)
            tally.add(wl.check(len(jobs), inputs, job.outputs))
            job.outputs = None  # keep the heap the same size from job to job
            jobs.append(job)
    walls = [clock.scaled(job.start, job.end) for job in jobs]
    latencies = [[clock.scaled(a, b) for a, b in job.results] for job in jobs]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(
            job.cpu * wall / (job.end - job.start) for job, wall in zip(jobs, walls)
        ),
        "first_result_s": statistics.median(clock.scaled(job.start, job.results[0][1]) for job in jobs),
        "result_p50_ms": 1000 * statistics.median(percentile(t, 0.5) for t in latencies),
        "result_p90_ms": 1000 * statistics.median(percentile(t, 0.9) for t in latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, seconds: float, tally: Tally, trace_file: Path) -> dict[str, float]:
    """Alternate untraced and traced runs of job 0's inputs; per-layer
    figures are medians over the traced jobs."""
    import spans

    inputs = wl.inputs(0)
    plain, timed = [], []
    start = perf_counter()
    with hostspeed.WorkClock() as clock:
        tracer = spans.Tracer(clock)
        while not timed or perf_counter() - start < seconds:
            for walls, tracing in ((plain, contextlib.nullcontext()), (timed, tracer.installed(job=len(timed)))):
                with tracing:
                    job = wl.run(inputs, clock)
                tally.add(wl.check(0, inputs, job.outputs))
                walls.append(clock.scaled(job.start, job.end))
    per_job = [spans.layer_metrics(tracer.spans, k, clock.scaled) for k in range(len(timed))]
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    metrics["host.calib_s"] = statistics.median(clock.kernel)
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(
        json.dumps(
            {
                "fields": ["name", "start", "end", "parent", "job", "note"],
                "clock": "work seconds, kernel pauses excluded",
                "kernel_samples": list(zip(clock.marks, clock.kernel)),
                "spans": tracer.spans,
            }
        )
    )
    return metrics


def benchmark(wl, seed: int, seconds: float, trace: bool, outdir: Path, declared) -> dict:
    """Measure one workload object and return the result document.

    `declared` is BENCHMARK.json; the metrics are exactly its end-to-end
    (or per-layer) names, with its units.
    """
    tally = Tally()
    if trace:
        values = traced(wl, seconds, tally, outdir / f"trace-{wl.name}-seed{seed}.json")
        wanted = declared["per_layer"]
    else:
        setup = setup_seconds(wl.name, seed)
        values = untraced(wl, seconds, tally)
        values["setup_s"] = setup
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitchar" / "__init__.py").is_file():
        print(f"error: no orbitchar sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: the oracles use assert; run without -O", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orbitchar
    import workloads

    if Path(orbitchar.__file__).resolve().parent != SRC / "orbitchar":
        print(f"error: imported orbitchar from {orbitchar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    outdir = ROOT / ".perfbench-out"
    workdir = outdir / f"work-{args.workload}-{args.seed}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        result = benchmark(wl, args.seed, args.seconds, bool(args.trace), outdir, declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
