"""The benchmark's workloads: their inputs, their jobs and their oracles.

A workload prepares the inputs of job k (untimed), runs one job on a clock
(timed: the job, each of its results, and its CPU seconds), and checks the
job's outputs against an oracle that does not share the region method
(untimed).  `setup()` is the work a fresh interpreter does
before the first LP; the setup probe times it.

* sl5-table: the paper's headline computation, the weighted Dynkin table
  of sl(5) from region enumeration and min-norm points.  One result is one
  partition's characteristic in both modes.
* arrangements: in-process `orbitchar regions` requests on the
  multiply-laced arrangements, with JSON and SVG output and no min-norm or
  orbit work.  One result is one request.
* minnorm-random: seeded polyhedra shaped like sl5-sl7 region closures, one
  in five planted empty, each solved by `min_norm_point`.  One result is
  one polyhedron.

The seed reaches each workload's inputs: it is the generic-sampling seed of
the sl(n) orbit model, the `--seed` of every `regions` request, and the
generator of the random polyhedra.  Only minnorm-random's polyhedra differ
between seeds; the other two workloads do the same work for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path

from orbitchar import arrangement, liecore, linalg, minnorm, orbits

Q = Fraction

# The oracles keep the package's own functions, captured before a tracer
# wraps anything, so checking is never traced.
verify_kkt = minnorm.verify_kkt
norm_sq = liecore.norm_sq
weighted_dynkin_from_partition = orbits.weighted_dynkin_from_partition

# Exponents of the simple types used here; the Coxeter number is the largest
# exponent plus one.
_EXPONENTS = {
    "A": lambda r: range(1, r + 1),
    "B": lambda r: range(1, 2 * r, 2),
    "C": lambda r: range(1, 2 * r, 2),
    "G": lambda r: (1, 5),
}


def w_catalan(series: str, rank: int) -> int:
    """Number of dominant regions of the level-2 adjoint arrangement:
    prod (h + e + 1) / (e + 1) over the exponents e (Shi; Cellini-Papi)."""
    exps = list(_EXPONENTS[series](rank))
    h = max(exps) + 1
    return int(prod(Q(h + e + 1, e + 1) for e in exps))


@dataclass
class Job:
    """Clock readings of one job: its start and end, the start and end of
    each result (aligned with outputs), and its CPU seconds."""

    start: float
    end: float
    cpu: float
    results: list[tuple[float, float]]
    outputs: list


def timed(clock, items, solve, prelude=None) -> Job:
    """Run prelude() and then solve(state, item) for every item, on clock.

    An exception ends that result only: it becomes the result's output.
    """
    t0, c0 = clock.now(), clock.cpu()
    try:
        state = prelude() if prelude else None
    except Exception as exc:
        state = exc
    results, outputs = [], []
    for item in items:
        ts = clock.now()
        try:
            if isinstance(state, Exception):
                raise state
            out = solve(state, item)
        except Exception as exc:
            out = exc
        results.append((ts, clock.now()))
        outputs.append(out)
    return Job(t0, clock.now(), clock.cpu() - c0, results, outputs)


def _fault(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class SlTable:
    """Weighted Dynkin table of sl(n) through RegionAnalysis."""

    name = "sl5-table"

    def __init__(self, seed: int, n: int = 5):
        self.seed = seed
        self.n = n
        self.partitions = orbits.partitions_of(n)

    def setup(self):
        model = orbits.AdjointSlModel(self.n, seed=self.seed)
        rs = model.root_system
        ws = liecore.weight_system(rs, model.module_spec)
        liecore.invariant_form(rs)
        arrangement.chamber_hyperplanes(ws)

    def inputs(self, job: int):
        return None

    def run(self, inputs, clock) -> Job:
        def build():
            return orbits.RegionAnalysis.build(orbits.AdjointSlModel(self.n, seed=self.seed))

        def both_modes(analysis, p):
            return (
                analysis,
                orbits.characteristic(analysis, p, "nonempty"),
                orbits.characteristic(analysis, p, "dense"),
            )

        return timed(clock, self.partitions, both_modes, build)

    def check(self, job: int, inputs, outputs) -> list[str | None]:
        """None per correct result, else the reason it failed."""
        faults = []
        for p, out in zip(self.partitions, outputs):
            if isinstance(out, Exception):
                faults.append(f"{p}: {_fault(out)}")
                continue
            analysis, nonempty, dense = out
            want = weighted_dynkin_from_partition(p)
            if len(analysis.regions) != w_catalan("A", self.n - 1):
                faults.append(f"{len(analysis.regions)} regions")
            elif dense is None or nonempty.point != dense.point:
                faults.append(f"{p}: modes disagree")
            elif tuple(nonempty.labels) != want:
                faults.append(f"{p}: labels {nonempty.labels} != {want}")
            else:
                faults.append(None)
        return faults


@dataclass(frozen=True)
class Request:
    """One `orbitchar regions` request; `regions` is the oracle count or None."""

    name: str
    args: tuple[str, ...]
    regions: int | None
    svg: bool


REQUESTS = (
    Request("adjoint-G2", ("--type", "G2"), w_catalan("G", 2), False),
    Request("adjoint-B3", ("--type", "B3"), w_catalan("B", 3), False),
    Request("adjoint-C3", ("--type", "C3"), w_catalan("C", 3), False),
    Request("little-B2", ("--type", "B2", "--module", "little-adjoint"), None, True),
    Request("little-G2", ("--type", "G2", "--module", "little-adjoint"), None, True),
    # the worked example of the paper has its six regions I..VI
    Request("example-2x3", ("--module", "example-2x3"), 6, True),
    Request("little-F4", ("--type", "F4", "--module", "little-adjoint"), None, False),
)


def _module_spec(args: tuple[str, ...], rs):
    module = dict(zip(args[::2], args[1::2])).get("--module", "adjoint")
    if module == "adjoint":
        return liecore.highest_roots(rs)
    if module == "little-adjoint":
        return (liecore.highest_short_root(rs),)
    return ((1, 1), (1, 0))


def _factors(args: tuple[str, ...]):
    t = dict(zip(args[::2], args[1::2])).get("--type")
    return [("A", 1), ("A", 1)] if t is None else [(t[0], int(t[1:]))]


def _witness_faults(doc) -> str | None:
    """Every region's witness strictly satisfies its closure rows and lies
    on the side of each hyperplane that its sign vector states."""
    hps = [(h["weight_fw"], Q(h["level"])) for h in doc["hyperplanes"]]
    for region in doc["regions"]:
        w = [Q(x) for x in region["witness"]]
        for row in region["closure_ineqs"]:
            if sum(Q(v) * x for v, x in zip(row["normal"], w)) <= Q(row["bound"]):
                return f"region {region['id']}: witness not strictly inside"
        if len(region["signs"]) != len(hps):
            return f"region {region['id']}: sign vector length"
        for sign, (weight, level) in zip(region["signs"], hps):
            v = sum(Q(m) * x for m, x in zip(weight, w))
            if not (v > level if sign == "+" else v < level):
                return f"region {region['id']}: witness on the wrong side"
    return None


class Arrangements:
    """In-process `orbitchar regions` requests that write regions.json/SVG."""

    name = "arrangements"

    def __init__(self, seed: int, workdir: Path, requests=REQUESTS):
        self.seed = seed
        self.workdir = Path(workdir)
        self.requests = tuple(requests)
        self._first_bytes: dict[str, tuple[bytes, bytes | None]] = {}

    def setup(self):
        from orbitchar import cli  # noqa: F401  (the requests' import cost)

        for req in self.requests:
            rs = liecore.build_root_system(_factors(req.args))
            ws = liecore.weight_system(rs, _module_spec(req.args, rs))
            liecore.invariant_form(rs)
            arrangement.chamber_hyperplanes(ws)

    def _paths(self, req: Request):
        return self.workdir / f"{req.name}.json", self.workdir / f"{req.name}.svg"

    def inputs(self, job: int):
        self.workdir.mkdir(parents=True, exist_ok=True)
        argvs = []
        for req in self.requests:
            out, fig = self._paths(req)
            for path in (out, fig):
                path.unlink(missing_ok=True)
            argv = ["regions", *req.args, "--out", str(out), "--seed", str(self.seed)]
            if req.svg:
                argv += ["--svg", str(fig)]
            argvs.append(argv)
        return argvs

    def run(self, argvs, clock) -> Job:
        from orbitchar import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return timed(clock, argvs, lambda _, argv: cli.main(argv))

    def _fault(self, req: Request, out) -> str | None:
        if isinstance(out, Exception):
            return _fault(out)
        if out != 0:
            return f"exit code {out}"
        path, fig = self._paths(req)
        data = path.read_bytes()
        drawing = fig.read_bytes() if req.svg else None
        doc = json.loads(data)
        if req.regions is not None and len(doc["regions"]) != req.regions:
            return f"{len(doc['regions'])} regions, expected {req.regions}"
        bad = _witness_faults(doc)
        if bad:
            return bad
        if req.svg and not ET.fromstring(drawing).tag.endswith("svg"):
            return "the figure is not an SVG document"
        if self._first_bytes.setdefault(req.name, (data, drawing)) != (data, drawing):
            return "output differs from the first repetition"
        return None

    def check(self, job: int, argvs, outputs) -> list[str | None]:
        faults = []
        for req, out in zip(self.requests, outputs):
            try:
                bad = self._fault(req, out)
            except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
                bad = _fault(exc)
            faults.append(None if bad is None else f"{req.name}: {bad}")
        return faults


@dataclass(frozen=True)
class Instance:
    """A polyhedron, its form, and a point planted inside (None if empty)."""

    poly: minnorm.Polyhedron
    form: liecore.InvariantForm
    planted: tuple | None


RANKS = (3, 4, 5, 6)


class MinnormRandom:
    """Seeded region-closure-like polyhedra of rank 3-6 with 6-20 rows.

    A feasible instance is the closure of the cell of an sl(r+1) arrangement
    that holds a random dominant point, cut by the chamber walls and a
    random subset of the level-2 root hyperplanes.  A job opens with one
    fixed instance, the closure of an sl(6) region cut by all 15 hyperplanes,
    so that the time to its first result does not depend on the draw.  Then,
    for every rank and for the fewest and the most rows it allows within
    6-20, come one empty instance (a feasible one plus the contradictory rows
    mu.a >= b and mu.a <= b - 1) and `per_cell` feasible ones.  Job k draws
    them from (seed, k) alone, so no job repeats another's polyhedra.
    """

    name = "minnorm-random"

    def __init__(self, seed: int, per_cell: int = 4, ranks=RANKS):
        self.seed = seed
        self.per_cell = per_cell
        self.ranks = tuple(ranks)
        self._systems = None

    def setup(self):
        systems = {}
        for r in sorted({*self.ranks, 5}):
            rs = liecore.build_root_system([("A", r)])
            systems[r] = (
                rs,
                liecore.invariant_form(rs),
                linalg.inverse(rs.cartan),
            )
        self._systems = systems
        self.inputs(0)

    def _feasible(self, rng: random.Random, r: int, nrows: int) -> Instance:
        rs, form, cartan_inv = self._systems[r]
        labels = [Q(rng.randint(1, 8), 4) for _ in range(r)]
        point = tuple(sum(a * b for a, b in zip(row, labels)) for row in cartan_inv)
        rows = [(tuple(row), Q(0)) for row in rs.cartan]
        for mu in rng.sample(rs.positive_roots, nrows - r):
            if sum(m * x for m, x in zip(mu, point)) >= 2:
                rows.append((mu, Q(2)))
            else:
                rows.append((tuple(-m for m in mu), Q(-2)))
        return Instance(minnorm.Polyhedron.from_rows(rows, r), form, point)

    def _empty(self, rng: random.Random, r: int, nrows: int) -> Instance:
        base = self._feasible(rng, r, nrows)
        rs = self._systems[r][0]
        mu = rng.choice(rs.positive_roots)
        b = rng.randint(1, 3)
        rows = list(base.poly.rows)
        for row in ((mu, Q(b)), (tuple(-m for m in mu), Q(1 - b))):
            rows.insert(rng.randint(0, len(rows)), row)
        return Instance(minnorm.Polyhedron.from_rows(rows, r), base.form, None)

    def inputs(self, job: int) -> list[Instance]:
        if self._systems is None:
            self.setup()
        out = [self._feasible(random.Random("minnorm-random/first"), 5, 20)]
        rng = random.Random(f"minnorm-random/{self.seed}/{job}")
        for r in self.ranks:
            fewest = max(6, r + 1)
            most = min(20, r + len(self._systems[r][0].positive_roots))
            for nrows in (fewest, most):
                out.append(self._empty(rng, r, nrows))
                for _ in range(self.per_cell):
                    out.append(self._feasible(rng, r, nrows))
        return out

    def run(self, instances, clock) -> Job:
        return timed(clock, instances, lambda _, inst: minnorm.min_norm_point(inst.poly, inst.form))

    def check(self, job: int, instances, outputs) -> list[str | None]:
        faults = []
        for k, (inst, out) in enumerate(zip(instances, outputs)):
            tag = f"instance {k}"
            if inst.planted is None:
                ok = isinstance(out, ValueError)
                faults.append(None if ok else f"{tag}: empty polyhedron gave {out!r}")
                continue
            if isinstance(out, Exception):
                faults.append(f"{tag}: {_fault(out)}")
                continue
            try:
                verify_kkt(inst.poly, inst.form, out)
            except (AssertionError, IndexError, TypeError) as exc:
                faults.append(f"{tag}: KKT certificate fails ({exc})")
                continue
            if norm_sq(inst.form, out.point) > norm_sq(inst.form, inst.planted):
                faults.append(f"{tag}: norm above the planted point's")
                continue
            faults.append(None)
        return faults


WORKLOADS = ("sl5-table", "arrangements", "minnorm-random")


def make(name: str, seed: int, workdir: Path):
    if name == "sl5-table":
        return SlTable(seed)
    if name == "arrangements":
        return Arrangements(seed, workdir)
    if name == "minnorm-random":
        return MinnormRandom(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")

