"""Span tracing of orbitchar from outside the package.

A Tracer replaces public functions of the package's modules by wrappers that
record one span per call: name, start, end, parent span and job number, plus
an optional note taken from the call's arguments and result (row counts,
feasibility, output bytes).  Spans stay in memory until the run writes them.

Modules import each other's functions by name, so a function is wrapped at
every name its callers look up: `orbits.min_norm_point` as well as
`minnorm.min_norm_point`, `cli.enumerate_regions` as well as
`arrangement.enumerate_regions`.  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from orbitchar import arrangement, cli, jsonio, linalg, minnorm, orbits, ratlp, svg

LAYERS = ("liecore", "arrangement", "ratlp", "minnorm", "linalg", "orbits", "jsonio", "svg", "cli")

NAME, START, END, PARENT, JOB, NOTE = range(6)


def _interior_note(args, kwargs, out, exc):
    return [len(args[0]), out is not None]


def _feasible_note(args, kwargs, out, exc):
    return [len(args[0]), bool(out)]


def _minnorm_note(args, kwargs, out, exc):
    rows = len(args[0].rows)
    if exc is not None:
        return [rows, None, isinstance(exc, ValueError)]
    return [rows, len(out.active_set), False]


def _len_note(args, kwargs, out, exc):
    return None if exc is not None else len(out)


def _bytes_note(args, kwargs, out, exc):
    return None if exc is not None else len(out.encode())


# (span name, note, owners): each owner is an object whose attribute of the
# span's short name some caller looks up at call time.
TARGETS = (
    ("liecore.build_root_system", None, (orbits, cli)),
    ("liecore.weight_system", None, (orbits, cli)),
    ("liecore.invariant_form", None, (orbits, cli)),
    ("arrangement.chamber_hyperplanes", _len_note, (orbits, cli)),
    ("arrangement.enumerate_regions", _len_note, (arrangement, orbits, cli)),
    ("arrangement.region_weights", None, (orbits, cli)),
    ("ratlp.strict_interior", _interior_note, (ratlp,)),
    ("ratlp.closed_feasible", _feasible_note, (ratlp,)),
    ("minnorm.min_norm_point", _minnorm_note, (minnorm, orbits)),
    ("minnorm.verify_kkt", None, (minnorm,)),
    ("linalg.solve", None, (linalg,)),
    ("linalg.rank", None, (linalg,)),
    ("orbits.build", None, (orbits.RegionAnalysis,)),
    ("orbits.region_minimum", None, (orbits.RegionAnalysis,)),
    ("orbits.generic_jordan_partition", None, (orbits,)),
    ("orbits.characteristic", None, (orbits, cli)),
    ("jsonio.regions_doc", None, (jsonio,)),
    ("jsonio.dump_doc", _bytes_note, (jsonio,)),
    ("svg.render_arrangement", _bytes_note, (svg,)),
    ("cli.main", None, (cli,)),
)


class Tracer:
    """Records spans, in readings of `clock.now`, while installed; `job`
    tags the spans of one job."""

    def __init__(self, clock):
        self.spans: list[list] = []
        self.job = 0
        self._stack: list[int] = []
        self._now = clock.now

    def _wrap(self, name, fn, note):
        spans, stack, now = self.spans, self._stack, self._now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = now()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = now()
                stack.pop()
                if note is not None:
                    rec[NOTE] = note(args, kwargs, None, exc)
                raise
            rec[END] = now()
            stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, out, None)
            return out

        return traced

    @contextmanager
    def installed(self, job: int):
        """Wrap every target for the duration of the block."""
        self.job = job
        saved = []
        try:
            for name, note, owners in TARGETS:
                attr = name.split(".", 1)[1]
                for owner in owners:
                    orig = vars(owner)[attr]
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(name, orig.__func__, note))
                    else:
                        new = self._wrap(name, orig, note)
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self._stack.clear()


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, job: int, seconds) -> dict[str, float]:
    """Per-layer figures of one job's spans; seconds(start, end) gives a
    span's duration.

    A span's self time is its duration minus the durations of its direct
    child spans; `<layer>.self_s` sums that over the layer's spans, and
    `<layer>.s` sums the durations of the layer's outermost spans (those not
    inside another span of the same layer).  Ratios with no attempts read 0.
    """
    dur = [seconds(rec[START], rec[END]) if rec[JOB] == job else 0.0 for rec in spans]
    child = [0.0] * len(spans)
    for k, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur[k]
    total = dict.fromkeys(LAYERS, 0.0)
    own = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {name: [] for name, _, _ in TARGETS}
    count = 0
    for k, rec in enumerate(spans):
        if rec[JOB] != job:
            continue
        count += 1
        layer = _layer(rec[NAME])
        own[layer] += dur[k] - child[k]
        up = rec[PARENT]
        while up >= 0 and _layer(spans[up][NAME]) != layer:
            up = spans[up][PARENT]
        if up < 0:
            total[layer] += dur[k]
        by_name[rec[NAME]].append(k)

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(dur[k] for k in by_name[name])

    def notes(name):
        return [spans[k][NOTE] for k in by_name[name]]

    m = {"trace.spans": count}
    for layer in LAYERS:
        m[f"{layer}.s"] = total[layer]
        m[f"{layer}.self_s"] = own[layer]

    enum, pre = notes("ratlp.strict_interior"), notes("ratlp.closed_feasible")
    m["ratlp.enum_solves"] = len(enum)
    m["ratlp.enum_s"] = secs("ratlp.strict_interior")
    m["ratlp.enum_feasible_ratio"] = _ratio(sum(ok for _, ok in enum), len(enum))
    m["ratlp.precheck_solves"] = len(pre)
    m["ratlp.precheck_s"] = secs("ratlp.closed_feasible")
    m["ratlp.rows_mean"] = _mean([rows for rows, _ in enum + pre])

    m["arrangement.enumerate_s"] = secs("arrangement.enumerate_regions")
    m["arrangement.enumerate_self_s"] = sum(
        dur[k] - child[k] for k in by_name["arrangement.enumerate_regions"]
    )
    m["arrangement.regions"] = sum(n or 0 for n in notes("arrangement.enumerate_regions"))
    m["arrangement.hyperplanes"] = sum(n or 0 for n in notes("arrangement.chamber_hyperplanes"))
    m["arrangement.subspaces_s"] = secs("arrangement.region_weights")

    solves = notes("minnorm.min_norm_point")
    m["minnorm.solves"] = len(solves)
    m["minnorm.kkt_s"] = secs("minnorm.verify_kkt")
    m["minnorm.rows_mean"] = _mean([rows for rows, _, _ in solves])
    m["minnorm.active_mean"] = _mean([act for _, act, _ in solves if act is not None])
    m["minnorm.empty_detected"] = sum(empty for _, _, empty in solves)

    m["linalg.solve_calls"] = calls("linalg.solve")
    m["linalg.solve_s"] = secs("linalg.solve")
    m["linalg.rank_calls"] = calls("linalg.rank")
    m["linalg.rank_s"] = secs("linalg.rank")

    solved_in = {spans[k][PARENT] for k in by_name["minnorm.min_norm_point"]}
    minima = by_name["orbits.region_minimum"]
    m["orbits.build_s"] = secs("orbits.build")
    m["orbits.strata_calls"] = calls("orbits.generic_jordan_partition")
    m["orbits.strata_s"] = secs("orbits.generic_jordan_partition")
    m["orbits.characteristic_s"] = secs("orbits.characteristic")
    m["orbits.minima_hit_ratio"] = _ratio(
        sum(k not in solved_in for k in minima), len(minima)
    )

    m["jsonio.bytes"] = sum(n or 0 for n in notes("jsonio.dump_doc"))
    m["svg.bytes"] = sum(n or 0 for n in notes("svg.render_arrangement"))
    return m
