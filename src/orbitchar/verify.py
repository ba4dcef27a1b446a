"""Verification batteries behind the `verify` subcommand and acceptance tests.

Each battery cross-checks part of the pipeline against an independent oracle:

* example    -- the rank-2 demonstration module end-to-end against its known
                hyperplanes, regions, membership sets, and characteristics.
* dynkin     -- region-method characteristic labels against the classical
                weighted Dynkin diagram computed directly from partitions.
* theorem    -- injectivity of the characteristic map and agreement of the
                dense and nonempty modes for sl_n.
* sampling   -- region enumeration against dense random chamber sampling.
* minnorm    -- exact minimizers against random feasible points and an
                exact enumeration of candidate active sets; planted empty
                polyhedra refused by both.
* weights    -- weight multiplicity sums against the Weyl dimension formula,
                and the short-root support of the little adjoint module.
* lemma      -- saturation of region supports, b-stability of the spanned
                subspaces, nilpotency of sampled elements, and the exact
                generic strata of sl3-sl5 against the Jordan types of
                random elements, by orbits.jordan_type.
* catalan    -- adjoint region counts against the W-Catalan number
                prod (h + e + 1) / (e + 1), from exponents read off the
                heights of the positive roots.

All randomness is seeded, so every battery is deterministic.  Each battery
takes its sizes from its caller, with the defaults that `orbitchar verify`
runs, and refuses an empty size with ValueError rather than pass having
checked nothing; `run_suites(names, max_n=5)` passes max_n, the largest
sl_n, to dynkin and theorem, and checks it (at least 2) before any battery
runs.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .arrangement import is_saturated, region_weights
from .liecore import (
    InvariantForm,
    RootSystem,
    build_root_system,
    highest_roots,
    highest_short_root,
    norm_sq,
    weight_system,
    weyl_dim,
)
from .minnorm import Polyhedron, min_norm_point, verify_kkt
from .orbits import (
    AdjointSlModel,
    Example2x3Model,
    Module,
    Partition,
    RegionAnalysis,
    sl_position,
    sl_positions,
    characteristic,
    dominance_leq,
    jordan_type,
    m_sets,
    partitions_of,
    weighted_dynkin_from_partition,
)

Q = Fraction

DEFAULT_SEED = 20260817


@dataclass(frozen=True)
class VerifyRow:
    """One line of a verification report."""

    name: str
    ok: bool
    detail: str
    seconds: float

    def format(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"{flag}  {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _point(values) -> str:
    """A tuple of rationals as (4/3, 0) in a report."""
    return f"({', '.join(map(str, values))})"


def _row(name: str, started: float, problems: list[str], passed: str) -> VerifyRow:
    """A row that passes with the given text when there are no problems;
    a failing row shows its first four problems and counts the rest."""
    shown = problems[:4]
    if len(problems) > 4:
        shown.append(f"({len(problems) - 4} more)")
    return VerifyRow(
        name=name,
        ok=not problems,
        detail="; ".join(shown) if problems else passed,
        seconds=time.perf_counter() - started,
    )


# ------------------------------------------------------------------ example


def run_example() -> list[VerifyRow]:
    """End-to-end check of the rank-2 demonstration module."""
    started = time.perf_counter()
    problems: list[str] = []
    analysis = RegionAnalysis.build(Example2x3Model())
    if len(analysis.hyperplanes) != 4:
        problems.append(f"expected 4 hyperplanes, got {len(analysis.hyperplanes)}")
    if len(analysis.regions) != 6:
        problems.append(f"expected 6 regions, got {len(analysis.regions)}")
    hps = analysis.hyperplanes
    labels = analysis.model.region_labels({r.id: region_weights(hps, r) for r in analysis.regions})
    expected_tilde = {
        "O2": set(),
        "O3": {"II", "III"},
        "O4": {"IV", "V"},
        "O5": {"VI"},
    }
    for orbit, want in expected_tilde.items():
        _, dense = m_sets(analysis, orbit)
        got = {labels[r] for r in dense}
        if got != want:
            problems.append(f"tilde set of {orbit}: {sorted(got)} != {sorted(want)}")
    expected_points = {
        "O2": (2, 0),
        "O3": (1, 1),
        "O4": (2, 0),
        "O5": (2, 4),
    }
    for orbit, want in expected_points.items():
        ch = characteristic(analysis, orbit, mode="nonempty")
        if ch.point != want:
            problems.append(f"characteristic of {orbit}: {_point(ch.point)} != {_point(want)}")
    passed = "4 hyperplanes, 6 regions, membership sets and characteristics match"
    return [_row("example", started, problems, passed)]


# ------------------------------------------------------------------- dynkin


@lru_cache(maxsize=None)
def _characteristic_table(n: int):
    """Analysis plus both-mode characteristics for every partition of n.

    Each table is kept for the life of the process, so a test that plants a
    wrong answer beneath it calls _characteristic_table.cache_clear() before
    the plant and again after it."""
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    table = {}
    for p in partitions_of(n):
        table[p] = (
            characteristic(analysis, p, mode="nonempty"),
            characteristic(analysis, p, mode="dense"),
        )
    return analysis, table


def _sizes(sizes, battery: str) -> tuple:
    """A battery's sizes, refused when there are none: it would pass
    having checked nothing."""
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError(f"the {battery} battery needs at least one size")
    return sizes


def run_dynkin(ns=(2, 3, 4, 5)) -> list[VerifyRow]:
    """Characteristic labels vs the classical weighted Dynkin diagrams."""
    ns = _sizes(ns, "dynkin")
    rows = []
    for n in ns:
        started = time.perf_counter()
        problems = []
        _, table = _characteristic_table(n)
        for p, (loose, dense) in table.items():
            want = weighted_dynkin_from_partition(p)
            if loose.labels != want:
                problems.append(f"{p}: nonempty labels {_point(loose.labels)} != {_point(want)}")
            if dense is None or dense.labels != want:
                got = None if dense is None else _point(dense.labels)
                problems.append(f"{p}: dense labels {got} != {_point(want)}")
        passed = f"{len(table)} partitions of {n} match the classical diagrams"
        rows.append(_row(f"dynkin sl{n}", started, problems, passed))
    return rows


def run_theorem(ns=(2, 3, 4, 5)) -> list[VerifyRow]:
    """Injectivity of the characteristic map and dense/nonempty agreement."""
    ns = _sizes(ns, "theorem")
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in ns:
        _, table = _characteristic_table(n)
        points = {}
        for p, (loose, dense) in table.items():
            checked += 1
            if loose.point in points:
                problems.append(
                    f"sl{n}: {p} and {points[loose.point]} share point {_point(loose.point)}"
                )
            points[loose.point] = p
            if dense is None or dense.point != loose.point:
                problems.append(f"sl{n}: modes disagree at {p}")
    passed = f"characteristics injective and mode-independent over {checked} orbits"
    return [_row("theorem sl_n", started, problems, passed)]


# ----------------------------------------------------------------- sampling


def _named_arrangements() -> dict[str, RegionAnalysis]:
    """The five arrangements exercised by the sampling and lemma batteries."""

    def module(factors, little=False):
        rs = build_root_system(factors)
        return Module(rs, (highest_short_root(rs),) if little else highest_roots(rs))

    modules = {
        "example-2x3": Example2x3Model(),
        "A2 adjoint": module([("A", 2)]),
        "A3 adjoint": module([("A", 3)]),
        "B2 little-adjoint": module([("B", 2)], little=True),
        "G2 little-adjoint": module([("G", 2)], little=True),
    }
    return {name: RegionAnalysis.build(m) for name, m in modules.items()}


def run_sampling() -> list[VerifyRow]:
    """10,000 random chamber points per arrangement must match exactly one
    enumerated region each."""
    rows = []
    for name, analysis in _named_arrangements().items():
        started = time.perf_counter()
        rs, hps, regions = analysis.model.root_system, analysis.hyperplanes, analysis.regions
        sign_to_id = {r.signs: r.id for r in regions}
        problems = []
        if len(sign_to_id) != len(regions):
            problems.append("duplicate sign vectors across regions")
        rng = random.Random(DEFAULT_SEED)
        # The point with labels k/100 is h = C^-1 k / 100, and mu(h) is
        # root_coords(mu) . k / 100.  Each hyperplane becomes one integer row
        # (root_coords(mu), level) scaled by linalg.integral, and a draw
        # compares row . k with 100 * level on the numerators k.
        planes = [linalg.integral((*rs.root_coords(hp.weight), hp.level))[0] for hp in hps]
        tested = 0
        rejected = 0
        while tested < 10000 and not problems:
            k = [rng.randint(1, 400) for _ in range(rs.rank)]
            # dot stops at the rank, so the level column is left out of the product
            gaps = [linalg.dot(row, k) - 100 * row[-1] for row in planes]
            if 0 in gaps:
                rejected += 1
                continue
            signs = "".join("+" if g > 0 else "-" for g in gaps)
            if signs not in sign_to_id:
                h = tuple(linalg.solve(rs.cartan, [Q(x, 100) for x in k]))
                problems.append(f"point {_point(h)} has unlisted sign vector {signs}")
                break
            tested += 1
        passed = (
            f"{tested} chamber points each matched exactly one of "
            f"{len(regions)} regions ({rejected} on-hyperplane draws rejected)"
        )
        rows.append(_row(f"sampling {name}", started, problems, passed))
    return rows


# ------------------------------------------------------------------ minnorm


def _random_spd_form(rng, dim):
    lower = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i):
            lower[i][j] = rng.randint(-2, 2)
        lower[i][i] = rng.randint(1, 3)
    gram = tuple(tuple(map(Q, row)) for row in linalg.matmul(lower, linalg.transpose(lower)))
    return InvariantForm(gram=gram)


def _random_instance(rng):
    dim = rng.randint(1, 4)
    interior = tuple(Q(rng.randint(-300, 300), 100) for _ in range(dim))
    rows = []
    for _ in range(rng.randint(1, 10)):
        normal = tuple(rng.randint(-4, 4) for _ in range(dim))
        if not any(normal):
            normal = tuple(1 if k == 0 else 0 for k in range(dim))
        slack = Q(rng.randint(0, 200), 100)
        bound = linalg.dot(normal, interior) - slack
        rows.append((normal, bound))
    return dim, interior, Polyhedron.from_rows(rows, dim), _random_spd_form(rng, dim)


def _planted_empty(rng):
    """A _random_instance with the contradictory rows mu.a >= b and
    mu.a <= b - 1 inserted at random places: (polyhedron, form)."""
    _, _, poly, form = _random_instance(rng)
    mu = tuple(rng.randint(-3, 3) for _ in range(poly.rank))
    b = Q(rng.randint(-300, 300), 100)
    rows = list(poly.rows)
    for row in ((mu, b), (tuple(-m for m in mu), 1 - b)):
        rows.insert(rng.randint(0, len(rows)), row)
    return Polyhedron.from_rows(rows, poly.rank), form


def _feasible_sampler(interior, poly):
    """A draw(rng) of exactly feasible points: step from the interior point
    toward a random target k/100 until the first constraint boundary.

    A draw runs on integers.  It reads the rows as integral_rows, which
    changes no ratio gap/drop, and each row's value at the interior point is
    computed once.  draw returns (nums, den, (g, d)): the point nums/den and
    the step g/d, at most 1."""
    inner, scale = linalg.integral(interior)
    lcm = math.lcm(scale, 100)
    inner = [p * (lcm // scale) for p in inner]
    rows = []
    for (*normal, bound), _ in poly.integral_rows:
        at_interior = linalg.dot(normal, inner)
        rows.append((normal, at_interior, at_interior - bound * lcm))

    def draw(rng):
        target = [rng.randint(-600, 600) * (lcm // 100) for _ in inner]
        g, d = 1, 1
        for normal, at_interior, gap in rows:
            drop = at_interior - linalg.dot(normal, target)
            if drop > 0 and gap * d < g * drop:
                g, d = gap, drop
        nums = [p * d + g * (q - p) for p, q in zip(inner, target)]
        return nums, lcm * d, (g, d)

    return draw


def _norm_below(form, value):
    """A test whether the point nums/den has squared norm below value, made
    on integers, on the form's integral_gram."""
    gram, scale = form.integral_gram
    value = Q(value) * scale

    def below(nums, den):
        quad = linalg.dot(nums, [linalg.dot(row, nums) for row in gram])
        return quad * value.denominator < value.numerator * den * den

    return below


def enumerated_minimum(poly, form) -> tuple[Q, ...]:
    """The least-norm point of poly under form by exhaustive active-set
    enumeration: the reference of the minnorm battery.

    Every subset A of at most rank rows with independent normals gives one
    solution (a, lam) of the KKT system 2 G a = N_A^T lam, N_A a = b_A.  A
    point with lam >= 0 that satisfies every row is the minimizer, which is
    unique, so exactly one distinct point must pass; ValueError otherwise
    (none passes on an empty polyhedron).  Feasibility and the multiplier
    signs are checked here over Fraction, independently of min_norm_point
    and verify_kkt."""
    n, rows = poly.rank, poly.rows
    hessian = [[2 * g for g in row] for row in form.gram]
    points = set()
    for size in range(min(n, len(rows)) + 1):
        for subset in itertools.combinations(rows, size):
            normals = [normal for normal, _ in subset]
            if linalg.rank(normals) < size:
                continue
            kkt = [hessian[i] + [-normal[i] for normal in normals] for i in range(n)]
            kkt += [list(normal) + [0] * size for normal in normals]
            sol = linalg.solve(kkt, [0] * n + [bound for _, bound in subset])
            point = tuple(sol[:n])
            if all(lam >= 0 for lam in sol[n:]) and all(
                linalg.dot(normal, point) >= bound for normal, bound in rows
            ):
                points.add(point)
    if len(points) != 1:
        raise ValueError(f"{len(points)} KKT points, not the one minimizer")
    return points.pop()


def run_minnorm() -> list[VerifyRow]:
    """Exact minimizers vs feasible sampling and an exact active-set
    enumeration, then planted empty polyhedra that both must refuse.  A
    failed certificate or reference (AssertionError, ValueError or
    RuntimeError) is its instance's problem, and the next instance runs."""
    started = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    problems = []
    for k in range(100):
        _, interior, poly, form = _random_instance(rng)
        try:
            res = min_norm_point(poly, form)
            verify_kkt(poly, form, res)
            draw = _feasible_sampler(interior, poly)
            below = _norm_below(form, res.norm_sq)
            for _ in range(1000):
                nums, den, _ = draw(rng)
                if below(nums, den):
                    problems.append(f"instance {k}: sampled point beats the minimizer")
                    break
            reference = enumerated_minimum(poly, form)
        except (AssertionError, ValueError, RuntimeError) as e:
            problems.append(f"instance {k}: {type(e).__name__}: {e}")
            continue
        if reference != res.point or norm_sq(form, reference) != res.norm_sq:
            problems.append(
                f"instance {k}: minimizer {_point(res.point)} is not the enumerated "
                f"reference {_point(reference)}"
            )
    refusals = (
        (min_norm_point, "empty polyhedron"),
        (enumerated_minimum, "0 KKT points, not the one minimizer"),
    )
    for k in range(100, 120):
        poly, form = _planted_empty(rng)
        for solve, want in refusals:
            try:
                got = solve(poly, form)
            except (AssertionError, ValueError, RuntimeError) as e:
                got = e
            if type(got) is not ValueError or str(got) != want:
                problems.append(f"instance {k}: planted empty, {solve.__name__} gave {got!r}")
    passed = (
        "100 polyhedra: KKT certified, 1000 feasible samples each "
        "never beat the minimizer, which is the one KKT point of an exact "
        "active-set enumeration; 20 planted empty: refused, with no KKT point"
    )
    return [_row("minnorm", started, problems, passed)]


# ------------------------------------------------------------------ weights


_WEIGHT_POOL = [
    [("A", 1)],
    [("A", 2)],
    [("A", 3)],
    [("A", 4)],
    [("B", 2)],
    [("B", 3)],
    [("C", 3)],
    [("D", 3)],
    [("G", 2)],
    [("F", 4)],
    [("A", 1), ("A", 1)],
    [("A", 1), ("B", 2)],
    [("A", 2), ("A", 1)],
]


def run_weights() -> list[VerifyRow]:
    """Multiplicity sums vs the Weyl dimension formula; little adjoint support."""
    started = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    problems = []
    checked = []
    for _ in range(20):
        factors = rng.choice(_WEIGHT_POOL)
        rs = build_root_system(factors)
        cap = 2 if rs.rank >= 4 else 3
        lam = tuple(rng.randint(0, cap) for _ in range(rs.rank))
        if not any(lam):
            lam = tuple(1 if k == 0 else 0 for k in range(rs.rank))
        ws = weight_system(rs, (lam,))
        total = ws.dim()
        expected = weyl_dim(rs, lam)
        checked.append(expected)
        if total != expected:
            problems.append(f"{factors} {lam}: sum {total} != dim {expected}")
    sum_row = _row(
        "weights dimension-sum",
        started,
        problems,
        "20 random modules, multiplicity sums equal Weyl dimensions "
        f"(largest dim {max(checked)})",
    )

    started = time.perf_counter()
    problems = []
    for series, rank in (("B", 2), ("C", 3), ("F", 4), ("G", 2)):
        rs = build_root_system([(series, rank)])
        ws = weight_system(rs, (highest_short_root(rs),))
        nonzero = set(ws.entries)
        shorts = {
            w
            for root in rs.positive_roots
            if rs.is_short_root(root)
            for w in (root, tuple(-x for x in root))
        }
        if nonzero != shorts:
            problems.append(f"{series}{rank}: support != short roots")
    little_row = _row(
        "weights little-adjoint",
        started,
        problems,
        "nonzero weights equal the short roots for B2, C3, F4, G2",
    )
    return [sum_row, little_row]


# -------------------------------------------------------------------- lemma


def _random_element(support, n: int, rng) -> list[list[int]]:
    """An n x n matrix with draws from 1..100 on the sorted support, 0 elsewhere."""
    mat = [[0] * n for _ in range(n)]
    for i, j in sorted(support):
        mat[i][j] = rng.randint(1, 100)
    return mat


def sampled_jordan_types(i_r, n: int) -> list[Partition]:
    """Jordan types of three random integer elements of the span of the given
    sl_n roots, drawn with seeds 1, 2 and 3 and coefficients in 1..100.

    Each lies at or below the generic type in dominance order, and equals it
    unless its coefficients are a zero of some minor: the oracle for
    orbits.generic_jordan_partition."""
    support = {sl_position(mu, n) for mu in i_r}
    return [jordan_type(_random_element(support, n, random.Random(seed))) for seed in (1, 2, 3)]


def run_lemma() -> list[VerifyRow]:
    """Saturation of region supports; b-stability, nilpotency and generic
    strata in type A."""
    started = time.perf_counter()
    problems = []
    region_count = 0
    arrangements = _named_arrangements()
    for name, analysis in arrangements.items():
        for r in analysis.regions:
            region_count += 1
            if not is_saturated(analysis.ws, region_weights(analysis.hyperplanes, r)):
                problems.append(f"{name} region {r.id}: support not saturated")
    saturation_row = _row(
        "lemma saturation",
        started,
        problems,
        f"all {region_count} region supports saturated across "
        f"{len(arrangements)} arrangements",
    )

    started = time.perf_counter()
    problems = []
    stable_checks = 0
    nilpotent_checks = 0
    rng = random.Random(DEFAULT_SEED)
    for n in (3, 4):
        analysis = arrangements[f"A{n - 1} adjoint"]
        positions = sl_positions(n)
        by_position = {pos: w for w, pos in positions.items()}
        positive = analysis.model.root_system.positive_roots
        def unit(pos):
            mat = [[0] * n for _ in range(n)]
            mat[pos[0]][pos[1]] = 1
            return mat

        for r in analysis.regions:
            i_r = region_weights(analysis.hyperplanes, r)
            support = {positions[w] for w in i_r}
            # b-stability: bracketing with any positive root vector stays
            # inside; a pair of roots both in the support is checked once
            for mu in i_r:
                e_mu = unit(positions[mu])
                for gamma in positive:
                    if gamma in i_r and gamma < mu:
                        continue
                    e_gamma = unit(positions[gamma])
                    left = linalg.matmul(e_gamma, e_mu)
                    right = linalg.matmul(e_mu, e_gamma)
                    for i in range(n):
                        for j in range(n):
                            if left[i][j] == right[i][j]:
                                continue
                            if i == j:
                                problems.append(
                                    f"sl{n} region {r.id}: bracket hits the diagonal"
                                )
                            elif (i, j) not in support:
                                problems.append(
                                    f"sl{n} region {r.id}: [{gamma},{mu}] leaves "
                                    f"the subspace at {by_position[(i, j)]}"
                                )
                    stable_checks += 1
            # nilpotency of a random element supported on the region
            try:
                jordan_type(_random_element(support, n, rng))
            except ValueError:
                problems.append(f"sl{n} region {r.id}: sampled element not nilpotent")
            nilpotent_checks += 1
    stability_row = _row(
        "lemma b-stability",
        started,
        problems,
        f"{stable_checks} bracket checks stayed inside their subspaces; "
        f"{nilpotent_checks} sampled elements nilpotent",
    )

    started = time.perf_counter()
    problems = []
    region_count = 0
    for n in (3, 4, 5):
        analysis = RegionAnalysis.build(AdjointSlModel(n))
        for r in analysis.regions:
            region_count += 1
            exact = analysis.strata[r.id]
            samples = sampled_jordan_types(region_weights(analysis.hyperplanes, r), n)
            if not all(dominance_leq(p, exact) for p in samples):
                problems.append(f"sl{n} region {r.id}: not every sample of {samples} lies below {exact}")
            elif exact not in samples:
                problems.append(f"sl{n} region {r.id}: no sample of {samples} reaches {exact}")
    strata_row = _row(
        "lemma strata",
        started,
        problems,
        f"the exact strata of all {region_count} regions of sl3-sl5 dominate "
        "three random elements each, and one of the three attains them",
    )
    return [saturation_row, stability_row, strata_row]


# ------------------------------------------------------------------ catalan

CATALAN_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4")


def exponents(rs: RootSystem) -> list[int]:
    """The exponents of a simple root system, largest first: the dual
    partition of the numbers of positive roots of each height (Kostant
    1959), so the largest is the Coxeter number minus 1."""
    per_height = Counter(sum(c) for c in rs.positive_root_coords)
    counts = [per_height[k] for k in range(1, max(per_height) + 1)]
    return [sum(1 for c in counts if c >= i) for i in range(1, counts[0] + 1)]


def w_catalan(rs: RootSystem) -> Q:
    """The number of dominant regions of the level-2 adjoint arrangement
    of a simple root system: prod (h + e + 1) / (e + 1) over the exponents
    e, with h the Coxeter number (Shi 1997; Athanasiadis 2004), as a
    Fraction, so that exponents that do not give an integer show."""
    exps = exponents(rs)
    h = exps[0] + 1
    return math.prod(Q(h + e + 1, e + 1) for e in exps)


def run_catalan(names=CATALAN_TYPES) -> list[VerifyRow]:
    """Adjoint region counts of simple types against the W-Catalan number."""
    names = _sizes(names, "catalan")
    started = time.perf_counter()
    problems = []
    for name in names:
        rs = build_root_system([(name[0], int(name[1:]))])
        got = len(RegionAnalysis.build(Module(rs, highest_roots(rs))).regions)
        want = w_catalan(rs)
        if got != want:
            problems.append(f"{name}: {got} regions != {want}")
    passed = (
        f"adjoint region counts of {', '.join(names)} equal "
        "prod (h+e+1)/(e+1) over the exponents"
    )
    return [_row("catalan adjoint", started, problems, passed)]


# ------------------------------------------------------------------- driver


# each battery as a function of the largest sl_n of dynkin and theorem
SUITES = {
    "example": lambda max_n: run_example(),
    "dynkin": lambda max_n: run_dynkin(tuple(range(2, max_n + 1))),
    "theorem": lambda max_n: run_theorem(tuple(range(2, max_n + 1))),
    "sampling": lambda max_n: run_sampling(),
    "minnorm": lambda max_n: run_minnorm(),
    "weights": lambda max_n: run_weights(),
    "lemma": lambda max_n: run_lemma(),
    "catalan": lambda max_n: run_catalan(),
}

SUITE_ORDER = list(SUITES)


def run_suites(names, *, max_n: int = 5) -> list[VerifyRow]:
    """The rows of the named batteries, in the order named.  Every name and
    max_n are checked before any battery runs: ValueError names an unknown
    suite or a max_n below 2."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {SUITE_ORDER}")
    if max_n < 2:
        raise ValueError(f"max_n {max_n}: the largest sl_n must be at least 2")
    return [row for name in names for row in SUITES[name](max_n)]
