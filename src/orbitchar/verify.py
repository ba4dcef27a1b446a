"""Verification batteries behind the `verify` subcommand and acceptance tests.

Each battery cross-checks part of the pipeline against an independent oracle:

* example    -- the rank-2 demonstration module end-to-end against its known
                hyperplanes, regions, membership sets, and characteristics.
* dynkin     -- region-method characteristic labels against the classical
                weighted Dynkin diagram computed directly from partitions.
* theorem    -- injectivity of the characteristic map and agreement of the
                dense and nonempty modes for sl_n.
* sampling   -- region enumeration against dense random chamber sampling.
* minnorm    -- exact minimizers against random feasible points and a
                floating-point reference solver.
* weights    -- weight multiplicity sums against the Weyl dimension formula,
                and the short-root support of the little adjoint module.
* lemma      -- saturation of region supports, b-stability of the spanned
                subspaces, and nilpotency of sampled elements.

All randomness is seeded, so every battery is deterministic.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .arrangement import is_saturated
from .liecore import (
    InvariantForm,
    build_root_system,
    highest_roots,
    highest_short_root,
    weight_system,
    weyl_dim,
)
from .minnorm import Polyhedron, min_norm_point, verify_kkt
from .orbits import (
    AdjointSlModel,
    Example2x3Model,
    Module,
    RegionAnalysis,
    _sl_position,
    characteristic,
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


def _row(name: str, started: float, problems: list[str], passed: str) -> VerifyRow:
    """A row that passes with the given text when there are no problems."""
    return VerifyRow(
        name=name,
        ok=not problems,
        detail="; ".join(problems) if problems else passed,
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
    labels = analysis.model.region_labels(analysis.subspaces.values())
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
            problems.append(f"characteristic of {orbit}: {ch.point} != {want}")
    passed = "4 hyperplanes, 6 regions, membership sets and characteristics match"
    return [_row("example", started, problems, passed)]


# ------------------------------------------------------------------- dynkin


@lru_cache(maxsize=None)
def _characteristic_table(n: int):
    """Analysis plus both-mode characteristics for every partition of n."""
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    table = {}
    for p in partitions_of(n):
        table[p] = (
            characteristic(analysis, p, mode="nonempty"),
            characteristic(analysis, p, mode="dense"),
        )
    return analysis, table


def run_dynkin(ns=(2, 3, 4, 5)) -> list[VerifyRow]:
    """Characteristic labels vs the classical weighted Dynkin diagrams."""
    rows = []
    for n in ns:
        started = time.perf_counter()
        problems = []
        _, table = _characteristic_table(n)
        for p, (loose, dense) in table.items():
            want = weighted_dynkin_from_partition(p)
            if loose.labels != want:
                problems.append(f"{p}: nonempty labels {loose.labels} != {want}")
            if dense is None or dense.labels != want:
                got = None if dense is None else dense.labels
                problems.append(f"{p}: dense labels {got} != {want}")
        passed = f"{len(table)} partitions of {n} match the classical diagrams"
        rows.append(_row(f"dynkin sl{n}", started, problems, passed))
    return rows


def run_theorem(ns=(2, 3, 4, 5)) -> list[VerifyRow]:
    """Injectivity of the characteristic map and dense/nonempty agreement."""
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
                    f"sl{n}: {p} and {points[loose.point]} share point {loose.point}"
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
        "example-2x3": Module(build_root_system([("A", 1), ("A", 1)]), ((1, 1), (1, 0))),
        "A2 adjoint": module([("A", 2)]),
        "A3 adjoint": module([("A", 3)]),
        "B2 little-adjoint": module([("B", 2)], little=True),
        "G2 little-adjoint": module([("G", 2)], little=True),
    }
    return {name: RegionAnalysis.build(m) for name, m in modules.items()}


def run_sampling(points: int = 10000) -> list[VerifyRow]:
    """Random chamber points must match exactly one enumerated region each."""
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
        while tested < points and not problems:
            k = [rng.randint(1, 400) for _ in range(rs.rank)]
            # zip stops at the rank, so the level column is left out of the dot product
            gaps = [sum(a * b for a, b in zip(row, k)) - 100 * row[-1] for row in planes]
            if 0 in gaps:
                rejected += 1
                continue
            signs = "".join("+" if g > 0 else "-" for g in gaps)
            if signs not in sign_to_id:
                h = tuple(linalg.solve(rs.cartan, [Q(x, 100) for x in k]))
                problems.append(f"point {h} has unlisted sign vector {signs}")
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
    gram = tuple(
        tuple(
            Q(sum(lower[i][k] * lower[j][k] for k in range(dim)))
            for j in range(dim)
        )
        for i in range(dim)
    )
    return InvariantForm(gram=gram, factor_scales=(Q(1),) * dim)


def _random_instance(rng):
    dim = rng.randint(1, 4)
    interior = tuple(Q(rng.randint(-300, 300), 100) for _ in range(dim))
    rows = []
    for _ in range(rng.randint(1, 10)):
        normal = tuple(rng.randint(-4, 4) for _ in range(dim))
        if not any(normal):
            normal = tuple(1 if k == 0 else 0 for k in range(dim))
        slack = Q(rng.randint(0, 200), 100)
        bound = sum(Q(a) * b for a, b in zip(normal, interior)) - slack
        rows.append((normal, bound))
    return dim, interior, Polyhedron.from_rows(rows, dim), _random_spd_form(rng, dim)


def _feasible_sampler(interior, poly):
    """A draw(rng) of exactly feasible points: step from the interior point
    toward a random target k/100 until the first constraint boundary.

    A draw runs on integers.  Rows are scaled by linalg.integral, which
    changes no ratio gap/drop, and each row's value at the interior point is
    computed once.  draw returns (nums, den, (g, d)): the point nums/den and
    the step g/d, at most 1."""
    inner, scale = linalg.integral(interior)
    lcm = math.lcm(scale, 100)
    inner = [p * (lcm // scale) for p in inner]
    rows = []
    for normal, bound in poly.rows:
        *normal, bound = linalg.integral((*normal, bound))[0]
        at_interior = sum(a * p for a, p in zip(normal, inner))
        rows.append((normal, at_interior, at_interior - bound * lcm))

    def draw(rng):
        target = [rng.randint(-600, 600) * (lcm // 100) for _ in inner]
        g, d = 1, 1
        for normal, at_interior, gap in rows:
            drop = at_interior - sum(a * q for a, q in zip(normal, target))
            if drop > 0 and gap * d < g * drop:
                g, d = gap, drop
        nums = [p * d + g * (q - p) for p, q in zip(inner, target)]
        return nums, lcm * d, (g, d)

    return draw


def _norm_below(form, value):
    """A test whether the point nums/den has squared norm below value, made
    on integers: the Gram matrix is scaled by linalg.integral."""
    dim = len(form.gram)
    flat, scale = linalg.integral([x for row in form.gram for x in row])
    gram = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
    value = Q(value) * scale

    def below(nums, den):
        quad = sum(
            x * sum(g * y for g, y in zip(row, nums)) for x, row in zip(nums, gram)
        )
        return quad * value.denominator < value.numerator * den * den

    return below


def _float_reference(poly, form, interior):
    """Floating-point minimizer: trust-region solve, then a KKT polish on the
    active set the float solver itself identified.  Independent of the exact
    solver's computations."""
    import numpy as np
    from scipy.optimize import LinearConstraint, minimize

    dim = poly.rank
    gram = np.array([[float(x) for x in row] for row in form.gram])
    amat = np.array([[float(a) for a in normal] for normal, _ in poly.rows])
    bvec = np.array([float(b) for _, b in poly.rows])
    ref = minimize(
        lambda x: float(x @ gram @ x),
        np.array([float(v) for v in interior]),
        jac=lambda x: 2.0 * (gram @ x),
        hess=lambda x: 2.0 * gram,
        constraints=[LinearConstraint(amat, bvec, np.full(len(bvec), np.inf))],
        method="trust-constr",
        options={"xtol": 1e-12, "gtol": 1e-12, "maxiter": 2000},
    )
    if not ref.success:
        return None
    x = ref.x
    best_val = float(x @ gram @ x)
    best = x
    for tol in (1e-4, 1e-5, 1e-6, 1e-7):
        active = np.where(amat @ x - bvec < tol * (1.0 + np.abs(bvec)))[0]
        m = len(active)
        kkt = np.zeros((dim + m, dim + m))
        kkt[:dim, :dim] = 2.0 * gram
        if m:
            kkt[:dim, dim:] = -amat[active].T
            kkt[dim:, :dim] = amat[active]
        rhs = np.concatenate([np.zeros(dim), bvec[active]])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        cand = sol[:dim]
        if np.all(amat @ cand - bvec >= -1e-9):
            val = float(cand @ gram @ cand)
            if val <= best_val + 1e-9:
                best_val, best = val, cand
    return best


def run_minnorm() -> list[VerifyRow]:
    """Exact minimizers vs feasible sampling and a float reference solver."""
    import numpy as np

    started = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    problems = []
    worst_gap = 0.0
    for k in range(100):
        dim, interior, poly, form = _random_instance(rng)
        res = min_norm_point(poly, form)
        verify_kkt(poly, form, res)
        draw = _feasible_sampler(interior, poly)
        below = _norm_below(form, res.norm_sq)
        for _ in range(1000):
            nums, den, _ = draw(rng)
            if below(nums, den):
                problems.append(f"instance {k}: sampled point beats the minimizer")
                break
        reference = _float_reference(poly, form, interior)
        if reference is None:
            problems.append(f"instance {k}: reference solver failed")
            continue
        gap = max(abs(float(v) - x) for v, x in zip(res.point, reference))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            problems.append(
                f"instance {k}: reference point differs by {gap:.2e} > 1e-6"
            )
    passed = (
        "100 polyhedra: KKT certified, 1000 feasible samples each "
        f"never beat the minimizer, float reference within {worst_gap:.1e}"
    )
    return [_row("minnorm", started, problems[:4], passed)]


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
            for w in _all_root_weights(rs)
            if rs.root_length_sq(w) < 2
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


def _all_root_weights(rs):
    return [w for w in rs.positive_roots] + [
        tuple(-x for x in w) for w in rs.positive_roots
    ]


# -------------------------------------------------------------------- lemma


def run_lemma() -> list[VerifyRow]:
    """Saturation of region supports; b-stability and nilpotency in type A."""
    started = time.perf_counter()
    problems = []
    region_count = 0
    arrangements = _named_arrangements()
    for name, analysis in arrangements.items():
        for sub in analysis.subspaces.values():
            region_count += 1
            if not is_saturated(analysis.ws, sub.i_r):
                problems.append(f"{name} region {sub.region_id}: support not saturated")
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
        rs = analysis.model.root_system
        positions = {w: _sl_position(w, n) for w in _all_root_weights(rs)}
        by_position = {pos: w for w, pos in positions.items()}
        positive = list(rs.positive_roots)
        def unit(pos):
            mat = [[0] * n for _ in range(n)]
            mat[pos[0]][pos[1]] = 1
            return mat

        for r in analysis.regions:
            i_r = analysis.subspaces[r.id].i_r
            support = {positions[w] for w in i_r}
            # b-stability: bracketing with any positive root vector stays inside
            for mu in i_r:
                e_mu = unit(positions[mu])
                for gamma in positive:
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
            mat = [[0] * n for _ in range(n)]
            for (i, j) in sorted(support):
                mat[i][j] = rng.randint(1, 100)
            power = mat
            for _ in range(n - 1):
                power = linalg.matmul(power, mat)
            if any(any(row) for row in power):
                problems.append(f"sl{n} region {r.id}: sampled element not nilpotent")
            nilpotent_checks += 1
    stability_row = _row(
        "lemma b-stability",
        started,
        problems[:4],
        f"{stable_checks} bracket checks stayed inside their subspaces; "
        f"{nilpotent_checks} sampled elements nilpotent",
    )
    return [saturation_row, stability_row]


# ------------------------------------------------------------------- driver


SUITES = {
    "example": lambda opts: run_example(),
    "dynkin": lambda opts: run_dynkin(tuple(range(2, opts.get("max_n", 5) + 1))),
    "theorem": lambda opts: run_theorem(tuple(range(2, opts.get("max_n", 5) + 1))),
    "sampling": lambda opts: run_sampling(points=opts.get("points", 10000)),
    "minnorm": lambda opts: run_minnorm(),
    "weights": lambda opts: run_weights(),
    "lemma": lambda opts: run_lemma(),
}

SUITE_ORDER = list(SUITES)


def run_suites(names, **opts) -> list[VerifyRow]:
    rows = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_ORDER}")
        rows.extend(SUITES[name](opts))
    return rows
