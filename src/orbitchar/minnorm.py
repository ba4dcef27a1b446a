"""Exact minimum-norm points of convex polyhedra under an invariant form.

The minimizer of a positive-definite quadratic over {a : N a >= b} is
characterized by an active row set A and nonnegative multipliers lam with

    2 G a = N_A^T lam,   N_A a = b_A,   N a >= b.

min_norm_point finds it by a dual active-set iteration (Goldfarb & Idnani
1983): start from the unconstrained minimum 0 and bring in the first
violated row p.  Each step solves Q z + N_A^T s = p, N_A z = 0 and takes
the smaller of the full step gap / p.z, which makes p active, and the least
ratio lam_t / s_t over s_t > 0, which drops row t.  As p.z = z^T Q z, a
zero z leaves only the drop; with neither step the polyhedron is empty.
Every step is exact over Fraction and the returned certificate is
re-verified before returning.

min_norm_point_enumerate solves the same problem by enumerating candidate
active sets; it is kept as an independent cross-check oracle.

min_over_union takes the minimum over a union of polyhedra and requires the
minimizing point to be unique across of all of them: several polyhedra may
attain the minimal norm, but at the same point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, ratlp
from .liecore import InvariantForm, Point, norm_sq

Q = Fraction


@dataclass(frozen=True)
class Polyhedron:
    """{a : normal . a >= bound for every row}, in a fixed ambient rank."""

    rank: int
    rows: tuple[tuple[tuple[Q, ...], Q], ...]

    @classmethod
    def from_rows(cls, rows, rank: int) -> "Polyhedron":
        tidy = tuple(
            (tuple(Q(v) for v in normal), Q(bound)) for normal, bound in rows
        )
        for normal, _ in tidy:
            if len(normal) != rank:
                raise ValueError("dimension mismatch")
        return cls(rank=rank, rows=tidy)

    @classmethod
    def from_region(cls, region, rank: int) -> "Polyhedron":
        return cls.from_rows(region.closure_ineqs, rank)

    def is_empty(self) -> bool:
        return not ratlp.closed_feasible(list(self.rows), self.rank)

    def contains(self, point) -> bool:
        return all(
            sum((Q(v) * Q(x) for v, x in zip(normal, point)), Q(0)) >= bound
            for normal, bound in self.rows
        )


@dataclass(frozen=True)
class MinNormResult:
    """Minimizer with its exact first-order certificate (row indices into
    the polyhedron's rows and their multipliers)."""

    point: Point
    norm_sq: Q
    active_set: tuple[int, ...]
    multipliers: tuple[Q, ...]


class MinNormTieError(RuntimeError):
    """Minimal norm attained at distinct points of a union."""

    def __init__(self, points):
        self.points = points
        super().__init__(f"minimum attained at distinct points: {points}")


def verify_kkt(poly: Polyhedron, form: InvariantForm, res: MinNormResult) -> None:
    """Check the exact optimality certificate; raises AssertionError on
    failure, also under python -O."""
    a = res.point
    n = poly.rank
    if not poly.contains(a):
        raise AssertionError("candidate violates a constraint")
    grad = [
        sum((2 * form.gram[i][j] * a[j] for j in range(n)), Q(0)) for i in range(n)
    ]
    combo = [Q(0)] * n
    for k, lam in zip(res.active_set, res.multipliers):
        if lam < 0:
            raise AssertionError("negative multiplier")
        normal, bound = poly.rows[k]
        if sum((Q(v) * a[j] for j, v in enumerate(normal)), Q(0)) != bound:
            raise AssertionError("active row not tight")
        for j in range(n):
            combo[j] += lam * normal[j]
    if combo != grad:
        raise AssertionError("stationarity fails")
    if res.norm_sq != norm_sq(form, a):
        raise AssertionError("norm mismatch")


def _clean_rows(poly: Polyhedron):
    """Deduplicate rows, dropping vacuous ones; detect trivial emptiness."""
    seen = {}
    for k, (normal, bound) in enumerate(poly.rows):
        if not any(normal):
            if bound > 0:
                raise ValueError("empty polyhedron")
            continue
        key = (normal, bound)
        if key not in seen:
            seen[key] = k
    return [(k, normal, bound) for (normal, bound), k in seen.items()]


def min_norm_point(poly: Polyhedron, form: InvariantForm) -> MinNormResult:
    """The unique point of least squared norm in a nonempty polyhedron."""
    n = poly.rank
    if len(form.gram) != n:
        raise ValueError("dimension mismatch")
    # perfbench/test_smoke.py pins this precheck LP through its (53, 14) counts.
    if poly.is_empty():
        raise ValueError("empty polyhedron")
    # Rows are read as given: a duplicate of an active row or a zero row with
    # bound <= 0 is never violated; a zero row with bound > 0 is never
    # satisfied and ends in the empty exit.
    rows = poly.rows
    q = [[2 * form.gram[i][j] for j in range(n)] for i in range(n)]

    def dot(normal, vec):
        return sum((v * xi for v, xi in zip(normal, vec)), Q(0))

    x = [Q(0)] * n
    active: list[int] = []  # row indices into poly.rows
    lam: list[Q] = []
    entering = None
    for _ in range(10000):
        if entering is None:
            entering = next(
                (k for k, (normal, bound) in enumerate(rows) if dot(normal, x) < bound),
                None,
            )
            if entering is None:
                break
            u = Q(0)
        p_normal, p_bound = rows[entering]
        normals = [rows[k][0] for k in active]
        mat = [q[i] + [normal[i] for normal in normals] for i in range(n)]
        mat += [list(normal) + [0] * len(normals) for normal in normals]
        sol = linalg.solve(mat, list(p_normal) + [0] * len(normals))
        if sol is None:
            raise AssertionError("singular working-set system")
        z, s = sol[:n], sol[n:]
        pz = dot(p_normal, z)
        t2 = (p_bound - dot(p_normal, x)) / pz if pz else None
        drops = [(lam[t] / s[t], t) for t in range(len(active)) if s[t] > 0]
        t1, k = min(drops) if drops else (None, None)
        if t1 is None and t2 is None:
            raise ValueError("empty polyhedron")
        full = t2 is not None and (t1 is None or t2 <= t1)
        step = t2 if full else t1
        x = [xi + step * zi for xi, zi in zip(x, z)]
        lam = [l - step * si for l, si in zip(lam, s)]
        u += step
        if full:
            active.append(entering)
            lam.append(u)
            entering = None
        else:
            active.pop(k)
            lam.pop(k)
    else:
        raise RuntimeError("active-set iteration failed to settle")

    point = tuple(x)
    res = MinNormResult(
        point=point,
        norm_sq=norm_sq(form, point),
        active_set=tuple(active),
        multipliers=tuple(lam),
    )
    verify_kkt(poly, form, res)
    return res


def min_norm_point_enumerate(
    poly: Polyhedron, form: InvariantForm, max_size=None, independent_only=True
) -> MinNormResult:
    """Oracle solver: try candidate active subsets of rows and keep the best
    point passing the exact certificate."""
    n = poly.rank
    rows = _clean_rows(poly)
    if max_size is None:
        max_size = n
    q = [[2 * form.gram[i][j] for j in range(n)] for i in range(n)]
    best: MinNormResult | None = None
    for size in range(0, min(max_size, len(rows)) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            normals = [rows[t][1] for t in subset]
            if independent_only and linalg.rank(normals) < size:
                continue
            mat = [q[i] + [-normal[i] for normal in normals] for i in range(n)]
            mat += [list(normal) + [0] * size for normal in normals]
            rhs = [0] * n + [rows[t][2] for t in subset]
            sol = linalg.solve(mat, rhs)
            if sol is None:
                continue
            a, mult = sol[:n], sol[n:]
            if any(l < 0 for l in mult):
                continue
            cand = MinNormResult(
                point=tuple(a),
                norm_sq=norm_sq(form, tuple(a)),
                active_set=tuple(rows[t][0] for t in subset),
                multipliers=tuple(mult),
            )
            try:
                verify_kkt(poly, form, cand)
            except AssertionError:
                continue
            if best is None or cand.norm_sq < best.norm_sq:
                best = cand
    if best is None:
        raise ValueError("no certified point; polyhedron may be empty")
    return best


@dataclass(frozen=True)
class UnionMinResult:
    point: Point
    norm_sq: Q
    achieving: tuple[int, ...]


def combine_union_minima(results) -> UnionMinResult:
    """Select the least norm among per-polyhedron minima.

    The achieving indices are all entries attaining the least norm; their
    minimizing points must coincide, otherwise MinNormTieError is raised.
    """
    results = list(results)
    if not results:
        raise ValueError("empty union")
    least = min(r.norm_sq for r in results)
    achieving = [k for k, r in enumerate(results) if r.norm_sq == least]
    points = {results[k].point for k in achieving}
    if len(points) > 1:
        raise MinNormTieError(sorted(points))
    return UnionMinResult(
        point=results[achieving[0]].point,
        norm_sq=least,
        achieving=tuple(achieving),
    )


def min_over_union(polyhedra, form: InvariantForm) -> UnionMinResult:
    """Minimum-norm point over a union of polyhedra (see combine_union_minima)."""
    polyhedra = list(polyhedra)
    if not polyhedra:
        raise ValueError("empty union")
    return combine_union_minima(min_norm_point(p, form) for p in polyhedra)
