"""Exact minimum-norm points of convex polyhedra under an invariant form.

The minimizer of a positive-definite quadratic over {a : N a >= b} is
characterized by an active row set A and nonnegative multipliers lam with

    2 G a = N_A^T lam,   N_A a = b_A,   N a >= b.

min_norm_point finds it by a dual active-set iteration (Goldfarb & Idnani
1983): start from the unconstrained minimum 0 and bring in the first
violated row p.  Each step finds the direction z and the multiplier change
s of the working system Q z + N_A^T s = p, N_A z = 0 through its Schur
complement in the active normals: (N_A Q^-1 N_A^T) s = N_A Q^-1 p, then
z = Q^-1 (p - N_A^T s).  Q^-1 is formed once per form, so a step solves an
|A|-square system only.  The active normals stay independent (a row enters
only when p.z != 0), so the system has one solution.  The step is the
smaller of the full step gap / p.z, which makes p active, and the least
ratio lam_t / s_t over s_t > 0, which drops row t.  As p.z = z^T Q z, a
zero z leaves only the drop; with neither step the polyhedron is empty.

The iteration is fraction-free.  Each row (normal, bound) is scaled to ints
by linalg.integral once per polyhedron, Q = 2 G to an integer Hessian H
over its denominator h, and H^-1 to ints K over one denominator once per
form.  A positive scale of a row or of Q scales the steps gap / p.z and
lam_t / s_t of one iteration by one common factor, so every decision and
every iterate a is the one the same iteration over Fraction makes; a
multiplier of the scaled problem is lam * h / c for a row of scale c.  The
iterate and the multipliers share one positive denominator, a = X / D and
lam = L / D, with X and L integer vectors: row k is violated when
N_k . X < b_k D, each step gives z and s as ints over one denominator,
steps are compared by cross-multiplying, and after each step X, L, the
entering multiplier and D are divided by their gcd.  Only the result is read back as Fraction, and
its certificate is re-verified, on the same integer rows, before returning.

combine_union_minima takes the least of per-polyhedron minima over a union
and requires the minimizing point to be unique across all of them: several
polyhedra may attain the minimal norm, but at the same point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg, ratlp
from .liecore import InvariantForm, Point, norm_sq

Q = Fraction


def _dot(u, v) -> int:
    """The dot product over the shorter length, so an integral row's ints
    (normal, bound) dotted with a point give normal . point."""
    return sum(map(operator.mul, u, v))


@dataclass(frozen=True)
class Polyhedron:
    """{a : normal . a >= bound for every row}, in a fixed ambient rank.

    Each row keeps its entries as given, ints or Fractions."""

    rank: int
    rows: tuple[tuple[tuple[int | Q, ...], int | Q], ...]

    @classmethod
    def from_rows(cls, rows, rank: int) -> "Polyhedron":
        tidy = tuple((tuple(normal), bound) for normal, bound in rows)
        for normal, _ in tidy:
            if len(normal) != rank:
                raise ValueError("dimension mismatch")
        return cls(rank=rank, rows=tidy)

    @classmethod
    def from_region(cls, region, rank: int) -> "Polyhedron":
        return cls.from_rows(region.closure_ineqs, rank)

    @cached_property
    def integral_rows(self) -> list[tuple[list[int], int]]:
        """Each row as linalg.integral's (ints, c): ints = c * (normal, bound)."""
        return [linalg.integral((*normal, bound)) for normal, bound in self.rows]

    def is_empty(self) -> bool:
        return not ratlp.closed_feasible(list(self.rows), self.rank)

    def contains(self, point) -> bool:
        x, d = linalg.integral(point)
        return _contains(self.integral_rows, x, d)


def _contains(rows, x, d) -> bool:
    """Whether the point x / d (d > 0) satisfies every integral row."""
    return all(_dot(ints, x) >= ints[-1] * d for ints, _ in rows)


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
    failure, also under python -O.

    The check runs on the integral rows and Gram matrix: the point becomes
    X / D and the multipliers, lam * h / c per row for the Hessian
    H = 2 G over h, become L / E, once."""
    rows = poly.integral_rows
    x, d = linalg.integral(res.point)
    if not _contains(rows, x, d):
        raise AssertionError("candidate violates a constraint")
    g, h = form.integral_gram
    lams, e = linalg.integral(
        [Q(lam) * h / rows[k][1] for k, lam in zip(res.active_set, res.multipliers)]
    )
    combo = [0] * poly.rank
    for k, lam in zip(res.active_set, lams):
        if lam < 0:
            raise AssertionError("negative multiplier")
        ints, _ = rows[k]
        if _dot(ints, x) != ints[-1] * d:
            raise AssertionError("active row not tight")
        combo = [c + lam * v for c, v in zip(combo, ints)]
    # 2 G X / D == combo / E
    if any(2 * _dot(row, x) * e != c * d for row, c in zip(g, combo)):
        raise AssertionError("stationarity fails")
    if res.norm_sq != norm_sq(form, res.point):
        raise AssertionError("norm mismatch")


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
    rows = poly.integral_rows
    _, h = form.integral_gram
    # K / kden = H^-1 for the Hessian H = 2 G over h
    kinv, kden = form.integral_inverse_hessian

    x, d = [0] * n, 1  # the iterate x / d
    active: list[int] = []  # row indices into poly.rows
    lam: list[int] = []  # multipliers lam / d of the integral rows and H
    kn: list[list[int]] = []  # K N_t for each active row t
    entering = None
    for _ in range(10000):
        if entering is None:
            entering = next(
                (k for k, (ints, _) in enumerate(rows) if _dot(ints, x) < ints[-1] * d), None
            )
            if entering is None:
                break
            u = 0  # its multiplier u / d
            p, _ = rows[entering]  # p's normal and its bound p[-1]
            kp = [_dot(row, p) for row in kinv]
        # the working system H z + N_A^T s = p, N_A z = 0 through its Schur
        # complement: (N_A K N_A^T) s = N_A K p, then z = K (p - N_A^T s) / kden
        sol = linalg.solve_integral(
            [[_dot(rows[t][0], kb) for kb in kn] for t in active],
            [_dot(kb, p) for kb in kn],
        )
        if sol is None:
            raise AssertionError("singular working-set system")
        s, e = sol
        # z and s as ints over the one denominator kden * e
        z = [e * v for v in kp]
        for st, kb in zip(s, kn):
            if st:
                z = [zi - st * v for zi, v in zip(z, kb)]
        s = [kden * st for st in s]
        e *= kden
        g = math.gcd(e, *z, *s)
        if g > 1:
            z = [zi // g for zi in z]
            s = [st // g for st in s]
            e //= g
        # z / e and s / e: the full step (gap / d) / (pz / e) and each drop
        # ratio (lam_t / d) / (s_t / e) share the factor e / d, so the
        # least of them is found by cross-multiplying gap / pz and lam_t / s_t
        pz = _dot(p, z)
        k = None
        for t, st in enumerate(s):
            if st > 0 and (k is None or lam[t] * s[k] < lam[k] * st):
                k = t
        if k is None and not pz:
            raise ValueError("empty polyhedron")
        gap = p[-1] * d - _dot(p, x)
        full = pz != 0 and (k is None or gap * s[k] <= lam[k] * pz)
        num, den = (gap, pz) if full else (lam[k], s[k])
        # take the step (num / den) * (e / d) over the new denominator d * den
        x = [xi * den + num * zi for xi, zi in zip(x, z)]
        lam = [l * den - num * si for l, si in zip(lam, s)]
        u = u * den + num * e
        d *= den
        g = math.gcd(d, u, *x, *lam)
        if g > 1:
            x = [xi // g for xi in x]
            lam = [l // g for l in lam]
            u //= g
            d //= g
        if full:
            active.append(entering)
            lam.append(u)
            kn.append(kp)
            entering = None
        else:
            active.pop(k)
            lam.pop(k)
            kn.pop(k)
    else:
        raise RuntimeError("active-set iteration failed to settle")

    point = tuple(Q(xi, d) for xi in x)
    res = MinNormResult(
        point=point,
        norm_sq=norm_sq(form, point),
        active_set=tuple(active),
        # lam / d was lam * h / c for a row of scale c
        multipliers=tuple(Q(l * rows[t][1], h * d) for t, l in zip(active, lam)),
    )
    verify_kkt(poly, form, res)
    return res


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
