"""Exact minimum-norm points of convex polyhedra under an invariant form.

The minimizer of a positive-definite quadratic over {a : N a >= b} is
characterized by an active row set A and nonnegative multipliers lam with

    2 G a = N_A^T lam,   N_A a = b_A,   N a >= b.

dual_loop finds it by a dual active-set iteration (Goldfarb & Idnani
1983): start from a dual-feasible state, such as the unconstrained minimum
0 or the minimizer over some of the rows, and bring in a violated row p.
The method leaves the choice open; as in Goldfarb and Idnani's own
implementation, p is the most violated row: the one with the largest
v^2 / (n^T Q^-1 n) for v = b - n . a, which is proportional to the squared
distance, in the form's metric, from the iterate to the row's hyperplane;
ties go to the lowest index.  Each step finds the direction z and the
multiplier change s of the working system Q z + N_A^T s = p, N_A z = 0
through its Schur complement in the active normals:
(N_A Q^-1 N_A^T) s = N_A Q^-1 p, then z = Q^-1 (p - N_A^T s).  Q^-1 is
formed once per form, and the Schur matrix is kept across steps: the
right side N_A Q^-1 p is formed once per entering row, and is also the
row and column the matrix gains when p becomes active (Q^-1 is symmetric);
a dropped row takes its row and column with it.  So a step forms no
product of two active rows and solves one |A|-square system.  The
active normals stay independent (a row enters only when p.z != 0), so the
system has one solution.  The step is the smaller of the full step
gap / p.z, which makes p active, and the least ratio lam_t / s_t over
s_t > 0, which drops row t.  As p.z = z^T Q z, a zero z leaves only the
drop.  With neither step, N_A^T s = p and s <= 0, so y = (1 at p, -s_t at
each active row t) is a Farkas vector: y.N = 0, and y.b > 0 as the active
rows are tight at the iterate and p is violated there.

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
entering multiplier and D are divided by their gcd.  The entering rule
compares v_i^2 q_j > v_j^2 q_i for v = b D - N . X and q = N K N on the
integral rows; a row's scale c multiplies its v by c and its q by c^2, and
D multiplies every v alike, so the choice is again the one over Fraction.
Only the result is read back as Fraction, its norm as X^T G X / (h D^2)
from the integral Gram matrix G over h, and its certificate is re-verified
on the same integer rows before returning: verify_kkt reads the
multipliers as ints over one denominator and checks stationarity and the
norm on ints; the point check is linalg's `satisfies`, as in the one ratlp
closed_feasible row check on the minimizer.  At the empty exit check_farkas
checks y (times the denominator of s) on the integral rows: no LP.
dual_loop never changes its start, so states may be shared; min_norm_point
never trusts its start, since those checks pass only at the minimizer.

combine_union_minima takes the least of per-polyhedron minima over a union
and requires the minimizing point to be unique across all of them: several
polyhedra may attain the minimal norm, but at the same point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import linalg, ratlp
from .linalg import dot, satisfies
from .liecore import InvariantForm, Point

Q = Fraction


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

    @cached_property
    def integral_rows(self) -> list[tuple[list[int], int]]:
        """Each row as linalg.integral's (ints, c): ints = c * (normal, bound)."""
        return [linalg.integral((*normal, bound)) for normal, bound in self.rows]


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

    The point must have the polyhedron's rank, and the active set must name
    distinct rows by their indices, one multiplier each.  The check runs on
    the integral rows and Gram matrix G over h: the point becomes X / D and
    the multipliers L / e, so the multiplier lam * h / c_k of active row k
    (scale c_k) for the Hessian H = 2 G over h is L_k h (C / c_k) / (e C)
    over C = lcm(c_k).  Stationarity and the norm X^T G X / (h D^2) are
    checked on these ints."""
    rows, active = poly.integral_rows, res.active_set
    if len(res.point) != poly.rank:
        raise AssertionError("point of the wrong length")
    if len(active) != len(res.multipliers):
        raise AssertionError("active set and multipliers differ in length")
    if any(not 0 <= k < len(rows) for k in active):
        raise AssertionError("active row index out of range")
    if len(set(active)) != len(active):
        raise AssertionError("active row repeated")
    x, d = linalg.integral(res.point)
    if not satisfies(rows, x, d):
        raise AssertionError("candidate violates a constraint")
    g, h = form.integral_gram
    lams, e = linalg.integral(res.multipliers)
    c = math.lcm(*[rows[k][1] for k in active])
    combo = [0] * poly.rank
    for k, lam in zip(active, lams):
        if lam < 0:
            raise AssertionError("negative multiplier")
        ints, ck = rows[k]
        if dot(ints, x) != ints[-1] * d:
            raise AssertionError("active row not tight")
        lam *= h * (c // ck)
        combo = [v + lam * w for v, w in zip(combo, ints)]
    # 2 G X / D == combo / (e C)
    gx = [dot(row, x) for row in g]
    if any(2 * v * e * c != w * d for v, w in zip(gx, combo)):
        raise AssertionError("stationarity fails")
    [num], den = linalg.integral([res.norm_sq])
    if num * h * d * d != den * dot(x, gx):
        raise AssertionError("norm mismatch")


def _most_violated(rows, x, d, kinv, q) -> int | None:
    """The violated integral row k with the largest v_k^2 / q_k, where
    v_k = b_k D - N_k . X and q_k = N_k K N_k; the lowest index on ties, None
    when no row is violated.

    Rows are compared by cross-multiplying, v_i^2 q_j > v_j^2 q_i, so a
    violated zero normal (q = 0) outranks every nonzero one and ends the
    iteration at the empty exit.  q is filled in lazily: a row's q is formed
    only once a second violated row competes with it."""
    best = None
    for k, (ints, _) in enumerate(rows):
        v = ints[-1] * d - dot(ints, x)
        if v <= 0:
            continue
        if best is not None:
            for t in (best, k):
                if t not in q:
                    kt = rows[t][0]
                    q[t] = dot(kt, [dot(row, kt) for row in kinv])
            if v * v * q[best] <= vb * vb * q[k]:
                continue
        best, vb = k, v
    return best


class DualState(NamedTuple):
    """The dual loop's iterate X / D, active rows (indices into its rows),
    multipliers L / D, columns K N_t and Schur matrix N_A K N_A^T.  dual_loop
    copies a start's lists before it changes them, so states may be shared."""

    x: Sequence[int]
    d: int
    active: Sequence[int]
    lam: Sequence[int]
    kn: Sequence[Sequence[int]]
    schur: Sequence[Sequence[int]]

    @classmethod
    def origin(cls, rank: int) -> "DualState":
        return cls((0,) * rank, 1, (), (), (), ())


def dual_loop(rows, form: InvariantForm, start: DualState | None) -> DualState:
    """The end state of the dual iteration on integral rows, linalg.integral's
    (ints, c), from a dual-feasible start or, for None, the origin;
    ValueError at the certified empty exit."""
    # Rows are read as given: a duplicate of an active row or a zero row with
    # bound <= 0 is never violated; a zero row with bound > 0 is never
    # satisfied, enters first and ends in the empty exit.
    # K / kden = H^-1 for the Hessian H = 2 G over h
    kinv, kden = form.integral_inverse_hessian

    # the iterate x / d; the active rows, indices into rows; their
    # multipliers lam / d for the integral rows and H; K N_t for each active
    # row t; and N_A K N_A^T, a row and column per active row
    if start is None:
        x, d, active, lam, kn, schur = [0] * len(kinv), 1, [], [], [], []
    else:
        x, d, active, lam, kn = start.x, start.d, list(start.active), list(start.lam), list(start.kn)
        schur = [list(row) for row in start.schur]
    q: dict[int, int] = {}  # N_k K N_k, formed when row k first competes
    entering = None
    for _ in range(10000):
        if entering is None:
            entering = _most_violated(rows, x, d, kinv, q)
            if entering is None:
                break
            u = 0  # its multiplier u / d
            p, _ = rows[entering]  # p's normal and its bound p[-1]
            kp = [dot(row, p) for row in kinv]
            kap = [dot(kb, p) for kb in kn]  # N_A K p
        # the working system H z + N_A^T s = p, N_A z = 0 through its Schur
        # complement: (N_A K N_A^T) s = N_A K p, then z = K (p - N_A^T s) / kden
        sol = linalg.solve_integral(schur, kap)
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
        pz = dot(p, z)
        k = None
        for t, st in enumerate(s):
            if st > 0 and (k is None or lam[t] * s[k] < lam[k] * st):
                k = t
        if k is None and not pz:
            # the docstring's Farkas vector, on p and the active rows
            y = [e, *(-st for st in s)]
            try:
                linalg.check_farkas([rows[t] for t in (entering, *active)], y)
            except AssertionError as exc:
                raise AssertionError("empty exit on a nonempty polyhedron") from exc
            raise ValueError("empty polyhedron")
        gap = p[-1] * d - dot(p, x)
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
            # K is symmetric, so p's new column N_A K p is its new row, kap
            for row, v in zip(schur, kap):
                row.append(v)
            schur.append([*kap, dot(p, kp)])
            active.append(entering)
            lam.append(u)
            kn.append(kp)
            entering = None
        else:
            for row in schur:
                del row[k]
            for kept in (active, lam, kn, kap, schur):
                del kept[k]
    else:
        raise RuntimeError("active-set iteration failed to settle")
    return DualState(x, d, active, lam, kn, schur)


def min_norm_point(poly: Polyhedron, form: InvariantForm, start: DualState | None = None) -> MinNormResult:
    """The unique point of least squared norm; ValueError if poly is empty,
    certified by the loop's own Farkas vector.  The loop starts at start, a
    state over poly's rows, or at the origin; its minimizer passes the row
    check `ratlp.closed_feasible` and then `verify_kkt`, with no LP."""
    n = poly.rank
    if len(form.gram) != n:
        raise ValueError("dimension mismatch")
    rows = poly.integral_rows
    if start is not None and (len(start.x) != n or any(not 0 <= k < len(rows) for k in start.active)):
        raise ValueError("start outside the polyhedron's rows or rank")
    x, d, active, lam, _, _ = dual_loop(rows, form, start)
    point = tuple(Q(xi, d) for xi in x)
    # perfbench/test_smoke.py pins this call through its (53, 14) counts.
    if not ratlp.closed_feasible(rows, n, point):
        raise AssertionError("a minimizer of an empty polyhedron")
    gram, h = form.integral_gram
    res = MinNormResult(
        point=point,
        # X^T G X / (h D^2)
        norm_sq=Q(dot(x, [dot(row, x) for row in gram]), h * d * d),
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
