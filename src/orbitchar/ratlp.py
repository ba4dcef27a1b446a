"""Exact rational feasibility by phase 1 of the simplex on a condensed
fraction-free dictionary.

Systems are stated as rows normal.x >= bound with x free.  Phase 1 runs on
x = x+ - x-, a surplus s_i and an artificial a_i per row, each row
multiplied by sign_i = +-1 so that its rhs is >= 0, and minimizes the sum
of the artificials.  Bland's rule ranks the columns x+, x-, s, a: the first
with a negative reduced cost enters, the least ratio (by cross-multiplying)
leaves, ties go to the least basis index.

Row operations keep x-_j = -x+_j and a_i = -sign_i s_i, so a row stores n + 2
ints: its entries at the n nonbasic pairs' columns x+_j or s_i (its slots),
its basic column's positive coefficient d, and its rhs.  The objective row
holds instead of d the factor alpha of its cost: the reduced cost of a_i is
alpha - sign_i obj[s_i], that of s_i is sign_i alpha while a_i is basic
(s_i then replaces a_i in its row alone).  Each row is the true row times a
positive factor (linalg's invariant); a pivot is an exchange by linalg's
`eliminate`, with the gcd of the full tableau's row, so each constraint row
holds the full tableau's ints at its stored columns and the pivots are those
of the same simplex over Fraction.  Values are rhs over d.

The objective is bounded below by 0, so the run ends optimal, and either
answer carries a certificate checked on ints, also under python -O: a zero
residual gives the basic point X / D, checked against every row; a positive
one gives a Farkas vector y >= 0, y != 0 with y.N = 0 and y.b > 0, read from
the final objective row.

A run starts from a dictionary.  The cold start is the artificial basis on
every row.  A warm start adds rows to a dictionary of other rows, as a
constraint is added to an optimal dictionary (Chvatal, Linear Programming,
1983): each new row is taken at the nonbasic columns, with every basic
x+-_j substituted by its row, multiplied by the sign of its rhs and given
its artificial as basic column, priced into the objective; the artificial
indices shift by one per row.  The cold start is this on the dictionary of
no rows.  Either way the result is a dictionary of the phase-1 problem of
all the rows, in the order they were added, with every basic value >= 0, so
phase 1 runs from it unchanged.  From a warm start it can end at another
vertex than from the cold one; of the warm LPs with a point in the region
enumeration of the adjoint module, 2 of 143 do on A4, 330 of 1,871 on A6,
117 of 1,413 on B5 and 22 of 763 on F4.  The certificates do not depend on
the start: at the end the objective row is the reduced-cost row of the
final basis, whatever the path, so at a positive residual its entries at
the surplus columns are >= 0 and at the free x pairs 0, which is what makes
them a Farkas vector; and both certificates are checked against the rows
of the dictionary itself.

`closed_feasible` asks this of the rows themselves, `strict_interior` of
their homogenization: N x > b has a point exactly when N y - b s >= 1,
s >= 1 has one (Motzkin's transposition theorem), and then x = y / s.  A
point of the homogenized rows satisfies every row of N x > b with slack at
least 1 / s, and a Farkas vector of them is a Motzkin certificate that
N x > b has no point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .linalg import eliminate, integral

Q = Fraction


def _stored(col, n, signs):
    """The stored column of col's pair and s = +-1 with col = s * stored."""
    m = len(signs)
    if col < n or 2 * n <= col < 2 * n + m:
        return col, 1
    if col < 2 * n:
        return col - n, -1
    return col - m, -signs[col - 2 * n - m]


def _price(obj, row, k):
    """obj with a column of reduced cost k * alpha cleared by the row in
    which it is basic; alpha = obj[n] is multiplied by the row's d."""
    n = len(row) - 2
    piv = row if k == 1 else [k * x for x in row[:n]] + [row[n], k * row[-1]]
    return eliminate(obj, piv, n, -row[n])


def _entering(obj, slots, basis, signs):
    """Bland's entering column: the least column with a negative reduced cost."""
    n, m = len(slots), len(signs)
    cols = []
    for c, j in enumerate(slots):
        v = obj[c]
        if v < 0:
            cols.append(j)
        elif v > 0 and j < n:
            cols.append(n + j)
        elif j >= n and signs[j - 2 * n] * v > obj[n]:
            cols.append(j + m)
    cols += [b - m for b in basis if b >= 2 * n + m and signs[b - 2 * n - m] < 0]
    return min(cols, default=None)


def _pivot(rows, basis, slots, signs, r, col, obj):
    """Bring col into the basis at row r; returns the updated objective row."""
    n = len(slots)
    row, out = rows[r], basis[r]
    basis[r] = col
    j, s = _stored(col, n, signs)
    if j not in slots:
        # s_k replaces a_k; its reduced cost is sign_k * alpha
        sign = signs[j - 2 * n]
        if sign > 0:
            rows[r] = row = [-x for x in row[:n]] + [row[n], -row[-1]]
        return _price(obj, row, sign)
    c = slots.index(j)
    piv = [x if row[c] > 0 else -x for x in row]
    lead, piv[n] = piv[n], 0
    # the leaving column takes slot c, read at its stored column
    slots[c], t = _stored(out, n, signs)
    for i, other in enumerate(rows):
        if i != r and other[c]:
            rows[i] = eliminate(other, piv, c, t * lead)
    # the objective's a_k entry is alpha - sign_k times its s_k entry
    a = 2 * n + len(signs)
    if col >= a:
        obj[c] -= signs[col - a] * obj[n]
    obj = eliminate(obj, piv, c, t * lead)
    if out >= a:
        obj[c] += signs[out - a] * obj[n]
    new = piv if s > 0 else [-x for x in piv]
    new[n], new[c] = piv[c], s * t * lead
    rows[r] = new
    return obj


def _run_simplex(rows, basis, slots, signs, obj):
    """Minimize the objective row's cost; returns the optimal row.  The
    cost is bounded below by 0, so every entering column has a leaving row."""
    n, m = len(slots), len(rows)
    while True:
        col = _entering(obj, slots, basis, signs)
        if col is None:
            return obj
        j, s = _stored(col, n, signs)
        if j not in slots:
            # s_k while a_k is basic: only a_k's row has an entry, d
            obj = _pivot(rows, basis, slots, signs, basis.index(j + m), col, obj)
            continue
        c = slots.index(j)
        e = [s * row[c] for row in rows]
        cands = [i for i in range(m) if e[i] > 0]
        best = cands[0]
        for i in cands[1:]:
            lhs, rhs = rows[i][-1] * e[best], rows[best][-1] * e[i]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        obj = _pivot(rows, basis, slots, signs, best, col, obj)


def _integral_rows(rows, n):
    """Each row (normal, bound) as linalg.integral's (ints, scale)."""
    out = []
    for normal, bound in rows:
        if len(normal) != n:
            raise ValueError("dimension mismatch")
        out.append(integral((*normal, bound)))
    return out


@dataclass(eq=False)
class Dictionary:
    """A phase-1 dictionary: the integral rows (ints, scale) in tableau
    order, the condensed tableau with its basis, slots and signs, and the
    objective row.  `rows` are the (normal, bound) rows whose homogenization
    it holds, for `strict_interior` to match against its own."""

    irows: list
    tab: list
    basis: list
    slots: list
    signs: list
    obj: list
    rows: list | None = None


def _add_rows(dic, irows):
    """A new dictionary: dic's rows and then irows, each with its artificial
    basic.  A new row is taken at dic's nonbasic columns, with every x+-_j
    basic in dic substituted by its row, and multiplied by the sign of its
    rhs; its artificial is priced into the objective.  The artificial
    indices of dic shift by len(irows)."""
    n, m, k = len(dic.slots), len(dic.tab), len(irows)
    basis = [b + k if b >= 2 * n + m else b for b in dic.basis]
    xrows = [(row, b) for row, b in zip(dic.tab, dic.basis) if b < 2 * n]
    lcm = math.lcm(*[row[n] for row, _ in xrows])
    tab, signs, obj = list(dic.tab), list(dic.signs), dic.obj
    for i, (ints, scale) in enumerate(irows):
        row = [lcm * ints[j] if j < n else 0 for j in dic.slots] + [lcm * scale, lcm * ints[-1]]
        for other, b in xrows:
            # x_j = +-(rhs - other . slots) / d with d = other[n]
            f = ints[b % n] * (lcm // other[n]) * (1 if b < n else -1)
            if f:
                for c in range(n):
                    row[c] -= f * other[c]
                row[-1] -= f * other[-1]
        if xrows:
            g = math.gcd(*row)
            row = [v // g for v in row]
        sign = -1 if row[-1] < 0 else 1
        if sign < 0:
            row = [-v for v in row[:n]] + [row[n], -row[-1]]
        tab.append(row)
        signs.append(sign)
        basis.append(2 * n + 2 * m + k + i)
        obj = _price(obj, row, 1)
    return Dictionary(dic.irows + irows, tab, basis, list(dic.slots), signs, obj)


def _phase1(dic):
    """Run phase 1 on dic in place: a point X / D with D > 0 checked
    against every row, or None once the Farkas vector of `_farkas` is
    checked."""
    n = len(dic.slots)
    dic.obj = _run_simplex(dic.tab, dic.basis, dic.slots, dic.signs, dic.obj)
    if dic.obj[-1] != 0:
        _check_farkas(dic.irows, _farkas(dic.obj, dic.basis, dic.slots, dic.signs, dic.irows))
        return None
    x, d = _phase1_point(dic.tab, dic.basis, n)
    for ints, _ in dic.irows:
        if sum(map(operator.mul, ints[:-1], x)) < ints[-1] * d:
            raise AssertionError("phase-1 point violates a row")
    return x, d


def _empty(n):
    """The dictionary of no rows in n free variables."""
    return Dictionary([], [], [], list(range(n)), [], [0] * n + [1, 0])


def _feasible_point(rows, n):
    """Phase 1 from the artificial basis on rows as `_integral_rows` gives
    them, as `_phase1` answers it."""
    return _phase1(_add_rows(_empty(n), rows))


def _farkas(obj, basis, slots, signs, rows):
    """y >= 0 with y.N = 0 and y.b > 0 on the integral rows, read from an
    optimal phase-1 objective row with a positive residual, as ints times
    one positive factor.

    Row i's multiplier is the reduced cost of s_i over its scale c_i: the
    slot entry while s_i is nonbasic, sign_i alpha while a_i is basic, 0
    while s_i is basic."""
    n, m = len(slots), len(signs)
    cost = [0] * m
    for c, j in enumerate(slots):
        if j >= n:
            cost[j - 2 * n] = obj[c]
    for b in basis:
        if b >= 2 * n + m:
            i = b - 2 * n - m
            cost[i] = signs[i] * obj[n]
    scales = [scale for _, scale in rows]
    lcm = math.lcm(*scales)
    return [r * (lcm // c) for r, c in zip(cost, scales)]


def _check_farkas(rows, y) -> None:
    """Raise AssertionError unless y certifies that the rows have no
    common point (checked also under python -O)."""
    if any(v < 0 for v in y) or not any(y):
        raise AssertionError("Farkas multipliers not nonnegative and nonzero")
    combo = [sum(v * ints[j] for v, (ints, _) in zip(y, rows)) for j in range(len(rows[0][0]))]
    if any(combo[:-1]):
        raise AssertionError("Farkas combination of the normals is not zero")
    if combo[-1] <= 0:
        raise AssertionError("Farkas combination of the bounds is not positive")


def _phase1_point(tab, basis, n):
    """The basic point of a dictionary as ints X over one denominator D."""
    den = math.lcm(*[row[n] for row, b in zip(tab, basis) if b < 2 * n])
    x = [0] * n
    for row, b in zip(tab, basis):
        if b < 2 * n:
            v = row[-1] * (den // row[n])
            if b < n:
                x[b] += v
            else:
                x[b - n] -= v
    return x, den


def _homogenized(rows, nvars):
    """The integral rows c (normal, -bound | 1) for each row's integral
    scale c, as (ints, scale)."""
    return [([*ints[:-1], -ints[-1], c], c) for ints, c in _integral_rows(rows, nvars)]


def cold_start(rows, nvars) -> Dictionary:
    """The artificial basis on the homogenized rows and s >= 1."""
    irows = _homogenized(rows, nvars) + [([0] * nvars + [1, 1], 1)]
    dic = _add_rows(_empty(nvars + 1), irows)
    dic.rows = list(rows)
    return dic


def warm_start(parent, row) -> Dictionary:
    """The start for parent's rows and then row: parent, a start of
    `cold_start` or `warm_start` (in region enumeration one that
    `strict_interior` ran to a zero residual), with the homogenized row
    added."""
    dic = _add_rows(parent, _homogenized([row], len(parent.slots) - 1))
    dic.rows = parent.rows + [row]
    return dic


def strict_interior(rows, nvars, start=None):
    """A point satisfying every row strictly, or None: phase 1 on the
    homogenized rows c (normal, -bound | 1) and s >= 1, for each row's
    integral scale c, read back as x = y / s.  Phase 1 runs from `start` in
    place if given (from `cold_start` or `warm_start` of these rows, else
    ValueError), from `cold_start(rows, nvars)` otherwise.  Either answer is
    checked by its certificate, and AssertionError raised if it fails."""
    if start is None:
        start = cold_start(rows, nvars)
    elif start.rows != list(rows) or len(start.slots) != nvars + 1:
        raise ValueError("the start holds other rows than the ones asked about")
    found = _phase1(start)
    if found is None:
        return None
    x, _ = found
    return tuple(Q(v, x[-1]) for v in x[:-1])


def closed_feasible(rows, nvars) -> bool:
    """Whether the closed system normal.x >= bound has a point; either
    answer is checked by its certificate, and AssertionError raised if it
    fails."""
    return _feasible_point(_integral_rows(rows, nvars), nvars) is not None
