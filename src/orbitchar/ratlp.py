"""Exact rational strict feasibility by phase 1 of the simplex on a
condensed fraction-free dictionary.

`strict_interior` asks whether N x > b has a point through its
homogenization: N x > b has a point exactly when N y - b s >= 1, s >= 1 has
one (Motzkin's transposition theorem), and then x = y / s.  A point of the
homogenized rows satisfies every row of N x > b with slack at least 1 / s,
and a Farkas vector of them is a Motzkin certificate that N x > b has no
point.  Phase 1 runs on the dictionaries of `cold_start` and `split` only,
which hold these homogenized rows; a closed system is answered only by a
point its caller brings (`closed_feasible`, a row check by `satisfies`).

Phase 1 takes rows normal.x >= bound with x free, and runs on x = x+ - x-, a
surplus s_i per row and an artificial a_i per row that the start point
violates, and minimizes the sum of the artificials.  A row enters by its
value at the current point: if the point satisfies it (tight included), its
surplus is basic and it needs no artificial; otherwise its artificial is
basic, with a_i = -s_i, and is priced into the objective.  Either way its
rhs is >= 0.  An artificial that leaves the basis is dropped and never
enters again (Bertsimas & Tsitsiklis, Introduction to Linear Optimization,
1997, section 3.5; Chvatal, Linear Programming, 1983, ch. 8).  So Bland's
rule ranks the columns x+, x-, s: the first with a negative reduced cost
enters, the least ratio (by cross-multiplying) leaves, ties go to the least
basis index.

Row operations keep x-_j = -x+_j and a_i = -s_i, so a row stores n + 2 ints:
its entries at the n nonbasic pairs' columns x+_j or s_i (its slots), its
basic column's positive coefficient d, and its rhs.  The objective row holds
instead of d the factor alpha of its cost: the reduced cost of s_i is
alpha while a_i is basic, so s_i never enters then.  Each row is the true
row times a positive factor (linalg's invariant); a pivot is an exchange by
linalg's `eliminate`, with the gcd of the full tableau's row, so each
constraint row holds the full tableau's ints at its stored columns and the
pivots are those of the same simplex over Fraction.  Values are rhs over d.

The objective is bounded below by 0, so every entering column has a
leaving row, and the run stops as soon as the residual is 0: from there
every pivot is degenerate, since the entering reduced cost is negative and
the objective cannot drop below 0, so the step is 0 and the point stays.
A positive residual runs on to optimality.  With fewer artificials than
rows phase 1 still reaches residual 0 exactly when the rows have a point,
and either answer carries a certificate that linalg checks on ints, also
under python -O: a zero residual gives the basic point X / D
(`satisfies`); a positive one gives a Farkas vector y >= 0, y != 0 with
y.N = 0 and y.b > 0 (`check_farkas`), read from the final objective row.
A dictionary keeps the point it certified, how many of its rows that
check covered and its witness, and a dictionary built from it by adding
rows inherits all three: if its own phase 1 ends at that same X / D, the
point is checked against the added rows only, since the inherited check
already covered the others, and keeps its witness; any other point is
checked against every row.

A run starts from a dictionary.  The cold start adds every row to the
dictionary of no rows, whose point is the origin.  The warm start, `split`,
adds a row to a dictionary of other rows, as Chvatal (1983) adds a
constraint to an optimal dictionary: the row is taken at the nonbasic
columns, with every basic x+-_j substituted by its row, and enters by the
rule above at the dictionary's point; the artificial indices shift by one.
It builds the start for the row's opposite (-normal, -bound) alongside,
on the same read of the parent and the same substitution: the opposite's
row is the row's with its slot entries negated and its rhs reflected.
Either way the result is a dictionary of the phase-1 problem of all the
rows, in the order they were added, with every basic value >= 0, so phase 1
runs from it unchanged.  A row that holds at the vertex of a parent at
residual 0 enters with its surplus basic and keeps the residual 0: it costs
no pivot, and the parent's point is the answer.  From a warm start phase 1
can end at another vertex than from the cold one: 8 of the 143 warm LPs
with a point in the region enumeration of adjoint A4 do.  The
certificates do not depend on the start: at a positive residual the run
ends optimal, and its objective row is the reduced-cost row of the final
basis, whatever the path, so its entries at the surplus columns are >= 0
and at the free x pairs 0, which is what makes them a Farkas vector; and
both certificates are checked against the rows of the dictionary itself.

A cold start holds a table that every start below it shares: the first
time a row is asked for, it stores the row's homogenized integral row, its
opposite and the opposite's.  So region enumeration, which splits each node
on a hyperplane's '+' row, integralizes each hyperplane once and makes one
lookup per node.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import check_farkas, eliminate, integral, satisfies

Q = Fraction


def _stored(col, n, m):
    """The stored column of col's pair and s = +-1 with col = s * stored."""
    if col < n or 2 * n <= col < 2 * n + m:
        return col, 1
    if col < 2 * n:
        return col - n, -1
    return col - m, -1


def _entering(obj, slots):
    """Bland's entering column: the least x+-_j or s_i with a negative
    reduced cost."""
    n = len(slots)
    cols = []
    for j, v in zip(slots, obj):
        if v < 0:
            cols.append(j)
        elif v > 0 and j < n:
            cols.append(n + j)
    return min(cols, default=None)


def _pivot(rows, basis, slots, r, col, obj):
    """Bring col into the basis at row r; returns the updated objective row."""
    n, m = len(slots), len(rows)
    row, out = rows[r], basis[r]
    basis[r] = col
    j, s = _stored(col, n, m)
    c = slots.index(j)
    piv = [x if row[c] > 0 else -x for x in row]
    lead, piv[n] = piv[n], 0
    # the leaving column takes slot c, read at its stored column
    slots[c], t = _stored(out, n, m)
    for i, other in enumerate(rows):
        if i != r and other[c]:
            rows[i] = eliminate(other, piv, c, t * lead)
    obj = eliminate(obj, piv, c, t * lead)
    if out >= 2 * n + m:
        # the eliminated entry is minus a_k's reduced cost; s_k's is alpha
        # minus a_k's
        obj[c] += obj[n]
    new = piv if s > 0 else [-x for x in piv]
    new[n], new[c] = piv[c], s * t * lead
    rows[r] = new
    return obj


def _run_simplex(rows, basis, slots, obj):
    """Minimize the objective row's cost until it is 0 or optimal; returns
    the final row.  The cost is bounded below by 0, so every entering column
    has a leaving row, and at cost 0 every further pivot would be degenerate
    and leave the point where it is."""
    n, m = len(slots), len(rows)
    while obj[-1]:
        col = _entering(obj, slots)
        if col is None:
            break
        j, s = _stored(col, n, m)
        c = slots.index(j)
        e = [s * row[c] for row in rows]
        cands = [i for i in range(m) if e[i] > 0]
        best = cands[0]
        for i in cands[1:]:
            lhs, rhs = rows[i][-1] * e[best], rows[best][-1] * e[i]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        obj = _pivot(rows, basis, slots, best, col, obj)
    return obj


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
    order, the condensed tableau with its basis and slots, and the
    objective row.  `rows` are the (normal, bound) rows whose homogenization
    it holds, for `strict_interior` to match against its own.  `point` is
    the (X, D) that `_phase1` last certified here or in the dictionary this
    one was built from, checked against the first `checked` of `irows`, and
    `witness` is the tuple `strict_interior` read from that point, once it
    has; `table` maps a (normal, bound) row to its `_table_entry`, one
    table per cold start."""

    irows: list
    tab: list
    basis: list
    slots: list
    obj: list
    rows: list | None = None
    point: tuple | None = None
    checked: int = 0
    witness: tuple | None = None
    table: dict = field(default_factory=dict)


def _frame(dic):
    """dic's basic x-rows and their lcm, for `_substitute`."""
    n = len(dic.slots)
    xrows = [(row, b) for row, b in zip(dic.tab, dic.basis) if b < 2 * n]
    return xrows, math.lcm(*[row[n] for row, _ in xrows])


def _substitute(irows, slots, xrows, lcm):
    """Each integral row at the nonbasic columns slots, with every basic
    x+-_j substituted by its row of xrows, times lcm: slot entries, d, rhs."""
    n, subs = len(slots), []
    for ints, scale in irows:
        row = [lcm * ints[j] if j < n else 0 for j in slots] + [lcm * scale, lcm * ints[-1]]
        for other, b in xrows:
            # x_j = +-(rhs - other . slots) / d with d = other[n]
            f = ints[b % n] * (lcm // other[n]) * (1 if b < n else -1)
            if f:
                for c in range(n):
                    row[c] -= f * other[c]
                row[-1] -= f * other[-1]
        subs.append(row)
    return subs


def _add_rows(dic, irows, frame=None, subs=None):
    """A new dictionary: dic's rows and then irows, taken at dic's nonbasic
    columns by `_substitute` on dic's `_frame`, or given as subs on frame.
    If dic's point satisfies a new row (rhs <= 0), it is stored negated with
    its surplus basic; otherwise its artificial is basic and priced into the
    objective.  The new dictionary shares dic's table and keeps dic's
    certified point, count and witness: dic's rows are its first rows."""
    n, m, k = len(dic.slots), len(dic.tab), len(irows)
    xrows, lcm = frame or _frame(dic)
    if subs is None:
        subs = _substitute(irows, dic.slots, xrows, lcm)
    basis = [b + k if b >= 2 * n + m else b for b in dic.basis]
    tab, obj = list(dic.tab), dic.obj
    for i, row in enumerate(subs):
        if xrows:
            g = math.gcd(*row)
            row = [v // g for v in row]
        if row[-1] <= 0:
            tab.append([-v for v in row[:n]] + [row[n], -row[-1]])
            basis.append(2 * n + m + i)
        else:
            tab.append(row)
            basis.append(2 * n + 2 * m + k + i)
            # price the artificial out; alpha = obj[n] is multiplied by d
            obj = eliminate(obj, row, n, -row[n])
    new = Dictionary(dic.irows + irows, tab, basis, list(dic.slots), obj, table=dic.table)
    new.point, new.checked, new.witness = dic.point, dic.checked, dic.witness
    return new


def _phase1(dic):
    """Run phase 1 on dic in place: a point X / D with D > 0 checked
    against the rows, or None once the Farkas vector of `_farkas` is
    checked.  The point is checked against the rows past `dic.checked` if
    it is `dic.point`, else against every row and `dic.witness` is dropped;
    then it becomes `dic.point` with every row checked."""
    n = len(dic.slots)
    dic.obj = _run_simplex(dic.tab, dic.basis, dic.slots, dic.obj)
    if dic.obj[-1] != 0:
        check_farkas(dic.irows, _farkas(dic.obj, dic.basis, dic.slots, dic.irows))
        return None
    point = _phase1_point(dic.tab, dic.basis, n)
    if point != dic.point:
        dic.checked, dic.witness = 0, None
    _check_point(dic.irows[dic.checked :], *point)
    dic.point, dic.checked = point, len(dic.irows)
    return point


def _check_point(rows, x, d) -> None:
    """Raise AssertionError unless X / D satisfies each row (also under -O)."""
    if not satisfies(rows, x, d):
        raise AssertionError("phase-1 point violates a row")


def _empty(n):
    """The dictionary of no rows in n free variables."""
    return Dictionary([], [], [], list(range(n)), [0] * n + [1, 0])


def _farkas(obj, basis, slots, rows):
    """y >= 0 with y.N = 0 and y.b > 0 on the integral rows, read from an
    optimal phase-1 objective row with a positive residual, as ints times
    one positive factor.

    Row i's multiplier is the reduced cost of s_i over its scale c_i: the
    slot entry while s_i is nonbasic, alpha while a_i is basic, 0 while s_i
    is basic."""
    n, m = len(slots), len(rows)
    cost = [0] * m
    for c, j in enumerate(slots):
        if j >= n:
            cost[j - 2 * n] = obj[c]
    for b in basis:
        if b >= 2 * n + m:
            cost[b - 2 * n - m] = obj[n]
    scales = [scale for _, scale in rows]
    lcm = math.lcm(*scales)
    return [r * (lcm // c) for r, c in zip(cost, scales)]


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
    """The start at the origin on the homogenized rows and s >= 1: every
    bound is positive, so it is the artificial basis."""
    irows = _homogenized(rows, nvars) + [([0] * nvars + [1, 1], 1)]
    dic = _add_rows(_empty(nvars + 1), irows)
    dic.rows = list(rows)
    return dic


def _table_entry(parent, row):
    """row's entry in parent's table, made the first time it is asked for:
    its homogenized integral row, its opposite (-normal, -bound) and the
    opposite's homogenized integral row."""
    entry = parent.table.get(row)
    if entry is None:
        (*ints, c), scale = irow = _homogenized([row], len(parent.slots) - 1)[0]
        opposite = (tuple(map(operator.neg, row[0])), -row[1])
        entry = parent.table[row] = (irow, opposite, ([-v for v in ints] + [c], scale))
    return entry


def split(parent, row):
    """The warm starts for parent's rows and then row, and for parent's rows
    and then row's opposite (-normal, -bound): parent, a start of
    `cold_start` or `split` (in region enumeration one that
    `strict_interior` ran to a zero residual), with the homogenized row or
    its opposite added, both from parent's table, on one `_frame`.  The
    opposite's substituted row is row's with the slot entries negated, the
    same d and rhs 2 lcm c minus row's (both have the bound entry c)."""
    irow, opposite, orow = _table_entry(parent, row)
    frame = xrows, lcm = _frame(parent)
    n = len(parent.slots)
    (sub,) = _substitute([irow], parent.slots, xrows, lcm)
    neg = [-v for v in sub[:n]] + [sub[n], 2 * lcm * irow[1] - sub[-1]]
    above, below = _add_rows(parent, [irow], frame, [sub]), _add_rows(parent, [orow], frame, [neg])
    above.rows, below.rows = parent.rows + [row], parent.rows + [opposite]
    return above, below


def strict_interior(rows, nvars, start=None):
    """A point satisfying every row strictly, or None: phase 1 on the
    homogenized rows c (normal, -bound | 1) and s >= 1, for each row's
    integral scale c, read back as x = y / s.  Phase 1 runs from `start` in
    place if given (from `cold_start` or from `split`, the warm start, of
    these rows, else ValueError), from `cold_start(rows, nvars)` otherwise.
    Either answer is checked by its certificate, and AssertionError raised
    if it fails.  A point kept from the dictionary `start` was built from
    returns that dictionary's witness, the same tuple."""
    if start is None:
        start = cold_start(rows, nvars)
    elif start.rows != list(rows) or len(start.slots) != nvars + 1:
        raise ValueError("the start holds other rows than the ones asked about")
    found = _phase1(start)
    if found is None:
        return None
    if start.witness is None:
        x, _ = found
        start.witness = tuple(Q(v, x[-1]) for v in x[:-1])
    return start.witness


def closed_feasible(rows, nvars, start) -> bool:
    """Whether start, nvars rationals (else ValueError), satisfies every row
    normal.x >= bound, for rows as linalg.integral gives them: (ints, scale)
    with nvars + 1 ints each.  A row check by `satisfies`, no simplex: False
    means the start fails a row, not that the system is empty.  Kept only
    because perfbench traces and pins the call, until ROADMAP item 4
    deletes it after item 1a."""
    if len(start) != nvars:
        raise ValueError("dimension mismatch")
    return satisfies(rows, *integral(start))
