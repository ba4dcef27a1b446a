"""Exact rational linear programming by a dense two-phase simplex.

Problems are stated as: maximize c.x subject to normal.x >= bound rows,
with x free.  Internally x is split into a difference of nonnegative
variables and surplus variables are added; Bland's rule keeps the exact
pivoting finite.

The tableau is fraction-free: each row, the objective row included, is a
list of ints kept by linalg's `integral` and `eliminate` under the invariant
stated in linalg (the true row times an unknown positive factor).  A pivot
row with a negative pivot entry is negated first.  So Bland's rule (the
first negative objective entry enters, the least ratio by
cross-multiplication leaves, ties to the least basis index) makes exactly
the pivots of the same simplex over Fraction.  Values are read at the end
as rhs over the basic coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import eliminate, integral

Q = Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(tab, basis, row, col):
    if tab[row][col] < 0:
        tab[row] = [-x for x in tab[row]]
    piv = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            tab[i] = eliminate(r, piv, col)
    basis[row] = col


def _run_simplex(tab, basis, cost, ncols):
    """Minimize cost over the tableau; returns status.  cost is priced out
    into a working objective row appended to the tableau."""
    m = len(tab)
    obj = list(cost) + [0]
    for i, b in enumerate(basis):
        if obj[b]:
            obj = eliminate(obj, tab[i], b)
    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL, obj, tab, basis
        rows = [i for i in range(m) if tab[i][col] > 0]
        if not rows:
            return UNBOUNDED, obj, tab, basis
        best = rows[0]
        for i in rows[1:]:
            lhs, rhs = tab[i][-1] * tab[best][col], tab[best][-1] * tab[i][col]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        _pivot(tab, basis, best, col)
        if obj[col]:
            obj = eliminate(obj, tab[best], col)


def solve_max(objective, rows, nvars):
    """Maximize objective.x over {x : normal.x >= bound for (normal, bound) in rows}.

    Returns (status, value, x) where status is one of 'optimal', 'unbounded',
    'infeasible'; value and x are None unless optimal.
    """
    m = len(rows)
    ncols = 2 * nvars + m
    tab = []
    for i, (normal, bound) in enumerate(rows):
        if len(normal) != nvars:
            raise ValueError("dimension mismatch")
        ints, scale = integral((*normal, bound))
        sign = -1 if ints[-1] < 0 else 1
        a = [sign * v for v in ints[:-1]]
        row = a + [-v for v in a] + [0] * (2 * m) + [sign * ints[-1]]
        row[2 * nvars + i] = -sign * scale
        # phase 1: artificial basis
        row[ncols + i] = scale
        tab.append(row)
    art = ncols
    basis = [art + i for i in range(m)]
    cost1 = [0] * ncols + [1] * m
    status, obj, tab, basis = _run_simplex(tab, basis, cost1, ncols + m)
    if status != OPTIMAL or obj[-1] != 0:
        # phase-1 objective is bounded below by 0, so status is 'optimal';
        # a positive residual means the constraints are inconsistent
        return INFEASIBLE, None, None
    for i in range(m):
        if basis[i] >= art:
            col = next((j for j in range(ncols) if tab[i][j]), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < art]
    tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    c, _ = integral(objective)
    cost2 = [-v for v in c] + c + [0] * m
    status, obj, tab, basis = _run_simplex(tab, basis, cost2, ncols)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Q(0)] * (2 * nvars)
    for i, b in enumerate(basis):
        if b < 2 * nvars:
            x[b] = Q(tab[i][-1], tab[i][b])
    point = tuple(x[j] - x[nvars + j] for j in range(nvars))
    value = sum((Q(v) * p for v, p in zip(objective, point)), Q(0))
    return OPTIMAL, value, point


def max_uniform_slack(rows, nvars):
    """Maximize t (capped at 1) such that normal.x - t >= bound for all rows.

    The optimum is > 0 exactly when the strict system normal.x > bound is
    feasible, and >= 0 exactly when the closed system is feasible.  Returns
    (t, x).
    """
    ext = [(tuple(normal) + (-1,), bound) for normal, bound in rows]
    ext.append(((0,) * nvars + (-1,), Q(-1)))
    objective = (0,) * nvars + (1,)
    status, value, point = solve_max(objective, ext, nvars + 1)
    if status != OPTIMAL:
        raise RuntimeError(f"slack program ended {status}")
    return value, point[:nvars]


def strict_interior(rows, nvars):
    """A point satisfying every row strictly, or None."""
    t, x = max_uniform_slack(rows, nvars)
    return x if t > 0 else None


def closed_feasible(rows, nvars) -> bool:
    t, _ = max_uniform_slack(rows, nvars)
    return t >= 0
