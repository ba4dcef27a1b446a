"""Small dense exact linear algebra on fraction-free integer rows.

Every exact elimination in the package (rank, solve and inverse here, the
simplex tableau in ratlp) runs on rows of Python ints with one invariant:
each row equals its true rational row times an unknown positive factor.  A
rational row enters through `integral`, which reads each int or Fraction
once by as_integer_ratio (anything else, a str say, through Fraction) and
scales the row by the LCM of its denominators; `eliminate` clears one entry
by a pivot row with a positive pivot and divides the result by the gcd of
its entries (Bareiss, Math. Comp. 22, 1968).  A positive factor changes
neither the signs of the entries nor the ratios within a row, so every
pivot choice is the one the same elimination over Fraction would make, and
values are read at the end as an entry over its row's pivot.
`solve_integral` returns a solution as ints over the LCM of the pivots, for
callers that stay on integers (the min-norm iteration); `solve` is its
Fraction form.  The certificate checks live here too: `satisfies` checks a
point X / D against integral rows for ratlp, minnorm and orbits, and
`check_farkas` ratlp's Farkas vectors.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

Q = Fraction

Matrix = list[list[Q]]


def integral(values):
    """The rationals scaled by the LCM of their denominators, as ints, and the LCM."""
    nums, dens = [], []
    for v in values:
        num, den = (v if isinstance(v, (int, Q)) else Q(v)).as_integer_ratio()
        nums.append(num)
        dens.append(den)
    scale = math.lcm(*dens)
    if scale == 1:
        return nums, 1
    return [num * (scale // den) for num, den in zip(nums, dens)], scale


def integral_matrix(m) -> tuple[list[list[int]], int]:
    """`integral` of all of a matrix's entries, as rows of ints, and the LCM."""
    ints, scale = integral([v for row in m for v in row])
    n = len(m[0])
    return [ints[i : i + n] for i in range(0, len(ints), n)], scale


def dot(u, v) -> int:
    """u . v over the shorter length: a row's ints (normal, bound) and x give normal . x."""
    return sum(map(operator.mul, u, v))


def satisfies(rows, x, d) -> bool:
    """Whether x / d (d > 0) satisfies each row (ints, scale) of `integral`'s (normal, bound)."""
    return all(dot(ints, x) >= ints[-1] * d for ints, _ in rows)


def check_farkas(rows, y) -> None:
    """Raise AssertionError unless y >= 0, y != 0, y.N = 0 and y.b > 0 on the
    rows (ints, scale), a proof that they have no point (also under -O)."""
    if any(v < 0 for v in y) or not any(y):
        raise AssertionError("Farkas multipliers not nonnegative and nonzero")
    used = [(v, ints) for v, (ints, _) in zip(y, rows) if v]
    combo = [sum(v * ints[j] for v, ints in used) for j in range(len(rows[0][0]))]
    if any(combo[:-1]):
        raise AssertionError("Farkas combination of the normals is not zero")
    if combo[-1] <= 0:
        raise AssertionError("Farkas combination of the bounds is not positive")


def eliminate(r, piv, col, swap=0):
    """r with its col entry cleared by the pivot row piv (piv[col] > 0).

    In an exchange, where another column takes col's place, swap is piv's
    entry in that column and r's is 0; the result's col entry is then
    that column's entry, -r[col] * swap."""
    p, f = piv[col], r[col]
    r = [p * x - f * y for x, y in zip(r, piv)]
    r[col] = -f * swap
    g = math.gcd(*r)
    return [x // g for x in r] if g > 1 else r


def matmul(a, b) -> Matrix:
    """Matrix product in the entries' own arithmetic: ints stay ints."""
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def _reduce(rows, ncols) -> list[int]:
    """Bring integer rows to reduced echelon form in their first ncols
    columns, in place, with positive pivots.  Each column's pivot is its
    first nonzero entry at or below the next pivot row.  Returns the pivot
    columns; row k holds the k-th."""
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = eliminate(row, p, col)
        pivots.append(col)
    return pivots


def rank(rows) -> int:
    """Rank of a matrix by exact elimination."""
    ints = [integral(row)[0] for row in rows]
    return len(_reduce(ints, len(ints[0]) if ints else 0))


def solve_integral(a, b) -> tuple[list[int], int] | None:
    """One exact solution of a x = b for a and b of ints (free variables
    set to 0) as (ints, den) with x = ints / den and den > 0, or None if
    inconsistent."""
    n = len(a[0]) if a else 0
    aug = [[*row, bi] for row, bi in zip(a, b)]
    pivots = _reduce(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    den = math.lcm(*[row[col] for row, col in zip(aug, pivots)])
    x = [0] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n] * (den // row[col])
    return x, den


def solve(a, b) -> list[Q] | None:
    """One exact solution of a x = b (free variables set to 0), or None if inconsistent."""
    aug = [integral((*row, bi))[0] for row, bi in zip(a, b)]
    sol = solve_integral([row[:-1] for row in aug], [row[-1] for row in aug])
    if sol is None:
        return None
    ints, den = sol
    return [Q(v, den) for v in ints]


def inverse(a) -> Matrix:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = []
    for i, row in enumerate(a):
        ints, scale = integral(row)
        aug.append(ints + [scale if j == i else 0 for j in range(n)])
    if len(_reduce(aug, n)) < n:
        raise ValueError("singular matrix")
    return [[Q(x, row[k]) for x in row[n:]] for k, row in enumerate(aug)]
