"""Small dense exact linear algebra on fraction-free integer rows.

Every exact elimination in the package (rank, solve and inverse here, the
simplex tableau in ratlp) runs on rows of Python ints with one invariant:
each row equals its true rational row times an unknown positive factor.  A
rational row enters through `integral`, scaled by the LCM of its
denominators; `eliminate` clears one entry by a pivot row with a positive
pivot and divides the result by the gcd of its entries (Bareiss, Math.
Comp. 22, 1968).  A positive factor changes neither the signs of the
entries nor the ratios within a row, so every pivot choice is the one the
same elimination over Fraction would make, and values are read at the end
as an entry over its row's pivot.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

Q = Fraction

Vector = tuple[Q, ...]
Matrix = list[list[Q]]


def integral(values):
    """The rationals scaled by the LCM of their denominators, as ints, and the LCM."""
    qs = [v if isinstance(v, (int, Q)) else Q(v) for v in values]
    scale = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (scale // q.denominator) for q in qs], scale


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


def matvec(a, v) -> Vector:
    """Matrix times column vector."""
    return tuple(sum((Q(x) * Q(y) for x, y in zip(row, v)), Q(0)) for row in a)


def matmul(a, b) -> Matrix:
    """Matrix product in the entries' own arithmetic: ints stay ints."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


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


def solve(a, b) -> list[Q] | None:
    """One exact solution of a x = b (free variables set to 0), or None if inconsistent."""
    n = len(a[0]) if a else 0
    aug = [integral((*row, bi))[0] for row, bi in zip(a, b)]
    pivots = _reduce(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [Q(0)] * n
    for row, col in zip(aug, pivots):
        x[col] = Q(row[n], row[col])
    return x


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
