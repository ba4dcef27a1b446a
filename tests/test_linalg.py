"""The exact elimination kernel against a plain Gauss-Jordan over Fraction."""

import math
import random
from fractions import Fraction as Q

import pytest

from orbitchar import linalg


def _rref(rows, ncols):
    """Reference: reduced row echelon form over Fraction, the first nonzero
    entry of each column as pivot.  Returns the rows and the pivot columns."""
    a = [[Q(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def _ref_solve(a, b, n):
    red, pivots = _rref([list(row) + [bi] for row, bi in zip(a, b)], n)
    if any(row[n] for row in red[len(pivots):]):
        return None
    x = [Q(0)] * n
    for row, col in zip(red, pivots):
        x[col] = row[n]
    return x


def _entry(rng):
    return Q(rng.randint(-5, 5), rng.randint(1, 4))


def _matrix(rng, m, n, rank):
    """An m x n rational matrix of rank at most `rank`: rows are rational
    combinations of `rank` random rows, with some rows zeroed."""
    base = [[_entry(rng) for _ in range(n)] for _ in range(rank)]
    rows = []
    for _ in range(m):
        if rng.random() < 0.15:
            rows.append([Q(0)] * n)
            continue
        coeffs = [_entry(rng) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), Q(0)) for j in range(n)])
    return rows


def _cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        yield rng, _matrix(rng, m, n, rng.randint(0, min(m, n)))


def test_rank_matches_reference():
    ranks = set()
    for _, a in _cases(300, 11):
        want = len(_rref(a, len(a[0]))[1])
        assert linalg.rank(a) == want
        ranks.add((want, want < min(len(a), len(a[0]))))
    assert (0, True) in ranks and any(deficient and r > 0 for r, deficient in ranks)


def test_reduce_gives_positive_multiples_of_the_reduced_echelon_rows():
    for _, a in _cases(200, 15):
        n = len(a[0])
        rows = [linalg.integral(row)[0] for row in a]
        red, pivots = _rref(a, n)
        assert linalg._reduce(rows, n) == pivots
        for k, col in enumerate(pivots):
            assert rows[k][col] > 0
            assert [Q(x, rows[k][col]) for x in rows[k]] == red[k]
        assert not any(any(row) for row in rows[len(pivots):])


def test_solve_matches_reference_consistent_and_inconsistent():
    seen = {"solved": 0, "inconsistent": 0, "free": 0}
    for rng, a in _cases(300, 12):
        n = len(a[0])
        if rng.random() < 0.5:
            x0 = [_entry(rng) for _ in range(n)]
            b = [sum((v * x for v, x in zip(row, x0)), Q(0)) for row in a]
        else:
            b = [_entry(rng) for _ in a]
        got = linalg.solve(a, b)
        assert got == _ref_solve(a, b, n)
        if got is None:
            seen["inconsistent"] += 1
            continue
        seen["solved"] += 1
        assert all(type(x) is Q for x in got)
        assert [sum((v * x for v, x in zip(row, got)), Q(0)) for row in a] == b
        pivots = _rref(a, n)[1]
        free = [col for col in range(n) if col not in pivots]
        assert all(got[col] == 0 for col in free)
        seen["free"] += bool(free)
    assert all(count > 20 for count in seen.values()), seen


def test_solve_accepts_int_rows_and_negative_pivots():
    a = ((0, -2, 1), (-3, 1, 0), (0, 4, -2))
    b = (1, 2, -2)
    assert linalg.solve(a, b) == _ref_solve(a, b, 3) == [Q(-5, 6), Q(-1, 2), Q(0)]
    assert linalg.solve(a, (1, 2, 0)) is None
    assert linalg.rank(a) == 2
    assert linalg.rank([]) == 0 and linalg.rank([[]]) == 0


def test_inverse_matches_reference_and_rejects_singular():
    singular = 0
    for _, a in _cases(300, 13):
        n = len(a)
        a = [row[:n] + [Q(0)] * (n - len(row)) for row in a]
        red, pivots = _rref([row + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(a)], n)
        if len(pivots) < n:
            singular += 1
            with pytest.raises(ValueError):
                linalg.inverse(a)
            continue
        inv = linalg.inverse(a)
        assert inv == [row[n:] for row in red]
        assert all(type(x) is Q for row in inv for x in row)
        assert linalg.matmul(a, inv) == [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    assert singular > 20
    assert linalg.inverse(((0, -1), (2, 0))) == [[0, Q(1, 2)], [-1, 0]]


def test_integral_scales_by_denominator_lcm():
    ints, scale = linalg.integral((Q(1, 2), Q(-2, 3), 4, Q(0)))
    assert (ints, scale) == ([3, -4, 24, 0], 6)
    assert linalg.integral(()) == ([], 1)


def test_integral_matches_a_fraction_reference():
    # ints, bools, negatives, zeros, Fractions with and without a
    # denominator, and the str and float inputs that Fraction accepts: the
    # entries are the values times the lcm of their denominators, all ints
    cases = [
        (3, -7, 0),
        (True, False, 2),
        (Q(1, 2), Q(-2, 3), Q(4), Q(0), -5),
        (Q(6, 1), Q(-9, 3), Q(0, 5)),
        ("1/2", "-3/4", "5", "0.25", " -6 ", 1),
        (0.5, -1.25, 3.0, 0.0, Q(1, 3)),
        (),
    ]
    rng = random.Random(5)
    for _ in range(300):
        cases.append(tuple(
            rng.choice([Q(rng.randint(-20, 20), rng.randint(1, 12)), rng.randint(-20, 20)])
            for _ in range(rng.randint(1, 8))
        ))
    for values in cases:
        qs = [Q(v) for v in values]
        scale = math.lcm(*[q.denominator for q in qs])
        ints, got = linalg.integral(values)
        assert (ints, got) == ([q * scale for q in qs], scale), values
        assert all(type(v) is int for v in (*ints, got)), values


def test_eliminate_returns_primitive_positive_multiple():
    rng = random.Random(14)
    zero_rows = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        col = rng.randrange(n)
        piv = [rng.randint(-6, 6) for _ in range(n)]
        piv[col] = rng.randint(1, 6)
        r = [rng.randint(-6, 6) for _ in range(n)]
        if rng.random() < 0.2:
            r = [2 * x for x in piv]
        got = linalg.eliminate(r, piv, col)
        want = [Q(x) - Q(r[col], piv[col]) * y for x, y in zip(r, piv)]
        assert got[col] == 0
        if not any(want):
            zero_rows += 1
            assert not any(got)
            continue
        assert math.gcd(*got) == 1
        j = next(k for k, w in enumerate(want) if w)
        factor = got[j] / want[j]
        assert factor > 0
        assert [factor * w for w in want] == got
    assert zero_rows > 20


def test_dot_runs_over_the_shorter_length():
    assert linalg.dot([2, -3, 7], [5, 1]) == 7
    assert linalg.dot([], [1, 2]) == 0


def test_satisfies_on_a_tight_row_a_zero_normal_and_a_short_point():
    # rows (ints, scale) of x - y >= 1/2 and y >= 0, the point (3/2, 1) = (3, 2) / 2
    rows = [linalg.integral((1, -1, Q(1, 2))), linalg.integral((0, 1, 0))]
    assert rows == [([2, -2, 1], 2), ([0, 1, 0], 1)]
    x, d = linalg.integral((Q(3, 2), 1))
    # the first row is tight: 2 * 3 - 2 * 2 == 1 * 2
    assert linalg.satisfies(rows, x, d)
    assert not linalg.satisfies(rows, [3, 3], 2)
    # a zero normal holds exactly when its bound is at most 0
    assert linalg.satisfies([([0, 0, 0], 1), ([0, 0, -5], 1)], x, d)
    assert not linalg.satisfies([([0, 0, 1], 1)], x, d)
    # the point is one entry shorter than a row: the bound never enters the
    # product, and x - y >= 1/2 fails at (0, 0)
    assert not linalg.satisfies(rows, [0, 0], 1)
    assert linalg.satisfies([], [0, 0], 1)


def test_check_farkas_accepts_a_certificate_and_names_each_failure():
    # x >= 1, -x >= 0, 0 >= -2 and 0 >= 0: y = (1, 1, 0, 0) sums the normals
    # to 0 and the bounds to 1
    rows = [([1, 1], 1), ([-1, 0], 1), ([0, -2], 1), ([0, 0], 1)]
    assert linalg.check_farkas(rows, [1, 1, 0, 0]) is None
    assert linalg.check_farkas(rows, [2, 2, 0, 3]) is None
    failures = {
        "Farkas multipliers not nonnegative and nonzero": [[0, 0, 0, 0], [1, 2, -1, 0]],
        "Farkas combination of the normals is not zero": [[1, 0, 0, 0], [2, 1, 0, 0]],
        "Farkas combination of the bounds is not positive": [[0, 0, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]],
    }
    for message, ys in failures.items():
        for y in ys:
            with pytest.raises(AssertionError, match=f"^{message}$"):
                linalg.check_farkas(rows, y)


def test_integral_matrix_scales_every_entry_by_one_lcm():
    m = [[Q(1, 2), Q(-2, 3)], [4, Q(0)], [Q(5, 6), 1]]
    assert linalg.integral_matrix(m) == ([[3, -4], [24, 0], [5, 6]], 6)
    assert linalg.integral_matrix([[1, 2, 3]]) == ([[1, 2, 3]], 1)
