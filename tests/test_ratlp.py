"""Exact simplex against hand cases and a floating-point reference."""

import random
from fractions import Fraction as Q

import numpy as np
from scipy.optimize import linprog

from orbitchar import ratlp


def test_simple_max():
    # maximize x1 + x2 over x1 <= 2, x2 <= 3 (rewritten as >= rows)
    rows = [((-1, 0), -2), ((0, -1), -3)]
    status, value, x = ratlp.solve_max((1, 1), rows, 2)
    assert status == ratlp.OPTIMAL
    assert value == 5 and x == (2, 3)


def test_infeasible():
    rows = [((1,), 1), ((-1,), 0)]
    status, value, x = ratlp.solve_max((1,), rows, 1)
    assert status == ratlp.INFEASIBLE


def test_unbounded():
    rows = [((1,), 0)]
    status, _, _ = ratlp.solve_max((1,), rows, 1)
    assert status == ratlp.UNBOUNDED


def test_free_variables():
    # minimum of x at x >= -7/2 reached exactly
    rows = [((1,), Q(-7, 2))]
    status, value, x = ratlp.solve_max((-1,), rows, 1)
    assert status == ratlp.OPTIMAL
    assert x == (Q(-7, 2),)


def test_equality_pair():
    # x >= 2 and x <= 2 leave an artificial basic at zero after phase 1; in
    # one of the two row orders driving it out pivots on a negative entry
    for rows in ([((1,), 2), ((-1,), -2)], [((-1,), -2), ((1,), 2)]):
        for c in (1, -1):
            assert ratlp.solve_max((c,), rows, 1) == (ratlp.OPTIMAL, 2 * c, (2,))


def test_strict_interior_quadrant():
    rows = [((1, 0), 0), ((0, 1), 0)]
    x = ratlp.strict_interior(rows, 2)
    assert x is not None and x[0] > 0 and x[1] > 0


def test_strict_interior_empty_on_antiparallel():
    rows = [((1,), 0), ((-1,), 0)]
    assert ratlp.strict_interior(rows, 1) is None
    assert ratlp.closed_feasible(rows, 1)


def test_closed_infeasible():
    rows = [((1,), 1), ((-1,), 0)]
    assert not ratlp.closed_feasible(rows, 1)


def test_no_rows():
    assert ratlp.strict_interior([], 2) is not None


def test_against_scipy_on_random_instances():
    rng = random.Random(917)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        rows = [
            (tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-4, 4))
            for _ in range(m)
        ]
        # box rows keep the value bounded
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append((tuple(e), -10))
            rows.append((tuple(-v for v in e), -10))
        c = [rng.randint(-3, 3) for _ in range(n)]
        status, value, x = ratlp.solve_max(c, rows, n)
        a_ub = np.array([[-float(v) for v in normal] for normal, _ in rows])
        b_ub = np.array([-float(b) for _, b in rows])
        ref = linprog(
            c=[-float(v) for v in c], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n
        )
        if status == ratlp.INFEASIBLE:
            assert not ref.success
            continue
        assert status == ratlp.OPTIMAL
        assert ref.success
        assert abs(float(value) + ref.fun) < 1e-7
        # exact feasibility of the exact optimum
        for normal, bound in rows:
            assert sum(Q(v) * xi for v, xi in zip(normal, x)) >= bound
        checked += 1
    assert checked > 20


def test_against_scipy_on_rational_instances():
    # denominators 1-4 in normals, bounds and objective; half the instances
    # drop the box so that all three statuses occur
    rng = random.Random(4021)

    def rand_q():
        return Q(rng.randint(-6, 6), rng.randint(1, 4))

    seen = {ratlp.OPTIMAL: 0, ratlp.INFEASIBLE: 0, ratlp.UNBOUNDED: 0}
    for k in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        rows = [(tuple(rand_q() for _ in range(n)), rand_q()) for _ in range(m)]
        if k % 2:
            for j in range(n):
                e = [0] * n
                e[j] = 1
                rows.append((tuple(e), -10))
                rows.append((tuple(-v for v in e), -10))
        c = [rand_q() for _ in range(n)]
        status, value, x = ratlp.solve_max(c, rows, n)
        ref = linprog(
            c=[-float(v) for v in c],
            A_ub=np.array([[-float(v) for v in normal] for normal, _ in rows]),
            b_ub=np.array([-float(b) for _, b in rows]),
            bounds=[(None, None)] * n,
        )
        seen[status] += 1
        assert ref.status == {ratlp.OPTIMAL: 0, ratlp.INFEASIBLE: 2, ratlp.UNBOUNDED: 3}[status]
        if status != ratlp.OPTIMAL:
            assert value is None and x is None
            continue
        assert type(value) is Q and all(type(xi) is Q for xi in x)
        assert value == sum(v * xi for v, xi in zip(c, x))
        assert abs(float(value) + ref.fun) < 1e-7
        for normal, bound in rows:
            assert sum(v * xi for v, xi in zip(normal, x)) >= bound
    assert min(seen.values()) >= 5, seen


def test_degenerate_ties_break_on_basis_index():
    # y <= 1 stated twice, as 2y <= 2 and y <= 1, ties the ratio test; the
    # optimum x - y = 2 is attained on a whole edge, and the least basis
    # index picks its end (0, -2) rather than (3, 1)
    rows = [((0, -2), -2), ((-1, 1), -2), ((1, 1), -2), ((0, -1), -1)]
    assert ratlp.solve_max((1, -1), rows, 2) == (ratlp.OPTIMAL, 2, (0, -2))
    # a zero objective returns the phase-1 vertex, which a tie also decides
    rows = [((0, 2, 2), -2), ((0, 1, 1), 0), ((2, 1, 0), -1)]
    status, value, x = ratlp.solve_max((0, 0, 0), rows, 3)
    assert (status, value, x) == (ratlp.OPTIMAL, 0, (0, -1, 1))
    assert type(value) is Q and all(type(xi) is Q for xi in x)
