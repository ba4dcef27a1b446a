"""Exact simplex against hand cases, a floating-point reference and the
full-tableau simplex it condenses."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from orbitchar import arrangement, liecore, ratlp
from orbitchar.linalg import eliminate, integral


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


def _full_tableau_reference(objective, rows, nvars):
    """The dense two-phase simplex that ratlp condenses: every column x+,
    x-, s and a is stored, under the same Bland rule and the same
    fraction-free row invariant."""

    def pivot(tab, basis, row, col):
        if tab[row][col] < 0:
            tab[row] = [-x for x in tab[row]]
        piv = tab[row]
        for i, r in enumerate(tab):
            if i != row and r[col]:
                tab[i] = eliminate(r, piv, col)
        basis[row] = col

    def run(tab, basis, cost, ncols):
        obj = list(cost) + [0]
        for i, b in enumerate(basis):
            if obj[b]:
                obj = eliminate(obj, tab[i], b)
        while True:
            col = next((j for j in range(ncols) if obj[j] < 0), None)
            if col is None:
                return ratlp.OPTIMAL, obj
            cand = [i for i in range(len(tab)) if tab[i][col] > 0]
            if not cand:
                return ratlp.UNBOUNDED, obj
            best = cand[0]
            for i in cand[1:]:
                lhs, rhs = tab[i][-1] * tab[best][col], tab[best][-1] * tab[i][col]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
            pivot(tab, basis, best, col)
            if obj[col]:
                obj = eliminate(obj, tab[best], col)

    m = len(rows)
    ncols = 2 * nvars + m
    tab = []
    for i, (normal, bound) in enumerate(rows):
        ints, scale = integral((*normal, bound))
        sign = -1 if ints[-1] < 0 else 1
        a = [sign * v for v in ints[:-1]]
        row = a + [-v for v in a] + [0] * (2 * m) + [sign * ints[-1]]
        row[2 * nvars + i] = -sign * scale
        row[ncols + i] = scale
        tab.append(row)
    art = ncols
    basis = [art + i for i in range(m)]
    status, obj = run(tab, basis, [0] * ncols + [1] * m, ncols + m)
    if status != ratlp.OPTIMAL or obj[-1] != 0:
        return ratlp.INFEASIBLE, None, None
    for i in range(m):
        if basis[i] >= art:
            col = next((j for j in range(ncols) if tab[i][j]), None)
            if col is not None:
                pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < art]
    tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    c, _ = integral(objective)
    status, _ = run(tab, basis, [-v for v in c] + c + [0] * m, ncols)
    if status == ratlp.UNBOUNDED:
        return ratlp.UNBOUNDED, None, None
    x = [Q(0)] * (2 * nvars)
    for i, b in enumerate(basis):
        if b < 2 * nvars:
            x[b] = Q(tab[i][-1], tab[i][b])
    point = tuple(x[j] - x[nvars + j] for j in range(nvars))
    value = sum((Q(v) * p for v, p in zip(objective, point)), Q(0))
    return ratlp.OPTIMAL, value, point


def _seeded_lp(rng):
    """n 1-6, m 1-16 rational rows with zero rows, duplicates, equality
    pairs and negative bounds; a box on every variable in one of three."""

    def q(zero=0.0):
        return Q(0) if rng.random() < zero else Q(rng.randint(-6, 6), rng.randint(1, 4))

    n, m = rng.randint(1, 6), rng.randint(1, 16)
    rows = []
    while len(rows) < m:
        kind = rng.random()
        if kind < 0.06:
            rows.append(((0,) * n, q()))
        elif kind < 0.16 and rows:
            rows.append(rng.choice(rows))
        elif kind < 0.3 and rows:
            normal, bound = rng.choice(rows)
            rows.append((tuple(-v for v in normal), -bound))
        else:
            rows.append((tuple(q(0.3) for _ in range(n)), q()))
    if rng.random() < 1 / 3:
        for j in range(n):
            e = tuple(int(k == j) for k in range(n))
            rows += [(e, -10), (tuple(-v for v in e), -10)]
    return [q(0.2) for _ in range(n)], rows, n


def _swap_counts(monkeypatch):
    """Count the phase-1 pivots in which s_k replaces a basic a_k, and the
    pivots that drive a basic artificial out after phase 1."""
    counts = {"swap": 0, "drive_out": 0, "phase1_done": False}
    pivot, run = ratlp._pivot, ratlp._run_simplex

    def counting_pivot(rows, basis, slots, signs, r, col, obj):
        n, m = len(slots), len(signs)
        if basis[r] >= 2 * n + m:
            if counts["phase1_done"]:
                counts["drive_out"] += 1
            elif col == basis[r] - m:
                counts["swap"] += 1
        return pivot(rows, basis, slots, signs, r, col, obj)

    def tracking_run(rows, basis, slots, signs, obj, phase1):
        counts["phase1_done"] = False
        out = run(rows, basis, slots, signs, obj, phase1)
        counts["phase1_done"] = phase1
        return out

    monkeypatch.setattr(ratlp, "_pivot", counting_pivot)
    monkeypatch.setattr(ratlp, "_run_simplex", tracking_run)
    return counts


def test_condensed_simplex_matches_the_full_tableau(monkeypatch):
    counts = _swap_counts(monkeypatch)
    rng = random.Random(20261018)
    seen = {ratlp.OPTIMAL: 0, ratlp.INFEASIBLE: 0, ratlp.UNBOUNDED: 0}
    for _ in range(2000):
        c, rows, n = _seeded_lp(rng)
        got = ratlp.solve_max(c, rows, n)
        assert got == _full_tableau_reference(c, rows, n), (c, rows)
        if got[0] == ratlp.OPTIMAL:
            assert type(got[1]) is Q and all(type(x) is Q for x in got[2])
        seen[got[0]] += 1
    assert min(seen.values()) >= 200, seen
    assert counts["swap"] >= 100 and counts["drive_out"] >= 100, counts


@pytest.mark.parametrize("factors", [[("A", 3)], [("B", 3)], [("G", 2)]], ids=str)
def test_condensed_simplex_matches_the_full_tableau_on_enumerations(monkeypatch, factors):
    solve = ratlp.solve_max
    lps = []

    def recording(objective, rows, nvars):
        got = solve(objective, rows, nvars)
        lps.append((objective, list(rows), nvars, got))
        return got

    monkeypatch.setattr(ratlp, "solve_max", recording)
    rs = liecore.build_root_system(factors)
    ws = liecore.weight_system(rs, liecore.highest_roots(rs))
    regions = arrangement.enumerate_regions(rs, arrangement.chamber_hyperplanes(ws))
    assert len(regions) == {"A": 14, "B": 20, "G": 8}[factors[0][0]]
    assert len(lps) > len(regions)
    for objective, rows, nvars, got in lps:
        assert got == _full_tableau_reference(objective, rows, nvars)


def _slack_reference(rows, n):
    """Closed feasibility as the uniform-slack LP decides it: the largest t
    (capped at 1) with normal.x - t >= bound on every row is >= 0."""
    ext = [(tuple(normal) + (-1,), bound) for normal, bound in rows]
    ext.append(((0,) * n + (-1,), Q(-1)))
    status, t, _ = ratlp.solve_max((0,) * n + (1,), ext, n + 1)
    assert status == ratlp.OPTIMAL
    return t >= 0


def test_phase1_feasibility_matches_the_slack_lp(monkeypatch):
    # every positive residual passes its Farkas check (closed_feasible would
    # raise otherwise); count the read-offs that use a still-basic a_i
    farkas, kinds = ratlp._farkas, {"infeasible": 0, "basic_artificial": 0}

    def counting(obj, basis, slots, signs, rows):
        kinds["infeasible"] += 1
        kinds["basic_artificial"] += any(b >= 2 * len(slots) + len(signs) for b in basis)
        return farkas(obj, basis, slots, signs, rows)

    monkeypatch.setattr(ratlp, "_farkas", counting)
    rng = random.Random(20261018)
    feasible = 0
    for _ in range(2000):
        _, rows, n = _seeded_lp(rng)
        got = ratlp.closed_feasible(rows, n)
        assert got == _slack_reference(rows, n), rows
        feasible += got
    assert ratlp.closed_feasible([], 3) and _slack_reference([], 3)
    assert kinds["infeasible"] == 2000 - feasible >= 500, kinds
    assert kinds["basic_artificial"] >= 100, kinds


def _adjoint_closures(factors):
    rs = liecore.build_root_system(factors)
    ws = liecore.weight_system(rs, liecore.highest_roots(rs))
    regions = arrangement.enumerate_regions(rs, arrangement.chamber_hyperplanes(ws))
    return [list(r.closure_ineqs) for r in regions], rs.rank


@pytest.mark.parametrize(
    "factors", [[("A", 3)], [("A", 4)], [("A", 5)], [("B", 3)], [("G", 2)]], ids=str
)
def test_phase1_feasibility_matches_the_slack_lp_on_region_closures(factors):
    # each closure is nonempty; the union of the rows of two closures is
    # empty unless they share a face
    closures, n = _adjoint_closures(factors)
    empty = 0
    for k, rows in enumerate(closures):
        assert ratlp.closed_feasible(rows, n) and _slack_reference(rows, n)
        both = rows + closures[(7 * k + 1) % len(closures)]
        got = ratlp.closed_feasible(both, n)
        assert got == _slack_reference(both, n)
        empty += not got
    assert 0 < empty < len(closures)


# x >= 1 and x <= 0, plus the slack rows x >= -5 and x <= 5
_EMPTY_ROWS = [((1,), 1), ((-1,), 0), ((1,), -5), ((-1,), -5)]


@pytest.mark.parametrize(
    "y, message",
    [
        ([-1, -1, 0, 0], "Farkas multipliers not nonnegative and nonzero"),
        ([0, 0, 0, 0], "Farkas multipliers not nonnegative and nonzero"),
        ([2, 1, 0, 0], "Farkas combination of the normals is not zero"),
        ([0, 0, 1, 1], "Farkas combination of the bounds is not positive"),
    ],
)
def test_a_tampered_farkas_vector_is_refused(monkeypatch, y, message):
    assert not ratlp.closed_feasible(_EMPTY_ROWS, 1)
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: y)
    with pytest.raises(AssertionError, match=message):
        ratlp.closed_feasible(_EMPTY_ROWS, 1)
    with pytest.raises(AssertionError, match=message):
        ratlp.solve_max((1,), _EMPTY_ROWS, 1)


def test_a_tampered_phase1_point_is_refused(monkeypatch):
    rows = [((1, 0), 1), ((0, 1), Q(1, 2))]
    point, read = ratlp._phase1_point, []
    monkeypatch.setattr(ratlp, "_phase1_point", lambda *args: read.append(point(*args)) or read[-1])
    assert ratlp.closed_feasible(rows, 2)
    assert read == [([2, 1], 2)]  # the vertex (1, 1/2)
    monkeypatch.setattr(ratlp, "_phase1_point", lambda tab, basis, n: ([0] * n, 1))
    with pytest.raises(AssertionError, match="phase-1 point violates a row"):
        ratlp.closed_feasible(rows, 2)


def test_certificate_checks_run_under_optimize():
    script = """
from orbitchar import ratlp
assert False  # stripped by -O
rows = [((1,), 1), ((-1,), 0), ((1,), -5), ((-1,), -5)]
farkas = ratlp._farkas
for y in ([-1, -1, 0, 0], [2, 1, 0, 0], [0, 0, 1, 1]):
    ratlp._farkas = lambda *args: y
    try:
        ratlp.closed_feasible(rows, 1)
    except AssertionError as exc:
        print(exc)
ratlp._farkas = farkas
ratlp._phase1_point = lambda tab, basis, n: ([0] * n, 1)
try:
    ratlp.closed_feasible([((1,), 1)], 1)
except AssertionError as exc:
    print(exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:4] == [
        "Farkas multipliers not nonnegative and nonzero",
        "Farkas combination of the normals is not zero",
        "Farkas combination of the bounds is not positive",
        "phase-1 point violates a row",
    ]
