"""The exact phase-1 simplex against hand cases, a floating-point
reference, the full-tableau simplex it condenses and the slack LP."""

import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from conftest import closure_rows

from orbitchar import arrangement, liecore, ratlp
from orbitchar.linalg import eliminate, integral


def _closed_point(rows, n):
    """The phase-1 point of the closed system as Fractions, or None."""
    found = ratlp._feasible_point(ratlp._integral_rows(rows, n), n)
    return None if found is None else tuple(Q(v, found[1]) for v in found[0])


def test_infeasible():
    # x >= 1 and x <= 0: the homogenized system has no point either
    rows = [((1,), 1), ((-1,), 0)]
    assert _closed_point(rows, 1) is None
    assert ratlp.strict_interior(rows, 1) is None


def test_free_variables():
    # x >= -7/2 holds at the origin, which phase 1 keeps; x <= -7/2 does
    # not, and phase 1 meets its bound through x-; the strict points are
    # read back as y / s from the homogenized rows
    rows = [((1,), Q(-7, 2))]
    assert _closed_point(rows, 1) == (0,)
    assert ratlp.strict_interior(rows, 1) == (Q(-5, 2),)
    rows = [((-1,), Q(7, 2))]
    assert _closed_point(rows, 1) == (Q(-7, 2),)
    assert ratlp.strict_interior(rows, 1) == (Q(-9, 2),)


def test_equality_pair():
    # x >= 2 and x <= 2: in one of the two row orders phase 1 ends with an
    # artificial basic at zero; the closed system is the point 2, the
    # strict one is empty
    for rows in ([((1,), 2), ((-1,), -2)], [((-1,), -2), ((1,), 2)]):
        assert _closed_point(rows, 1) == (2,)
        assert ratlp.strict_interior(rows, 1) is None


def test_strict_interior_quadrant():
    rows = [((1, 0), 0), ((0, 1), 0)]
    x = ratlp.strict_interior(rows, 2)
    assert x is not None and x[0] > 0 and x[1] > 0


def test_strict_interior_empty_on_antiparallel():
    rows = [((1,), 0), ((-1,), 0)]
    assert ratlp.strict_interior(rows, 1) is None
    assert ratlp.closed_feasible(ratlp._integral_rows(rows, 1), 1)


def test_closed_infeasible():
    rows = [((1,), 1), ((-1,), 0)]
    assert not ratlp.closed_feasible(ratlp._integral_rows(rows, 1), 1)


def test_closed_feasible_takes_the_integral_rows_as_given(monkeypatch):
    # phase 1 takes the (ints, scale) rows as they are, so ratlp
    # integralizes nothing a second time, on a feasible and an empty system
    rows = [((Q(1, 2), -1), Q(3, 2)), ((Q(-1, 3), 2), Q(-5, 4)), ((1, 1), 0)]
    feasible = ratlp._integral_rows(rows, 2)
    empty = ratlp._integral_rows(rows + [((Q(-1, 2), 1), Q(-1))], 2)
    seen = []

    def recording(values):
        seen.extend(values)
        return integral(values)

    monkeypatch.setattr(ratlp, "integral", recording)
    assert ratlp.closed_feasible(feasible, 2)
    assert not ratlp.closed_feasible(empty, 2)
    assert seen == []


def test_no_rows():
    assert ratlp.strict_interior([], 2) is not None


def _scipy_answers(rows, n):
    """Closed feasibility by linprog, and the largest t (capped at 1) with
    normal.x - t >= bound on every row; numpy and scipy are test-only
    dependencies, so its callers skip without them."""
    import numpy as np
    from scipy.optimize import linprog

    a_ub = np.array([[-float(v) for v in normal] for normal, _ in rows])
    b_ub = np.array([-float(b) for _, b in rows])
    closed = linprog(c=[0.0] * n, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n)
    assert closed.status in (0, 2)
    slack = linprog(
        c=[0.0] * n + [-1.0],
        A_ub=np.hstack([a_ub, np.ones((len(rows), 1))]),
        b_ub=b_ub,
        bounds=[(None, None)] * n + [(None, 1)],
    )
    assert slack.status == 0
    return closed.status == 0, -slack.fun


def _assert_strictly_inside(x, rows):
    assert type(x) is tuple and all(type(xi) is Q for xi in x)
    for normal, bound in rows:
        assert sum(Q(v) * xi for v, xi in zip(normal, x)) > bound


def test_against_scipy_on_random_instances():
    pytest.importorskip("numpy")
    pytest.importorskip("scipy.optimize")
    rng = random.Random(917)
    strict = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        rows = [
            (tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-4, 4))
            for _ in range(m)
        ]
        # box rows keep every system bounded
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append((tuple(e), -10))
            rows.append((tuple(-v for v in e), -10))
        closed, t = _scipy_answers(rows, n)
        assert ratlp.closed_feasible(ratlp._integral_rows(rows, n), n) == closed
        x = ratlp.strict_interior(rows, n)
        # an exact positive t has a denominator of a few digits at most
        assert (x is not None) == (closed and t > 1e-7)
        if x is not None:
            _assert_strictly_inside(x, rows)
            strict += 1
    assert strict > 20


def test_against_scipy_on_rational_instances():
    pytest.importorskip("numpy")
    pytest.importorskip("scipy.optimize")
    # denominators 1-4 in normals and bounds; half the instances drop the
    # box, so that unbounded systems occur
    rng = random.Random(4021)

    def rand_q():
        return Q(rng.randint(-6, 6), rng.randint(1, 4))

    seen = {True: 0, False: 0}
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
        closed, t = _scipy_answers(rows, n)
        assert ratlp.closed_feasible(ratlp._integral_rows(rows, n), n) == closed
        x = ratlp.strict_interior(rows, n)
        assert (x is not None) == (closed and t > 1e-7)
        if x is not None:
            _assert_strictly_inside(x, rows)
        seen[closed] += 1
    assert min(seen.values()) >= 5, seen


def test_degenerate_ties_break_on_basis_index():
    # y >= 1 stated twice, as 2y >= 2 and y >= 1, ties the ratio test of
    # phase 1 on the rows and on their homogenization; every row is
    # violated at the origin, so each starts with its artificial basic;
    # the least basis index decides the vertex
    rows = [((0, 2), 2), ((1, 1), 2), ((-1, 1), 2), ((0, 1), 1)]
    assert _closed_point(rows, 2) == (0, 2) == _reference_closed_point(rows, 2)
    assert ratlp.strict_interior(rows, 2) == (0, 3) == _reference_strict_point(rows, 2)
    rows = [((0, 2, 2), 2), ((0, 1, 1), 1), ((2, 1, 0), 1)]
    assert _closed_point(rows, 3) == (0, 1, 0) == _reference_closed_point(rows, 3)
    x = ratlp.strict_interior(rows, 3)
    assert x == (0, 2, 0) == _reference_strict_point(rows, 3)
    assert all(type(xi) is Q for xi in x)


OPTIMAL, UNBOUNDED, INFEASIBLE = "optimal", "unbounded", "infeasible"


def _pivot(tab, basis, row, col):
    if tab[row][col] < 0:
        tab[row] = [-x for x in tab[row]]
    piv = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            tab[i] = eliminate(r, piv, col)
    basis[row] = col


def _run(tab, basis, cost, ncols):
    obj = list(cost) + [0]
    for i, b in enumerate(basis):
        if obj[b]:
            obj = eliminate(obj, tab[i], b)
    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL, obj
        cand = [i for i in range(len(tab)) if tab[i][col] > 0]
        if not cand:
            return UNBOUNDED, obj
        best = cand[0]
        for i in cand[1:]:
            lhs, rhs = tab[i][-1] * tab[best][col], tab[best][-1] * tab[i][col]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        _pivot(tab, basis, best, col)
        if obj[col]:
            obj = eliminate(obj, tab[best], col)


def _full_tableau_phase1(rows, nvars):
    """Phase 1 of the dense simplex that ratlp condenses: every column x+,
    x-, s and a is stored, under the same Bland rule and the same
    fraction-free row invariant.  A row that the origin satisfies starts
    with its surplus basic, any other with its artificial; no artificial
    column enters.  Returns the final (tab, basis) at a zero residual,
    else None."""
    m = len(rows)
    ncols = 2 * nvars + m
    tab, basis = [], []
    for i, (normal, bound) in enumerate(rows):
        ints, scale = integral((*normal, bound))
        sign = -1 if ints[-1] <= 0 else 1
        a = [sign * v for v in ints[:-1]]
        row = a + [-v for v in a] + [0] * (2 * m) + [sign * ints[-1]]
        row[2 * nvars + i] = -sign * scale
        row[ncols + i] = sign * scale
        tab.append(row)
        basis.append(2 * nvars + i if sign < 0 else ncols + i)
    status, obj = _run(tab, basis, [0] * ncols + [1] * m, ncols)
    assert status == OPTIMAL
    return (tab, basis) if obj[-1] == 0 else None


def _basic_point(tab, basis, nvars):
    x = [Q(0)] * (2 * nvars)
    for i, b in enumerate(basis):
        if b < 2 * nvars:
            x[b] = Q(tab[i][-1], tab[i][b])
    return tuple(x[j] - x[nvars + j] for j in range(nvars))


def _reference_closed_point(rows, nvars):
    found = _full_tableau_phase1(rows, nvars)
    return None if found is None else _basic_point(*found, nvars)


def _homogenized(rows, nvars):
    """normal.y - bound.s >= 1 for every row, and s >= 1."""
    out = [((*normal, -Q(bound)), 1) for normal, bound in rows]
    return out + [((0,) * nvars + (1,), 1)]


def _reference_strict_point(rows, nvars):
    y = _reference_closed_point(_homogenized(rows, nvars), nvars + 1)
    return None if y is None else tuple(v / y[-1] for v in y[:-1])


def _full_tableau_reference(objective, rows, nvars):
    """The dense two-phase simplex: phase 1, the basic artificials driven
    out, then phase 2 on the objective."""
    found = _full_tableau_phase1(rows, nvars)
    if found is None:
        return INFEASIBLE, None, None
    tab, basis = found
    m = len(rows)
    ncols = art = 2 * nvars + m
    for i in range(m):
        if basis[i] >= art:
            col = next((j for j in range(ncols) if tab[i][j]), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < art]
    tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    c, _ = integral(objective)
    status, _ = _run(tab, basis, [-v for v in c] + c + [0] * m, ncols)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    point = _basic_point(tab, basis, nvars)
    value = sum((Q(v) * p for v, p in zip(objective, point)), Q(0))
    return OPTIMAL, value, point


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
    return rows, n


def _entry_counts(monkeypatch):
    """Count the rows that enter a dictionary with their surplus basic, the
    phase-1 pivots, the pivots that bring in an artificial column, and the
    pivots taken at a zero residual."""
    counts = {"surplus": 0, "pivots": 0, "artificial": 0, "zero_residual": 0}
    add_rows, pivot = ratlp._add_rows, ratlp._pivot

    def counting_add_rows(dic, irows, *args):
        new = add_rows(dic, irows, *args)
        n, m = len(new.slots), len(new.tab)
        counts["surplus"] += sum(b < 2 * n + m for b in new.basis[m - len(irows) :])
        return new

    def counting_pivot(rows, basis, slots, r, col, obj):
        counts["pivots"] += 1
        counts["artificial"] += col >= 2 * len(slots) + len(rows)
        counts["zero_residual"] += obj[-1] == 0
        return pivot(rows, basis, slots, r, col, obj)

    monkeypatch.setattr(ratlp, "_add_rows", counting_add_rows)
    monkeypatch.setattr(ratlp, "_pivot", counting_pivot)
    return counts


def test_condensed_simplex_matches_the_full_tableau(monkeypatch):
    # the phase-1 answer and point on the rows and on their homogenization;
    # many rows start with their surplus basic, no artificial enters, and
    # phase 1 stops once its residual is 0
    counts = _entry_counts(monkeypatch)
    rng = random.Random(20261018)
    seen = {"closed": 0, "strict": 0, "empty": 0}
    for _ in range(2000):
        rows, n = _seeded_lp(rng)
        got = _closed_point(rows, n)
        assert got == _reference_closed_point(rows, n), rows
        x = ratlp.strict_interior(rows, n)
        assert x == _reference_strict_point(rows, n), rows
        if x is not None:
            assert all(type(xi) is Q for xi in x)
        seen["strict" if x else "closed" if got else "empty"] += 1
    assert min(seen.values()) >= 200, seen
    assert counts["surplus"] >= 100 and counts["artificial"] == 0, counts
    assert counts["pivots"] > 0 and counts["zero_residual"] == 0, counts


def _slack_reference(rows, n):
    """The uniform-slack LP: the largest t (capped at 1) with normal.x - t
    >= bound on every row, by the dense two-phase simplex; t >= 0 decides
    the closed system, t > 0 the strict one."""
    ext = [(tuple(normal) + (-1,), bound) for normal, bound in rows]
    ext.append(((0,) * n + (-1,), Q(-1)))
    status, t, _ = _full_tableau_reference((0,) * n + (1,), ext, n + 1)
    assert status == OPTIMAL
    return t


# adjoint regions (W-Catalan numbers) by simple type
_REGIONS = {("A", 3): 14, ("A", 4): 42, ("B", 3): 20, ("C", 3): 20, ("D", 4): 50, ("G", 2): 8}


@pytest.mark.parametrize("factors", [[t] for t in _REGIONS], ids=str)
def test_condensed_simplex_matches_the_full_tableau_on_enumerations(monkeypatch, factors):
    # every node LP: the yes or no of the slack LP; a cold LP (from the
    # artificial basis: the root and the last level) also has the point of
    # the dense phase 1, a warm one (from its parent's dictionary) a point
    # strictly inside its rows
    solve, lps = ratlp.strict_interior, []

    def recording(rows, nvars, start=None):
        cold = start is None or all(
            b >= 2 * len(start.slots) + len(start.tab) for b in start.basis
        )
        got = solve(rows, nvars, start)
        lps.append((list(rows), nvars, got, cold))
        return got

    monkeypatch.setattr(ratlp, "strict_interior", recording)
    rs = liecore.build_root_system(factors)
    ws = liecore.weight_system(rs, liecore.highest_roots(rs))
    regions = arrangement.enumerate_regions(rs, arrangement.chamber_hyperplanes(ws))
    assert len(regions) == _REGIONS[factors[0]]
    assert len(lps) > len(regions) and any(got is None for _, _, got, _ in lps)
    assert sum(cold for *_, cold in lps) < len(lps)
    for rows, nvars, got, cold in lps:
        if cold:
            assert got == _reference_strict_point(rows, nvars)
        elif got is not None:
            _assert_strictly_inside(got, rows)
        assert (got is not None) == (_slack_reference(rows, nvars) > 0)


def test_a4_warm_lps_that_end_at_another_vertex(monkeypatch):
    # the figure in the ratlp docstring: of the warm LPs with a point in the
    # adjoint A4 enumeration, 8 of 143 end at another vertex than the same
    # rows solved cold
    solve, warm = ratlp.strict_interior, []

    def recording(rows, nvars, start=None):
        cold = start is None or all(
            b >= 2 * len(start.slots) + len(start.tab) for b in start.basis
        )
        got = solve(rows, nvars, start)
        if not cold and got is not None:
            warm.append((list(rows), nvars, got))
        return got

    monkeypatch.setattr(ratlp, "strict_interior", recording)
    rs = liecore.build_root_system([("A", 4)])
    ws = liecore.weight_system(rs, liecore.highest_roots(rs))
    arrangement.enumerate_regions(rs, arrangement.chamber_hyperplanes(ws))
    monkeypatch.undo()
    moved = [got for rows, nvars, got in warm if ratlp.strict_interior(rows, nvars) != got]
    assert (len(moved), len(warm)) == (8, 143)


def test_phase1_feasibility_matches_the_slack_lp(monkeypatch):
    # every positive residual passes its Farkas check (closed_feasible would
    # raise otherwise); count the read-offs that use a still-basic a_i
    farkas, kinds = ratlp._farkas, {"infeasible": 0, "basic_artificial": 0}

    def counting(obj, basis, slots, rows):
        kinds["infeasible"] += 1
        kinds["basic_artificial"] += any(b >= 2 * len(slots) + len(rows) for b in basis)
        return farkas(obj, basis, slots, rows)

    monkeypatch.setattr(ratlp, "_farkas", counting)
    rng = random.Random(20261018)
    feasible = 0
    for _ in range(2000):
        rows, n = _seeded_lp(rng)
        got = ratlp.closed_feasible(ratlp._integral_rows(rows, n), n)
        assert got == (_slack_reference(rows, n) >= 0), rows
        feasible += got
    assert ratlp.closed_feasible(ratlp._integral_rows([], 3), 3)
    assert _slack_reference([], 3) >= 0
    assert kinds["infeasible"] == 2000 - feasible >= 500, kinds
    assert kinds["basic_artificial"] >= 100, kinds


def _adjoint_closures(factors):
    rs = liecore.build_root_system(factors)
    ws = liecore.weight_system(rs, liecore.highest_roots(rs))
    hps = arrangement.chamber_hyperplanes(ws)
    regions = arrangement.enumerate_regions(rs, hps)
    return [list(rows) for rows in closure_rows(rs, hps, regions)], rs.rank


@pytest.mark.parametrize(
    "factors", [[("A", 3)], [("A", 4)], [("A", 5)], [("B", 3)], [("G", 2)]], ids=str
)
def test_phase1_feasibility_matches_the_slack_lp_on_region_closures(factors):
    # each closure is nonempty; the union of the rows of two closures is
    # empty unless they share a face
    closures, n = _adjoint_closures(factors)
    empty = 0
    for k, rows in enumerate(closures):
        assert ratlp.closed_feasible(ratlp._integral_rows(rows, n), n)
        assert _slack_reference(rows, n) >= 0
        both = rows + closures[(7 * k + 1) % len(closures)]
        got = ratlp.closed_feasible(ratlp._integral_rows(both, n), n)
        assert got == (_slack_reference(both, n) >= 0)
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
    assert not ratlp.closed_feasible(ratlp._integral_rows(_EMPTY_ROWS, 1), 1)
    assert ratlp.strict_interior(_EMPTY_ROWS, 1) is None
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: y)
    with pytest.raises(AssertionError, match=message):
        ratlp.closed_feasible(ratlp._integral_rows(_EMPTY_ROWS, 1), 1)
    # the Motzkin vector of the homogenized rows has one more entry, for
    # s >= 1; their bounds are the rows' positive scales, so a vector that
    # cancels the normals but not the bounds fails on the s column there
    if "bounds" in message:
        message = "Farkas combination of the normals is not zero"
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: y + [0])
    with pytest.raises(AssertionError, match=message):
        ratlp.strict_interior(_EMPTY_ROWS, 1)


def test_a_tampered_phase1_point_is_refused(monkeypatch):
    rows = [((1, 0), 1), ((0, 1), Q(1, 2))]
    point, read = ratlp._phase1_point, []
    monkeypatch.setattr(ratlp, "_phase1_point", lambda *args: read.append(point(*args)) or read[-1])
    assert ratlp.closed_feasible(ratlp._integral_rows(rows, 2), 2)
    assert read == [([2, 1], 2)]  # the vertex (1, 1/2)
    monkeypatch.setattr(ratlp, "_phase1_point", lambda tab, basis, n: ([0] * n, 1))
    with pytest.raises(AssertionError, match="phase-1 point violates a row"):
        ratlp.closed_feasible(ratlp._integral_rows(rows, 2), 2)


def test_a_tampered_homogenized_point_is_refused(monkeypatch):
    # x > 1 read as (y, s) = (2, 1) / 1: x = 2
    rows = [((1,), 1)]
    point, read = ratlp._phase1_point, []
    monkeypatch.setattr(ratlp, "_phase1_point", lambda *args: read.append(point(*args)) or read[-1])
    assert ratlp.strict_interior(rows, 1) == (2,)
    assert read == [([2, 1], 1)]
    # (1, 1) / 1 meets x >= 1 but not x > 1; (0, 0) / 1 breaks s >= 1
    for x in ([1, 1], [0, 0]):
        monkeypatch.setattr(ratlp, "_phase1_point", lambda tab, basis, n: (x, 1))
        with pytest.raises(AssertionError, match="phase-1 point violates a row"):
            ratlp.strict_interior(rows, 1)


def test_a_start_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ratlp.closed_feasible(ratlp._integral_rows(_EMPTY_ROWS, 1), 1, (0, 0))


def test_a_start_outside_an_empty_system_is_answered_by_its_farkas_check(monkeypatch):
    rows = ratlp._integral_rows(_EMPTY_ROWS, 1)
    assert not ratlp.closed_feasible(rows, 1, (1,))
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: [2, 1, 0, 0])
    with pytest.raises(AssertionError, match="Farkas combination of the normals is not zero"):
        ratlp.closed_feasible(rows, 1, (1,))


def test_a_start_outside_a_nonempty_system_runs_phase1(monkeypatch):
    # x >= 1 and y >= 1/2: the start (1, 0) fails the second row, so phase 1
    # runs from the origin and pivots as it does with no start
    rows = ratlp._integral_rows([((1, 0), 1), ((0, 1), Q(1, 2))], 2)
    counts = _entry_counts(monkeypatch)
    assert ratlp.closed_feasible(rows, 2)
    cold = dict(counts)
    assert cold["pivots"] > 0
    assert ratlp.closed_feasible(rows, 2, (1, 0))
    assert counts == {key: 2 * v for key, v in cold.items()}


def test_a_start_inside_takes_no_pivot(monkeypatch):
    # a start that satisfies every row, tight rows included, is the answer:
    # no dictionary is built and no pivot is taken
    rows = ratlp._integral_rows([((1, 0), 1), ((0, 1), Q(1, 2)), ((-1, -1), -5)], 2)
    counts = _entry_counts(monkeypatch)
    monkeypatch.setattr(ratlp, "_feasible_point", None)
    for start in ((1, Q(1, 2)), (Q(5, 2), Q(5, 2)), (2, 1)):
        assert ratlp.closed_feasible(rows, 2, start)
    assert counts == {"surplus": 0, "pivots": 0, "artificial": 0, "zero_residual": 0}


def test_certificate_checks_run_under_optimize(subprocess_env):
    script = """
from orbitchar import ratlp
assert False  # stripped by -O
rows = [((1,), 1), ((-1,), 0), ((1,), -5), ((-1,), -5)]
farkas = ratlp._farkas
for y in ([-1, -1, 0, 0], [2, 1, 0, 0], [0, 0, 1, 1]):
    ratlp._farkas = lambda *args: y
    try:
        ratlp.closed_feasible(ratlp._integral_rows(rows, 1), 1)
    except AssertionError as exc:
        print(exc)
ratlp._farkas = lambda *args: [2, 1, 0, 0, 0]
try:
    ratlp.strict_interior(rows, 1)
except AssertionError as exc:
    print(exc)
ratlp._farkas = farkas
ratlp._phase1_point = lambda tab, basis, n: ([0] * n, 1)
try:
    ratlp.closed_feasible(ratlp._integral_rows([((1,), 1)], 1), 1)
except AssertionError as exc:
    print(exc)
ratlp._phase1_point = lambda tab, basis, n: ([1, 1], 1)
try:
    ratlp.strict_interior([((1,), 1)], 1)
except AssertionError as exc:
    print(exc)
# a start that satisfies every row answers with no phase 1; one outside an
# empty system is not trusted, and phase 1 answers
feasible_point, ratlp._feasible_point = ratlp._feasible_point, None
print(ratlp.closed_feasible(ratlp._integral_rows([((1,), 1)], 1), 1, (1,)))
ratlp._feasible_point = feasible_point
print(ratlp.closed_feasible(ratlp._integral_rows(rows, 1), 1, (0,)))
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=subprocess_env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:8] == [
        "Farkas multipliers not nonnegative and nonzero",
        "Farkas combination of the normals is not zero",
        "Farkas combination of the bounds is not positive",
        "Farkas combination of the normals is not zero",
        "phase-1 point violates a row",
        "phase-1 point violates a row",
        "True",
        "False",
    ]


def test_a_false_empty_exit_is_refused_under_optimize(subprocess_env):
    # min_norm_point's loop driven to its empty exit on the corner polyhedron,
    # which has a point: the exit's Farkas vector fails its check, and the
    # refusal survives -O
    script = """
from orbitchar import liecore as lc, minnorm as mn
assert False  # stripped by -O
form = lc.invariant_form(lc.build_root_system([("A", 1), ("A", 1)]))
poly = mn.Polyhedron.from_rows([((0, 0), 0), ((1, 0), 2), ((-1, 1), 2)], 2)
most_violated = mn._most_violated
mn._most_violated = lambda rows, x, *args: 0 if not any(x) else most_violated(rows, x, *args)
try:
    mn.min_norm_point(poly, form)
except ValueError as exc:
    print("ValueError", exc)
except AssertionError as exc:
    print("AssertionError", exc)
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=subprocess_env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "AssertionError empty exit on a nonempty polyhedron\n"


# the positive quadrant; its cold vertex is (1, 1)
_QUADRANT = [((1, 0), 0), ((0, 1), 0)]


def _solved_quadrant():
    root = ratlp.cold_start(_QUADRANT, 2)
    assert ratlp.strict_interior(_QUADRANT, 2, root) == (1, 1)
    return root


def test_a_warm_child_satisfied_at_its_parent_vertex_takes_no_pivot(monkeypatch):
    root = _solved_quadrant()
    counts = _entry_counts(monkeypatch)
    # x + y > 0 holds at (1, 1), and x + y > 1 is tight there in the
    # homogenized rows: either row enters with its surplus basic, and the
    # parent's vertex is the answer
    for row in (((1, 1), 0), ((1, 1), 1)):
        assert ratlp.strict_interior(_QUADRANT + [row], 2, ratlp.split(root, row)[0]) == (1, 1)
    assert counts == {"surplus": 2, "pivots": 0, "artificial": 0, "zero_residual": 0}


def test_an_infeasible_warm_child_is_certified(monkeypatch):
    root = _solved_quadrant()
    farkas, read = ratlp._farkas, []
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: read.append(farkas(*args)) or read[-1])
    # x + y < 0: the start is optimal with a positive residual; the Motzkin
    # vector is in tableau order (the quadrant, s >= 1, the new row)
    row = ((-1, -1), 0)
    start = ratlp.split(root, row)[0]
    assert ratlp.strict_interior(_QUADRANT + [row], 2, start) is None
    assert read == [[1, 1, 0, 1]]
    assert [ints for ints, _ in start.irows] == [
        [1, 0, 0, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [-1, -1, 0, 1],
    ]
    # the same answer from the artificial basis
    assert ratlp.strict_interior(_QUADRANT + [row], 2) is None


def test_warm_answers_match_the_cold_ones_on_random_children():
    # a random parent, solved cold, and random children of it: the same yes
    # or no as from the artificial basis, and a yes point strictly inside
    rng = random.Random(1318)

    def rand_row(n):
        return tuple(rng.randint(-3, 3) for _ in range(n)), Q(rng.randint(-4, 4), rng.randint(1, 3))

    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [rand_row(n) for _ in range(rng.randint(0, 6))]
        parent = ratlp.cold_start(rows, n)
        if ratlp.strict_interior(rows, n, parent) is None:
            continue
        for _ in range(3):
            row = rand_row(n)
            got = ratlp.strict_interior(rows + [row], n, ratlp.split(parent, row)[0])
            assert (got is not None) == (ratlp.strict_interior(rows + [row], n) is not None)
            if got is not None:
                _assert_strictly_inside(got, rows + [row])
            seen[got is not None] += 1
    assert min(seen.values()) >= 50, seen


def test_a_start_of_other_rows_is_refused():
    root = _solved_quadrant()
    row = ((1, 1), 0)
    for rows in (
        _QUADRANT,
        _QUADRANT + [((1, 1), 1)],
        _QUADRANT + [row, row],
        [_QUADRANT[1], _QUADRANT[0], row],
    ):
        with pytest.raises(ValueError, match="other rows"):
            ratlp.strict_interior(rows, 2, ratlp.split(root, row)[0])
    with pytest.raises(ValueError, match="other rows"):
        ratlp.strict_interior(_QUADRANT[:1], 2, root)
    with pytest.raises(ValueError, match="other rows"):
        ratlp.strict_interior(_QUADRANT, 3, root)


@pytest.mark.parametrize(
    "y, message",
    [
        ([-1, -1, 0, -1], "Farkas multipliers not nonnegative and nonzero"),
        ([0, 0, 0, 0], "Farkas multipliers not nonnegative and nonzero"),
        ([1, 0, 0, 1], "Farkas combination of the normals is not zero"),
    ],
)
def test_a_tampered_farkas_vector_from_a_warm_start_is_refused(monkeypatch, y, message):
    root, row = _solved_quadrant(), ((-1, -1), 0)
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: y)
    with pytest.raises(AssertionError, match=message):
        ratlp.strict_interior(_QUADRANT + [row], 2, ratlp.split(root, row)[0])


def test_a_tampered_point_from_a_warm_start_is_refused(monkeypatch):
    # (y, s) = (1, 0, 1) breaks y2 >= 1, and (0, 0, 0) breaks s >= 1
    root, row = _solved_quadrant(), ((1, 1), 0)
    for x in ([1, 0, 1], [0, 0, 0]):
        monkeypatch.setattr(ratlp, "_phase1_point", lambda tab, basis, n: (x, 1))
        with pytest.raises(AssertionError, match="phase-1 point violates a row"):
            ratlp.strict_interior(_QUADRANT + [row], 2, ratlp.split(root, row)[0])


def test_warm_certificate_checks_run_under_optimize(subprocess_env):
    script = """
from orbitchar import ratlp
assert False  # stripped by -O
quadrant = [((1, 0), 0), ((0, 1), 0)]
root = ratlp.cold_start(quadrant, 2)
ratlp.strict_interior(quadrant, 2, root)

def warm(row):
    try:
        ratlp.strict_interior(quadrant + [row], 2, ratlp.split(root, row)[0])
    except AssertionError as exc:
        print(exc)

for y in ([-1, -1, 0, -1], [1, 0, 0, 1]):
    ratlp._farkas = lambda *args: y
    warm(((-1, -1), 0))
ratlp._phase1_point = lambda tab, basis, n: ([1, 0, 1], 1)
warm(((1, 1), 0))
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=subprocess_env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:3] == [
        "Farkas multipliers not nonnegative and nonzero",
        "Farkas combination of the normals is not zero",
        "phase-1 point violates a row",
    ]


def _counted_point_checks(monkeypatch):
    """The number of rows each point check covers, in call order."""
    checked, check = [], ratlp._check_point

    def counting(rows, x, d):
        checked.append(len(rows))
        return check(rows, x, d)

    monkeypatch.setattr(ratlp, "_check_point", counting)
    return checked


def test_a_kept_point_is_checked_against_the_new_row_only(monkeypatch):
    checked = _counted_point_checks(monkeypatch)
    root = _solved_quadrant()
    # the root's point is new: the quadrant and s >= 1
    assert checked == [3] and root.point == ([1, 1, 1], 1) and root.checked == 3
    # x + y > 0 holds at (1, 1): no pivot, the root's point, one new row;
    # and a grandchild below it that keeps the point checks its own row only
    row = ((1, 1), 0)
    child = ratlp.split(root, row)[0]
    assert ratlp.strict_interior(_QUADRANT + [row], 2, child) == (1, 1)
    low = ((1, -1), -1)
    grandchild = ratlp.split(child, low)[0]
    assert ratlp.strict_interior(_QUADRANT + [row, low], 2, grandchild) == (1, 1)
    assert checked == [3, 1, 1]
    # x + y > 3 fails at (1, 1): phase 1 moves, and every row is checked
    row = ((1, 1), 3)
    moved = ratlp.split(root, row)[0]
    assert ratlp.strict_interior(_QUADRANT + [row], 2, moved) == (3, 1)
    assert moved.point != root.point
    assert checked == [3, 1, 1, 4]
    # a start built before its parent was solved has no point to keep
    fresh = ratlp.cold_start(_QUADRANT, 2)
    early = ratlp.split(fresh, ((1, 1), 0))[0]
    assert ratlp.strict_interior(_QUADRANT, 2, fresh) == (1, 1)
    assert ratlp.strict_interior(_QUADRANT + [((1, 1), 0)], 2, early) == (1, 1)
    assert checked == [3, 1, 1, 4, 3, 4]


def test_a_warm_child_at_its_parent_vertex_returns_the_parent_witness():
    root = ratlp.cold_start(_QUADRANT, 2)
    witness = ratlp.strict_interior(_QUADRANT, 2, root)
    # x + y > 0 holds at (1, 1): the same tuple; x + y > 3 moves phase 1
    kept, moved = ((1, 1), 0), ((1, 1), 3)
    assert ratlp.strict_interior(_QUADRANT + [kept], 2, ratlp.split(root, kept)[0]) is witness
    assert ratlp.strict_interior(_QUADRANT + [moved], 2, ratlp.split(root, moved)[0]) == (3, 1)


def test_the_parent_point_planted_on_a_child_it_violates_is_refused(monkeypatch):
    # x + y > 3 fails at the root's point (1, 1); read that point back as
    # the child's, and its one unchecked row refuses it
    root, row = _solved_quadrant(), ((1, 1), 3)
    planted = root.point
    monkeypatch.setattr(ratlp, "_phase1_point", lambda tab, basis, n: planted)
    with pytest.raises(AssertionError, match="phase-1 point violates a row"):
        ratlp.strict_interior(_QUADRANT + [row], 2, ratlp.split(root, row)[0])


def test_a_warm_start_shares_its_root_table(monkeypatch):
    # a sign row is integralized the first time a start below the root asks
    # for it, and looked up after that
    root = _solved_quadrant()
    rows = []
    integral = ratlp.integral
    monkeypatch.setattr(ratlp, "integral", lambda row: rows.append(row) or integral(row))
    row = ((1, 1), Q(1, 2))
    child = ratlp.split(root, row)[0]
    again = ratlp.split(root, ((1, 1), Q(1, 2)))[0]
    grandchild = ratlp.split(child, row)[0]
    assert len(rows) == 1
    assert child.table is again.table is grandchild.table is root.table
    assert child.irows[-1] == again.irows[-1] == ([2, 2, -1, 2], 2)
    # another root has a table of its own
    assert ratlp.cold_start(_QUADRANT, 2).table is not root.table


_FIELDS = ("tab", "basis", "slots", "obj", "irows", "rows", "point", "checked")


def test_a_split_builds_both_warm_starts_on_random_rows():
    # walk down random rows: at each node the children of a split on a row
    # equal those of the split on its opposite, reversed, field by field, so
    # each child that the negated substitution builds equals the same child
    # substituted directly; one of them, solved or not, is the next node
    rng = random.Random(2022)
    seen = {"point": 0, "no point": 0, "x basic": 0}
    for _ in range(120):
        rows, n = _seeded_lp(rng)
        k = rng.randint(0, len(rows) - 1)
        node = ratlp.cold_start(rows[:k], n)
        if rng.random() < 0.7:
            ratlp.strict_interior(node.rows, n, node)
        for row in rows[k:]:
            normal, bound = row
            opposite = (tuple(-v for v in normal), -bound)
            pair = ratlp.split(node, row)
            want = ratlp.split(node, opposite)[::-1]
            for got, ref in zip(pair, want):
                for name in _FIELDS:
                    assert getattr(got, name) == getattr(ref, name), name
                assert got.table is node.table
            seen["no point" if node.point is None else "point"] += 1
            seen["x basic"] += any(b < 2 * (n + 1) for b in node.basis)
            node = rng.choice(pair)
            if rng.random() < 0.7:
                ratlp.strict_interior(node.rows, n, node)
    assert min(seen.values()) >= 100, seen


def test_the_parent_point_planted_on_a_split_child_it_violates_is_refused(monkeypatch):
    # x + y > 1 is tight at the root's point (1, 1) in the homogenized
    # rows, and its opposite x + y < 1 fails there: read the root's point
    # back as the '-' child's, and its one unchecked row refuses it
    root = _solved_quadrant()
    above, below = ratlp.split(root, ((1, 1), 1))
    assert below.rows[-1] == ((-1, -1), -1)
    planted = root.point
    monkeypatch.setattr(ratlp, "_phase1_point", lambda tab, basis, n: planted)
    assert ratlp.strict_interior(above.rows, 2, above) == (1, 1)
    with pytest.raises(AssertionError, match="phase-1 point violates a row"):
        ratlp.strict_interior(below.rows, 2, below)


@pytest.mark.parametrize(
    "y, message",
    [
        ([-1, -1, 0, -1], "Farkas multipliers not nonnegative and nonzero"),
        ([0, 0, 0, 0], "Farkas multipliers not nonnegative and nonzero"),
        ([1, 0, 0, 1], "Farkas combination of the normals is not zero"),
    ],
)
def test_a_tampered_farkas_vector_on_a_split_child_is_refused(monkeypatch, y, message):
    # x + y < 0, the '-' child of x + y > 0, has no point in the quadrant
    root = _solved_quadrant()
    farkas, read = ratlp._farkas, []
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: read.append(farkas(*args)) or read[-1])
    below = ratlp.split(root, ((1, 1), 0))[1]
    assert ratlp.strict_interior(below.rows, 2, below) is None
    assert read == [[1, 1, 0, 1]]
    monkeypatch.setattr(ratlp, "_farkas", lambda *args: y)
    with pytest.raises(AssertionError, match=message):
        ratlp.strict_interior(below.rows, 2, ratlp.split(root, ((1, 1), 0))[1])


def test_each_enumeration_node_is_substituted_once(monkeypatch):
    # adjoint sl4: 53 LPs, the root and both children of 26 nodes; each
    # node substitutes its '+' row alone, and the root's cold start its 3
    # chamber rows and s >= 1 in one call
    calls = {"split": 0, "substitute": 0, "rows": 0, "lp": 0}
    split, substitute, strict_interior = ratlp.split, ratlp._substitute, ratlp.strict_interior

    def counted_split(*args):
        calls["split"] += 1
        return split(*args)

    def counted_substitute(irows, *args):
        calls["substitute"] += 1
        calls["rows"] += len(irows)
        return substitute(irows, *args)

    def counted_lp(*args):
        calls["lp"] += 1
        return strict_interior(*args)

    monkeypatch.setattr(ratlp, "split", counted_split)
    monkeypatch.setattr(ratlp, "_substitute", counted_substitute)
    monkeypatch.setattr(ratlp, "strict_interior", counted_lp)
    rs = liecore.build_root_system([("A", 3)])
    ws = liecore.weight_system(rs, list(liecore.highest_roots(rs)))
    assert len(arrangement.enumerate_regions(rs, arrangement.chamber_hyperplanes(ws))) == 14
    assert calls == {"split": 26, "substitute": 26 + 1, "rows": 26 + 4, "lp": 53}
