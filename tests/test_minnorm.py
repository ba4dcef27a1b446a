"""Exact minimum-norm points: frozen cases, certificates, and cross-checks."""

import copy
import hashlib
import itertools
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from conftest import LARGE, closure_rows

from orbitchar import arrangement as ar
from orbitchar import liecore as lc
from orbitchar import linalg
from orbitchar import minnorm as mn
from orbitchar import orbits, verify


def _diag_form():
    rs = lc.build_root_system([("A", 1), ("A", 1)])
    return lc.invariant_form(rs)


def _a2_form():
    return lc.invariant_form(lc.build_root_system([("A", 2)]))


def test_corner_point():
    poly = mn.Polyhedron.from_rows([((1, 0), 2), ((-1, 1), 2)], 2)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (2, 4)
    assert res.norm_sq == 40
    mn.verify_kkt(poly, _diag_form(), res)


def test_certificate_check_runs_under_optimize(subprocess_env):
    # under python -O assert statements vanish; verify_kkt must still refuse
    # every tampered or malformed certificate, with its own message
    script = """
import dataclasses
from fractions import Fraction as Q
from orbitchar import liecore as lc, minnorm as mn
assert False  # stripped by -O
form = lc.invariant_form(lc.build_root_system([("A", 1), ("A", 1)]))
corner = mn.Polyhedron.from_rows([((1, 0), 2), ((-1, 1), 2)], 2)
# x_1 >= 1 after an inactive row: the minimum (1, 0) has row 1 active, multiplier 4
wall = mn.Polyhedron.from_rows([((0, 1), -5), ((1, 0), 1)], 2)
for poly, changes in (
    (corner, lambda res: (
        {"point": (Q(1), Q(4))},
        {"multipliers": tuple(-m for m in res.multipliers)},
        {"point": (Q(3), Q(6))},
        {"multipliers": tuple(2 * m for m in res.multipliers)},
        {"norm_sq": res.norm_sq + 1},
    )),
    (wall, lambda res: (
        {"point": (Q(1),)},
        {"point": (Q(1), Q(0), Q(0))},
        {"active_set": (1, 0)},
        {"active_set": (-1,)},
        {"active_set": (1, 1), "multipliers": (Q(2), Q(2))},
    )),
):
    res = mn.min_norm_point(poly, form)
    mn.verify_kkt(poly, form, res)
    for change in changes(res):
        try:
            mn.verify_kkt(poly, form, dataclasses.replace(res, **change))
        except AssertionError as exc:
            print(exc)
        else:
            print("accepted")
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=subprocess_env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:10] == [
        "candidate violates a constraint",
        "negative multiplier",
        "active row not tight",
        "stationarity fails",
        "norm mismatch",
        "point of the wrong length",
        "point of the wrong length",
        "active set and multipliers differ in length",
        "active row index out of range",
        "active row repeated",
    ]


def test_diagonal_touch():
    poly = mn.Polyhedron.from_rows([((1, 1), 2), ((1, 0), 0), ((0, 1), 0)], 2)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (1, 1)
    assert res.norm_sq == 4


def test_origin_inside():
    poly = mn.Polyhedron.from_rows([((1, 0), -1), ((0, 1), -5)], 2)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (0, 0)
    assert res.norm_sq == 0
    assert res.active_set == ()


def test_a2_far_cell():
    poly = mn.Polyhedron.from_rows([((2, -1), 2), ((-1, 2), 2)], 2)
    res = mn.min_norm_point(poly, _a2_form())
    assert res.point == (2, 2)
    # hand certificate: 2 C (2,2) = 4 row1 + 4 row2
    assert sorted(zip(res.active_set, res.multipliers)) == [(0, 4), (1, 4)]


def _is_empty(poly):
    """Whether no point satisfies every row, by the refusal of
    verify.enumerated_minimum, which shares no code with the dual loop,
    under the identity form."""
    n = poly.rank
    identity = lc.InvariantForm(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    try:
        verify.enumerated_minimum(poly, identity)
    except ValueError as exc:
        assert str(exc) == "0 KKT points, not the one minimizer"
        return True
    return False


def test_empty_rejected():
    poly = mn.Polyhedron.from_rows([((1,), 1), ((-1,), 0)], 1)
    assert _is_empty(poly)
    with pytest.raises(ValueError):
        mn.min_norm_point(poly, lc.invariant_form(lc.build_root_system([("A", 1)])))


def _count_calls(monkeypatch):
    """The start of each ratlp.closed_feasible call and the number of
    phase-1 runs, as lists that grow as min_norm_point runs."""
    starts, phase1 = [], []
    closed_feasible, run_phase1 = mn.ratlp.closed_feasible, mn.ratlp._phase1

    def recording(rows, n, start):
        starts.append(start)
        return closed_feasible(rows, n, start)

    monkeypatch.setattr(mn.ratlp, "closed_feasible", recording)
    monkeypatch.setattr(mn.ratlp, "_phase1", lambda dic: phase1.append(1) or run_phase1(dic))
    return starts, phase1


def test_a_minimizer_answers_the_emptiness_check_with_no_phase1(monkeypatch):
    # one closed_feasible call per minimum, started at the minimizer, which
    # satisfies every row: random feasible polyhedra and every sl4 region
    # (built first: its region enumeration runs phase 1 on strict systems)
    rng = random.Random(38)
    analysis = orbits.RegionAnalysis.build(orbits.AdjointSlModel(4))
    starts, phase1 = _count_calls(monkeypatch)
    points = []
    for _ in range(60):
        _, _, poly, form = verify._random_instance(rng)
        points.append(mn.min_norm_point(poly, form).point)
    points += [analysis.region_minimum(region.id).point for region in analysis.regions]
    assert len(points) == 60 + 14
    assert starts == points
    assert phase1 == []


def test_a_false_empty_exit_is_refused(monkeypatch):
    # row 0, (0, 0) >= 0, is never violated; entered at the origin anyway it
    # has z = 0 and no drop, the empty exit, and its Farkas vector, on row 0
    # alone, has y.b = 0 and fails its check: AssertionError, not ValueError
    poly = mn.Polyhedron.from_rows([((0, 0), 0), ((1, 0), 2), ((-1, 1), 2)], 2)
    assert mn.min_norm_point(poly, _diag_form()).point == (2, 4)
    most_violated = mn._most_violated

    def planted(rows, x, *rest):
        return 0 if not any(x) else most_violated(rows, x, *rest)

    monkeypatch.setattr(mn, "_most_violated", planted)
    with pytest.raises(AssertionError, match="^empty exit on a nonempty polyhedron$"):
        mn.min_norm_point(poly, _diag_form())


def test_from_rows_keeps_the_entries_as_given():
    poly = mn.Polyhedron.from_rows([([1, 0], 2), ((Q(1, 2), -1), Q(3, 2))], 2)
    assert poly.rows == (((1, 0), 2), ((Q(1, 2), -1), Q(3, 2)))
    assert [type(v) for v in (*poly.rows[0][0], poly.rows[0][1])] == [int, int, int]
    assert poly.integral_rows == [([1, 0, 2], 1), ([1, -2, 3], 2)]
    with pytest.raises(ValueError, match="dimension mismatch"):
        mn.Polyhedron.from_rows([((1, 0, 0), 1)], 2)


def test_zero_normal_rows():
    poly = mn.Polyhedron.from_rows([((0, 0), -1), ((1, 0), 1)], 2)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (1, 0)
    with pytest.raises(ValueError):
        mn.min_norm_point(
            mn.Polyhedron.from_rows([((0, 0), 1)], 2), _diag_form()
        )


def test_duplicate_and_vacuous_rows_change_nothing():
    # rows are read as given: a repeated row is never violated again and a
    # zero row with bound <= 0 never is; the certificate names first occurrences
    plain = mn.Polyhedron.from_rows([((1, 0), 2), ((-1, 1), 2)], 2)
    padded = mn.Polyhedron.from_rows(
        [((1, 0), 2), ((0, 0), -1), ((1, 0), 2), ((-1, 1), 2), ((0, 0), 0), ((-1, 1), 2)], 2
    )
    a = mn.min_norm_point(plain, _diag_form())
    b = mn.min_norm_point(padded, _diag_form())
    assert (b.point, b.norm_sq) == (a.point, a.norm_sq) == ((2, 4), 40)
    first = {0: 0, 1: 3}
    assert sorted(zip(b.active_set, b.multipliers)) == sorted(
        (first[k], m) for k, m in zip(a.active_set, a.multipliers)
    )


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([((1, 0), 1), ((0, 0), 1)], 2),  # a zero row with a positive bound
        ([((1,), 1), ((-1,), 0)], 1),  # the entering normal is minus an active one
    ],
)
def test_dual_iteration_reports_an_empty_polyhedron(monkeypatch, rows, rank):
    # the iteration itself finds no step and certifies the polyhedron empty
    # by its own Farkas vector, with no phase 1
    poly = mn.Polyhedron.from_rows(rows, rank)
    form = lc.invariant_form(lc.build_root_system([("A", 1)] * rank))
    starts, phase1 = _count_calls(monkeypatch)
    with pytest.raises(ValueError, match="empty polyhedron"):
        mn.min_norm_point(poly, form)
    assert starts == [] and phase1 == []


def test_a_tampered_empty_exit_certificate_is_refused(monkeypatch):
    # the empty exit's Farkas vector, with the sign of one nonzero entry
    # flipped before its check: AssertionError, not ValueError
    rng = random.Random(39)
    cases = [verify._planted_empty(rng) for _ in range(10)]
    cases += [
        (mn.Polyhedron.from_rows([((1, 0), 1), ((0, 0), 1)], 2), _diag_form()),
        (mn.Polyhedron.from_rows([((1,), 1), ((-1,), 0)], 1), lc.invariant_form(lc.build_root_system([("A", 1)]))),
    ]
    check_farkas, seen = linalg.check_farkas, []

    def flipped(rows, y):
        t = next(t for t, v in enumerate(y) if v)
        seen.append((rows, y))
        check_farkas(rows, [*y[:t], -y[t], *y[t + 1 :]])

    monkeypatch.setattr(mn.linalg, "check_farkas", flipped)
    starts, phase1 = _count_calls(monkeypatch)
    for k, (poly, form) in enumerate(cases, start=1):
        with pytest.raises(AssertionError, match="^empty exit on a nonempty polyhedron$"):
            mn.min_norm_point(poly, form)
        assert len(seen) == k
        rows, y = seen[-1]
        assert all(row in poly.integral_rows for row in rows)
        check_farkas(rows, y)
    assert starts == [] and phase1 == []


def _count_steps(monkeypatch):
    """A list that grows by one for each active-set step: each step solves
    one Schur system."""
    steps, solve = [], linalg.solve_integral
    monkeypatch.setattr(linalg, "solve_integral", lambda a, b: steps.append(len(a)) or solve(a, b))
    return steps


def test_blocking_row_is_dropped(monkeypatch):
    # at (0, 3, 0), after row 0, row 2 is the most violated row (v^2 / |n|^2
    # is 81 / 9 against 25 / 5 for row 1) and enters; row 1 then blocks it
    # with z != 0, and the solution drops it: four steps, one of them a drop
    form = lc.invariant_form(lc.build_root_system([("A", 1)] * 3))
    poly = mn.Polyhedron.from_rows([((0, 1, 0), 3), ((1, -2, 0), -1), ((2, -2, -1), 3)], 3)
    steps = _count_steps(monkeypatch)
    res = mn.min_norm_point(poly, form)
    assert res.point == (5, 3, 0)
    assert res.active_set == (0, 1)
    assert steps == [0, 1, 2, 1]


def test_dependent_entering_row_drops_the_active_one(monkeypatch):
    # rows 1 and 2 are active at (11/2, 1/2) when row 0 enters; its normal
    # lies in their span, so its step direction z is 0, the only step drops
    # row 2, and row 0 enters with row 1
    poly = mn.Polyhedron.from_rows([((-1, -2), -2), ((1, 1), 6), ((1, -1), 5)], 2)
    steps = _count_steps(monkeypatch)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (10, -4)
    assert res.active_set == (1, 0)
    assert steps == [0, 1, 2, 1]


def test_scaling_a_row_leaves_the_entering_choice_unchanged():
    # at the origin row 1 is the most violated, v^2 / |n|^2 = 4 against 1;
    # row 0 scaled by 5 has the larger raw gap, 5 against 2, and still
    # enters second, after row 1 and in the same place in the certificate
    form = _diag_form()
    kinv, _ = form.integral_inverse_hessian
    for c in (1, 5, Q(1, 3)):
        poly = mn.Polyhedron.from_rows([((c, 0), c), ((0, 1), 2)], 2)
        assert mn._most_violated(poly.integral_rows, [0, 0], 1, kinv, {}) == 1
        res = mn.min_norm_point(poly, form)
        assert (res.point, res.active_set) == ((1, 2), (1, 0))
        assert res.multipliers == (8, Q(4) / c)


def test_a_zero_normal_row_enters_first(monkeypatch):
    # a violated zero normal outranks every violated row, v^2 / 0; of two,
    # the lower index enters, and its step is the empty exit at once
    form = _diag_form()
    poly = mn.Polyhedron.from_rows([((1, 0), 5), ((0, 0), 1), ((0, 1), 9), ((0, 0), 2)], 2)
    kinv, _ = form.integral_inverse_hessian
    assert mn._most_violated(poly.integral_rows, [0, 0], 1, kinv, {}) == 1
    steps = _count_steps(monkeypatch)
    with pytest.raises(ValueError, match="empty polyhedron"):
        mn.min_norm_point(poly, form)
    assert steps == [0]
    assert _outcome(_fraction_reference, poly, form) == (ValueError, "empty polyhedron")


def _random_spd_form(rng, n):
    while True:
        l = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            l[i][i] = Q(rng.randint(1, 3))
            for j in range(i + 1, n):
                l[i][j] = Q(0)
        from orbitchar.linalg import matmul, transpose

        g = matmul(l, transpose(l))
        return lc.InvariantForm(gram=tuple(tuple(row) for row in g))


def _random_poly(rng, n, max_rows=8):
    m = rng.randint(1, max_rows)
    rows = [
        (tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-4, 4))
        for _ in range(m)
    ]
    return mn.Polyhedron.from_rows(rows, n)


def test_dual_matches_enumeration_on_random_instances():
    rng = random.Random(424242)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        poly = _random_poly(rng, n)
        if _is_empty(poly):
            continue
        form = _random_spd_form(rng, n)
        fast = mn.min_norm_point(poly, form)
        slow = verify.enumerated_minimum(poly, form)
        assert fast.point == slow
        assert fast.norm_sq == lc.norm_sq(form, slow)
        done += 1


def _all_subsets_kkt_points(poly, form):
    """The KKT points of every subset of rows, of any size, dependent
    normals included (linalg.solve sets free variables to 0): each solution
    with nonnegative multipliers that satisfies every row."""
    n, rows = poly.rank, poly.rows
    points = set()
    for size in range(len(rows) + 1):
        for subset in itertools.combinations(rows, size):
            mat = [[2 * g for g in form.gram[i]] + [-normal[i] for normal, _ in subset] for i in range(n)]
            mat += [list(normal) + [0] * size for normal, _ in subset]
            sol = linalg.solve(mat, [0] * n + [bound for _, bound in subset])
            if sol is None or any(lam < 0 for lam in sol[n:]):
                continue
            point = tuple(sol[:n])
            if all(sum(Q(a) * x for a, x in zip(normal, point)) >= bound for normal, bound in rows):
                points.add(point)
    return points


def test_rank_bounded_enumeration_loses_nothing():
    # active sets bigger than the rank and dependent subsets add no KKT point
    # to the battery's reference, which tries only independent ones
    rng = random.Random(99)
    done = 0
    while done < 15:
        n = rng.randint(1, 3)
        poly = _random_poly(rng, n, max_rows=5)
        if _is_empty(poly):
            continue
        form = _random_spd_form(rng, n)
        assert _all_subsets_kkt_points(poly, form) == {verify.enumerated_minimum(poly, form)}
        done += 1


def test_scale_invariance_of_argmin():
    rng = random.Random(31337)
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        poly = _random_poly(rng, n)
        if _is_empty(poly):
            continue
        form = _random_spd_form(rng, n)
        q = Q(rng.randint(1, 9), rng.randint(1, 9))
        scaled = lc.InvariantForm(gram=tuple(tuple(q * v for v in row) for row in form.gram))
        a = mn.min_norm_point(poly, form)
        b = mn.min_norm_point(poly, scaled)
        assert a.point == b.point
        assert b.norm_sq == q * a.norm_sq
        done += 1


def _sign_tree(n):
    """The form of the sl_n adjoint arrangement, and every node of its sign
    tree below the root, parents first: (prefix, the polyhedron of the
    chamber rows and the prefix's sign rows)."""
    rs = lc.build_root_system([("A", n - 1)])
    hps = ar.chamber_hyperplanes(lc.weight_system(rs, lc.highest_roots(rs)))
    chamber, above, below = ar.sign_rows(rs, hps)
    prefixes = {r.signs[:k] for r in ar.enumerate_regions(rs, hps) for k in range(1, len(hps) + 1)}
    nodes = [
        (prefix, mn.Polyhedron.from_rows(chamber + ar.by_sign(prefix, above, below), rs.rank))
        for prefix in sorted(prefixes, key=lambda prefix: (len(prefix), prefix))
    ]
    return lc.invariant_form(rs), nodes


def _parent_states(form, nodes):
    """Each node with its parent's end state, the state that the walk down
    the tree resumes it from."""
    states = {"": mn.DualState.origin(len(form.gram))}
    for prefix, poly in nodes:
        yield poly, states[prefix[:-1]]
        states[prefix] = mn.dual_loop(poly.integral_rows, form, states[prefix[:-1]])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_child_resumed_from_its_parent_is_its_cold_minimum(n):
    # every node of the sign tree, resumed from its parent's end state: the
    # cold call's point and norm, a certificate on the node's own rows, and
    # the shared start left as it was
    form, nodes = _sign_tree(n)
    for poly, start in _parent_states(form, nodes):
        kept = copy.deepcopy(start)
        res = mn.min_norm_point(poly, form, start=start)
        cold = mn.min_norm_point(poly, form)
        assert (res.point, res.norm_sq) == (cold.point, cold.norm_sq)
        mn.verify_kkt(poly, form, res)
        assert start == kept


def test_a_child_resumed_on_random_instances_is_its_cold_minimum():
    # each random instance grown one row at a time, every child resumed
    # from the end state of its parent, the rows before its last
    rng = random.Random(41)
    for _ in range(120):
        _, _, poly, form = verify._random_instance(rng)
        state = mn.DualState.origin(poly.rank)
        for k in range(1, len(poly.rows) + 1):
            child = mn.Polyhedron.from_rows(poly.rows[:k], poly.rank)
            res = mn.min_norm_point(child, form, start=state)
            cold = mn.min_norm_point(child, form)
            assert (res.point, res.norm_sq) == (cold.point, cold.norm_sq)
            mn.verify_kkt(child, form, res)
            state = mn.dual_loop(child.integral_rows, form, state)


@pytest.mark.parametrize("n", [4, 5])
def test_a_child_whose_row_holds_takes_no_step(n, monkeypatch):
    # a node whose last row holds at its parent's minimizer solves no Schur
    # system; one whose row is violated solves at least one
    form, nodes = _sign_tree(n)
    steps = _count_steps(monkeypatch)
    held = 0
    for poly, start in _parent_states(form, nodes):
        steps.clear()
        res = mn.min_norm_point(poly, form, start=start)
        holds = linalg.satisfies(poly.integral_rows[-1:], start.x, start.d)
        held += holds
        assert (steps == []) == holds
        assert holds <= (res.active_set == tuple(start.active))
    assert 0 < held < len(nodes)


def test_a_tampered_start_is_refused():
    # the corner's end state with its multiplier negated, or its point moved
    # to (3, 6), which holds every row: no step is taken, and verify_kkt
    # refuses the result
    form = _diag_form()
    poly = mn.Polyhedron.from_rows([((1, 0), 2), ((-1, 1), 2)], 2)
    state = mn.dual_loop(poly.integral_rows, form, mn.DualState.origin(2))
    assert mn.min_norm_point(poly, form, start=state).point == (2, 4)
    for tampered, message in (
        (state._replace(lam=tuple(-v for v in state.lam)), "negative multiplier"),
        (state._replace(x=(3 * state.d, 6 * state.d)), "active row not tight"),
    ):
        with pytest.raises(AssertionError, match=message):
            mn.min_norm_point(poly, form, start=tampered)


def test_a_start_outside_the_polyhedron_is_refused():
    # a row index past the polyhedron's rows or below 0, or a point of
    # another rank
    form = _diag_form()
    poly = mn.Polyhedron.from_rows([((1, 0), 2), ((-1, 1), 2)], 2)
    state = mn.dual_loop(poly.integral_rows, form, mn.DualState.origin(2))
    for tampered in (
        state._replace(active=(0, 2)),
        state._replace(active=(-1, 1)),
        state._replace(x=(*state.x, 0)),
        state._replace(x=state.x[:1]),
    ):
        with pytest.raises(ValueError, match="^start outside the polyhedron's rows or rank$"):
            mn.min_norm_point(poly, form, start=tampered)


def test_min_over_union_frozen_example():
    # closures of the two cells flanking the corner (2, 0) share the minimum
    walls = [((2, 0), 0), ((0, 2), 0)]
    region_iv = mn.Polyhedron.from_rows(
        walls + [((1, 1), 2), ((1, -1), 2), ((1, 0), 2)], 2
    )
    region_v = mn.Polyhedron.from_rows(
        walls + [((1, 1), 2), ((1, 0), 2), ((1, -1), -2), ((-1, 1), -2)], 2
    )
    region_vi = mn.Polyhedron.from_rows(
        walls + [((1, 1), 2), ((-1, 1), 2), ((1, 0), 2)], 2
    )
    form = _diag_form()
    out = mn.combine_union_minima(
        mn.min_norm_point(p, form) for p in (region_iv, region_v, region_vi)
    )
    assert out.point == (2, 0)
    assert out.norm_sq == 8
    assert out.achieving == (0, 1)


def test_min_over_union_tie_detection():
    # two displaced slabs with equal norm but different minimizers
    a = mn.Polyhedron.from_rows([((1, 0), 1)], 2)
    b = mn.Polyhedron.from_rows([((0, 1), 1)], 2)
    with pytest.raises(mn.MinNormTieError):
        mn.combine_union_minima(mn.min_norm_point(p, _diag_form()) for p in (a, b))


def test_min_over_union_requires_input():
    with pytest.raises(ValueError):
        mn.combine_union_minima(mn.min_norm_point(p, _diag_form()) for p in [])


def _fraction_reference(poly, form):
    """The dual active-set iteration that min_norm_point runs on integer
    rows, step for step over Fraction: the same entering rule, step rule
    and empty exit, with no phase 1 after it.  The entering row is the
    violated one with the largest v^2 / (n^T Q^-1 n), v = b - n . x, for the
    Hessian Q = 2 G; a violated zero normal ranks above every other, and ties
    go to the lowest index."""
    n = poly.rank
    rows = poly.rows
    q = [[2 * form.gram[i][j] for j in range(n)] for i in range(n)]
    qinv = linalg.inverse(q)

    def dot(normal, vec):
        return sum((v * xi for v, xi in zip(normal, vec)), Q(0))

    def rank_key(k):
        normal, bound = rows[k]
        nqn = dot(normal, [dot(row, normal) for row in qinv])
        v = bound - dot(normal, x)
        return (True, Q(0)) if nqn == 0 else (False, v * v / nqn)

    x = [Q(0)] * n
    active, lam = [], []
    entering = None
    for _ in range(10000):
        if entering is None:
            violated = [k for k, (normal, bound) in enumerate(rows) if dot(normal, x) < bound]
            if not violated:
                break
            # max keeps the first of equal keys: the lowest index
            entering = max(violated, key=rank_key)
            u = Q(0)
        p_normal, p_bound = rows[entering]
        normals = [rows[k][0] for k in active]
        mat = [q[i] + [normal[i] for normal in normals] for i in range(n)]
        mat += [list(normal) + [0] * len(normals) for normal in normals]
        sol = linalg.solve(mat, list(p_normal) + [0] * len(normals))
        if sol is None:
            raise AssertionError("singular working-set system")
        z, s = sol[:n], sol[n:]
        pz = dot(p_normal, z)
        t2 = (p_bound - dot(p_normal, x)) / pz if pz else None
        drops = [(lam[t] / s[t], t) for t in range(len(active)) if s[t] > 0]
        t1, k = min(drops) if drops else (None, None)
        if t1 is None and t2 is None:
            raise ValueError("empty polyhedron")
        full = t2 is not None and (t1 is None or t2 <= t1)
        step = t2 if full else t1
        x = [xi + step * zi for xi, zi in zip(x, z)]
        lam = [l - step * si for l, si in zip(lam, s)]
        u += step
        if full:
            active.append(entering)
            lam.append(u)
            entering = None
        else:
            active.pop(k)
            lam.pop(k)
    else:
        raise RuntimeError("active-set iteration failed to settle")
    g = form.gram
    norm = sum((x[i] * g[i][j] * x[j] for i in range(n) for j in range(n)), Q(0))
    return mn.MinNormResult(tuple(x), norm, tuple(active), tuple(lam))


def _outcome(solve, poly, form):
    """A result with the types of all its entries, or the error raised."""
    try:
        res = solve(poly, form)
    except (ValueError, AssertionError, RuntimeError) as exc:
        return type(exc), str(exc)
    kinds = [type(v) for v in (*res.point, res.norm_sq, *res.multipliers, *res.active_set)]
    return res, kinds


def _assert_matches_reference(poly, form):
    got = _outcome(mn.min_norm_point, poly, form)
    assert got == _outcome(_fraction_reference, poly, form), poly
    return got


def _regions(factors, scales=None, level=Q(2)):
    rs = lc.build_root_system(factors)
    ws = lc.weight_system(rs, lc.highest_roots(rs))
    hps = ar.chamber_hyperplanes(ws, level)
    regions = ar.enumerate_regions(rs, hps)
    form = lc.invariant_form(rs, scales)
    return [(mn.Polyhedron.from_rows(rows, rs.rank), form) for rows in closure_rows(rs, hps, regions)]


_REGION_CASES = [
    ([("A", 3)], None, Q(2)),
    ([("A", 4)], None, Q(2)),
    ([("A", 5)], None, Q(2)),
    ([("B", 3)], None, Q(2)),
    ([("C", 3)], None, Q(2)),
    ([("D", 4)], None, Q(2)),
    ([("G", 2)], None, Q(2)),
    ([("A", 1), ("B", 2)], None, Q(2)),
    # rational bounds and a gram with denominators
    ([("G", 2)], (Q(2, 7),), Q(7, 3)),
    ([("A", 1), ("B", 2)], (Q(1, 3), Q(5, 2)), Q(5, 3)),
    # non-simply-laced products whose H^-1 has a denominator
    ([("A", 1), ("G", 2)], (Q(1), Q(3, 2)), Q(2)),
    ([("B", 2), ("G", 2)], (Q(1), Q(3, 2)), Q(2)),
]
if LARGE:
    # 429, 182 and 105 regions, up to six active rows
    _REGION_CASES += [(factors, None, Q(2)) for factors in ([("A", 6)], [("D", 5)], [("F", 4)])]


@pytest.mark.parametrize("factors, scales, level", _REGION_CASES)
def test_integer_iteration_matches_the_fraction_reference_on_regions(factors, scales, level):
    for poly, form in _regions(factors, scales, level):
        _assert_matches_reference(poly, form)


def _schur_systems(monkeypatch):
    """Every Schur system (a, b) that min_norm_point hands to solve_integral,
    as tuples, one list per polyhedron: the sl5 regions, 320 polyhedra of
    verify._random_instance(Random(8)) and the blocking-row instance."""
    form3 = lc.invariant_form(lc.build_root_system([("A", 1)] * 3))
    blocking = mn.Polyhedron.from_rows([((0, 1, 0), 3), ((1, -2, 0), -1), ((2, -2, -1), 3)], 3)
    rng = random.Random(8)
    cases = _regions([("A", 4)]) + [verify._random_instance(rng)[2:] for _ in range(320)]
    systems, solve = [], linalg.solve_integral

    def recording(a, b):
        systems[-1].append((tuple(map(tuple, a)), tuple(b)))
        return solve(a, b)

    monkeypatch.setattr(linalg, "solve_integral", recording)
    for poly, form in cases + [(blocking, form3)]:
        systems.append([])
        try:
            mn.min_norm_point(poly, form)
        except ValueError:
            pass
    return systems


def test_the_kept_schur_matrix_is_the_rebuilt_one(monkeypatch):
    # the Schur matrix N_A K N_A^T and right side N_A K p are kept across
    # steps; every system equals the one rebuilt from the active rows at
    # each step, as recorded (sha256 of the systems' repr) before they were kept
    systems = _schur_systems(monkeypatch)
    assert hashlib.sha256(repr(systems).encode()).hexdigest() == (
        "f8a291228c361035627a3cd4fb3a288e5c983ddd268dbc189b13d02e6724d7f9"
    )

    def without(system, k):
        a, b = system
        return tuple(row[:k] + row[k + 1:] for row in a[:k] + a[k + 1:]), b[:k] + b[k + 1:]

    # a drop is a step to a system one row smaller, with the same p; at
    # least one drops an active row other than the last
    inner = 0
    for steps in systems:
        for before, after in zip(steps, steps[1:]):
            if len(after[1]) == len(before[1]) - 1:
                dropped = [k for k in range(len(after[1]) + 1) if without(before, k) == after]
                assert dropped
                inner += dropped[-1] != len(after[1])
    assert inner > 0


@pytest.mark.parametrize("factors", [[("A", 1), ("G", 2)], [("B", 2), ("G", 2)]], ids=str)
def test_inverse_hessian_of_a_scaled_product_has_a_denominator(factors):
    form = lc.invariant_form(lc.build_root_system(factors), (Q(1), Q(3, 2)))
    (g, _), (kinv, kden) = form.integral_gram, form.integral_inverse_hessian
    assert kden > 1
    # (2 G) K = kden I
    assert linalg.matmul([[2 * v for v in row] for row in g], kinv) == [
        [kden * (i == j) for j in range(len(g))] for i in range(len(g))
    ]


def test_inverse_hessian_and_integral_rows_are_formed_once(monkeypatch):
    # one H^-1 per form; one pass of the rows to ints per polyhedron, shared
    # by min_norm_point, verify_kkt and the point check
    cases = _regions([("A", 3)])
    form = cases[0][1]
    inverse, integral, calls = linalg.inverse, linalg.integral, []
    monkeypatch.setattr(linalg, "inverse", lambda a: calls.append("inverse") or inverse(a))
    monkeypatch.setattr(linalg, "integral", lambda v: calls.append(len(v)) or integral(v))
    for poly, _ in cases:
        res = mn.min_norm_point(poly, form)
        mn.verify_kkt(poly, form, res)
        assert linalg.satisfies(poly.integral_rows, *linalg.integral(res.point))
    assert calls.count("inverse") == 1
    # rank 3: only a row (normal, bound) has four entries
    assert calls.count(4) == sum(len(poly.rows) for poly, _ in cases) > 0


def _rational_rows(rng, poly, form):
    """The same polyhedron with every row scaled by its own positive
    rational, under the form D G D for a positive rational diagonal D."""
    rows = [
        (tuple(c * v for v in normal), c * bound)
        for normal, bound in poly.rows
        for c in [Q(rng.randint(1, 9), rng.randint(1, 9))]
    ]
    d = [Q(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(poly.rank)]
    gram = tuple(
        tuple(d[i] * v * d[j] for j, v in enumerate(row)) for i, row in enumerate(form.gram)
    )
    return mn.Polyhedron.from_rows(rows, poly.rank), lc.InvariantForm(gram)


def test_integer_iteration_matches_the_fraction_reference_on_random_instances():
    rng = random.Random(8)
    scaled = 0
    for _ in range(320):
        _, _, poly, form = verify._random_instance(rng)
        _assert_matches_reference(poly, form)
        if rng.random() < 0.5:
            poly, form = _rational_rows(rng, poly, form)
            _assert_matches_reference(poly, form)
            scaled += any(v.denominator > 1 for row in form.gram for v in row)
    assert scaled >= 100


def test_integer_iteration_matches_the_fraction_reference_on_empty_instances(monkeypatch):
    # a feasible instance plus the contradictory rows mu.a >= b, mu.a <= b - 1:
    # both iterations reach their own empty exit, which the integer one
    # certifies by its own Farkas vector, with no closed_feasible call and
    # no phase 1; the exhaustive enumeration finds no KKT point either
    rng = random.Random(21)
    cases = [verify._planted_empty(rng) for _ in range(60)]
    assert all(_is_empty(poly) for poly, _ in cases)
    starts, phase1 = _count_calls(monkeypatch)
    for poly, form in cases:
        assert _assert_matches_reference(poly, form) == (ValueError, "empty polyhedron")
    assert starts == [] and phase1 == []


def _rational_spd_form(rng, n):
    """L L^T for a lower-triangular L with rational entries and a positive
    diagonal."""
    l = [
        [Q(rng.randint(1 if i == j else -4, 4), rng.randint(1, 5)) if j <= i else Q(0)
         for j in range(n)]
        for i in range(n)
    ]
    gram = linalg.matmul(l, linalg.transpose(l))
    return lc.InvariantForm(gram=tuple(map(tuple, gram)))


def test_integer_iteration_matches_the_fraction_reference_under_rational_forms():
    rng = random.Random(96)
    for _ in range(200):
        _, _, poly, _ = verify._random_instance(rng)
        _assert_matches_reference(poly, _rational_spd_form(rng, poly.rank))


def _sl8_cell(rng, rs, cartan_inv, nrows):
    """The closure of a cell of a random dominant point under the level-2
    hyperplanes of nrows - rank positive roots, inside the dominant chamber."""
    labels = [Q(rng.randint(1, 8), 4) for _ in range(rs.rank)]
    point = tuple(sum(a * b for a, b in zip(row, labels)) for row in cartan_inv)
    rows = [(tuple(row), Q(0)) for row in rs.cartan]
    for mu in rng.sample(rs.positive_roots, nrows - rs.rank):
        if sum(m * x for m, x in zip(mu, point)) >= 2:
            rows.append((mu, Q(2)))
        else:
            rows.append((tuple(-m for m in mu), Q(-2)))
    return mn.Polyhedron.from_rows(rows, rs.rank)


def test_integer_iteration_matches_the_fraction_reference_at_rank_7():
    rs = lc.build_root_system([("A", 7)])
    form, cartan_inv = lc.invariant_form(rs), linalg.inverse(rs.cartan)
    rng = random.Random(7)
    for nrows in (8, 14, 20, 20):
        res, _ = _assert_matches_reference(_sl8_cell(rng, rs, cartan_inv, nrows), form)
        assert res.norm_sq > 0
