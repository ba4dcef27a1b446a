"""Exact minimum-norm points: frozen cases, certificates, and cross-checks."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from orbitchar import liecore as lc
from orbitchar import minnorm as mn


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


def test_certificate_check_runs_under_optimize():
    # under python -O assert statements vanish; verify_kkt must still refuse
    # every tampered certificate, with its own message
    script = """
import dataclasses
from fractions import Fraction as Q
from orbitchar import liecore as lc, minnorm as mn
assert False  # stripped by -O
form = lc.invariant_form(lc.build_root_system([("A", 1), ("A", 1)]))
poly = mn.Polyhedron.from_rows([((1, 0), 2), ((-1, 1), 2)], 2)
res = mn.min_norm_point(poly, form)
mn.verify_kkt(poly, form, res)
for change in (
    {"point": (Q(1), Q(4))},
    {"multipliers": tuple(-m for m in res.multipliers)},
    {"point": (Q(3), Q(6))},
    {"multipliers": tuple(2 * m for m in res.multipliers)},
    {"norm_sq": res.norm_sq + 1},
):
    try:
        mn.verify_kkt(poly, form, dataclasses.replace(res, **change))
    except AssertionError as exc:
        print(exc)
    else:
        print("accepted")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:5] == [
        "candidate violates a constraint",
        "negative multiplier",
        "active row not tight",
        "stationarity fails",
        "norm mismatch",
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


def test_empty_rejected():
    poly = mn.Polyhedron.from_rows([((1,), 1), ((-1,), 0)], 1)
    assert poly.is_empty()
    with pytest.raises(ValueError):
        mn.min_norm_point(poly, lc.invariant_form(lc.build_root_system([("A", 1)])))


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
def test_dual_iteration_reports_an_empty_polyhedron(rows, rank, monkeypatch):
    # with the precheck LP bypassed, the iteration itself finds no step
    poly = mn.Polyhedron.from_rows(rows, rank)
    form = lc.invariant_form(lc.build_root_system([("A", 1)] * rank))
    monkeypatch.setattr(mn.Polyhedron, "is_empty", lambda self: False)
    with pytest.raises(ValueError, match="empty polyhedron"):
        mn.min_norm_point(poly, form)


def test_blocking_row_is_dropped():
    # row 0 is the first row violated at the origin, so it enters first;
    # row 1 then blocks it with z != 0, and the solution drops it
    poly = mn.Polyhedron.from_rows([((1, 0), 1), ((1, 2), 10)], 2)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (2, 4)
    assert res.active_set == (1,)


def test_dependent_entering_row_drops_the_active_one():
    # row 1 = 2 * row 0 with a larger bound: its step direction z is 0, so
    # the only step drops row 0, and row 1 enters alone
    poly = mn.Polyhedron.from_rows([((1, 0), 1), ((2, 0), 3)], 2)
    res = mn.min_norm_point(poly, _diag_form())
    assert res.point == (Q(3, 2), 0)
    assert res.active_set == (1,)


def _random_spd_form(rng, n):
    while True:
        l = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            l[i][i] = Q(rng.randint(1, 3))
            for j in range(i + 1, n):
                l[i][j] = Q(0)
        from orbitchar.linalg import matmul, transpose

        g = matmul(l, transpose(l))
        return lc.InvariantForm(
            gram=tuple(tuple(row) for row in g), factor_scales=(Q(1),) * 1
        )


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
        if poly.is_empty():
            continue
        form = _random_spd_form(rng, n)
        fast = mn.min_norm_point(poly, form)
        slow = mn.min_norm_point_enumerate(poly, form)
        assert fast.point == slow.point
        assert fast.norm_sq == slow.norm_sq
        done += 1


def test_rank_bounded_enumeration_loses_nothing():
    # active sets bigger than the rank and dependent subsets add no minimizer
    rng = random.Random(99)
    done = 0
    while done < 15:
        n = rng.randint(1, 3)
        poly = _random_poly(rng, n, max_rows=5)
        if poly.is_empty():
            continue
        form = _random_spd_form(rng, n)
        bounded = mn.min_norm_point_enumerate(poly, form)
        unbounded = mn.min_norm_point_enumerate(
            poly, form, max_size=len(poly.rows), independent_only=False
        )
        assert bounded.point == unbounded.point
        assert bounded.norm_sq == unbounded.norm_sq
        done += 1


def test_scale_invariance_of_argmin():
    rng = random.Random(31337)
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        poly = _random_poly(rng, n)
        if poly.is_empty():
            continue
        form = _random_spd_form(rng, n)
        q = Q(rng.randint(1, 9), rng.randint(1, 9))
        scaled = lc.InvariantForm(
            gram=tuple(tuple(q * v for v in row) for row in form.gram),
            factor_scales=form.factor_scales,
        )
        a = mn.min_norm_point(poly, form)
        b = mn.min_norm_point(poly, scaled)
        assert a.point == b.point
        assert b.norm_sq == q * a.norm_sq
        done += 1


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
    out = mn.min_over_union([region_iv, region_v, region_vi], _diag_form())
    assert out.point == (2, 0)
    assert out.norm_sq == 8
    assert out.achieving == (0, 1)


def test_min_over_union_tie_detection():
    # two displaced slabs with equal norm but different minimizers
    a = mn.Polyhedron.from_rows([((1, 0), 1)], 2)
    b = mn.Polyhedron.from_rows([((0, 1), 1)], 2)
    with pytest.raises(mn.MinNormTieError):
        mn.min_over_union([a, b], _diag_form())


def test_min_over_union_requires_input():
    with pytest.raises(ValueError):
        mn.min_over_union([], _diag_form())
