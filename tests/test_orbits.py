"""Tests for orbit models and the characteristic computation."""

import hashlib
import inspect
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from conftest import LARGE, closure_rows, fraction_labels, walls

from orbitchar import jsonio, linalg, minnorm, orbits, ratlp, verify
from orbitchar.arrangement import region_weights
from orbitchar.liecore import (
    build_root_system,
    dynkin_labels,
    highest_roots,
    highest_short_root,
    invariant_form,
    norm_sq,
    pairing,
)
from orbitchar.minnorm import MinNormTieError, Polyhedron, min_norm_point, verify_kkt
from orbitchar.orbits import (
    _EXAMPLE_POSITIONS,
    AdjointSlModel,
    Example2x3Model,
    Module,
    RegionAnalysis,
    characteristic,
    check_partition,
    conjugate_partition,
    dominance_leq,
    generic_jordan_partition,
    jordan_type,
    m_sets,
    partitions_of,
    path_partition,
    sl_position,
    weighted_dynkin_from_partition,
)

Q = Fraction


# ---------------------------------------------------------------- partitions


def test_partitions_of_small():
    assert partitions_of(1) == [(1,)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # counts p(n) for n = 1..8
    counts = [len(partitions_of(n)) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2)) == (2, 2)
    assert conjugate_partition((4,)) == (1, 1, 1, 1)
    assert conjugate_partition(()) == ()
    for p in partitions_of(7):
        assert conjugate_partition(conjugate_partition(p)) == p


def test_dominance_order():
    assert dominance_leq((2, 2), (3, 1))
    assert dominance_leq((2, 1, 1), (2, 2))
    assert dominance_leq((3, 1), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    # classical incomparable pair at n = 6
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (2, 2))
    # conjugation reverses dominance
    for p in partitions_of(6):
        for q in partitions_of(6):
            assert dominance_leq(p, q) == dominance_leq(
                conjugate_partition(q), conjugate_partition(p)
            )


def test_dominance_order_is_the_partial_sum_order():
    # p <= q when each partial sum of p is at most q's, slices past the end
    # of the shorter partition adding nothing
    for n in range(1, 9):
        for p in partitions_of(n):
            for q in partitions_of(n):
                expected = all(sum(p[:k]) <= sum(q[:k]) for k in range(1, n + 1))
                assert dominance_leq(p, q) == expected, (p, q)


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 3), 4)
    with pytest.raises(ValueError):
        check_partition((3, 0), 3)
    with pytest.raises(ValueError):
        check_partition((2, 2), 5)


# ------------------------------------------------- classical weighted labels


def test_weighted_dynkin_frozen_values():
    assert weighted_dynkin_from_partition((2,)) == (2,)
    assert weighted_dynkin_from_partition((1, 1)) == (0,)
    assert weighted_dynkin_from_partition((3,)) == (2, 2)
    assert weighted_dynkin_from_partition((2, 1)) == (1, 1)
    assert weighted_dynkin_from_partition((3, 1)) == (2, 0, 2)
    assert weighted_dynkin_from_partition((2, 2)) == (0, 2, 0)
    assert weighted_dynkin_from_partition((4,)) == (2, 2, 2)
    assert weighted_dynkin_from_partition((2, 1, 1)) == (1, 0, 1)
    assert weighted_dynkin_from_partition((5,)) == (2, 2, 2, 2)
    assert weighted_dynkin_from_partition((3, 2)) == (1, 1, 1, 1)
    assert weighted_dynkin_from_partition((2, 2, 1)) == (0, 1, 1, 0)


def test_weighted_dynkin_structural_facts():
    # labels lie in {0, 1, 2} and are palindromic (negation symmetry of the
    # eigenvalue string), and the zero partition label is all zeros
    for n in range(2, 8):
        for p in partitions_of(n):
            lab = weighted_dynkin_from_partition(p)
            assert len(lab) == n - 1
            assert all(v in (0, 1, 2) for v in lab)
            assert lab == lab[::-1]
        assert weighted_dynkin_from_partition((1,) * n) == (0,) * (n - 1)
        assert weighted_dynkin_from_partition((n,)) == (2,) * (n - 1)


def test_weighted_dynkin_norm_matches_trace_form():
    # the dominant point with these labels has squared norm equal to the sum
    # of squares of the diagonal eigenvalue string (the trace form of sl_n)
    for n in (4, 5):
        rs = build_root_system([("A", n - 1)])
        form = invariant_form(rs)
        for p in partitions_of(n):
            lab = weighted_dynkin_from_partition(p)
            coords = linalg.solve(rs.cartan, lab)
            assert coords is not None
            h = []
            for part in p:
                h.extend(range(part - 1, -part, -2))
            assert norm_sq(form, tuple(coords)) == sum(x * x for x in h)


# ------------------------------------------------------ generic Jordan types


def test_generic_jordan_simple_supports():
    # sl3 positive roots in fundamental-weight coordinates
    a1, a2, theta = (2, -1), (-1, 2), (1, 1)
    assert generic_jordan_partition([], 3) == (1, 1, 1)
    assert generic_jordan_partition([a1], 3) == (2, 1)
    assert generic_jordan_partition([a1, theta], 3) == (2, 1)
    assert generic_jordan_partition([a1, a2], 3) == (3,)
    assert generic_jordan_partition([a1, a2, theta], 3) == (3,)
    # sl4: two orthogonal simple root spaces give two Jordan blocks
    assert generic_jordan_partition([(2, -1, 0), (0, -1, 2)], 4) == (2, 2)
    # full upper triangular part is regular
    rs = build_root_system([("A", 3)])
    pos = [
        tuple(sum(rs.cartan[k][t] for k in range(lo, hi)) for t in range(3))
        for lo in range(4)
        for hi in range(lo + 1, 4)
    ]
    assert generic_jordan_partition(pos, 4) == (4,)


def test_generic_jordan_negative_roots_allowed():
    # a lone lowering root space is still a single Jordan block
    assert generic_jordan_partition([(-2, 1)], 3) == (2, 1)


def test_generic_jordan_rejects_non_roots():
    with pytest.raises(ValueError):
        generic_jordan_partition([(1, 0)], 3)
    with pytest.raises(ValueError):
        generic_jordan_partition([(0, 0)], 3)


def _sl_root_positions(n: int, rs) -> dict:
    """Each root weight of sl_n and its matrix position (i, j), from sums of
    Cartan rows: the map the library built before reading positions off the
    weight."""
    out = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            fw = [0] * (n - 1)
            for k in range(lo, hi):
                for t in range(n - 1):
                    fw[t] += rs.cartan[k][t]
            w = tuple(fw) if i < j else tuple(-v for v in fw)
            out[w] = (i, j)
    return out


@pytest.mark.parametrize("n", range(2, 10))
def test_sl_position_matches_the_cartan_row_map(n):
    positions = _sl_root_positions(n, build_root_system([("A", n - 1)]))
    assert len(positions) == n * (n - 1)
    for w, pos in positions.items():
        assert sl_position(w, n) == pos
        assert sl_position(list(w), n) == pos


@pytest.mark.parametrize("n", range(2, 7))
def test_sl_position_refuses_exactly_the_non_roots(n):
    roots = _sl_root_positions(n, build_root_system([("A", n - 1)]))
    refused = 0
    for mu in itertools.product(range(-3, 4), repeat=n - 1):
        if mu in roots:
            continue
        with pytest.raises(ValueError, match=f"is not a root of sl_{n}"):
            sl_position(mu, n)
        refused += 1
    assert refused == 7 ** (n - 1) - n * (n - 1)


def test_sl_position_refuses_wrong_lengths():
    for mu, n in [((2,), 3), ((2, -1, 0), 3), ((), 2), ((1, 1), 2), ((2, -1), 4)]:
        with pytest.raises(ValueError, match=f"is not a root of sl_{n}"):
            sl_position(mu, n)


def test_generic_jordan_seed_determinism():
    # the strata are exact: generic_jordan_partition takes no seed, and the
    # seed that AdjointSlModel still accepts changes no stratum
    assert "seed" not in inspect.signature(generic_jordan_partition).parameters
    strata = [RegionAnalysis.build(AdjointSlModel(5, seed=s)).strata for s in (1, 2, 7, 20260817)]
    assert all(s == strata[0] for s in strata)


def _matches_the_sampled_types(i_r, n) -> bool:
    """Whether the exact type dominates each of three random elements on the
    support, and one of them attains it."""
    exact = generic_jordan_partition(i_r, n)
    samples = verify.sampled_jordan_types(i_r, n)
    return all(dominance_leq(p, exact) for p in samples) and exact in samples


# sl3-sl5 are the `lemma strata` row of the verify battery, which
# tests/test_acceptance.py runs
_ORACLE_NS = [2, 6] + ([7, 8] if LARGE else [])


@pytest.mark.parametrize("n", _ORACLE_NS)
def test_generic_jordan_matches_the_sampled_types_on_every_region(n):
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    for r in analysis.regions:
        assert _matches_the_sampled_types(sorted(region_weights(analysis.hyperplanes, r)), n), r.id


def test_generic_jordan_matches_the_sampled_types_off_b_stable_supports():
    # acyclic supports that are not transitively closed, such as [a1, a2] ->
    # (3,) above: there paths are not chains
    roots = {
        n: {pos: w for w, pos in _sl_root_positions(n, build_root_system([("A", n - 1)])).items()}
        for n in range(2, 7)
    }
    # of the 1,024 supports on five vertices with arcs i -> j for i < j, the
    # only one whose transitive closure has another type: two paths cover
    # four vertices, and the closure adds the chain 1 < 4 beside 0 < 2 < 3
    star = [(0, 2), (1, 2), (2, 3), (2, 4)]
    closure = star + [(0, 3), (0, 4), (1, 3), (1, 4)]
    assert generic_jordan_partition([roots[5][a] for a in star], 5) == (3, 1, 1)
    assert generic_jordan_partition([roots[5][a] for a in closure], 5) == (3, 2)
    assert _matches_the_sampled_types([roots[5][a] for a in star], 5)
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 6)
        order = rng.sample(range(n), n)
        arcs = {(order[a], order[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
        if all((i, k) in arcs for i, j in arcs for j2, k in arcs if j == j2):
            continue
        assert _matches_the_sampled_types([roots[n][a] for a in sorted(arcs)], n), (n, arcs)
        checked += 1


def test_generic_jordan_rejects_a_cyclic_support():
    # (0, 1) and (1, 0) carry [[0, 1], [1, 0]], which is not nilpotent
    with pytest.raises(ValueError, match="directed cycle"):
        generic_jordan_partition([(2,), (-2,)], 2)
    # (0, 1), (1, 2) and (2, 0) in sl3
    with pytest.raises(ValueError, match="directed cycle"):
        generic_jordan_partition([(2, -1), (-1, 2), (-1, -1)], 3)


def test_path_partition_of_planted_arcs():
    # the star and its transitive closure from the off-b-stable test above,
    # as arcs rather than roots
    star = {(0, 2), (1, 2), (2, 3), (2, 4)}
    assert path_partition(star, 5) == (3, 1, 1)
    # the arcs are read twice, by the upper-set scan and by the flow
    assert path_partition(iter(star), 5) == (3, 1, 1)
    assert path_partition(star | {(0, 3), (0, 4), (1, 3), (1, 4)}, 5) == (3, 2)
    assert path_partition(set(), 2) == (1, 1)
    with pytest.raises(ValueError, match="directed cycle"):
        path_partition({(0, 1), (1, 2), (2, 0)}, 3)
    # a diagonal entry is a loop, and no generic matrix on it is nilpotent
    with pytest.raises(ValueError, match="directed cycle"):
        path_partition({(1, 1)}, 2)


def _bellman_ford_path_partition(arcs, n):
    """path_partition with each shortest path found by size full passes of
    Bellman-Ford over every node: the reference for its queued form."""
    size = 2 * n + 2
    net, out = [], [[] for _ in range(size)]

    def add(u, v, cost):
        out[u].append(len(net))
        net.append([v, 1, cost])
        out[v].append(len(net))
        net.append([u, 0, -cost])

    for v in range(n):
        add(0, 2 * v + 1, 0)
        add(2 * v + 1, 2 * v + 2, -1)
        add(2 * v + 2, size - 1, 0)
    for i, j in sorted(arcs):
        add(2 * i + 2, 2 * j + 1, 0)
    parts = []
    while True:
        dist, via = [0] + [size] * (size - 1), [0] * size
        for _ in range(size):
            changed = False
            for u in range(size):
                if dist[u] == size:
                    continue
                for k in out[u]:
                    v, cap, cost = net[k]
                    if cap and dist[u] + cost < dist[v]:
                        dist[v], via[v], changed = dist[u] + cost, k, True
            if not changed:
                break
        else:
            raise ValueError(f"the support {sorted(arcs)} has a directed cycle, so it is not nilpotent")
        if -dist[-1] <= 1:
            return tuple(parts) + (1,) * (n - sum(parts))
        parts.append(-dist[-1])
        v = size - 1
        while v:
            k = via[v]
            net[k][1] -= 1
            net[k ^ 1][1] += 1
            v = net[k ^ 1][0]


def _path_outcome(solve, arcs, n):
    try:
        return solve(arcs, n)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(3, 8))
def test_queued_path_partition_matches_bellman_ford_on_region_supports(n):
    # region supports are upper sets and take path_partition's interval
    # branch, not the flow; the random digraphs test below covers the flow
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    for r in analysis.regions:
        arcs = {sl_position(mu, n) for mu in region_weights(analysis.hyperplanes, r)}
        assert path_partition(arcs, n) == _bellman_ford_path_partition(arcs, n), r.id


def test_queued_path_partition_matches_bellman_ford_on_random_digraphs():
    # acyclic digraphs (arcs forward along a random order) and digraphs with
    # arcs in any direction, loops among them: the same partition, or the
    # same directed-cycle error
    rng = random.Random(41)
    acyclic = cyclic = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        order = rng.sample(range(n), n)
        if rng.random() < 0.5:
            arcs = {(order[a], order[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
        else:
            arcs = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.15}
        got = _path_outcome(path_partition, arcs, n)
        assert got == _path_outcome(_bellman_ford_path_partition, arcs, n), (n, sorted(arcs))
        cyclic += isinstance(got, str)
        acyclic += not isinstance(got, str)
    assert acyclic > 200 and cyclic > 100


def _upper_sets(n):
    """Every upper set of arcs on n vertices: each row i holds the positions
    from some first[i] > i on (none when first[i] = n), and first is
    nondecreasing; one per Dyck path, so Catalan(n) of them."""

    def firsts(i, least):
        if i == n:
            yield ()
            return
        for f in range(max(least, i + 1), n + 1):
            yield from ((f,) + rest for rest in firsts(i + 1, f))

    return [{(i, j) for i, f in enumerate(first) for j in range(f, n)} for first in firsts(0, 0)]


def _is_upper_set(arcs, n):
    """Arcs above the diagonal, closed under moving up and right."""
    return all(0 <= i < j < n for i, j in arcs) and all(
        (i == 0 or (i - 1, j) in arcs) and (j == n - 1 or (i, j + 1) in arcs) for i, j in arcs
    )


_CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


@pytest.mark.parametrize("n", range(1, 10 if LARGE else 9))
def test_path_partition_of_upper_sets_matches_bellman_ford(n):
    # every upper set takes the interval branch; its near misses, which are
    # no upper sets, take the flow: one corner arc removed, one arc below
    # the diagonal added, a loop, a 3-cycle
    sets = _upper_sets(n)
    assert len({frozenset(arcs) for arcs in sets}) == len(sets) == _CATALAN[n]
    rng = random.Random(43 + n)
    for arcs in sets:
        assert _is_upper_set(arcs, n) and orbits._upper_set_ends(arcs, n) is not None, sorted(arcs)
        assert path_partition(arcs, n) == _bellman_ford_path_partition(arcs, n), sorted(arcs)
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        k = rng.randrange(n)
        near = [arcs - {(0, n - 1)}, arcs | {(j, i)}, arcs | {(k, k)}]
        if n > 2:
            near.append(arcs | {(0, 1), (1, 2), (2, 0)})
        for miss in near:
            if miss != arcs and not _is_upper_set(miss, n):
                assert orbits._upper_set_ends(miss, n) is None, sorted(miss)
            got = _path_outcome(path_partition, miss, n)
            assert got == _path_outcome(_bellman_ford_path_partition, miss, n), sorted(miss)


@pytest.mark.parametrize("n", range(3, 9 if LARGE else 8))
def test_region_supports_are_upper_sets(n):
    # the precondition of path_partition's interval branch on real regions:
    # with h dominant, mu(h) > level gives (mu + alpha)(h) > level for each
    # simple root alpha, so every '+' position moves up and right
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    for r in analysis.regions:
        arcs = {sl_position(mu, n) for mu in region_weights(analysis.hyperplanes, r)}
        assert _is_upper_set(arcs, n), r.id
        assert orbits._upper_set_ends(arcs, n) is not None, r.id


def test_path_partition_refuses_vertices_that_do_not_exist():
    # a negative vertex would index the flow network from its end
    for arc in [(-1, 1), (2, -3), (0, 5)]:
        with pytest.raises(ValueError, match=rf"the arc \({arc[0]}, {arc[1]}\) has an end outside"):
            path_partition({arc}, 3)
    with pytest.raises(ValueError, match="cannot have -1 vertices"):
        path_partition(set(), -1)
    assert path_partition(set(), 0) == ()


def test_jordan_type_of_planted_matrices():
    # the size is read off the matrix: one 2 x 2 block
    assert jordan_type([[0, 1], [0, 0]]) == (2,)
    assert jordan_type([[0] * 3 for _ in range(3)]) == (1, 1, 1)
    assert jordan_type([]) == ()
    # blocks of sizes 1 and 3, with the 3-block's chain 0 -> 2 -> 3
    assert jordan_type([[0, 0, 7, 0], [0, 0, 0, 0], [0, 0, 0, -2], [0, 0, 0, 0]]) == (3, 1)
    for mat in ([[0, 1], [1, 0]], [[5]], [[1, 1], [0, 0]]):
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type(mat)
    for mat in ([[0, 1, 0], [0, 0, 1]], [[0, 1], [0]]):
        with pytest.raises(ValueError, match="not square"):
            jordan_type(mat)


def test_the_pipeline_makes_no_random_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline drew a random number")

    for name in ("Random", "random", "randint", "randrange", "choice", "sample", "shuffle", "getrandbits"):
        monkeypatch.setattr(random, name, refuse)
    analysis = RegionAnalysis.build(AdjointSlModel(5))
    for p in partitions_of(5):
        for mode in ("nonempty", "dense"):
            assert characteristic(analysis, p, mode).labels == weighted_dynkin_from_partition(p)
    assert "random" not in vars(orbits)


# ------------------------------------------------------------- example model


@pytest.fixture(scope="module")
def example_model():
    return Example2x3Model()


@pytest.fixture(scope="module")
def example_analysis(example_model):
    return RegionAnalysis.build(example_model)


def test_example_representatives_classify(example_model):
    for orbit in example_model.orbit_ids():
        rep = example_model.representative(orbit)
        assert example_model.classify_element(rep) == orbit


def test_example_classify_rejects_invertible_block(example_model):
    with pytest.raises(ValueError):
        example_model.classify_element(((1, 0, 0), (0, 1, 0)))


def test_example_generic_strata(example_model):
    cases = {
        frozenset(): "0",
        frozenset({(1, 1)}): "O3",
        frozenset({(1, 1), (-1, 1)}): "O3",
        frozenset({(1, 1), (1, -1), (1, 0)}): "O4",
        frozenset({(1, 1), (1, 0)}): "O4",
        frozenset({(1, 1), (-1, 1), (1, 0)}): "O5",
    }
    for support, orbit in cases.items():
        assert example_model.generic_stratum(sorted(support)) == orbit
    with pytest.raises(ValueError):
        example_model.generic_stratum([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    with pytest.raises(ValueError):
        example_model.generic_stratum([(2, 0)])


def _generic_rank_reference(positions, nrows, ncols) -> int:
    """Rank of a matrix with independent free entries on the given support."""
    best = 0
    cells = sorted(positions)
    for size in range(1, min(nrows, ncols) + 1):
        for subset in itertools.combinations(cells, size):
            rows = {i for i, _ in subset}
            cols = {j for _, j in subset}
            if len(rows) == size and len(cols) == size:
                best = size
                break
    return best


def _generic_stratum_reference(support):
    """The orbit decision tree on generic ranks; None for a generically
    invertible left block."""
    m_cells = {(i, j) for i, j in support if j < 2}
    c_cells = {(i, j) for i, j in support if j == 2}
    rank_m = _generic_rank_reference(m_cells, 2, 2)
    if rank_m == 2:
        return None
    if rank_m == 0:
        return "O2" if c_cells else "0"
    if not c_cells:
        return "O3"
    return "O4" if _generic_rank_reference(support, 2, 3) == 1 else "O5"


def test_example_generic_stratum_matches_the_generic_rank_rule(example_model):
    # the prime-filled matrix agrees with the rank rule on all 64 supports
    weights = sorted(_EXAMPLE_POSITIONS)
    rejected = 0
    for size in range(len(weights) + 1):
        for subset in itertools.combinations(weights, size):
            want = _generic_stratum_reference({_EXAMPLE_POSITIONS[w] for w in subset})
            if want is None:
                rejected += 1
                with pytest.raises(ValueError):
                    example_model.generic_stratum(subset)
            else:
                assert example_model.generic_stratum(subset) == want, subset
    assert rejected == 28


def test_example_closure_is_a_partial_order(example_model):
    ids = example_model.orbit_ids()
    leq = example_model.closure_leq
    for a in ids:
        assert leq(a, a)
        for b in ids:
            if leq(a, b) and leq(b, a):
                assert a == b
            for c in ids:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)
    assert not leq("O2", "O3") and not leq("O3", "O2")
    assert leq("0", "O5") and leq("O2", "O5") and not leq("O5", "O4")


# degeneration curves: generic member in the larger orbit, limit in the smaller
_CURVES = {
    ("O2", "O4"): lambda t: ((t, 0, 1), (0, 0, 0)),
    ("O2", "O5"): lambda t: ((t, 0, 0), (0, 0, 1)),
    ("O3", "O4"): lambda t: ((1, 0, t), (0, 0, 0)),
    ("O3", "O5"): lambda t: ((1, 0, 0), (0, 0, t)),
    ("O4", "O5"): lambda t: ((1, 0, 1), (0, 0, t)),
}


def test_example_closure_relations_certified_by_curves(example_model):
    strict = [
        (a, b)
        for a in example_model.orbit_ids()
        for b in example_model.orbit_ids()
        if a != b and example_model.closure_leq(a, b)
    ]
    for a, b in strict:
        if a == "0":
            # scaling curve: t * (representative of b)
            rep = example_model.representative(b)
            curve = lambda t, rep=rep: tuple(
                tuple(t * x for x in row) for row in rep
            )
        else:
            curve = _CURVES[(a, b)]
        for t in (1, 7, Q(1, 3)):
            assert example_model.classify_element(curve(t)) == b
        assert example_model.classify_element(curve(0)) == a


def test_example_non_relations_certified_by_closed_conditions(example_model):
    # each orbit listed with a closed condition that holds on it (hence on its
    # closure); a rep of another orbit violating the condition certifies that
    # the other orbit is not below it
    def m_zero(v):
        return all(v[i][j] == 0 for i in range(2) for j in range(2))

    def c_zero(v):
        return v[0][2] == 0 and v[1][2] == 0

    def aug_rank_leq_1(v):
        return linalg.rank([list(row) for row in v]) <= 1

    closed = {"O2": m_zero, "O3": c_zero, "O4": aug_rank_leq_1}
    for upper, condition in closed.items():
        assert condition(example_model.representative(upper))
        for lower in example_model.orbit_ids():
            if not condition(example_model.representative(lower)):
                assert not example_model.closure_leq(lower, upper)


def _labels(analysis):
    """The example's region labels, from the regions' weight sets."""
    hps = analysis.hyperplanes
    return analysis.model.region_labels({r.id: region_weights(hps, r) for r in analysis.regions})


def test_example_region_labels(example_analysis):
    labels = _labels(example_analysis)
    by_label = {v: k for k, v in labels.items()}
    assert set(labels.values()) == {"I", "II", "III", "IV", "V", "VI"}
    signs = {r.id: r.signs for r in example_analysis.regions}
    assert signs[by_label["I"]] == "----"
    assert signs[by_label["II"]] == "---+"
    assert signs[by_label["III"]] == "+--+"
    assert signs[by_label["IV"]] == "-+++"
    assert signs[by_label["V"]] == "--++"
    assert signs[by_label["VI"]] == "+-++"


def test_example_strata_by_label(example_analysis):
    labels = _labels(example_analysis)
    strata = {labels[rid]: s for rid, s in example_analysis.strata.items()}
    assert strata == {
        "I": "0",
        "II": "O3",
        "III": "O3",
        "IV": "O4",
        "V": "O4",
        "VI": "O5",
    }


def _label_sets(analysis, orbit):
    labels = _labels(analysis)
    meets, dense = m_sets(analysis, orbit)
    return {labels[r] for r in meets}, {labels[r] for r in dense}


def test_example_m_sets(example_analysis):
    assert _label_sets(example_analysis, "0") == (
        {"I", "II", "III", "IV", "V", "VI"},
        {"I"},
    )
    assert _label_sets(example_analysis, "O2") == ({"IV", "V", "VI"}, set())
    assert _label_sets(example_analysis, "O3") == (
        {"II", "III", "IV", "V", "VI"},
        {"II", "III"},
    )
    assert _label_sets(example_analysis, "O4") == ({"IV", "V", "VI"}, {"IV", "V"})
    assert _label_sets(example_analysis, "O5") == ({"VI"}, {"VI"})


def test_example_characteristics(example_analysis):
    cases = {
        # orbit: (point, labels, squared norm)
        "0": ((0, 0), (0, 0), 0),
        "O2": ((2, 0), (4, 0), 8),
        "O3": ((1, 1), (2, 2), 4),
        "O4": ((2, 0), (4, 0), 8),
        "O5": ((2, 4), (4, 8), 40),
    }
    for orbit, (point, labels, nsq) in cases.items():
        ch = characteristic(example_analysis, orbit, mode="nonempty")
        assert ch.point == point
        assert ch.labels == labels
        assert ch.norm_sq == nsq


def test_example_dense_mode(example_analysis):
    assert characteristic(example_analysis, "O2", mode="dense") is None
    for orbit in ("0", "O3", "O4", "O5"):
        dense = characteristic(example_analysis, orbit, mode="dense")
        loose = characteristic(example_analysis, orbit, mode="nonempty")
        assert dense.point == loose.point


def test_example_tie_resolved_at_shared_point(example_analysis):
    # two distinct regions attain the minimum for O4, at the same point
    labels = _labels(example_analysis)
    ch = characteristic(example_analysis, "O4", mode="dense")
    assert {labels[r] for r in ch.achieving} == {"IV", "V"}
    assert ch.point == (2, 0)


def test_example_minimum_caching(example_analysis):
    rid = example_analysis.regions[0].id
    first = example_analysis.region_minimum(rid)
    assert example_analysis.region_minimum(rid) is first


def test_region_minimum_rejects_unknown_id(example_analysis):
    for rid in (0, 7, 99, -1):
        with pytest.raises(ValueError, match=f"no region with id {rid}"):
            example_analysis.region_minimum(rid)
    last = example_analysis.regions[-1]
    assert example_analysis.region_minimum(last.id) is example_analysis.region_minimum(6)


@pytest.fixture(scope="module")
def sl4_analysis():
    return RegionAnalysis.build(AdjointSlModel(4))


def _scaled_adjoint_analysis(factors, scales, level):
    rs = build_root_system(factors)
    return RegionAnalysis.build(Module(rs, highest_roots(rs)), level, scales)


@pytest.fixture(scope="module")
def g2_scaled_analysis():
    # at level 7/3 each sign row has a bound of denominator 3
    return _scaled_adjoint_analysis([("G", 2)], (Q(2, 7),), Q(7, 3))


@pytest.fixture(scope="module")
def a1b2_scaled_analysis():
    return _scaled_adjoint_analysis([("A", 1), ("B", 2)], (Q(1, 3), Q(5, 2)), Q(5, 3))


@pytest.mark.parametrize("name", ["sl4_analysis", "example_analysis", "g2_little_analysis"])
def test_walls_are_the_irredundant_sign_rows(name, request):
    # oracle: sign row k is a facet exactly when the other rows and the
    # reversed row k still have a strict interior point (an exact LP each)
    analysis = request.getfixturevalue(name)
    rank = analysis.model.root_system.rank
    closures = closure_rows(analysis.model.root_system, analysis.hyperplanes, analysis.regions)
    for region, closure in zip(analysis.regions, closures):
        rows = list(closure)
        facets = [
            k
            for k in range(rank, len(rows))
            if ratlp.strict_interior(
                rows[:k] + rows[k + 1 :] + [(tuple(-v for v in rows[k][0]), -rows[k][1])], rank
            )
            is not None
        ]
        assert walls(analysis, region) == list(range(rank)) + facets


@pytest.mark.parametrize(
    "name",
    [
        "sl4_analysis",
        "example_analysis",
        "g2_little_analysis",
        "g2_scaled_analysis",
        "a1b2_scaled_analysis",
    ],
)
def test_region_minimum_is_certified_on_the_whole_closure(name, request):
    analysis = request.getfixturevalue(name)
    rank = analysis.model.root_system.rank
    # one integer row per place in sign_rows: the chamber rows and both
    # sign rows of each hyperplane
    places, ints = analysis._sign_rows
    assert sum(map(len, ints)) == rank + 2 * len(analysis.hyperplanes)
    for part, ipart in zip(places, ints, strict=True):
        for row, irow in zip(part, ipart, strict=True):
            assert irow == linalg.integral((*row[0], row[1]))
    closures = closure_rows(analysis.model.root_system, analysis.hyperplanes, analysis.regions)
    for region, rows in zip(analysis.regions, closures):
        res = analysis.region_minimum(region.id)
        closure = Polyhedron.from_rows(rows, rank)
        verify_kkt(closure, analysis.form, res)
        full = min_norm_point(closure, analysis.form)
        assert (res.point, res.norm_sq) == (full.point, full.norm_sq)


def test_region_minimum_carries_the_walls_minimizer_to_closure_rows(request):
    # the minimum over the walls alone, as region minima were once taken,
    # is the minimum over the closure: region_minimum, resumed down the
    # sign tree, gives its point and norm, and its certificate holds on the
    # closure rows (active sets may differ where tight rows are redundant)
    for name in ("sl4_analysis", "example_analysis", "g2_little_analysis"):
        analysis = request.getfixturevalue(name)
        rs = analysis.model.root_system
        closures = closure_rows(rs, analysis.hyperplanes, analysis.regions)
        for region, rows in zip(analysis.regions, closures):
            kept = [rows[w] for w in walls(analysis, region)]
            res = min_norm_point(Polyhedron.from_rows(kept, rs.rank), analysis.form)
            got = analysis.region_minimum(region.id)
            assert (got.point, got.norm_sq) == (res.point, res.norm_sq), (name, region.id)
            verify_kkt(Polyhedron.from_rows(rows, rs.rank), analysis.form, got)


def test_a_tampered_node_state_is_caught_at_the_leaf():
    # a region whose last sign row holds at its parent node's minimizer:
    # its leaf takes no step from the parent's state, so a planted bad
    # state there reaches the leaf's certificate and fails it
    analysis = RegionAnalysis.build(AdjointSlModel(4))
    for region in analysis.regions:
        analysis.region_minimum(region.id)
    states = analysis._states
    region, state = next(
        (region, states[region.signs[:-1]])
        for region in analysis.regions
        if region.signs[:-1] in states
        and any(states[region.signs[:-1]].lam)
        and analysis.region_minimum(region.id).active_set == tuple(states[region.signs[:-1]].active)
    )
    honest = analysis._minima.pop(region.id)
    for lam, message in (
        (tuple(-v for v in state.lam), "negative multiplier"),
        ((0,) * len(state.lam), "stationarity fails"),
    ):
        states[region.signs[:-1]] = state._replace(lam=lam)
        with pytest.raises(AssertionError, match=message):
            analysis.region_minimum(region.id)
    states[region.signs[:-1]] = state
    assert analysis.region_minimum(region.id) == honest


def test_region_minima_integralize_each_closure_row_once(monkeypatch):
    # the chamber rows and both sign rows of each hyperplane go to ints once
    # per analysis, shared by every region's resumed loop and leaf
    # certificate on its closure
    analysis = RegionAnalysis.build(AdjointSlModel(4))
    integral, lengths = linalg.integral, []
    monkeypatch.setattr(linalg, "integral", lambda v: lengths.append(len(v)) or integral(v))
    for region in analysis.regions:
        analysis.region_minimum(region.id)
    # rank 3: only a row (normal, bound) has four entries
    assert lengths.count(4) == 3 + 2 * len(analysis.hyperplanes)


def _first_violated(rows, x, d, kinv, q):
    """The earlier entering rule of min_norm_point: the first violated row."""
    return next(
        (k for k, (ints, _) in enumerate(rows) if sum(map(int.__mul__, ints, x)) < ints[-1] * d),
        None,
    )


def _little_g2():
    rs = build_root_system([("G", 2)])
    return Module(rs, (highest_short_root(rs),))


@pytest.mark.parametrize(
    "model",
    [*(partial(AdjointSlModel, n) for n in (4, 5, 6)), Example2x3Model, _little_g2],
    ids=["sl4", "sl5", "sl6", "example-2x3", "G2-little"],
)
def test_most_violated_entry_keeps_the_first_violated_minima_in_no_more_steps(model, monkeypatch):
    # the same dual iteration with the first violated row entering, as it
    # did before: the minimizer is unique, so points and norms agree on
    # every region, and the most violated row takes no more steps in total
    minima, steps = {}, {}
    solve = linalg.solve_integral
    for rule in ("most", "first"):
        with monkeypatch.context() as patch:
            count = []
            patch.setattr(linalg, "solve_integral", lambda a, b: count.append(1) or solve(a, b))
            if rule == "first":
                patch.setattr(minnorm, "_most_violated", _first_violated)
            analysis = RegionAnalysis.build(model())
            minima[rule] = [
                (res.point, res.norm_sq)
                for res in map(analysis.region_minimum, (r.id for r in analysis.regions))
            ]
            steps[rule] = len(count)
    assert minima["most"] == minima["first"]
    assert 0 < steps["most"] <= steps["first"]


def test_characteristic_rejects_bad_input(example_analysis):
    with pytest.raises(ValueError):
        characteristic(example_analysis, "O9")
    with pytest.raises(ValueError):
        characteristic(example_analysis, "O3", mode="generic")


# ---------------------------------------------------------- adjoint sl_n model


def test_adjoint_model_basics():
    model = AdjointSlModel(3)
    assert model.orbit_ids() == ((3,), (2, 1), (1, 1, 1))
    assert model.zero_orbit == (1, 1, 1)
    assert model.module_spec == ((1, 1),)
    assert model.closure_leq((2, 1), (3,))
    assert model.generic_stratum([(2, -1), (-1, 2), (1, 1)]) == (3,)
    with pytest.raises(ValueError):
        AdjointSlModel(1)
    with pytest.raises(ValueError):
        characteristic(RegionAnalysis.build(model), (2, 2))


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_ids_are_built_once(n):
    # one stored tuple per model, equal to the partitions of n
    model = AdjointSlModel(n)
    ids = model.orbit_ids()
    assert type(ids) is tuple and ids is model.orbit_ids()
    assert ids == tuple(partitions_of(n))


def test_check_orbit_refuses_what_is_no_partition_of_n():
    model = AdjointSlModel(5)
    assert model.check_orbit((2, 2, 1)) == (2, 2, 1)
    for orbit in [(2, 2, 2), (1, 2, 2)]:
        with pytest.raises(ValueError, match="unknown orbit"):
            model.check_orbit(orbit)


def test_characteristics_keep_their_labels_and_records():
    # every sl3-sl6 and example-2x3 characteristic in both modes: its labels
    # are the Fraction sums of its point, and the records hash to the value
    # recorded from the Fraction-sum labels
    digest = hashlib.sha256()
    for model in [AdjointSlModel(n) for n in (3, 4, 5, 6)] + [Example2x3Model()]:
        analysis = RegionAnalysis.build(model)
        for orbit in model.orbit_ids():
            for mode in ("nonempty", "dense"):
                ch = characteristic(analysis, orbit, mode)
                digest.update(repr(ch).encode())
                if ch is None:
                    continue
                assert ch.labels == fraction_labels(model.root_system, ch.point), (model.name, orbit)
                assert all(type(v) is Q for v in ch.labels)
    assert digest.hexdigest() == "19a99ea1f28ddccbeb9f7f34e6283842386274d78d590e15c63c2e8c49ce6de1"


def test_adjoint_sl2_characteristics():
    analysis = RegionAnalysis.build(AdjointSlModel(2))
    assert len(analysis.regions) == 2
    ch = characteristic(analysis, (2,))
    assert ch.point == (1,)
    assert ch.labels == (2,)
    assert ch.norm_sq == 2
    zero = characteristic(analysis, (1, 1))
    assert zero.point == (0,)
    assert zero.norm_sq == 0


def test_adjoint_sl3_characteristics():
    analysis = RegionAnalysis.build(AdjointSlModel(3))
    assert len(analysis.regions) == 5
    assert characteristic(analysis, (3,)).labels == (2, 2)
    assert characteristic(analysis, (2, 1)).labels == (1, 1)
    assert characteristic(analysis, (1, 1, 1)).labels == (0, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjoint_labels_match_classical_diagrams(n):
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    for p in partitions_of(n):
        expected = weighted_dynkin_from_partition(p)
        loose = characteristic(analysis, p, mode="nonempty")
        assert loose.labels == expected, (n, p)
        dense = characteristic(analysis, p, mode="dense")
        assert dense is not None and dense.labels == expected, (n, p)


def test_sl5_table_precheck_pivots(monkeypatch):
    # the feasibility check after each of the 42 region minima of the sl5
    # table is answered by the region's minimizer, checked on ints: no
    # phase 1 runs and no pivot is taken
    closed_feasible, pivot, run_phase1 = ratlp.closed_feasible, ratlp._pivot, ratlp._phase1
    calls, pivots, phase1 = [], [], []

    def recording_closed_feasible(rows, nvars, start):
        calls.append((rows, nvars, start))
        return closed_feasible(rows, nvars, start)

    def counting_phase1(dic):
        phase1.append(dic)
        return run_phase1(dic)

    def counting_pivot(*args):
        pivots.append(True)
        return pivot(*args)

    monkeypatch.setattr(ratlp, "closed_feasible", recording_closed_feasible)
    analysis = RegionAnalysis.build(AdjointSlModel(5))
    monkeypatch.setattr(ratlp, "_pivot", counting_pivot)
    monkeypatch.setattr(ratlp, "_phase1", counting_phase1)
    for p in partitions_of(5):
        characteristic(analysis, p, mode="nonempty")
        characteristic(analysis, p, mode="dense")
    assert (len(calls), len(pivots), len(phase1)) == (42, 0, 0)
    assert all(len(start) == nvars for _, nvars, start in calls)


@pytest.mark.parametrize("n", [3, 4])
def test_adjoint_characteristic_supports_the_orbit(n):
    # the weights graded >= 2 by the characteristic span a subspace whose
    # generic Jordan type dominates the orbit: the orbit meets that subspace
    analysis = RegionAnalysis.build(AdjointSlModel(n))
    for p in partitions_of(n):
        ch = characteristic(analysis, p)
        support = sorted(
            mu for mu in analysis.ws.entries if pairing(mu, ch.point) >= analysis.level
        )
        stratum = analysis.model.generic_stratum(support)
        assert dominance_leq(p, stratum), (p, stratum)


def test_union_minimum_never_below_member_minima(example_analysis):
    # the characteristic norm equals the least norm among the selected regions
    for orbit in example_analysis.model.orbit_ids():
        ch = characteristic(example_analysis, orbit)
        minima = [
            example_analysis.region_minimum(rid).norm_sq for rid in ch.m_set
        ]
        assert ch.norm_sq == min(minima)
        assert all(
            example_analysis.region_minimum(rid).norm_sq == ch.norm_sq
            for rid in ch.achieving
        )


# ------------------------------------------------- adjoint types B, C and D


def _classical_diagrams(series, n):
    """The weighted Dynkin diagrams of the nilpotent orbits of so(2n+1),
    sp(2n) or so(2n): one per partition in which every even part (B, D) or
    odd part (C) has even multiplicity, two for a very even D partition.
    The n largest entries h of the strings d-1, d-3, ..., 1-d of the parts
    d give the labels h_i - h_{i+1}, and last h_n (B), 2 h_n (C) or
    h_{n-1} + h_n (D)."""
    paired = 1 if series == "C" else 0
    diagrams = []
    for p in partitions_of(2 * n + (series == "B")):
        if any(p.count(d) % 2 for d in set(p) if d % 2 == paired):
            continue
        h = sorted((v for d in p for v in range(d - 1, -d, -2)), reverse=True)[:n]
        labels = [h[i] - h[i + 1] for i in range(n - 1)]
        last = {"B": h[-1], "C": 2 * h[-1], "D": h[-2] + h[-1]}[series]
        diagrams.append((*labels, last))
        if series == "D" and all(d % 2 == 0 for d in p):
            diagrams.append((*labels[:-1], last, labels[-1]))
    return diagrams


def _diagram_failures(series, n):
    """The classical diagrams of B_n, C_n or D_n, and those that are not the
    labels of the minimum over the closure of the adjoint region signed '+'
    exactly where alpha(h) >= 2 for the point h with those labels."""
    rs = build_root_system([(series, n)])
    analysis = RegionAnalysis.build(Module(rs, highest_roots(rs)))
    by_signs = {r.signs: r.id for r in analysis.regions}
    diagrams = _classical_diagrams(series, n)
    failures = []
    for diagram in diagrams:
        h = linalg.solve(rs.cartan, diagram)
        signs = "".join(
            "+" if pairing(hp.weight, h) >= analysis.level else "-" for hp in analysis.hyperplanes
        )
        rid = by_signs.get(signs)
        if rid is None or dynkin_labels(rs, analysis.region_minimum(rid).point) != diagram:
            failures.append(diagram)
    return diagrams, failures


# the number of nilpotent orbits, a very even D orbit counted twice
_CLASSICAL_ORBITS = {
    ("B", 2): 4, ("B", 3): 7, ("B", 4): 13, ("B", 5): 21,
    ("C", 3): 8, ("C", 4): 14, ("C", 5): 24,
    ("D", 4): 12, ("D", 5): 16, ("D", 6): 31,
}
if LARGE:
    _CLASSICAL_ORBITS.update({("B", 6): 35, ("C", 6): 40, ("D", 7): 43})


@pytest.mark.parametrize("factor", _CLASSICAL_ORBITS, ids=lambda f: f"{f[0]}{f[1]}")
def test_classical_bcd_diagrams_are_adjoint_region_minima(factor):
    diagrams, failures = _diagram_failures(*factor)
    assert failures == []
    assert len(diagrams) == len(set(diagrams)) == _CLASSICAL_ORBITS[factor]


def test_classical_bcd_check_catches_a_wrong_minimum(monkeypatch):
    # doubling every minimum moves every label but those of the zero orbit
    region_minimum = RegionAnalysis.region_minimum

    def doubled(self, region_id):
        res = region_minimum(self, region_id)
        return replace(res, point=tuple(2 * x for x in res.point))

    monkeypatch.setattr(RegionAnalysis, "region_minimum", doubled)
    diagrams, failures = _diagram_failures("B", 3)
    assert failures == diagrams[:-1] and not any(diagrams[-1])


# ------------------------------------------------------- module without model


@pytest.fixture(scope="module")
def g2_little_analysis():
    return RegionAnalysis.build(_little_g2())


def test_module_analysis_matches_recorded_regions(g2_little_analysis):
    path = Path(__file__).parent / "data" / "regions_G2_little-adjoint.json"
    a = g2_little_analysis
    doc = jsonio.regions_doc(a)
    assert jsonio.dump_doc(doc).encode() == path.read_bytes()
    with pytest.raises(ValueError, match="no orbit model"):
        a.strata


def test_module_analysis_has_no_orbits(g2_little_analysis):
    with pytest.raises(ValueError, match="no orbit model"):
        m_sets(g2_little_analysis, (1, 1))
    with pytest.raises(ValueError, match="no orbit model"):
        characteristic(g2_little_analysis, (1, 1))
    # the arrangement itself still answers region minima
    assert g2_little_analysis.region_minimum(1).point == (0, 0)
