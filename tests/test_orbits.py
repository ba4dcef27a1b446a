"""Tests for orbit models and the characteristic computation."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from orbitchar import jsonio, linalg
from orbitchar.liecore import build_root_system, highest_short_root, invariant_form, norm_sq
from orbitchar.minnorm import MinNormTieError
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
    m_sets,
    partitions_of,
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


def test_generic_jordan_seed_determinism():
    pos = [(2, -1), (1, 1)]
    assert generic_jordan_partition(pos, 3, seed=5) == generic_jordan_partition(
        pos, 3, seed=5
    )


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


def test_example_region_labels(example_analysis):
    model = example_analysis.model
    labels = model.region_labels(example_analysis.subspaces.values())
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
    labels = example_analysis.model.region_labels(example_analysis.subspaces.values())
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
    labels = analysis.model.region_labels(analysis.subspaces.values())
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
    labels = example_analysis.model.region_labels(example_analysis.subspaces.values())
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


@pytest.mark.parametrize("n", [3, 4])
def test_adjoint_characteristic_supports_the_orbit(n):
    # the weights graded >= 2 by the characteristic span a subspace whose
    # generic Jordan type dominates the orbit: the orbit meets that subspace
    from orbitchar.arrangement import grade_module

    analysis = RegionAnalysis.build(AdjointSlModel(n))
    for p in partitions_of(n):
        ch = characteristic(analysis, p)
        graded = grade_module(analysis.ws, ch.point, analysis.level)
        support = sorted(graded.at | graded.above)
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


# ------------------------------------------------------- module without model


@pytest.fixture(scope="module")
def g2_little_analysis():
    rs = build_root_system([("G", 2)])
    return RegionAnalysis.build(Module(rs, (highest_short_root(rs),)))


def test_module_analysis_matches_recorded_regions(g2_little_analysis):
    path = Path(__file__).parent / "data" / "regions_G2_little-adjoint.json"
    recorded = jsonio.parse_regions_doc(json.loads(path.read_text()))
    assert tuple(g2_little_analysis.hyperplanes) == recorded.hyperplanes
    assert tuple(g2_little_analysis.regions) == recorded.regions
    assert g2_little_analysis.subspaces == recorded.subspaces
    assert g2_little_analysis.strata is None


def test_module_analysis_has_no_orbits(g2_little_analysis):
    with pytest.raises(ValueError, match="no orbit model"):
        m_sets(g2_little_analysis, (1, 1))
    with pytest.raises(ValueError, match="no orbit model"):
        characteristic(g2_little_analysis, (1, 1))
    # the arrangement itself still answers region minima
    assert g2_little_analysis.region_minimum(1).point == (0, 0)
