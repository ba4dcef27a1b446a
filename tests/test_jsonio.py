"""Tests for exact JSON serialization and round-trips."""

import json
from fractions import Fraction

from orbitchar import jsonio
from orbitchar.liecore import build_root_system
from orbitchar.orbits import (
    AdjointSlModel,
    Example2x3Model,
    Module,
    RegionAnalysis,
    characteristic,
    m_sets,
)

Q = Fraction


def test_rational_strings():
    assert jsonio.rat(Q(3, 4)) == "3/4"
    assert jsonio.rat(Q(-7, 2)) == "-7/2"
    assert jsonio.rat(Q(6, 8)) == "3/4"
    assert jsonio.rat(2) == "2"
    assert jsonio.rat(0) == "0"
    for text in ("3/4", "-7/2", "2", "0", "-1/3"):
        assert jsonio.rat(Q(text)) == text


def _example_arrangement():
    return RegionAnalysis.build(Module(build_root_system([("A", 1), ("A", 1)]), ((1, 1), (1, 0))))


def test_regions_doc_round_trip():
    analysis = _example_arrangement()
    hps, regions, subs = analysis.hyperplanes, analysis.regions, analysis.subspaces
    doc = json.loads(jsonio.dump_doc(jsonio.regions_doc(analysis)))
    assert doc["root_system"] == {"factors": [["A", 1], ["A", 1]], "rank": 2}
    assert [tuple(w) for w in doc["module_spec"]] == [(1, 1), (1, 0)]
    assert Q(doc["level"]) == 2
    assert [(tuple(h["weight_fw"]), Q(h["level"])) for h in doc["hyperplanes"]] == [
        (h.weight, h.level) for h in hps
    ]
    assert [row["id"] for row in doc["regions"]] == [r.id for r in regions]
    for row, r in zip(doc["regions"], regions):
        assert row["signs"] == r.signs
        assert tuple(Q(x) for x in row["witness"]) == r.witness
        assert tuple(
            (tuple(ineq["normal"]), Q(ineq["bound"])) for ineq in row["closure_ineqs"]
        ) == r.closure_ineqs
        assert frozenset(tuple(w) for w in row["i_r"]) == subs[r.id].i_r
        assert row["dim"] == subs[r.id].dimension


def test_dump_is_deterministic_and_canonical():
    doc = jsonio.regions_doc(_example_arrangement())
    text = jsonio.dump_doc(doc)
    assert text == jsonio.dump_doc(doc)
    # a fresh computation serializes to identical bytes
    assert jsonio.dump_doc(jsonio.regions_doc(_example_arrangement())) == text
    # dumping the parsed JSON value reproduces the text exactly
    assert jsonio.dump_doc(json.loads(text)) == text
    assert text.endswith("\n")


def test_characteristics_doc_round_trip_example():
    analysis = RegionAnalysis.build(Example2x3Model())
    ch = characteristic(analysis, "O4", mode="dense")
    doc = json.loads(jsonio.dump_doc(jsonio.characteristics_doc(analysis, ch)))
    assert doc["model"] == "example-2x3"
    assert doc["orbit"] == "O4"
    assert doc["mode"] == "dense"
    assert tuple(Q(x) for x in doc["point"]) == ch.point == (2, 0)
    assert tuple(Q(x) for x in doc["labels"]) == ch.labels == (4, 0)
    assert Q(doc["norm_sq"]) == ch.norm_sq == 8
    meets, dense = m_sets(analysis, "O4")
    assert doc["m_set"] == sorted(meets)
    assert doc["tilde_m_set"] == sorted(dense)


def test_characteristics_doc_round_trip_partition():
    analysis = RegionAnalysis.build(AdjointSlModel(4))
    ch = characteristic(analysis, (2, 2))
    doc = json.loads(jsonio.dump_doc(jsonio.characteristics_doc(analysis, ch)))
    assert doc["model"] == "sl4-adjoint"
    assert tuple(doc["orbit"]) == ch.orbit == (2, 2)
    assert tuple(Q(x) for x in doc["labels"]) == ch.labels == (0, 2, 0)
    assert set(doc["tilde_m_set"]) <= set(doc["m_set"])
