"""Tests for exact JSON serialization and round-trips."""

import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import closure_rows

from orbitchar import jsonio
from orbitchar.arrangement import region_weights
from orbitchar.liecore import build_root_system, highest_roots, highest_short_root
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
    hps, regions, ws = analysis.hyperplanes, analysis.regions, analysis.ws
    doc = json.loads(jsonio.dump_doc(jsonio.regions_doc(analysis)))
    assert doc["root_system"] == {"factors": [["A", 1], ["A", 1]], "rank": 2}
    assert [tuple(w) for w in doc["module_spec"]] == [(1, 1), (1, 0)]
    assert Q(doc["level"]) == 2
    assert [(tuple(h["weight_fw"]), Q(h["level"])) for h in doc["hyperplanes"]] == [
        (h.weight, h.level) for h in hps
    ]
    assert [row["id"] for row in doc["regions"]] == [r.id for r in regions]
    closures = closure_rows(ws.root_system, hps, regions)
    for row, r, closure in zip(doc["regions"], regions, closures):
        assert row["signs"] == r.signs
        assert tuple(Q(x) for x in row["witness"]) == r.witness
        assert tuple(
            (tuple(ineq["normal"]), Q(ineq["bound"])) for ineq in row["closure_ineqs"]
        ) == closure
        i_r = region_weights(hps, r)
        assert frozenset(tuple(w) for w in row["i_r"]) == i_r
        assert row["dim"] == sum(ws.entries[w] for w in i_r)


def test_dump_is_deterministic_and_canonical():
    analysis = _example_arrangement()
    text = jsonio.dump_doc(jsonio.regions_doc(analysis))
    assert text == jsonio.dump_doc(jsonio.regions_doc(analysis))
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


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_dump_matches_json_on_the_recorded_documents(path):
    text = path.read_text()
    assert jsonio.dump_doc(json.loads(text)) == _reference(json.loads(text)) == text


def test_dump_matches_json_on_the_f4_regions_document():
    rs = build_root_system([("F", 4)])
    doc = jsonio.regions_doc(RegionAnalysis.build(Module(rs, highest_roots(rs))))
    doc["regions"] = list(doc["regions"])
    assert len(doc["regions"]) == 105
    assert jsonio.dump_doc(doc) == _reference(doc)


def test_write_doc_keeps_a_small_part_of_the_file(tmp_path):
    # the A6 adjoint document is 2.63 MB of text; the writer holds the
    # texts of the shared rows and weights, not the file's, and the
    # document makes one region's document at a time
    rs = build_root_system([("A", 6)])
    analysis = RegionAnalysis.build(Module(rs, highest_roots(rs)))
    path = tmp_path / "regions.json"
    tracemalloc.start()
    try:
        with open(path, "w") as out:
            jsonio.write_doc(jsonio.regions_doc(analysis), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_600_000
    assert peak < size / 10, (peak, size)
    doc = jsonio.regions_doc(analysis)
    doc["regions"] = list(doc["regions"])
    assert path.read_text() == jsonio.dump_doc(doc) == _reference(doc)


def test_dump_matches_json_on_shared_objects():
    # one dict and one list object, each several times at one depth and
    # again at a deeper one
    row = {"normal": [1, -2, 0], "bound": "3/2"}
    weight = [2, -1, 0]
    doc = {
        "rows": [row, row, weight, row, weight],
        "deeper": [{"row": row, "again": [row, weight, weight]}, [[weight], row]],
        "weight": weight,
    }
    assert jsonio.dump_doc(doc) == _reference(doc)
    # a marked dict and a marked list keep one text per indentation
    row, weight = jsonio._SharedDict(row), jsonio._SharedList(weight)
    doc = {"rows": [row, weight, row], "deeper": [[row, weight], {"w": weight}], "weight": weight}
    assert jsonio.dump_doc(doc) == _reference(doc)
    assert jsonio.dump_doc(doc) == _reference(doc)


def test_regions_share_the_documents_of_their_shared_rows():
    rs = build_root_system([("F", 4)])
    analysis = RegionAnalysis.build(Module(rs, (highest_short_root(rs),)))
    doc = jsonio.regions_doc(analysis)
    doc["regions"] = list(doc["regions"])
    first, second = closure_rows(rs, analysis.hyperplanes, analysis.regions[:2])
    shared = [k for k, row in enumerate(first) if row is second[k]]
    assert shared
    for k in shared:
        assert doc["regions"][0]["closure_ineqs"][k] is doc["regions"][1]["closure_ineqs"][k]
    assert jsonio.dump_doc(doc) == _reference(doc)
    # the marks on the shared rows and weights keep texts, not change them
    text = jsonio.dump_doc(doc)
    for region in doc["regions"]:
        assert all(type(row) is jsonio._SharedDict for row in region["closure_ineqs"])
        region["closure_ineqs"] = [dict(row) for row in region["closure_ineqs"]]
        region["i_r"] = [list(w) for w in region["i_r"]]
    assert jsonio.dump_doc(doc) == text


_CHARS = [
    "a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "λ", "≥", "\U0001d53c"
]


def _random_text(rng, longest):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(longest)))


def _random_value(rng, depth, seen):
    """A random document value; seen counts the kinds drawn."""
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        value = rng.choice([0, -1, 2**70, -(3**50), rng.randint(-1000, 1000)])
        seen["large int"] += abs(value) > 2**63
        return value
    if kind in (1, 2):
        text = _random_text(rng, 6)
        seen["escaped str"] += any(c in text for c in '"\\\n\x00\x1f')
        seen["non-ASCII str"] += any(ord(c) > 127 for c in text)
        return text
    if kind == 3:
        keys = [_random_text(rng, 4) for _ in range(rng.randrange(5))]
        seen["empty dict"] += not keys
        return {key: _random_value(rng, depth + 1, seen) for key in keys}
    items = [_random_value(rng, depth + 1, seen) for _ in range(rng.randrange(5))]
    seen["empty list"] += not items
    if kind == 4:
        items = [rng.randint(-9, 9) for _ in items]
    seen["tuple"] += kind == 6
    return tuple(items) if kind == 6 else items


def test_dump_matches_json_on_random_documents():
    rng = random.Random(20261019)
    seen = dict.fromkeys(
        ["large int", "escaped str", "non-ASCII str", "empty dict", "empty list", "tuple"], 0
    )
    for _ in range(500):
        doc = _random_value(rng, 0, seen)
        assert jsonio.dump_doc(doc) == _reference(doc), doc
    assert min(seen.values()) >= 20, seen


def test_an_empty_iterator_writes_an_empty_list():
    assert jsonio.dump_doc(iter(())) == "[]\n"
    assert jsonio.dump_doc({"a": iter([]), "b": 1}) == _reference({"a": [], "b": 1})


_ITEMS = [1, "x", [], {}, [2, "y"], {"k": [3, {"m": "n"}]}, (4,)]


def test_an_iterator_at_a_streamed_level_writes_its_list():
    # at the top level, and as a value and an item one level down
    for items in (_ITEMS, _ITEMS[:1], _ITEMS[2:]):
        assert jsonio.dump_doc(iter(items)) == _reference(items)
        assert jsonio.dump_doc({"a": iter(items)}) == _reference({"a": items})
        assert jsonio.dump_doc([0, (x for x in items)]) == _reference([0, items])
    # items made as they are asked for, each freed once written: a later
    # item's objects may take a freed one's id, and their own text is written
    def fresh():
        return ({"a": {"b": [i, [i]]}} for i in range(50))

    assert jsonio.dump_doc(fresh()) == _reference(list(fresh()))
    assert jsonio.dump_doc({"a": fresh()}) == _reference({"a": list(fresh())})


@pytest.mark.parametrize("path", sorted(DATA.glob("regions_*.json")), ids=lambda p: p.name)
def test_written_subspaces_are_the_region_weights(path):
    doc = json.loads(path.read_text())
    rs = build_root_system([tuple(f) for f in doc["root_system"]["factors"]])
    module = Module(rs, [tuple(w) for w in doc["module_spec"]])
    analysis = RegionAnalysis.build(module, Q(doc["level"]))
    entries = analysis.ws.entries
    assert len(doc["regions"]) == len(analysis.regions)
    for row, r in zip(doc["regions"], analysis.regions):
        assert row["signs"] == r.signs
        i_r = region_weights(analysis.hyperplanes, r)
        assert [tuple(w) for w in row["i_r"]] == sorted(i_r)
        assert row["dim"] == sum(entries[w] for w in i_r)


@pytest.mark.parametrize(
    "value",
    [True, False, None, 1.5, {"a": [1, None]}, [1, True], {1: "a"}, {"a": 1, 2: "b"}, (0.0,)]
    + [{1}, frozenset(), b"x", [1, {2}], [frozenset([1])], [b"x"], {"a": [iter([1])]}],
)
def test_dump_refuses_what_json_would_write_differently(value):
    with pytest.raises(TypeError):
        jsonio.dump_doc(value)


def test_rat_keeps_the_terms_it_was_given():
    assert jsonio.rat(Q(-6, 4)) == "-3/2"
    assert jsonio.rat(-5) == "-5"
    assert jsonio.rat("6/8") == "3/4"
    assert jsonio.rat(True) == "1"
