"""Chamber hyperplanes, region enumeration, and region weight supports."""

import gc
import hashlib
import random
from fractions import Fraction as Q

import pytest
from conftest import LARGE, closure_rows

from orbitchar import arrangement as arr
from orbitchar import jsonio
from orbitchar import liecore as lc
from orbitchar import ratlp
from orbitchar.cli import main
from orbitchar.orbits import Module, RegionAnalysis
from orbitchar.verify import _WEIGHT_POOL


def _example_ws():
    rs = lc.build_root_system([("A", 1), ("A", 1)])
    return lc.weight_system(rs, [(1, 1), (1, 0)])


def _adjoint_ws(factors):
    rs = lc.build_root_system(factors)
    return lc.weight_system(rs, list(lc.highest_roots(rs)))


def _written_regions(ws, hps, regions, level=Q(2)):
    """The region documents that jsonio writes for this arrangement."""
    module = Module(ws.root_system, ws.module_spec)
    analysis = RegionAnalysis(module, ws, None, level, hps, regions)
    return list(jsonio.regions_doc(analysis)["regions"])


def test_example_hyperplanes():
    ws = _example_ws()
    hps = arr.chamber_hyperplanes(ws)
    assert [h.weight for h in hps] == [(-1, 1), (1, -1), (1, 0), (1, 1)]
    assert all(h.level == 2 for h in hps)


def test_example_regions_count_and_signs():
    ws = _example_ws()
    rs = ws.root_system
    regions = arr.enumerate_regions(rs, arr.chamber_hyperplanes(ws))
    assert len(regions) == 6
    assert [r.signs for r in regions] == [
        "----",
        "---+",
        "--++",
        "-+++",
        "+--+",
        "+-++",
    ]
    assert [r.id for r in regions] == [1, 2, 3, 4, 5, 6]


def test_example_witnesses_strictly_inside():
    ws = _example_ws()
    hps = arr.chamber_hyperplanes(ws)
    regions = arr.enumerate_regions(ws.root_system, hps)
    for r, rows in zip(regions, closure_rows(ws.root_system, hps, regions)):
        for normal, bound in rows:
            assert lc.pairing(normal, r.witness) > bound


def test_a1_adjoint_two_regions():
    ws = _adjoint_ws([("A", 1)])
    hps = arr.chamber_hyperplanes(ws)
    assert [h.weight for h in hps] == [(2,)]
    regions = arr.enumerate_regions(ws.root_system, hps)
    assert [r.signs for r in regions] == ["-", "+"]


def test_a2_adjoint_three_hyperplanes_five_regions():
    ws = _adjoint_ws([("A", 2)])
    hps = arr.chamber_hyperplanes(ws)
    assert [h.weight for h in hps] == [(-1, 2), (1, 1), (2, -1)]
    regions = arr.enumerate_regions(ws.root_system, hps)
    assert len(regions) == 5


def _random_chamber_point(rs, rng, spread=4):
    labels = [Q(rng.randint(1, 100 * spread), 100) for _ in range(rs.rank)]
    from orbitchar.linalg import inverse

    return tuple(sum(x * y for x, y in zip(row, labels)) for row in inverse(rs.cartan))


def test_a2_adjoint_region_count_matches_sampling_oracle():
    # independent count of sign vectors by dense random sampling
    ws = _adjoint_ws([("A", 2)])
    rs = ws.root_system
    hps = arr.chamber_hyperplanes(ws)
    rng = random.Random(20260817)
    seen = set()
    n = 0
    while n < 3000:
        h = _random_chamber_point(rs, rng)
        vals = [lc.pairing(hp.weight, h) for hp in hps]
        if any(v == hp.level for v, hp in zip(vals, hps)):
            continue
        seen.add("".join("+" if v > hp.level else "-" for v, hp in zip(vals, hps)))
        n += 1
    regions = arr.enumerate_regions(rs, hps)
    assert seen == {r.signs for r in regions}
    assert len(regions) == 5


def test_sign_vectors_unique_and_match_witness():
    for ws in [_example_ws(), _adjoint_ws([("A", 3)])]:
        rs = ws.root_system
        hps = arr.chamber_hyperplanes(ws)
        regions = arr.enumerate_regions(rs, hps)
        assert len({r.signs for r in regions}) == len(regions)
        for r in regions:
            recomputed = "".join(
                "+" if lc.pairing(hp.weight, r.witness) > hp.level else "-"
                for hp in hps
            )
            assert recomputed == r.signs


def _upper_sets(rs):
    """Every upper set of the positive-root poset (mu >= nu when mu - nu has
    no negative simple-root coordinate), as a set of roots, with no LP."""
    coords = rs.positive_root_coords
    above = [
        sum(1 << j for j, b in enumerate(coords) if b != a and all(x >= y for x, y in zip(b, a)))
        for a in coords
    ]
    sets = [0]
    # a root joins a set only after every root above it, and the roots above
    # come first in order of height
    for k in sorted(range(len(coords)), key=lambda k: -sum(coords[k])):
        sets += [s | 1 << k for s in sets if s & above[k] == above[k]]
    return {
        frozenset(root for j, root in enumerate(rs.positive_roots) if s >> j & 1) for s in sets
    }


# the W-Catalan number of each type, the count of its ad-nilpotent ideals
_IDEALS = {
    "A3": 14, "A5": 132, "A6": 429, "B3": 20, "B4": 70, "B5": 252,
    "C3": 20, "C4": 70, "D4": 50, "D5": 182, "G2": 8, "F4": 105,
}
if LARGE:
    _IDEALS.update({"E6": 833, "A7": 1430})


@pytest.mark.parametrize("name", _IDEALS)
def test_adjoint_regions_are_the_ad_nilpotent_ideals(name):
    # the '+' set of an adjoint region is an upper set of the positive roots,
    # and each upper set is one region (Cellini & Papi 2000-02; Shi 1997)
    ws = _adjoint_ws([(name[0], int(name[1:]))])
    rs = ws.root_system
    hps = arr.chamber_hyperplanes(ws)
    assert sorted(hp.weight for hp in hps) == sorted(rs.positive_roots)
    ideals = _upper_sets(rs)
    assert len(ideals) == _IDEALS[name]
    regions = arr.enumerate_regions(rs, hps)
    plus = {frozenset(hp.weight for hp, s in zip(hps, r.signs) if s == "+") for r in regions}
    assert len(plus) == len(regions)
    assert plus == ideals


def test_enumeration_leaves_no_reference_cycles():
    ws = _adjoint_ws([("A", 3)])
    hps = arr.chamber_hyperplanes(ws)
    gc.collect()
    gc.disable()
    try:
        assert len(arr.enumerate_regions(ws.root_system, hps)) == 14
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        arr.chamber_hyperplanes(_example_ws(), level=0)


def test_example_region_weight_supports():
    ws = _example_ws()
    hps = arr.chamber_hyperplanes(ws)
    regions = arr.enumerate_regions(ws.root_system, hps)
    by_signs = {r.signs: r for r in regions}
    subs = {s: arr.region_weights(hps, r) for s, r in by_signs.items()}
    assert subs["----"] == frozenset()
    assert subs["---+"] == {(1, 1)}
    assert subs["+--+"] == {(1, 1), (-1, 1)}
    assert subs["-+++"] == {(1, 1), (1, -1), (1, 0)}
    assert subs["--++"] == {(1, 1), (1, 0)}
    assert subs["+-++"] == {(1, 1), (-1, 1), (1, 0)}
    for row in _written_regions(ws, hps, regions):
        assert row["dim"] == len(subs[row["signs"]])


def test_witness_independence_of_i_r():
    # a second strict interior point of each region gives the same support
    for ws in [_example_ws(), _adjoint_ws([("A", 3)])]:
        rs = ws.root_system
        hps = arr.chamber_hyperplanes(ws)
        regions = arr.enumerate_regions(rs, hps)
        rng = random.Random(5)
        for r, rows in zip(regions, closure_rows(rs, hps, regions)):
            w = r.witness
            direction = [Q(rng.randint(-5, 5), 7) for _ in range(rs.rank)]
            # largest step keeping all closure rows strict, capped at 1
            tmax = Q(1)
            for normal, bound in rows:
                dv = lc.pairing(normal, direction)
                if dv < 0:
                    slack = lc.pairing(normal, w) - bound
                    tmax = min(tmax, slack / (-dv) / 2)
            w2 = tuple(a + tmax * d for a, d in zip(w, direction))
            for normal, bound in rows:
                assert lc.pairing(normal, w2) > bound
            assert (
                arr.region_weights(hps, r)
                == frozenset(
                    mu for mu in ws.entries if lc.pairing(mu, w2) > 2
                )
            )


def _pairing_reference(ws, region, level):
    """The weights above the level at the region's witness, with their total
    multiplicity: the rule that paired every module weight with the witness
    before subspaces were read off the sign vector."""
    i_r = frozenset(mu for mu in ws.entries if lc.pairing(mu, region.witness) > level)
    return i_r, sum(ws.entries[mu] for mu in i_r)


@pytest.mark.parametrize(
    "factors,module,level",
    [
        pytest.param([("A", 2)], "adjoint", Q(2), id="A2-adjoint"),
        pytest.param([("A", 3)], "adjoint", Q(2), id="A3-adjoint"),
        pytest.param([("A", 4)], "adjoint", Q(2), id="A4-adjoint"),
        pytest.param([("A", 5)], "adjoint", Q(2), id="A5-adjoint"),
        pytest.param([("B", 3)], "adjoint", Q(2), id="B3-adjoint"),
        pytest.param([("C", 3)], "adjoint", Q(2), id="C3-adjoint"),
        pytest.param([("D", 4)], "adjoint", Q(2), id="D4-adjoint"),
        pytest.param([("G", 2)], "adjoint", Q(2), id="G2-adjoint"),
        pytest.param([("B", 2)], "little", Q(2), id="B2-little"),
        pytest.param([("G", 2)], "little", Q(2), id="G2-little"),
        pytest.param([("F", 4)], "little", Q(2), id="F4-little"),
        pytest.param([("A", 1), ("A", 1)], [(1, 1), (1, 0)], Q(2), id="example-2x3"),
        pytest.param([("A", 2)], "adjoint", Q(3, 2), id="A2-adjoint-level3-2"),
        # weights of multiplicity 2 lie above the level on some regions
        pytest.param([("A", 2)], [(2, 1)], Q(2), id="A2-V21"),
    ],
)
def test_region_weights_match_the_witness_pairing(factors, module, level):
    rs = lc.build_root_system(factors)
    if module == "adjoint":
        module = lc.highest_roots(rs)
    elif module == "little":
        module = [lc.highest_short_root(rs)]
    ws = lc.weight_system(rs, module)
    hps = arr.chamber_hyperplanes(ws, level)
    regions = arr.enumerate_regions(rs, hps)
    for r, row in zip(regions, _written_regions(ws, hps, regions, level), strict=True):
        assert row["id"] == r.id
        assert (arr.region_weights(hps, r), row["dim"]) == _pairing_reference(ws, r, level)
    # some module weights have no hyperplane, so the comparison covers them too
    assert any(mu not in {h.weight for h in hps} for mu in ws.entries)


# the cases of the test below on which some warm witness is not the cold one
_WARM_WITNESSES_MOVE = [([("A", 4)], "adjoint"), ([("A", 5)], "adjoint"), ([("A", 2)], [(2, 1)])]


def _cold_enumeration_reference(rs, hyperplanes):
    """The depth-first enumeration with every LP solved from the artificial
    basis, as before inner nodes started from their parent's dictionary:
    the regions, and the rows of each region's last LP."""
    base = [(tuple(row), Q(0)) for row in rs.cartan]
    found = []
    stack = [(base, "", ratlp.strict_interior(base, rs.rank))]
    while stack:
        rows, signs, witness = stack.pop()
        if len(signs) == len(hyperplanes):
            found.append((signs, witness, tuple(rows)))
            continue
        hp = hyperplanes[len(signs)]
        above, below = (hp.weight, hp.level), (tuple(-m for m in hp.weight), -hp.level)
        for sign, row in (("+", above), ("-", below)):
            cand = rows + [row]
            w = ratlp.strict_interior(cand, rs.rank)
            if w is not None:
                stack.append((cand, signs + sign, w))
    found.sort(key=lambda sw: tuple(0 if ch == "-" else 1 for ch in sw[0]))
    regions = [
        arr.Region(id=k, signs=signs, witness=witness)
        for k, (signs, witness, _) in enumerate(found, start=1)
    ]
    return regions, [rows for _, _, rows in found]


@pytest.mark.parametrize(
    "factors,module,level",
    [
        pytest.param([("A", 2)], "adjoint", Q(2), id="A2-adjoint"),
        pytest.param([("A", 3)], "adjoint", Q(2), id="A3-adjoint"),
        pytest.param([("A", 4)], "adjoint", Q(2), id="A4-adjoint"),
        pytest.param([("A", 5)], "adjoint", Q(2), id="A5-adjoint"),
        pytest.param([("B", 3)], "adjoint", Q(2), id="B3-adjoint"),
        pytest.param([("C", 3)], "adjoint", Q(2), id="C3-adjoint"),
        pytest.param([("D", 4)], "adjoint", Q(2), id="D4-adjoint"),
        pytest.param([("G", 2)], "adjoint", Q(2), id="G2-adjoint"),
        pytest.param([("B", 2)], "little", Q(2), id="B2-little"),
        pytest.param([("G", 2)], "little", Q(2), id="G2-little"),
        pytest.param([("F", 4)], "little", Q(2), id="F4-little"),
        pytest.param([("A", 1), ("A", 1)], [(1, 1), (1, 0)], Q(2), id="example-2x3"),
        pytest.param([("A", 3)], "adjoint", Q(3, 2), id="A3-adjoint-level3-2"),
        pytest.param([("A", 2)], [(2, 1)], Q(2), id="A2-V21"),
    ],
)
def test_warm_inner_nodes_keep_the_cold_enumeration(factors, module, level):
    # every LP below the root starts from its parent's dictionary, so a
    # cell's witness is the vertex that phase 1 reaches from there: the ids,
    # sign vectors and closure rows are those of the all-cold enumeration,
    # and so are the witnesses except on A4, A5 and the A2 module (2,1)
    witnesses_move = (factors, module) in _WARM_WITNESSES_MOVE
    rs = lc.build_root_system(factors)
    if module == "adjoint":
        module = lc.highest_roots(rs)
    elif module == "little":
        module = [lc.highest_short_root(rs)]
    hps = arr.chamber_hyperplanes(lc.weight_system(rs, module), level)
    got = arr.enumerate_regions(rs, hps)
    cold, cold_rows = _cold_enumeration_reference(rs, hps)
    got_rows = closure_rows(rs, hps, got)
    assert [(r.id, r.signs, rows) for r, rows in zip(got, got_rows)] == [
        (r.id, r.signs, rows) for r, rows in zip(cold, cold_rows)
    ]
    if not witnesses_move:
        assert got == cold
    for r, rows in zip(got, got_rows):
        assert all(type(x) is Q for x in r.witness)
        for normal, bound in rows:
            assert sum(Q(v) * x for v, x in zip(normal, r.witness)) > bound
        for hp, sign in zip(hps, r.signs):
            value = lc.pairing(hp.weight, r.witness)
            assert value > hp.level if sign == "+" else value < hp.level


@pytest.mark.parametrize(
    "factors,module,lps",
    [
        pytest.param([("A", 4)], "adjoint", 205, id="A4-adjoint"),
        pytest.param([("F", 4)], "little", 199, id="F4-little"),
    ],
)
def test_only_the_root_lp_starts_cold(monkeypatch, factors, module, lps):
    colds, starts = [], []
    cold_start, strict_interior = ratlp.cold_start, ratlp.strict_interior

    def counting_cold_start(rows, nvars):
        colds.append(cold_start(rows, nvars))
        return colds[-1]

    def recording_strict_interior(rows, nvars, start=None):
        starts.append(start)
        return strict_interior(rows, nvars, start)

    # strict_interior looks cold_start up in ratlp, so a cold solve
    # without a start is counted too
    monkeypatch.setattr(ratlp, "cold_start", counting_cold_start)
    monkeypatch.setattr(ratlp, "strict_interior", recording_strict_interior)
    rs = lc.build_root_system(factors)
    module = lc.highest_roots(rs) if module == "adjoint" else [lc.highest_short_root(rs)]
    arr.enumerate_regions(rs, arr.chamber_hyperplanes(lc.weight_system(rs, module)))
    assert len(starts) == lps
    assert len(colds) == 1 and starts[0] is colds[0]
    assert all(s is not None and s is not colds[0] for s in starts[1:])


@pytest.mark.parametrize(
    "factors,module,pivots",
    [
        pytest.param([("A", 4)], "adjoint", 80, id="A4-adjoint"),
        pytest.param([("F", 4)], "little", 49, id="F4-little"),
    ],
)
def test_enumeration_pivots_and_no_artificial_enters(monkeypatch, factors, module, pivots):
    # a sign row that holds at its parent's vertex enters with its surplus
    # basic and costs no pivot, and no pivot brings in an artificial column
    entering = []
    pivot = ratlp._pivot

    def recording_pivot(rows, basis, slots, r, col, obj):
        entering.append((col, 2 * len(slots) + len(rows)))
        return pivot(rows, basis, slots, r, col, obj)

    monkeypatch.setattr(ratlp, "_pivot", recording_pivot)
    rs = lc.build_root_system(factors)
    module = lc.highest_roots(rs) if module == "adjoint" else [lc.highest_short_root(rs)]
    arr.enumerate_regions(rs, arr.chamber_hyperplanes(lc.weight_system(rs, module)))
    assert len(entering) == pivots
    assert all(col < first_artificial for col, first_artificial in entering)


def test_each_sign_row_is_integralized_once(monkeypatch):
    # the root integralizes the rank chamber rows, and the warm starts below
    # it share one table of sign rows, at most two per hyperplane
    rows = []
    integral = ratlp.integral

    def counting(row):
        rows.append(tuple(row))
        return integral(row)

    monkeypatch.setattr(ratlp, "integral", counting)
    rs = lc.build_root_system([("F", 4)])
    hps = arr.chamber_hyperplanes(_adjoint_ws([("F", 4)]))
    assert len(arr.enumerate_regions(rs, hps)) == 105
    assert len(rows) <= 2 * len(hps) + rs.rank + 1
    assert len(rows) == len(set(rows))


def _region_digest(regions, rows):
    """A short digest of the ids, sign vectors, witnesses and closure rows."""
    text = "\n".join(
        f"{r.id} {r.signs} {','.join(map(str, r.witness))} "
        + ";".join(f"{','.join(map(str, n))}>={b}" for n, b in closure)
        for r, closure in zip(regions, rows)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "factors,module,digest",
    [
        pytest.param([("A", 4)], "adjoint", "2c4da9382bc2eee7", id="A4-adjoint"),
        pytest.param([("B", 3)], "adjoint", "a3800ef94c62d767", id="B3-adjoint"),
        pytest.param([("C", 3)], "adjoint", "6986f22557c72aa2", id="C3-adjoint"),
        pytest.param([("F", 4)], "adjoint", "51154c5acd207a4f", id="F4-adjoint"),
        pytest.param([("F", 4)], "little", "cf6484640ea298e3", id="F4-little"),
    ],
)
def test_regions_keep_their_recorded_witnesses_and_rows(factors, module, digest):
    # recorded from the enumeration that checked every point against every
    # row and integralized every sign row anew for each LP
    rs = lc.build_root_system(factors)
    spec = lc.highest_roots(rs) if module == "adjoint" else [lc.highest_short_root(rs)]
    hps = arr.chamber_hyperplanes(lc.weight_system(rs, spec))
    regions = arr.enumerate_regions(rs, hps)
    assert _region_digest(regions, closure_rows(rs, hps, regions)) == digest


# sha256 of the bytes `orbitchar regions --type <T>` writes: the enumeration
# may take other pivots, but not reach other regions, witnesses or rows
_REGIONS_FILE_SHA256 = {"F4": "c26784dc6d5a8a6d12c79df9fe868124bf560c94d66a8d7b9875b95f0d3aec48"}
if LARGE:
    _REGIONS_FILE_SHA256["E6"] = "8489bf4f86a1bff33656fde4c9a654dd7756bd3e9a96d760065a54b0dec485b7"
    _REGIONS_FILE_SHA256["E7"] = "8d035981f1f268aa4dfb39170c509c037af8a22c9748a422f6123663c931b2b1"


@pytest.mark.parametrize("name", _REGIONS_FILE_SHA256)
def test_regions_file_keeps_its_recorded_bytes(tmp_path, name):
    out = tmp_path / "regions.json"
    assert main(["regions", "--type", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REGIONS_FILE_SHA256[name]


def test_warm_witnesses_are_the_same_on_every_run():
    # the depth-first order and Bland's rule fix the path of every LP
    rs = lc.build_root_system([("A", 5)])
    hps = arr.chamber_hyperplanes(_adjoint_ws([("A", 5)]))
    assert arr.enumerate_regions(rs, hps) == arr.enumerate_regions(rs, hps)


def test_no_hyperplanes_one_region_at_the_chamber_witness():
    rs = lc.build_root_system([("B", 2)])
    (region,) = arr.enumerate_regions(rs, [])
    cold, (cold_rows,) = _cold_enumeration_reference(rs, [])
    assert region == cold[0]
    assert region.signs == "" and closure_rows(rs, [], [region]) == [cold_rows]


def test_region_weights_refuse_a_mismatched_hyperplane_list():
    ws = _example_ws()
    hps = arr.chamber_hyperplanes(ws)
    region = arr.enumerate_regions(ws.root_system, hps)[0]
    for wrong in (hps[:-1], hps + hps[:1], []):
        with pytest.raises(ValueError, match="hyperplanes for 4 signs"):
            arr.region_weights(wrong, region)


@pytest.mark.parametrize(
    "factors,module",
    [
        ([("A", 1), ("A", 1)], "example"),
        ([("A", 2)], "adjoint"),
        ([("A", 3)], "adjoint"),
        ([("B", 2)], "little"),
        ([("G", 2)], "little"),
    ],
)
def test_region_supports_saturated(factors, module):
    rs = lc.build_root_system(factors)
    if module == "example":
        ws = lc.weight_system(rs, [(1, 1), (1, 0)])
    elif module == "adjoint":
        ws = lc.weight_system(rs, list(lc.highest_roots(rs)))
    else:
        ws = lc.weight_system(rs, [lc.highest_short_root(rs)])
    hps = arr.chamber_hyperplanes(ws)
    regions = arr.enumerate_regions(rs, hps)
    for r in regions:
        assert arr.is_saturated(ws, arr.region_weights(hps, r))


# the types of tests/test_liecore.py
_TYPES = _WEIGHT_POOL + [
    [(s, r)]
    for s, r in [("A", 5), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
] + [[("A", 2), ("B", 2)], [("B", 2), ("G", 2)], [("G", 2), ("A", 3), ("C", 2)]]


def _hyperplane_modules():
    """Adjoint modules of every type, little-adjoint ones of the simple
    types with two root lengths, the rho module of every type up to rank 3,
    and example-2x3."""
    for factors in _TYPES:
        rs = lc.build_root_system(factors)
        yield str(factors), lc.weight_system(rs, list(lc.highest_roots(rs)))
        if len(factors) == 1 and factors[0][0] in "BCFG":
            yield f"little {factors}", lc.weight_system(rs, [lc.highest_short_root(rs)])
        if rs.rank <= 3:
            yield f"rho {factors}", lc.weight_system(rs, [(1,) * rs.rank])
    yield "example-2x3", _example_ws()


@pytest.mark.parametrize("level", [Q(2), Q(3, 2)], ids=str)
def test_hyperplanes_keep_the_simple_root_coordinate_rule(level):
    # the integer sign test picks the weights with a positive simple-root
    # coordinate, in sorted order
    for name, ws in _hyperplane_modules():
        rs = ws.root_system
        want = [mu for mu in sorted(ws.entries) if any(c > 0 for c in rs.root_coords(mu))]
        hps = arr.chamber_hyperplanes(ws, level)
        assert [h.weight for h in hps] == want, name
        assert all(h.level == level for h in hps)


def test_little_adjoint_hyperplanes_are_positive_short_roots():
    for factors in [[("B", 2)], [("C", 3)], [("G", 2)]]:
        rs = lc.build_root_system(factors)
        ws = lc.weight_system(rs, [lc.highest_short_root(rs)])
        hps = arr.chamber_hyperplanes(ws)
        shorts = sorted(r for r in rs.positive_roots if rs.is_short_root(r))
        assert [h.weight for h in hps] == shorts
