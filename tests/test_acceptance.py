"""Acceptance battery: the eight headline checks, one pass/fail line each.

Every check runs the full pipeline against an independent oracle, and its
PASS line must read as recorded below.  The Dynkin and theorem checks run
sl2-sl6; sl7 and sl8 (about 10 s more together) join when the environment
variable ORBITCHAR_LARGE=1 is set, and A6, A7, B5 and E6 join the W-Catalan
check (about 2 s more).
"""

from conftest import LARGE

from orbitchar import verify


def _report(criterion: str, rows, details) -> None:
    ok = all(r.ok for r in rows)
    flag = "PASS" if ok else "FAIL"
    detail = "; ".join(f"{r.name}: {r.detail}" for r in rows)
    print(f"[{flag}] criterion {criterion}: {detail}")
    assert ok, detail
    assert [r.detail for r in rows] == details


_DYNKIN_NS = (2, 3, 4, 5, 6) + ((7, 8) if LARGE else ())


_PARTITION_COUNTS = {2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def test_criterion_1_example_end_to_end():
    rows = verify.run_example()
    _report(
        "1 (paper example end-to-end)",
        rows,
        ["4 hyperplanes, 6 regions, membership sets and characteristics match"],
    )
    assert rows[0].seconds < 1.0, f"example took {rows[0].seconds:.2f}s (limit 1s)"


def test_criterion_2_dynkin_oracle_equivalence():
    rows = verify.run_dynkin(_DYNKIN_NS)
    details = [
        f"{_PARTITION_COUNTS[n]} partitions of {n} match the classical diagrams"
        for n in _DYNKIN_NS
    ]
    _report("2 (weighted-Dynkin oracle equivalence)", rows, details)
    sl5 = next(r for r in rows if r.name == "dynkin sl5")
    assert sl5.seconds < 60.0, f"sl5 took {sl5.seconds:.2f}s (limit 60s)"


def test_criterion_3_injectivity_and_mode_agreement():
    rows = verify.run_theorem(_DYNKIN_NS)
    orbits = sum(_PARTITION_COUNTS[n] for n in _DYNKIN_NS)
    details = [f"characteristics injective and mode-independent over {orbits} orbits"]
    _report("3 (injectivity and dense/nonempty agreement)", rows, details)


def test_criterion_4_region_sampling_oracle():
    rows = verify.run_sampling()
    details = [
        f"10000 chamber points each matched exactly one of {regions} regions "
        f"({rejected} on-hyperplane draws rejected)"
        for regions, rejected in ((6, 50), (5, 54), (14, 91), (3, 37), (4, 36))
    ]
    _report("4 (region enumeration vs chamber sampling)", rows, details)


def test_criterion_5_minnorm_oracle():
    rows = verify.run_minnorm()
    details = [
        "100 polyhedra: KKT certified, 1000 feasible samples each never beat "
        "the minimizer, which is the one KKT point of an exact active-set enumeration; "
        "20 planted empty: refused, with no KKT point"
    ]
    _report("5 (min-norm vs sampling and exact enumeration)", rows, details)


def test_criterion_6_weight_system_cross_check():
    rows = verify.run_weights()
    details = [
        "20 random modules, multiplicity sums equal Weyl dimensions (largest dim 362121760)",
        "nonzero weights equal the short roots for B2, C3, F4, G2",
    ]
    _report("6 (multiplicity sums and little-adjoint support)", rows, details)


def test_criterion_7_structural_lemma():
    rows = verify.run_lemma()
    details = [
        "all 32 region supports saturated across 5 arrangements",
        "227 bracket checks stayed inside their subspaces; 19 sampled elements nilpotent",
        "the exact strata of all 61 regions of sl3-sl5 dominate three random elements "
        "each, and one of the three attains them",
    ]
    _report("7 (saturation, b-stability, nilpotency, strata)", rows, details)


def test_criterion_8_w_catalan_region_counts():
    large = ("A6", "A7", "B5", "E6") if LARGE else ()
    rows = verify.run_catalan(verify.CATALAN_TYPES + large)
    names = ", ".join(["A1, A2, A3, A4, B2, B3, B4, C3, C4, D4, G2, F4", *large])
    details = [f"adjoint region counts of {names} equal prod (h+e+1)/(e+1) over the exponents"]
    _report("8 (adjoint region counts against the W-Catalan number)", rows, details)
