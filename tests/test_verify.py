"""The integer sampler and norm test behind the minnorm verification battery,
the exponents and counts behind the catalan battery, and a planted wrong
answer that each battery reports as a FAIL row."""

import random
import re
from dataclasses import replace
from fractions import Fraction as Q
from functools import partial
from pathlib import Path

import pytest

import orbitchar
from orbitchar import linalg, orbits, verify
from orbitchar.arrangement import region_weights
from orbitchar.liecore import build_root_system, highest_roots, invariant_form, norm_sq
from orbitchar.minnorm import MinNormResult, Polyhedron


def _value(normal, point):
    return sum((Q(a) * x for a, x in zip(normal, point)), Q(0))


def test_feasible_samples_are_exact_and_tight_when_cut_short():
    rng = random.Random(5)
    cut_short = 0
    for _ in range(40):
        _, interior, poly, _ = verify._random_instance(rng)
        draw = verify._feasible_sampler(interior, poly)
        for _ in range(50):
            nums, den, (g, d) = draw(rng)
            point = tuple(Q(x, den) for x in nums)
            assert linalg.satisfies(poly.integral_rows, nums, den)
            assert 0 <= Q(g, d) <= 1
            if g < d:
                cut_short += 1
                assert any(_value(normal, point) == bound for normal, bound in poly.rows)
    assert cut_short > 100


def test_samples_match_the_fraction_construction():
    rng = random.Random(6)
    for _ in range(20):
        dim, interior, poly, _ = verify._random_instance(rng)
        draw = verify._feasible_sampler(interior, poly)
        for _ in range(20):
            state = rng.getstate()
            nums, den, (g, d) = draw(rng)
            rng.setstate(state)
            target = tuple(Q(rng.randint(-600, 600), 100) for _ in range(dim))
            t_max = Q(1)
            for normal, bound in poly.rows:
                drop = _value(normal, interior) - _value(normal, target)
                if drop > 0:
                    t_max = min(t_max, (_value(normal, interior) - bound) / drop)
            assert Q(g, d) == t_max
            assert tuple(Q(x, den) for x in nums) == tuple(
                p + t_max * (q - p) for p, q in zip(interior, target)
            )


def test_norm_below_agrees_with_norm_sq():
    rng = random.Random(7)
    for _ in range(30):
        _, interior, poly, form = verify._random_instance(rng)
        draw = verify._feasible_sampler(interior, poly)
        points = [draw(rng)[:2] for _ in range(20)]
        for nums, den in points:
            value = norm_sq(form, tuple(Q(x, den) for x in nums))
            for bound in (value, value + Q(1, 10**6), value - Q(1, 10**6)):
                below = verify._norm_below(form, bound)
                assert below(nums, den) == (value < bound)


def test_the_reference_refuses_a_polyhedron_without_a_kkt_point():
    # x >= 1 and -x >= 0 meet nowhere, so no candidate active set passes
    poly = Polyhedron.from_rows([((1,), 1), ((-1,), 0)], 1)
    form = invariant_form(build_root_system([("A", 1)]))
    with pytest.raises(ValueError, match="^0 KKT points, not the one minimizer$"):
        verify.enumerated_minimum(poly, form)


def test_a_wrong_minimum_fails_the_battery_on_the_reference(monkeypatch):
    # the planted minimizer is each instance's interior point, feasible but
    # not least; the certificate check and the sampler accept anything, so
    # only the enumerated reference is left to catch it
    random_instance, interiors = verify._random_instance, []

    def recording(rng):
        instance = random_instance(rng)
        interiors.append(instance[1])
        return instance

    def planted(poly, form):
        point = interiors[-1]
        return MinNormResult(point, norm_sq(form, point), (), ())

    monkeypatch.setattr(verify, "_random_instance", recording)
    monkeypatch.setattr(verify, "min_norm_point", planted)
    monkeypatch.setattr(verify, "verify_kkt", lambda poly, form, res: None)
    monkeypatch.setattr(verify, "_norm_below", lambda form, value: lambda nums, den: False)
    [row] = verify.run_minnorm()
    assert not row.ok
    *problems, more = row.detail.split("; ")
    assert len(problems) == 4 and more == "(96 more)"
    pattern = r"instance \d+: minimizer \(.+\) is not the enumerated reference \(.+\)"
    assert all(re.fullmatch(pattern, p) for p in problems), problems


def _plant_doubled_characteristic(monkeypatch, when):
    """verify.characteristic with its point and labels doubled wherever
    when(orbit, mode) holds."""
    characteristic = verify.characteristic

    def doubled(analysis, orbit, mode="nonempty"):
        ch = characteristic(analysis, orbit, mode)
        if ch is None or not when(orbit, mode):
            return ch
        return replace(
            ch, point=tuple(2 * x for x in ch.point), labels=tuple(2 * x for x in ch.labels)
        )

    monkeypatch.setattr(verify, "characteristic", doubled)


@pytest.fixture
def fresh_tables():
    # each sl_n table is kept for the life of the process: one built before
    # the plant would hide it, and one built under it would stay planted
    verify._characteristic_table.cache_clear()
    yield
    verify._characteristic_table.cache_clear()


def test_example_battery_reports_a_wrong_characteristic(monkeypatch):
    _plant_doubled_characteristic(monkeypatch, lambda orbit, mode: True)
    [row] = verify.run_example()
    assert not row.ok
    assert row.detail == (
        "characteristic of O2: (4, 0) != (2, 0); characteristic of O3: (2, 2) != (1, 1); "
        "characteristic of O4: (4, 0) != (2, 0); characteristic of O5: (4, 8) != (2, 4)"
    )


def test_dynkin_battery_reports_wrong_labels(monkeypatch, fresh_tables):
    _plant_doubled_characteristic(monkeypatch, lambda orbit, mode: mode == "dense")
    [row] = verify.run_dynkin((3,))
    assert not row.ok
    assert row.detail == (
        "(3,): dense labels (4, 4) != (2, 2); (2, 1): dense labels (2, 2) != (1, 1)"
    )


def test_theorem_battery_reports_a_shared_point(monkeypatch, fresh_tables):
    # doubled, the subregular orbit's point is the regular orbit's
    _plant_doubled_characteristic(
        monkeypatch, lambda orbit, mode: orbit == (2, 1) and mode == "nonempty"
    )
    [row] = verify.run_theorem((3,))
    assert not row.ok
    assert row.detail == "sl3: (2, 1) and (3,) share point (2, 2); sl3: modes disagree at (2, 1)"


def test_sampling_battery_reports_an_unlisted_region(monkeypatch):
    named_arrangements = verify._named_arrangements

    def one_dropped():
        arrangements = named_arrangements()
        analysis = arrangements["A2 adjoint"]
        arrangements["A2 adjoint"] = replace(analysis, regions=analysis.regions[:-1])
        return arrangements

    monkeypatch.setattr(verify, "_named_arrangements", one_dropped)
    rows = verify.run_sampling()
    assert [r.name for r in rows if not r.ok] == ["sampling A2 adjoint"]
    assert rows[1].detail == "point (563/150, 529/150) has unlisted sign vector +++"


def test_weights_battery_reports_a_wrong_dimension_and_support(monkeypatch):
    weyl_dim = verify.weyl_dim
    monkeypatch.setattr(verify, "weyl_dim", lambda rs, lam: weyl_dim(rs, lam) + 1)
    monkeypatch.setattr(verify, "highest_short_root", lambda rs: highest_roots(rs)[0])
    dimension_sum, little_adjoint = verify.run_weights()
    assert not dimension_sum.ok and not little_adjoint.ok
    # a failing row shows its first four problems and counts the rest
    *problems, more = dimension_sum.detail.split("; ")
    assert len(problems) == 4 and more == "(16 more)"
    assert problems[0] == "[('A', 2), ('A', 1)] (0, 2, 0): sum 6 != dim 7"
    sums = [re.fullmatch(r".+: sum (\d+) != dim (\d+)", p).groups() for p in problems]
    assert all(int(total) + 1 == int(dim) for total, dim in sums)
    assert little_adjoint.detail == "; ".join(
        f"{name}: support != short roots" for name in ("B2", "C3", "F4", "G2")
    )


def _without(top, theta, hyperplanes, region):
    """region_weights, with theta taken out of the support of region top."""
    i_r = region_weights(hyperplanes, region)
    return i_r - {theta} if region is top else i_r


def test_lemma_battery_reports_an_unsaturated_support(monkeypatch):
    # the top region of A3 adjoint spans every positive root; without the
    # highest root its support is neither saturated nor b-stable
    named_arrangements = verify._named_arrangements

    def planted():
        arrangements = named_arrangements()
        analysis = arrangements["A3 adjoint"]
        top = analysis.regions[-1]
        theta = highest_roots(analysis.model.root_system)[0]
        monkeypatch.setattr(verify, "region_weights", partial(_without, top, theta))
        return arrangements

    monkeypatch.setattr(verify, "_named_arrangements", planted)
    saturation, stability, strata = verify.run_lemma()
    assert (saturation.ok, stability.ok, strata.ok) == (False, False, True)
    assert saturation.detail == "A3 adjoint region 14: support not saturated"
    # each pair of roots in the support is checked once, in one order
    brackets = ["(2, -1, 0),(-1, 1, 1)", "(1, 1, -1),(0, -1, 2)"]
    assert stability.detail == "; ".join(
        f"sl4 region 14: [{pair}] leaves the subspace at (1, 0, 1)" for pair in brackets
    )


def test_lemma_battery_reports_each_unstable_pair_once(monkeypatch):
    # the top region of A2 adjoint without the highest root keeps both
    # simple roots, whose bracket is the highest root
    named_arrangements = verify._named_arrangements

    def planted():
        arrangements = named_arrangements()
        analysis = arrangements["A2 adjoint"]
        top = analysis.regions[-1]
        theta = highest_roots(analysis.model.root_system)[0]
        monkeypatch.setattr(verify, "region_weights", partial(_without, top, theta))
        return arrangements

    monkeypatch.setattr(verify, "_named_arrangements", planted)
    _, stability, _ = verify.run_lemma()
    rid = named_arrangements()["A2 adjoint"].regions[-1].id
    assert stability.detail == f"sl3 region {rid}: [(2, -1),(-1, 2)] leaves the subspace at (1, 1)"


def test_lemma_battery_reports_a_wrong_stratum(monkeypatch):
    # the zero orbit as every stratum: the samples of a nonzero support lie above it
    monkeypatch.setattr(verify.AdjointSlModel, "generic_stratum", lambda self, i_r: self.zero_orbit)
    saturation, stability, strata = verify.run_lemma()
    assert (saturation.ok, stability.ok, strata.ok) == (True, True, False)
    samples = ["(2, 1), (2, 1), (2, 1)"] * 3 + ["(3,), (3,), (3,)"]
    assert strata.detail == "; ".join(
        [
            f"sl3 region {rid}: not every sample of [{types}] lies below (1, 1, 1)"
            for rid, types in zip((2, 3, 4, 5), samples)
        ]
        + ["(54 more)"]
    )


# the classical exponents of each simple type (Bourbaki, Lie Groups and Lie
# Algebras, ch. VI, plates I-IX), largest first
_EXPONENTS = {
    "A1": [1], "A4": [4, 3, 2, 1], "B3": [5, 3, 1], "C4": [7, 5, 3, 1],
    "D4": [5, 3, 3, 1], "D5": [7, 5, 4, 3, 1], "G2": [5, 1], "F4": [11, 7, 5, 1],
    "E6": [11, 8, 7, 5, 4, 1], "E7": [17, 13, 11, 9, 7, 5, 1],
    "E8": [29, 23, 19, 17, 13, 11, 7, 1],
}


def test_exponents_from_root_heights_are_the_classical_ones():
    for name, exps in _EXPONENTS.items():
        rs = build_root_system([(name[0], int(name[1:]))])
        assert verify.exponents(rs) == exps, name
    rs = build_root_system([("E", 8)])
    assert verify.w_catalan(rs) == 25080


def test_catalan_battery_reports_a_wrong_count(monkeypatch):
    # the battery counts regions with RegionAnalysis.build, which enumerates them in orbits
    enumerate_regions = orbits.enumerate_regions
    monkeypatch.setattr(orbits, "enumerate_regions", lambda rs, hps: enumerate_regions(rs, hps)[1:])
    rows = verify.run_catalan(("B2", "G2"))
    assert not rows[0].ok
    assert rows[0].detail == "B2: 5 regions != 6; G2: 7 regions != 8"


def test_run_suites_passes_the_largest_sl_n():
    rows = verify.run_suites(["dynkin", "example"], max_n=3)
    assert [r.name for r in rows] == ["dynkin sl2", "dynkin sl3", "example"]
    assert all(r.ok for r in rows)


def test_an_unknown_suite_is_refused_before_any_battery_runs(monkeypatch):
    monkeypatch.setattr(verify, "run_example", lambda: pytest.fail("a battery ran"))
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(["example", "nope"])


def test_the_package_reads_no_environment_variable():
    # sizes and options come from the callers, so that a run is fixed by its arguments
    package = Path(orbitchar.__file__).resolve().parent
    readers = [
        f"{path.name}:{k}"
        for path in sorted(package.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"environ|getenv", line)
    ]
    assert readers == []


@pytest.mark.parametrize("battery", ["run_dynkin", "run_theorem", "run_catalan"])
def test_a_battery_refuses_an_empty_size(battery):
    # an empty size would pass having checked nothing
    with pytest.raises(ValueError, match="battery needs at least one size"):
        getattr(verify, battery)(())


@pytest.mark.parametrize("max_n", [1, 0, -3])
def test_run_suites_refuses_a_max_n_below_2_before_any_battery_runs(monkeypatch, max_n):
    for battery in ("run_dynkin", "run_theorem"):
        monkeypatch.setattr(verify, battery, lambda ns: pytest.fail("a battery ran"))
    with pytest.raises(ValueError, match=rf"^max_n {max_n}: the largest sl_n must be at least 2$"):
        verify.run_suites(["dynkin", "theorem"], max_n=max_n)
