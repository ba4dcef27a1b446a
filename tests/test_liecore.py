"""Root system construction, weight systems, and the invariant form."""

import itertools
import random
from fractions import Fraction as Q

import pytest
from conftest import fraction_labels

from orbitchar import liecore as lc
from orbitchar import linalg
from orbitchar.verify import _WEIGHT_POOL


def test_a2_build():
    rs = lc.build_root_system([("A", 2)])
    assert len(rs.positive_roots) == 3
    assert rs.cartan == ((2, -1), (-1, 2))


def test_a1xa1_build():
    rs = lc.build_root_system([("A", 1), ("A", 1)])
    assert len(rs.positive_roots) == 2
    assert rs.cartan == ((2, 0), (0, 2))


def test_g2_build():
    rs = lc.build_root_system([("G", 2)])
    assert len(rs.positive_roots) == 6
    lengths = sorted({rs.root_length_sq(r) for r in rs.positive_roots})
    assert lengths == [Q(2, 3), Q(2)]


@pytest.mark.parametrize(
    "factors,count",
    [
        ([("A", 1)], 1),
        ([("A", 3)], 6),
        ([("A", 5)], 15),
        ([("B", 2)], 4),
        ([("B", 3)], 9),
        ([("B", 4)], 16),
        ([("C", 3)], 9),
        ([("C", 4)], 16),
        ([("D", 4)], 12),
        ([("D", 5)], 20),
        ([("E", 6)], 36),
        ([("E", 7)], 63),
        ([("E", 8)], 120),
        ([("F", 4)], 24),
        ([("G", 2)], 6),
        ([("A", 2), ("B", 2)], 7),
    ],
)
def test_positive_root_counts(factors, count):
    rs = lc.build_root_system(factors)
    assert len(rs.positive_roots) == count


def test_cartan_sign_pattern():
    for factors in [[("B", 3)], [("C", 3)], [("F", 4)], [("G", 2)], [("D", 4)]]:
        rs = lc.build_root_system(factors)
        for i, row in enumerate(rs.cartan):
            assert row[i] == 2
            assert all(row[j] <= 0 for j in range(rs.rank) if j != i)


def test_block_diagonal_product():
    rs = lc.build_root_system([("A", 2), ("G", 2)])
    for i in range(2):
        for j in range(2, 4):
            assert rs.cartan[i][j] == 0 and rs.cartan[j][i] == 0
    # every root is supported on a single factor
    for rc in rs.positive_root_coords:
        assert not (any(rc[:2]) and any(rc[2:]))


@pytest.mark.parametrize(
    "factors,rank",
    [([("B", 1)], 1), ([("C", 1)], 1), ([("E", 5)], 5), ([("F", 3)], 3), ([("G", 3)], 3)],
)
def test_invalid_series_rank(factors, rank):
    with pytest.raises(ValueError):
        lc.build_root_system(factors)


def test_weight_system_names_a_weight_of_the_wrong_length():
    rs = lc.build_root_system([("A", 2)])
    with pytest.raises(ValueError, match=r"^weight \(1, 0, 0\) has 3 entries, but the rank is 2$"):
        lc.weight_system(rs, [(1, 1), (1, 0, 0)])


_WALK_TYPES = _WEIGHT_POOL + [
    [("D", 4)],
    [("D", 5)],
    [("D", 6)],
    [("E", 6)],
    [("E", 7)],
    [("E", 8)],
    [("B", 2), ("G", 2)],
    [("G", 2), ("A", 3), ("C", 2)],
]


@pytest.mark.parametrize("factors", _WALK_TYPES, ids=str)
def test_positive_roots_against_the_weyl_orbits_of_the_simple_roots(factors):
    # every root is Weyl-conjugate to a simple root, whose weight is a Cartan row
    rs = lc.build_root_system(factors)
    roots = set()
    for row in rs.cartan:
        roots.update(rs.weyl_orbit(row))
    positive = set(rs.positive_roots)
    assert len(positive) == len(rs.positive_roots)
    assert positive | {tuple(-m for m in r) for r in positive} == roots
    for fw, rc in zip(rs.positive_roots, rs.positive_root_coords):
        assert min(rc) >= 0
        assert tuple(sum(b * row[j] for b, row in zip(rc, rs.cartan)) for j in range(rs.rank)) == fw
    keys = [(sum(rc), rc) for rc in rs.positive_root_coords]
    assert keys == sorted(set(keys))


def test_weyl_dim_frozen_values():
    a2 = lc.build_root_system([("A", 2)])
    assert lc.weyl_dim(a2, (1, 1)) == 8
    a1 = lc.build_root_system([("A", 1)])
    assert lc.weyl_dim(a1, (1,)) == 2
    g2 = lc.build_root_system([("G", 2)])
    assert lc.weyl_dim(g2, lc.highest_short_root(g2)) == 7


def test_weyl_dim_rejects_non_dominant():
    a2 = lc.build_root_system([("A", 2)])
    with pytest.raises(ValueError):
        lc.weyl_dim(a2, (1, -1))


def test_example_module_weights():
    rs = lc.build_root_system([("A", 1), ("A", 1)])
    ws = lc.weight_system(rs, [(1, 1), (1, 0)])
    assert ws.zero_mult == 0
    assert dict(ws.entries) == {
        (1, 1): 1,
        (1, -1): 1,
        (-1, 1): 1,
        (-1, -1): 1,
        (1, 0): 1,
        (-1, 0): 1,
    }


def test_adjoint_a2_weights():
    rs = lc.build_root_system([("A", 2)])
    ws = lc.weight_system(rs, [(1, 1)])
    assert ws.zero_mult == 2
    roots = set(rs.positive_roots)
    negatives = {tuple(-m for m in r) for r in roots}
    assert set(ws.entries) == roots | negatives
    assert all(m == 1 for m in ws.entries.values())


@pytest.mark.parametrize("factors", [[("B", 2)], [("C", 3)], [("G", 2)]])
def test_little_adjoint_weights_are_short_roots(factors):
    rs = lc.build_root_system(factors)
    ws = lc.weight_system(rs, [lc.highest_short_root(rs)])
    shorts = {r for r in rs.positive_roots if rs.is_short_root(r)}
    shorts |= {tuple(-m for m in r) for r in shorts}
    assert set(ws.entries) == shorts
    assert all(m == 1 for m in ws.entries.values())


def test_multiplicity_constant_on_weyl_orbits():
    rs = lc.build_root_system([("B", 2)])
    ws = lc.weight_system(rs, [(1, 1)])
    for mu, m in ws.entries.items():
        for w in rs.weyl_orbit(mu):
            if any(w):
                assert ws.entries[w] == m


def _random_spec(rng, rs):
    k = rng.randint(1, 2)
    out = []
    for _ in range(k):
        out.append(tuple(rng.randint(0, 2) for _ in range(rs.rank)))
    return out


def test_dimension_matches_weyl_formula():
    rng = random.Random(20260817)
    systems = [
        [("A", 2)],
        [("A", 3)],
        [("B", 2)],
        [("B", 3)],
        [("C", 3)],
        [("G", 2)],
        [("A", 1), ("A", 2)],
        [("A", 1), ("B", 2)],
    ]
    for factors in systems:
        rs = lc.build_root_system(factors)
        for _ in range(3):
            spec = _random_spec(rng, rs)
            ws = lc.weight_system(rs, spec)
            assert ws.dim() == sum(lc.weyl_dim(rs, lam) for lam in spec)


def test_pairing_frozen_and_bilinear():
    assert lc.pairing((1, 0), tuple(Q(v) for v in (2, 4))) == 2
    rng = random.Random(7)
    for _ in range(20):
        mu = tuple(rng.randint(-3, 3) for _ in range(3))
        nu = tuple(rng.randint(-3, 3) for _ in range(3))
        h = tuple(Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        g = tuple(Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        q = Q(rng.randint(-9, 9), rng.randint(1, 9))
        both = tuple(a + b for a, b in zip(mu, nu))
        assert lc.pairing(both, h) == lc.pairing(mu, h) + lc.pairing(nu, h)
        scaled = tuple(q * a for a in h)
        hg = tuple(a + b for a, b in zip(h, g))
        assert lc.pairing(mu, scaled) == q * lc.pairing(mu, h)
        assert lc.pairing(mu, hg) == lc.pairing(mu, h) + lc.pairing(mu, g)


def test_dynkin_labels_frozen():
    a2 = lc.build_root_system([("A", 2)])
    assert lc.dynkin_labels(a2, tuple(Q(v) for v in (2, 2))) == (2, 2)
    aa = lc.build_root_system([("A", 1), ("A", 1)])
    assert lc.dynkin_labels(aa, tuple(Q(v) for v in (2, 4))) == (4, 8)


@pytest.mark.parametrize(
    "factors",
    [[("A", 4)], [("B", 3)], [("C", 3)], [("G", 2)], [("F", 4)], [("A", 1), ("A", 1)]],
    ids=["A4", "B3", "C3", "G2", "F4", "A1xA1"],
)
def test_dynkin_labels_match_the_fraction_sum(factors):
    # one Fraction per label from the point read once as ints; int, Fraction
    # and mixed points, zero and negative entries included
    rs = lc.build_root_system(factors)
    rng = random.Random(40)
    n = rs.rank
    points = [(0,) * n, tuple(-k - 1 for k in range(n)), tuple(Q(-k, 3) for k in range(n))]
    for _ in range(25):
        ints = tuple(rng.randint(-9, 9) for _ in range(n))
        fracs = tuple(Q(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
        points += [ints, fracs, tuple(rng.choice(pair) for pair in zip(ints, fracs))]
    for h in points:
        labels = lc.dynkin_labels(rs, h)
        assert labels == fraction_labels(rs, h), h
        assert all(type(v) is Q for v in labels), h


def test_dynkin_labels_of_a_float_point_are_exact():
    # a float entry goes through Fraction, so the labels are the exact
    # values of the binary floats, not float sums
    a2 = lc.build_root_system([("A", 2)])
    labels = lc.dynkin_labels(a2, (0.1, 0.5))
    assert labels == (2 * Q(0.1) - Q(1, 2), 1 - Q(0.1))
    assert all(type(v) is Q for v in labels)


def test_dominance_iff_labels_nonnegative():
    rs = lc.build_root_system([("G", 2)])
    assert lc.dynkin_labels(rs, tuple(Q(v) for v in (3, 5))) == (1, 1)
    assert lc.is_dominant(rs, tuple(Q(v) for v in (3, 5)))
    assert not lc.is_dominant(rs, tuple(Q(v) for v in (1, 1)))
    assert not lc.is_dominant(rs, tuple(Q(v) for v in (-1, 2)))


@pytest.mark.parametrize("factors", [[("A", 2)], [("A", 1), ("A", 1)]], ids=["A2", "A1xA1"])
def test_point_functions_refuse_a_point_of_the_wrong_length(factors):
    # a rank-2 point has two entries: a short or a long one is refused, as
    # pairing refuses it, and is not read over the shorter length
    rs = lc.build_root_system(factors)
    form = lc.invariant_form(rs)
    for h in [(1,), (Q(1, 2),), (1, 2, 3), (0, 0, 0)]:
        for call in (
            lambda: lc.dynkin_labels(rs, h),
            lambda: lc.is_dominant(rs, h),
            lambda: lc.norm_sq(form, h),
            lambda: lc.pairing((1, 1), h),
        ):
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                call()
    assert lc.dynkin_labels(rs, (1, 2)) == tuple(lc.pairing(row, (1, 2)) for row in rs.cartan)
    assert lc.is_dominant(rs, (1, 2)) and lc.norm_sq(form, (0, 0)) == 0


def test_invariant_form_frozen_values():
    aa = lc.build_root_system([("A", 1), ("A", 1)])
    assert lc.invariant_form(aa).gram == ((2, 0), (0, 2))
    a2 = lc.build_root_system([("A", 2)])
    assert lc.invariant_form(a2).gram == ((2, -1), (-1, 2))


def _leading_minors_positive(gram):
    n = len(gram)
    for k in range(1, n + 1):
        sub = [list(row[:k]) for row in gram[:k]]
        det = _det(sub)
        if det <= 0:
            return False
    return True


def _det(a):
    n = len(a)
    a = [[Q(x) for x in row] for row in a]
    det = Q(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Q(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Q(1) / a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


@pytest.mark.parametrize(
    "factors", [[("A", 3)], [("B", 3)], [("C", 3)], [("F", 4)], [("G", 2)], [("A", 1), ("B", 2)]]
)
def test_form_positive_definite_and_reflection_invariant(factors):
    rs = lc.build_root_system(factors)
    form = lc.invariant_form(rs)
    assert _leading_minors_positive(form.gram)
    # s_i acts on coroot coordinates as a -> a - (C a)_i e_i
    g = [list(row) for row in form.gram]
    n = rs.rank
    for i in range(n):
        s = [[Q(1) if r == c else Q(0) for c in range(n)] for r in range(n)]
        for c in range(n):
            s[i][c] -= Q(rs.cartan[i][c])
        from orbitchar.linalg import matmul, transpose

        back = matmul(transpose(s), matmul(g, s))
        assert [[Q(x) for x in row] for row in back] == [list(row) for row in g]


def test_factor_scales():
    aa = lc.build_root_system([("A", 1), ("A", 1)])
    form = lc.invariant_form(aa, [Q(1), Q(3, 2)])
    assert form.gram == ((2, 0), (0, 3))
    with pytest.raises(ValueError):
        lc.invariant_form(aa, [Q(1)])
    with pytest.raises(ValueError):
        lc.invariant_form(aa, [Q(1), Q(-1)])


def test_norm_sq():
    aa = lc.build_root_system([("A", 1), ("A", 1)])
    form = lc.invariant_form(aa)
    assert lc.norm_sq(form, tuple(Q(v) for v in (2, 4))) == 40


def test_highest_roots():
    rs = lc.build_root_system([("A", 2)])
    assert lc.highest_roots(rs) == ((1, 1),)
    aa = lc.build_root_system([("A", 1), ("A", 1)])
    assert lc.highest_roots(aa) == ((2, 0), (0, 2))
    with pytest.raises(ValueError):
        lc.highest_short_root(rs)


def _box_reference(rs, lam):
    """Dominant weights below lam by walking the whole box of root
    coordinates of lam - w0 lam: (height of lam - mu, mu), sorted."""
    low = tuple(lam)
    while any(m > 0 for m in low):
        low = rs.reflect_weight(low, next(k for k, m in enumerate(low) if m > 0))
    span = [m - l for m, l in zip(lam, low)]
    cmax = linalg.solve(linalg.transpose(rs.cartan), span)
    assert all(c.denominator == 1 and c >= 0 for c in cmax)
    out = []
    for c in itertools.product(*(range(int(ci) + 1) for ci in cmax)):
        mu = list(lam)
        for i, ci in enumerate(c):
            for j, entry in enumerate(rs.cartan[i]):
                mu[j] -= ci * entry
        if all(m >= 0 for m in mu):
            out.append((sum(c), tuple(mu)))
    return sorted(out)


_REFERENCE_TYPES = _WEIGHT_POOL + [[("D", 4)], [("B", 4)], [("C", 4)]]


@pytest.mark.parametrize("factors", _REFERENCE_TYPES, ids=str)
def test_dominant_weight_walk_matches_the_box(factors):
    rs = lc.build_root_system(factors)
    rng = random.Random(20261018)
    # the box grows fast with rank: entries up to 1 keep rank 4 quick
    cap = 1 if rs.rank >= 4 else 3
    lams = {tuple(rng.randint(0, cap) for _ in range(rs.rank)) for _ in range(4)}
    lams |= set(lc.highest_roots(rs))
    for lam in sorted(lams):
        assert lc._dominant_weights_below(rs, lam) == _box_reference(rs, lam)


def test_dominant_weight_walk_matches_the_box_on_e6():
    rs = lc.build_root_system([("E", 6)])
    # the highest root and the fundamental weights off the branch node (the
    # box of the branch node's weight alone takes about a second)
    lams = set(lc.highest_roots(rs))
    lams |= {tuple(int(i == k) for i in range(6)) for k in (0, 1, 3, 4, 5)}
    for lam in sorted(lams):
        got = lc._dominant_weights_below(rs, lam)
        assert got == _box_reference(rs, lam)
        assert got[0] == (0, lam)


def _bfs_orbit_reference(rs, mu):
    """The Weyl orbit by breadth-first search over all simple reflections."""
    seen = {tuple(mu)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                r = rs.reflect_weight(w, i)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return tuple(sorted(seen))


@pytest.mark.parametrize("factors", _WEIGHT_POOL + [[("E", 6)]], ids=str)
def test_weyl_orbit_walk_matches_the_search(factors):
    rs = lc.build_root_system(factors)
    rng = random.Random(7)
    # dominant weights, the highest roots, and non-dominant starting points
    mus = {tuple(rng.randint(0, 2) for _ in range(rs.rank)) for _ in range(3)}
    mus |= {tuple(rng.randint(-2, 2) for _ in range(rs.rank)) for _ in range(3)}
    mus |= set(lc.highest_roots(rs))
    for mu in sorted(mus):
        got = rs.weyl_orbit(mu)
        assert got == _bfs_orbit_reference(rs, mu)
        assert len(set(got)) == len(got)


@pytest.mark.parametrize("series,rank,dim", [("E", 6, 78), ("E", 7, 133), ("E", 8, 248)])
def test_exceptional_adjoint_modules(series, rank, dim):
    rs = lc.build_root_system([(series, rank)])
    (theta,) = lc.highest_roots(rs)
    ws = lc.weight_system(rs, [theta])
    assert ws.dim() == dim == lc.weyl_dim(rs, theta)
    assert ws.zero_mult == rank
    roots = set(rs.positive_roots)
    assert set(ws.entries) == roots | {tuple(-m for m in r) for r in roots}
    assert all(m == 1 for m in ws.entries.values())


def _root_coords_reference(rs, mu):
    """b with C^T b = fw(mu), by Fraction Gauss-Jordan elimination."""
    n = rs.rank
    a = [[Q(rs.cartan[j][i]) for j in range(n)] + [Q(mu[i])] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[col])]
    return tuple(row[n] for row in a)


@pytest.mark.parametrize("factors", _WEIGHT_POOL, ids=str)
def test_root_coords_and_weight_form_against_fraction_reference(factors):
    rs = lc.build_root_system(factors)
    rng = random.Random(4)
    weights = [tuple(rng.randint(-4, 4) for _ in range(rs.rank)) for _ in range(12)]
    half = [l / 2 for l in rs.root_lengths]
    for mu in weights:
        b = rs.root_coords(mu)
        assert all(type(x) is Q for x in b)
        assert b == _root_coords_reference(rs, mu)
        assert tuple(sum(x * row[j] for x, row in zip(b, rs.cartan)) for j in range(rs.rank)) == mu
        for nu in weights:
            form = rs.weight_form(mu, nu)
            assert type(form) is Q and form == rs.weight_form(nu, mu)
            ref = _root_coords_reference(rs, nu)
            assert form == sum(m * h * c for m, h, c in zip(mu, half, ref))
    for fw, rc in zip(rs.positive_roots, rs.positive_root_coords):
        assert rs.root_coords(fw) == rc
    # the highest root of every factor is long, of squared length 2
    assert max(rs.root_length_sq(r) for r in rs.positive_roots) == 2
    assert all(rs.root_length_sq(theta) == 2 for theta in lc.highest_roots(rs))


def _split_block(m):
    """The scaling of a square rational matrix the form, Gram and inverse
    Hessian each did by hand before linalg.integral_matrix: one integral of
    all entries, split back into rows."""
    n = len(m)
    ints, scale = linalg.integral([v for row in m for v in row])
    return [ints[i : i + n] for i in range(0, len(ints), n)], scale


# every type this file builds
_ALL_TYPES = _WALK_TYPES + [[("A", 5)], [("B", 4)], [("C", 4)], [("A", 2), ("B", 2)]]


@pytest.mark.parametrize("factors", _ALL_TYPES, ids=str)
def test_integral_matrices_match_the_split_block(factors):
    rs = lc.build_root_system(factors)
    m = linalg.inverse(linalg.transpose(rs.cartan))
    assert rs.form_matrix == _split_block(
        [[l / 2 * x for x in row] for l, row in zip(rs.root_lengths, m)]
    )
    for scales in (None, [Q(k + 1, k + 3) for k in range(len(factors))]):
        form = lc.invariant_form(rs, scales)
        gram = form.integral_gram
        assert gram == _split_block(form.gram)
        assert form.integral_inverse_hessian == _split_block(
            linalg.inverse([[2 * v for v in row] for row in gram[0]])
        )
