"""Hyperplane arrangements cut out by module weights inside the dominant chamber.

Every nonzero weight mu of the module that takes positive values somewhere
on the open dominant chamber contributes the affine hyperplane
{h : mu(h) = level} (level 2 by default).  The complement of the union of
these hyperplanes inside the open chamber splits into finitely many open
convex cells, each recorded with an exact interior witness and the
inequality rows of its closure.

A cell's sign vector states, per hyperplane in canonical order, whether the
cell lies above ('+', pairing > level) or below ('-').  Cells are sorted by
sign vector, below before above, and numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlp
from .liecore import Point, RootSystem, Weight, WeightSystem, pairing

Q = Fraction

IneqRow = tuple[tuple[int, ...], Q]


@dataclass(frozen=True)
class Hyperplane:
    """The locus {h : weight(h) = level}."""

    weight: Weight
    level: Q = Q(2)


@dataclass(frozen=True)
class Region:
    """An open cell of the arrangement inside the open dominant chamber.

    closure_ineqs lists rows (normal, bound) with the closure equal to
    {a : normal . a >= bound}; normals are in fundamental-weight coordinates
    so they pair with coroot coordinates by the dot product.
    """

    id: int
    signs: str
    witness: Point
    closure_ineqs: tuple[IneqRow, ...]


@dataclass(frozen=True)
class RegionSubspace:
    """Weights of the module strictly above the level across a region."""

    region_id: int
    i_r: frozenset[Weight]
    dimension: int


def chamber_hyperplanes(ws: WeightSystem, level=Q(2)) -> list[Hyperplane]:
    """Hyperplanes of module weights that meet the open dominant chamber.

    A weight meets the open chamber at positive values exactly when its
    simple-root coordinate vector has at least one positive entry.
    """
    level = Q(level)
    if level <= 0:
        raise ValueError("level must be positive")
    rs = ws.root_system
    keep = []
    for mu in sorted(ws.entries):
        if any(c > 0 for c in rs.root_coords(mu)):
            keep.append(Hyperplane(weight=mu, level=level))
    return keep


def _chamber_rows(rs: RootSystem) -> list[IneqRow]:
    return [(tuple(row), Q(0)) for row in rs.cartan]


def _sign_row(hp: Hyperplane, sign: str) -> IneqRow:
    if sign == "+":
        return (hp.weight, hp.level)
    return (tuple(-m for m in hp.weight), -hp.level)


def enumerate_regions(rs: RootSystem, hyperplanes, max_hyperplanes: int = 20) -> list[Region]:
    """All open cells of the arrangement, by depth-first sign assignment.

    Each candidate sign prefix is kept only while the corresponding strict
    system still has an interior point, certified by exact linear
    programming; complete sign vectors yield cells together with witnesses.
    """
    hyperplanes = list(hyperplanes)
    if len(hyperplanes) > max_hyperplanes:
        raise ValueError(
            f"{len(hyperplanes)} hyperplanes exceed the enumeration limit "
            f"{max_hyperplanes}; raise max_hyperplanes to proceed"
        )
    base = _chamber_rows(rs)
    found: list[tuple[str, Point, tuple[IneqRow, ...]]] = []

    start = ratlp.strict_interior(base, rs.rank)
    if start is None:
        raise RuntimeError("the open dominant chamber has no interior point")
    # An explicit stack, with no closure that refers to itself, so that rows
    # and witnesses are freed by reference counting, not by a gc cycle pass.
    stack = [(base, "", start)]
    while stack:
        rows, signs, witness = stack.pop()
        depth = len(signs)
        if depth == len(hyperplanes):
            found.append((signs, witness, tuple(rows)))
            continue
        for sign in ("+", "-"):
            cand = rows + [_sign_row(hyperplanes[depth], sign)]
            w = ratlp.strict_interior(cand, rs.rank)
            if w is not None:
                stack.append((cand, signs + sign, w))
    found.sort(key=lambda sw: tuple(0 if ch == "-" else 1 for ch in sw[0]))

    return [
        Region(id=k, signs=signs, witness=witness, closure_ineqs=rows)
        for k, (signs, witness, rows) in enumerate(found, start=1)
    ]


def region_weights(ws: WeightSystem, region: Region, level=Q(2)) -> RegionSubspace:
    """Module weights lying strictly above the level on the region."""
    level = Q(level)
    i_r = frozenset(
        mu for mu in ws.entries if pairing(mu, region.witness) > level
    )
    dim = sum(ws.entries[mu] for mu in i_r)
    return RegionSubspace(region_id=region.id, i_r=i_r, dimension=dim)


@dataclass(frozen=True)
class GradedWeights:
    """Weight supports of the level sets of a grading point."""

    at: frozenset[Weight]
    at_least: frozenset[Weight]
    above: frozenset[Weight]


def grade_module(ws: WeightSystem, h, c) -> GradedWeights:
    """Partition the nonzero module weights by pairing against c at h."""
    c = Q(c)
    at, at_least, above = set(), set(), set()
    for mu in ws.entries:
        v = pairing(mu, h)
        if v == c:
            at.add(mu)
            at_least.add(mu)
        elif v > c:
            above.add(mu)
            at_least.add(mu)
    return GradedWeights(
        at=frozenset(at), at_least=frozenset(at_least), above=frozenset(above)
    )


def is_saturated(ws: WeightSystem, weights) -> bool:
    """Whether a weight set absorbs addition of positive roots inside the module."""
    rs = ws.root_system
    weights = set(weights)
    for mu in weights:
        for gamma in rs.positive_roots:
            up = tuple(m + g for m, g in zip(mu, gamma))
            if up in ws.entries and up not in weights:
                return False
    return True
