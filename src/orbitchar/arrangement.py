"""Hyperplane arrangements cut out by module weights inside the dominant chamber.

Every nonzero weight mu of the module that takes positive values somewhere
on the open dominant chamber contributes the affine hyperplane
{h : mu(h) = level} (level 2 by default).  The complement of the union of
these hyperplanes inside the open chamber splits into finitely many open
convex cells, each recorded with an exact interior witness and the
inequality rows of its closure.

A cell's sign vector states, per hyperplane in canonical order, whether the
cell lies above ('+', pairing > level) or below ('-').  Cells are sorted by
sign vector, below before above, and numbered from 1.  A cell's subspace,
the weights above the level across it, is read off its '+' signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlp
from .liecore import Point, RootSystem, Weight, WeightSystem

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


def enumerate_regions(rs: RootSystem, hyperplanes) -> list[Region]:
    """All open cells of the arrangement, by depth-first sign assignment.

    Each candidate sign prefix is kept only while the corresponding strict
    system still has an interior point, certified by exact linear
    programming; complete sign vectors yield cells together with witnesses.

    The root is solved cold, from the artificial basis; every candidate
    below it warm: phase 1 starts from its parent's optimal dictionary with
    the one new sign row added, and a sign row that holds at the parent's
    vertex costs no pivot (sl5: 77 pivots in all instead of 2,867 with
    every LP cold).  A complete sign vector keeps the point of its own
    warm LP as its witness, the vertex that phase 1 reaches from the
    parent's dictionary; the depth-first order and Bland's rule fix it.

    Any number of hyperplanes is accepted; the cost, two LPs per kept
    prefix, grows with the number of regions (adjoint E7, 63 hyperplanes
    and 4,160 regions: about 10 s on a 2-core Xeon under CPython 3.11).
    """
    hyperplanes = list(hyperplanes)
    base = _chamber_rows(rs)
    root = ratlp.cold_start(base, rs.rank)
    start = ratlp.strict_interior(base, rs.rank, root)
    if start is None:
        raise RuntimeError("the open dominant chamber has no interior point")
    found: list[tuple[str, Point, tuple[IneqRow, ...]]] = []
    # An explicit stack, with no closure that refers to itself, so that
    # dictionaries are freed by reference counting, not by a gc cycle pass;
    # each dictionary holds its node's rows.
    stack = [("", root, start)]
    while stack:
        signs, dic, witness = stack.pop()
        if len(signs) == len(hyperplanes):
            found.append((signs, witness, tuple(dic.rows)))
            continue
        for sign in ("+", "-"):
            child = ratlp.warm_start(dic, _sign_row(hyperplanes[len(signs)], sign))
            w = ratlp.strict_interior(child.rows, rs.rank, child)
            if w is not None:
                stack.append((signs + sign, child, w))
    found.sort(key=lambda sw: tuple(0 if ch == "-" else 1 for ch in sw[0]))

    return [
        Region(id=k, signs=signs, witness=witness, closure_ineqs=rows)
        for k, (signs, witness, rows) in enumerate(found, start=1)
    ]


def region_weights(ws: WeightSystem, hyperplanes, region: Region) -> RegionSubspace:
    """Module weights lying strictly above the level on the region.

    These are the weights of the hyperplanes signed '+' in region.signs.  A
    weight with no hyperplane has no positive simple-root coordinate, so it
    pairs to at most 0 < level on the chamber.
    """
    if len(hyperplanes) != len(region.signs):
        raise ValueError(f"{len(hyperplanes)} hyperplanes for {len(region.signs)} signs")
    i_r = frozenset(hp.weight for hp, sign in zip(hyperplanes, region.signs) if sign == "+")
    dim = sum(ws.entries[mu] for mu in i_r)
    return RegionSubspace(region_id=region.id, i_r=i_r, dimension=dim)


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
