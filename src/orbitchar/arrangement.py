"""Hyperplane arrangements cut out by module weights inside the dominant chamber.

Every nonzero weight mu of the module that takes positive values somewhere
on the open dominant chamber contributes the affine hyperplane
{h : mu(h) = level} (level 2 by default).  The complement of the union of
these hyperplanes inside the open chamber splits into finitely many open
convex cells, each recorded with its sign vector and an exact interior
witness.

A cell's sign vector states, per hyperplane in canonical order, whether the
cell lies above ('+', pairing > level) or below ('-').  Cells are numbered
from 1 in sign-vector order, below before above, the order in which the
depth-first enumeration reaches them.  A cell's subspace, the weights above
the level across it, is read off its '+' signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, ratlp
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

    Its closure rows are the chamber rows of `sign_rows` and then `by_sign`
    of its signs."""

    id: int
    signs: str
    witness: Point


def chamber_hyperplanes(ws: WeightSystem, level=Q(2)) -> list[Hyperplane]:
    """Hyperplanes of module weights that meet the open dominant chamber.

    A weight meets the open chamber at positive values exactly when its
    simple-root coordinate vector has at least one positive entry.  Entry i
    is 2 (g_i . mu) / (d l_i) for the form matrix (G, d) and root lengths l,
    so its sign is that of the integer g_i . mu.
    """
    level = Q(level)
    if level <= 0:
        raise ValueError("level must be positive")
    form, _ = ws.root_system.form_matrix
    return [
        Hyperplane(weight=mu, level=level)
        for mu in sorted(ws.entries)
        if any(linalg.dot(g, mu) > 0 for g in form)
    ]


def sign_rows(rs: RootSystem, hyperplanes) -> tuple[list[IneqRow], ...]:
    """The chamber rows, each hyperplane's row above, (weight, level), and
    its row below, (-weight, -level): rows (normal, bound) of closures
    {a : normal . a >= bound}, normals in fundamental-weight coordinates so
    that they pair with coroot coordinates by the dot product."""
    above = [(hp.weight, hp.level) for hp in hyperplanes]
    below = [(tuple(-m for m in w), -b) for w, b in above]
    return [(tuple(row), Q(0)) for row in rs.cartan], above, below


def by_sign(signs: str, above: list, below: list) -> list:
    """Each hyperplane's entry of above where signs has '+', of below where '-'."""
    return [a if sign == "+" else b for sign, a, b in zip(signs, above, below)]


def enumerate_regions(rs: RootSystem, hyperplanes) -> list[Region]:
    """All open cells of the arrangement, by depth-first sign assignment.

    Each candidate sign prefix is kept only while the corresponding strict
    system still has an interior point, certified by exact linear
    programming; complete sign vectors yield cells together with witnesses.

    The root is solved cold, from the artificial basis; every node below
    it is split by `ratlp.split` into its two children, whose phase 1
    starts from the node's optimal dictionary with the '+' or '-' row of
    the next hyperplane added: one read of the node, one substitution and
    one table lookup per node.  A sign row that holds at the parent's vertex
    costs no pivot and one row check.  Each '+' row is integralized once,
    with its '-' row, in the root's table.  A region keeps its signs, which
    name its closure rows.
    A complete sign vector keeps the point of its own warm LP as its
    witness, the vertex that phase 1 reaches from the parent's dictionary;
    the depth-first order and Bland's rule fix it.  The '-' child is
    pushed last, so its subtree is finished first: the leaves arrive in
    sign-vector order, below before above.

    Any number of hyperplanes is accepted; the cost, two LPs per kept
    prefix, grows with the number of regions.
    """
    base, above, _ = sign_rows(rs, hyperplanes)
    root = ratlp.cold_start(base, rs.rank)
    start = ratlp.strict_interior(base, rs.rank, root)
    if start is None:
        raise RuntimeError("the open dominant chamber has no interior point")
    found: list[tuple[str, Point]] = []
    # An explicit stack, with no closure that refers to itself, so that
    # dictionaries are freed by reference counting, not by a gc cycle pass;
    # each dictionary holds its node's rows.
    stack = [("", root, start)]
    while stack:
        signs, dic, witness = stack.pop()
        if len(signs) == len(above):
            found.append((signs, witness))
            continue
        for sign, child in zip("+-", ratlp.split(dic, above[len(signs)])):
            w = ratlp.strict_interior(child.rows, rs.rank, child)
            if w is not None:
                stack.append((signs + sign, child, w))
    return [Region(k, signs, witness) for k, (signs, witness) in enumerate(found, start=1)]


def region_weights(hyperplanes, region: Region) -> frozenset[Weight]:
    """Module weights lying strictly above the level on the region.

    These are the weights of the hyperplanes signed '+' in region.signs.  A
    weight with no hyperplane has no positive simple-root coordinate, so it
    pairs to at most 0 < level on the chamber.
    """
    if len(hyperplanes) != len(region.signs):
        raise ValueError(f"{len(hyperplanes)} hyperplanes for {len(region.signs)} signs")
    return frozenset(hp.weight for hp, sign in zip(hyperplanes, region.signs) if sign == "+")


def is_saturated(ws: WeightSystem, weights) -> bool:
    """Whether a weight set absorbs addition of positive roots inside the module."""
    rs = ws.root_system
    weights = set(weights)
    if any(len(mu) != rs.rank for mu in weights):
        raise ValueError("dimension mismatch")
    for mu in weights:
        for gamma in rs.positive_roots:
            up = tuple(m + g for m, g in zip(mu, gamma))
            if up in ws.entries and up not in weights:
                return False
    return True
