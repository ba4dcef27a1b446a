"""Nilpotent orbit models and region-based computation of characteristics.

A Module (a root system and the highest weights of the module) is all the
arrangement needs.  An orbit model extends it: it names the orbits of a group
acting on the module, designates the zero orbit, orders orbits by closure,
and answers which orbit is dense in the span of a saturated weight set (the
generic stratum).  Two models are provided:

* AdjointSlModel: the adjoint module of sl_n.  Orbits are partitions of n
  ordered by dominance; the generic stratum of a weight support is measured
  by the Jordan type of a random integer element supported there.
* Example2x3Model: 2 x 3 matrices [[m, n, x], [p, q, y]] under the pair of
  rank-2 special linear groups acting by row operations on the left and on
  the first two columns on the right.  The five orbits are classified by
  the rank of the left 2 x 2 block M, whether the last column c is zero,
  and whether c lies in the column span of M.

The characteristic of a nonzero orbit O is the unique point of least squared
norm in the union of closures of the regions whose subspace meets O densely
(mode 'dense') or merely contains points of O (mode 'nonempty').  Its Dynkin
labels generalize the classical weighted Dynkin diagram.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .arrangement import (
    Hyperplane,
    Region,
    RegionSubspace,
    chamber_hyperplanes,
    enumerate_regions,
    region_weights,
)
from .liecore import (
    InvariantForm,
    Point,
    RootSystem,
    Weight,
    WeightSystem,
    build_root_system,
    dynkin_labels,
    highest_roots,
    invariant_form,
    is_dominant,
    weight_system,
)
from .minnorm import (
    MinNormResult,
    Polyhedron,
    combine_union_minima,
    min_norm_point,
)

Q = Fraction

Partition = tuple[int, ...]


def check_partition(parts, n: int) -> Partition:
    p = tuple(int(x) for x in parts)
    if any(x <= 0 for x in p) or list(p) != sorted(p, reverse=True):
        raise ValueError(f"{parts} is not a partition")
    if sum(p) != n:
        raise ValueError(f"{parts} is not a partition of {n}")
    return p


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, parts decreasing, in reverse lexicographic order."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def conjugate_partition(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= k) for k in range(1, p[0] + 1))


def dominance_leq(p: Partition, q: Partition) -> bool:
    """Whether p is below q in the dominance order on partitions of one n."""
    if sum(p) != sum(q):
        raise ValueError("partitions of different totals are incomparable")
    pp, qq = list(p), list(q)
    size = max(len(pp), len(qq))
    pp += [0] * (size - len(pp))
    qq += [0] * (size - len(qq))
    a = b = 0
    for x, y in zip(pp, qq):
        a += x
        b += y
        if a > b:
            return False
    return True


def weighted_dynkin_from_partition(parts) -> tuple[int, ...]:
    """Classical weighted Dynkin diagram of a nilpotent Jordan type in sl_n.

    Each part contributes the string part-1, part-3, ..., 1-part; the label
    vector is the sequence of consecutive differences of the combined string
    sorted in decreasing order.
    """
    n = sum(parts)
    p = check_partition(parts, n)
    h: list[int] = []
    for part in p:
        h.extend(range(part - 1, -part, -2))
    h.sort(reverse=True)
    return tuple(h[i] - h[i + 1] for i in range(n - 1))


def _sl_root_positions(n: int, rs: RootSystem) -> dict[Weight, tuple[int, int]]:
    """Map each root weight of sl_n to its matrix position (i, j)."""
    out: dict[Weight, tuple[int, int]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            fw = [0] * (n - 1)
            for k in range(lo, hi):
                for t in range(n - 1):
                    fw[t] += rs.cartan[k][t]
            w = tuple(fw) if i < j else tuple(-v for v in fw)
            out[w] = (i, j)
    return out


def _jordan_partition_of(mat: list[list[int]], n: int) -> Partition:
    """Jordan type of a nilpotent integer matrix from the ranks of its powers."""
    ranks = [n]
    power = mat
    while True:
        r = linalg.rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = linalg.matmul(power, mat)
        if len(ranks) > n + 1:
            raise ValueError("matrix is not nilpotent")
    conj = tuple(ranks[k - 1] - ranks[k] for k in range(1, len(ranks)))
    return conjugate_partition(conj)


def generic_jordan_partition(i_r, n: int, seed: int = 1) -> Partition:
    """Jordan type of a generic element of the span of the given sl_n roots.

    Draws three random integer elements supported on i_r (coefficients in
    1..100, seeds seed, seed+1, seed+2) and returns the dominance-largest
    Jordan type; the three draws must be pairwise comparable.
    """
    rs = build_root_system([("A", n - 1)])
    positions = _sl_root_positions(n, rs)
    try:
        support = [positions[tuple(mu)] for mu in i_r]
    except KeyError as e:
        raise ValueError(f"{e.args[0]} is not a root of sl_{n}") from None
    results = []
    for s in (seed, seed + 1, seed + 2):
        rng = random.Random(s)
        mat = [[0] * n for _ in range(n)]
        for i, j in sorted(support):
            mat[i][j] = rng.randint(1, 100)
        results.append(_jordan_partition_of(mat, n))
    for cand in results:
        if all(dominance_leq(other, cand) for other in results):
            return cand
    raise RuntimeError(
        f"incomparable Jordan types across samples: {sorted(set(results))}"
    )


class Module:
    """A module of a root system, given by its highest weights."""

    def __init__(self, root_system: RootSystem, module_spec):
        self.root_system = root_system
        self.module_spec: tuple[Weight, ...] = tuple(module_spec)


class OrbitModel(Module, ABC):
    """Orbits of a group module with closure order and generic strata."""

    name: str

    @property
    @abstractmethod
    def zero_orbit(self): ...

    @abstractmethod
    def orbit_ids(self) -> tuple: ...

    @abstractmethod
    def generic_stratum(self, i_r): ...

    @abstractmethod
    def closure_leq(self, a, b) -> bool: ...

    @abstractmethod
    def descriptor(self, orbit) -> str: ...

    def check_orbit(self, orbit):
        if orbit not in self.orbit_ids():
            raise ValueError(f"unknown orbit {orbit!r}")
        return orbit


class AdjointSlModel(OrbitModel):
    """Nilpotent orbits of sl_n acting on itself; orbits are partitions of n."""

    def __init__(self, n: int, seed: int = 1):
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        self.seed = seed
        self.name = f"sl{n}-adjoint"
        rs = build_root_system([("A", n - 1)])
        super().__init__(rs, highest_roots(rs))

    @property
    def zero_orbit(self) -> Partition:
        return (1,) * self.n

    def orbit_ids(self) -> tuple[Partition, ...]:
        return tuple(partitions_of(self.n))

    def generic_stratum(self, i_r) -> Partition:
        return generic_jordan_partition(i_r, self.n, self.seed)

    def closure_leq(self, a, b) -> bool:
        return dominance_leq(a, b)

    def descriptor(self, orbit) -> str:
        return "+".join(str(x) for x in orbit)


_EXAMPLE_POSITIONS: dict[Weight, tuple[int, int]] = {
    (1, 1): (0, 0),
    (1, -1): (0, 1),
    (-1, 1): (1, 0),
    (-1, -1): (1, 1),
    (1, 0): (0, 2),
    (-1, 0): (1, 2),
}

_EXAMPLE_STRICT = {
    ("0", "O2"),
    ("0", "O3"),
    ("0", "O4"),
    ("0", "O5"),
    ("O2", "O4"),
    ("O2", "O5"),
    ("O3", "O4"),
    ("O3", "O5"),
    ("O4", "O5"),
}

_EXAMPLE_LABELS = {
    frozenset(): "I",
    frozenset({(1, 1)}): "II",
    frozenset({(1, 1), (-1, 1)}): "III",
    frozenset({(1, 1), (1, -1), (1, 0)}): "IV",
    frozenset({(1, 1), (1, 0)}): "V",
    frozenset({(1, 1), (-1, 1), (1, 0)}): "VI",
}


class Example2x3Model(OrbitModel):
    """Five orbits on 2 x 3 matrices under the two rank-2 special linear groups.

    Writing an element as [[m, n, x], [p, q, y]] with left block M and last
    column c, the orbits are: the origin "0"; "O2" (M = 0, c != 0); "O3"
    (rank M = 1, c = 0); "O4" (rank M = 1, c nonzero in the span of the
    columns of M); "O5" (rank M = 1, c outside that span).
    """

    def __init__(self):
        self.name = "example-2x3"
        super().__init__(build_root_system([("A", 1), ("A", 1)]), ((1, 1), (1, 0)))

    @property
    def zero_orbit(self) -> str:
        return "0"

    def orbit_ids(self) -> tuple[str, ...]:
        return ("0", "O2", "O3", "O4", "O5")

    def closure_leq(self, a, b) -> bool:
        self.check_orbit(a)
        self.check_orbit(b)
        return a == b or (a, b) in _EXAMPLE_STRICT

    def descriptor(self, orbit) -> str:
        names = {
            "0": "zero matrix",
            "O2": "M = 0, c != 0",
            "O3": "rank M = 1, c = 0",
            "O4": "rank M = 1, 0 != c in im M",
            "O5": "rank M = 1, c outside im M",
        }
        return names[self.check_orbit(orbit)]

    def generic_stratum(self, i_r) -> str:
        support = set()
        for mu in i_r:
            mu = tuple(mu)
            if mu not in _EXAMPLE_POSITIONS:
                raise ValueError(f"{mu} is not a weight of the module")
            support.add(_EXAMPLE_POSITIONS[mu])
        # Distinct primes make every 2 x 2 minor ad - bc nonzero exactly when
        # it is nonzero for generic entries on the support.
        primes = ((2, 3, 5), (7, 11, 13))
        mat = [[primes[i][j] if (i, j) in support else 0 for j in range(3)] for i in range(2)]
        return self.classify_element(mat)

    def classify_element(self, mat) -> str:
        """Orbit of a concrete 2 x 3 matrix with exact rational entries."""
        m = [[Q(mat[i][j]) for j in range(2)] for i in range(2)]
        c = [Q(mat[i][2]) for i in range(2)]
        rank_m = linalg.rank(m)
        if rank_m == 2:
            raise ValueError("matrix has invertible left block")
        c_zero = not any(c)
        if rank_m == 0:
            return "0" if c_zero else "O2"
        if c_zero:
            return "O3"
        aug = [m[i] + [c[i]] for i in range(2)]
        return "O4" if linalg.rank(aug) == 1 else "O5"

    def representative(self, orbit):
        reps = {
            "0": ((0, 0, 0), (0, 0, 0)),
            "O2": ((0, 0, 1), (0, 0, 0)),
            "O3": ((1, 0, 0), (0, 0, 0)),
            "O4": ((1, 0, 1), (0, 0, 0)),
            "O5": ((1, 0, 0), (0, 0, 1)),
        }
        return reps[self.check_orbit(orbit)]

    def region_labels(self, subspaces) -> dict[int, str]:
        """Conventional Roman labels of the six regions, keyed by region id."""
        out = {}
        for sub in subspaces:
            label = _EXAMPLE_LABELS.get(sub.i_r)
            if label is None:
                raise ValueError("unexpected region support")
            out[sub.region_id] = label
        return out


@dataclass(frozen=True)
class Characteristic:
    """Distinguished dominant point attached to an orbit.

    m_set lists the regions whose union of closures was minimized over
    (all regions meeting the orbit in mode 'nonempty', the densely filled
    ones in mode 'dense'); achieving lists those attaining the minimum.
    """

    orbit: object
    mode: str
    point: Point
    labels: tuple[Q, ...]
    norm_sq: Q
    m_set: tuple[int, ...]
    achieving: tuple[int, ...]


@dataclass
class RegionAnalysis:
    """Arrangement of one module and cached minimizers; for an orbit model
    also the generic stratum of each region (strata is None otherwise)."""

    model: Module
    ws: WeightSystem
    form: InvariantForm
    level: Q
    hyperplanes: list[Hyperplane]
    regions: list[Region]
    subspaces: dict[int, RegionSubspace]
    strata: dict[int, object] | None
    _minima: dict[int, MinNormResult] = field(default_factory=dict)

    @classmethod
    def build(cls, model: Module, level=Q(2), factor_scales=None) -> "RegionAnalysis":
        level = Q(level)
        rs = model.root_system
        ws = weight_system(rs, model.module_spec)
        form = invariant_form(rs, factor_scales)
        hps = chamber_hyperplanes(ws, level)
        regions = enumerate_regions(rs, hps)
        subspaces = {r.id: region_weights(ws, r, level) for r in regions}
        strata = None
        if isinstance(model, OrbitModel):
            strata = {r.id: model.generic_stratum(sorted(subspaces[r.id].i_r)) for r in regions}
        return cls(
            model=model,
            ws=ws,
            form=form,
            level=level,
            hyperplanes=hps,
            regions=regions,
            subspaces=subspaces,
            strata=strata,
        )

    def region_minimum(self, region_id: int) -> MinNormResult:
        if region_id not in self._minima:
            # enumerate_regions numbers the regions 1..N in list order
            k = region_id - 1
            if not (0 <= k < len(self.regions) and self.regions[k].id == region_id):
                raise ValueError(f"no region with id {region_id}")
            poly = Polyhedron.from_region(self.regions[k], self.model.root_system.rank)
            self._minima[region_id] = min_norm_point(poly, self.form)
        return self._minima[region_id]


def m_sets(analysis: RegionAnalysis, orbit) -> tuple[frozenset[int], frozenset[int]]:
    """Region ids whose subspace meets the orbit, and those generically
    filled by it: the pair (m_set, tilde_m_set), with the second always
    contained in the first."""
    model = analysis.model
    if not isinstance(model, OrbitModel):
        raise ValueError("the analysis has no orbit model, so it has no orbits")
    model.check_orbit(orbit)
    meets = set()
    dense = set()
    for rid, stratum in analysis.strata.items():
        if model.closure_leq(orbit, stratum):
            meets.add(rid)
        if stratum == orbit:
            dense.add(rid)
    if not dense <= meets:
        raise AssertionError("a dense region does not meet the orbit")
    return frozenset(meets), frozenset(dense)


def characteristic(analysis: RegionAnalysis, orbit, mode: str = "nonempty"):
    """Characteristic of an orbit, or None when mode 'dense' has no region.

    The zero orbit always yields the zero point.  For other orbits the point
    is the least-norm element of the union of the closures of the selected
    regions; it is dominant and unique, and ties across regions must agree.
    """
    if mode not in ("nonempty", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    meets, dense = m_sets(analysis, orbit)
    model = analysis.model
    chosen = sorted(meets if mode == "nonempty" else dense)
    if not chosen:
        return None
    combined = combine_union_minima(
        analysis.region_minimum(rid) for rid in chosen
    )
    point = combined.point
    rs = model.root_system
    if not is_dominant(rs, point):
        raise AssertionError("characteristic is not dominant")
    if orbit == model.zero_orbit and any(point):
        raise AssertionError("zero orbit has a nonzero characteristic")
    return Characteristic(
        orbit=orbit,
        mode=mode,
        point=point,
        labels=dynkin_labels(rs, point),
        norm_sq=combined.norm_sq,
        m_set=tuple(chosen),
        achieving=tuple(chosen[k] for k in combined.achieving),
    )
