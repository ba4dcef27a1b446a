"""Nilpotent orbit models and region-based computation of characteristics.

A Module (a root system and the highest weights of the module) is all the
arrangement needs.  An orbit model extends it: it names the orbits of a group
acting on the module, designates the zero orbit, orders orbits by closure,
and answers which orbit is dense in the span of a saturated weight set (the
generic stratum).  Two models are provided:

* AdjointSlModel: the adjoint module of sl_n.  Orbits are partitions of n
  ordered by dominance; the generic stratum of a weight support is the
  path_partition of its support digraph in gl_n (Gansner 1981), computed
  exactly; jordan_type reads the type of one nilpotent matrix.
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

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property

from . import linalg
from .arrangement import (
    Hyperplane,
    Region,
    by_sign,
    chamber_hyperplanes,
    enumerate_regions,
    region_weights,
    sign_rows,
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


@cache
def sl_positions(n: int) -> dict[Weight, tuple[int, int]]:
    """Matrix position of every sl_n root space, keyed by its weight.

    For i < j, e_i - e_j = alpha_i + ... + alpha_{j-1} is +1 at nodes i and
    j-1 and -1 at nodes i-1 and j, where those exist, in fundamental-weight
    coordinates; it sits at (i, j), its negative at (j, i).
    """
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            fw = tuple((k == i) + (k == j - 1) - (k == i - 1) - (k == j) for k in range(n - 1))
            out[fw] = (i, j)
            out[tuple(-c for c in fw)] = (j, i)
    return out


def sl_position(mu, n: int) -> tuple[int, int]:
    """Matrix position of the sl_n root space of weight mu."""
    mu = tuple(mu)
    try:
        return sl_positions(n)[mu]
    except KeyError:
        raise ValueError(f"{mu} is not a root of sl_{n}") from None


def generic_jordan_partition(i_r, n: int) -> Partition:
    """Jordan type of a generic element of the span of the given sl_n roots."""
    return path_partition({sl_position(mu, n) for mu in i_r}, n)


def path_partition(arcs, n: int) -> Partition:
    """Jordan type of a generic matrix of gl_n supported on the arcs (i, j).

    The arcs are a digraph on {0, ..., n-1}.  One with a directed cycle
    supports non-nilpotent matrices and raises ValueError.  For an acyclic
    one the generic type is its path partition: lambda_1 + ... + lambda_k is
    the largest number of vertices that k vertex-disjoint directed paths
    cover (Gansner, SIAM J. Alg. Disc. Meth. 2, 1981).  On a b-stable
    support paths are chains, and this is the Greene-Kleitman partition.

    The k-th successive shortest augmenting path of the split-vertex network
    (cost -1 on each vertex arc, 0 elsewhere, every capacity 1) costs
    -lambda_k; the costs never decrease, so once a path covers one vertex
    every later part is 1.
    """
    # node 0 is the source, 2v + 1 and 2v + 2 the entry and exit of vertex
    # v, 2n + 1 the sink; net[k] and its residual twin net[k ^ 1] are [head,
    # capacity, cost]
    size = 2 * n + 2
    net: list[list[int]] = []
    out: list[list[int]] = [[] for _ in range(size)]

    def add(u, v, cost):
        out[u].append(len(net))
        net.append([v, 1, cost])
        out[v].append(len(net))
        net.append([u, 0, -cost])

    for v in range(n):
        add(0, 2 * v + 1, 0)
        add(2 * v + 1, 2 * v + 2, -1)
        add(2 * v + 2, size - 1, 0)
    for i, j in sorted(arcs):
        add(2 * i + 2, 2 * j + 1, 0)
    parts: list[int] = []
    while True:
        # Bellman-Ford.  Every cycle of the network is negative and comes
        # from a cycle of the support, and an augmentation along a shortest
        # path makes none, so relaxing still after size - 1 passes means
        # the support has a cycle.  Path costs lie strictly between -size
        # and size, so size marks a node not reached.
        unreached = size
        dist = [0] + [unreached] * (size - 1)
        via = [0] * size
        for _ in range(size):
            changed = False
            for u in range(size):
                du = dist[u]
                if du == unreached:
                    continue
                for k in out[u]:
                    v, cap, cost = net[k]
                    if cap and du + cost < dist[v]:
                        dist[v] = du + cost
                        via[v] = k
                        changed = True
            if not changed:
                break
        else:
            raise ValueError(f"the support {sorted(arcs)} has a directed cycle, so it is not nilpotent")
        if -dist[-1] <= 1:
            return tuple(parts) + (1,) * (n - sum(parts))
        parts.append(-dist[-1])
        v = size - 1
        while v:
            k = via[v]
            net[k][1] -= 1
            net[k ^ 1][1] += 1
            v = net[k ^ 1][0]


def jordan_type(mat) -> Partition:
    """Jordan type of a nilpotent matrix: its conjugate's k-th part is rank
    A^(k-1) - rank A^k.  ValueError if the matrix is not square, or if its
    powers stop losing rank short of 0, so that it is not nilpotent."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError(f"a matrix of {n} rows of lengths {[len(row) for row in mat]} is not square")
    ranks, power = [n], mat
    while ranks[-1]:
        ranks.append(linalg.rank(power))
        if ranks[-1] == ranks[-2]:
            raise ValueError("the matrix is not nilpotent")
        power = linalg.matmul(power, mat)
    return conjugate_partition(tuple(a - b for a, b in zip(ranks, ranks[1:])))


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

    def caption(self, orbit) -> str:
        """The orbit's marker caption in a figure: its descriptor."""
        return self.descriptor(orbit)

    @abstractmethod
    def parse_orbit(self, text: str):
        """The orbit that a command-line name such as '2,2' or 'O5' gives;
        ValueError when it names none."""

    def check_orbit(self, orbit):
        if orbit not in self.orbit_ids():
            raise ValueError(f"unknown orbit {orbit!r}")
        return orbit


class AdjointSlModel(OrbitModel):
    """Nilpotent orbits of sl_n acting on itself; orbits are partitions of n.

    The generic stratum of a support is its exact path partition
    (generic_jordan_partition); no random element is drawn.
    """

    # The strata are exact, so seed is ignored; perfbench/workloads.py
    # still passes it.
    def __init__(self, n: int, seed: int = 1):
        self.n = n
        self.name = f"sl{n}-adjoint"
        rs = build_root_system([("A", n - 1)])
        super().__init__(rs, highest_roots(rs))

    @property
    def zero_orbit(self) -> Partition:
        return (1,) * self.n

    def orbit_ids(self) -> tuple[Partition, ...]:
        return tuple(partitions_of(self.n))

    def generic_stratum(self, i_r) -> Partition:
        return generic_jordan_partition(i_r, self.n)

    def closure_leq(self, a, b) -> bool:
        return dominance_leq(a, b)

    def descriptor(self, orbit) -> str:
        return "+".join(str(x) for x in orbit)

    def parse_orbit(self, text: str) -> Partition:
        """Parts separated by ',' or '+', in any order."""
        try:
            parts = [int(p) for p in text.replace("+", ",").split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"cannot read orbit {text!r} as a partition of {self.n}") from None
        return check_partition(tuple(sorted(parts, reverse=True)), self.n)


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

    factors = (("A", 1), ("A", 1))

    def __init__(self):
        self.name = "example-2x3"
        super().__init__(build_root_system(self.factors), ((1, 1), (1, 0)))

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

    def caption(self, orbit) -> str:
        """An O-label or 0 is its own caption."""
        return self.check_orbit(orbit)

    def parse_orbit(self, text: str) -> str:
        """An O-label or 0, in any case, underscores ignored; 'zero' is 0."""
        name = text.strip().upper().replace("_", "")
        name = "0" if name == "ZERO" else name
        if name not in self.orbit_ids():
            raise ValueError(f"unknown orbit {text!r}; expected 0 or O2..O5")
        return name

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

    @staticmethod
    def region_labels(supports) -> dict[int, str]:
        """Conventional Roman labels of the six regions, keyed by region id;
        supports maps each region id to its `region_weights`."""
        out = {}
        for rid, i_r in supports.items():
            label = _EXAMPLE_LABELS.get(i_r)
            if label is None:
                raise ValueError("unexpected region support")
            out[rid] = label
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
    """Arrangement of one module and its cached region minima.  A region's
    subspace is `region_weights(hyperplanes, region)`, and its closure rows
    are the chamber rows of `sign_rows` and then `by_sign` of its signs; an
    orbit model also gives each subspace's generic orbit, in `strata`."""

    model: Module
    ws: WeightSystem
    form: InvariantForm
    level: Q
    hyperplanes: list[Hyperplane]
    regions: list[Region]
    _minima: dict[int, MinNormResult] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, model: Module, level=Q(2), factor_scales=None) -> "RegionAnalysis":
        level = Q(level)
        rs = model.root_system
        ws = weight_system(rs, model.module_spec)
        form = invariant_form(rs, factor_scales)
        hps = chamber_hyperplanes(ws, level)
        return cls(model, ws, form, level, hps, enumerate_regions(rs, hps))

    @cached_property
    def strata(self) -> dict[int, object]:
        """The generic stratum of each region's subspace, keyed by region id,
        computed on first use; ValueError when the model has no orbits."""
        model = self.model
        if not isinstance(model, OrbitModel):
            raise ValueError("the analysis has no orbit model, so it has no orbits")
        hps = self.hyperplanes
        return {r.id: model.generic_stratum(region_weights(hps, r)) for r in self.regions}

    @cached_property
    def _strata_regions(self) -> dict[object, list[int]]:
        """The region ids of each distinct generic stratum."""
        out: dict[object, list[int]] = {}
        for rid, stratum in self.strata.items():
            out.setdefault(stratum, []).append(rid)
        return out

    @cached_property
    def _sign_strings(self) -> frozenset[str]:
        return frozenset(r.signs for r in self.regions)

    def _walls(self, region: Region) -> list[int]:
        """Indices into the region's closure rows of the chamber rows and of
        the sign rows that are facets of the region.

        Sign row k is a facet exactly when flipping sign k names another
        region: the segment between the two witnesses stays in the open
        chamber and crosses hyperplane k alone."""
        rank = self.model.root_system.rank
        signs = region.signs
        flip = {"+": "-", "-": "+"}
        return list(range(rank)) + [
            rank + k
            for k, sign in enumerate(signs)
            if signs[:k] + flip[sign] + signs[k + 1 :] in self._sign_strings
        ]

    @cached_property
    def _sign_rows(self) -> tuple[tuple[list, ...], tuple[list, ...]]:
        """`sign_rows` of the arrangement, and linalg.integral's (ints, c)
        of each of its rows at the same place: each row is integralized
        once per analysis."""
        rows = sign_rows(self.model.root_system, self.hyperplanes)
        return rows, tuple([linalg.integral((*n, b)) for n, b in part] for part in rows)

    def region_minimum(self, region_id: int) -> MinNormResult:
        """The minimizer over a region's closure, with its certificate
        (active_set indexes the closure rows: the chamber rows, then one
        row per sign).  The walls hold the region, so min_norm_point ends at
        their minimizer, which answers its emptiness check with no simplex."""
        if region_id not in self._minima:
            # enumerate_regions numbers the regions 1..N in list order
            k = region_id - 1
            if not (0 <= k < len(self.regions) and self.regions[k].id == region_id):
                raise ValueError(f"no region with id {region_id}")
            region = self.regions[k]
            (chamber, above, below), (ichamber, iabove, ibelow) = self._sign_rows
            rows = chamber + by_sign(region.signs, above, below)
            table = ichamber + by_sign(region.signs, iabove, ibelow)
            walls = self._walls(region)
            poly = Polyhedron.from_rows([rows[w] for w in walls], self.model.root_system.rank)
            # seed the cached integral rows from the analysis's table
            vars(poly)["integral_rows"] = [table[w] for w in walls]
            res = min_norm_point(poly, self.form)
            # The walls cut out a superset of the closure, and verify_kkt
            # inside min_norm_point has certified the minimizer on them; it is
            # the closure's minimizer exactly when it also satisfies the
            # closure rows that are not walls.
            kept = set(walls)
            x, d = linalg.integral(res.point)
            if not linalg.satisfies([row for w, row in enumerate(table) if w not in kept], x, d):
                raise AssertionError(
                    f"the minimizer over the walls of region {region_id} leaves its closure"
                )
            self._minima[region_id] = replace(res, active_set=tuple(walls[t] for t in res.active_set))
        return self._minima[region_id]


def m_sets(analysis: RegionAnalysis, orbit) -> tuple[frozenset[int], frozenset[int]]:
    """Region ids whose subspace meets the orbit, and those generically
    filled by it: the pair (m_set, tilde_m_set), with the second always
    contained in the first; ValueError without an orbit model."""
    model = analysis.model
    by_stratum = analysis._strata_regions
    model.check_orbit(orbit)
    meets = set()
    dense = set()
    for stratum, rids in by_stratum.items():
        if model.closure_leq(orbit, stratum):
            meets.update(rids)
        if stratum == orbit:
            dense.update(rids)
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
    labels = dynkin_labels(model.root_system, point)
    if any(v < 0 for v in labels):
        raise AssertionError("characteristic is not dominant")
    if orbit == model.zero_orbit and any(point):
        raise AssertionError("zero orbit has a nonzero characteristic")
    return Characteristic(
        orbit=orbit,
        mode=mode,
        point=point,
        labels=labels,
        norm_sq=combined.norm_sq,
        m_set=tuple(chosen),
        achieving=tuple(chosen[k] for k in combined.achieving),
    )
