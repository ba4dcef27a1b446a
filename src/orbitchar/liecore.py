"""Root systems, module weight systems, and the invariant inner product.

Coordinate conventions used throughout the package:

* A point h of the rational Cartan subalgebra is stored in simple-coroot
  coordinates, h = sum_i a_i alpha_i^vee, as a tuple of Fractions.
* A weight mu is stored in fundamental-weight coordinates: entry i is
  <mu, alpha_i^vee>, always an integer.
* With these choices the natural pairing mu(h) is the plain dot product,
  and the Dynkin labels of h are the entries of C a, where C is the Cartan
  matrix with C[i][j] = <alpha_i, alpha_j^vee>.  Row i of C is the weight
  of the simple root alpha_i.
* A weight mu = sum_i b_i alpha_i has simple-root coordinates b solving
  C^T b = fw(mu).

The invariant form on the Cartan subalgebra is normalized so long roots of
every simple factor have squared length 2; an optional positive rational
scale per factor rescales the factor's block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg

Q = Fraction

Weight = tuple[int, ...]
Point = tuple[Q, ...]

_SERIES_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _chain_cartan(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _factor_cartan(series: str, n: int) -> tuple[list[list[int]], list[Q]]:
    """Cartan matrix and squared simple-root lengths of one simple factor."""
    if series == "A":
        return _chain_cartan(n), [Q(2)] * n
    if series == "B":
        c = _chain_cartan(n)
        c[n - 2][n - 1] = -2
        return c, [Q(2)] * (n - 1) + [Q(1)]
    if series == "C":
        c = _chain_cartan(n)
        c[n - 1][n - 2] = -2
        return c, [Q(1)] * (n - 1) + [Q(2)]
    if series == "D":
        c = _chain_cartan(n)
        # detach the last node from the chain and hook it onto node n-3
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        return c, [Q(2)] * n
    if series == "E":
        c = _chain_cartan(n)
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 4][n - 1] = c[n - 1][n - 4] = -1
        return c, [Q(2)] * n
    if series == "F":
        c = _chain_cartan(4)
        c[1][2] = -2
        return c, [Q(2), Q(2), Q(1), Q(1)]
    if series == "G":
        return [[2, -1], [-3, 2]], [Q(2, 3), Q(2)]
    raise ValueError(f"unknown series {series!r}")


def _positive_roots(cartan) -> list[tuple[tuple[int, ...], Weight]]:
    """Positive roots as (simple-root, fundamental-weight) coordinate pairs,
    sorted by height and then simple-root coordinates.

    Every positive root that is not simple is s_j(gamma) for a lower positive
    root gamma with c = <gamma, alpha_j^vee> < 0 (Humphreys, Introduction to
    Lie Algebras and Representation Theory, 10.2), so reflecting upward from
    the simple roots at every negative entry c reaches them all: rc_j grows
    by -c and fw loses c times row j of the Cartan matrix.  A root's fw is
    zero off its own block of a block-diagonal matrix, so each walk stays
    inside its simple factor.
    """
    n = len(cartan)
    roots = {tuple(int(i == j) for j in range(n)): tuple(row) for i, row in enumerate(cartan)}
    stack = list(roots.items())
    while stack:
        rc, fw = stack.pop()
        for j, c in enumerate(fw):
            if c < 0:
                up = rc[:j] + (rc[j] - c,) + rc[j + 1 :]
                if up not in roots:
                    roots[up] = tuple(f - c * r for f, r in zip(fw, cartan[j]))
                    stack.append((up, roots[up]))
    return sorted(roots.items(), key=lambda item: (sum(item[0]), item[0]))


@dataclass(frozen=True)
class RootSystem:
    """A finite root system given as a product of simple factors.

    positive_roots holds fundamental-weight coordinates, aligned index by
    index with positive_root_coords (simple-root coordinates).  root_lengths
    holds the squared length of each simple root.
    """

    factors: tuple[tuple[str, int], ...]
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Weight, ...]
    positive_root_coords: tuple[tuple[int, ...], ...]
    root_lengths: tuple[Q, ...]

    @cached_property
    def form_matrix(self) -> tuple[list[list[int]], int]:
        """(G, d) with G / d = diag(root_lengths / 2) C^-T: the invariant form
        on fundamental-weight coordinates is (mu, nu) = mu . G nu / d."""
        rows = zip(self.root_lengths, linalg.inverse(linalg.transpose(self.cartan)))
        return linalg.integral_matrix([[l / 2 * x for x in row] for l, row in rows])

    @cached_property
    def factor_of_node(self) -> tuple[int, ...]:
        out = []
        for f, (_, n) in enumerate(self.factors):
            out.extend([f] * n)
        return tuple(out)

    def root_coords(self, mu) -> tuple[Q, ...]:
        """Simple-root coordinates of a weight (solves C^T b = fw)."""
        if len(mu) != self.rank:
            raise ValueError("dimension mismatch")
        g, d = self.form_matrix
        return tuple(
            2 * linalg.dot(row, mu) / (d * l)
            for row, l in zip(g, self.root_lengths)
        )

    def weight_form(self, mu, nu) -> Q:
        """Invariant form on weight space, long roots of squared length 2."""
        if len(mu) != self.rank or len(nu) != self.rank:
            raise ValueError("dimension mismatch")
        g, d = self.form_matrix
        return Q(linalg.dot(mu, [linalg.dot(row, nu) for row in g]), d)

    def reflect_weight(self, mu: Weight, i: int) -> Weight:
        if len(mu) != self.rank:
            raise ValueError("dimension mismatch")
        return tuple([m - mu[i] * c for m, c in zip(mu, self.cartan[i])])

    def dominant_rep(self, mu) -> Weight:
        """The dominant Weyl-orbit representative of a weight."""
        cur = tuple(mu)
        for _ in range(100000):
            i = next((k for k, m in enumerate(cur) if m < 0), None)
            if i is None:
                return cur
            cur = self.reflect_weight(cur, i)
        raise RuntimeError("reflection loop failed to reach the dominant chamber")

    def weyl_orbit(self, mu) -> tuple[Weight, ...]:
        """The Weyl orbit of a weight, sorted.  It is walked down from the
        dominant representative, reflecting only at positive coordinates:
        each other weight is reached once, from s_i of itself, where i is its
        first negative coordinate."""
        out = []
        stack = [self.dominant_rep(mu)]
        while stack:
            w = stack.pop()
            out.append(w)
            for i, m in enumerate(w):
                if m > 0:
                    r = self.reflect_weight(w, i)
                    if min(r[:i], default=0) >= 0:
                        stack.append(r)
        return tuple(sorted(out))

    def is_dominant_weight(self, mu) -> bool:
        return all(m >= 0 for m in mu)

    def root_length_sq(self, gamma: Weight) -> Q:
        return self.weight_form(gamma, gamma)

    def is_short_root(self, gamma: Weight) -> bool:
        return self.root_length_sq(gamma) < 2


def build_root_system(factors) -> RootSystem:
    """Build a root system from a list of (series, rank) factors."""
    factors = tuple((str(s), int(n)) for s, n in factors)
    if not factors:
        raise ValueError("at least one factor is required")
    for s, n in factors:
        if s not in _SERIES_RANKS:
            raise ValueError(f"unknown series {s!r}")
        if not _SERIES_RANKS[s](n):
            raise ValueError(f"rank {n} is not valid for series {s}")
    rank = sum(n for _, n in factors)
    cartan = [[0] * rank for _ in range(rank)]
    lengths: list[Q] = []
    offset = 0
    for s, n in factors:
        c, lens = _factor_cartan(s, n)
        for i, row in enumerate(c):
            cartan[offset + i][offset : offset + n] = row
        lengths.extend(lens)
        offset += n
    roots = _positive_roots(cartan)
    return RootSystem(
        factors=factors,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(fw for _, fw in roots),
        positive_root_coords=tuple(rc for rc, _ in roots),
        root_lengths=tuple(lengths),
    )


def highest_roots(rs: RootSystem) -> tuple[Weight, ...]:
    """The highest root of each factor, in factor order."""
    best: dict[int, tuple[int, int]] = {}
    for k, rc in enumerate(rs.positive_root_coords):
        f = rs.factor_of_node[next(i for i, b in enumerate(rc) if b)]
        ht = sum(rc)
        if f not in best or ht > best[f][0]:
            best[f] = (ht, k)
    return tuple(rs.positive_roots[best[f][1]] for f in range(len(rs.factors)))


def highest_short_root(rs: RootSystem) -> Weight:
    """The dominant short root of a single two-length factor."""
    if len(rs.factors) != 1:
        raise ValueError("highest short root requires a single simple factor")
    shorts = [
        (sum(rc), fw)
        for fw, rc in zip(rs.positive_roots, rs.positive_root_coords)
        if rs.is_short_root(fw)
    ]
    if not shorts:
        raise ValueError(f"series {rs.factors[0][0]} has no short roots")
    fw = max(shorts)[1]
    if not rs.is_dominant_weight(fw):
        raise RuntimeError("highest short root is not dominant")
    return fw


def pairing(mu, h) -> Q:
    """Evaluate a weight on a point: mu(h), the dot product of coordinates."""
    if len(mu) != len(h):
        raise ValueError("dimension mismatch")
    return sum((Q(m) * Q(a) for m, a in zip(mu, h)), Q(0))


def dynkin_labels(rs: RootSystem, h) -> tuple[Q, ...]:
    """Values of the simple roots on a point, C a, exactly: C_i . X / D for the
    point read once as ints, (X, D) = linalg.integral(h); a float entry goes
    through Fraction there, so a float point gets exact labels, not floats."""
    x, d = linalg.integral(h)
    if len(x) != rs.rank:
        raise ValueError("dimension mismatch")
    return tuple(Q(linalg.dot(row, x), d) for row in rs.cartan)


def is_dominant(rs: RootSystem, h) -> bool:
    return all(v >= 0 for v in dynkin_labels(rs, h))


@dataclass(frozen=True)
class InvariantForm:
    """Gram matrix of the invariant form on simple coroots, scales applied.

    gram[i][j] = scale(factor of i) * (alpha_i^vee, alpha_j^vee) with long
    roots normalized to squared length 2 inside each factor.
    """

    gram: tuple[tuple[Q, ...], ...]

    @cached_property
    def integral_gram(self) -> tuple[list[list[int]], int]:
        """(G, d) with G / d = gram, G of ints (linalg.integral_matrix)."""
        return linalg.integral_matrix(self.gram)

    @cached_property
    def integral_inverse_hessian(self) -> tuple[list[list[int]], int]:
        """(K, k) with K / k the inverse of the integer Hessian H = 2 G of
        (G, d) = integral_gram, K of ints; H / d = 2 gram."""
        g, _ = self.integral_gram
        return linalg.integral_matrix(linalg.inverse([[2 * v for v in row] for row in g]))


def invariant_form(rs: RootSystem, factor_scales=None) -> InvariantForm:
    if factor_scales is None:
        factor_scales = (Q(1),) * len(rs.factors)
    factor_scales = tuple(Q(s) for s in factor_scales)
    if len(factor_scales) != len(rs.factors):
        raise ValueError("one scale per factor is required")
    if any(s <= 0 for s in factor_scales):
        raise ValueError("factor scales must be positive")
    gram = []
    for i in range(rs.rank):
        s = factor_scales[rs.factor_of_node[i]]
        row = [s * 2 * rs.cartan[i][j] / rs.root_lengths[i] for j in range(rs.rank)]
        gram.append(tuple(row))
    return InvariantForm(gram=tuple(gram))


def norm_sq(form: InvariantForm, h) -> Q:
    """Squared length of a point under the invariant form."""
    g, d = form.integral_gram
    x, scale = linalg.integral(h)
    if len(x) != len(g):
        raise ValueError("dimension mismatch")
    return Q(linalg.dot(x, [linalg.dot(row, x) for row in g]), d * scale * scale)


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of the irreducible module with highest weight lam."""
    lam = _check_dominant(rs, lam)
    rho = (1,) * rs.rank
    lam_rho = tuple(m + 1 for m in lam)
    num, den = Q(1), Q(1)
    for gamma in rs.positive_roots:
        num *= rs.weight_form(lam_rho, gamma)
        den *= rs.weight_form(rho, gamma)
    d = num / den
    if d.denominator != 1:
        raise RuntimeError("dimension formula returned a non-integer")
    return int(d)


def _check_dominant(rs: RootSystem, lam) -> Weight:
    lam = tuple(int(m) for m in lam)
    if len(lam) != rs.rank:
        raise ValueError(f"weight {lam} has {len(lam)} entries, but the rank is {rs.rank}")
    if any(m < 0 for m in lam):
        raise ValueError(f"{lam} is not dominant")
    return lam


@dataclass
class WeightSystem:
    """Weights of a finite-dimensional module with multiplicities.

    entries maps each nonzero weight to its positive multiplicity; the zero
    weight is kept separately in zero_mult.  module_spec records the highest
    weights the module was built from (a multiset).
    """

    root_system: RootSystem
    module_spec: tuple[Weight, ...]
    entries: dict[Weight, int] = field(default_factory=dict)
    zero_mult: int = 0

    def dim(self) -> int:
        return self.zero_mult + sum(self.entries.values())


def _dominant_weights_below(rs: RootSystem, lam: Weight) -> list[tuple[int, Weight]]:
    """(height of lam - mu, mu) for every dominant mu with lam - mu in the
    nonnegative root lattice, sorted by height.

    Every such mu is reached from lam by a chain of dominant weights whose
    steps are positive roots (Stembridge, The partial order of dominant
    weights, Adv. Math. 136, 1998), so a walk down those steps finds them all.
    """
    steps = [(gamma, sum(rc)) for gamma, rc in zip(rs.positive_roots, rs.positive_root_coords)]
    height = {lam: 0}
    stack = [lam]
    while stack:
        mu = stack.pop()
        for gamma, ht in steps:
            nu = tuple(m - g for m, g in zip(mu, gamma))
            if nu not in height and rs.is_dominant_weight(nu):
                height[nu] = height[mu] + ht
                stack.append(nu)
    return sorted((ht, mu) for mu, ht in height.items())


def _irreducible_multiplicities(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of the module with highest
    weight lam, by the standard recursion on the weight lattice."""
    dom = _dominant_weights_below(rs, lam)
    rho = (1,) * rs.rank
    lam_rho = tuple(m + 1 for m in lam)
    top = rs.weight_form(lam_rho, lam_rho)
    mult: dict[Weight, int] = {lam: 1}
    for ht, mu in dom:
        if mu == lam:
            continue
        acc = Q(0)
        for gamma in rs.positive_roots:
            k = 1
            while True:
                nu = tuple(m + k * g for m, g in zip(mu, gamma))
                m_nu = mult.get(rs.dominant_rep(nu), 0)
                if m_nu == 0:
                    break
                acc += m_nu * rs.weight_form(nu, gamma)
                k += 1
        mu_rho = tuple(m + 1 for m in mu)
        den = top - rs.weight_form(mu_rho, mu_rho)
        if den <= 0:
            raise RuntimeError("degenerate denominator in multiplicity recursion")
        val = 2 * acc / den
        if val.denominator != 1 or val <= 0:
            raise RuntimeError("multiplicity recursion returned a non-positive value")
        mult[mu] = int(val)
    return mult


def weight_system(rs: RootSystem, module_spec) -> WeightSystem:
    """Weight system of a direct sum of irreducibles given by highest weights."""
    spec = tuple(_check_dominant(rs, lam) for lam in module_spec)
    entries: dict[Weight, int] = {}
    zero_mult = 0
    zero = (0,) * rs.rank
    for lam in spec:
        for mu, m in _irreducible_multiplicities(rs, lam).items():
            for w in rs.weyl_orbit(mu):
                if w == zero:
                    zero_mult += m
                else:
                    entries[w] = entries.get(w, 0) + m
    return WeightSystem(
        root_system=rs, module_spec=spec, entries=entries, zero_mult=zero_mult
    )
