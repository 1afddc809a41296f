"""Exact permutation arithmetic, and finite groups on one cached Cayley table.

A `PermGroup` keeps its full element list sorted by image table, identity
first; that canonical order breaks every tie downstream.  Every group
algorithm runs on the group's `GroupTable`, cached on the instance: the same
elements in the same order with integer product and inverse tables.  A group
given by its Cayley table is that table's regular action, and the table is
its `mul`: `PermGroup.regular` checks a table it is handed (quotients,
presentations, a kernel on its own rows), and `PermGroup.product` joins the
tables of built groups into their direct product (abelian groups,
C_ell x G), a group because its factors are, so checked through them.  Any other group is generated
(`PermGroup.generate`): `mulclose`, the only code forming full-degree
products, closes it, and `mul` is gathered along the closure's walk, by
index arithmetic, on first use.

The edge rule: inside the library a subset or map of a group is indices of
its table (subgroups, kernels, classes and Sylow sets as index sets or
masks, quotient maps and actions as index lists).  Permutations appear only
at the edges: parsing, `cycle_string`, the public API and its reports, and
`GroupTable.idx`, built only when an edge needs it.  Hashing a permutation
reads its whole image tuple, so a set of them costs |G| x degree.

The "group order" limit of `errors.LIMITS` (4096) bounds every group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (LIMITS, DegreeMismatch, NotNilpotent, NotNormal,
                     NotPrime, PropertyViolated, TrivialGroup, require)
from .intmath import is_prime, prime_factors, valuation


class Permutation:
    """A permutation of {0..n-1} stored as an image table."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images!r}")
        self.images = images

    @staticmethod
    def trusted(images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a bijection, unchecked."""
        p = object.__new__(Permutation)
        p.images = images
        return p

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation.trusted(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition: (self * other)(x) = self(other(x))
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DegreeMismatch(f"degree {len(a)} vs {len(b)}")
        p = object.__new__(Permutation)
        p.images = tuple(a[i] for i in b)
        return p

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation.trusted(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = Permutation.identity(self.degree)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def orbits(self) -> list[tuple[int, ...]]:
        """Cycles of the permutation, fixed points included."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.orbits()), reverse=True))

    def order(self) -> int:
        return reduce(lcm, (len(c) for c in self.orbits()), 1)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)!r}, degree={self.degree})"


def mulclose(gens: Iterable[Permutation]) -> tuple[dict, list]:
    """Closure of the generators under composition, a BFS over new products
    refused at its first element past the group-order limit.  Returns the
    elements numbered as found (the identity is 0), and `left`, where
    left[a][k] numbers gens[a] * element k."""
    gens, most = list(gens), LIMITS["group order"]
    if not gens:
        raise ValueError("need at least one generator")
    frontier = [Permutation.identity(gens[0].degree)]
    index, left = {frontier[0]: 0}, [[] for _ in gens]
    while frontier:  # numbered layer by layer, in order: row[k] is element k's
        new = []
        for g, row in zip(gens, left):
            for x in frontier:
                c = g * x
                k = index.get(c)
                if k is None:
                    k = index[c] = len(index)
                    new.append(c)
                    if k >= most:  # compared inline: a hot loop
                        require("group order", k + 1)
                row.append(k)
        frontier = new
    return index, left


def _gathered_rows(rank: list[int], left: list
                   ) -> tuple[list[tuple[int, ...]], list[int]]:
    """The Cayley table of a `mulclose` walk, `rank` listing the found numbers
    in canonical order, and the generators' indices.  Row gens[a] * x is
    left[a] read along row x, and each element but the identity is such a
    product of one found before it."""
    pos = sorted(range(len(rank)), key=rank.__getitem__)  # rank's inverse
    lefts = [[pos[row[k]] for k in rank] for row in left]
    mul = [()] * len(rank)
    mul[0] = tuple(range(len(rank)))  # the identity is least and found first
    for p in pos:  # in the order found: row p is filled by now
        for lf in lefts:
            if not mul[lf[p]]:
                mul[lf[p]] = itemgetter(*mul[p])(lf)  # n >= 2 here: a tuple
    return mul, [lf[0] for lf in lefts]  # gens[a] = gens[a] * identity


def orbit_sizes(gens: Sequence[Permutation]) -> list[int]:
    """Orbit lengths of the group generated by permutations of one degree;
    the group's order is at least the longest."""
    left, sizes = set(range(gens[0].degree)), []
    while left:
        orbit = frontier = {left.pop()}
        while frontier:
            frontier = {g.images[x] for g in gens for x in frontier} - orbit
            orbit |= frontier
        left -= orbit
        sizes.append(len(orbit))
    return sizes


def _joined_rows(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]],
                 ints: list[int]) -> list[tuple[int, ...]]:
    """Cayley table of the direct product of the groups with tables `left`
    and `right`, (a, b) numbered a |right| + b, entries drawn from `ints`
    (list(range(n)) or longer), which every row shares.  Row (a, b) is the
    blocks of b, one per c = left[a][x] in order, where the block of (c, b)
    is c |right| + right[b][y] over y, gathered from `ints` once per b."""
    m = len(right)
    segments = [ints[c * m:(c + 1) * m] for c in range(len(left))]
    rows: list[tuple[int, ...]] = [()] * (len(left) * m)
    for b, row in enumerate(right):
        blocks = [tuple(map(seg.__getitem__, row)) for seg in segments]
        for a, lrow in enumerate(left):
            rows[a * m + b] = tuple(chain.from_iterable(map(blocks.__getitem__, lrow)))
    return rows


def _product_table(tables: Sequence[Sequence[Sequence[int]]],
                   ints: list[int]) -> Sequence[Sequence[int]]:
    """The direct product of the tables in mixed radix, the first factor most
    significant: two halves of balanced order, each a product in turn."""
    if len(tables) == 1:
        return tables[0]
    orders = [len(t) for t in tables]
    total, k = prod(orders), 1
    while k < len(orders) - 1 and prod(orders[:k + 1]) ** 2 <= total:
        k += 1
    return _joined_rows(_product_table(tables[:k], ints),
                        _product_table(tables[k:], ints), ints)


def bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


class GroupTable:
    """Cayley table of a group: the elements in canonical order (identity at
    0), `mul[i][j]` = index of elements[i] * elements[j], `inv`, and per
    element `order` and `ind` (degree minus orbit count); `gens` are the
    generator indices (greedy when none are given).  A group past the order
    limit is refused before `mul` is read.  `idx`, the index of each
    permutation, is built only when an edge asks for it.

    `minimal` is the bitmask of the minimal-index elements and
    `critical_prime` their common prime order; `sylow` holds the Sylow
    subgroups of a nilpotent group; `is_subgroup` is the one closure test
    for an index set.
    """

    def __init__(self, elements: Sequence[Permutation], mul: list[tuple[int, ...]],
                 gens: Sequence[int] | None = None):
        require("group order", len(elements))
        self.elements = tuple(elements)
        self.mul = mul
        self.order, self.inv = order, inv = [0] * len(mul), [0] * len(mul)
        for powers in (self.cyclic(i) for i, o in enumerate(order) if not o):
            for k, p in enumerate(powers):  # g^k has order |g| / gcd(|g|, k)
                order[p] = len(powers) // gcd(len(powers), k)
                inv[p] = powers[-k]  # and inverse g^(|g| - k)
        self.gens = self.generating_set() if gens is None else list(gens)

    @cached_property
    def idx(self) -> dict[Permutation, int]:
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def ind(self) -> list[int]:
        n = self.elements[0].degree
        if len(self.elements) == n and len({g(0) for g in self.elements}) == n:
            # regular: each orbit of <g> has |g| points
            return [n - n // o for o in self.order]
        return [g.degree - len(g.orbits()) for g in self.elements]

    @cached_property
    def minimal(self) -> int:
        """Bitmask of the non-identity elements of least index."""
        if len(self.ind) == 1:
            raise TrivialGroup("ind(G) needs a non-identity element")
        least = min(self.ind[1:])
        return sum(1 << i for i, a in enumerate(self.ind) if a == least)

    def critical_prime(self) -> int:
        """The order all minimal-index elements share, which must be prime."""
        orders = sorted({self.order[i] for i in bits(self.minimal)})
        if len(orders) != 1 or not is_prime(orders[0]):
            raise PropertyViolated(f"minimal-index elements have orders {orders}")
        return orders[0]

    @cached_property
    def exponent(self) -> int:
        return reduce(lcm, self.order, 1)

    @cached_property
    def sylow(self) -> dict[int, frozenset[int]]:
        """Per prime ell dividing |G|, the elements of ell-power order: the
        (normal, unique) Sylow subgroups of a nilpotent group.  NotNilpotent
        unless each set has full Sylow order and is a subgroup."""
        out = {}
        for ell in prime_factors(len(self.order)):
            size = ell ** valuation(len(self.order), ell)[0]
            part = frozenset(i for i, o in enumerate(self.order)
                             if valuation(o, ell)[1] == 1)
            if len(part) != size:
                raise NotNilpotent(
                    f"{ell}-elements form {len(part)} of {size} required")
            if not self.is_subgroup(part):
                raise NotNilpotent(f"{ell}-elements are not closed")
            out[ell] = part
        return out

    @cached_property
    def classes(self) -> list[list[int]]:
        """Conjugacy classes as index lists, ordered by their least member
        (listed first): orbits under conjugation by the generators."""
        seen = [False] * len(self.elements)
        classes = []
        for i in range(len(self.elements)):
            if not seen[i]:
                seen[i] = True
                classes.append([i])
                for x in classes[-1]:  # grows while it is scanned
                    for h in self.gens:
                        y = self.conj(h, x)
                        if not seen[y]:
                            seen[y] = True
                            classes[-1].append(y)
        return classes

    @cached_property
    def commutators(self) -> list[int]:
        """Per element g, the bitmask of its commutators g^-1 h^-1 g h with
        the generators h: gN is central in G/N, for N normal, exactly when
        this mask lies inside the mask of N."""
        mul, inv = self.mul, self.inv
        return [sum({1 << mul[inv[g]][mul[inv[h]][row[h]]] for h in self.gens})
                for g, row in enumerate(mul)]

    def closure(self, gens: Iterable[int], start: Iterable[int] = (0,)
                ) -> set[int]:
        """Smallest superset of `start` closed under right multiplication by
        `gens`: the subgroup <start, gens> when start is a subgroup."""
        mul, gens = self.mul, list(gens)
        els = set(start)
        frontier = list(els)
        for x in frontier:  # grows while it is scanned
            for y in map(mul[x].__getitem__, gens):
                if y not in els:
                    els.add(y)
                    frontier.append(y)
        return els

    def is_subgroup(self, members: Iterable[int]) -> bool:
        """Whether the index set S is a subgroup: <s_1, ..., s_j> stays in S."""
        S, gens, have = set(members), [], {0}
        for s in sorted(S):
            if s not in have:
                gens.append(s)
                have = self.closure(gens, have)
                if not have <= S:
                    return False
        return 0 in S

    def generating_set(self, members: Iterable[int] | None = None) -> list[int]:
        """Greedy generators of the subgroup `members` (default the whole
        group): each member, in canonical order, that the ones before it do
        not generate (the identity for the trivial group)."""
        gens, have = [], {0}
        for i in range(len(self.elements)) if members is None else sorted(members):
            if i not in have:
                gens.append(i)
                have = self.closure(gens, have)
        return gens or [0]

    def cyclic(self, i: int) -> list[int]:
        """The powers 1, g, g^2, ... of element i, up to its order."""
        out = [i]
        while out[-1]:
            out.append(self.mul[out[-1]][i])
            if len(out) > len(self.mul):
                raise PropertyViolated("not a group: no power reaches 1")
        return out[-1:] + out[:-1]

    def power(self, i: int, k: int) -> int:
        return self.cyclic(i)[k % self.order[i]]

    def conj(self, h: int, x: int) -> int:
        """h x h^-1."""
        return self.mul[self.mul[h][x]][self.inv[h]]

    def center(self) -> list[int]:
        # commuting with every generator is commuting with everything
        mul = self.mul
        return [i for i, row in enumerate(mul)
                if all(row[g] == mul[g][i] for g in self.gens)]

    def is_normal(self, sub: Iterable[int]) -> bool:
        sub = set(sub)
        return all(self.conj(g, x) in sub for g in self.gens for x in sub)

    def normal_closure(self, seeds: Iterable[int]) -> set[int]:
        """Smallest normal subgroup containing the seeds."""
        gens = sorted(set(seeds))
        H = self.closure(gens)
        # H is normal once the conjugates of its generators stay inside
        while extra := {self.conj(g, s) for g in self.gens for s in gens} - H:
            gens += sorted(extra)
            H = self.closure(gens, H)
        return H

    @cached_property
    def commutator(self) -> frozenset[int]:
        """The commutator subgroup [G, G]: the normal closure of the
        commutators of the generators."""
        mul, inv = self.mul, self.inv
        return frozenset(self.normal_closure(
            mul[mul[inv[a]][inv[b]]][mul[a][b]]
            for a in self.gens for b in self.gens))

    def ell_kernel(self, ell: int) -> set[int]:
        """G'G^ell, the common kernel of every map G -> C_ell: the commutator
        subgroup closed under the ell-th powers, which generate the normal
        subgroup G^ell."""
        powers = {self.power(g, ell) for g in range(len(self.mul))}
        return self.closure(powers, self.commutator)

    def subset(self, idx: Iterable[int]) -> frozenset[Permutation]:
        return frozenset(map(self.elements.__getitem__, idx))


class PermGroup:
    """A finite permutation group with its full element list.

    `elements` is sorted lexicographically by image table, so the identity is
    always `elements[0]` and iteration order is canonical.  `table`, the
    group's `GroupTable`, comes with a group built from its table; a
    generated group keeps its closure's walk and gathers it on first use.
    """

    __slots__ = ("degree", "generators", "elements", "_table")

    def __init__(self, generators: Sequence[Permutation],
                 elements: Sequence[Permutation], table: GroupTable | tuple):
        self.degree = elements[0].degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._table = table  # the GroupTable, or the walk it is gathered from

    @classmethod
    def generate(cls, gens: Sequence[Permutation]) -> "PermGroup":
        gens = list(gens)
        index, left = mulclose(gens)  # DegreeMismatch at the first product
        found = list(index)
        rank = sorted(range(len(found)), key=lambda k: found[k].images)
        return cls(gens, [found[k] for k in rank], (rank, left))

    @classmethod
    def from_elements(cls, elements: Iterable[Permutation]) -> "PermGroup":
        """The group with these elements, by the greedy closure: each element,
        in canonical order, that the ones before it do not generate is closed
        with them (the greedy `GroupTable.generating_set`), and ValueError as
        soon as a closure leaves the set."""
        members = set(elements)
        elems = sorted(members)
        if not elems:
            raise ValueError("empty element collection")
        if len({g.degree for g in elems}) > 1:
            raise DegreeMismatch("elements of different degrees")
        gens, group = [], cls.generate([Permutation.identity(elems[0].degree)])
        have = {group.identity}
        for g in elems:
            if g not in have:
                gens.append(g)
                group = cls.generate(gens)
                have = set(group.elements)
                if not have <= members:
                    raise ValueError("element collection is not multiplicatively closed")
        return group

    @classmethod
    def regular(cls, rows: Sequence[Sequence[int]],
                generators: Sequence[int] | None = None) -> "PermGroup":
        """The left regular action of the group with Cayley table `rows` on
        indices: element i is rows[i], in canonical order, and `rows` is
        `table.mul`.  The one check that a table is a group, PropertyViolated
        if not: row and column 0 are the identity, rows are permutations, and
        generators (greedy, or the given indices) reach all and pass Light's test."""
        points = list(range(len(rows)))
        if not rows or list(rows[0]) != points or any(
                sorted(r) != points or r[0] != i for i, r in enumerate(rows)):
            raise PropertyViolated("not a Cayley table on 0..n-1 with identity 0")
        group = cls._on_table([tuple(r) for r in rows], generators)
        rows = group.table.mul
        for g in set(group.table.gens) - {0}:  # Light's test: a(gx) = (ag)x
            get = itemgetter(*rows[g])  # a -> a(gx) over all x, as a tuple
            if any(get(r) != rows[r[g]] for r in rows):
                raise PropertyViolated("rows fail Light's associativity test")
        return group

    @classmethod
    def product(cls, *groups: "PermGroup",
                generators: Sequence[int] | None = None) -> "PermGroup":
        """The direct product of the groups, acting regularly on its table:
        (i_1, ..., i_r) is numbered in mixed radix, the first factor most
        significant, which is canonical order.  Each factor's table was
        proved a group when the factor was built (`regular`'s check or
        `generate`'s closure), so their product is one by construction and
        gets no check of its own, bar the given generators reaching all."""
        if not groups:
            raise ValueError("need at least one factor")
        n = prod(G.order for G in groups)
        require("group order", n)
        rows = _product_table([G.table.mul for G in groups], list(range(n)))
        return cls._on_table(list(rows), generators)

    @classmethod
    def _on_table(cls, rows: list[tuple[int, ...]],
                  generators: Sequence[int] | None) -> "PermGroup":
        """The regular group of a Cayley table known to be a Latin square with
        identity 0; PropertyViolated if the generators miss an element."""
        els = [Permutation.trusted(r) for r in rows]
        T = GroupTable(els, rows, generators)
        if len(T.closure(T.gens)) < len(rows):
            raise PropertyViolated("the generators miss an element")
        return cls([els[g] for g in T.gens], els, T)

    @property
    def table(self) -> GroupTable:
        if not isinstance(self._table, GroupTable):  # the walk: gather it
            self._table = GroupTable(self.elements, *_gathered_rows(*self._table))
        return self._table

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __contains__(self, p: Permutation) -> bool:
        return p in self.table.idx

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_transitive(self) -> bool:
        return len(orbit_sizes(self.generators)) == 1

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class: canonical representative plus the member set."""

    representative: Permutation
    members: frozenset[Permutation]
    element_order: int

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(G: PermGroup) -> list[ConjClass]:
    """Conjugacy classes sorted by canonical representative."""
    T = G.table
    return [ConjClass(T.elements[c[0]], T.subset(c), T.order[c[0]])
            for c in T.classes]


def center(G: PermGroup) -> frozenset[Permutation]:
    return G.table.subset(G.table.center())


def quotient_with_map(G: PermGroup, N: Iterable[int]
                      ) -> tuple[PermGroup, list[int]]:
    """Quotient G/N by the index set N, as a permutation group on left
    cosets, plus the map: coset[g] is the index in G/N of element g.

    Cosets are ordered by their minimal member, and the quotient acts on
    them by left translation (the regular action of G/N).
    """
    T, nidx = G.table, set(N)
    if 0 not in nidx:
        raise NotNormal("kernel does not contain the identity")
    if not nidx <= set(range(G.order)) or not T.is_subgroup(nidx):
        raise NotNormal("kernel is not a subgroup")
    if not T.is_normal(nidx):
        raise NotNormal("kernel is not normal")

    coset = [-1] * len(T.elements)
    reps: list[int] = []
    for g, row in enumerate(T.mul):
        if coset[g] < 0:
            for k in nidx:
                coset[row[k]] = len(reps)
            reps.append(g)
    # g acts on the cosets as any member of its coset does
    Q = PermGroup.regular([[coset[T.mul[r][s]] for s in reps] for r in reps],
                          [coset[g] for g in T.gens])
    return Q, coset


def abelianization_rank(G: PermGroup, ell: int) -> int:
    """ell-rank of the maximal abelian quotient G/[G,G]: the r with
    [G : G'G^ell] = ell^r (`GroupTable.ell_kernel`)."""
    if not is_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    rank, rest = valuation(G.order // len(G.table.ell_kernel(ell)), ell)
    if rest != 1:
        raise PropertyViolated(f"ell-power index expected, got residue {rest}")
    return rank


# cycle notation (1-based points, CLI-shared input format)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like "(1,2,3,4)(5,6)" with 1-based points."""
    body = text.strip()
    cycles: list[list[int]] = []
    rest = _CYCLE_RE.sub("", body)
    if rest.strip():
        raise ValueError(f"unparsable cycle notation: {text!r}")
    for m in _CYCLE_RE.finditer(body):
        inner = m.group(1).strip()
        if not inner:
            continue
        pts = [int(tok) for tok in re.split(r"[,\s]+", inner) if tok]
        if any(p < 1 for p in pts):
            raise ValueError("points are 1-based")
        cycles.append(pts)
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise ValueError(f"cycles are not disjoint: {text!r}")
    n = max(flat, default=0)
    if degree is not None:
        if degree < n:
            raise ValueError(f"degree {degree} smaller than max point {n}")
        n = degree
    if n == 0:
        raise ValueError("cannot infer degree of the identity; pass degree=")
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return Permutation(images)


def parse_generators(text: str, degree: int | None = None) -> list[Permutation]:
    """Parse ';'-separated cycle notation into same-degree permutations."""
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if not parts:
        raise ValueError("no generators given")
    if degree is None:
        degree = 0
        for part in parts:
            pts = [int(tok) for m in _CYCLE_RE.finditer(part)
                   for tok in re.split(r"[,\s]+", m.group(1).strip()) if tok]
            degree = max(degree, max(pts, default=0))
    return [parse_permutation(part, degree=degree) for part in parts]


def cycle_string(p: Permutation) -> str:
    cycles = [c for c in p.orbits() if len(c) > 1]
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles)
