"""Exact permutation arithmetic, and finite groups on one cached Cayley table.

A `PermGroup` keeps its full element list (default cap 20000) sorted by
image table, identity first; that canonical order breaks every tie
downstream.  Every group algorithm (classes, centers, normal closures,
quotients, and elsewhere isomorphism search, pair products and refinement
search) runs on the group's `GroupTable`: the same elements in the same
order with integer multiplication and inverse tables, built on first use
and cached on the group instance, so it dies with its group.  The table is
filled from a base (one point for a regular group) in O(|G|^2 |base|)
lookups; full-degree products are formed only to close generators
(`mulclose`) and to check a claimed element set (`from_elements`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (CapExceeded, DegreeMismatch, NotNormal, NotPrime,
                     PropertyViolated)
from .intmath import is_prime, valuation

DEFAULT_CAP = 20_000


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


def mulclose(gens: Iterable[Permutation], cap: int | None = None) -> set[Permutation]:
    """Closure of the generators under composition (BFS over new products)."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    els: set[Permutation] = {Permutation.identity(gens[0].degree)}
    els.update(gens)
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if cap is not None and len(els) > cap:
                        raise CapExceeded(f"closure exceeds cap {cap}")
        frontier = new
    return els


def _base(elements: Sequence[Permutation]) -> list[int]:
    """Points, taken in order, whose images separate the elements."""
    base, keys = [], [()] * len(elements)
    for p in range(elements[0].degree):
        trial = [k + (g.images[p],) for k, g in zip(keys, elements)]
        if len(set(trial)) > len(set(keys)):
            base.append(p)
            keys = trial
            if len(set(keys)) == len(elements):
                break
    return base or [0]


class GroupTable:
    """Cayley table of a group: the elements in canonical order (identity at
    0), `idx`, `mul[i][j]` = index of elements[i] * elements[j], `inv`, and
    per element `order` and `ind` (degree minus orbit count); `gens` are the
    generator indices.  `mul` is filled from a base, so each product is one
    lookup of the base images of b under a; a product outside the element
    set raises KeyError.
    """

    def __init__(self, elements: Sequence[Permutation],
                 generators: Sequence[Permutation] | None = None):
        self.elements = elements = tuple(elements)
        self.idx = {g: i for i, g in enumerate(elements)}
        base = _base(elements)
        cols = [itemgetter(*base)(g.images) for g in elements]
        at = {c: i for i, c in enumerate(cols)}
        getters = [itemgetter(*c) if len(base) > 1 else itemgetter(c) for c in cols]
        self.mul = mul = [[at[get(a.images)] for get in getters] for a in elements]
        self.inv = [row.index(0) for row in mul]
        self.order = [len(self.cyclic(i)) for i in range(len(elements))]
        self.gens = (self.generating_set() if generators is None
                     else [self.idx[g] for g in generators])

    @cached_property
    def ind(self) -> list[int]:
        return [g.degree - len(g.orbits()) for g in self.elements]

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

    def generating_set(self) -> list[int]:
        """Greedy generators: each element, in canonical order, that the
        ones before it do not generate (the identity for the trivial group)."""
        gens, have = [], {0}
        for i in range(len(self.elements)):
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
                raise ValueError("not a group: no power reaches 1")
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

    def commutator(self) -> set[int]:
        mul, inv = self.mul, self.inv
        return self.normal_closure(mul[mul[inv[a]][inv[b]]][mul[a][b]]
                                   for a in self.gens for b in self.gens)

    def subset(self, idx: Iterable[int]) -> frozenset[Permutation]:
        return frozenset(self.elements[i] for i in idx)


class PermGroup:
    """A finite permutation group with its full element list.

    `elements` is sorted lexicographically by image table, so the identity is
    always `elements[0]` and iteration order is canonical.  `table` is the
    group's `GroupTable`, built on first use and cached on the instance.
    """

    __slots__ = ("degree", "generators", "elements", "_elemset", "_transitive",
                 "_table")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._elemset = frozenset(self.elements)
        self._transitive: bool | None = None
        self._table: GroupTable | None = None
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("element list must contain the identity")

    @classmethod
    def generate(cls, gens: Sequence[Permutation], cap: int = DEFAULT_CAP) -> "PermGroup":
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(f"degree {g.degree} vs {degree}")
        return cls(degree, gens, mulclose(gens, cap=cap))

    @classmethod
    def from_elements(cls, elements: Iterable[Permutation]) -> "PermGroup":
        """Build a group from a set already closed under composition.

        The table is filled assuming closure, then checked in the columns of
        the greedy generators, which reach every element: a set closed under
        right multiplication by them is the group they generate.
        """
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("empty element collection")
        if len({g.degree for g in elems}) > 1:
            raise DegreeMismatch("elements of different degrees")
        try:
            table = GroupTable(elems) if elems[0].is_identity() else None
        except (KeyError, ValueError):
            table = None
        if table is None or any(x * elems[g] != elems[table.mul[j][g]]
                                for g in table.gens for j, x in enumerate(elems)):
            raise ValueError("element collection is not multiplicatively closed")
        group = cls(elems[0].degree, [elems[g] for g in table.gens], elems)
        group._table = table
        return group

    @property
    def table(self) -> GroupTable:
        if self._table is None:
            self._table = GroupTable(self.elements, self.generators)
        return self._table

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __contains__(self, p: Permutation) -> bool:
        return p in self._elemset

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_transitive(self) -> bool:
        if self._transitive is None:
            orbit = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for g in self.generators:
                    y = g(x)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            self._transitive = len(orbit) == self.degree
        return self._transitive

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


def _indices(T: GroupTable, elements: Iterable[Permutation]) -> set[int] | None:
    """Indices of the given elements, or None when one lies outside T."""
    idx = {T.idx.get(g) for g in elements}
    return None if None in idx else idx


def is_normal(G: PermGroup, N: Iterable[Permutation]) -> bool:
    nidx = _indices(G.table, N)
    return nidx is not None and G.table.is_normal(nidx)


def commutator_subgroup(G: PermGroup) -> frozenset[Permutation]:
    return G.table.subset(G.table.commutator())


def quotient_with_map(G: PermGroup, N: Iterable[Permutation]
                      ) -> tuple[PermGroup, dict[Permutation, Permutation]]:
    """Quotient G/N as a permutation group on left cosets, plus the map.

    Cosets are ordered by their minimal member, and the quotient acts on
    them by left translation (the regular action of G/N).
    """
    T = G.table
    nset = frozenset(N)
    if G.identity not in nset:
        raise NotNormal("kernel does not contain the identity")
    nidx = _indices(T, nset)
    if nidx is None or T.closure(nidx) != nidx:
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
    images = [Permutation.trusted(tuple(coset[T.mul[r][s]] for s in reps))
              for r in reps]
    kappa = {g: images[c] for g, c in zip(T.elements, coset)}
    Q = PermGroup(len(reps), [kappa[g] for g in G.generators], images)
    return Q, kappa


def quotient(G: PermGroup, N: Iterable[Permutation]) -> PermGroup:
    return quotient_with_map(G, N)[0]


def element_order(g: Permutation) -> int:
    return g.order()


def exponent(G: PermGroup) -> int:
    return reduce(lcm, G.table.order, 1)


def abelianization_rank(G: PermGroup, ell: int) -> int:
    """ell-rank of the maximal abelian quotient G/[G,G]."""
    if not is_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    Q = quotient(G, commutator_subgroup(G))
    powers = {Q.table.power(q, ell) for q in range(Q.order)}
    rank, rest = valuation(Q.order // len(powers), ell)
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
