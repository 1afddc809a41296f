"""Named group catalog shared by the CLI and the verification suites.

Cyclic groups and presentations (quaternion, dihedral, Heisenberg) are
built as Cayley tables and realized as their regular action
(`regular_permutation_group`), and abelian
groups as the direct product of cyclic ones (`PermGroup.product`); the mixed
products Q8xC3_S24 and D4xC3_S12 are natural products.  Every
entry records its expected invariants where those are pinned.  A pattern
past `LIMITS["group order"]`, or raw cycles with a longer orbit, are
refused before any permutation is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Hashable

from .errors import require
from .nilpotent import natural_product
from .permcore import PermGroup, Permutation, orbit_sizes, parse_generators


def regular_permutation_group(items: list, mul: Callable
                              ) -> tuple[PermGroup, dict[Hashable, Permutation]]:
    """Realize an explicitly listed group through left translation: item i
    of the sorted `items` maps to element i.  `items` must be a group under
    `mul` with the least item as its identity, or PropertyViolated.  Used
    for the presentations below."""
    items = sorted(items)
    index = {x: i for i, x in enumerate(items)}
    group = PermGroup.regular([[index.get(mul(x, y), -1) for y in items]
                               for x in items])
    return group, dict(zip(items, group.elements))


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    points = list(range(n))
    return PermGroup.regular([points[i:] + points[:i] for i in range(n)])


def symmetric3() -> PermGroup:
    return PermGroup.generate(parse_generators("(1,2,3);(1,2)"))


def dihedral4_s4() -> PermGroup:
    return PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))


def dihedral4_regular() -> PermGroup:
    # elements x^i s^j with x^4 = s^2 = 1, s x s = x^-1
    items = [(i, j) for i in range(4) for j in range(2)]

    def mul(p, q):
        i1, j1 = p
        i2, j2 = q
        if j1 == 0:
            return ((i1 + i2) % 4, j2)
        return ((i1 - i2) % 4, 1 - j2)

    return regular_permutation_group(items, mul)[0]


def generalized_quaternion(two_n: int) -> PermGroup:
    """Q_{4n} for 2n = two_n: <x, y | x^{2n} = 1, x^n = y^2, y^-1 x y = x^-1>,
    acting regularly on its 4n elements x^i y^j."""
    if two_n < 4 or two_n % 2:
        raise ValueError("need an even 2n >= 4")
    n = two_n // 2
    items = [(i, j) for i in range(two_n) for j in range(2)]

    def mul(p, q):
        i1, j1 = p
        i2, j2 = q
        if j1 == 0:
            return ((i1 + i2) % two_n, j2)
        # y x^i = x^-i y, and y^2 = x^n
        if j2 == 0:
            return ((i1 - i2) % two_n, 1)
        return ((i1 - i2 + n) % two_n, 0)

    return regular_permutation_group(items, mul)[0]


def heisenberg3() -> PermGroup:
    """Upper unitriangular 3x3 matrices over F_3, acting regularly."""
    items = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def mul(p, q):
        return ((p[0] + q[0]) % 3, (p[1] + q[1]) % 3,
                (p[2] + q[2] + p[0] * q[1]) % 3)

    return regular_permutation_group(items, mul)[0]


def abelian(*orders: int) -> PermGroup:
    """C_n1 x C_n2 x ... acting regularly on the product of the cyclic tables,
    e.g. abelian(4, 2) on 8 points, with the natural product's elements and
    generators; a single factor is `cyclic(n)`."""
    groups = [cyclic(n) for n in orders]
    if len(groups) == 1:
        return groups[0]
    if min(orders) < 2:
        raise ValueError("every cyclic factor needs order at least 2")
    gens = [prod(orders[i + 1:]) for i in range(len(orders))]  # C_n by 1
    return PermGroup.product(*groups, generators=gens)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable[[], PermGroup]
    description: str
    nilpotent: bool = True
    expected: dict = field(default_factory=dict)

    def group(self) -> PermGroup:
        return self.build()


_ENTRIES: list[CatalogEntry] = [
    CatalogEntry("Q8", lambda: generalized_quaternion(4),
                 "quaternion group, regular on 8 points",
                 expected={"ind": 4, "a": "1/4", "b": 1, "d_opt": 1,
                           "min_index_central": True}),
    CatalogEntry("Q16", lambda: generalized_quaternion(8),
                 "generalized quaternion of order 16, regular",
                 expected={"d_opt": 1, "min_index_central": True}),
    CatalogEntry("Q32", lambda: generalized_quaternion(16),
                 "generalized quaternion of order 32, regular",
                 expected={"d_opt": 1, "min_index_central": True}),
    CatalogEntry("D4_S4", dihedral4_s4,
                 "dihedral of order 8 on 4 points (square symmetries)",
                 expected={"ind": 1, "a": "1", "d_opt": 2,
                           "min_index_central": False}),
    CatalogEntry("D4_S8", dihedral4_regular,
                 "dihedral of order 8, regular on 8 points",
                 expected={"ind": 4, "a": "1/4", "b": 3, "d_opt": 5,
                           "d_worst": 7, "min_index_central": False}),
    CatalogEntry("C4xC2_S8", lambda: abelian(4, 2),
                 "abelian of type (4,2), regular on 8 points",
                 expected={"ind": 4, "b": 3, "d_opt": 3, "d_worst": 5,
                           "min_index_central": True}),
    CatalogEntry("V4_S4", lambda: abelian(2, 2),
                 "Klein four group, regular on 4 points",
                 expected={"ind": 2, "d_opt": 3, "min_index_central": True}),
    CatalogEntry("Heis27", heisenberg3,
                 "extraspecial group of order 27 and exponent 3, regular",
                 expected={"min_index_central": False}),
    CatalogEntry("Q8xC3_S24", lambda: natural_product(generalized_quaternion(4),
                                                      cyclic(3)),
                 "natural product Q8 x C3 on 24 points",
                 expected={"min_index_central": True}),
    CatalogEntry("D4xC3_S12", lambda: natural_product(dihedral4_s4(), cyclic(3)),
                 "natural product (D4 on 4 points) x C3 on 12 points",
                 expected={"min_index_central": False}),
    CatalogEntry("S3", symmetric3,
                 "symmetric group on 3 points (not nilpotent)",
                 nilpotent=False, expected={}),
]

CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}

_PATTERN_RE = re.compile(r"^C\d+(?:xC\d+)*$")


def resolve(name: str) -> CatalogEntry | None:
    """Catalog entry for a name, including the Cn / CnxCm... patterns.

    A pattern past the group-order limit raises BudgetExceeded here, before
    any of its permutations is built.
    """
    if name in CATALOG:
        return CATALOG[name]
    if _PATTERN_RE.match(name):
        orders = tuple(int(x) for x in name[1:].split("xC"))
        require("group order", prod(orders))
        return CatalogEntry(name, lambda: abelian(*orders),
                            "abelian group of type " + str(orders))
    return None


def get_group(spec: str, degree: int | None = None) -> tuple[str, PermGroup]:
    """Resolve a CLI group argument: catalog name, Cn pattern, or raw cycles."""
    entry = resolve(spec)
    if entry is not None:
        return entry.name, entry.group()
    if "(" in spec:
        gens = parse_generators(spec, degree=degree)
        require("group order", max(orbit_sizes(gens)))  # a lower bound on |G|
        return "custom", PermGroup.generate(gens)
    raise ValueError(f"unknown group {spec!r} (not a catalog name or cycle string)")


def nilpotent_catalog() -> list[tuple[str, PermGroup]]:
    """The named nilpotent groups plus a spread of abelian ones, order <= 64."""
    names = ["Q8", "Q16", "Q32", "D4_S4", "D4_S8", "C4xC2_S8", "V4_S4",
             "Heis27", "Q8xC3_S24", "D4xC3_S12",
             "C2", "C3", "C4", "C5", "C6", "C8", "C9", "C12", "C27",
             "C2xC2xC2", "C3xC3", "C9xC3", "C4xC4"]
    return [(n, resolve(n).group()) for n in names]
