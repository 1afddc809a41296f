"""Conjectural counting invariants of transitive permutation groups.

ind(g) is the degree minus the number of orbits of g; a(G) is the reciprocal
of the minimal nonzero index; b(k,G) counts k-conjugacy classes of minimal
index, where the base field acts on conjugacy classes through its cyclotomic
character (the power maps C -> C^m).  All arithmetic is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping

from .errors import PropertyViolated, UnsupportedModulus
from .permcore import ConjClass, PermGroup, Permutation, conjugacy_classes


@dataclass(frozen=True)
class BaseFieldData:
    """Abstract descriptor of a base field k.

    Only the data the counting formulas consume is kept: the degree, the
    number of real places, class-group ell-ranks, and the image of the
    cyclotomic character as a subgroup of (Z/eZ)^* given by generators per
    modulus e.  `rationals()` is the preset for k = Q, whose cyclotomic image
    is the full unit group at every modulus.
    """

    degree: int = 1
    real_places: int = 1
    class_rank: Mapping[int, int] = field(default_factory=dict)
    cyclo_generators: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    is_rationals: bool = False

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not 0 <= self.real_places <= self.degree:
            raise ValueError("real places must lie between 0 and the degree")
        for ell, rk in self.class_rank.items():
            if rk < 0:
                raise ValueError(f"negative class rank at {ell}")
        for e, gens in self.cyclo_generators.items():
            if e < 1:
                raise ValueError(f"modulus {e} is not positive")
            for a in gens:
                if gcd(a % e, e) != 1:
                    raise ValueError(f"{a} is not a unit modulo {e}")

    @classmethod
    def rationals(cls) -> "BaseFieldData":
        return cls(degree=1, real_places=1, is_rationals=True)

    def cyclo_subgroup(self, modulus: int) -> frozenset[int]:
        """Image of the cyclotomic character in (Z/modulus)^*."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if modulus <= 2:
            return frozenset({modulus - 1})  # the trivial unit group
        if self.is_rationals:
            return frozenset(a for a in range(1, modulus) if gcd(a, modulus) == 1)
        if modulus not in self.cyclo_generators:
            raise UnsupportedModulus(
                f"no cyclotomic data for modulus {modulus}; "
                "supply generators for it")
        sub = {1}
        frontier = [1]
        gens = [a % modulus for a in self.cyclo_generators[modulus]]
        while frontier:
            x = frontier.pop()
            for a in gens:
                y = (x * a) % modulus
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
        return frozenset(sub)

    def n_ell(self, ell: int, modulus: int) -> int:
        """[k(zeta_ell):k], read off as the size of the image mod ell."""
        if ell == 2:
            return 1
        if self.is_rationals:
            return ell - 1
        if modulus % ell:
            raise UnsupportedModulus(f"{ell} does not divide the modulus {modulus}")
        image = {a % ell for a in self.cyclo_subgroup(modulus)}
        return len(image)

    def rk(self, ell: int) -> int:
        return self.class_rank.get(ell, 0)

    def to_json(self) -> str:
        if self.is_rationals:
            return json.dumps("Q")
        return json.dumps({
            "degree": self.degree,
            "real_places": self.real_places,
            "class_rank": {str(k): v for k, v in sorted(self.class_rank.items())},
            "cyclo_generators": {str(k): list(v)
                                 for k, v in sorted(self.cyclo_generators.items())},
        })

    @classmethod
    def from_json(cls, text: str) -> "BaseFieldData":
        """Parse `to_json` output; any other shape is a ValueError."""
        obj = json.loads(text)
        if obj == "Q":
            return cls.rationals()
        try:
            ranks, gens = obj.get("class_rank", {}), obj.get("cyclo_generators", {})
            values = [obj["degree"], obj["real_places"], *ranks.values(),
                      *(a for v in gens.values() for a in v)]
            if any(type(v) is not int for v in values):  # no silent int(1.5)
                raise TypeError("field data must be integers")
            ranks = {int(k): v for k, v in ranks.items()}
            gens = {int(k): tuple(v) for k, v in gens.items()}
        except (TypeError, KeyError, AttributeError) as e:
            raise ValueError(f"malformed base-field JSON: {e!r}") from None
        return cls(degree=obj["degree"], real_places=obj["real_places"],
                   class_rank=ranks, cyclo_generators=gens)


@dataclass(frozen=True)
class KClass:
    """A Galois orbit of conjugacy classes under the power-map action."""

    classes: tuple[ConjClass, ...]
    min_index: int


def ind(g: Permutation) -> int:
    """Degree minus the number of orbits; zero exactly for the identity."""
    return g.degree - len(g.orbits())


def min_index(G: PermGroup) -> tuple[int, Fraction]:
    """(ind(G), a(G)) with a(G) = 1/ind(G) as an exact rational."""
    ind_G = G.table.ind[G.table.minimal.bit_length() - 1]
    return ind_G, Fraction(1, ind_G)


def _class_orbits(G: PermGroup, k: BaseFieldData) -> list[tuple[list[int], int]]:
    """Orbits of the conjugacy classes under C -> C^m, m in the cyclotomic
    image, as sorted positions in `G.table.classes`, each with the index
    its classes share."""
    T = G.table
    class_of = {g: i for i, c in enumerate(T.classes) for g in c}
    powers = sorted(k.cyclo_subgroup(T.exponent))
    seen, out = set(), []
    for i, c in enumerate(T.classes):
        if i in seen:
            continue
        cyc = T.cyclic(c[0])
        orbit = {class_of[cyc[m % len(cyc)]] for m in powers}
        seen |= orbit
        indices = {T.ind[T.classes[j][0]] for j in orbit}
        if len(indices) != 1:
            raise PropertyViolated("power maps changed the index of a class")
        out.append((sorted(orbit), indices.pop()))
    return out


def k_classes(G: PermGroup, k: BaseFieldData) -> list[KClass]:
    """Orbits of the conjugacy classes under C -> C^m, m in the cyclotomic image."""
    classes = conjugacy_classes(G)  # by representative, as in the table
    return [KClass(tuple(map(classes.__getitem__, orbit)), index)
            for orbit, index in _class_orbits(G, k)]


def b_constant(G: PermGroup, k: BaseFieldData) -> int:
    """Number of k-conjugacy classes of minimal index."""
    ind_G, _ = min_index(G)
    return sum(index == ind_G for _, index in _class_orbits(G, k))
