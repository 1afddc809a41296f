"""Sylow decomposition of transitive nilpotent permutation groups.

A transitive nilpotent group is a natural direct product of its Sylow
subgroups acting on blocks; a(G) is then the maximum of a(G_ell)*n_ell/n
over the primes, attained exactly once, and all elements of minimal index
share one prime order (the critical prime).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NotNilpotent, NotTransitive, PropertyViolated, TrivialGroup
from .malle import min_index
from .intmath import prime_factors, valuation
from .permcore import PermGroup, Permutation


def natural_product(G1: PermGroup, G2: PermGroup) -> PermGroup:
    """Direct product acting coordinatewise on the point grid.

    Point (i, j) is numbered i*n2 + j; the result has degree n1*n2 and order
    |G1|*|G2|, and is transitive when both factors are.
    """
    if G1.degree < 2 or G2.degree < 2:
        raise ValueError("natural product needs degrees > 1")
    n1, n2 = G1.degree, G2.degree

    def pair_perm(g1: Permutation, g2: Permutation) -> Permutation:
        return Permutation.trusted(tuple(g1.images[i] * n2 + g2.images[j]
                                         for i in range(n1) for j in range(n2)))

    id1, id2 = G1.identity, G2.identity
    gens = ([pair_perm(g, id2) for g in G1.generators]
            + [pair_perm(id1, g) for g in G2.generators])
    return PermGroup.generate(gens)


def sylow_subgroup_sets(G: PermGroup) -> dict[int, frozenset[Permutation]]:
    """The elements of prime-power order, per prime, with nilpotency checks.

    In a nilpotent group these sets are the (normal, unique) Sylow subgroups;
    the check is that each has full Sylow size and is a subgroup.
    """
    order, T = G.order, G.table
    out: dict[int, frozenset[Permutation]] = {}
    for ell in prime_factors(order):
        size = ell ** valuation(order, ell)[0]
        part = {i for i, o in enumerate(T.order)
                if all(p == ell for p in prime_factors(o))}
        if len(part) != size:
            raise NotNilpotent(
                f"{ell}-elements form {len(part)} of {size} required")
        if not T.is_subgroup(part):
            raise NotNilpotent(f"{ell}-elements are not closed")
        out[ell] = T.subset(part)
    return out


def is_nilpotent(G: PermGroup) -> bool:
    try:
        sylow_subgroup_sets(G)
    except NotNilpotent:
        return False
    return True


@dataclass(frozen=True)
class SylowDecomposition:
    factors: tuple[tuple[int, PermGroup], ...]
    critical_prime: int
    a_value: Fraction


def sylow_decompose(G: PermGroup) -> SylowDecomposition:
    """Block decomposition of a transitive nilpotent group into Sylow factors.

    The factor at ell is the Sylow ell-subgroup acting on the orbits of the
    ell-complement (orbits ordered by minimal point).  The grid of all those
    orbit coordinates recovers the natural direct product structure.
    """
    if not G.is_transitive:
        raise NotTransitive("Sylow block decomposition needs transitivity")
    if G.order == 1:
        raise TrivialGroup("trivial group has no critical prime")
    sylows = sylow_subgroup_sets(G)
    n = G.degree
    factors: list[tuple[int, PermGroup]] = []
    for ell in sorted(sylows):
        n_ell = ell ** valuation(n, ell)[0]
        if len(sylows) == 1:
            factors.append((ell, G))
            continue
        complement = [g for g, o in zip(G.elements, G.table.order)
                      if gcd(o, ell) == 1]
        orbit_of, n_blocks = [-1] * n, 0
        for x in range(n):  # the complement is a subgroup: orbits are x^H
            if orbit_of[x] < 0:
                for g in complement:
                    orbit_of[g(x)] = n_blocks
                n_blocks += 1
        if n_blocks != n_ell:
            raise NotNilpotent(
                f"{ell}-complement has {n_blocks} orbits, expected {n_ell}")
        images = set()
        for g in sylows[ell]:
            img = [None] * n_blocks
            for x in range(n):
                img[orbit_of[x]] = orbit_of[g(x)]
            images.add(Permutation.trusted(tuple(img)))
        if len(images) != len(sylows[ell]):
            raise NotNilpotent(f"block action of the {ell}-Sylow is not faithful")
        factors.append((ell, PermGroup.from_elements(images)))

    best: tuple[Fraction, int] | None = None
    for ell, G_ell in factors:
        val = Fraction(G_ell.degree, n * min_index(G_ell)[0])
        if best is not None and val == best[0]:
            raise PropertyViolated("two Sylow factors tie for the maximum")
        if best is None or val > best[0]:
            best = (val, ell)
    return SylowDecomposition(tuple(factors), best[1], best[0])


def critical_prime_check(G: PermGroup) -> int:
    """The common (prime) order of all minimal-index elements."""
    if not G.is_transitive:
        raise NotTransitive("critical prime needs transitivity")
    sylow_subgroup_sets(G)  # raises NotNilpotent when it fails
    return G.table.critical_prime()
