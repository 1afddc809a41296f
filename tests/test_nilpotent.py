from fractions import Fraction
from math import gcd

import pytest

from nilcount.catalog import abelian, cyclic, dihedral4_s4, generalized_quaternion, resolve
from nilcount.errors import NotNilpotent, NotTransitive, TrivialGroup
from nilcount.malle import ind, min_index
from nilcount.nilpotent import (critical_prime_check, is_nilpotent,
                                natural_product, sylow_decompose)
from nilcount.permcore import PermGroup, parse_generators


def test_natural_product_c2_c3():
    G = natural_product(cyclic(2), cyclic(3))
    assert G.degree == 6 and G.order == 6
    assert G.is_transitive
    assert sorted(g.order() for g in G.elements) == [1, 2, 3, 3, 6, 6]


def test_natural_product_q8_c3():
    G = natural_product(generalized_quaternion(4), cyclic(3))
    assert G.degree == 24 and G.order == 24
    assert G.is_transitive


def test_natural_product_rejects_degree_one():
    with pytest.raises(ValueError):
        natural_product(cyclic(1), cyclic(3))


def test_product_index_via_gcd_of_cycle_pairs():
    # orbits of (g1, g2) split cycle pairs of lengths c, d into gcd(c, d)
    # cycles; the index must match direct orbit enumeration on the grid
    G1, G2 = dihedral4_s4(), cyclic(3)
    n1, n2 = G1.degree, G2.degree
    prod = natural_product(G1, G2)
    by_images = {g.images: g for g in prod.elements}
    for g1 in G1.elements:
        for g2 in G2.elements:
            images = tuple(g1.images[i] * n2 + g2.images[j]
                           for i in range(n1) for j in range(n2))
            g = by_images[images]
            orbit_count = sum(gcd(len(c1), len(c2))
                              for c1 in g1.orbits() for c2 in g2.orbits())
            assert ind(g) == n1 * n2 - orbit_count


def test_sylow_sets_and_nilpotency():
    assert is_nilpotent(generalized_quaternion(8))
    assert is_nilpotent(abelian(4, 2))
    assert is_nilpotent(resolve("Heis27").group())
    s3 = resolve("S3").group()
    assert not is_nilpotent(s3)
    with pytest.raises(NotNilpotent):
        s3.table.sylow
    G = natural_product(cyclic(4), cyclic(3))
    sets = G.table.sylow
    assert G.table.sylow is sets  # found once per table
    assert {ell: len(s) for ell, s in sets.items()} == {2: 4, 3: 3}
    assert {ell: sorted(G.table.order[i] for i in s)
            for ell, s in sets.items()} == {2: [1, 2, 4, 4], 3: [1, 3, 3]}


def test_sylow_decompose_single_prime():
    q8 = generalized_quaternion(4)
    dec = sylow_decompose(q8)
    assert len(dec.factors) == 1
    assert dec.critical_prime == 2
    assert dec.a_value == Fraction(1, 4)


def test_sylow_decompose_c6_regular():
    # index scan of regular C6: involution has 3 orbits, so ind(G) = 3 and
    # a = 1/3 with the maximum attained at the 2-part
    G = natural_product(cyclic(2), cyclic(3))
    involution = next(g for g in G.elements if g.order() == 2)
    assert ind(involution) == 3
    assert min_index(G) == (3, Fraction(1, 3))
    dec = sylow_decompose(G)
    assert dec.critical_prime == 2
    assert dec.a_value == Fraction(1, 3)
    assert sorted((ell, F.degree, F.order) for ell, F in dec.factors) == \
        [(2, 2, 2), (3, 3, 3)]


def test_sylow_decompose_recovers_factors():
    G1, G2 = dihedral4_s4(), cyclic(3)
    dec = sylow_decompose(natural_product(G1, G2))
    got = {ell: (F.degree, F.order) for ell, F in dec.factors}
    assert got == {2: (4, 8), 3: (3, 3)}
    # the 2-factor is permutation isomorphic to D4 on 4 points
    two = dict(dec.factors)[2]
    assert sorted(g.order() for g in two.elements) == \
        sorted(g.order() for g in G1.elements)
    assert sorted(ind(g) for g in two.elements) == \
        sorted(ind(g) for g in G1.elements)


def test_sylow_formula_against_scan():
    for name in ("Q8xC3_S24", "D4xC3_S12", "C6", "C12"):
        G = resolve(name).group()
        dec = sylow_decompose(G)
        n = G.degree
        candidates = [Fraction(F.degree, n * min_index(F)[0])
                      for _, F in dec.factors]
        assert max(candidates) == min_index(G)[1] == dec.a_value
        assert candidates.count(max(candidates)) == 1


def test_decompose_errors():
    with pytest.raises(NotTransitive):
        sylow_decompose(PermGroup.generate(
            parse_generators("(1,2)", degree=3)))
    with pytest.raises(NotNilpotent):
        sylow_decompose(resolve("S3").group())
    with pytest.raises(TrivialGroup):
        sylow_decompose(cyclic(1))


def test_critical_prime_values():
    assert critical_prime_check(generalized_quaternion(4)) == 2
    assert critical_prime_check(abelian(4, 2)) == 2
    assert critical_prime_check(natural_product(cyclic(2), cyclic(3))) == 2
    assert critical_prime_check(natural_product(cyclic(9), cyclic(5))) == 3
    assert critical_prime_check(resolve("Heis27").group()) == 3


def test_minimal_index_elements_live_in_one_sylow_factor():
    for name in ("Q8xC3_S24", "D4xC3_S12", "C6"):
        G = resolve(name).group()
        ell = critical_prime_check(G)
        sylow = G.table.sylow[ell]
        ind_G, _ = min_index(G)
        for i, g in enumerate(G.elements):
            if not g.is_identity() and ind(g) == ind_G:
                assert i in sylow
