import json
from fractions import Fraction

import pytest

from nilcount.catalog import abelian, cyclic, generalized_quaternion, resolve
from nilcount.errors import TrivialGroup, UnsupportedModulus
from nilcount.malle import (BaseFieldData, b_constant, ind, k_classes,
                            min_index)
from nilcount.permcore import Permutation, conjugacy_classes

Q = BaseFieldData.rationals()


def test_ind_identity_is_zero():
    assert ind(Permutation.identity(7)) == 0
    g = cyclic(5).elements[1]
    assert ind(g) > 0


def test_ind_regular_c4xc2():
    G = abelian(4, 2)
    for g in G.elements:
        if g.order() == 4:
            assert ind(g) == 6
        elif g.order() == 2:
            assert ind(g) == 4


def test_min_index_catalog():
    q8 = generalized_quaternion(4)
    assert min_index(q8) == (4, Fraction(1, 4))
    d4 = resolve("D4_S4").group()
    assert min_index(d4) == (1, Fraction(1))
    for ell in (3, 5, 7):
        assert min_index(cyclic(ell))[0] == ell - 1
    with pytest.raises(TrivialGroup):
        min_index(cyclic(1))


def test_ind_constant_on_classes():
    for name in ("Q8", "D4_S4", "D4_S8", "Heis27", "Q8xC3_S24"):
        G = resolve(name).group()
        for c in conjugacy_classes(G):
            assert len({ind(g) for g in c.members}) == 1


def test_k_classes_c3_merges():
    # the two order-3 classes are swapped by the power map m = 2
    G = cyclic(3)
    kcs = k_classes(G, Q)
    assert len(kcs) == 2
    sizes = sorted(len(kc.classes) for kc in kcs)
    assert sizes == [1, 2]


def test_k_classes_trivial_action():
    k_triv = BaseFieldData(degree=2, real_places=0,
                           cyclo_generators={3: (1,), 4: (1,)})
    for name in ("C3", "D4_S4"):
        G = resolve(name).group()
        kcs = k_classes(G, k_triv)
        assert len(kcs) == len(conjugacy_classes(G))


def test_k_classes_involutions_stay_distinct():
    G = abelian(4, 2)
    kcs = k_classes(G, Q)
    order2 = [kc for kc in kcs if kc.classes[0].element_order == 2]
    assert len(order2) == 3
    assert all(len(kc.classes) == 1 for kc in order2)


def test_b_constants_known_values():
    assert b_constant(abelian(4, 2), Q) == 3
    assert b_constant(generalized_quaternion(4), Q) == 1
    assert b_constant(resolve("D4_S8").group(), Q) == 3
    assert b_constant(resolve("D4_S4").group(), Q) == 1


def test_b_cyclic_orbit_formula():
    # b(k, C_ell) = (ell-1)/n_ell; oracle: orbit count of the power action
    for ell, gens, n_ell in [(7, (2,), 3), (7, (6,), 2), (5, (2,), 4),
                             (13, (3,), 3)]:
        k = BaseFieldData(degree=n_ell, real_places=0,
                          cyclo_generators={ell: gens})
        sub = k.cyclo_subgroup(ell)
        assert len(sub) == n_ell
        G = cyclic(ell)
        # oracle: orbits of residue multiplication on 1..ell-1
        residues = set(range(1, ell))
        orbits = 0
        while residues:
            r = residues.pop()
            residues -= {(r * m) % ell for m in sub}
            orbits += 1
        assert b_constant(G, k) == orbits == (ell - 1) // n_ell


def test_b_monotone_in_cyclo_subgroup():
    # enlarging the cyclotomic image can only merge classes
    G = cyclic(7)
    bs = []
    for gens in [(1,), (6,), (2,), (3,)]:  # subgroup sizes 1, 2, 3, 6
        k = BaseFieldData(cyclo_generators={7: gens})
        bs.append((len(k.cyclo_subgroup(7)), b_constant(G, k)))
    bs.sort()
    for (s1, b1), (s2, b2) in zip(bs, bs[1:]):
        if s1 != s2:
            assert b1 >= b2


def test_b_bounded_by_class_and_element_counts():
    for name in ("Q8", "D4_S8", "C4xC2_S8", "Heis27"):
        G = resolve(name).group()
        ind_G, _ = min_index(G)
        classes_min = sum(1 for c in conjugacy_classes(G)
                          if ind(c.representative) == ind_G)
        elements_min = sum(1 for g in G.elements
                           if not g.is_identity() and ind(g) == ind_G)
        b = b_constant(G, Q)
        assert b <= classes_min <= elements_min


def test_base_field_validation():
    with pytest.raises(ValueError):
        BaseFieldData(degree=0)
    with pytest.raises(ValueError):
        BaseFieldData(degree=2, real_places=3)
    with pytest.raises(ValueError):
        BaseFieldData(cyclo_generators={6: (3,)})  # 3 not a unit mod 6
    with pytest.raises(ValueError):
        BaseFieldData(class_rank={2: -1})


def test_base_field_q_preset():
    assert Q.cyclo_subgroup(8) == frozenset({1, 3, 5, 7})
    assert Q.n_ell(5, 10) == 4
    assert Q.n_ell(2, 8) == 1
    assert Q.rk(2) == 0


def test_base_field_rejects_missing_modulus():
    k = BaseFieldData(cyclo_generators={7: (2,)})
    with pytest.raises(UnsupportedModulus):
        k.cyclo_subgroup(5)
    # moduli 1 and 2 have trivial unit groups and always work
    assert k.cyclo_subgroup(2) == frozenset({1})
    assert k.n_ell(2, 14) == 1


def test_base_field_json_roundtrip():
    k = BaseFieldData(degree=3, real_places=1, class_rank={3: 1},
                      cyclo_generators={7: (2,), 21: (2, 13)})
    k2 = BaseFieldData.from_json(k.to_json())
    assert k2.degree == 3 and k2.real_places == 1
    assert k2.class_rank == {3: 1}
    assert k2.cyclo_subgroup(7) == k.cyclo_subgroup(7)
    assert BaseFieldData.from_json(json.dumps("Q")).is_rationals


def test_derived_n_ell_divides_ell_minus_one():
    k = BaseFieldData(cyclo_generators={21: (2,), 35: (4,)})
    for ell, modulus in [(3, 21), (7, 21), (5, 35), (7, 35)]:
        n = k.n_ell(ell, modulus)
        assert (ell - 1) % n == 0
