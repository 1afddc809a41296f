import tracemalloc
from itertools import permutations

import pytest

from nilcount.errors import (LIMITS, BudgetExceeded, DegreeMismatch, NotNormal,
                             NotPrime)
from nilcount.permcore import (GroupTable, PermGroup, Permutation,
                               abelianization_rank,
                               center, conjugacy_classes, cycle_string,
                               exponent, parse_generators,
                               parse_permutation, quotient, quotient_with_map)
from nilcount.catalog import abelian, generalized_quaternion


def brute_closure(gens):
    """Oracle: closure by repeated full set products (no generator BFS)."""
    els = set(gens) | {Permutation.identity(gens[0].degree)}
    while True:
        new = {a * b for a in els for b in els} - els
        if not new:
            return els
        els |= new


def test_permutation_algebra():
    p = parse_permutation("(1,2,3,4)")
    q = parse_permutation("(1,3)", degree=4)
    assert (p * p.inverse()).is_identity()
    assert (p * q) * p == p * (q * p)
    assert p ** 4 == Permutation.identity(4)
    assert p ** -1 == p.inverse()
    assert p.order() == 4 and q.order() == 2
    assert p.cycle_type() == (4,)
    assert q.cycle_type() == (2, 1, 1)


def test_parse_and_render_roundtrip():
    for text in ["(1,2,3,4)(5,6)", "(1,2)", "(2,5,3)"]:
        p = parse_permutation(text, degree=6)
        assert parse_permutation(cycle_string(p), degree=6) == p
    assert cycle_string(Permutation.identity(3)) == "()"
    with pytest.raises(ValueError):
        parse_permutation("(1,2)(2,3)")  # not disjoint
    with pytest.raises(ValueError):
        parse_permutation("nonsense")
    with pytest.raises(ValueError):
        parse_permutation("(0,1)")  # points are 1-based


def test_generate_cyclic_and_trivial():
    c4 = PermGroup.generate([parse_permutation("(1,2,3,4)")])
    assert c4.order == 4
    triv = PermGroup.generate([Permutation.identity(3)])
    assert triv.order == 1
    assert triv.identity.is_identity()


def test_generate_d4_matches_brute_closure():
    gens = parse_generators("(1,2,3,4);(1,3)")
    G = PermGroup.generate(gens)
    assert G.order == 8
    assert set(G.elements) == brute_closure(gens)


S8 = "(1,2,3,4,5,6,7,8);(1,2)"  # raw generators of a group of order 40320


def test_generate_errors():
    with pytest.raises(DegreeMismatch):
        PermGroup.generate([parse_permutation("(1,2)"),
                            parse_permutation("(1,2,3)")])
    # the closure stops past order 4096; it ran to 20000 elements (5.4 MiB)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="order 4097 exceeds 4096"):
            PermGroup.generate(parse_generators(S8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_conjugacy_classes_q8():
    q8 = generalized_quaternion(4)
    sizes = sorted(c.size for c in conjugacy_classes(q8))
    assert sizes == [1, 1, 2, 2, 2]
    # oracle: direct double loop
    g = q8.elements[3]
    members = {h * g * h.inverse() for h in q8.elements}
    cls = next(c for c in conjugacy_classes(q8) if g in c.members)
    assert cls.members == frozenset(members)


def test_conjugacy_classes_abelian_and_partition():
    G = abelian(4, 2)
    classes = conjugacy_classes(G)
    assert all(c.size == 1 for c in classes)
    assert len(classes) == G.order
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    classes = conjugacy_classes(d4)
    assert len(classes) == 5
    assert sum(c.size for c in classes) == d4.order
    assert all(d4.order % c.size == 0 for c in classes)
    covered = set()
    for c in classes:
        assert not (covered & c.members)
        covered |= c.members
    assert covered == set(d4.elements)


def test_center():
    q8 = generalized_quaternion(4)
    assert len(center(q8)) == 2
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    assert len(center(d4)) == 2
    G = abelian(4, 2)
    assert center(G) == frozenset(G.elements)


def test_quotient_q8_by_center_is_v4():
    q8 = generalized_quaternion(4)
    Q = quotient(q8, center(q8))
    assert Q.order == 4
    assert all(g.order() in (1, 2) for g in Q.elements)
    # oracle: coset multiplication table has four cosets
    z = center(q8)
    cosets = {frozenset(g * n for n in z) for g in q8.elements}
    assert len(cosets) == 4


def test_quotient_examples():
    G = abelian(4, 2)
    whole = quotient(G, set(G.elements))
    assert whole.order == 1
    a_sq = next(g for g in G.elements if g.order() == 2
                and g in {h * h for h in G.elements})
    Q = quotient(G, {G.identity, a_sq})
    assert Q.order == 4
    trivial_quot = quotient(G, {G.identity})
    assert trivial_quot.order == G.order
    assert sorted(g.order() for g in trivial_quot.elements) == \
        sorted(g.order() for g in G.elements)


def test_quotient_map_is_homomorphism():
    q8 = generalized_quaternion(4)
    Q, kappa = quotient_with_map(q8, center(q8))
    for a in q8.elements:
        for b in q8.elements:
            assert kappa[a * b] == kappa[a] * kappa[b]
    assert set(kappa.values()) == set(Q.elements)


def test_quotient_not_normal():
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    refl = parse_permutation("(1,3)", degree=4)
    with pytest.raises(NotNormal):
        quotient(d4, {d4.identity, refl})
    with pytest.raises(NotNormal):
        quotient(d4, {d4.identity, parse_permutation("(1,2,3,4)", degree=4)})


def test_element_order_exponent_rank():
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    assert exponent(d4) == 4  # oracle: max order scan for 2-groups
    assert max(g.order() for g in d4.elements) == 4
    q8 = generalized_quaternion(4)
    # oracle: commutator enumeration gives [Q8,Q8] of order 2
    comms = {a.inverse() * b.inverse() * a * b
             for a in q8.elements for b in q8.elements}
    assert len(brute_closure(list(comms))) == 2
    assert abelianization_rank(q8, 2) == 2
    G = abelian(4, 2)
    assert abelianization_rank(G, 2) == 2
    assert abelianization_rank(G, 3) == 0
    with pytest.raises(NotPrime):
        abelianization_rank(G, 4)


def test_order_divides_exponent_divides_group_order():
    for G in [generalized_quaternion(4), abelian(4, 2),
              PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))]:
        e = exponent(G)
        assert G.order % e == 0
        for g in G.elements:
            assert e % g.order() == 0


def test_canonical_ordering_and_transitivity():
    G = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    assert list(G.elements) == sorted(G.elements)
    assert G.elements[0].is_identity()
    assert G.is_transitive
    intrans = PermGroup.generate([parse_permutation("(1,2)", degree=3)])
    assert not intrans.is_transitive


def _catalog_groups():
    from nilcount.catalog import CATALOG, nilpotent_catalog
    groups = dict(nilpotent_catalog())
    groups.update((name, entry.group()) for name, entry in CATALOG.items())
    return sorted(groups.items())


def test_group_table_agrees_with_permutation_products():
    for name, G in _catalog_groups():
        T = G.table
        els = G.elements
        assert T.elements == els and els[0].is_identity(), name
        for i, a in enumerate(els):
            assert els[T.inv[i]] == a.inverse(), name
            assert T.order[i] == a.order(), name
            for j, b in enumerate(els):
                assert els[T.mul[i][j]] == a * b, (name, i, j)
        assert [els[g] for g in T.gens] == list(G.generators), name


def test_group_table_is_cached_on_the_group():
    G = generalized_quaternion(4)
    assert G.table is G.table
    # from_elements fills the table while it checks closure
    H = PermGroup.from_elements(G.elements)
    assert H._table is not None and H.table.mul == G.table.mul


def test_commutator_subgroup_is_cached_and_matches_enumeration():
    from nilcount.catalog import resolve
    from nilcount.permcore import commutator_subgroup
    for name in ("Q8", "D4_S4", "Heis27", "S3", "C4xC2_S8"):
        G = resolve(name).group()
        T = G.table
        assert T.commutator is T.commutator, name
        comms = [a.inverse() * b.inverse() * a * b
                 for a in G.elements for b in G.elements]
        assert commutator_subgroup(G) == brute_closure(comms), name


def test_from_elements_rejects_unclosed_sets():
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    r = parse_permutation("(1,2,3,4)")
    with pytest.raises(ValueError):
        PermGroup.from_elements([d4.identity, r])  # missing r^2, r^3
    with pytest.raises(ValueError):
        PermGroup.from_elements([r, r * r])  # no identity


def test_catalog_invariants_against_sympy():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup
    for name, G in _catalog_groups():
        P = PermutationGroup([SymPerm(list(g.images)) for g in G.generators])
        assert G.order == P.order(), name
        assert len(conjugacy_classes(G)) == len(P.conjugacy_classes()), name
        assert len(center(G)) == P.center().order(), name


def test_table_budget_guards_before_building():
    assert LIMITS["group order"] == 4096  # a table of 2^24 entries
    # the elements of S_8, listed directly: generating them is refused
    G = PermGroup(8, parse_generators(S8),
                  map(Permutation, permutations(range(8))))
    assert G.order == 40320
    with pytest.raises(BudgetExceeded):
        G.table
    assert G._table is None
    with pytest.raises(BudgetExceeded):
        GroupTable(G.elements)
