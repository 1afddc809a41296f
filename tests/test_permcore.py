import importlib.util
import sys
import tracemalloc
from functools import cache
from itertools import permutations
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from nilcount.errors import (LIMITS, BudgetExceeded, DegreeMismatch, NotNormal,
                             NotPrime)
from nilcount.permcore import (GroupTable, PermGroup, Permutation,
                               abelianization_rank,
                               center, conjugacy_classes, cycle_string,
                               parse_generators,
                               parse_permutation, quotient_with_map)
from nilcount.catalog import (CATALOG, abelian, generalized_quaternion,
                              nilpotent_catalog, resolve)
from oracles import quotient_rank


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
    Q = quotient_with_map(q8, q8.table.center())[0]
    assert Q.order == 4
    assert all(g.order() in (1, 2) for g in Q.elements)
    # oracle: coset multiplication table has four cosets
    z = center(q8)
    cosets = {frozenset(g * n for n in z) for g in q8.elements}
    assert len(cosets) == 4


def test_quotient_examples():
    G = abelian(4, 2)
    whole = quotient_with_map(G, range(G.order))[0]
    assert whole.order == 1
    a_sq = next(i for i, g in enumerate(G.elements) if g.order() == 2
                and g in {h * h for h in G.elements})
    Q = quotient_with_map(G, {0, a_sq})[0]
    assert Q.order == 4
    trivial_quot = quotient_with_map(G, {0})[0]
    assert trivial_quot.order == G.order
    assert sorted(g.order() for g in trivial_quot.elements) == \
        sorted(g.order() for g in G.elements)


def test_quotient_map_is_homomorphism():
    q8 = generalized_quaternion(4)
    Q, coset = quotient_with_map(q8, q8.table.center())
    kappa = {g: Q.elements[c] for g, c in zip(q8.elements, coset)}
    for a in q8.elements:
        for b in q8.elements:
            assert kappa[a * b] == kappa[a] * kappa[b]
    assert sorted(set(coset)) == list(range(Q.order))


def test_quotient_not_normal():
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    refl = d4.table.idx[parse_permutation("(1,3)", degree=4)]
    rot = d4.table.idx[parse_permutation("(1,2,3,4)", degree=4)]
    with pytest.raises(NotNormal, match="not normal"):
        quotient_with_map(d4, {0, refl})
    with pytest.raises(NotNormal, match="not a subgroup"):
        quotient_with_map(d4, {0, rot})
    with pytest.raises(NotNormal, match="not a subgroup"):  # no element 8
        quotient_with_map(d4, {0, 8})
    with pytest.raises(NotNormal, match="identity"):
        quotient_with_map(d4, d4.table.cyclic(rot)[1:])


def test_element_order_exponent_rank():
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    assert d4.table.exponent == 4  # oracle: max order scan for 2-groups
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


def test_closure_rank_matches_the_quotient_oracle():
    # every catalog group, and the abelian spread of the nilpotent catalog
    names = [*CATALOG, *(name for name, _ in nilpotent_catalog())]
    for name in dict.fromkeys(names):
        G = resolve(name).group()
        T = G.table
        for ell in (2, 3, 5):
            N = T.ell_kernel(ell)
            assert T.commutator <= N and T.is_subgroup(N) and T.is_normal(N)
            assert {T.power(g, ell) for g in range(G.order)} <= N
            assert abelianization_rank(G, ell) == quotient_rank(G, ell), \
                (name, ell)
        with pytest.raises(NotPrime):
            abelianization_rank(G, 4)


def test_order_divides_exponent_divides_group_order():
    for G in [generalized_quaternion(4), abelian(4, 2),
              PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))]:
        e = G.table.exponent
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
    H = PermGroup.from_elements(G.elements)
    assert H.table.mul == G.table.mul


def test_commutator_subgroup_is_cached_and_matches_enumeration():
    from nilcount.catalog import resolve
    for name in ("Q8", "D4_S4", "Heis27", "S3", "C4xC2_S8"):
        G = resolve(name).group()
        T = G.table
        assert T.commutator is T.commutator, name
        comms = [a.inverse() * b.inverse() * a * b
                 for a in G.elements for b in G.elements]
        assert T.subset(T.commutator) == brute_closure(comms), name


def test_from_elements_rejects_unclosed_sets():
    d4 = PermGroup.generate(parse_generators("(1,2,3,4);(1,3)"))
    r = parse_permutation("(1,2,3,4)")
    with pytest.raises(ValueError):
        PermGroup.from_elements([d4.identity, r])  # missing r^2, r^3
    with pytest.raises(ValueError):
        PermGroup.from_elements([r, r * r])  # no identity
    with pytest.raises(DegreeMismatch):
        PermGroup.from_elements([Permutation.identity(3), r])


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
    # the elements of S_8, listed directly: the greedy closure that checks
    # them is refused at its 4097th element
    elements = sorted(map(Permutation, permutations(range(8))))
    with pytest.raises(BudgetExceeded, match="order 4097 exceeds 4096"):
        PermGroup.from_elements(elements)
    with pytest.raises(BudgetExceeded):  # before mul is read, or None
        GroupTable(elements, None)        # would raise TypeError


# The element-list route, kept as the oracle of `PermGroup.generate`: the
# elements sorted, and `mul` filled from a base of points.

def _base_table(elements: Sequence[Permutation]) -> list[tuple[int, ...]]:
    """`mul` filled from a base, the points (taken in order) whose images
    separate the elements: each product is one lookup of the base images of
    b under a, and a product outside the elements raises KeyError."""
    base, keys = [], [()] * len(elements)
    for p in range(elements[0].degree):
        trial = [k + (g.images[p],) for k, g in zip(keys, elements)]
        if len(set(trial)) > len(set(keys)):
            base.append(p)
            keys = trial
            if len(set(keys)) == len(elements):
                break
    base = base or [0]
    cols = [itemgetter(*base)(g.images) for g in elements]
    at = {c: i for i, c in enumerate(cols)}
    get = [itemgetter(*c) if len(base) > 1 else itemgetter(c) for c in cols]
    return [tuple([at[g(a.images)] for g in get]) for a in elements]


def set_closure(gens):
    """The generated element set, by BFS over new products."""
    els = {Permutation.identity(gens[0].degree), *gens}
    frontier = list(els)
    while frontier:
        frontier = list({a * b for a in gens for b in frontier} - els)
        els.update(frontier)
    return els


def reference_pair_product(G1, G2):
    """The natural product's generators and elements as the element-list
    route listed them: point (i, j) is i*n2 + j."""
    n1, n2 = G1.degree, G2.degree

    def pair_perm(g1, g2):
        return Permutation.trusted(tuple(g1.images[i] * n2 + g2.images[j]
                                         for i in range(n1) for j in range(n2)))

    id1, id2 = G1.identity, G2.identity
    gens = ([pair_perm(g, id2) for g in G1.generators]
            + [pair_perm(id1, g) for g in G2.generators])
    return gens, [pair_perm(a, b) for a in G1.elements for b in G2.elements]


def assert_reference(case, G, elements, generators=None):
    """G has the sorted elements, the generators (the greedy ones when none
    are given), the generator indices and the base-filled `mul` of the
    element-list route."""
    elements = tuple(sorted(elements))
    mul = _base_table(elements)
    gens = generators and list(map(elements.index, generators))
    T = GroupTable(elements, mul, gens)  # greedy over the oracle's mul
    assert G.elements == elements, case
    assert G.generators == tuple(elements[g] for g in T.gens), case
    assert G.table.gens == T.gens, case
    assert G.table.mul == mul, case


def _workloads():
    """The benchmark's job lists, read only (the module imports nothing
    from nilcount)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_catalog_and_benchmark_groups_match_the_element_list_route():
    from nilcount.catalog import get_group, resolve
    for name, G in _catalog_groups():
        assert_reference(name, G, set_closure(G.generators), G.generators)
    wl = _workloads()
    for name in wl.ABELIAN_PATTERNS:
        G = resolve(name).group()
        assert_reference(name, G, set_closure(G.generators), G.generators)
    for name, factors in wl.PRODUCTS.items():
        gens = parse_generators(wl.natural_product(*factors))
        G = get_group(wl.natural_product(*factors))[1]
        assert_reference(name, G, set_closure(gens), gens)


def test_ind_of_regular_groups_is_read_from_orders():
    from nilcount.catalog import get_group, resolve
    from nilcount.nilpotent import natural_product
    wl = _workloads()
    groups = _catalog_groups()
    catalog = dict(groups)
    groups += [(name, resolve(name).group())
               for name in wl.ABELIAN_PATTERNS + wl.ABOVE_CAP]
    groups += [(name, get_group(wl.natural_product(*factors))[1])
               for name, factors in wl.PRODUCTS.items()]
    groups += [("Q8xC4", natural_product(catalog["Q8"], catalog["C4"])),
               ("D4_S4xS3", natural_product(catalog["D4_S4"], catalog["S3"]))]
    regular = set()
    for name, G in groups:
        if G.order == G.degree == len({g(0) for g in G.elements}):
            regular.add(name)
        walked = [g.degree - len(g.orbits()) for g in G.elements]
        assert G.table.ind == walked, name
    assert {"Q8", "C64", "Q8xC2xC2", "Q8xC4"} <= regular
    assert not {"S3", "D4_S4", "D4_S4xC4", "D4_S4xS3"} & regular


def test_natural_products_and_sylow_factors_match_the_element_list_route():
    from nilcount.catalog import resolve
    from nilcount.nilpotent import natural_product, sylow_decompose
    from nilcount.suites import _COPRIME_PAIRS
    for n1, n2 in _COPRIME_PAIRS:
        G1, G2 = resolve(n1).group(), resolve(n2).group()
        gens, elements = reference_pair_product(G1, G2)
        assert_reference((n1, n2), natural_product(G1, G2), elements, gens)
    for name in ("Q8xC3_S24", "D4xC3_S12"):
        G = resolve(name).group()
        for ell, F in sylow_decompose(G).factors:
            # generated by the block images of G's generators, one per
            # generator, and faithful on the Sylow subgroup
            assert len(F.generators) == len(G.generators), (name, ell)
            assert F.order == len(G.table.sylow[ell]), (name, ell)
            assert_reference((name, ell), F, F.elements, F.generators)


FIXED = settings(derandomize=True, database=None, max_examples=100,
                 deadline=None)


@cache
def _d4xc3():
    from nilcount.catalog import resolve
    return resolve("D4xC3_S12").group()  # order 24 on 12 points


@FIXED
@given(st.lists(st.integers(0, 23), min_size=1, max_size=4))
def test_random_generating_sets_give_the_reference_table(picks):
    gens = [_d4xc3().elements[i] for i in picks]
    G = PermGroup.generate(gens)
    assert_reference(picks, G, set_closure(gens), gens)
    H = PermGroup.from_elements(G.elements)
    assert (H.elements, H.table.mul) == (G.elements, G.table.mul)
    assert_reference(picks, H, G.elements)


@FIXED
@given(st.sets(st.integers(0, 23), min_size=1))
def test_from_elements_refuses_sets_that_are_not_groups(picks):
    members = {_d4xc3().elements[i] for i in picks}
    if set_closure(list(members)) == members:
        assert PermGroup.from_elements(members).order == len(members)
    else:
        with pytest.raises(ValueError, match="not multiplicatively closed"):
            PermGroup.from_elements(members)
    if members - {_d4xc3().identity}:
        with pytest.raises(ValueError, match="not multiplicatively closed"):
            PermGroup.from_elements(members - {_d4xc3().identity})

