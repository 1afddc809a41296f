import pytest

from nilcount import extension
from nilcount.catalog import (abelian, cyclic, dihedral4_regular,
                              dihedral4_s4, generalized_quaternion, resolve)
from nilcount.errors import (LIMITS, BudgetExceeded, NotAction,
                             QuotientMismatch)
from nilcount.extension import (ExtensionData, central_double_quotients,
                                conjugation_action, fiber_product,
                                find_isomorphism, fingerprint, is_isomorphic,
                                regular_permutation_group, semidirect,
                                solution_class_counts,
                                verify_pullback_identity,
                                verify_semidirect_decomposition)
from nilcount.permcore import PermGroup, center


def center_extension(G):
    z = next(g for g in sorted(center(G)) if not g.is_identity())
    kernel = frozenset(z ** j for j in range(z.order()))
    return ExtensionData.from_kernel(G, kernel)


def s3_extension():
    s3 = resolve("S3").group()
    c3 = frozenset(g for g in s3.elements if g.order() in (1, 3))
    return ExtensionData.from_kernel(s3, c3)


def test_extension_from_kernel():
    q8 = generalized_quaternion(4)
    ext = center_extension(q8)
    assert ext.central
    assert len(ext.kernel) == 2
    assert ext.quotient.order == 4
    assert all(g.order() in (1, 2) for g in ext.quotient.elements)  # V4
    ext3 = s3_extension()
    assert not ext3.central
    assert ext3.quotient.order == 2


def test_fiber_product_diagonal_is_group_itself():
    G = generalized_quaternion(4)
    ext = ExtensionData.from_kernel(G, {G.identity})  # kappa = identity map
    fp = fiber_product(ext, ext)
    assert fp.group.order == G.order
    assert is_isomorphic(fp.group, G)


def test_fiber_product_orders():
    q8 = generalized_quaternion(4)
    fp = fiber_product(center_extension(q8), center_extension(q8))
    assert fp.group.order == 8 * 8 // 4 == 16
    ext3 = s3_extension()
    fp3 = fiber_product(ext3, ext3)
    assert fp3.group.order == 6 * 6 // 2 == 18
    assert len(fp3.pairs) == 18


def test_fiber_product_quotient_mismatch():
    q8 = generalized_quaternion(4)
    with pytest.raises(QuotientMismatch):
        fiber_product(center_extension(q8), s3_extension())


def test_semidirect_trivial_action_is_direct_product():
    A, H = cyclic(3), cyclic(2)
    psi = {h: {a: a for a in A.elements} for h in H.elements}
    sd = semidirect(A, H, psi)
    assert sd.group.order == 6
    assert sorted(g.order() for g in sd.group.elements) == [1, 2, 3, 3, 6, 6]


def test_semidirect_inversion_gives_s3():
    A, H = cyclic(3), cyclic(2)
    inv = {a: a.inverse() for a in A.elements}
    psi = {H.identity: {a: a for a in A.elements},
           H.elements[1]: inv}
    sd = semidirect(A, H, psi)
    # order profile: one identity, three involutions, two of order 3
    assert sorted(g.order() for g in sd.group.elements) == [1, 2, 2, 2, 3, 3]
    assert is_isomorphic(sd.group, resolve("S3").group())


def test_semidirect_rejects_non_action():
    A, H = cyclic(3), cyclic(4)
    inv = {a: a.inverse() for a in A.elements}
    ident = {a: a for a in A.elements}
    h = H.elements
    # h1 has order 4 but psi collapses at h1^2: psi(h1)^2 = id != psi(h1^2)
    bad = {h[0]: ident, h[1]: inv, h[2]: inv, h[3]: ident}
    with pytest.raises(NotAction):
        semidirect(A, H, bad)
    not_bijective = {x: {a: A.identity for a in A.elements} for x in h}
    with pytest.raises(NotAction):
        semidirect(A, H, not_bijective)


def test_conjugation_action_central_is_trivial():
    q8 = generalized_quaternion(4)
    psi = conjugation_action(center_extension(q8))
    for h, act in psi.items():
        assert all(act[a] == a for a in act)


def test_conjugation_action_s3_inverts():
    ext = s3_extension()
    psi = conjugation_action(ext)
    nontrivial = next(h for h in psi if not h.is_identity())
    assert any(psi[nontrivial][a] == a.inverse() and not a.is_identity()
               for a in ext.kernel)


def test_lemma_semidirect_central_kernel_gives_direct_product():
    # central kernel: conjugation is trivial, so A x| H = A x H
    d4 = dihedral4_regular()
    ext = center_extension(d4)
    psi = conjugation_action(ext)
    A = PermGroup.from_elements(ext.kernel)
    sd = semidirect(A, ext.quotient, psi)
    assert sd.group.order == 8
    assert all(g.order() in (1, 2) for g in sd.group.elements)  # C2 x V4


def test_is_isomorphic_basics():
    q8 = generalized_quaternion(4)
    d4 = dihedral4_regular()
    assert is_isomorphic(q8, q8)
    assert not is_isomorphic(q8, d4)  # one vs five involutions
    assert not is_isomorphic(abelian(4, 2), abelian(2, 2, 2))  # exponent
    assert is_isomorphic(dihedral4_s4(), d4)  # same abstract group
    assert is_isomorphic(abelian(2, 3), cyclic(6))


def test_find_isomorphism_witness_is_homomorphism():
    G1 = abelian(2, 3)
    G2 = cyclic(6)
    phi = find_isomorphism(G1, G2)
    assert phi is not None
    for a in G1.elements:
        for b in G1.elements:
            assert phi[a * b] == phi[a] * phi[b]
    assert len(set(phi.values())) == G1.order


def test_is_isomorphic_symmetric_and_cap(monkeypatch):
    g1, g2 = resolve("Heis27").group(), abelian(3, 3, 3)
    assert is_isomorphic(g1, g2) == is_isomorphic(g2, g1) == False
    monkeypatch.setitem(LIMITS, "isomorphism order", 8)
    with pytest.raises(BudgetExceeded):
        is_isomorphic(g1, g2)


def test_fingerprint_is_isomorphism_invariant():
    assert fingerprint(dihedral4_s4()) == fingerprint(dihedral4_regular())
    assert fingerprint(generalized_quaternion(4)) != fingerprint(dihedral4_regular())


def test_semidirect_decomposition_for_nonabelian_kernel():
    q8c3 = resolve("Q8xC3_S24").group()
    from nilcount.nilpotent import sylow_subgroup_sets
    ext = ExtensionData.from_kernel(q8c3, sylow_subgroup_sets(q8c3)[2])
    assert verify_semidirect_decomposition(ext)


def test_pullback_identity_cases():
    assert verify_pullback_identity(center_extension(generalized_quaternion(4)))
    assert verify_pullback_identity(center_extension(dihedral4_regular()))
    assert verify_pullback_identity(s3_extension())  # non-central abelian kernel


def test_pullback_identity_d4_over_c2_with_c4_kernel():
    d4 = dihedral4_regular()
    c4 = next(frozenset(g ** j for j in range(4))
              for g in d4.elements if g.order() == 4)
    ext = ExtensionData.from_kernel(d4, c4)
    assert not ext.central
    assert verify_pullback_identity(ext)


def test_central_double_quotients_q8_and_d4():
    rep = central_double_quotients(center_extension(generalized_quaternion(4)))
    assert rep.subgroup_count == 3
    assert rep.copies_of_group == 2 and rep.copies_of_split == 1
    rep = central_double_quotients(center_extension(dihedral4_regular()))
    assert rep.copies_of_group == 2 and rep.copies_of_split == 1


def test_central_double_quotients_c9_over_c3():
    G = cyclic(9)
    kernel = frozenset(g for g in G.elements if g.order() in (1, 3))
    rep = central_double_quotients(ExtensionData.from_kernel(G, kernel))
    assert rep.subgroup_count == 4
    assert rep.copies_of_group == 3 and rep.copies_of_split == 1


def test_central_double_quotients_requires_central_prime():
    with pytest.raises(ValueError):
        central_double_quotients(s3_extension())
    G = cyclic(8)
    kernel = frozenset(g for g in G.elements if g.order() in (1, 2, 4))
    with pytest.raises(ValueError):
        central_double_quotients(ExtensionData.from_kernel(G, kernel))


def test_solution_class_counts():
    q8 = generalized_quaternion(4)
    counts = solution_class_counts(q8, 2)
    assert counts.rank == 2
    assert counts.trivial_class_size == 4
    assert counts.nontrivial_class_size == 4
    assert (counts.trivial_multiplicity, counts.nontrivial_multiplicity) == (1, 1)
    assert counts.index_subgroup_count == 3

    c2 = cyclic(2)
    counts = solution_class_counts(c2, 2)
    assert counts.trivial_class_size == 2
    assert counts.nontrivial_class_size == 2

    g33 = abelian(3, 3)
    counts = solution_class_counts(g33, 3)
    assert counts.rank == 2
    assert counts.trivial_class_size == 5
    assert counts.index_subgroup_count == 4
    assert counts.nontrivial_multiplicity == 2


def test_regular_realization_faithful():
    items = list(range(5))
    group, to_perm = regular_permutation_group(items, lambda a, b: (a + b) % 5)
    assert group.order == 5
    assert to_perm[0].is_identity()


def reference_find_isomorphism(G1, G2):
    """The earlier permutation-product search, kept as an oracle: greedy
    generators of G1, candidate images bucketed by (order, class size), and
    the map rebuilt by BFS over the Cayley graph for every candidate."""
    from nilcount.permcore import conjugacy_classes, mulclose

    def invariants(G):
        return {g: (c.element_order, c.size)
                for c in conjugacy_classes(G) for g in c.members}

    gens, have = [], {G1.identity}
    for e in G1.elements:
        if e not in have:
            gens.append(e)
            have = mulclose(gens)
    inv1, inv2 = invariants(G1), invariants(G2)

    def build(prefix, images):
        phi = {G1.identity: G2.identity}
        frontier = [G1.identity]
        while frontier:
            new = []
            for x in frontier:
                for a, b in zip(prefix, images):
                    xa, fxb = x * a, phi[x] * b
                    known = phi.get(xa)
                    if known is None:
                        phi[xa] = fxb
                        new.append(xa)
                    elif known != fxb:
                        return None
            frontier = new
        return phi if len(set(phi.values())) == len(phi) else None

    def dfs(i, chosen):
        if i == len(gens):
            return build(gens, chosen)
        for b in G2.elements:
            if inv2[b] == inv1[gens[i]] and build(gens[:i + 1], chosen + [b]):
                found = dfs(i + 1, chosen + [b])
                if found is not None:
                    return found
        return None

    return dfs(0, [])


def test_find_isomorphism_pinned_witnesses():
    pairs = [(dihedral4_s4(), dihedral4_regular()),
             (abelian(2, 3), cyclic(6)),
             (generalized_quaternion(4), generalized_quaternion(4))]
    for G1, G2 in pairs:
        phi = find_isomorphism(G1, G2)
        assert phi == reference_find_isomorphism(G1, G2)
        for a in G1.elements:
            for b in G1.elements:
                assert phi[a * b] == phi[a] * phi[b]


def test_pair_product_classes_are_one():
    from nilcount.extension import PairProduct
    A, H = cyclic(3), cyclic(2)
    sd = semidirect(A, H, {h: {a: a for a in A.elements} for h in H.elements})
    assert isinstance(sd, PairProduct) and len(sd.pairs) == 6


def reference_regular_permutation_group(items, mul):
    """The earlier realization, kept as a reference: each item's left
    translation as a permutation of the sorted items, then `from_elements`
    sorts them and fills the table again from a base."""
    from nilcount.permcore import Permutation
    items = sorted(items)
    index = {x: i for i, x in enumerate(items)}
    to_perm = {x: Permutation.trusted(tuple(index[mul(x, y)] for y in items))
               for x in items}
    group = PermGroup.from_elements(to_perm.values())
    assert group.order == len(items)
    return group, to_perm


def assert_same_group(G, R):
    assert G.elements == R.elements
    assert G.generators == R.generators
    assert G.table.mul == R.table.mul


def test_regular_realizations_match_translation_reference(monkeypatch):
    from nilcount import catalog
    from nilcount.suites import run_suite
    realized, cyclic_products = [], []
    real = extension.regular_permutation_group
    cyclic_product = extension._cyclic_product

    def record(items, mul):
        out = real(items, mul)
        realized.append((items, mul, out))
        return out

    def record_cyclic(ell, K):
        out = cyclic_product(ell, K)
        cyclic_products.append((ell, K, out))
        return out
    monkeypatch.setattr(catalog, "regular_permutation_group", record)
    for name in ("Q8", "Q16", "Q32", "D4_S8", "Heis27"):
        resolve(name).group()
    assert len(realized) == 5
    monkeypatch.setattr(extension, "regular_permutation_group", record)
    monkeypatch.setattr(extension, "_cyclic_product", record_cyclic)
    for sid in ("4.5", "4.7"):
        assert run_suite(sid).passed
    assert len(realized) > 5 and cyclic_products
    for items, mul, (group, to_item) in realized:
        ref, to_perm = reference_regular_permutation_group(items, mul)
        assert_same_group(group, ref)
        assert to_item == to_perm
    for ell, K, group in cyclic_products:
        mK = K.table.mul
        ref, to_perm = reference_regular_permutation_group(
            [(i, g) for i in range(ell) for g in range(K.order)],
            lambda p, q: ((p[0] + q[0]) % ell, mK[p[1]][q[1]]))
        assert_same_group(group, ref)
        # element i |K| + g is (i, K.elements[g])
        assert all(group.elements[i * K.order + g] == p
                   for (i, g), p in to_perm.items())


LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_regular_rejects_tables_that_are_not_groups():
    from nilcount.errors import PropertyViolated
    # a Latin square with identity 0 that is not associative
    assert all(sorted(col) == list(range(5)) for col in zip(*LOOP5))
    assert any(LOOP5[LOOP5[a][b]][c] != LOOP5[a][LOOP5[b][c]]
               for a in range(5) for b in range(5) for c in range(5))
    with pytest.raises(PropertyViolated, match="Light"):
        PermGroup.regular(LOOP5)
    with pytest.raises(PropertyViolated, match="Light"):
        regular_permutation_group(list(range(5)), lambda a, b: LOOP5[a][b])
    with pytest.raises(PropertyViolated, match="identity"):  # row 0 moves
        PermGroup.regular([[1, 0], [0, 1]])
    with pytest.raises(PropertyViolated, match="identity"):  # not a permutation
        PermGroup.regular([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    c4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert PermGroup.regular(c4, [1]).order == 4
    with pytest.raises(PropertyViolated, match="miss"):  # <2> misses 1
        PermGroup.regular(c4, [2])


def test_regular_realization_errors_are_typed():
    from nilcount.errors import PropertyViolated
    with pytest.raises(PropertyViolated):  # 3 is not an item
        regular_permutation_group([0, 1, 2], lambda a, b: (a + b) % 4)
    # C2 on the labels "a" < "e" with "e" the identity: the least item is not
    with pytest.raises(PropertyViolated):
        regular_permutation_group(["a", "e"],
                                  lambda x, y: "e" if x == y else "a")
    group, to_item = regular_permutation_group(["a", "e"],
                                               lambda x, y: "a" if x == y else "e")
    assert group.order == 2 and to_item["a"].is_identity()
