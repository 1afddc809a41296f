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


def test_fiber_product_refuses_maps_that_are_not_homomorphisms():
    from nilcount.errors import PropertyViolated
    G, H = cyclic(4), cyclic(2)
    e, h = H.elements
    parity = {g: (e, h)[i % 2] for i, g in enumerate(G.elements)}
    halves = {g: (e, h)[i // 2] for i, g in enumerate(G.elements)}
    # both maps have fibers of size 2, so the order test passes; the
    # product (0, 1)(0, 1) = (0, 2) of pairs has kappa values e and h
    with pytest.raises(PropertyViolated, match="Cayley table"):
        extension.fiber_product_maps(G, parity, G, halves, H)


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
            have = mulclose(gens)[0]  # the elements, numbered
    assert gens == [G1.elements[g] for g in G1.table.generating_set()]
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


def two_part_invariants(T):
    """(element order, class size) per element index."""
    size = {i: len(c) for c in T.classes for i in c}
    return [(o, size[i]) for i, o in enumerate(T.order)]


def unpruned_find_isomorphism(G1, G2):
    """The search before the per-image invariant check, kept verbatim as an
    oracle (its two-part `_element_invariants` is `two_part_invariants`
    here): candidates bucketed by (order, class size) only, and a new image
    refused only when it clashes or is already used."""
    from nilcount.errors import PropertyViolated, require
    if G1.order != G2.order:
        return None
    require("isomorphism order", G1.order)
    if fingerprint(G1) != fingerprint(G2):
        return None
    m1, m2 = G1.table.mul, G2.table.mul
    gens = G1.table.generating_set()
    inv1 = two_part_invariants(G1.table)
    buckets: dict[tuple[int, int], list[int]] = {}
    for g, key in enumerate(two_part_invariants(G2.table)):
        buckets.setdefault(key, []).append(g)
    phi = [0] + [-1] * (G1.order - 1)
    used = [True] + [False] * (G2.order - 1)
    domain = [0]  # the subgroup generated so far, where phi is defined
    chosen: list[int] = []

    def extend(i: int) -> bool:
        """Extend phi by gens[i] -> chosen[i]; on a clash, undo and fail."""
        size, new, pairs = len(domain), [(gens[i], chosen[i])], list(zip(gens, chosen))
        for k, x in enumerate(domain):  # grows while it is scanned
            # edges by earlier generators stay inside the old domain
            for a, b in (new if k < size else pairs):
                y, fy = m1[x][a], m2[phi[x]][b]
                if phi[y] < 0 and not used[fy]:
                    phi[y], used[fy] = fy, True
                    domain.append(y)
                elif phi[y] != fy:
                    retract(size)
                    return False
        return True

    def retract(size: int) -> None:
        for y in domain[size:]:
            used[phi[y]], phi[y] = False, -1
        del domain[size:]

    def dfs(i: int) -> bool:
        if i == len(gens):
            return True
        for b in buckets.get(inv1[gens[i]], ()):
            chosen.append(b)
            size = len(domain)
            if extend(i):
                if dfs(i + 1):
                    return True
                retract(size)
            chosen.pop()
        return False

    if not dfs(0):
        return None
    if len(domain) != G1.order:
        raise PropertyViolated("witness map does not cover the group")
    return {g: G2.elements[f] for g, f in zip(G1.elements, phi)}


def test_pruned_search_returns_the_unpruned_witness(monkeypatch):
    from nilcount.suites import run_suite
    calls = []
    real = extension.find_isomorphism

    def record(G1, G2):
        out = real(G1, G2)
        calls.append((G1, G2, out))
        return out
    monkeypatch.setattr(extension, "find_isomorphism", record)
    counts = []
    for sid in ("4.5", "4.7"):
        assert run_suite(sid).passed
        counts.append(len(calls) - sum(counts))
    assert counts == [92, 217]
    assert sum(out is None for _, _, out in calls) == 36
    for G1, G2, out in calls:
        assert out == unpruned_find_isomorphism(G1, G2)


def test_pruned_search_on_the_heis27_fiber_product():
    # G x_H G against G x_H (A x| H) for the centre of Heis27: order 81,
    # exponent 3, where the first two generators of G1 span the centre
    ext = center_extension(resolve("Heis27").group())
    sd = semidirect(PermGroup.from_elements(ext.kernel), ext.quotient,
                    conjugation_action(ext))
    kappa_sd = {g: h for g, (a, h) in zip(sd.group.elements, sd.pairs)}
    G1 = fiber_product(ext, ext).group
    G2 = extension.fiber_product_maps(ext.group, ext.kappa, sd.group,
                                      kappa_sd, ext.quotient).group
    assert G1.order == G2.order == 81 and G1.table.exponent == 3
    phi = find_isomorphism(G1, G2)
    assert phi is not None and phi == unpruned_find_isomorphism(G1, G2)


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


def fiber_reference(G1, kappa1, G2, kappa2, H):
    """The pairs and the multiplication of the earlier fiber product."""
    m1, m2 = G1.table.mul, G2.table.mul
    pairs = extension._fiber_pairs(G1, kappa1, G2, kappa2)
    return pairs, lambda p, q: (m1[p[0]][q[0]], m2[p[1]][q[1]])


def semidirect_reference(A, H, psi):
    """The pairs and the multiplication of the earlier semidirect product."""
    TA, mA, mH = A.table, A.table.mul, H.table.mul
    act = [[TA.idx[psi[h][a]] for a in A.elements] for h in H.elements]
    pairs = [(a, h) for a in range(A.order) for h in range(H.order)]
    return pairs, lambda p, q: (mA[p[0]][act[p[1]][q[0]]], mH[p[1]][q[1]])


def test_regular_realizations_match_translation_reference(monkeypatch):
    from nilcount import catalog
    from nilcount.suites import run_suite
    realized, products, cyclic_products = [], [], []
    real = extension.regular_permutation_group
    cyclic_product = extension._cyclic_product

    def record(items, mul):
        out = real(items, mul)
        realized.append((items, mul, out))
        return out

    def recorder(build, reference, second):
        """Record X, Y (argument `second`), the reference and the result."""
        def run(*args):
            out = build(*args)
            products.append((args[0], args[second], reference(*args), out))
            return out
        return run

    def record_cyclic(ell, K):
        out = cyclic_product(ell, K)
        cyclic_products.append((ell, K, out))
        return out
    monkeypatch.setattr(catalog, "regular_permutation_group", record)
    for name in ("Q8", "Q16", "Q32", "D4_S8", "Heis27"):
        resolve(name).group()
    assert len(realized) == 5
    # pair products are tables of index arithmetic, not realized items:
    # record them where they are built
    monkeypatch.setattr(extension, "fiber_product_maps", recorder(
        extension.fiber_product_maps, fiber_reference, 2))
    monkeypatch.setattr(extension, "semidirect", recorder(
        extension.semidirect, semidirect_reference, 1))
    monkeypatch.setattr(extension, "_cyclic_product", record_cyclic)
    for sid in ("4.5", "4.7"):
        assert run_suite(sid).passed
    assert len(products) >= 138 and cyclic_products
    for items, mul, (group, to_item) in realized:
        ref, to_perm = reference_regular_permutation_group(items, mul)
        assert_same_group(group, ref)
        assert to_item == to_perm
    for X, Y, (pairs, mul), product in products:
        ref, to_perm = reference_regular_permutation_group(pairs, mul)
        assert_same_group(product.group, ref)
        pairs = sorted(pairs)
        assert [to_perm[p] for p in pairs] == list(product.group.elements)
        assert product.pairs == tuple((X.elements[i], Y.elements[j])
                                      for i, j in pairs)
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
