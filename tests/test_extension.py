from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from nilcount import extension
from nilcount.catalog import (abelian, cyclic, dihedral4_regular,
                              generalized_quaternion, nilpotent_catalog,
                              regular_permutation_group, resolve)
from nilcount.errors import (NotAction, NotNormal, QuotientMismatch,
                             VerificationFailed)
from nilcount.extension import (DoubleQuotientReport, ExtensionData,
                                central_double_quotients,
                                conjugation_action, fiber_product,
                                semidirect, solution_class_counts,
                                verify_pullback_identity,
                                verify_semidirect_decomposition)
from nilcount.intmath import is_prime
from nilcount.permcore import (GroupTable, PermGroup, abelianization_rank,
                               center, quotient_with_map)
from oracles import quotient_rank


def center_extension(G):
    z = min(i for i in G.table.center() if i)
    return ExtensionData.from_kernel(G, G.table.cyclic(z))


def elements_of_order(G, orders):
    return [i for i, o in enumerate(G.table.order) if o in orders]


def s3_extension():
    s3 = resolve("S3").group()
    return ExtensionData.from_kernel(s3, elements_of_order(s3, (1, 3)))


def kernel_group(ext):
    """The kernel as a group of its own, its elements in kernel order."""
    return PermGroup.from_elements(ext.group.elements[a] for a in ext.kernel)


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
    ext = ExtensionData.from_kernel(G, {0})  # kappa = identity map
    fp = fiber_product(ext, ext)
    assert fp.group.order == G.order
    assert unpruned_find_isomorphism(fp.group, G) is not None


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
    parity = [i % 2 for i in range(4)]
    halves = [i // 2 for i in range(4)]
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
    sd = semidirect(A, H, [[0, 1, 2]] * 2)
    assert sd.group.order == 6
    assert sorted(g.order() for g in sd.group.elements) == [1, 2, 3, 3, 6, 6]


def test_semidirect_inversion_gives_s3():
    A, H = cyclic(3), cyclic(2)
    sd = semidirect(A, H, [[0, 1, 2], A.table.inv])
    # order profile: one identity, three involutions, two of order 3
    assert sorted(g.order() for g in sd.group.elements) == [1, 2, 2, 2, 3, 3]
    assert unpruned_find_isomorphism(sd.group,
                                     resolve("S3").group()) is not None


def test_semidirect_rejects_non_action():
    A, H = cyclic(3), cyclic(4)
    inv, ident = A.table.inv, [0, 1, 2]
    # h1 has order 4 but act collapses at h1^2: act(h1)^2 = id != act(h1^2)
    with pytest.raises(NotAction, match="multiplicative"):
        semidirect(A, H, [ident, inv, inv, ident])
    with pytest.raises(NotAction, match="bijection"):
        semidirect(A, H, [[0, 0, 0]] * 4)
    with pytest.raises(NotAction, match="automorphism"):  # moves the identity
        semidirect(A, H, [ident, [1, 0, 2], ident, [1, 0, 2]])
    with pytest.raises(NotAction, match="actions for the 4"):
        semidirect(A, H, [ident] * 3)
    s3 = resolve("S3").group()
    with pytest.raises(NotAction, match="abelian"):
        semidirect(s3, cyclic(1), [list(range(6))])


def test_conjugation_action_central_is_trivial():
    q8 = generalized_quaternion(4)
    act = conjugation_action(center_extension(q8))
    assert len(act) == 4
    assert all(row == [0, 1] for row in act)


def test_conjugation_action_s3_inverts():
    ext = s3_extension()
    act, kernel, els = conjugation_action(ext), ext.kernel, ext.group.elements
    assert act[0] == [0, 1, 2]
    assert all(els[kernel[b]] == els[a].inverse() for a, b in zip(kernel, act[1]))


def test_lemma_semidirect_central_kernel_gives_direct_product():
    # central kernel: conjugation is trivial, so A x| H = A x H
    d4 = dihedral4_regular()
    ext = center_extension(d4)
    sd = semidirect(kernel_group(ext), ext.quotient, conjugation_action(ext))
    assert sd.group.order == 8
    assert all(g.order() in (1, 2) for g in sd.group.elements)  # C2 x V4


def test_semidirect_decomposition_for_nonabelian_kernel():
    q8c3 = resolve("Q8xC3_S24").group()
    ext = ExtensionData.from_kernel(q8c3, q8c3.table.sylow[2])
    assert verify_semidirect_decomposition(ext)


def test_pullback_identity_cases():
    assert verify_pullback_identity(center_extension(generalized_quaternion(4)))
    assert verify_pullback_identity(center_extension(dihedral4_regular()))
    assert verify_pullback_identity(s3_extension())  # non-central abelian kernel


def test_pullback_identity_d4_over_c2_with_c4_kernel():
    d4 = dihedral4_regular()
    ext = ExtensionData.from_kernel(d4, d4.table.cyclic(
        elements_of_order(d4, (4,))[0]))
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
    kernel = elements_of_order(G, (1, 3))
    rep = central_double_quotients(ExtensionData.from_kernel(G, kernel))
    assert rep.subgroup_count == 4
    assert rep.copies_of_group == 3 and rep.copies_of_split == 1


def test_central_double_quotients_requires_central_prime():
    with pytest.raises(ValueError):
        central_double_quotients(s3_extension())
    G = cyclic(8)
    kernel = elements_of_order(G, (1, 2, 4))
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


def two_part_invariants(T):
    """(element order, class size) per element index."""
    size = {i: len(c) for c in T.classes for i in c}
    return [(o, size[i]) for i, o in enumerate(T.order)]


def fingerprint(G):
    """Cheap isomorphism invariants: order, order profile, center size,
    class-size profile, abelianization order."""
    T = G.table
    return (G.order, tuple(sorted(Counter(T.order).items())), len(T.center()),
            tuple(sorted(len(c) for c in T.classes)),
            G.order // len(T.commutator))


def unpruned_find_isomorphism(G1, G2):
    """Explicit isomorphism G1 -> G2 as a dict of permutations, or None: a
    backtracking search, kept as the oracle of the extension checks.
    Fingerprints first; then images of a greedy generating sequence, each
    candidate bucketed by (order, class size) and refused only when it
    clashes or is already used, the map extended along the Cayley graph.
    The first witness in canonical order is returned."""
    from nilcount.errors import PropertyViolated
    if G1.order != G2.order or fingerprint(G1) != fingerprint(G2):
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


def test_pair_product_classes_are_one():
    from nilcount.extension import PairProduct
    A, H = cyclic(3), cyclic(2)
    sd = semidirect(A, H, [[0, 1, 2]] * 2)
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
    pairs = extension._fiber_pairs(kappa1, kappa2)
    return pairs, lambda p, q: (m1[p[0]][q[0]], m2[p[1]][q[1]])


def semidirect_reference(A, H, act):
    """The pairs and the multiplication of the earlier semidirect product."""
    mA, mH = A.table.mul, H.table.mul
    pairs = [(a, h) for a in range(A.order) for h in range(H.order)]
    return pairs, lambda p, q: (mA[p[0]][act[p[1]][q[0]]], mH[p[1]][q[1]])


def test_regular_realizations_match_translation_reference(monkeypatch):
    from nilcount import catalog
    realized, products, cyclic_products = [], [], []
    real = catalog.regular_permutation_group
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
    for sid in ("4.5", "4.7"):  # the products the earlier suites built
        run_reference_suite(sid)
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
        assert product.pairs == tuple(pairs)
    for ell, K, group in cyclic_products:
        mK = K.table.mul
        ref, to_perm = reference_regular_permutation_group(
            [(i, g) for i in range(ell) for g in range(K.order)],
            lambda p, q: ((p[0] + q[0]) % ell, mK[p[1]][q[1]]))
        assert_same_group(group, ref)
        # element i |K| + g is (i, K.elements[g])
        assert all(group.elements[i * K.order + g] == p
                   for (i, g), p in to_perm.items())


# The permutation-set route of the extension layer, kept as the reference
# of the index route: kernels as sets of permutations, quotient maps and
# actions as dicts keyed by them.

def reference_quotient_with_map(G, N):
    T = G.table
    nset = frozenset(N)
    if G.identity not in nset:
        raise NotNormal("kernel does not contain the identity")
    nidx = {T.idx.get(g) for g in nset}
    if None in nidx or not T.is_subgroup(nidx):
        raise NotNormal("kernel is not a subgroup")
    if not T.is_normal(nidx):
        raise NotNormal("kernel is not normal")
    coset, reps = [-1] * len(T.elements), []
    for g, row in enumerate(T.mul):
        if coset[g] < 0:
            for k in nidx:
                coset[row[k]] = len(reps)
            reps.append(g)
    Q = PermGroup.regular([[coset[T.mul[r][s]] for s in reps] for r in reps],
                          [coset[g] for g in T.gens])
    return Q, {g: Q.elements[c] for g, c in zip(T.elements, coset)}


def reference_from_kernel(G, kernel):
    kernel = frozenset(kernel)
    H, kappa = reference_quotient_with_map(G, kernel)
    return SimpleNamespace(group=G, kernel=kernel, quotient=H, kappa=kappa,
                           central=kernel <= center(G))


def reference_conjugation_action(E):
    T = E.group.table
    kernel = [T.idx[a] for a in E.kernel]
    fibers = {}
    for g, x in enumerate(T.elements):
        fibers.setdefault(E.kappa[x], []).append(g)
    psi = {}
    for h, fiber in fibers.items():
        action = [T.conj(fiber[0], a) for a in kernel]
        if any(T.conj(g, a) != b for g in fiber[1:]
               for a, b in zip(kernel, action)):
            raise NotAction(
                "conjugation depends on the preimage; kernel not abelian?")
        psi[h] = {T.elements[a]: T.elements[b] for a, b in zip(kernel, action)}
    return psi


def reference_fiber_pairs(G1, kappa1, G2, kappa2):
    """The fiber product's pairs as permutation pairs, in canonical order."""
    fiber = {}
    for g2 in G2.elements:
        fiber.setdefault(kappa2[g2], []).append(g2)
    return [(g1, g2) for g1 in G1.elements for g2 in fiber.get(kappa1[g1], ())]


def as_map(G, kappa, H):
    """An index quotient map as the dict of the permutation route."""
    return {g: H.elements[h] for g, h in zip(G.elements, kappa)}


def assert_same_quotient(G, got, ref):
    (Q, coset), (R, kappa) = got, ref
    assert_same_group(Q, R)
    assert as_map(G, coset, Q) == kappa


def test_extension_cases_match_the_permutation_reference():
    from nilcount.suites import _extension_cases
    cases = _extension_cases()
    assert len(cases) == 47
    for label, E in cases:
        G, H = E.group, E.quotient
        kernel = [G.elements[a] for a in E.kernel]
        ref = reference_from_kernel(G, kernel)
        assert list(E.kernel) == sorted(E.kernel), label
        assert ref.kernel == frozenset(kernel), label
        assert_same_group(H, ref.quotient)
        assert as_map(G, E.kappa, H) == ref.kappa, label
        assert E.central == ref.central, label
        assert_same_quotient(G, quotient_with_map(G, E.kernel),
                             reference_quotient_with_map(G, kernel))
        if label.endswith("/Q8"):  # a nonabelian kernel: no action
            with pytest.raises(NotAction):
                reference_conjugation_action(ref)
            with pytest.raises(NotAction):
                conjugation_action(E)
            continue
        act = conjugation_action(E)
        assert {H.elements[h]: {kernel[a]: kernel[b] for a, b in enumerate(row)}
                for h, row in enumerate(act)} == reference_conjugation_action(ref)


def test_suite_4_5_pair_products_match_the_permutation_reference(monkeypatch):
    from nilcount import permcore
    from nilcount.suites import _extension_cases
    cases = [E for label, E in _extension_cases() if not label.endswith("/Q8")]
    quotients, fibers, semidirects = [], [], []  # built after the cases

    def recorder(build, calls):
        def run(*args):
            out = build(*args)
            calls.append((args, out))
            return out
        return run
    record_quotient = recorder(permcore.quotient_with_map, quotients)
    monkeypatch.setattr(permcore, "quotient_with_map", record_quotient)
    monkeypatch.setattr(extension, "quotient_with_map", record_quotient)
    monkeypatch.setattr(extension, "fiber_product_maps", recorder(
        extension.fiber_product_maps, fibers))
    monkeypatch.setattr(extension, "semidirect", recorder(
        extension.semidirect, semidirects))
    run_reference_suite("4.5")  # the products the earlier suite built
    assert (len(quotients), len(fibers), len(semidirects)) == (46, 92, 46)
    # the diagonal quotient of G x_H G, one per case
    for (G, N), got in quotients:
        ref = reference_quotient_with_map(G, [G.elements[i] for i in N])
        assert_same_quotient(G, got, ref)
    for (G1, kappa1, G2, kappa2, H), product in fibers:
        pairs = [(G1.elements[i], G2.elements[j]) for i, j in product.pairs]
        assert pairs == reference_fiber_pairs(
            G1, as_map(G1, kappa1, H), G2, as_map(G2, kappa2, H))
    # A x| H: A is the kernel on its own table, H acts by conjugation
    for E, ((A, H, act), product) in zip(cases, semidirects):
        G = E.group
        ref_A = PermGroup.from_elements(G.elements[a] for a in E.kernel)
        assert A.table.mul == ref_A.table.mul and H is E.quotient
        psi = reference_conjugation_action(
            reference_from_kernel(G, ref_A.elements))
        assert all(psi[H.elements[h]][ref_A.elements[a]] == ref_A.elements[b]
                   for h, row in enumerate(act) for a, b in enumerate(row))
        assert product.pairs == tuple((a, h) for a in range(A.order)
                                      for h in range(H.order))


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


# The steps of suites 4.4, 4.5 and 4.7 before the explicit maps, kept as
# references: the pointwise homomorphism loop, and isomorphism searches
# against built fiber products and quotients.  They call through the
# modules, so a test can record what they build.

def reference_semidirect_decomposition(E):
    """G x_H G = U x| G: (u, g) -> (g, ug) bijective onto the fiber pairs
    and multiplicative at all (|U| |G|)^2 pairs."""
    G = E.group
    T, mul = G.table, G.table.mul
    items = [(u, g) for u in E.kernel for g in range(G.order)]
    images = {(g, mul[u][g]) for u, g in items}
    if (images != set(extension._fiber_pairs(E.kappa, E.kappa))
            or len(images) != len(items)):
        return False
    # (u1, g1)(u2, g2) = (u1 * g1 u2 g1^-1, g1 g2) must map to the
    # componentwise product (g1 g2, u1 g1 * u2 g2) of the images
    return all(mul[mul[u1][T.conj(g1, u2)]][mul[g1][g2]]
               == mul[mul[u1][g1]][mul[u2][g2]]
               for u1, g1 in items for u2, g2 in items)


def reference_pullback_identity(E):
    """Both pullback identities by isomorphism search: G x_H G against the
    built G x_H (A x| H), and the built quotient by the diagonal against
    A x| H."""
    from nilcount import permcore
    kernel, mul = E.kernel, E.group.table.mul
    pos = {a: i for i, a in enumerate(kernel)}
    A = PermGroup.regular([[pos[mul[a][b]] for b in kernel] for a in kernel])
    sd = extension.semidirect(A, E.quotient, extension.conjugation_action(E))
    kappa_sd = [h for _, h in sd.pairs]
    fp_gg = extension.fiber_product(E, E)
    fp_gs = extension.fiber_product_maps(E.group, E.kappa, sd.group, kappa_sd,
                                         E.quotient)
    if unpruned_find_isomorphism(fp_gg.group, fp_gs.group) is None:
        return False
    diagonal = [k for k, (x, y) in enumerate(fp_gg.pairs) if x == y and x in pos]
    quot = permcore.quotient_with_map(fp_gg.group, diagonal)[0]
    return unpruned_find_isomorphism(quot, sd.group) is not None


def reference_double_quotients(E):
    """The quotient pattern of C_ell x G, quotient by quotient: each built
    and labeled by isomorphism search against G, then C_ell x H."""
    from nilcount import permcore
    ell = len(E.kernel)
    if not E.central or not is_prime(ell):
        raise ValueError("needs a central extension with kernel of prime order")
    G = E.group
    big = extension._cyclic_product(ell, G)
    T = big.table
    d_set = {i * G.order + a for i in range(ell) for a in E.kernel}
    subgroups = {frozenset(T.cyclic(x)) for x in d_set if T.order[x] == ell}
    split = extension._cyclic_product(ell, E.quotient)
    group_is_split = unpruned_find_isomorphism(G, split) is not None
    pattern = []
    for U in sorted(subgroups, key=sorted):
        Q = permcore.quotient_with_map(big, U)[0]
        if unpruned_find_isomorphism(Q, G) is not None:
            pattern.append("G")
        elif unpruned_find_isomorphism(Q, split) is not None:
            pattern.append("CxH")
        else:
            pattern.append("?")
    n_g, n_s = pattern.count("G"), pattern.count("CxH")
    ok = (n_g == ell + 1) if group_is_split else (n_g == ell and n_s == 1)
    return DoubleQuotientReport(len(subgroups), tuple(pattern), n_g, n_s, ok)


def run_reference_suite(sid):
    """The reference steps of suite 4.5 or 4.7 over that suite's cases."""
    from nilcount.suites import _extension_cases
    for label, E in _extension_cases():
        if sid == "4.5" and not label.endswith("/Q8"):
            assert reference_pullback_identity(E), label
        elif sid == "4.7" and E.central and is_prime(len(E.kernel)):
            assert reference_double_quotients(E).passed, label


def outcome(check, E):
    """What a check gives on E: its result, or the type of its refusal."""
    try:
        return check(E)
    except (NotAction, ValueError, VerificationFailed) as err:
        return type(err)


def test_explicit_maps_agree_with_the_references_on_every_case():
    from nilcount.suites import _extension_cases
    cases = _extension_cases()
    assert len(cases) == 47
    seen, splits = Counter(), Counter()
    for label, E in cases:
        assert verify_semidirect_decomposition(E) is True, label
        assert reference_semidirect_decomposition(E) is True, label
        got = outcome(verify_pullback_identity, E)
        assert got == outcome(reference_pullback_identity, E), label
        rep = outcome(central_double_quotients, E)
        # the reference labels each quotient by search, so the split label
        # of the rank criterion is checked against a search here
        assert rep == outcome(reference_double_quotients, E), label
        seen[got, rep if isinstance(rep, type) else rep.passed] += 1
        if not isinstance(rep, type):
            splits[rep.copies_of_split == 0] += 1
    # 45 central prime cases, the non-central C3 in S3, the Q8 kernel
    assert seen == {(True, True): 45, (True, ValueError): 1,
                    (NotAction, ValueError): 1}
    assert splits == {True: 27, False: 18}


# G = C_ell x H exactly when z is outside G'G^ell, and so exactly when
# r(G) = r(H) + 1, r the ell-rank of the abelianization: split and
# non-split central C2 and C3 kernels, by index
SPLIT_CRITERION_CASES = [
    ("C4xC2", 5, True),  # z = (2, 1): C4 x C2 / <z> = C4
    ("C6", 3, True),  # z of order 2: C6 = C2 x C3
    ("C4xC2", 4, False),  # z = (2, 0): C4 x C2 / <z> = C2 x C2
    ("Q8", 4, False),  # the centre
    ("D4_S8", 4, False),  # the centre
]


@pytest.mark.parametrize("name, z, splits", SPLIT_CRITERION_CASES)
def test_split_criterion_pinned_cases(name, z, splits):
    G = resolve(name).group()
    assert z in G.table.center() and G.table.order[z] == 2
    E = ExtensionData.from_kernel(G, G.table.cyclic(z))
    H = E.quotient
    assert (z not in G.table.ell_kernel(2)) is splits
    assert (abelianization_rank(G, 2) == abelianization_rank(H, 2) + 1) is splits
    split = extension._cyclic_product(2, H)
    assert (unpruned_find_isomorphism(G, split) is not None) is splits
    rep = central_double_quotients(E)
    assert rep.passed and rep.pattern.count("CxH") == (0 if splits else 1)
    assert rep == reference_double_quotients(E)


def test_split_criterion_without_the_plus_one_fails_the_agreement(
        monkeypatch):
    # z in G'G^ell in place of z not in it, the label of r(G) == r(H) in
    # place of r(G) == r(H) + 1: the complement of the kernel flips every
    # membership test.  The pattern check passes for either label, so only
    # the search of the reference catches the mutant, at the first case.
    real = GroupTable.ell_kernel
    monkeypatch.setattr(GroupTable, "ell_kernel", lambda T, ell: (
        set(range(len(T.mul))) - real(T, ell)))
    with pytest.raises(AssertionError, match="Q8/z0"):
        test_explicit_maps_agree_with_the_references_on_every_case()


def test_closure_rank_matches_the_quotient_oracle_on_4_7():
    # the 90 groups of 4.7, each G and its H = G/<z>; the split label of
    # the closure, z outside G'G^ell, is the label of the ranks of the
    # quotient groups, r(G) = r(H) + 1
    from nilcount.suites import _extension_cases
    cases = [(label, E) for label, E in _extension_cases()
             if E.central and is_prime(len(E.kernel))]
    assert len(cases) == 45
    splits = Counter()
    for label, E in cases:
        ell, G, H = len(E.kernel), E.group, E.quotient
        for X in (G, H):
            for p in sorted({2, 3, 5, ell}):
                assert abelianization_rank(X, p) == quotient_rank(X, p), \
                    (label, p)
        split = E.kernel[1] not in G.table.ell_kernel(ell)
        assert split is (quotient_rank(G, ell) == quotient_rank(H, ell) + 1)
        splits[split] += 1
    assert splits == {True: 27, False: 18}


def frobenius20_extension():
    """C5 x| C4 with C4 acting through 2 (an automorphism of order 4),
    over its C5: conjugation acts with automorphisms that are not their
    own inverses."""
    A, H = cyclic(5), cyclic(4)
    act = [[A.table.power(a, 2 ** h) for a in range(5)] for h in range(4)]
    sd = semidirect(A, H, act)
    return ExtensionData.from_kernel(
        sd.group, [k for k, (a, h) in enumerate(sd.pairs) if h == 0])


def test_an_inverted_automorphism_is_not_an_action(monkeypatch):
    E = frobenius20_extension()
    assert verify_semidirect_decomposition(E) and verify_pullback_identity(E)
    act = conjugation_action(E)
    inverses = [[row.index(a) for a in range(len(row))] for row in act]
    assert any(inv != row for inv, row in zip(inverses, act))
    for h, inv in enumerate(inverses):
        if inv == act[h]:
            continue
        mutated = act[:h] + [inv] + act[h + 1:]
        monkeypatch.setattr(extension, "conjugation_action",
                            lambda E, mutated=mutated: mutated)
        with pytest.raises(NotAction, match="multiplicative"):
            verify_pullback_identity(E)


def swap_fibers(E, h1=0, h2=1):
    """E with the fibers of kappa over h1 and h2 swapped."""
    swap = {h1: h2, h2: h1}
    return replace(E, kappa=tuple(swap.get(h, h) for h in E.kappa))


def test_swapped_fibers_fail_at_the_named_map():
    from nilcount.suites import _extension_cases
    failed = Counter()
    for label, E in _extension_cases():
        if E.quotient.order < 2:
            continue
        bad = swap_fibers(E)  # kappa(1) is no longer the identity of H
        # G x_H G = U x| G reads kappa only through its fibers, which a
        # relabeling of H keeps
        assert verify_semidirect_decomposition(bad), label
        if not label.endswith("/Q8"):
            with pytest.raises((NotAction, VerificationFailed)) as err:
                verify_pullback_identity(bad)
            failed["4.5", err.type] += 1
        if E.central and is_prime(len(E.kernel)):
            with pytest.raises(VerificationFailed,
                               match=r"C_ell x H by .* at generator \(\d+, \d+\), "
                                     r"index pair \(\d+, \d+\) \* \(\d+, \d+\)"):
                central_double_quotients(bad)
            failed["4.7"] += 1
    # S3 over C3: conjugation by the swapped fibers is no longer an action
    assert failed == {("4.5", VerificationFailed): 42, ("4.5", NotAction): 1,
                      "4.7": 42}


def test_a_permuted_semidirect_pair_table_fails_at_the_named_map(monkeypatch):
    from nilcount.extension import PairProduct
    from nilcount.suites import _extension_cases
    real = extension.semidirect

    def permuted(*args):
        """A x| H with rows 0 and 1 of its pair table swapped: the pairs
        no longer name the table's elements."""
        sd = real(*args)
        pairs = list(sd.pairs)
        pairs[0], pairs[1] = pairs[1], pairs[0]
        return PairProduct(tuple(pairs), sd.group)
    monkeypatch.setattr(extension, "semidirect", permuted)
    cases = [(label, E) for label, E in _extension_cases()
             if not label.endswith("/Q8")]
    for label, E in cases + [("F20/C5", frobenius20_extension())]:
        with pytest.raises(VerificationFailed,
                           match=r"^G x_H G = G x_H \(A x\| H\) by .* at generator "
                                 r"\(\d+, \d+\), index pair \(\d+, \d+\) \* "
                                 r"\(\d+, \d+\)$"):
            verify_pullback_identity(E)


def test_a_kernel_other_than_kappas_fails_at_the_named_check():
    # C2^3 over one central C2, with another C2 given as the kernel: the
    # earlier isomorphism search passed 4.5 on it; now phi misses the pairs,
    # and (i, g) -> (i, kappa(g)) is a homomorphism onto C2 x H whose
    # kernel is not {0} x kernel
    G = resolve("C2xC2xC2").group()
    E = ExtensionData.from_kernel(G, [0, 1])
    bad = replace(E, kernel=(0, 2))
    with pytest.raises(VerificationFailed, match="not a bijection"):
        verify_semidirect_decomposition(bad)
    with pytest.raises(VerificationFailed, match="phi is not a bijection"):
        verify_pullback_identity(bad)
    with pytest.raises(VerificationFailed,
                       match=r"C_ell x H by .*: the kernel is not the subgroup"):
        central_double_quotients(bad)


def pullback_cases():
    from nilcount.suites import _extension_cases
    return [(label, E) for label, E in _extension_cases()
            if not label.endswith("/Q8")]


def test_pullback_builds_only_the_semidirect_product(monkeypatch):
    # G x_H G is numbered by its fiber pairs and never built: the one pair
    # product of each case is A x| H
    built, fibers = [], []
    real = extension._pair_product

    def record(X, Y, pairs, left):
        built.append((X.order, Y, pairs))
        return real(X, Y, pairs, left)
    monkeypatch.setattr(extension, "_pair_product", record)
    monkeypatch.setattr(extension, "fiber_product_maps",
                        lambda *args: fibers.append(args))
    cases = pullback_cases()
    for label, E in cases:
        before = len(built)
        assert verify_pullback_identity(E), label
        assert len(built) == before + 1, label
        n, H, pairs = built[-1]
        assert (n, H) == (len(E.kernel), E.quotient), label
        assert pairs == [(a, h) for a in range(n) for h in range(H.order)]
    assert len(built) == len(cases) == 46 and not fibers


def test_pullback_generator_rows_are_the_fiber_products_rows(monkeypatch):
    # the rows the generator lemma reads are the rows of the regular
    # G x_H G at its generators (g, g) and (1, u), numbered as its pairs
    seen = []
    real = extension._check_on_generators

    def record(identity, generators, images, tables, labels):
        seen.append((identity, list(generators), labels))
        return real(identity, generators, images, tables, labels)
    monkeypatch.setattr(extension, "_check_on_generators", record)
    for label, E in pullback_cases():
        del seen[:]
        assert verify_pullback_identity(E), label
        (identity, generators, labels), = seen
        assert identity.startswith("G x_H G = G x_H (A x| H)")
        fp = fiber_product(E, E)
        assert list(labels) == list(fp.pairs), label
        T = E.group.table
        gens = [(g, g) for g in T.gens] + [(0, u)
                                           for u in T.generating_set(E.kernel)]
        assert [labels[s] for s, _ in generators] == gens, label
        mul = fp.group.table.mul
        assert all(list(mul[s]) == row for s, row in generators), label


def test_pullback_refuses_generators_that_miss_the_pairs(monkeypatch):
    # a kernel generator dropped: (g, g) and the rest generate a proper
    # subgroup, which the generator lemma alone would pass
    real = GroupTable.generating_set

    def drop_last(T, members=None):
        gens = real(T, members)
        return gens if members is None else gens[:-1]
    monkeypatch.setattr(GroupTable, "generating_set", drop_last)
    for label, E in pullback_cases():
        with pytest.raises(VerificationFailed,
                           match=r"^G x_H G: the generators reach \d+ of "
                                 r"the \d+ pairs$"):
            verify_pullback_identity(E)


def test_pullback_refuses_a_generator_outside_the_pairs(monkeypatch):
    # an element outside the kernel as a kernel generator: (1, u) is no
    # fiber pair
    real = GroupTable.generating_set

    def outside(T, members=None):
        gens = real(T, members)
        if members is None:
            return gens
        return gens + [min(set(range(len(T.mul))) - set(members))]
    monkeypatch.setattr(GroupTable, "generating_set", outside)
    for label, E in pullback_cases():
        if E.quotient.order == 1:
            continue
        with pytest.raises(VerificationFailed,
                           match=r"^G x_H G: a generator leaves the pairs$"):
            verify_pullback_identity(E)


def small_catalog():
    return [(name, G) for name, G in nilpotent_catalog() if G.order <= 32]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_generator_lemma_agrees_with_the_pointwise_test(data):
    name, G = data.draw(st.sampled_from(small_catalog()))
    T, n = G.table, G.order
    mul = T.mul
    kind = data.draw(st.sampled_from(["inner", "power", "swapped", "random",
                                      "twisted"]))
    if kind == "random":
        phi = data.draw(st.permutations(range(n)))
    elif kind == "twisted":
        # x -> x w(r) on each right coset <s> r of the first generator s:
        # phi(s y) = phi(s) phi(y) holds for s, so only the other
        # generators can refute it
        shift = data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                   max_size=n))
        powers, phi = T.cyclic(T.gens[0]), [-1] * n
        for r in range(n):
            if phi[r] < 0:
                for x in (mul[c][r] for c in powers):
                    phi[x] = mul[x][shift[r] if r else 0]
    elif kind == "power":  # a homomorphism exactly when x -> x^k is
        k = data.draw(st.integers(0, T.exponent))
        phi = [T.power(x, k) for x in range(n)]
    else:
        h = data.draw(st.integers(0, n - 1))
        phi = [T.conj(h, x) for x in range(n)]
        if kind == "swapped":
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                      max_size=2, unique=True))
            phi[i], phi[j] = phi[j], phi[i]
    pointwise = all(phi[mul[a][b]] == mul[phi[a]][phi[b]]
                    for a in range(n) for b in range(n))
    try:
        extension._check_on_generators(
            name, [(s, mul[s]) for s in T.gens], (phi,), (mul,), range(n))
        lemma = True
    except VerificationFailed:
        lemma = False
    assert lemma == pointwise, (name, kind, phi)
