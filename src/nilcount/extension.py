"""Group extensions, fiber products, and embedding-problem verification.

Everything here is index arithmetic over the groups' Cayley tables: a kernel
is a sorted tuple of element indices, a quotient map lists per element the
index of its image, and an action is a table over kernel positions.
Constructions with no natural permutation action (fiber products, semidirect
products) are built on pairs of element indices, multiplied through the
factors' tables, and realized as the regular action of that table
(`PermGroup.regular`), so the pair in canonical position i is element i.
Direct products with a cyclic factor are `PermGroup.product` of the two
groups, numbered the same way.

The structure identities of the embedding problem (suites 4.4, 4.5 and 4.7)
are proved through their canonical maps, with no isomorphism search between
built groups.  A map phi is a homomorphism by the generator lemma: phi(s y)
= phi(s) phi(y) for every generator s and every y suffices, |S| n lookups
instead of n^2 (`_check_on_generators`).  A bijection onto the target, or a
map onto it with the expected kernel, then gives the isomorphism.  A map
that fails raises VerificationFailed naming the identity, the generator and
the index pair where the law fails.  `semidirect` checks its action's laws
by the same lemma.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (NotAction, PropertyViolated, QuotientMismatch,
                     VerificationFailed, require)
from .intmath import is_prime
from .permcore import (GroupTable, PermGroup, Permutation,
                       abelianization_rank, quotient_with_map)
from .series import _children


def regular_permutation_group(items: list, mul: Callable
                              ) -> tuple[PermGroup, dict[Hashable, Permutation]]:
    """Realize an explicitly listed group through left translation: item i
    of the sorted `items` maps to element i.  `items` must be a group under
    `mul` with the least item as its identity, or PropertyViolated.  Used
    for the catalog presentations; pair products build their table by
    index arithmetic (`_pair_product`)."""
    items = sorted(items)
    index = {x: i for i, x in enumerate(items)}
    group = PermGroup.regular([[index.get(mul(x, y), -1) for y in items]
                               for x in items])
    return group, dict(zip(items, group.elements))


@dataclass(frozen=True)
class ExtensionData:
    """An extension 1 -> A -> G -> H -> 1 with the quotient map explicit:
    `kernel` is the sorted indices of A in G, and element g of G maps to
    element kappa[g] of H."""

    group: PermGroup
    kernel: tuple[int, ...]
    quotient: PermGroup
    kappa: tuple[int, ...]
    central: bool

    @classmethod
    def from_kernel(cls, G: PermGroup, kernel: Iterable[int]) -> "ExtensionData":
        kernel = tuple(sorted(set(kernel)))
        H, kappa = quotient_with_map(G, kernel)
        return cls(G, kernel, H, tuple(kappa),
                   set(kernel) <= set(G.table.center()))


@dataclass(frozen=True)
class PairProduct:
    """A fiber or semidirect product on index pairs (x, y) of its two
    factors, with its regular permutation realization: `pairs[i]` is
    `group.elements[i]`."""

    pairs: tuple[tuple[int, int], ...]
    group: PermGroup


def _pair_product(X: PermGroup, Y: PermGroup, pairs: list[tuple[int, int]],
                  left: Sequence[Sequence[int]]) -> PairProduct:
    """Realize index pairs of X and Y as a pair product.  `pairs` are in
    canonical order, (0, 0) first, and pairs[k] = (i, j) times (x, y) is
    (left[k][x], j y): `left[k]` is the row of X that gives the first
    component, and the second multiplies in Y's table.

    The Cayley table is index arithmetic: pair (x, y) is number
    pos[x |Y| + y], or -1 outside the pairs (a table `PermGroup.regular`
    refuses).  Row k maps `pos` over the sums of left[k] gathered at the
    pairs' first components and scaled by |Y|, and of Y's row j gathered at
    their second components; consecutive pairs that share a row of `left`
    (a fiber product's) gather it once."""
    n = Y.order
    pos = [-1] * (X.order * n)
    for k, (i, j) in enumerate(pairs):
        pos[i * n + j] = k
    xs, ys = [i for i, _ in pairs], [j for _, j in pairs]
    ygot = [list(map(row.__getitem__, ys)) for row in Y.table.mul]
    rows, last, xgot = [], None, ()
    for j, row in zip(ys, left):
        if row is not last:
            last, xgot = row, list(map(n.__mul__, map(row.__getitem__, xs)))
        rows.append(tuple(map(pos.__getitem__, map(add, xgot, ygot[j]))))
    return PairProduct(tuple(pairs), PermGroup.regular(rows))


def _fiber_pairs(kappa1: Sequence[int], kappa2: Sequence[int]
                 ) -> list[tuple[int, int]]:
    """Index pairs (g1, g2) with kappa1[g1] == kappa2[g2], in canonical order."""
    fiber: dict[int, list[int]] = {}
    for j, h in enumerate(kappa2):
        fiber.setdefault(h, []).append(j)
    return [(i, j) for i, h in enumerate(kappa1) for j in fiber.get(h, ())]


def fiber_product_maps(G1: PermGroup, kappa1: Sequence[int], G2: PermGroup,
                       kappa2: Sequence[int], H: PermGroup) -> PairProduct:
    """G1 x_H G2 over the maps kappa_i: G_i -> H, given per element index as
    the index of its image in H."""
    pairs = _fiber_pairs(kappa1, kappa2)
    if len(pairs) * H.order != G1.order * G2.order:
        raise PropertyViolated("fiber product order is off; maps not onto H?")
    m1 = G1.table.mul
    return _pair_product(G1, G2, pairs, [m1[i] for i, _ in pairs])


def fiber_product(E1: ExtensionData, E2: ExtensionData) -> PairProduct:
    """Subdirect product over the shared quotient; order |G1||G2|/|H|."""
    if E1.quotient.elements != E2.quotient.elements:
        raise QuotientMismatch("extensions do not share the same quotient group")
    return fiber_product_maps(E1.group, E1.kappa, E2.group, E2.kappa, E1.quotient)


def conjugation_action(E: ExtensionData) -> list[list[int]]:
    """The kernel as an H-module: h acts by conjugation with any preimage,
    as the table act[h][a] of kernel positions (a is E.kernel[a]).

    Well-definedness over the choice of preimage is checked (it holds exactly
    because the kernel is abelian).
    """
    T, kernel = E.group.table, E.kernel
    pos = {a: i for i, a in enumerate(kernel)}
    fibers: list[list[int]] = [[] for _ in range(E.quotient.order)]
    for g, h in enumerate(E.kappa):
        fibers[h].append(g)
    act = []
    for fiber in fibers:
        action = [T.conj(fiber[0], a) for a in kernel]
        if any(T.conj(g, a) != b for g in fiber[1:]
               for a, b in zip(kernel, action)):
            raise NotAction(
                "conjugation depends on the preimage; kernel not abelian?")
        act.append([pos[b] for b in action])
    return act


def semidirect(A: PermGroup, H: PermGroup, act: Sequence[Sequence[int]]
               ) -> PairProduct:
    """Semidirect product A x| H with multiplication
    (a1, h1)(a2, h2) = (a1 * act[h1][a2], h1 * h2), over element indices.

    `act` must send each h to an automorphism of A, multiplicatively in h
    (NotAction otherwise).  A must be abelian.
    """
    TA, mA, mH = A.table, A.table.mul, H.table.mul
    if any(mA[a][b] != mA[b][a] for a in TA.gens for b in TA.gens):
        raise NotAction("kernel of a semidirect product must be abelian here")
    n, points = A.order, list(range(A.order))
    if len(act) != H.order:
        raise NotAction(f"{len(act)} actions for the {H.order} elements of H")
    # both laws by the generator lemma: on A's generators against all of A,
    # and on H's generators against all of H
    for f in act:
        if sorted(f) != points:
            raise NotAction("act[h] is not a bijection of A")
        if any(f[mA[a][b]] != mA[f[a]][f[b]] for a in TA.gens for b in points):
            raise NotAction("act[h] is not an automorphism")
    if any(act[mH[h1][h2]][a] != act[h1][act[h2][a]] for h1 in H.table.gens
           for h2 in range(H.order) for a in points):
        raise NotAction("act is not multiplicative in h")

    # (a1, h1)(a2, h2) has first component mA[a1][act[h1][a2]]
    pairs = [(a, h) for a in range(n) for h in range(H.order)]
    return _pair_product(A, H, pairs, [tuple(map(mA[a].__getitem__, act[h]))
                                       for a, h in pairs])


def fingerprint(G: PermGroup) -> tuple:
    """Cheap isomorphism invariants: order, order profile, center size,
    class-size profile, abelianization order."""
    T = G.table
    return (G.order, tuple(sorted(Counter(T.order).items())), len(T.center()),
            tuple(sorted(len(c) for c in T.classes)),
            G.order // len(T.commutator))


def _element_invariants(T: GroupTable) -> list[tuple[int, int, bool]]:
    """(element order, class size, membership in the commutator subgroup)
    per element index.  An isomorphism preserves all three: it maps classes
    to classes and the characteristic subgroup G' onto G'."""
    size = {i: len(c) for c in T.classes for i in c}
    comm = T.commutator
    return [(o, size[i], i in comm) for i, o in enumerate(T.order)]


def find_isomorphism(G1: PermGroup, G2: PermGroup) -> dict[Permutation, Permutation] | None:
    """Explicit isomorphism G1 -> G2, or None.

    Search: invariant fingerprints first, then backtracking over images of a
    greedy generating sequence; the first witness in canonical order is
    returned, so the result is deterministic.  Each chosen image extends the
    partial map from <g_1..g_i-1> to <g_1..g_i> along the Cayley graph, and
    the extension is undone on backtracking.

    Every new image must share its preimage's invariants (element order,
    class size, membership in G'); any other image is a clash like a
    conflicting or reused one.  No isomorphism is cut that way, and the
    candidates keep their order, so the first witness is the one the
    search without this check finds; only dead branches end sooner.
    """
    if G1.order != G2.order:
        return None
    require("isomorphism order", G1.order)
    if fingerprint(G1) != fingerprint(G2):
        return None
    m1, m2 = G1.table.mul, G2.table.mul
    gens = G1.table.generating_set()
    inv1 = _element_invariants(G1.table)
    inv2 = _element_invariants(G2.table)
    buckets: dict[tuple[int, int, bool], list[int]] = {}
    for g, key in enumerate(inv2):
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
                if phi[y] < 0 and not used[fy] and inv1[y] == inv2[fy]:
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

    found = dfs(0)
    del dfs  # a recursive closure is a reference cycle: free it now
    if not found:
        return None
    if len(domain) != G1.order:
        raise PropertyViolated("witness map does not cover the group")
    return {g: G2.elements[f] for g, f in zip(G1.elements, phi)}


def is_isomorphic(G1: PermGroup, G2: PermGroup) -> bool:
    return find_isomorphism(G1, G2) is not None


def _check_on_generators(identity: str,
                         generators: Iterable[tuple[int, Sequence[int]]],
                         images: Sequence[Sequence[int]],
                         tables: Sequence[Sequence[Sequence[int]]],
                         labels: Sequence) -> None:
    """Prove a map phi a homomorphism by the generator lemma: phi(s y) =
    phi(s) phi(y) for every generator s and every y.  The x with
    phi(x y) = phi(x) phi(y) for all y are closed under products and hold
    the generators, so they are the whole finite group: |S| n lookups, not
    n^2.

    `generators` gives each generator s with its row, the index of s y for
    y = 0, 1, ...  phi lands in a direct product: images[c][y] is component
    c of phi(y), in the group with Cayley table tables[c], and the product
    is taken componentwise.  VerificationFailed names the identity, the
    generator and the index pair s * y where the law fails, each element
    by its `labels` entry."""
    for s, row in generators:
        for image, mul in zip(images, tables):
            want = list(map(mul[image[s]].__getitem__, image))
            got = list(map(image.__getitem__, row))
            if got != want:
                y = next(y for y, (a, b) in enumerate(zip(got, want)) if a != b)
                raise VerificationFailed(
                    f"{identity}: the homomorphism law fails at generator "
                    f"{labels[s]}, index pair {labels[s]} * {labels[y]}")


def verify_semidirect_decomposition(E: ExtensionData) -> bool:
    """Check G x_H G = U x| G through the explicit map (u, g) -> (g, ug).

    Works for any kernel U (not necessarily abelian): G acts on U by
    conjugation, so (u1, g1)(u2, g2) = (u1 g1 u2 g1^-1, g1 g2).  The map must
    be a bijection onto the fiber pairs, and a homomorphism into G x G by
    the generator lemma over (u, 1) for the greedy generators u of U and
    (1, g) for the generators g of G.  A failure names the generator and
    the index pair (u, g) * (u', g') where the law fails.
    """
    G, kernel = E.group, E.kernel
    T, mul, n = G.table, G.table.mul, G.order
    items = [(u, g) for u in kernel for g in range(n)]  # (u, g) is number i n + g
    firsts = [g for _, g in items]
    seconds = [mul[u][g] for u, g in items]
    if sorted(zip(firsts, seconds)) != _fiber_pairs(E.kappa, E.kappa):
        raise VerificationFailed("(u,g) -> (g,ug) is not a bijection onto the pairs")
    start = {u: i * n for i, u in enumerate(kernel)}  # the number of (u, 1)
    generators = [(start[u], [start[mul[u][v]] + g for v, g in items])
                  for u in T.generating_set(kernel)]
    generators += [(g, [start[T.conj(g, v)] + mul[g][h] for v, h in items])
                   for g in T.gens]
    _check_on_generators("G x_H G = U x| G by (u, g) -> (g, ug)", generators,
                         (firsts, seconds), (mul, mul), items)
    return True


def verify_pullback_identity(E: ExtensionData) -> bool:
    """For an abelian-kernel extension, verify both structure identities:
    G x_H G = G x_H (A x| H), and (G x_H G) / diagonal(A) = A x| H.

    Each through its explicit map on G x_H G, proved a homomorphism by the
    generator lemma on its generators: phi(g1, g2) = (g1, (g2 g1^-1,
    kappa(g2))) must be a bijection onto the pairs of G x_H (A x| H), and
    psi(g1, g2) = (g2 g1^-1, kappa(g1)) must map onto A x| H with kernel
    the diagonal (the first isomorphism theorem).  A failure names the
    identity, and for the homomorphism law the generator and the index
    pair (g1, g2) * (g1', g2') where it fails.
    """
    kernel, T, kappa = E.kernel, E.group.table, E.kappa
    mul = T.mul
    pos = {a: i for i, a in enumerate(kernel)}  # A's table: the kernel's rows
    A = PermGroup.regular([[pos[mul[a][b]] for b in kernel] for a in kernel])
    sd = semidirect(A, E.quotient, conjugation_action(E))
    fp_gg = fiber_product(E, E)

    number = {p: k for k, p in enumerate(sd.pairs)}
    firsts = [g1 for g1, _ in fp_gg.pairs]
    # psi is phi's second component: kappa(g1) = kappa(g2) on a fiber pair;
    # -1 where g2 g1^-1 is not in A (the kernel is not kappa's)
    psi = [number.get((pos.get(mul[g2][T.inv[g1]]), kappa[g1]), -1)
           for g1, g2 in fp_gg.pairs]
    if sorted(zip(firsts, psi)) != _fiber_pairs(kappa, [h for _, h in sd.pairs]):
        raise VerificationFailed("G x_H G = G x_H (A x| H): phi is not a "
                                 "bijection onto the pairs")
    fmul = fp_gg.group.table.mul
    _check_on_generators(
        "G x_H G = G x_H (A x| H) by (g1, g2) -> (g1, (g2 g1^-1, kappa(g2)))",
        [(s, fmul[s]) for s in fp_gg.group.table.gens], (firsts, psi),
        (mul, sd.group.table.mul), fp_gg.pairs)

    if len(set(psi)) != sd.group.order:
        raise VerificationFailed("(G x_H G)/diagonal(A) = A x| H: psi is not onto")
    diagonal = [k for k, (x, y) in enumerate(fp_gg.pairs) if x == y and x in pos]
    if [k for k, x in enumerate(psi) if x == 0] != diagonal:
        raise VerificationFailed("(G x_H G)/diagonal(A) = A x| H: the kernel "
                                 "of psi is not the diagonal")
    return True


@dataclass(frozen=True)
class DoubleQuotientReport:
    subgroup_count: int
    pattern: tuple[str, ...]
    copies_of_group: int
    copies_of_split: int
    passed: bool


def _cyclic_product(ell: int, K: PermGroup) -> PermGroup:
    """C_ell x K from K's table: element i |K| + g is (i, K.elements[g]),
    C_ell generated by the rotation x -> x + 1 on ell points."""
    cyclic = PermGroup.generate([Permutation.trusted((*range(1, ell), 0))])
    return PermGroup.product(cyclic, K)


def central_double_quotients(E: ExtensionData) -> DoubleQuotientReport:
    """For a central prime-kernel extension with kernel <z>, form C_ell x G,
    locate the central C_ell x C_ell spanned by the two kernel copies, and
    check that of its ell+1 order-ell subgroups, ell give quotients
    isomorphic to G and the remaining one gives C_ell x H.

    Each quotient through its explicit map: U = <(1, z^j)> by
    (i, g) -> g z^(-ij) onto G, and U = {0} x <z> by (i, g) -> (i, kappa(g))
    onto C_ell x H.  The map is proved a homomorphism by the generator lemma
    on C_ell x G's generators, and its kernel must be U; then the image has
    |C_ell x G| / ell elements, all of the target.  One isomorphism search,
    G against C_ell x H, labels the last quotient "G" when G splits.  A
    failure names the subgroup's identity, and for the homomorphism law the
    generator and the index pair (i, g) * (i', g') where it fails.
    """
    ell = len(E.kernel)
    if not E.central or not is_prime(ell):
        raise ValueError("needs a central extension with kernel of prime order")
    G, H = E.group, E.quotient
    n, mul = G.order, G.table.mul
    big = _cyclic_product(ell, G)
    T = big.table

    d_set = {i * n + a for i in range(ell) for a in E.kernel}
    if not d_set <= set(T.center()):
        raise VerificationFailed("kernel square is not central in C_ell x G")
    if len(d_set) != ell * ell or any(T.order[x] not in (1, ell) for x in d_set):
        raise VerificationFailed("kernel square is not elementary abelian of rank 2")

    subgroups = {frozenset(T.cyclic(x)) for x in d_set if T.order[x] == ell}
    if len(subgroups) != ell + 1:
        raise VerificationFailed(
            f"expected {ell + 1} order-{ell} subgroups, found {len(subgroups)}")

    split = _cyclic_product(ell, H)
    group_is_split = is_isomorphic(G, split)
    z = G.table.cyclic(E.kernel[1])  # z[k] is z^k
    items = [(i, g) for i in range(ell) for g in range(n)]  # (i, g) is i n + g
    generators = [(s, T.mul[s]) for s in T.gens]
    pattern = []
    for U in sorted(subgroups, key=sorted):
        if not T.is_normal(U):
            raise VerificationFailed("order-ell subgroup is not normal")
        top = [x - n for x in U if n <= x < 2 * n]  # (1, z^j), if U has it
        if top:
            j = z.index(top[0])
            identity = f"(C_ell x G)/<(1, z^{j})> = G by (i, g) -> g z^(-{j}i)"
            image = [mul[g][z[-i * j % ell]] for i, g in items]
            target, label = G, "G"
        else:
            identity = "(C_ell x G)/({0} x <z>) = C_ell x H by (i, g) -> (i, kappa(g))"
            image = [i * H.order + E.kappa[g] for i, g in items]
            target, label = split, "G" if group_is_split else "CxH"
        _check_on_generators(identity, generators, (image,),
                             (target.table.mul,), items)
        if {x for x, y in enumerate(image) if y == 0} != U:
            raise VerificationFailed(f"{identity}: the kernel is not the subgroup")
        pattern.append(label)
    n_g = pattern.count("G")
    n_s = pattern.count("CxH")
    ok = (n_g == ell + 1) if group_is_split else (n_g == ell and n_s == 1)
    if not ok:
        raise VerificationFailed(f"quotient pattern {pattern} is wrong")
    return DoubleQuotientReport(len(subgroups), tuple(pattern), n_g, n_s, True)


@dataclass(frozen=True)
class SolutionClassCounts:
    rank: int
    trivial_class_size: int
    nontrivial_class_size: int
    trivial_multiplicity: int
    nontrivial_multiplicity: int
    index_subgroup_count: int


def solution_class_counts(G: PermGroup, ell: int) -> SolutionClassCounts:
    """Sizes and fiber multiplicities of the solution-parameterizing classes.

    With r the ell-rank of the maximal abelian quotient, the trivial class
    has (ell^r - 1)/(ell - 1) + 1 members and one preimage; every other class
    has ell^r members and ell - 1 preimages.  The index-ell subgroups above
    the commutator-and-ell-th-powers subgroup, the hyperplanes of the
    elementary abelian quotient that `series._children` builds, are counted
    and must agree.
    """
    r = abelianization_rank(G, ell)
    hyperplanes = (ell ** r - 1) // (ell - 1)
    found = sum(m.bit_count() * ell == G.order
                for m in _children(G.table, (1 << G.order) - 1))
    if found != hyperplanes:
        raise VerificationFailed(
            f"index-{ell} subgroup count {found} != {hyperplanes}")

    return SolutionClassCounts(
        rank=r,
        trivial_class_size=hyperplanes + 1,
        nontrivial_class_size=ell ** r,
        trivial_multiplicity=1,
        nontrivial_multiplicity=ell - 1,
        index_subgroup_count=found,
    )
