"""Group extensions, fiber products, and embedding-problem verification.

Everything here is index arithmetic over the groups' Cayley tables: a kernel
is a sorted tuple of element indices, a quotient map lists per element the
index of its image, and an action is a table over kernel positions.
Constructions with no natural permutation action (fiber products, semidirect
products) are built on pairs of element indices, multiplied through the
factors' tables, and realized as the regular action of that table
(`PermGroup.regular`), so the pair in canonical position i is element i.
Direct products with a cyclic factor are `PermGroup.product` of the
catalog's cyclic group and the other, numbered the same way.  The suites
realize only the groups whose tables their checks read: A x| H in 4.5 and
C_ell x G in 4.7.  G x_H G (4.5) and C_ell x H (4.7) are only the domain
or the target of a map checked on generators, so the rows the check reads
come from G's and H's tables and neither is built.

The structure identities of the embedding problem (suites 4.4, 4.5 and 4.7)
are proved through their canonical maps; the module has no isomorphism
search.  A central extension by C_ell splits (4.7's last quotient) exactly
when its kernel misses G'G^ell, the kernel of every map G -> C_ell
(`central_double_quotients`).  A map phi is a homomorphism by the
generator lemma: phi(s y) = phi(s) phi(y) for every generator s and every
y suffices, |S| n lookups instead of n^2 (`_check_on_generators`).  A
bijection onto the target, or a map onto it with the expected kernel, then
gives the isomorphism.  A map that fails raises VerificationFailed naming
the identity, the generator and the index pair where the law fails.
`semidirect` checks its action's laws by the same lemma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Sequence

from .catalog import cyclic
from .errors import (NotAction, PropertyViolated, QuotientMismatch,
                     VerificationFailed)
from .intmath import is_prime
from .permcore import PermGroup, abelianization_rank, quotient_with_map
from .series import _children


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
    is taken componentwise.  Only the rows tables[c][images[c][s]] are read,
    so a mapping that holds those rows serves as well as the full table.
    VerificationFailed names the identity, the generator and the index pair
    s * y where the law fails, each element by its `labels` entry."""
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

    G x_H G is never built as a group.  Its fiber pairs, in canonical
    order, number its elements, and its generators are (g, g) for the
    generators g of G and (1, u) for the greedy generators u of the kernel:
    they generate it, as (g1, g2) = (g1, g1)(1, g1^-1 g2) with g1^-1 g2 in
    the kernel.  A generator's row, the number of (s1 y1, s2 y2) for each
    pair (y1, y2), is read off G's table, and the rows must stay in the
    pairs and reach all of them from (1, 1) before the lemma is applied,
    so generation is checked, not assumed.  A x| H is built (`semidirect`),
    which checks its action's laws and gives the target's table.
    """
    kernel, T, kappa = E.kernel, E.group.table, E.kappa
    mul = T.mul
    pos = {a: i for i, a in enumerate(kernel)}  # A's table: the kernel's rows
    A = PermGroup.regular([[pos[mul[a][b]] for b in kernel] for a in kernel])
    sd = semidirect(A, E.quotient, conjugation_action(E))
    pairs = _fiber_pairs(kappa, kappa)  # G x_H G: pair k is element k

    number = {p: k for k, p in enumerate(sd.pairs)}
    firsts = [g1 for g1, _ in pairs]
    # psi is phi's second component: kappa(g1) = kappa(g2) on a fiber pair;
    # -1 where g2 g1^-1 is not in A (the kernel is not kappa's)
    psi = [number.get((pos.get(mul[g2][T.inv[g1]]), kappa[g1]), -1)
           for g1, g2 in pairs]
    if sorted(zip(firsts, psi)) != _fiber_pairs(kappa, [h for _, h in sd.pairs]):
        raise VerificationFailed("G x_H G = G x_H (A x| H): phi is not a "
                                 "bijection onto the pairs")

    # the generators' rows: s y = (s1 y1, s2 y2), -1 off the pairs
    at = {p: k for k, p in enumerate(pairs)}
    rows = [[at.get((mul[s1][y1], mul[s2][y2]), -1) for y1, y2 in pairs]
            for s1, s2 in [(g, g) for g in T.gens]
            + [(0, u) for u in T.generating_set(kernel)]]
    reached, todo = [False] * len(pairs), [0]
    reached[0] = True
    for x in todo:  # grows while it is scanned
        for row in rows:
            y = row[x]
            if y < 0:
                raise VerificationFailed("G x_H G: a generator leaves the pairs")
            if not reached[y]:
                reached[y] = True
                todo.append(y)
    if len(todo) != len(pairs):
        raise VerificationFailed(f"G x_H G: the generators reach {len(todo)} "
                                 f"of the {len(pairs)} pairs")
    _check_on_generators(
        "G x_H G = G x_H (A x| H) by (g1, g2) -> (g1, (g2 g1^-1, kappa(g2)))",
        [(row[0], row) for row in rows], (firsts, psi),
        (mul, sd.group.table.mul), pairs)

    if len(set(psi)) != sd.group.order:
        raise VerificationFailed("(G x_H G)/diagonal(A) = A x| H: psi is not onto")
    diagonal = [k for k, (x, y) in enumerate(pairs) if x == y and x in pos]
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


@lru_cache(maxsize=1)
def _cyclic_product(ell: int, K: PermGroup) -> PermGroup:
    """C_ell x K from K's table: element i |K| + g is (i, K.elements[g]),
    C_ell the catalog's, generated by the rotation x -> x + 1 on ell
    points.  The last product is kept (K by identity): suite 4.7 meets a
    group's extensions in a row, so it builds C_ell x G once per (ell, G)."""
    return PermGroup.product(cyclic(ell), K)


def _cyclic_product_rows(ell: int, K: PermGroup, xs: Iterable[int]
                         ) -> dict[int, list[int]]:
    """Rows x of C_ell x K's Cayley table, numbered as in `_cyclic_product`,
    by index arithmetic on K's table alone: (i, h)(j, k) = ((i + j) mod ell,
    h k).  C_ell x K is a group because its factors are, which is
    `PermGroup.product`'s own argument, so it is not built."""
    n, mul = K.order, K.table.mul
    return {x: [(x // n + j) % ell * n + k for j in range(ell)
                for k in mul[x % n]] for x in xs}


def central_double_quotients(E: ExtensionData) -> DoubleQuotientReport:
    """For a central prime-kernel extension with kernel <z>, form C_ell x G,
    locate the central C_ell x C_ell spanned by the two kernel copies, and
    check that of its ell+1 order-ell subgroups, ell give quotients
    isomorphic to G and the remaining one gives C_ell x H.

    Each quotient through its explicit map: U = <(1, z^j)> by
    (i, g) -> g z^(-ij) onto G, and U = {0} x <z> by (i, g) -> (i, kappa(g))
    onto C_ell x H.  The map is proved a homomorphism by the generator lemma
    on C_ell x G's generators, and its kernel must be U; then the image has
    |C_ell x G| / ell elements, all of the target.  A failure names the
    subgroup's identity, and for the homomorphism law the generator and the
    index pair (i, g) * (i', g') where it fails.

    C_ell x G is built: its table gives the centrality, order, subgroup and
    normality checks.  C_ell x H is only the lemma's target, of which the
    lemma reads the rows at the generators' images alone; those come from
    H's table (`_cyclic_product_rows`).

    The last quotient is labeled "G" when G splits, G = C_ell x H, which
    holds exactly when z is not in N = G'G^ell, the common kernel of all
    maps G -> C_ell (`GroupTable.ell_kernel`).  Proof, with Z = <z>: if z is
    not in N, some chi: G -> C_ell has chi(z) != 1; its kernel M is normal
    of index ell and misses the central Z, so G = Z x M = C_ell x H.
    Conversely, with r(X) the ell-rank of X/X'X^ell, H'H^ell = NZ/Z gives
    r(H) = r(G) - [z not in N]; G = C_ell x H has r(G) = r(H) + 1, so z is
    not in N.
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

    group_is_split = E.kernel[1] not in G.table.ell_kernel(ell)
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
            table, label = mul, "G"
        else:
            identity = "(C_ell x G)/({0} x <z>) = C_ell x H by (i, g) -> (i, kappa(g))"
            image = [i * H.order + E.kappa[g] for i, g in items]
            table = _cyclic_product_rows(ell, H, {image[s] for s in T.gens})
            label = "G" if group_is_split else "CxH"
        _check_on_generators(identity, generators, (image,), (table,), items)
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
