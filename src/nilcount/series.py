"""Central-series refinements with prime quotients and their exponent data.

A refinement of a nilpotent group G is a chain E = G_r < ... < G_0 = G of
normal subgroups in which every quotient G_{i-1}/G_i has prime order and is
central in G/G_i.  Layer i is the difference set A_i = G_{i-1} \\ G_i with
weight m_i = |A_i| and minimal index a_i; the upper-bound exponent

    d(G) = sum of m_i over the layers with a_i equal to the global minimum,
    d(k,G) = d(G) / [k(zeta_ell):k]   (ell the order of minimal-index elements)

depends on the chosen chain.  `_children` is the one definition of a step:
the M one central prime step below a normal N are the hyperplanes of the
F_p-spaces N/([G,N] N^p).  Enumeration, chain validation and `optimize_d`
all walk it from G down; `optimize_d` minimizes d exactly at every order by
a branch and bound, the minimal-index elements in a subgroup bounding the
cost below it.

Subgroups are bitmasks over `GroupTable` indices; a `Refinement` is a table
and its chain's masks.  A layer carries weight exactly when it meets the
table's mask of the minimal-index elements, whose common order is ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate, count, pairwise
from operator import itemgetter, or_
from typing import Iterable, Sequence

from .errors import (InvalidChain, NotNilpotent, PropertyViolated,
                     TrivialGroup, require)
from .malle import BaseFieldData
from .nilpotent import is_nilpotent
from .intmath import prime_factors, valuation
from .permcore import GroupTable, PermGroup, Permutation, bits


@dataclass(frozen=True, eq=False)
class Refinement:
    """A validated chain: the group's table and the subgroup masks, from the
    whole group down to the trivial group.  Layer i (1-based, as in the
    exponent formulas) sits between subgroups[i-1] and subgroups[i]; the
    layer data are read from the masks and `table.ind`, and `subgroups` and
    `layer_sets` are built as frozensets of permutations on first use.
    """

    table: GroupTable
    masks: tuple[int, ...]

    def __eq__(self, other) -> bool:  # equal sets, whichever table holds them
        return (isinstance(other, Refinement) and self.masks == other.masks
                and self.table.elements == other.table.elements)

    def __hash__(self) -> int:
        return hash(self.masks)

    @property
    def _layers(self) -> list[int]:
        return [upper & ~lower for upper, lower in pairwise(self.masks)]

    @cached_property
    def layer_sets(self) -> tuple[frozenset[Permutation], ...]:
        return tuple(self.table.subset(bits(d)) for d in self._layers)

    @cached_property
    def subgroups(self) -> tuple[frozenset[Permutation], ...]:
        # a subgroup is the identity and the layers below it
        return tuple(accumulate(reversed(self.layer_sets), or_,
                                initial=self.table.subset([0])))[::-1]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(u.bit_count() // l.bit_count() for u, l in pairwise(self.masks))

    @property
    def layer_min_index(self) -> tuple[int, ...]:
        return tuple(min(map(self.table.ind.__getitem__, bits(d)))
                     for d in self._layers)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(d.bit_count() for d in self._layers)

    @property
    def length(self) -> int:
        return len(self.masks) - 1

    @property
    def subgroup_orders(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    @property
    def group_order(self) -> int:
        return self.masks[0].bit_count()


@dataclass(frozen=True)
class OptimizeResult:
    """`heuristic_only` is always False, kept for the report schema."""

    refinement: Refinement
    d_group: int
    d_field: Fraction
    heuristic_only: bool


def _coset_of(T: GroupTable, mask: int):
    """x -> the mask of x*S, for the subgroup S given by `mask`."""
    mul, members = T.mul, list(bits(mask))
    if len(members) == 1:  # itemgetter of one index returns a bare int
        return lambda x: 1 << mul[x][members[0]]
    pick = itemgetter(*members)
    return lambda x: sum(map((1).__lshift__, pick(mul[x])))


def _children(T: GroupTable, mask: int) -> list[int]:
    """Masks M < N one central prime step below the normal N (N/M of prime
    order, central in G/M; such M is normal), by ascending (|M|, M).

    The M of index p are the subgroups of index p above K = [G,N] N^p, that
    is the hyperplanes of the F_p-space N/K; [G,N] is the normal closure of
    the commutators of N with the generators.  The cosets of K get
    coordinates on a greedy basis.  Each functional whose first nonzero
    coefficient is 1 is built one coordinate at a time, as the p masks on
    which it takes each value, and its kernel is one M.
    """
    mul = T.mul
    seeds = reduce(or_, map(T.commutators.__getitem__, bits(mask)))
    comm = _mask(T.normal_closure(bits(seeds)))
    out = []
    for p in prime_factors(mask.bit_count() // comm.bit_count()):
        coset, K = _coset_of(T, comm), comm
        for x in bits(mask):  # x -> x^p is a homomorphism of N/[G,N]
            y = x
            for _ in range(p - 1):
                y = mul[y][x]
            if not K >> y & 1:
                K |= coset(y)
        coset, span, reps = _coset_of(T, K), K, [(0, ())]
        for x in bits(mask):  # reps: one element per coset of K in span
            if not span >> x & 1:
                reps = [(mul[r][y], v + (t,))
                        for t, y in enumerate(T.cyclic(x)[:p]) for r, v in reps]
                span = reduce(or_, (coset(r) for r, _ in reps))
        reps = [(coset(r), v) for r, v in reps]
        cols = [[reduce(or_, (c for c, v in reps if v[i] == t), 0)  # x_i = t
                 for t in range(p)] for i in range(len(reps[0][1]))]
        for j, parts in enumerate(cols):  # x_j + sum of a_i x_i, i > j
            states = [parts]
            for col in cols[j + 1:]:
                states = [[reduce(or_, (parts[(c - a * t) % p] & col[t]
                                        for t in range(p))) for c in range(p)]
                          for parts in states for a in range(p)]
            out += [parts[0] for parts in states]
    return sorted(out, key=lambda m: (m.bit_count(), m))


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _require_nilpotent_nontrivial(G: PermGroup) -> None:
    if G.order == 1:
        raise TrivialGroup("refinements need a nontrivial group")
    if not is_nilpotent(G):
        raise NotNilpotent("central prime refinements need a nilpotent group")


def enumerate_refinements(G: PermGroup, cap: int | None = None) -> list[Refinement]:
    """All maximal chains of central prime steps, by their masks read from
    the bottom: a DFS from G through cached `_children`.  Chain counts grow
    very quickly, so |G| above `cap` (default: the "enumeration order"
    limit) and the chain past the "listed chains" limit are refused."""
    _require_nilpotent_nontrivial(G)
    require("enumeration order", G.order, limit=cap)
    T = G.table
    children = cache(lambda mask: _children(T, mask))  # chains share states
    chains: list[tuple[int, ...]] = []

    def dfs(chain: tuple[int, ...]) -> None:
        if chain[-1] == 1:
            chains.append(chain)
            require("listed chains", len(chains))
            return
        for m in children(chain[-1]):
            dfs(chain + (m,))

    dfs(((1 << G.order) - 1,))
    return [Refinement(T, ch) for ch in sorted(chains, key=lambda ch: ch[::-1])]


def refinement_data(G: PermGroup, chain: Sequence[Iterable[Permutation]]) -> Refinement:
    """Validate a user-supplied chain (whole group first, trivial group last)
    and fill in the derived layer data.  Past its shape, each step from the
    top must be one of `_children`; any failure is InvalidChain."""
    subgroups = [frozenset(s) for s in chain]
    if len(subgroups) < 2:
        raise InvalidChain("chain needs at least the full and trivial groups")
    if subgroups[0] != frozenset(G.elements):
        raise InvalidChain("chain must start at the whole group")
    if subgroups[-1] != frozenset({G.identity}):
        raise InvalidChain("chain must end at the trivial group")
    if any(not lower < upper for upper, lower in pairwise(subgroups)):
        raise InvalidChain("chain is not strictly decreasing")
    T = G.table  # every member lies in G, so each has an index
    masks = tuple(_mask(map(T.idx.__getitem__, sub)) for sub in subgroups)
    for i, (upper, lower) in enumerate(pairwise(masks), 1):
        if lower not in _children(T, upper):
            raise InvalidChain(f"step {i} is not a central step of prime order")
    return Refinement(T, masks)


def d_constant(refinement: Refinement, k: BaseFieldData) -> tuple[int, Fraction]:
    """(d(G), d(k,G)) for one refinement; both exact."""
    T = refinement.table
    d_group = sum(d.bit_count() for d in refinement._layers if d & T.minimal)
    return d_group, Fraction(d_group, k.n_ell(T.critical_prime(), T.exponent))


def all_min_index_central(G: PermGroup) -> bool:
    """True when every minimal-index element is central.

    In that case those elements together with the identity form an elementary
    abelian subgroup of order ell^s, which is asserted.
    """
    _require_nilpotent_nontrivial(G)
    T = G.table
    if T.minimal & ~_mask(T.center()):
        return False
    ell, n = T.critical_prime(), T.minimal.bit_count()
    if valuation(n + 1, ell)[1] != 1:
        raise PropertyViolated(
            f"{n} minimal-index elements do not form C_ell^s minus 1")
    if not T.is_subgroup(bits(T.minimal | 1)):
        raise PropertyViolated("minimal-index elements are not closed")
    return True


def optimize_d(G: PermGroup, k: BaseFieldData) -> OptimizeResult:
    """Minimal d(k,G) over refinements, exact at every order.

    A branch and bound from G downwards (see `_optimal_refinement`), refused
    past the "search nodes" limit of expanded subgroups.
    Ties between minimal chains are broken by the subgroup-order sequence and
    then by the masks, both read from the top of the chain.
    """
    _require_nilpotent_nontrivial(G)
    refinement = _optimal_refinement(G)
    d_group, d_field = d_constant(refinement, k)
    return OptimizeResult(refinement, d_group, d_field, False)


def _optimal_refinement(G: PermGroup) -> Refinement:
    """Depth-first from G through `_children`, keeping the least key
    (cost, orders from the top, masks from the top) found at a leaf.

    A step costs its weight when its layer meets `minimal`, and each
    minimal-index element of M lies in a layer below M, so cost so far plus
    |M & minimal| bounds every chain through M.  A child goes when that
    bound and its orders exceed the best key's, or tie with it while |M| is
    a prime power: the orders below M are then forced, and the best chain
    came first.  A subgroup reached again by no better a path (cost and
    orders) is not expanded twice.
    """
    T, minimal = G.table, G.table.minimal
    best, seen, expanded = (G.order, (), ()), {}, count(1)

    def visit(mask: int, cost: int, orders: tuple, masks: tuple) -> None:
        nonlocal best
        if mask == 1:
            best = min(best, (cost, orders, masks))
            return
        if seen.get(mask, (G.order,)) <= (cost, orders):
            return
        seen[mask] = (cost, orders)
        require("search nodes", next(expanded))
        for m in _children(T, mask):
            diff = mask & ~m
            step = cost + (diff.bit_count() if diff & minimal else 0)
            key = (step + (m & minimal).bit_count(), orders + (m.bit_count(),))
            bar = (best[0], best[1][:len(key[1])])
            if key < bar or key == bar and len(prime_factors(key[1][-1])) > 1:
                visit(m, step, key[1], masks + (m,))

    full = (1 << G.order) - 1
    visit(full, 0, (G.order,), (full,))
    return Refinement(T, best[2])


def refinement_to_json(refinement: Refinement,
                       k: BaseFieldData | None = None) -> dict:
    out = {
        "subgroup_orders": list(refinement.subgroup_orders),
        "primes": list(refinement.primes),
        "layer_min_index": list(refinement.layer_min_index),
        "weights": list(refinement.weights),
    }
    if k is not None:
        d_group, d_field = d_constant(refinement, k)
        out["d_group"] = d_group
        out["d_field"] = str(d_field)
    return out
