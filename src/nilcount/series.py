"""Central-series refinements with prime quotients and their exponent data.

A refinement of a nilpotent group G is a chain E = G_r < ... < G_0 = G of
normal subgroups in which every quotient G_{i-1}/G_i has prime order and is
central in G/G_i.  Layer i is the difference set A_i = G_{i-1} \\ G_i with
weight m_i = |A_i| and minimal index a_i; the upper-bound exponent

    d(G) = sum of m_i over the layers with a_i equal to the global minimum,
    d(k,G) = d(G) / [k(zeta_ell):k]   (ell the order of minimal-index elements)

depends on the chosen chain.  `optimize_d` minimizes d over all valid chains;
for groups within the exhaustive cap this is done exactly by a shortest-path
search on the lattice of admissible normal subgroups (equivalent to scanning
every chain, without enumerating them one by one).

Subgroups are bitmasks over `GroupTable` indices.  Whether gN is central in
G/N, its order and the step <N, g> depend only on the coset gN, so the
successors of N cost O(|G|) lookups; a layer carries weight exactly when it
meets the mask of the minimal-index elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (CapExceeded, InvalidChain, NotNilpotent, PropertyViolated,
                     TrivialGroup)
from .malle import BaseFieldData, ind
from .nilpotent import is_nilpotent
from .intmath import is_prime, valuation
from .permcore import GroupTable, PermGroup, Permutation

EXHAUSTIVE_CAP = 128


@dataclass(frozen=True)
class Refinement:
    """A validated chain with its derived layer data.

    `subgroups` runs from the whole group down to the trivial group; layer i
    (1-based, as in the exponent formulas) sits between subgroups[i-1] and
    subgroups[i].
    """

    subgroups: tuple[frozenset[Permutation], ...]
    primes: tuple[int, ...]
    layer_sets: tuple[frozenset[Permutation], ...]
    layer_min_index: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.primes)

    @property
    def subgroup_orders(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.subgroups)

    @property
    def group_order(self) -> int:
        return len(self.subgroups[0])


@dataclass(frozen=True)
class OptimizeResult:
    refinement: Refinement
    d_group: int
    d_field: Fraction
    heuristic_only: bool


def _successors(T: GroupTable, mask: int) -> list[int]:
    """Masks N' > N reachable by one central prime step, ascending.

    N' = <N, g> for g whose class mod N is central in G/N and has prime
    order; such N' is automatically normal in G.  Both tests and N' itself
    depend only on the coset gN, so one element of each coset is tested and
    gN is then marked seen; once N' is built all of it is marked, since
    every element of N' \\ N gives the same N'.  That is O(|G|) table
    lookups for one N.
    """
    mul, commutators = T.mul, T.commutators
    members = list(_bits(mask))
    if len(members) == 1:
        def coset(row: list[int]) -> int:
            return 1 << row[0]
    else:
        pick = itemgetter(*members)

        def coset(row: list[int]) -> int:
            return sum(map((1).__lshift__, pick(row)))
    out = []
    unseen = ((1 << len(mul)) - 1) & ~mask
    while unseen:
        g = (unseen & -unseen).bit_length() - 1
        row = mul[g]
        if not commutators[g] & ~mask:
            powers = [g]
            while not mask >> powers[-1] & 1:
                powers.append(row[powers[-1]])
            if is_prime(len(powers)):
                new = mask
                for x in powers[:-1]:
                    new |= coset(mul[x])
                out.append(new)
                unseen &= ~new
                continue
        unseen &= ~coset(row)
    return sorted(out)


def _layer_stats(T: GroupTable, lower: int, upper: int) -> tuple[int, int, int]:
    """(prime, weight, min index) of the layer between two masks."""
    diff = upper & ~lower
    a = min(T.ind[i] for i in _bits(diff))
    return upper.bit_count() // lower.bit_count(), diff.bit_count(), a


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _require_nilpotent_nontrivial(G: PermGroup) -> None:
    if G.order == 1:
        raise TrivialGroup("refinements need a nontrivial group")
    if not is_nilpotent(G):
        raise NotNilpotent("central prime refinements need a nilpotent group")


def _refinement_from_masks(T: GroupTable, masks_ascending: Sequence[int]) -> Refinement:
    """Build a Refinement from an ascending mask chain known to be valid."""
    # layer 1 is the top step, so reverse the ascending order
    steps = list(zip(masks_ascending, masks_ascending[1:]))[::-1]
    stats = [_layer_stats(T, lower, upper) for lower, upper in steps]
    return Refinement(tuple(T.subset(_bits(m)) for m in reversed(masks_ascending)),
                      tuple(p for p, _, _ in stats),
                      tuple(T.subset(_bits(upper & ~lower)) for lower, upper in steps),
                      tuple(a for _, _, a in stats), tuple(w for _, w, _ in stats))


def enumerate_refinements(G: PermGroup, cap: int = EXHAUSTIVE_CAP) -> list[Refinement]:
    """All maximal chains of central prime steps, in deterministic DFS order.

    Chain counts grow very quickly with the group order; the cap guards the
    exhaustive mode (use `optimize_d` for the optimum without enumeration).
    """
    _require_nilpotent_nontrivial(G)
    if G.order > cap:
        raise CapExceeded(f"group order {G.order} exceeds enumeration cap {cap}")
    T = G.table
    chains: list[list[int]] = []
    stack: list[int] = [1]  # the identity alone

    def dfs() -> None:
        mask = stack[-1]
        if mask == (1 << G.order) - 1:
            chains.append(list(stack))
            return
        for nxt in _successors(T, mask):
            stack.append(nxt)
            dfs()
            stack.pop()

    dfs()
    return [_refinement_from_masks(T, ch) for ch in chains]


def refinement_data(G: PermGroup, chain: Sequence[Iterable[Permutation]]) -> Refinement:
    """Validate a user-supplied chain (whole group first, trivial group last)
    and fill in the derived layer data."""
    subgroups = [frozenset(s) for s in chain]
    if len(subgroups) < 2:
        raise InvalidChain("chain needs at least the full and trivial groups")
    if subgroups[0] != frozenset(G.elements):
        raise InvalidChain("chain must start at the whole group")
    if subgroups[-1] != frozenset({G.identity}):
        raise InvalidChain("chain must end at the trivial group")
    for upper, lower in zip(subgroups, subgroups[1:]):
        if not lower < upper:
            raise InvalidChain("chain is not strictly decreasing")
        if len(upper) % len(lower):
            raise InvalidChain("subgroup orders do not divide")
        if not is_prime(len(upper) // len(lower)):
            raise InvalidChain("quotient is not of prime order")
    T = G.table
    members = [{T.idx[g] for g in sub} for sub in subgroups]
    for sub in members[1:-1]:
        if T.closure(sub) != sub:
            raise InvalidChain("chain member is not a subgroup")
    masks = [_mask(m) for m in members]
    for upper, lower in zip(members, masks[1:]):
        if any(T.commutators[g] & ~lower for g in upper):
            raise InvalidChain(
                "quotient layer is not central in the ambient quotient")
    return _refinement_from_masks(T, masks[::-1])


def critical_prime_of(refinement: Refinement) -> int:
    """Order of the minimal-index elements, read off the attaining layers."""
    a = min(refinement.layer_min_index)
    witnesses = [g for lay, ai in zip(refinement.layer_sets,
                                      refinement.layer_min_index)
                 if ai == a for g in lay if ind(g) == a]
    orders = {g.order() for g in witnesses}
    if len(orders) != 1 or not is_prime(next(iter(orders))):
        raise PropertyViolated(
            f"minimal-index elements have orders {sorted(orders)}")
    return orders.pop()


def d_constant(refinement: Refinement, k: BaseFieldData) -> tuple[int, Fraction]:
    """(d(G), d(k,G)) for one refinement; both exact."""
    a = min(refinement.layer_min_index)
    d_group = sum(m for m, ai in zip(refinement.weights,
                                     refinement.layer_min_index) if ai == a)
    ell = critical_prime_of(refinement)
    e = reduce(lcm, (g.order() for g in refinement.subgroups[0]), 1)
    return d_group, Fraction(d_group, k.n_ell(ell, e))


def all_min_index_central(G: PermGroup) -> bool:
    """True when every minimal-index element is central.

    In that case those elements together with the identity form an elementary
    abelian subgroup of order ell^s, which is asserted.
    """
    _require_nilpotent_nontrivial(G)
    T = G.table
    ind_G = min(T.ind[1:])
    minimal = {i for i in range(1, G.order) if T.ind[i] == ind_G}
    if not minimal <= set(T.center()):
        return False
    orders = {T.order[i] for i in minimal}
    if len(orders) != 1:
        raise PropertyViolated("central minimal-index elements of mixed order")
    ell = orders.pop()
    if valuation(len(minimal) + 1, ell)[1] != 1 or not is_prime(ell):
        raise PropertyViolated(
            f"{len(minimal)} minimal-index elements do not form C_ell^s minus 1")
    sub = minimal | {0}
    if any(T.mul[a][b] not in sub for a in sub for b in sub):
        raise PropertyViolated("minimal-index elements are not closed")
    return True


def optimize_d(G: PermGroup, k: BaseFieldData,
               exhaustive_cap: int = EXHAUSTIVE_CAP) -> OptimizeResult:
    """Minimal d(k,G) over refinements.

    Exhaustive (exact) for |G| <= exhaustive_cap via shortest path over the
    lattice of admissible normal subgroups; above the cap a heuristic chain is
    built instead and flagged.  Ties between minimal chains are broken by the
    subgroup-order sequence and then by the canonical element order, read from
    the top of the chain.
    """
    _require_nilpotent_nontrivial(G)
    if G.order <= exhaustive_cap:
        refinement = _optimal_refinement_exact(G)
        heuristic = False
    else:
        refinement = _heuristic_refinement(G)
        heuristic = True
    d_group, d_field = d_constant(refinement, k)
    return OptimizeResult(refinement, d_group, d_field, heuristic)


def _optimal_refinement_exact(G: PermGroup) -> Refinement:
    """Cheapest chain from the trivial group up to G, built one level at a
    time: every step multiplies the order by a prime, so all paths to one
    subgroup have the same length.

    A step costs its weight when its layer meets `minimal`, the mask of the
    minimal-index elements, and nothing otherwise.  Ties go to the least
    subgroup orders, then the least masks, both read from the top.  Two
    paths into the same N differ only below N, so they compare as their
    predecessors' best paths do: first by subgroup orders, which `rank`
    numbers in ascending order within a level, then by the predecessor's
    mask.  So a state keeps its cost, its rank and its predecessor, not its
    path.
    """
    T = G.table
    ind_G = min(T.ind[1:])
    minimal = _mask(i for i in range(1, G.order) if T.ind[i] == ind_G)
    full_mask = (1 << G.order) - 1
    below: dict[int, int] = {}
    level = {1: (0, 0)}  # state -> (cost, rank)
    while full_mask not in level:
        reached: dict[int, tuple[int, int, int]] = {}
        for mask, (cost, rank) in level.items():
            for nxt in _successors(T, mask):
                diff = nxt & ~mask
                step = diff.bit_count() if diff & minimal else 0
                cand = (cost + step, rank, mask)
                cur = reached.get(nxt)
                if cur is None or cand < cur:
                    reached[nxt] = cand
        if not reached:
            raise NotNilpotent("no central prime chain reaches the whole group")
        keys = sorted({(m.bit_count(), r) for m, (_, r, _) in reached.items()})
        rank_of = {key: i for i, key in enumerate(keys)}
        level = {}
        for m, (cost, r, low) in reached.items():
            below[m] = low
            level[m] = (cost, rank_of[m.bit_count(), r])
    chain = [full_mask]
    while chain[-1] != 1:
        chain.append(below[chain[-1]])
    return _refinement_from_masks(T, chain[::-1])


def _heuristic_refinement(G: PermGroup) -> Refinement:
    """Greedy chain for groups above the exhaustive cap.

    When the minimal-index elements are central (so they form an elementary
    abelian subgroup V), route the chain through V; the layers inside V then
    carry all the minimal-index weight and the result meets the lower bound
    of the element count, hence is optimal.  Otherwise capture minimal-index
    elements as deep (early, low-weight) as possible, greedily.
    """
    T = G.table
    ind_G = min(T.ind[1:])
    minimal = _mask(i for i in range(1, G.order) if T.ind[i] == ind_G)
    target_v = minimal | 1 if all_min_index_central(G) else None
    chain = [1]
    while chain[-1] != (1 << G.order) - 1:
        cur = chain[-1]
        cands = _successors(T, cur)
        if not cands:
            raise NotNilpotent("no central prime chain reaches the whole group")

        def priority(nxt: int) -> tuple:
            layer = nxt & ~cur
            n_min = (layer & minimal).bit_count()
            if target_v is not None and cur != target_v and not cur & ~target_v:
                # grow inside V first
                return (0 if not nxt & ~target_v else 1,)
            # a pure minimal-index layer is cheapest now, a mixed one dearest
            bucket = 0 if n_min == layer.bit_count() else 1 if n_min == 0 else 2
            return (bucket, layer.bit_count() if n_min else 0)

        chain.append(min(cands, key=lambda m: (priority(m), tuple(_bits(m)))))
    return _refinement_from_masks(T, chain)


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
