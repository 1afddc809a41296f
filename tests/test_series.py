import hashlib
import importlib.util
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement
from math import lcm
from pathlib import Path

import pytest

from nilcount import series
from nilcount.catalog import (abelian, cyclic, dihedral4_regular,
                              dihedral4_s4, generalized_quaternion, get_group,
                              nilpotent_catalog, resolve)
from nilcount.errors import (LIMITS, BudgetExceeded, InvalidChain,
                             NotNilpotent, PropertyViolated, TrivialGroup)
from nilcount.malle import BaseFieldData, b_constant, ind, min_index
from nilcount.permcore import (GroupTable, PermGroup, bits, mulclose,
                               parse_generators)
from nilcount.intmath import is_prime, prime_factors, valuation
from nilcount.series import (Refinement, _coset_of, all_min_index_central,
                             d_constant, enumerate_refinements, optimize_d,
                             refinement_data, refinement_to_json)

Q = BaseFieldData.rationals()


def subgroup_orders(ref: Refinement) -> list[int]:
    return list(ref.subgroup_orders)


def test_unique_chain_for_prime_cyclic():
    for ell in (2, 3, 5):
        refs = enumerate_refinements(cyclic(ell))
        assert len(refs) == 1
        assert subgroup_orders(refs[0]) == [ell, 1]
        assert refs[0].primes == (ell,)
        assert refs[0].weights == (ell - 1,)


def test_c4xc2_chains_include_good_and_bad_routes():
    G = abelian(4, 2)
    refs = enumerate_refinements(G)
    assert len(refs) == 5
    d_values = sorted(d_constant(r, Q)[0] for r in refs)
    assert d_values == [3, 3, 3, 5, 5]
    # the good route has mid subgroup of exponent 2, the bad one is cyclic
    kinds = set()
    for r in refs:
        mid = r.subgroups[1]
        exp2 = all(g.order() <= 2 for g in mid)
        kinds.add((exp2, d_constant(r, Q)[0]))
    assert (True, 3) in kinds
    assert (False, 5) in kinds


def test_d4_regular_chain_through_cyclic_subgroup():
    G = dihedral4_regular()
    refs = enumerate_refinements(G)
    assert len(refs) == 3
    outcomes = {}
    for r in refs:
        mid = r.subgroups[1]
        cyclic_mid = any(g.order() == 4 for g in mid)
        outcomes[cyclic_mid] = r.layer_min_index
    # through the unique cyclic C4: layers (4, 6, 4); through a Klein
    # subgroup both upper layers hit the minimum
    assert outcomes[True] == (4, 6, 4)
    assert outcomes[False] == (4, 4, 4)
    ds = sorted(d_constant(r, Q)[0] for r in refs)
    assert ds == [5, 7, 7]


def test_refinement_data_q8_layers():
    G = generalized_quaternion(4)
    for ref in enumerate_refinements(G):
        assert ref.layer_min_index == (6, 6, 4)
        check = refinement_data(G, ref.subgroups)
        assert check == ref and hash(check) == hash(ref)
        # the same chain read into a second build of Q8 is the same refinement
        assert refinement_data(generalized_quaternion(4), ref.subgroups) == ref
        assert check.layer_min_index == (6, 6, 4)
        assert check.weights == (4, 2, 1)
        assert check.primes == (2, 2, 2)


def test_refinement_data_d4_s4_good_chain():
    G = dihedral4_s4()
    best = optimize_d(G, Q).refinement
    assert best.layer_min_index == (2, 1, 2)
    assert min(best.layer_min_index) == min_index(G)[0] == 1


def test_refinement_data_validation():
    G = generalized_quaternion(4)
    good = enumerate_refinements(G)[0].subgroups
    with pytest.raises(InvalidChain):
        refinement_data(G, good[1:])  # does not start at G
    with pytest.raises(InvalidChain):
        refinement_data(G, good[:-1])  # does not end at the trivial group
    with pytest.raises(InvalidChain):
        # order-4 jump is not prime
        refinement_data(G, [good[0], good[2], good[3]])
    d4 = dihedral4_s4()
    r = next(g for g in d4.elements if g.order() == 4)
    s = next(g for g in d4.elements if g.order() == 2 and ind(g) == 1)
    with pytest.raises(InvalidChain):
        # the step V4 > <s> is not central: [s, r] lands outside <s>
        refinement_data(d4, [frozenset(d4.elements),
                             frozenset(mulclose([s, r * r])[0]),
                             frozenset({d4.identity, s}),
                             frozenset({d4.identity})])
    # a non-subgroup member
    bad = [frozenset(d4.elements),
           frozenset({d4.identity, r, s, r * r}),
           frozenset({d4.identity, r * r}),
           frozenset({d4.identity})]
    with pytest.raises(InvalidChain):
        refinement_data(d4, bad)


def test_layers_partition_and_weights():
    for name in ("Q8", "Q16", "C4xC2_S8", "Heis27", "D4xC3_S12"):
        G = resolve(name).group()
        for ref in enumerate_refinements(G):
            union = set()
            for layer in ref.layer_sets:
                assert not (union & layer)
                union |= layer
            assert union == set(G.elements) - {G.identity}
            assert sum(ref.weights) == G.order - 1
            assert list(ref.weights) == [len(a) for a in ref.layer_sets]
            # m_i = (ell_i - 1) * prod_{j > i} ell_j
            prod = 1
            for i in range(ref.length - 1, -1, -1):
                assert ref.weights[i] == (ref.primes[i] - 1) * prod
                prod *= ref.primes[i]
            assert min(ref.layer_min_index) == min_index(G)[0]


def test_d_constant_values():
    d8 = dihedral4_regular()
    best = min(enumerate_refinements(d8), key=lambda r: d_constant(r, Q)[0])
    assert d_constant(best, Q) == (5, Fraction(5))
    q8 = generalized_quaternion(4)
    for ref in enumerate_refinements(q8):
        assert d_constant(ref, Q) == (1, Fraction(1))
    heis = resolve("Heis27").group()
    ref = optimize_d(heis, Q).refinement
    assert d_constant(ref, Q) == (26, Fraction(13))


def test_optimize_known_table():
    assert optimize_d(generalized_quaternion(4), Q).d_group == 1
    assert optimize_d(generalized_quaternion(8), Q).d_group == 1
    assert optimize_d(generalized_quaternion(16), Q).d_group == 1
    assert optimize_d(dihedral4_regular(), Q).d_group == 5
    assert optimize_d(dihedral4_s4(), Q).d_group == 2
    assert optimize_d(abelian(4, 2), Q).d_group == 3


def test_optimize_abelian_rank_law():
    for orders, rank_size in [((2, 2), 4), ((4, 2), 4), ((8, 4), 4),
                              ((3, 3), 9), ((9, 3), 9), ((2, 2, 2), 8)]:
        G = abelian(*orders)
        opt = optimize_d(G, Q)
        assert opt.d_group == rank_size - 1
        assert opt.d_field == b_constant(G, Q)
        assert not opt.heuristic_only


def test_optimize_not_nilpotent_or_trivial():
    with pytest.raises(NotNilpotent):
        optimize_d(resolve("S3").group(), Q)
    with pytest.raises(TrivialGroup):
        optimize_d(cyclic(1), Q)
    with pytest.raises(BudgetExceeded):
        enumerate_refinements(abelian(4, 2), cap=4)


def test_optimize_deterministic_under_generator_reordering():
    gens = resolve("D4_S8").group().generators
    for perm in ([0, 1], [1, 0]):
        reordered = PermGroup.generate([gens[i] for i in perm])
        opt = optimize_d(reordered, Q)
        assert opt.d_group == 5
        assert subgroup_orders(opt.refinement) == [8, 4, 2, 1]
        assert opt.refinement.layer_min_index == (4, 6, 4)


def test_remark_bounds_hold_for_all_chains():
    for name in ("Q8", "D4_S8", "D4_S4", "C4xC2_S8", "Q16"):
        G = resolve(name).group()
        ind_G, _ = min_index(G)
        n_min = sum(1 for g in G.elements
                    if not g.is_identity() and ind(g) == ind_G)
        b = b_constant(G, Q)
        for ref in enumerate_refinements(G):
            d_group, d_field = d_constant(ref, Q)
            assert n_min <= d_group <= G.order - 1
            assert d_field >= b


def test_min_index_central_flags():
    assert all_min_index_central(generalized_quaternion(4))
    assert all_min_index_central(generalized_quaternion(16))
    assert not all_min_index_central(dihedral4_s4())
    assert not all_min_index_central(dihedral4_regular())
    assert all_min_index_central(abelian(4, 2))
    assert all_min_index_central(abelian(3, 3))
    assert not all_min_index_central(resolve("Heis27").group())
    assert all_min_index_central(resolve("Q8xC3_S24").group())


def test_equality_with_b_exactly_when_central():
    for name in ("Q8", "Q16", "D4_S4", "D4_S8", "C4xC2_S8", "Heis27",
                 "Q8xC3_S24", "D4xC3_S12"):
        G = resolve(name).group()
        opt = optimize_d(G, Q)
        b = b_constant(G, Q)
        assert opt.d_field >= b
        assert (opt.d_field == b) == all_min_index_central(G)


def test_optimize_d_exact_above_the_old_cap():
    # a cap once switched larger groups to a greedy chain (d = 7 on D4_S8,
    # 12 on D4xC3_S12); the search is exact at every order
    for name, d in (("D4_S8", 5), ("D4xC3_S12", 2), ("Heis27", 26)):
        opt = optimize_d(resolve(name).group(), Q)
        assert opt.d_group == d and not opt.heuristic_only, name


def test_node_budget_raises(monkeypatch):
    # the search makes 5 expansions on D4_S8 (one subgroup twice)
    G = resolve("D4_S8").group()
    monkeypatch.setitem(LIMITS, "search nodes", 5)
    assert optimize_d(G, Q).d_group == 5
    monkeypatch.setitem(LIMITS, "search nodes", 4)
    with pytest.raises(BudgetExceeded):
        optimize_d(G, Q)


def test_enumeration_expands_each_state_once(monkeypatch):
    calls = []

    def counted(T, mask):
        calls.append(mask)
        return children(T, mask)
    G = abelian(2, 2, 2, 2)
    before = enumerate_refinements(G)
    children = series._children
    monkeypatch.setattr(series, "_children", counted)
    assert enumerate_refinements(G) == before
    # one call per subgroup below the top: 1 + 15 + 35 + 15
    assert len(calls) == len(set(calls)) == 66


def test_listed_chains_limit_boundary(monkeypatch):
    # C2^5 has 9,765 chains; C2^7, within the order cap, has 78,129,765
    G = abelian(2, 2, 2, 2, 2)
    monkeypatch.setitem(LIMITS, "listed chains", 9764)
    with pytest.raises(BudgetExceeded, match="listed chains 9765 exceeds 9764"):
        enumerate_refinements(G)
    monkeypatch.setitem(LIMITS, "listed chains", 9765)
    assert len(enumerate_refinements(G)) == 9765


def test_refinement_json():
    G = generalized_quaternion(4)
    ref = optimize_d(G, Q).refinement
    blob = refinement_to_json(ref, Q)
    assert blob["subgroup_orders"] == [8, 4, 2, 1]
    assert blob["d_group"] == 1
    assert blob["d_field"] == "1"


# The bottom-up step that the library once enumerated with, kept as an
# independent reference for `series._children` and `_bottom_up_oracle`.
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
    coset = _coset_of(T, mask)
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
                    new |= coset(x)
                out.append(new)
                unseen &= ~new
                continue
        unseen &= ~coset(g)
    return sorted(out)


def _successors_per_element(T, mask):
    """Reference: test every g outside N on its own and OR its cosets."""
    mul, inv = T.mul, T.inv
    out = set()
    for g in range(len(mul)):
        if (mask >> g) & 1:
            continue
        if not all((mask >> mul[inv[g]][mul[inv[h]][mul[g][h]]]) & 1
                   for h in T.gens):
            continue
        x, j = g, 1
        while not (mask >> x) & 1:
            x = mul[x][g]
            j += 1
        if not is_prime(j):
            continue
        new, rep = mask, g
        for _ in range(j - 1):
            new |= sum(1 << mul[rep][n] for n in range(len(mul)) if (mask >> n) & 1)
            rep = mul[rep][g]
        out.add(new)
    return sorted(out)


def test_successors_match_per_element_reference():
    for name in ("Q8xC3_S24", "D4xC3_S12", "Heis27", "C4xC4", "C3xC3xC3"):
        T = resolve(name).group().table
        states, todo = {1}, [1]
        while todo:
            mask = todo.pop()
            got = _successors(T, mask)
            assert got == _successors_per_element(T, mask), (name, mask)
            for nxt in got:
                if nxt not in states:
                    states.add(nxt)
                    todo.append(nxt)
        assert (1 << len(T.mul)) - 1 in states


def test_children_are_the_reversed_successors():
    for name in ("Q8xC3_S24", "D4xC3_S12", "Heis27", "C4xC4", "C3xC3xC3",
                 "D4_S8", "C12xC2"):
        T = resolve(name).group().table
        below, todo = {1: set()}, [1]
        while todo:
            mask = todo.pop()
            for nxt in _successors(T, mask):
                if nxt not in below:
                    below[nxt] = set()
                    todo.append(nxt)
                below[nxt].add(mask)
        for mask, subs in below.items():
            assert series._children(T, mask) == sorted(
                subs, key=lambda m: (m.bit_count(), m)), (name, mask)


def _abelian_types(n):
    """Every abelian group of order n as a tuple of prime-power orders."""
    def partitions(e, most):
        if e == 0:
            yield ()
        for k in range(min(e, most), 0, -1):
            for rest in partitions(e - k, k):
                yield (k,) + rest
    types = [()]
    for p in prime_factors(n):
        e = valuation(n, p)[0]
        types = [t + tuple(p ** k for k in part)
                 for t in types for part in partitions(e, e)]
    return types


def _chain_key(G, ref):
    """(d_group, orders from the top, masks from the top)."""
    return d_constant(ref, Q)[0], ref.subgroup_orders, ref.masks


def test_optimize_is_minimum_over_all_chains():
    groups = [G for _, G in nilpotent_catalog()]
    groups += [abelian(*t) for n in range(2, 33) for t in _abelian_types(n)]
    assert len(groups) > 60
    for G in groups:
        best = min(_chain_key(G, r) for r in enumerate_refinements(G))
        opt = optimize_d(G, Q)
        assert _chain_key(G, opt.refinement) == best
        assert opt.d_group == best[0]


def test_optimize_c2_7_chain_pinned():
    # d_group and the subgroup masks (top first) as optimize_d gave them
    # when ties were broken by comparing whole path tuples
    G = abelian(2, 2, 2, 2, 2, 2, 2)
    d_group, orders, masks = _chain_key(G, optimize_d(G, Q).refinement)
    assert d_group == 127
    assert orders == (128, 64, 32, 16, 8, 4, 2, 1)
    assert hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest() == \
        "6c5367c6fddcf932039a005b04ffe1e20dcd06f00c2259e9108b1c6c4b4a252c"


def _bottom_up_oracle(G):
    """The former level search, kept as an independent oracle: cheapest
    chain from the trivial group up to G, one level at a time, ties to the
    least subgroup orders and then the least masks, both read from the top.
    Two paths into one N differ only below N, so a state keeps its cost, the
    rank of its path's orders within the level and its predecessor."""
    T = G.table
    ind_G = min(T.ind[1:])
    minimal = sum(1 << i for i in range(1, G.order) if T.ind[i] == ind_G)
    full_mask = (1 << G.order) - 1
    below = {}
    level = {1: (0, 0)}  # state -> (cost, rank)
    while full_mask not in level:
        reached = {}
        for mask, (cost, rank) in level.items():
            for nxt in _successors(T, mask):
                diff = nxt & ~mask
                step = diff.bit_count() if diff & minimal else 0
                cand = (cost + step, rank, mask)
                if nxt not in reached or cand < reached[nxt]:
                    reached[nxt] = cand
        keys = sorted({(m.bit_count(), r) for m, (_, r, _) in reached.items()})
        rank_of = {key: i for i, key in enumerate(keys)}
        level = {}
        for m, (cost, r, low) in reached.items():
            below[m] = low
            level[m] = (cost, rank_of[m.bit_count(), r])
    chain = [full_mask]
    while chain[-1] != 1:
        chain.append(below[chain[-1]])
    return Refinement(T, tuple(chain))


def _workloads():
    """The benchmark's job lists (the module imports nothing from nilcount)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _oracle_cases(family):
    if family == "catalog":
        return [G for _, G in nilpotent_catalog()]
    if family == "abelian<=32":
        return [abelian(*t) for n in range(2, 33) for t in _abelian_types(n)]
    if family == "mixed":
        return [abelian(*t) for t in ((6, 6, 2), (12, 6), (21, 7))]
    wl = _workloads()
    if family == "benchmark patterns":
        return [resolve(n).group() for n in wl.ABELIAN_PATTERNS]
    return [get_group(wl.natural_product(*f))[1] for f in wl.PRODUCTS.values()]


@pytest.mark.parametrize("family,count", [
    ("catalog", 23), ("abelian<=32", 54), ("benchmark patterns", 22),
    ("benchmark products", 8), ("mixed", 3)])
def test_optimize_matches_bottom_up_oracle(family, count):
    groups = _oracle_cases(family)
    assert len(groups) == count
    for G in groups:
        assert optimize_d(G, Q).refinement == _bottom_up_oracle(G), G


def test_optimize_c2_8_chain_pinned():
    # masks (top first) of the bottom-up oracle's chain, which takes about
    # 40 s on C2^8 and so runs outside the test suite
    G = abelian(*[2] * 8)
    opt = optimize_d(G, Q)
    d_group, orders, masks = _chain_key(G, opt.refinement)
    assert (d_group, opt.heuristic_only) == (255, False)
    assert orders == (256, 128, 64, 32, 16, 8, 4, 2, 1)
    assert hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest() == \
        "9e80288ca6094c41c98c4b155e2d7fbfc139ff4b94363d0a9bc0724ba1bd6673"


@dataclass(frozen=True)
class _ReferenceRefinement:
    """The frozenset-backed refinement that `Refinement` replaced."""

    subgroups: tuple
    primes: tuple
    layer_sets: tuple
    layer_min_index: tuple
    weights: tuple

    @property
    def length(self):
        return len(self.primes)

    @property
    def subgroup_orders(self):
        return tuple(len(s) for s in self.subgroups)

    @property
    def group_order(self):
        return len(self.subgroups[0])


def _reference_from_masks(T, masks_ascending, subset, least_index):
    """Reference: every set built as permutations (the former
    `series._refinement_from_masks`); `subset` and `least_index` map a mask
    to its frozenset and to the least `T.ind` over it."""
    top = masks_ascending[::-1]
    steps = list(zip(top, top[1:]))
    layers = [upper & ~lower for upper, lower in steps]
    return _ReferenceRefinement(
        tuple(map(subset, top)),
        tuple(u.bit_count() // l.bit_count() for u, l in steps),
        tuple(map(subset, layers)),
        tuple(map(least_index, layers)),
        tuple(d.bit_count() for d in layers))


def _reference_d_constant(ref, k, ind, order):
    """Reference: the former permutation walk of `series.d_constant` and
    `series.critical_prime_of`; `ind` and `order` map id(g) to the index and
    order of permutation g."""
    a = min(ref.layer_min_index)
    d_group = sum(m for m, ai in zip(ref.weights, ref.layer_min_index) if ai == a)
    orders = {order(id(g)) for lay, ai in zip(ref.layer_sets, ref.layer_min_index)
              if ai == a for g in lay if ind(id(g)) == a}
    if len(orders) != 1 or not is_prime(next(iter(orders))):
        raise PropertyViolated(f"minimal-index elements have orders {sorted(orders)}")
    e = reduce(lcm, map(order, map(id, ref.subgroups[0])), 1)
    return d_group, Fraction(d_group, k.n_ell(orders.pop(), e))


class _ModulusField:
    """A stand-in base field whose [k(zeta_ell):k] reads both ell and the
    modulus, so d(k,G) shows the critical prime and the exponent."""

    @staticmethod
    def n_ell(ell, modulus):
        return ell * modulus


def test_mask_refinements_match_permutation_reference():
    groups = [G for _, G in nilpotent_catalog()]
    groups += [abelian(*t) for n in range(2, 33) for t in _abelian_types(n)]
    assert len(groups) == 23 + 54
    fields = ("subgroups", "primes", "layer_sets", "layer_min_index", "weights",
              "length", "subgroup_orders", "group_order")
    for G in groups:
        T = G.table
        # every mask and every permutation is worked out once per group;
        # permutations are looked up by identity, as hashing them is slow
        subset = cache(lambda m: T.subset(bits(m)))
        least_index = cache(lambda m: min(map(T.ind.__getitem__, bits(m))))
        ind_of = {id(g): ind(g) for g in G.elements}.__getitem__
        order_of = {id(g): g.order() for g in G.elements}.__getitem__
        refs = enumerate_refinements(G)
        while refs:  # drop each chain's sets once checked (C2^5 has 9,765)
            ref = refs.pop()
            old = _reference_from_masks(T, ref.masks[::-1], subset, least_index)
            for name in fields:
                assert getattr(ref, name) == getattr(old, name), (G, name)
            assert d_constant(ref, _ModulusField) == _reference_d_constant(
                old, _ModulusField, ind_of, order_of), G


def test_mixed_order_minimal_elements_raise():
    # C6 on 7 points: one involution and two 3-cycles share the least index
    G = PermGroup.generate(parse_generators("(1,2)(3,4);(5,6,7)"))
    with pytest.raises(PropertyViolated) as err:
        optimize_d(G, Q)
    assert str(err.value) == "minimal-index elements have orders [2, 3]"


def _closed_by_pairs(T, members):
    S = set(members)
    return 0 in S and all(T.mul[a][b] in S for a in S for b in S)


def test_is_subgroup_matches_pair_scan():
    rng = random.Random(7)
    for name in ("Q16", "D4xC3_S12", "Heis27"):
        T = resolve(name).group().table
        n, closed = len(T.mul), 0
        for _ in range(60):
            sub = T.closure(rng.sample(range(n), rng.randint(0, 2)))
            for S in (sub, sub | {rng.randrange(n)}, sub - {max(sub)} | {0},
                      {0} | set(rng.sample(range(n), rng.randint(1, n - 1)))):
                assert T.is_subgroup(S) == _closed_by_pairs(T, S), (name, S)
                closed += T.is_subgroup(S)
        assert 60 <= closed < 240, name


def _reference_step(T, upper, lower):
    """Reference: the former per-step checks of `refinement_data` on masks:
    strictly decreasing, prime index, `lower` a subgroup, and every
    commutator of `upper` with the generators inside `lower`.  An empty
    `lower` is refused (those checks divided by its order)."""
    if not lower or lower & ~upper or lower == upper:
        return False
    index, rest = divmod(upper.bit_count(), lower.bit_count())
    return (not rest and is_prime(index) and T.is_subgroup(bits(lower))
            and not any(T.commutators[g] & ~lower for g in bits(upper)))


def _reference_accepts(G, masks):
    T, full = G.table, (1 << G.order) - 1
    return (len(masks) >= 2 and masks[0] == full and masks[-1] == 1
            and all(_reference_step(T, u, l) for u, l in zip(masks, masks[1:])))


@pytest.mark.parametrize("name", ["Q8", "D4_S4", "D4_S8", "Heis27",
                                  "D4xC3_S12", "S3", "Q16", "C4xC4",
                                  "C2xC2xC2xC2"])
def test_refinement_data_matches_per_step_reference(name):
    # From every node of a valid chain prefix, step to every subgroup made
    # by up to 3 elements and to 200 random subsets of the node.  The rest of
    # the chain is a valid tail below the step (by the reference) when one
    # exists, so the whole chain stands or falls with that one step.
    rng = random.Random(11)
    G = get_group(name)[1]
    T, n = G.table, G.order
    subgroups = {series._mask(T.closure(gens))
                 for gens in combinations_with_replacement(range(n), 3)}

    @cache
    def tail(mask):
        if mask == 1:
            return ()
        for m in sorted(subgroups):
            if _reference_step(T, mask, m) and tail(m) is not None:
                return (m,) + tail(m)
        return None

    seen, todo, steps, accepted = set(), [((1 << n) - 1,)], 0, 0
    while todo:
        prefix = todo.pop()
        node = prefix[-1]
        randoms = {rng.getrandbits(n) & node | rng.getrandbits(1)
                   for _ in range(200)}
        for m in sorted(subgroups | randoms):
            rest = tail(m)
            masks = prefix + (m,) + (rest if rest is not None else (1,))
            expected = _reference_accepts(G, masks)
            try:
                got = refinement_data(G, [T.subset(bits(x)) for x in masks])
            except InvalidChain:
                got = None
            assert (got is not None) == expected, (name, masks)
            if expected:
                assert got.masks == masks
            steps += 1
            accepted += expected
            if _reference_step(T, node, m) and m != 1 and m not in seen:
                seen.add(m)
                todo.append(prefix + (m,))
    assert steps > 64 and (accepted > 0) == (name != "S3"), (steps, accepted)
