import hashlib
from fractions import Fraction

import pytest

from nilcount.catalog import (abelian, cyclic, dihedral4_regular,
                              dihedral4_s4, generalized_quaternion,
                              nilpotent_catalog, resolve)
from nilcount.errors import (CapExceeded, InvalidChain, NotNilpotent,
                             TrivialGroup)
from nilcount.malle import BaseFieldData, b_constant, ind, min_index
from nilcount.permcore import PermGroup, mulclose
from nilcount.intmath import is_prime, prime_factors, valuation
from nilcount.series import (Refinement, _successors, all_min_index_central,
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
                             frozenset(mulclose([s, r * r])),
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
    with pytest.raises(CapExceeded):
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


def test_heuristic_path_larger_group():
    # drop the cap so the heuristic runs; the minimal-index elements of
    # C4 x C2 are central, so the routed chain is provably optimal
    G = abelian(4, 2)
    opt = optimize_d(G, Q, exhaustive_cap=4)
    assert opt.heuristic_only
    assert opt.d_group == 3
    heis = resolve("Heis27").group()
    opt = optimize_d(heis, Q, exhaustive_cap=4)
    assert opt.heuristic_only
    assert opt.d_group == 26  # every chain gives 26 for this group
    d8 = dihedral4_regular()
    opt = optimize_d(d8, Q, exhaustive_cap=4)
    assert opt.heuristic_only
    assert opt.d_group in (5, 7)  # best effort, flagged as heuristic


def test_refinement_json():
    G = generalized_quaternion(4)
    ref = optimize_d(G, Q).refinement
    blob = refinement_to_json(ref, Q)
    assert blob["subgroup_orders"] == [8, 4, 2, 1]
    assert blob["d_group"] == 1
    assert blob["d_field"] == "1"


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
    a = min(ref.layer_min_index)
    d_group = sum(m for m, ai in zip(ref.weights, ref.layer_min_index) if ai == a)
    masks = tuple(sum(1 << G.table.idx[g] for g in sub) for sub in ref.subgroups)
    return d_group, ref.subgroup_orders, masks


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
