"""Property tests: exact integer roots, primality against sympy, cycle
notation round trips, isomorphism search on relabeled Cayley tables, and
cyclic field counts against their enumeration.  Derandomized, so every run
draws the same examples."""

from bisect import bisect_right
from functools import cache

from hypothesis import given, settings, strategies as st
from sympy import isprime

from nilcount.catalog import cyclic, resolve
from nilcount.counting import count_cyclic_ell_at, enumerate_cyclic_ell
from nilcount.extension import find_isomorphism, fingerprint, semidirect
from nilcount.intmath import _MR_EXACT, iroot, is_prime
from nilcount.permcore import (PermGroup, Permutation, cycle_string,
                               parse_generators)

FIXED = settings(derandomize=True, database=None, max_examples=200,
                 deadline=None)


@FIXED
@given(st.integers(1, 400).flatmap(lambda b: st.integers(2 ** (b - 1),
                                                         2 ** b - 1)),
       st.one_of(st.integers(1, 60), st.integers(1, 10 ** 4)))
def test_iroot_brackets_the_root(x, d):
    # x of every bit length, on both sides of 2^52; a d above 400 is the
    # x < 2^d case
    r = iroot(x, d)
    assert r ** d <= x < (r + 1) ** d


@FIXED
@given(st.one_of(st.integers(-10, 10 ** 6), st.integers(0, _MR_EXACT - 1)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


@FIXED
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=4)))
def test_cycle_string_round_trips(gens):
    perms = [Permutation(g) for g in gens]
    text = ";".join(cycle_string(p) for p in perms)
    assert parse_generators(text, degree=len(gens[0])) == perms


# catalog groups of order <= 81, each with the name of its isomorphism type
ISOMORPHISM_TYPE = {
    "Q8": "Q8", "Q16": "Q16", "Q32": "Q32", "D4_S4": "D4", "D4_S8": "D4",
    "C4xC2_S8": "C4xC2", "C2xC4": "C4xC2", "V4_S4": "C2xC2",
    "C2xC2": "C2xC2", "Heis27": "Heis27", "Q8xC3_S24": "Q8xC3",
    "D4xC3_S12": "D4xC3", "S3": "S3", "C6": "C6", "C3xC2": "C6",
    "C12": "C12", "C2xC6": "C2xC6", "C8": "C8", "C2xC2xC2": "C2xC2xC2",
    "C4xC4": "C4xC4", "C9xC3": "C9xC3", "C27": "C27",
    "C3xC3xC3": "C3xC3xC3", "C81": "C81", "C9xC9": "C9xC9",
    "C3xC3xC3xC3": "C3xC3xC3xC3",
    # Q8 x C2 and C4 x| C4 share a fingerprint but are not isomorphic
    # (C4 x| C4 has elements of order 4 whose square is not a commutator,
    # Q8 x C2 none), so their search runs to the end
    "Q8xC2": "Q8xC2", "C4:C4": "C4:C4",
}


@cache
def type_group(name: str) -> PermGroup:
    if name == "Q8xC2":
        return PermGroup.product(resolve("Q8").group(), cyclic(2))
    if name == "C4:C4":  # the generator of H inverts A
        A, H = cyclic(4), cyclic(4)
        return semidirect(A, H, [A.table.inv if h % 2 else range(4)
                                 for h in range(4)]).group
    return resolve(name).group()


def relabeled(G: PermGroup, sigma: list[int]) -> PermGroup:
    """The regular group of G's Cayley table with element i renamed
    sigma[i] (sigma[0] = 0)."""
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(G.table.mul):
        out = rows[sigma[a]]
        for b, c in enumerate(row):
            out[sigma[b]] = sigma[c]
    return PermGroup.regular(rows)


NAMES = sorted(ISOMORPHISM_TYPE)
# every pair of names with one fingerprint: these reach the search
SAME_FINGERPRINT = [(a, b) for a in NAMES for b in NAMES if a != b
                    and fingerprint(type_group(a)) == fingerprint(type_group(b))]


def test_shared_fingerprints_of_the_pool():
    assert {(a, b) for a, b in SAME_FINGERPRINT
            if ISOMORPHISM_TYPE[a] != ISOMORPHISM_TYPE[b]} == {
        ("C4:C4", "Q8xC2"), ("Q8xC2", "C4:C4")}

    def squares_outside_commutators(name):
        T = type_group(name).table
        return sum(T.order[g] == 4 and T.mul[g][g] not in T.commutator
                   for g in range(len(T.mul)))
    # the two types differ by an invariant the fingerprint does not hold
    assert squares_outside_commutators("C4:C4") == 8
    assert squares_outside_commutators("Q8xC2") == 0


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.one_of(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)),
                 st.sampled_from(SAME_FINGERPRINT)), st.data())
def test_find_isomorphism_on_relabeled_tables(pair, data):
    # G against a relabeled copy of itself, then of the other group
    G = type_group(pair[0])
    for name in pair:
        K = type_group(name)
        K = relabeled(K, [0] + data.draw(st.permutations(range(1, K.order))))
        phi = find_isomorphism(G, K)
        if ISOMORPHISM_TYPE[name] != ISOMORPHISM_TYPE[pair[0]]:
            assert phi is None
            continue
        f = [K.table.idx[phi[g]] for g in G.elements]
        assert sorted(f) == list(range(G.order))
        m1, m2 = G.table.mul, K.table.mul
        assert all(f[m1[x][y]] == m2[f[x]][f[y]]
                   for x in range(G.order) for y in range(G.order))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]),
       st.lists(st.tuples(st.integers(1, 3000), st.integers(-1, 1)),
                min_size=1, max_size=6))
def test_cyclic_count_matches_enumeration(ell, points):
    # x next to a discriminant f^(ell - 1); F = iroot(x, ell - 1) takes the
    # floor-set count from (ell - 1)^4 on (16, 256, 1296) and the sweep
    # below it, and always at ell = 13
    xs = [max(f ** (ell - 1) + e, 1) for f, e in points]
    discs = [disc for disc, _, _ in enumerate_cyclic_ell(ell, max(xs))]
    assert count_cyclic_ell_at(ell, xs) == [bisect_right(discs, x)
                                            for x in xs]
