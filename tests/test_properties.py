"""Property tests: exact integer roots, primality against sympy, cycle
notation round trips, and cyclic field counts against their enumeration.
Derandomized, so every run draws the same examples."""

from bisect import bisect_right

from hypothesis import given, settings, strategies as st
from sympy import integer_nthroot, isprime

from nilcount.counting import count_cyclic_ell_at, enumerate_cyclic_ell
from nilcount.intmath import _MR_EXACT, iroot, is_prime
from nilcount.permcore import Permutation, cycle_string, parse_generators

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
@given(st.integers(1, 20000).flatmap(lambda b: st.integers(2 ** (b - 1),
                                                           2 ** b - 1)),
       st.integers(3, 500))
def test_iroot_matches_sympy_for_large_x_and_d(x, d):
    # the float start, the bit-length start where x^(1/d) is past the
    # float range (d <= 19 here), and x < 2^d
    assert iroot(x, d) == integer_nthroot(x, d)[0]


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
