"""Property tests: exact integer roots, primality against sympy, and cycle
notation round trips.  Derandomized, so every run draws the same examples."""

from hypothesis import given, settings, strategies as st
from sympy import isprime

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
