import random
from math import prod

import pytest

from nilcount.intmath import iroot, is_prime, omega, prime_factors, valuation
from oracles import radical


def check_root(x, d):
    r = iroot(x, d)
    assert r ** d <= x < (r + 1) ** d, (x, d, r)


def test_iroot_small_exhaustive():
    for d in range(1, 7):
        for x in range(1, 3000):
            check_root(x, d)
    assert iroot(0, 3) == 0 and iroot(-5, 2) == 0


def test_iroot_random_up_to_10_400():
    rng = random.Random(20201109)
    for _ in range(400):
        x = rng.randrange(1, 10 ** rng.randint(1, 400))
        check_root(x, rng.randint(1, 12))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_iroot_at_powers_and_float_edge(d):
    # exact powers and their neighbours, on both sides of 2^52
    for k in [2, 3, 10, int(2 ** (52 / d)) - 1, int(2 ** (52 / d)) + 1,
              10 ** 40 + 7]:
        for x in (k ** d - 1, k ** d, k ** d + 1):
            check_root(x, d)


def test_is_prime_and_prime_factors():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17,
                                                     19, 23, 29]
    assert prime_factors(1) == [] and prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


def test_valuation_radical_omega_against_sympy():
    from sympy import factorint
    rng = random.Random(20201110)
    for _ in range(40):
        n = rng.randrange(1, 10 ** rng.randint(1, 12))
        f = factorint(n)
        assert prime_factors(n) == sorted(f)
        assert radical(n) == radical(-n) == prod(f)
        assert omega(n) == omega(-n) == len(f)
        for p in list(f) + [2, 3, 7, 1000003]:
            e = f.get(p, 0)
            assert valuation(n, p) == (e, n // p ** e)
            assert valuation(-n * p ** 3, p) == (e + 3, -n // p ** e)


def test_iroot_is_one_below_two_to_the_d():
    # the guard answers before any power of size 2^d is formed
    assert iroot(1000, 10 ** 12) == 1
    assert iroot(1000, 2 ** 61 - 2) == 1
    for d in (3, 10, 100):
        assert iroot(2 ** d - 1, d) == 1 and iroot(2 ** d, d) == 2


def test_is_prime_against_sympy_below_10_5():
    from sympy import isprime
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if isprime(n)]


@pytest.mark.parametrize("n", [
    3825123056546413051,  # strong pseudoprime to the prime bases 2 .. 23
    318665857834031151167461,  # strong pseudoprime to the bases 2 .. 37
    999999999989 * 1000000000039,
    2 ** 61 - 1,
    3317044064679887385961979,  # just below the proven range
])
def test_is_prime_large_against_sympy(n):
    from sympy import isprime
    assert is_prime(n) == isprime(n)


def test_is_prime_refuses_past_its_proven_range():
    with pytest.raises(ValueError, match="Miller-Rabin"):
        is_prime(2 ** 89 - 1)
    assert not is_prime(2 ** 90)  # a small factor settles it at any size
