import random

import pytest

from nilcount.intmath import iroot, is_prime, prime_factors


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
