"""Exact integer helpers shared by the group and analytic modules."""

from __future__ import annotations

from math import isqrt, prod

_FLOAT_EXACT = 1 << 52


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n // p**e) for n != 0 and p >= 2, with p**e the exact power of p
    dividing n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            n = valuation(n, d)[1]
        d += 1
    if n > 1:
        out.append(n)
    return out


def radical(n: int) -> int:
    """The product of the distinct primes dividing n != 0."""
    return prod(prime_factors(abs(n)))


def omega(n: int) -> int:
    """The number of distinct primes dividing n != 0."""
    return len(prime_factors(abs(n)))


def iroot(x: int, d: int) -> int:
    """Exact floor of x^(1/d) for d >= 1 (0 for x < 1).

    Below 2^52 a float estimate is corrected by at most a step or two, which
    keeps the many small calls of the sieves fast; above it integer Newton
    iteration from an overestimate, which is exact for any size of x.
    """
    if d == 1:
        return x
    if x < 1:
        return 0
    if d == 2:
        return isqrt(x)
    if x < _FLOAT_EXACT:
        r = int(round(x ** (1.0 / d)))
        while r ** d > x:
            r -= 1
        while (r + 1) ** d <= x:
            r += 1
        return r
    r = 1 << -(-x.bit_length() // d)  # 2^ceil(bits/d) > x^(1/d)
    while True:
        y = ((d - 1) * r + x // r ** (d - 1)) // d
        if y >= r:
            return r
        r = y
