"""Exact integer helpers shared by the group and analytic modules."""

from __future__ import annotations

from math import exp, isqrt, log

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the bases, then deterministic
    Miller-Rabin; ValueError for a candidate beyond its proven range."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return n > 1
    if n >= _MR_EXACT:
        raise ValueError(f"primality of {n} is beyond the proven "
                         f"Miller-Rabin range {_MR_EXACT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
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


def omega(n: int) -> int:
    """The number of distinct primes dividing n != 0."""
    return len(prime_factors(abs(n)))


def iroot(x: int, d: int) -> int:
    """Exact floor of x^(1/d) for d >= 1 (0 for x < 1), by integer Newton
    iteration from an overestimate; 1 <= x < 2^d answers 1 before any power
    is formed.

    The start is exp(log(x)/d) raised by a relative 2^-32, far above the
    floats' rounding error, so Newton starts next to the root.  Past the
    float range it is 2^ceil(bits/d), up to twice the root, from which each
    step shrinks only by a factor 1 - 1/d.  Newton from any start at or
    above the root is exact."""
    if d == 1:
        return x
    if x < 1:
        return 0
    if d == 2:
        return isqrt(x)
    if x.bit_length() <= d:  # 1 <= x < 2^d
        return 1
    try:
        r = int(exp(log(x) / d) * (1 + 2.0 ** -32)) + 1
    except OverflowError:  # x^(1/d) > 2^1024
        r = 1 << -(-x.bit_length() // d)  # 2^ceil(bits/d) > x^(1/d)
    while True:
        y = ((d - 1) * r + x // r ** (d - 1)) // d
        if y >= r:
            return r
        r = y
