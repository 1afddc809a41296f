import random
from math import gcd, prod

import numpy as np
import pytest

from nilcount.counting import (RamificationProfile, character_rank,
                               count_cyclic_ell, count_exactly_ramified,
                               count_quadratic, count_unramified_outside,
                               enumerate_cyclic_ell, enumerate_quadratic,
                               enumerate_v4, exact_ramified_bounds,
                               fundamental_discriminants, rank_bound_s,
                               unramified_bound, v4_fiber_check)
from nilcount.errors import BudgetExceeded
from nilcount.malle import BaseFieldData

Q = BaseFieldData.rationals()


def is_squarefree(n):
    k = 2
    while k * k <= abs(n):
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def is_fundamental(d):
    """Oracle straight from the definition."""
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def ell_torsion_rank(ell, modulus_parts):
    """Oracle: ell-rank of prod (Z/q)^* by counting ell-torsion directly."""
    total = 1
    for q in modulus_parts:
        tors = sum(1 for a in range(1, q) if gcd(a, q) == 1
                   and pow(a, ell, q) == 1)
        total *= tors
    rank = 0
    while total % ell == 0:
        total //= ell
        rank += 1
    assert total == 1
    return rank


def support_parts(ell, S):
    parts = []
    for p in sorted(S):
        if p == ell:
            parts.append(8 if ell == 2 else ell * ell)
        else:
            parts.append(p)
    return parts


def test_fundamental_discriminants_against_definition():
    discs = fundamental_discriminants(200)
    want = sorted((d for d in range(-200, 201) if is_fundamental(d)),
                  key=lambda d: (abs(d), d))
    assert discs == want


def _fundamental_discriminants_loop(x):
    """The per-m loop the vectorized version replaced."""
    from nilcount.dirichlet import squarefree_sieve
    out = []
    for m in np.nonzero(squarefree_sieve(x))[0]:
        m = int(m)
        if m % 4 == 1 and m != 1:
            out.append(m)
        elif m % 4 == 3:
            out.append(-m)
        if 4 * m <= x:
            if m % 4 == 1:
                out.append(-4 * m)
            elif m % 4 == 2:
                out.append(4 * m)
                out.append(-4 * m)
            elif m % 4 == 3:
                out.append(4 * m)
    out.sort(key=lambda d: (abs(d), d))
    return out


def test_fundamental_discriminants_match_loop():
    for x in (0, 1, 2, 3, 4, 5, 7, 8, 12, 99, 1000, 12345, 10 ** 5):
        got = fundamental_discriminants(x)
        assert got == _fundamental_discriminants_loop(x)
        assert all(type(d) is int for d in got)


def test_count_quadratic_examples():
    assert count_quadratic(2) == 0
    assert count_quadratic(10) == 6
    assert [r.discriminant for r in enumerate_quadratic(10)] == \
        [3, 4, 5, 7, 8, 8]
    for x in (50, 400, 1234):
        assert count_quadratic(x) == len(fundamental_discriminants(x))


def test_quadratic_density():
    x = 10 ** 6
    count = count_quadratic(x)
    assert abs(count / x - 6 / np.pi ** 2) / (6 / np.pi ** 2) < 0.02


def test_character_rank_and_unramified_counts():
    assert character_rank(2, {2, 3}) == 3
    assert count_unramified_outside(2, {2, 3}) == 7
    # oracle: the seven fields Q(sqrt d), d in {-1, 2, -2, 3, -3, 6, -6}
    fields = [d for d in fundamental_discriminants(30)
              if all(p in (2, 3) for p in _prime_factors(abs(d)))]
    assert len(fields) == 7
    assert count_unramified_outside(3, set()) == 0
    assert count_unramified_outside(3, {7, 13}) == 4
    assert count_unramified_outside(3, {3}) == 1
    assert count_unramified_outside(2, {5}) == 1


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_unramified_count_against_torsion_oracle():
    rng = random.Random(7)
    primes = [p for p in range(2, 120) if len(_prime_factors(p)) == 1 and
              _prime_factors(p)[0] == p]
    for _ in range(60):
        ell = rng.choice([2, 3, 5])
        S = set(rng.sample(primes, rng.randint(0, 4)))
        t = ell_torsion_rank(ell, support_parts(ell, S))
        assert count_unramified_outside(ell, S) == (ell ** t - 1) // (ell - 1)


def test_exactly_ramified_examples():
    assert count_exactly_ramified(2, {5}, set()) == 1   # only Q(sqrt 5)
    assert count_exactly_ramified(3, {7}, set()) == 1   # conductor 7 cubic
    assert count_exactly_ramified(5, set(), set()) == 0
    # fields ramified exactly at {2, 3}: discs -24, 24, -12? an oracle list
    fields = [d for d in fundamental_discriminants(100)
              if set(_prime_factors(abs(d))) == {2, 3}]
    assert count_exactly_ramified(2, {2, 3}, set()) == len(fields)


def test_exactly_ramified_partition_identity():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(40):
        ell = rng.choice([2, 3, 5])
        pool = primes[:]
        rng.shuffle(pool)
        S = sorted(pool[:rng.randint(0, 4)])
        T = sorted(pool[4:4 + rng.randint(0, 3)])
        union = count_unramified_outside(ell, set(S) | set(T))
        total = 0
        for mask in range(1 << len(S)):
            sub = {S[i] for i in range(len(S)) if (mask >> i) & 1}
            total += count_exactly_ramified(ell, sub, set(T))
        assert total == union


def test_bounds_dominate_exact_counts():
    rng = random.Random(3)
    primes = [p for p in range(2, 200) if _prime_factors(p) == [p]]
    for _ in range(100):
        ell = rng.choice([2, 3, 5])
        pool = primes[:]
        rng.shuffle(pool)
        S = set(pool[:rng.randint(0, 5)])
        T = set(pool[5:5 + rng.randint(0, 5)])
        assert count_unramified_outside(ell, S) <= unramified_bound(Q, ell, S)
        exact = count_exactly_ramified(ell, S, T)
        tight, loose = exact_ramified_bounds(ell, S, T)
        assert 0 <= exact <= tight <= loose


def test_rank_bound_examples():
    assert rank_bound_s(Q, 2, {2, 3}) == 4
    assert unramified_bound(Q, 2, {2, 3}) == 15
    assert rank_bound_s(Q, 3, set()) == 1
    assert unramified_bound(Q, 3, set()) == 1
    k2 = BaseFieldData(degree=2, real_places=0, class_rank={3: 1},
                       cyclo_generators={3: (2,)})
    assert rank_bound_s(k2, 3, {7}) == 4


def test_ramification_profile():
    prof = RamificationProfile(3, frozenset({7, 13}), frozenset({5}))
    assert prof.t == 2
    with pytest.raises(ValueError):
        RamificationProfile(3, frozenset({7}), frozenset({7}))
    with pytest.raises(ValueError):
        RamificationProfile(4, frozenset())


def test_enumerate_cyclic_3():
    assert count_cyclic_ell(3, 48) == 0
    assert count_cyclic_ell(3, 49) == 1
    recs = enumerate_cyclic_ell(3, 49)
    assert recs[0].discriminant == 49 and recs[0].ramified_tuple == (7,)
    # conductor 63 = 9 * 7 carries two fields with disc 3969
    at_3969 = [r for r in enumerate_cyclic_ell(3, 3969)
               if r.discriminant == 3969]
    assert len(at_3969) == 2
    assert count_cyclic_ell(3, 3968) == count_cyclic_ell(3, 3969) - 2


def test_enumerate_cyclic_5():
    assert count_cyclic_ell(5, 11 ** 4 - 1) == 0
    assert count_cyclic_ell(5, 11 ** 4) == 1
    with pytest.raises(ValueError):
        enumerate_cyclic_ell(2, 100)


def test_cyclic_3_oracle_small():
    # oracle: conductors are (9 or 1) times products of primes = 1 mod 3,
    # with 2^(k-1) fields for k cyclic components
    def brute(x):
        total = 0
        fmax = int(x ** 0.5)
        for f in range(2, fmax + 1):
            wild = 1 if f % 9 == 0 else 0
            core = f // 9 if wild else f
            if core % 3 == 0:
                continue
            ps = _prime_factors(core)
            if len(set(ps)) != len(ps) or not is_squarefree(core):
                continue
            if any(p % 3 != 1 for p in ps):
                continue
            k = len(ps) + wild
            if f * f <= x and k >= 1:
                total += 2 ** (k - 1)
        return total
    for x in (49, 1000, 10 ** 4, 10 ** 5):
        assert count_cyclic_ell(3, x) == brute(x)


def test_v4_enumeration_smallest_fields():
    fields = enumerate_v4(256)
    assert [f.discriminant for f in fields] == [144, 225, 256]
    assert fields[0].triple == (-3, -4, 12)     # Q(zeta_12)
    assert fields[2].triple == (-4, -8, 8)      # Q(i, sqrt 2), disc 4*8*8


def test_v4_hand_enumeration_small():
    # oracle: triples of fundamental discriminants, closed under the
    # composition d3 = fund(d1 d2), with |d1 d2 d3| <= x
    def fund(m):
        return m if m % 4 == 1 else 4 * m

    def kernel(n):
        sign = -1 if n < 0 else 1
        n = abs(n)
        out = 1
        for p in set(_prime_factors(n)):
            if (n // p) % p != 0:
                out *= p
            else:
                e = 0
                nn = n
                while nn % p == 0:
                    nn //= p
                    e += 1
                if e % 2:
                    out *= p
        return sign * out

    x = 5000
    discs = sorted(fundamental_discriminants(x), key=lambda d: (abs(d), d))
    triples = set()
    for i, d1 in enumerate(discs):
        if abs(d1) ** 2 * 3 > x:
            break
        for d2 in discs[i + 1:]:
            if abs(d1 * d2) * 3 > x:
                break
            d3 = fund(kernel(d1 * d2))
            if abs(d1 * d2 * d3) <= x:
                triples.add(tuple(sorted((d1, d2, d3),
                                         key=lambda d: (abs(d), d))))
    assert len(enumerate_v4(x)) == len(triples)


def test_v4_fiber_report():
    rep = v4_fiber_check(10 ** 4)
    assert rep.passed
    assert rep.field_count == len(enumerate_v4(10 ** 4))
    assert sum(rep.fibers.values()) == rep.field_count
    assert rep.max_fiber >= 1
    with pytest.raises(BudgetExceeded):
        v4_fiber_check(10 ** 7)


def test_quadratic_tame_valuations_match_involution_index():
    # every odd ramified prime divides a fundamental discriminant once,
    # matching the index of the involution in the regular two-point action
    from nilcount.catalog import cyclic
    from nilcount.malle import ind
    c2 = cyclic(2)
    involution_index = ind(c2.elements[1])
    assert involution_index == 1
    for d in fundamental_discriminants(500):
        for p in _prime_factors(abs(d)):
            if p == 2:
                continue
            v, n = 0, abs(d)
            while n % p == 0:
                n //= p
                v += 1
            assert v == involution_index


def test_v4_tuple_splits_by_first_discriminant():
    for f in enumerate_v4(3000):
        d_star = f.triple[0]
        a1, a2 = f.ramified_tuple
        for p in _prime_factors(abs(d_star)):
            assert a1 % p == 0
        assert gcd(a1, a2) == 1


def test_gcd_kernel_against_factorization():
    from sympy import factorint
    from nilcount.counting import _third_discriminants
    discs = fundamental_discriminants(2000)
    # the primes to an odd power, and the sign, fix the squarefree kernel
    odd = {d: frozenset(p for p, e in factorint(abs(d)).items() if e % 2)
           for d in discs}
    fundamental = set(discs)
    for i, d1 in enumerate(discs):
        d3s = _third_discriminants(d1, np.array(discs[i + 1:], dtype=np.int64))
        for d2, d3 in zip(discs[i + 1:], d3s.tolist()):
            m = (-1 if d1 * d2 < 0 else 1) * prod(odd[d1] ^ odd[d2])
            assert d3 == (m if m % 4 == 1 else 4 * m), (d1, d2, d3)
            assert abs(d3) > 2000 or d3 in fundamental
