"""Exact class-field counting over the rationals.

Degree-ell cyclic extensions of Q correspond to order-ell subgroups of the
Dirichlet character group with the allowed conductor support, so all counts
here are exact integers: the number of C_ell extensions unramified outside S
is (ell^t - 1)/(ell - 1) where t counts one rank per prime p = 1 mod ell in S
plus the wild contribution at ell (rank 2 at ell = 2 from conductors 4 and 8,
rank 1 at odd ell from conductor ell^2).  Exact-ramification counts follow by
inclusion-exclusion, in closed form as t is additive over primes.
Quadratic fields and cyclic fields of odd prime degree are counted through
sums over their conductors.  Their listings give each field as the row
(|disc|, conductor, radical of the conductor), in the order `count --out`
writes them, and are the tests' oracles for the counts; biquadratic fields
are listed as rows (|disc|, discriminant triple, ramification tuple), which
the fiber check reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isqrt, lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import require
from .malle import BaseFieldData
from .dirichlet import (FactorSpec, _check_sizes, _omega_sieve,
                        _support_sums, prime_sieve, squarefree_sieve)
from .intmath import iroot, is_prime, omega, prime_factors, valuation

# an odd prime ramified in a V4 field divides its discriminant this often:
# the index of an involution in the regular four-point action
TAME_INDEX = 2


def prime_rank(ell: int, p: int) -> int:
    """ell-rank of the characters of conductor a power of p: one for
    p = 1 mod ell, and the wild rank at p = ell (2 at ell = 2, from
    conductors 4 and 8, else 1)."""
    if p == ell:
        return 2 if ell == 2 else 1
    return int(p % ell == 1)


def character_rank(ell: int, S: Iterable[int]) -> int:
    """ell-rank t of the character group with conductor support in S."""
    return sum(prime_rank(ell, p) for p in set(S))


def count_unramified_outside(ell: int, S: Iterable[int]) -> int:
    """Exact number of C_ell extensions of Q unramified outside S."""
    t = character_rank(ell, S)
    return (ell ** t - 1) // (ell - 1)


def rank_bound_s(k: BaseFieldData, ell: int, S: Iterable[int]) -> int:
    """The rank bound s = rk_ell(Cl_k) + |S| + [k:Q] (+ r1 when ell = 2)."""
    s = k.rk(ell) + len(set(S)) + k.degree
    if ell == 2:
        s += k.real_places
    return s


def unramified_bound(k: BaseFieldData, ell: int, S: Iterable[int]) -> int:
    """(ell^s - 1)/(ell - 1) with the rank bound s; an upper bound for the
    exact count over Q."""
    return (ell ** rank_bound_s(k, ell, S) - 1) // (ell - 1)


def count_exactly_ramified(ell: int, S: Iterable[int], T: Iterable[int]) -> int:
    """Exact number of C_ell extensions of Q ramified in every prime of S and
    unramified outside S u T.

    Inclusion-exclusion over the subsets U of S sums
    (-1)^|S - U| (ell^t(U u T) - 1)/(ell - 1), and t is additive over
    primes, so the sum is
    (ell^t(T) prod_{p in S} (ell^t(p) - 1) - [S empty]) / (ell - 1).
    """
    S, T = set(S), set(T)
    if not S.isdisjoint(T):
        raise ValueError("S and T must be disjoint")
    total = ell ** character_rank(ell, T)
    for p in S:
        total *= ell ** prime_rank(ell, p) - 1
    return (total - int(not S)) // (ell - 1)


def exact_ramified_bounds(ell: int, S: Iterable[int], T: Iterable[int],
                          k: BaseFieldData | None = None) -> tuple[int, int]:
    """(tight, loose) upper bounds ell^(c+|T|) (ell-1)^|S| for the exact count.

    The constant c admits two readings; the tight one is
    c = rk + [k:Q] + |S0| + r1 with S0 the primes of S over ell, the loose one
    c = rk + 3[k:Q].  Both are evaluated; callers assert against the tight one.
    """
    if k is None:
        k = BaseFieldData.rationals()
    S, T = set(S), set(T)
    s0 = len({p for p in S if p == ell})
    c_tight = k.rk(ell) + k.degree + s0 + k.real_places
    c_loose = k.rk(ell) + 3 * k.degree
    return (ell ** (c_tight + len(T)) * (ell - 1) ** len(S),
            ell ** (c_loose + len(T)) * (ell - 1) ** len(S))


# quadratic fields: fundamental discriminants


def count_quadratic_at(xs: Sequence[int]) -> list[int]:
    """Z(Q, C2; x), the fundamental discriminants d with |d| <= x of both
    signs, for every x in xs, from one Moebius sieve to sqrt(max(xs)).

    The squarefree m <= y with m = r mod 4 (r = 1, 2, 3) number
    Q_r(y) = sum_{odd d <= sqrt y} mu(d) #{k <= y // d^2 : k = r mod 4}: an
    odd d has d^2 = 1 mod 8, so d^2 k = k mod 4, and an even d never
    reaches these classes.
    """
    limit = isqrt(max([0, *xs]))
    require("sieve entries", limit, "Moebius sieve to")
    mu = _mobius(limit)
    d = np.flatnonzero(mu)
    d = d[d % 2 == 1]
    mu_d, d2 = mu[d].astype(np.int64), d * d

    def classes(y: int) -> list[int]:
        """[Q_1(y), Q_2(y), Q_3(y)]."""
        n = y // d2[:np.searchsorted(d2, y, "right")]
        mu_n = mu_d[:len(n)]
        return [int(mu_n @ ((n + 4 - r) // 4)) for r in (1, 2, 3)]

    def count(x: int) -> int:
        if x < 3:
            return 0
        q1, _, q3 = classes(x)
        f1, f2, f3 = classes(x // 4)  # m in d = +-4m
        # d = m for m = 1 mod 4 (not 1), d = -m for m = 3 mod 4; d = -4m,
        # +-4m, +4m for m = 1, 2, 3 mod 4
        return q1 - 1 + q3 + f1 + 2 * f2 + f3
    return [count(x) for x in xs]


def _mobius(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as int8, with mu(0) = 0."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in np.flatnonzero(prime_sieve(limit)).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def fundamental_discriminants(x: int) -> list[int]:
    """All fundamental discriminants with |d| <= x, sorted by (|d|, d).

    Row n of `fund` marks -n in column 0 and +n in column 1, so the flat
    index 2|d| + (d > 0) of each mark already runs in (|d|, d) order.
    For squarefree m, d is m when m = 1 mod 4 (m > 1), -m when m = 3 mod 4,
    and -4m, +-4m or 4m when m = 1, 2 or 3 mod 4.
    """
    sf = squarefree_sieve(x)
    fund = np.zeros((x + 1, 2), dtype=bool)
    fund[5::4, 1] = sf[5::4]
    fund[3::4, 0] = sf[3::4]
    quarter = sf[:x // 4 + 1]  # n = 4m with m squarefree
    fund[4::16, 0] = quarter[1::4]
    fund[8::16] = quarter[2::4, None]
    fund[12::16, 1] = quarter[3::4]
    k = np.flatnonzero(fund)
    return ((k >> 1) * (2 * (k & 1) - 1)).tolist()


def enumerate_quadratic(x: int) -> Iterator[tuple[int, int, int]]:
    """(|d|, |d|, radical(d)) for every fundamental discriminant d with
    |d| <= x, in (|d|, d) order: the discriminant, conductor and ramified
    primes of each quadratic field."""
    return ((abs(d), abs(d), _disc_radical(d))
            for d in fundamental_discriminants(x))


# cyclic fields of odd prime degree


def count_cyclic_ell_at(ell: int, xs: Sequence[int]) -> list[int]:
    """The number of C_ell fields over Q with |disc| <= x, for every x in
    xs, from one prefix-sum pass of the factor ell:1:(ell - 1).

    A conductor f carries (ell - 1)^(k - 1) fields, k its number of cyclic
    character components (see `enumerate_cyclic_ell`).  So with g
    multiplicative, g(p) = ell - 1 for p = 1 mod ell, g(ell^2) = ell - 1
    and g = 0 on every other prime power, the fields with f <= F number
    (S(F) - 1)/(ell - 1) for S(F) = sum_{f <= F} g(f), F = iroot(x, ell - 1).
    The factor has (1 + w t) at ell, g has (1 + w t^2) (w = ell - 1,
    t = ell^-s), so S is the factor's prefix sums over the support of
    (1 + w t^2)/(1 + w t) = (1 + w t^2) sum_k (-w t)^k at the powers of ell.
    Every query is F // ell^j, a floor value of F, so one floor-set pass
    answers every checkpoint.  The largest F is rooted first and checked
    against the size limits alone, before the other checkpoints are rooted.
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError("need an odd prime")
    spec, w = FactorSpec(ell, 1, ell - 1), ell - 1
    f_max = iroot(max(xs, default=0), w)
    support: dict[int, int] = {}
    q, c = 1, 1  # c = (-w)^k at q = ell^k
    while q <= f_max:
        for key, coeff in ((q, c), (q * ell * ell, w * c)):
            support[key] = support.get(key, 0) + coeff
        q, c = q * ell, -w * c
    _check_sizes(spec, [f_max], support)
    fs = [iroot(x, w) for x in xs]
    checkpoints = sorted(set(fs) - {0})
    if not checkpoints:
        return [0] * len(fs)
    sums = dict(zip(checkpoints, _support_sums(spec, checkpoints, support)))
    return [(sums[f] - 1) // w if f else 0 for f in fs]


def enumerate_cyclic_ell(ell: int, x: int) -> list[tuple[int, int, int]]:
    """(|disc|, f, radical(f)) for every C_ell field over Q with
    |disc| = f^(ell-1) <= x, sorted by conductor f.

    Conductors are f = (optionally ell^2) * product of distinct primes
    p = 1 mod ell; a conductor with k cyclic character components carries
    (ell-1)^(k-1) distinct fields, which share one tuple.  The omega sieve
    of ell:1:1 gives them: n prime to ell is the conductor n, n = ell n' the
    conductor ell^2 n'; either way k = omega(n) and radical(f) = n.
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError("need an odd prime")
    f_max = iroot(x, ell - 1)
    if f_max <= ell:  # every conductor, ell^2 or p = 1 mod ell, exceeds ell
        return []
    omegas = _omega_sieve(FactorSpec(ell, 1, 1), f_max)
    ns = np.flatnonzero(omegas > 0)
    fs = np.where(ns % ell == 0, ns * ell, ns)  # one-to-one in n
    order = np.argsort(fs)[:np.count_nonzero(fs <= f_max)]
    ns = ns[order]
    rows: list[tuple[int, int, int]] = []
    for f, n, k in zip(fs[order].tolist(), ns.tolist(), omegas[ns].tolist()):
        rows.extend([(f ** (ell - 1), f, n)] * (ell - 1) ** (k - 1))
    return rows


# biquadratic fields and the fiber bound


def _third_discriminants(d1: int, d2s: np.ndarray) -> np.ndarray:
    """For each fundamental d2, the fundamental discriminant of
    Q(sqrt(d1 d2)).  With c the squarefree core of d (d = c or d = 4c), the
    squarefree kernel of d1 d2 is (c1/g)(c2/g) for g = gcd(c1, c2)."""
    c1 = d1 if d1 % 4 == 1 else d1 // 4
    c2s = np.where(d2s % 4 == 1, d2s, d2s // 4)
    g = np.gcd(c1, c2s)
    m = (c1 // g) * (c2s // g)
    return np.where(m % 4 == 1, m, 4 * m)


def _disc_radical(d: int) -> int:
    """radical(d) for a fundamental discriminant d, which is squarefree
    apart from a factor 4 or 8."""
    d = abs(d)
    return d if d % 2 else d // 2 if d % 8 else d // 4


@dataclass(frozen=True)
class V4FiberReport:
    field_count: int
    fibers: dict[tuple[int, int], int] = field(compare=False)
    max_fiber: int = 0
    bound_violations: int = 0
    valuation_failures: int = 0

    @property
    def passed(self) -> bool:
        return self.bound_violations == 0 and self.valuation_failures == 0


def enumerate_v4(x: int) -> list[tuple]:
    """(|disc|, (d1, d2, d3), (a1, a2)) for every V4 = C2 x C2 field over Q
    with |disc| <= x, sorted: by discriminant, then by triple.

    A field is a triple d1 < d2 < d3 (by (|d|, d)) of fundamental
    discriminants with d3 the fundamental discriminant of d1*d2; by the
    conductor product rule |disc| = |d1 d2 d3|, so |d1|^3 <= x and
    |d2|^2 <= x / |d1| <= x / 3.  Each field is found once, from its d1 and
    d2.  Its ramification tuple is a1 = radical(d1), a2 = radical(d1 d2) / a1.
    """
    require("biquadratic discriminant", x)
    discs = np.array(fundamental_discriminants(isqrt(max(x, 0) // 3)))
    sizes = np.abs(discs)  # ascending
    fields = []
    for i, d1 in enumerate(discs.tolist()):
        if abs(d1) ** 3 > x:
            break
        d2s = discs[i + 1:np.searchsorted(sizes, isqrt(x // abs(d1)), "right")]
        d3s = _third_discriminants(d1, d2s)
        s2, s3 = np.abs(d2s), np.abs(d3s)
        ordered = (s2 < s3) | (s2 == s3) & (d2s < d3s)
        hits = ordered & (np.abs(d1 * d2s * d3s) <= x)
        a1 = _disc_radical(d1)
        for d2, d3 in zip(d2s[hits].tolist(), d3s[hits].tolist()):
            a12 = lcm(a1, _disc_radical(d2))  # rad(d1 d2)
            fields.append((abs(d1 * d2 * d3), (d1, d2, d3), (a1, a12 // a1)))
    fields.sort()
    return fields


def v4_fiber_check(fields: Sequence[tuple]) -> V4FiberReport:
    """Check the rows of `enumerate_v4` fiber by fiber over their
    ramification tuples (a1, a2): a fiber holds at most 2^(b1 + b2) fields,
    b_i the prime count of the earlier layers (none, then omega(a1)) plus the
    constant of the exact-ramification bound at ell = 2 (with a prime over 2
    when 2 | a1).  Every odd ramified prime must divide the discriminant
    exactly `TAME_INDEX` times."""
    fibers = Counter(tup for _, _, tup in fields)
    val_fail = sum(valuation(disc, p)[0] != TAME_INDEX
                   for disc, _, _ in fields
                   for p in prime_factors(disc) if p != 2)
    k = BaseFieldData.rationals()
    c = k.rk(2) + k.degree + k.real_places
    violations = 0
    for (a1, _), size in fibers.items():
        b1, b2 = c, omega(a1) + c + (a1 % 2 == 0)
        # the (ell - 1)^omega factors are 1 at ell = 2
        violations += size > 2 ** (b1 + b2)
    return V4FiberReport(len(fields), fibers, max(fibers.values(), default=0),
                         violations, val_fail)
