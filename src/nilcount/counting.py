"""Exact class-field counting over the rationals.

Degree-ell cyclic extensions of Q correspond to order-ell subgroups of the
Dirichlet character group with the allowed conductor support, so all counts
here are exact integers: the number of C_ell extensions unramified outside S
is (ell^t - 1)/(ell - 1) where t counts one rank per prime p = 1 mod ell in S
plus the wild contribution at ell (rank 2 at ell = 2 from conductors 4 and 8,
rank 1 at odd ell from conductor ell^2).  Exact-ramification counts follow by
inclusion-exclusion, and field enumerations (quadratic, cyclic of odd prime
degree, biquadratic) back everything with explicit discriminant lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded
from .malle import BaseFieldData
from .dirichlet import prime_sieve, squarefree_sieve
from .intmath import iroot, is_prime, omega, prime_factors, radical, valuation

V4_BUDGET = 1_000_000


@dataclass(frozen=True)
class RamificationProfile:
    """A prime ell with disjoint prime sets S (must ramify) and T (may ramify)."""

    ell: int
    S: frozenset[int]
    T: frozenset[int] = frozenset()

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError(f"{self.ell} is not prime")
        if self.S & self.T:
            raise ValueError("S and T must be disjoint")
        for p in self.S | self.T:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def t(self) -> int:
        return character_rank(self.ell, self.S)


@dataclass(frozen=True)
class FieldRecord:
    """One enumerated field: catalog group id, |disc|, and the tuple of
    products of primes first ramified at each chain layer."""

    group: str
    discriminant: int
    ramified_tuple: tuple[int, ...]


def character_rank(ell: int, S: Iterable[int]) -> int:
    """ell-rank t of the character group with conductor support in S."""
    S = set(S)
    t = sum(1 for p in S if p % ell == 1)
    if ell in S:
        t += 2 if ell == 2 else 1
    return t


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
    unramified outside S u T, by inclusion-exclusion over subsets of S."""
    S, T = sorted(set(S)), set(T)
    if set(S) & T:
        raise ValueError("S and T must be disjoint")
    total = 0
    for mask in range(1 << len(S)):
        subset = {S[i] for i in range(len(S)) if (mask >> i) & 1}
        sign = (-1) ** (len(S) - len(subset))
        total += sign * count_unramified_outside(ell, subset | T)
    return total


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


def count_quadratic(x: int) -> int:
    """Z(Q, C2; x): fundamental discriminants d with |d| <= x, both signs."""
    return count_quadratic_at([x])[0]


def count_quadratic_at(xs: Sequence[int]) -> list[int]:
    """count_quadratic(x) for every x in xs, from one sieve to max(xs)."""
    sf = squarefree_sieve(max(xs, default=0))

    def count(x: int) -> int:
        if x < 3:
            return 0
        sfx, sf4 = sf[:x + 1], sf[:x // 4 + 1]
        return (int(np.count_nonzero(sfx[1::4])) - 1  # d = m = 1 mod 4, not 1
                + int(np.count_nonzero(sfx[3::4]))    # d = -m, m = 3 mod 4
                + int(np.count_nonzero(sf4[1::4]))    # d = -4m, m = 1 mod 4
                + 2 * int(np.count_nonzero(sf4[2::4]))  # d = +-4m, m = 2 mod 4
                + int(np.count_nonzero(sf4[3::4])))   # d = +4m, m = 3 mod 4
    return [count(x) for x in xs]


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


def enumerate_quadratic(x: int) -> list[FieldRecord]:
    return [FieldRecord("C2", abs(d), (radical(d),))
            for d in fundamental_discriminants(x)]


# cyclic fields of odd prime degree


def enumerate_cyclic_ell(ell: int, x: int) -> list[FieldRecord]:
    """All C_ell fields over Q with |disc| = f^(ell-1) <= x, one record each.

    Conductors are f = (optionally ell^2) * product of distinct primes
    p = 1 mod ell; a conductor with k cyclic character components carries
    (ell-1)^(k-1) distinct fields.
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError("need an odd prime")
    f_max = iroot(x, ell - 1)
    if f_max < 1:
        return []
    isp = prime_sieve(f_max)
    split = [int(p) for p in np.nonzero(isp)[0] if p % ell == 1]

    conductors: list[tuple[int, int, int]] = []  # (f, omega1, wild)

    def extend(i: int, f: int, omega1: int, wild: int) -> None:
        if omega1 + wild >= 1:
            conductors.append((f, omega1, wild))
        for j in range(i, len(split)):
            if f * split[j] > f_max:
                break
            extend(j + 1, f * split[j], omega1 + 1, wild)

    extend(0, 1, 0, 0)
    if ell * ell <= f_max:
        extend(0, ell * ell, 0, 1)

    records: list[FieldRecord] = []
    for f, omega1, wild in sorted(conductors):
        count = (ell - 1) ** (omega1 + wild - 1)
        rec = FieldRecord(f"C{ell}", f ** (ell - 1), (radical(f),))
        records.extend([rec] * count)
    records.sort(key=lambda r: r.discriminant)
    return records


def count_cyclic_ell(ell: int, x: int) -> int:
    return len(enumerate_cyclic_ell(ell, x))


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


@dataclass(frozen=True)
class V4Field:
    triple: tuple[int, int, int]   # the three quadratic discriminants, sorted
    discriminant: int
    ramified_tuple: tuple[int, int]


@dataclass(frozen=True)
class V4FiberReport:
    x: int
    field_count: int
    fibers: dict[tuple[int, int], int] = field(compare=False)
    max_fiber: int = 0
    bound_violations: int = 0
    valuation_failures: int = 0

    @property
    def passed(self) -> bool:
        return self.bound_violations == 0 and self.valuation_failures == 0


def enumerate_v4(x: int) -> list[V4Field]:
    """All V4 = C2 x C2 fields over Q with |disc| <= x.

    A field is a triple {d1, d2, d3} of distinct fundamental discriminants
    with d3 the fundamental discriminant of d1*d2; by the conductor product
    rule |disc| = |d1 d2 d3|.
    """
    if x > V4_BUDGET:
        raise BudgetExceeded(f"biquadratic enumeration capped at {V4_BUDGET}")
    # |d1| <= |d2| and |d3| >= 3 force |d2| <= x/9
    discs = np.array(fundamental_discriminants(max(8, x // 9)))
    sizes = np.abs(discs)  # ascending
    seen: set[tuple[int, int, int]] = set()
    fields: list[V4Field] = []
    key = lambda d: (abs(d), d)
    for i, d1 in enumerate(discs.tolist()):
        if d1 * d1 * 3 > x:  # |d2| >= |d1|, |d3| >= 3
            break
        d2s = discs[i + 1:np.searchsorted(sizes, x // (3 * abs(d1)), "right")]
        d3s = _third_discriminants(d1, d2s)
        hits = np.abs(d1 * d2s * d3s) <= x
        for d2, d3 in zip(d2s[hits].tolist(), d3s[hits].tolist()):
            disc = abs(d1 * d2 * d3)
            triple = tuple(sorted((d1, d2, d3), key=key))
            if triple in seen:
                continue
            seen.add(triple)
            a1 = radical(triple[0])
            fields.append(V4Field(triple, disc, (a1, radical(d1 * d2) // a1)))
    fields.sort(key=lambda f: (f.discriminant, f.triple))
    return fields


def v4_fiber_check(x: int, tame_index: int = 2,
                   fields: list[V4Field] | None = None) -> V4FiberReport:
    """Group the enumerated V4 fields by their ramification tuple and check
    every fiber against the bound 2^(b1 + b2), with b_i the prime count of
    the earlier layers plus the wild constant of the exact-ramification
    bound.  Also check the tame discriminant valuations: every odd ramified
    prime must divide the discriminant exactly `tame_index` times, matching
    the index of an involution in the regular four-point action.
    `fields`, when given, is `enumerate_v4(x)` already computed."""
    if fields is None:
        fields = enumerate_v4(x)
    fibers: dict[tuple[int, int], int] = {}
    val_fail = 0
    for f in fields:
        fibers[f.ramified_tuple] = fibers.get(f.ramified_tuple, 0) + 1
        val_fail += sum(valuation(f.discriminant, p)[0] != tame_index
                        for p in prime_factors(f.discriminant) if p != 2)
    violations = 0
    max_fiber = 0
    k = BaseFieldData.rationals()
    for (a1, a2), size in fibers.items():
        max_fiber = max(max_fiber, size)
        omega_a1 = omega(a1)
        s0_step2 = 1 if a1 % 2 == 0 else 0
        b1 = 0 + (k.rk(2) + k.degree + 0 + k.real_places)
        b2 = omega_a1 + (k.rk(2) + k.degree + s0_step2 + k.real_places)
        bound = 2 ** (b1 + b2)  # (ell-1)^omega factors are 1 at ell = 2
        if size > bound:
            violations += 1
    return V4FiberReport(x, len(fields), fibers, max_fiber, violations, val_fail)
