import random
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilcount.counting import (character_rank, prime_rank,
                               count_cyclic_ell_at,
                               count_exactly_ramified,
                               count_quadratic_at,
                               count_unramified_outside,
                               enumerate_cyclic_ell, enumerate_quadratic,
                               enumerate_v4, exact_ramified_bounds,
                               fundamental_discriminants, rank_bound_s,
                               unramified_bound, v4_fiber_check)
from nilcount import dirichlet
from nilcount.cli import main
from nilcount.dirichlet import (default_checkpoints, prime_sieve,
                                squarefree_sieve)
from nilcount.errors import BudgetExceeded
from nilcount.intmath import iroot, is_prime
from nilcount.malle import BaseFieldData
from oracles import radical

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
    assert count_quadratic_at([2])[0] == 0
    assert count_quadratic_at([10])[0] == 6
    assert list(enumerate_quadratic(10)) == [
        (3, 3, 3), (4, 4, 2), (5, 5, 5), (7, 7, 7), (8, 8, 2), (8, 8, 2)]
    for x in (50, 400, 1234):
        assert count_quadratic_at([x])[0] == len(fundamental_discriminants(x))


def test_quadratic_density():
    x = 10 ** 6
    count = count_quadratic_at([x])[0]
    assert abs(count / x - 6 / np.pi ** 2) / (6 / np.pi ** 2) < 0.02


def _quadratic_by_sieve(xs):
    """Fundamental discriminants |d| <= x counted from a squarefree sieve
    to max(xs): d = m, -m, -4m, +-4m, +4m for squarefree m = 1 (m > 1), 3,
    1, 2, 3 mod 4."""
    sf = squarefree_sieve(max(xs))

    def count(x):
        if x < 3:
            return 0
        sfx, sf4 = sf[:x + 1], sf[:x // 4 + 1]
        return (int(np.count_nonzero(sfx[1::4])) - 1
                + int(np.count_nonzero(sfx[3::4]))
                + int(np.count_nonzero(sf4[1::4]))
                + 2 * int(np.count_nonzero(sf4[2::4]))
                + int(np.count_nonzero(sf4[3::4])))
    return [count(x) for x in xs]


def test_quadratic_moebius_count_against_sieve():
    xs = list(range(20_001)) + default_checkpoints(10 ** 7)
    assert count_quadratic_at(xs) == _quadratic_by_sieve(xs)


def test_quadratic_count_below_three_is_zero():
    assert count_quadratic_at([-5, 0, 1, 2]) == [0, 0, 0, 0]
    assert count_quadratic_at([]) == []


def test_quadratic_count_budget():
    # 81594626 is the squarefree sieve's count at 2^27; 607927101751 agrees
    # with a count of odd squarefree n, F(x) = O(x) - 1 + O(x/4) + 2 O(x/8)
    assert count_quadratic_at([1 << 27, (1 << 27) + 1, 10 ** 12]) == \
        [81594626, 81594626, 607927101751]
    # the Moebius sieve runs to sqrt(x), so the limit is (2^27 + 1)^2
    with pytest.raises(BudgetExceeded,
                       match="Moebius sieve to 134217729 exceeds"):
        count_quadratic_at([1000, ((1 << 27) + 1) ** 2])


def test_quadratic_count_at_1e8():
    # perfbench/references.json, computed apart from the program
    assert count_quadratic_at([10 ** 8])[0] == 60792709


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


def test_prime_rank_against_torsion_oracle():
    # one prime's rank, wild at p = ell; character_rank sums it over a set
    primes = [p for p in range(2, 200) if _prime_factors(p) == [p]]
    for ell in (2, 3, 5, 7):
        for p in primes:
            assert prime_rank(ell, p) == ell_torsion_rank(
                ell, support_parts(ell, {p})), (ell, p)
        assert character_rank(ell, primes + primes[:5]) == sum(
            prime_rank(ell, p) for p in primes)


def test_exactly_ramified_reads_an_optional_set_given_once():
    # T as a one-shot iterator: the disjointness check must not use it up
    assert count_exactly_ramified(2, {5}, iter([3, 7])) == \
        count_exactly_ramified(2, {5}, {3, 7}) == 4
    with pytest.raises(ValueError, match="disjoint"):
        count_exactly_ramified(3, (7,), iter([13, 7]))


def test_exactly_ramified_examples():
    assert count_exactly_ramified(2, {5}, set()) == 1   # only Q(sqrt 5)
    assert count_exactly_ramified(3, {7}, set()) == 1   # conductor 7 cubic
    assert count_exactly_ramified(5, set(), set()) == 0
    # fields ramified exactly at {2, 3}: discs -24, 24, -12? an oracle list
    fields = [d for d in fundamental_discriminants(100)
              if set(_prime_factors(abs(d))) == {2, 3}]
    assert count_exactly_ramified(2, {2, 3}, set()) == len(fields)


def _exactly_ramified_by_inclusion_exclusion(ell, S, T):
    S = sorted(S)
    total = 0
    for mask in range(1 << len(S)):
        subset = {S[i] for i in range(len(S)) if (mask >> i) & 1}
        sign = (-1) ** (len(S) - len(subset))
        total += sign * count_unramified_outside(ell, subset | set(T))
    return total


def test_exactly_ramified_closed_form_against_inclusion_exclusion():
    rng = random.Random(7)
    primes = [p for p in range(2, 200) if _prime_factors(p) == [p]]
    for _ in range(500):
        ell = rng.choice([2, 3, 5, 7])
        pool = primes[:]
        rng.shuffle(pool)
        S = set(pool[:rng.randint(0, 6)])
        T = set(pool[6:6 + rng.randint(0, 5)])
        assert count_exactly_ramified(ell, S, T) == \
            _exactly_ramified_by_inclusion_exclusion(ell, S, T), (ell, S, T)
    with pytest.raises(ValueError, match="disjoint"):
        count_exactly_ramified(3, {7}, {7, 13})


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


def test_enumerate_cyclic_3():
    assert len(enumerate_cyclic_ell(3, 48)) == 0
    assert len(enumerate_cyclic_ell(3, 49)) == 1
    assert enumerate_cyclic_ell(3, 49) == [(49, 7, 7)]
    # conductor 63 = 9 * 7 carries two fields with disc 3969
    at_3969 = [r for r in enumerate_cyclic_ell(3, 3969) if r[0] == 3969]
    assert at_3969 == [(3969, 63, 21)] * 2
    assert (len(enumerate_cyclic_ell(3, 3968))
            == len(enumerate_cyclic_ell(3, 3969)) - 2)


def test_enumerate_cyclic_5():
    assert len(enumerate_cyclic_ell(5, 11 ** 4 - 1)) == 0
    assert len(enumerate_cyclic_ell(5, 11 ** 4)) == 1
    with pytest.raises(ValueError):
        enumerate_cyclic_ell(2, 100)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_cyclic_radical_against_factoring(ell):
    # conductors to 3000 include ell^2 times a split prime for each ell
    rows = enumerate_cyclic_ell(ell, 3000 ** (ell - 1))
    assert any(f % ell ** 2 == 0 and f > ell ** 2 for _, f, _ in rows)
    for disc, f, rad in rows:
        assert disc == f ** (ell - 1) and rad == radical(f)


def conductor_dfs_records(ell, x):
    """The reference listing: conductors built by a depth-first search over
    the split primes p = 1 mod ell, each alone and times ell^2, with
    (ell - 1)^(k - 1) rows (|disc|, f, radical(f)) for k cyclic character
    components."""
    f_max = iroot(x, ell - 1)
    if f_max < 1:
        return []
    split = [p for p in np.flatnonzero(prime_sieve(f_max)).tolist()
             if p % ell == 1]
    conductors = []  # (f, omega1, wild)

    def extend(i, f, omega1, wild):
        if omega1 + wild >= 1:
            conductors.append((f, omega1, wild))
        for j in range(i, len(split)):
            if f * split[j] > f_max:
                break
            extend(j + 1, f * split[j], omega1 + 1, wild)

    extend(0, 1, 0, 0)
    if ell * ell <= f_max:
        extend(0, ell * ell, 0, 1)
    records = []
    for f, omega1, wild in sorted(conductors):
        row = (f ** (ell - 1), f, f // ell if wild else f)
        records.extend([row] * (ell - 1) ** (omega1 + wild - 1))
    records.sort(key=lambda r: r[0])
    return records


def first_split_prime(ell):
    p = ell + 1
    while not is_prime(p):
        p += ell
    return p


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 101])
def test_cyclic_listing_matches_conductor_dfs(ell):
    # the wild conductor ell^2, the first tame one and their product, each
    # on both sides of its discriminant
    p = first_split_prime(ell)
    xs = [1] + [f ** (ell - 1) + e for f in (ell * ell, p, ell * ell * p)
                for e in (-1, 0, 1)]
    for x in xs:
        assert enumerate_cyclic_ell(ell, x) == conductor_dfs_records(ell, x)
    assert enumerate_cyclic_ell(ell, 1) == []
    last = enumerate_cyclic_ell(ell, xs[-1])[-ell + 1:]  # ell^2 p, k = 2
    assert last == [(xs[-2], ell * ell * p, ell * p)] * (ell - 1)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]), st.integers(1, 5000),
       st.integers(-1, 1))
def test_cyclic_listing_matches_conductor_dfs_anywhere(ell, f, e):
    x = max(f ** (ell - 1) + e, 1)
    assert enumerate_cyclic_ell(ell, x) == conductor_dfs_records(ell, x)


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
        assert len(enumerate_cyclic_ell(3, x)) == brute(x)


def enumerated_counts(ell, xs):
    """The oracle: fields listed by `enumerate_cyclic_ell` at each x."""
    discs = [disc for disc, _, _ in enumerate_cyclic_ell(ell, max(xs))]
    return [int(np.searchsorted(discs, x, "right")) for x in xs]


@pytest.mark.parametrize("ell, x", [
    (3, 10 ** 10), (5, 10 ** 16), (7, 10 ** 24), (11, 10 ** 50),
    (13, 10 ** 60),  # F = 1e5: the floor-set count
    (11, 10 ** 30), (13, 10 ** 36)])  # F = 1000 < (ell - 1)^4: the sweep
def test_cyclic_count_matches_enumeration(ell, x):
    checkpoints = default_checkpoints(x)
    assert count_cyclic_ell_at(ell, checkpoints) == enumerated_counts(
        ell, checkpoints)


@pytest.mark.parametrize("ell, p", [(3, 7), (5, 11), (7, 29)])
def test_cyclic_count_at_conductor_edges(ell, p):
    # a tame conductor p = 1 mod ell, the wild ell^2 and their product
    # (7, 9 and 63 at ell = 3)
    xs = [f ** (ell - 1) + e for f in (p, ell * ell, ell * ell * p)
          for e in (-1, 0, 1)]
    assert count_cyclic_ell_at(ell, xs) == enumerated_counts(ell, xs)


def test_cyclic_count_below_1000():
    xs = list(range(1, 1000))
    counts = count_cyclic_ell_at(3, xs)
    assert counts == enumerated_counts(3, xs)
    assert counts[:48] == [0] * 48 and counts[48] == 1  # disc 49
    assert count_cyclic_ell_at(5, xs) == [0] * len(xs)  # 11^4 > 1000


def test_cyclic_count_needs_an_odd_prime():
    for ell in (2, 9, 1):
        with pytest.raises(ValueError, match="odd prime"):
            count_cyclic_ell_at(ell, [100])


def test_cyclic_count_refused_before_its_queries(monkeypatch):
    root = dirichlet.iroot

    def recorded(x, d):
        assert d != 1, "a floor-value query was formed"  # iroot(F // P, 1)
        return root(x, d)
    monkeypatch.setattr(dirichlet, "iroot", recorded)
    with pytest.raises(BudgetExceeded, match="floor-set class"):
        count_cyclic_ell_at(3, default_checkpoints(10 ** 320))


@pytest.mark.parametrize("ell, x, refusal", [
    (5, 10 ** 4299, "floor-set class"),  # 14,273 checkpoints
    (191, 1_200_000_000 ** 190, "integer sweep to 1200000000 ")],
    ids=["cyclic5-floor", "cyclic191-sweep"])
def test_cyclic_count_refused_on_its_largest_checkpoint(monkeypatch, ell, x,
                                                        refusal):
    from nilcount import counting
    root, rooted = counting.iroot, []

    def recorded(y, d):
        rooted.append(y)
        return root(y, d)
    monkeypatch.setattr(counting, "iroot", recorded)
    xs = default_checkpoints(x)
    with pytest.raises(BudgetExceeded, match=refusal):
        count_cyclic_ell_at(ell, xs)
    assert rooted == [xs[-1]]


def test_v4_enumeration_smallest_fields():
    fields = enumerate_v4(256)
    assert [disc for disc, _, _ in fields] == [144, 225, 256]
    assert fields[0][1] == (-3, -4, 12)     # Q(zeta_12)
    assert fields[2][1] == (-4, -8, 8)      # Q(i, sqrt 2), disc 4*8*8


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


def _v4_with_duplicates(x):
    """Oracle: the former `enumerate_v4`, which met each field from every
    pair of its discriminants and kept the first sorted triple."""
    from nilcount.counting import _disc_radical, _third_discriminants
    discs = np.array(fundamental_discriminants(max(8, x // 9)))
    sizes = np.abs(discs)
    seen, fields = set(), []
    key = lambda d: (abs(d), d)
    for i, d1 in enumerate(discs.tolist()):
        if d1 * d1 * 3 > x:
            break
        d2s = discs[i + 1:np.searchsorted(sizes, x // (3 * abs(d1)), "right")]
        d3s = _third_discriminants(d1, d2s)
        hits = np.abs(d1 * d2s * d3s) <= x
        for d2, d3 in zip(d2s[hits].tolist(), d3s[hits].tolist()):
            triple = tuple(sorted((d1, d2, d3), key=key))
            if triple in seen:
                continue
            seen.add(triple)
            a1 = _disc_radical(triple[0])
            a12 = lcm(_disc_radical(d1), _disc_radical(d2))
            fields.append((abs(d1 * d2 * d3), triple, (a1, a12 // a1)))
    fields.sort(key=lambda f: (f[0], f[1]))
    return fields


@pytest.mark.parametrize("x", [1, 2, 143, 144, 145, 225, 256, 500, 1000,
                               3000, 10 ** 4, 12345, 10 ** 5, 2 * 10 ** 5,
                               5 * 10 ** 5, 10 ** 6 - 1, 10 ** 6])
def test_v4_each_field_once_matches_the_pair_search(x):
    assert enumerate_v4(x) == _v4_with_duplicates(x)


@pytest.mark.parametrize("x", [10 ** 4, 10 ** 6])
def test_v4_csv_matches_the_pair_search(tmp_path, capsys, x):
    out = tmp_path / "v4.csv"
    assert main(["count", "--kind", "v4", "--max-x", str(x),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = ["group,discriminant,conductor,tuple"] + [
        f"C2xC2,{disc},{'|'.join(map(str, triple))},{a1}|{a2}"
        for disc, triple, (a1, a2) in _v4_with_duplicates(x)]
    assert out.read_bytes() == "".join(f"{line}\r\n"
                                       for line in lines).encode()


def test_v4_fiber_report():
    fields = enumerate_v4(10 ** 4)
    rep = v4_fiber_check(fields)
    assert rep.passed
    assert rep.field_count == len(fields)
    assert sum(rep.fibers.values()) == rep.field_count
    assert rep.max_fiber >= 1
    with pytest.raises(BudgetExceeded):
        v4_fiber_check(enumerate_v4(10 ** 7))


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
    for _, (d_star, _, _), (a1, a2) in enumerate_v4(3000):
        for p in _prime_factors(abs(d_star)):
            assert a1 % p == 0
        assert gcd(a1, a2) == 1


def test_discriminant_radical_against_factoring():
    from nilcount.counting import _disc_radical
    for d in fundamental_discriminants(10 ** 5):
        assert _disc_radical(d) == radical(d), d


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
