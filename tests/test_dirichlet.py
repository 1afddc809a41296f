import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

import numpy as np
import pytest

from nilcount import dirichlet
from nilcount.dirichlet import (FactorSpec, default_checkpoints,
                                multi_factor_sum, prime_sieve, running_beta,
                                series_csv_rows, slope_estimate,
                                squarefree_sieve)
from nilcount.errors import LIMITS, BudgetExceeded, InsufficientData
from nilcount.intmath import iroot
from oracles import (coefficient_sieve, euler_factorization_check,
                     factor_identity_check)


def is_squarefree(n):
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def b_supported(n, ell):
    p = 2
    while p <= n:
        if n % p == 0:
            if p != ell and p % ell != 1:
                return False
            while n % p == 0:
                n //= p
        p += 1
    return True


def omega(n):
    count, p = 0, 2
    while p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count


def test_factor_spec_parse_and_validate():
    assert FactorSpec.parse("3:1:4") == FactorSpec(3, 1, 4)
    with pytest.raises(ValueError):
        FactorSpec.parse("3:1")
    with pytest.raises(ValueError):
        FactorSpec(4, 1, 1)  # ell not prime
    with pytest.raises(ValueError):
        FactorSpec(3, 0, 1)


def test_factor_identity_examples():
    # m = 1: difference of squares; m = 2: 1 - 3t^2 + 2t^3; m = 5 has
    # t^2 coefficient -15 = -C(6,2)
    assert factor_identity_check(1)
    assert factor_identity_check(2)
    assert factor_identity_check(5)
    assert comb(6, 2) == 15
    assert all(factor_identity_check(m) for m in range(1, 51))


def test_coefficient_sieve_squarefree_indicator():
    c = coefficient_sieve(FactorSpec(2, 1, 1), 10)
    assert int(c.sum()) == 7  # 1, 2, 3, 5, 6, 7, 10
    assert [n for n in range(1, 11) if c[n]] == [1, 2, 3, 5, 6, 7, 10]


def test_coefficient_sieve_congruence_support():
    c = coefficient_sieve(FactorSpec(3, 1, 1), 30)
    assert c[7] == 1 and c[5] == 0 and c[21] == 1 and c[1] == 1
    assert c[3] == 1 and c[9] == 0  # 3 = ell allowed once, 9 not squarefree


def test_coefficient_sieve_against_definition():
    for spec in [FactorSpec(2, 1, 3), FactorSpec(3, 1, 2), FactorSpec(5, 2, 4),
                 FactorSpec(3, 2, 1)]:
        c = coefficient_sieve(spec, 500)
        for n in range(1, 501):
            want = 0
            if is_squarefree(n) and b_supported(n, spec.ell):
                want = spec.m ** omega(n)
            assert c[n] == want, (spec, n)


def test_coefficient_sieve_budget():
    with pytest.raises(BudgetExceeded):
        coefficient_sieve(FactorSpec(2, 1, 1), (1 << 27) + 1)


def test_multi_factor_single_is_prefix_sum():
    series = multi_factor_sum([FactorSpec(2, 1, 1)], 10, checkpoints=[4, 10])
    assert series.values == (3, 7)
    assert series.alpha_pred == Fraction(1)
    assert series.beta_pred == Fraction(0)


def test_multi_factor_against_double_loop():
    specs = [FactorSpec(2, 1, 1), FactorSpec(2, 2, 1)]
    X = 10_000
    c = coefficient_sieve(FactorSpec(2, 1, 1), X)
    total = 0
    for a1 in range(1, X + 1):
        if not c[a1]:
            continue
        a2 = 1
        while a1 * a2 * a2 <= X:
            if c[a2]:
                total += 1
            a2 += 1
    series = multi_factor_sum(specs, X, checkpoints=[X])
    assert series.values[-1] == total
    assert series.alpha_pred == Fraction(1)
    assert series.beta_pred == Fraction(0)  # only the d = 1 factor counts


def test_multi_factor_three_factors_brute_force():
    specs = [FactorSpec(3, 1, 2), FactorSpec(2, 2, 1), FactorSpec(3, 3, 2)]
    X = 2000
    arrays = [coefficient_sieve(sp, X) for sp in specs]
    total = 0
    for a1 in range(1, X + 1):
        if not arrays[0][a1]:
            continue
        for a2 in range(1, X + 1):
            v2 = a1 * a2 ** 2
            if v2 > X:
                break
            if not arrays[1][a2]:
                continue
            for a3 in range(1, X + 1):
                if v2 * a3 ** 3 > X:
                    break
                if arrays[2][a3]:
                    total += int(arrays[0][a1]) * int(arrays[2][a3])
    series = multi_factor_sum(specs, X, checkpoints=[X])
    assert series.values[-1] == total


def test_multi_factor_monotone_and_floor():
    series = multi_factor_sum([FactorSpec(3, 1, 2), FactorSpec(2, 2, 1)],
                              5000, checkpoints=[10, 100, 1000, 5000])
    assert all(a <= b for a, b in zip(series.values, series.values[1:]))
    assert series.values[0] >= 1  # the all-ones tuple


def test_predicted_exponents():
    series = multi_factor_sum([FactorSpec(3, 1, 2)], 2000, checkpoints=[2000])
    assert (series.alpha_pred, series.beta_pred) == (Fraction(1), Fraction(0))
    series = multi_factor_sum([FactorSpec(3, 1, 4)], 2000, checkpoints=[2000])
    assert series.beta_pred == Fraction(1)
    series = multi_factor_sum([FactorSpec(5, 2, 6), FactorSpec(3, 2, 2)],
                              2000, checkpoints=[2000])
    assert series.alpha_pred == Fraction(1, 2)
    assert series.beta_pred == Fraction(6, 4) + Fraction(2, 2) - 1


def test_default_checkpoints():
    pts = default_checkpoints(10 ** 6)
    assert pts[0] == 1000 and pts[-1] == 10 ** 6
    assert all(b == 2 * a for a, b in zip(pts[:-2], pts[1:-1]))
    assert default_checkpoints(500) == [500]


def test_doubling_ratio_tracks_min_d():
    # the minimum-d factor dominates: S(2x)/S(x) is about 2^(1/d)
    series = multi_factor_sum([FactorSpec(3, 1, 2)], 2 * 10 ** 6,
                              checkpoints=[10 ** 6, 2 * 10 ** 6])
    ratio = series.values[1] / series.values[0]
    assert abs(ratio - 2.0) <= 0.2
    series = multi_factor_sum([FactorSpec(3, 2, 2)], 4 * 10 ** 6,
                              checkpoints=[2 * 10 ** 6, 4 * 10 ** 6])
    ratio = series.values[1] / series.values[0]
    assert abs(ratio - 2 ** 0.5) <= 0.15


def test_slope_estimate_requires_data():
    series = multi_factor_sum([FactorSpec(2, 1, 1)], 2000,
                              checkpoints=[1000, 2000])
    with pytest.raises(InsufficientData):
        slope_estimate(series)


def test_slope_estimate_squarefree_law():
    # classical density: S(x) = (6/pi^2) x + O(sqrt x)
    series = multi_factor_sum([FactorSpec(2, 1, 1)], 10 ** 7)
    rep = slope_estimate(series)
    assert abs(rep.alpha_hat - 1.0) <= 0.01
    assert abs(rep.beta_hat) <= 0.15
    density = series.values[-1] / 10 ** 7
    assert abs(density - 6 / np.pi ** 2) / (6 / np.pi ** 2) < 0.01
    assert rep.fitted_constant > 0  # reported, never asserted against theory


@pytest.mark.parametrize("specs", [[(2, 1, 1)], [(3, 1, 4)],
                                   [(3, 1, 2), (5, 2, 3)]])
def test_final_running_beta_is_the_slope_fit(specs):
    # one fit: the last running estimate is beta_hat, bit for bit
    series = multi_factor_sum([FactorSpec(*s) for s in specs], 10 ** 7)
    assert running_beta(series)[-1] == slope_estimate(series).beta_hat


def test_running_beta_and_csv_rows():
    series = multi_factor_sum([FactorSpec(3, 1, 2)], 10 ** 5)
    rows = series_csv_rows(series)
    assert len(rows) == len(series.checkpoints)
    betas = running_beta(series)
    assert betas[0] is None and betas[-1] is not None


def test_euler_factorization_exact():
    # the wild factor, the expanded polynomial, and the split-prime part
    # reassemble the sieve coefficients exactly
    for ell in (2, 3, 5):
        for m in (1, 3, 6):
            for d in (1, 2, 3):
                assert euler_factorization_check(FactorSpec(ell, d, m), 3000), \
                    (ell, d, m)


def test_prime_and_squarefree_sieves():
    isp = prime_sieve(50)
    assert [int(p) for p in np.nonzero(isp)[0]] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    sf = squarefree_sieve(50)
    assert all(bool(sf[n]) == is_squarefree(n) for n in range(1, 51))


def _coefficient_by_factorint(spec, n):
    from sympy import factorint
    f = factorint(n)
    if any(e > 1 or (p != spec.ell and p % spec.ell != 1)
           for p, e in f.items()):
        return 0
    return spec.m ** len(f)


@pytest.mark.parametrize("m", [10 ** 5, 10 ** 12])
def test_multi_factor_huge_weights_against_factorint(m):
    # weights m^omega far beyond int64: the sums must stay exact
    X = 20_000
    specs = [FactorSpec(3, 1, m), FactorSpec(5, 2, m + 1)]
    c1 = [_coefficient_by_factorint(specs[0], n) for n in range(1, X + 1)]
    c2 = [_coefficient_by_factorint(specs[1], n)
          for n in range(1, isqrt(X) + 1)]
    points = default_checkpoints(X)
    single = multi_factor_sum(specs[:1], X, checkpoints=points)
    assert single.values == tuple(sum(c1[:x]) for x in points)
    double = multi_factor_sum(specs, X, checkpoints=points)
    assert double.values == tuple(
        sum(w * sum(c1[:x // (a * a)]) for a, w in enumerate(c2, 1)
            if a * a <= x)
        for x in points)
    assert max(double.values) > 2 ** 63


def test_multi_factor_overflow_case():
    series = multi_factor_sum([FactorSpec(3, 1, 10 ** 5)], 3 * 10 ** 5)
    assert series.values[-1] == 30047804819143611297100001


def test_coefficient_sieve_exact_for_huge_m():
    spec = FactorSpec(3, 1, 10 ** 12)
    c = coefficient_sieve(spec, 3000)
    assert [int(v) for v in c[1:]] == [_coefficient_by_factorint(spec, n)
                                       for n in range(1, 3001)]


def _floor_values(x):
    return sorted({x // i for i in range(1, isqrt(x) + 1)}
                  | set(range(1, isqrt(x) + 1)))


@pytest.mark.parametrize("x", [1, 2, 999_983, 123_456, 10 ** 6])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_floor_count_equals_sweep(ell, x):
    queries = _floor_values(x)
    for m in (1, 4, 10 ** 5, 10 ** 12):
        spec = FactorSpec(ell, 1, m)
        assert dirichlet._floor_prefix_sums(spec, [x], queries) == \
            dirichlet._sweep_prefix_sums(spec, queries), (ell, x, m)


def test_floor_count_against_factorint():
    x = 10 ** 5
    spec = FactorSpec(3, 1, 10 ** 12)
    prefix = [0]
    for n in range(1, x + 1):
        prefix.append(prefix[-1] + _coefficient_by_factorint(spec, n))
    queries = _floor_values(x)
    got = dirichlet._floor_prefix_sums(spec, [x], queries)
    assert got == {q: prefix[q] for q in queries}


@pytest.mark.parametrize("checkpoints", [
    default_checkpoints(10 ** 6), [77_777, 123_456, 999_983, 10 ** 6]])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_floor_count_over_union(ell, checkpoints):
    floors = {x: _floor_values(x) for x in checkpoints}
    queries = sorted(set().union(*floors.values()))
    for m in (1, 4, 10 ** 12):
        spec = FactorSpec(ell, 1, m)
        got = dirichlet._floor_prefix_sums(spec, checkpoints, queries)
        assert got == dirichlet._sweep_prefix_sums(spec, queries), (ell, m)
        for x, qs in floors.items():
            assert dirichlet._floor_prefix_sums(spec, [x], qs) == \
                {q: got[q] for q in qs}, (ell, m, x)


@pytest.mark.parametrize("x", [p ** 3 + e for p in (97, 101)
                               for e in (-1, 0, 1)] + [1_060_000])
def test_floor_count_at_the_cube_split(x):
    # iroot(x, 3) moves from p - 1 to p at p^3: p leaves the batched step.
    # At 103 * 101^2 <= x < 102^3, 103 reads v // 103 >= 101^2, which 101
    # has sieved, so 101 must stay out of the batched step.
    queries = _floor_values(x)
    for ell in (2, 3, 7):
        spec = FactorSpec(ell, 1, 10 ** 12)
        assert dirichlet._floor_prefix_sums(spec, [x], queries) == \
            dirichlet._sweep_prefix_sums(spec, queries), (ell, x)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_floor_count_in_blocks(monkeypatch, ell, block):
    checkpoints = default_checkpoints(300_000)
    queries = sorted(set().union(*map(_floor_values, checkpoints)))
    spec = FactorSpec(ell, 1, 4)
    want = dirichlet._sweep_prefix_sums(spec, queries)
    monkeypatch.setattr(dirichlet, "PAIR_BLOCK", block)
    assert dirichlet._floor_prefix_sums(spec, checkpoints, queries) == want


def _support_sums_by_sieve(spec, checkpoints, support):
    prefix = np.cumsum(coefficient_sieve(spec, max(checkpoints))).tolist()
    return [sum(w * prefix[iroot(x // p, spec.d)]
                for p, w in support.items() if p <= x) for x in checkpoints]


def _colliding_support(ell, top):
    """Signed weights at ell^k, ell^(k + 2) and 2 ell^k, summed where keys
    collide."""
    support = {}
    q, c = 1, 1
    while q <= top:
        for key, coeff in ((q, c), (q * ell * ell, 5 * c), (2 * q, -4 * c),
                           (q, 3 * c)):
            support[key] = support.get(key, 0) + coeff
        q, c = q * ell, -5 * c
    return support


@pytest.mark.parametrize("ell, d, floor", [
    (3, 1, True), (7, 1, True), (3, 2, False), (1009, 1, False)])
def test_support_sums_against_coefficient_sieve(monkeypatch, ell, d, floor):
    x = 10 ** 6
    calls = []
    count = dirichlet._floor_prefix_sums

    def recorded(*args):
        calls.append(args[1])
        return count(*args)
    monkeypatch.setattr(dirichlet, "_floor_prefix_sums", recorded)
    spec = FactorSpec(ell, d, 4)
    checkpoints = [1, 2, 5, 999, 77_777, x]
    supports = [
        {1: 1},
        _colliding_support(3, x),
        _colliding_support(ell, x),
        # keys above x, and checkpoints 1 and 2 below every key
        {5: 3, 10: -2, 49: 7, 10 ** 6 + 1: 11, 10 ** 9: -13},
    ]
    for support in supports:
        assert dirichlet._support_sums(spec, checkpoints, support) == \
            _support_sums_by_sieve(spec, checkpoints, support), support
    assert bool(calls) == floor
    # every checkpoint below every key: no query, every sum 0
    assert dirichlet._support_sums(spec, [3, 4], {5: 1, 7: -1}) == [0, 0]


def test_series_loads_no_masked_arrays():
    # np.unique imports numpy.ma lazily (numpy 2), 0.04 s in a first job
    code = ("import sys\n"
            "from nilcount.cli import main\n"
            "main(['dseries', '--specs', '3:1:4', '--max-x', '100000000'])\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dirichlet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["final_sum"] == 321859545


def test_floor_count_once_per_series(monkeypatch):
    calls = []
    floor = dirichlet._floor_prefix_sums

    def recorded(spec, checkpoints, queries):
        calls.append(list(checkpoints))
        return floor(spec, checkpoints, queries)
    monkeypatch.setattr(dirichlet, "_floor_prefix_sums", recorded)
    series = multi_factor_sum([FactorSpec(3, 1, 2), FactorSpec(5, 2, 3)],
                              10 ** 6)
    assert len(series.checkpoints) == 11
    assert calls == [list(series.checkpoints)]


@pytest.mark.parametrize("limit, counted", [(9_999, False), (10_000, True)])
def test_floor_count_rule_boundary(monkeypatch, limit, counted):
    # (ell - 1)^4 = 10^4: the floor-set count answers from limit 10^4 on
    spec = FactorSpec(11, 1, 3)
    c = coefficient_sieve(spec, limit)
    calls = []
    floor = dirichlet._floor_prefix_sums

    def recorded(*args):
        calls.append(args[1])
        return floor(*args)
    monkeypatch.setattr(dirichlet, "_floor_prefix_sums", recorded)
    series = multi_factor_sum([spec], limit)
    assert bool(calls) == counted
    assert series.values == tuple(int(c[:x + 1].sum())
                                  for x in series.checkpoints)
    # the rule ignores the sieve budget: with the limit above it, the same
    # way answers, as the floor count's own tables stay small
    monkeypatch.setitem(LIMITS, "sieve entries", limit - 1)
    calls.clear()
    assert multi_factor_sum([spec], limit) == series
    assert bool(calls) == counted


@pytest.mark.parametrize("specs, limit, final", [
    ("3:1:4", (1 << 27) + 1, 437663637),
    ("3:1:4", 10 ** 9, 3548149849),
    ("3:1:2,5:2:3", 10 ** 9, 500053592)])
def test_floor_count_above_sieve_budget(monkeypatch, specs, limit, final):
    # the sweep's values, from before the floor count answered above 2^27
    def sweep(*args):
        raise AssertionError("the sweep answered a d = 1 pivot")
    monkeypatch.setattr(dirichlet, "_sweep_prefix_sums", sweep)
    series = multi_factor_sum([FactorSpec.parse(t) for t in specs.split(",")],
                              limit)
    assert series.values[-1] == final


def test_floor_count_refused_before_its_tables(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a floor-set array was built")
    monkeypatch.setattr(dirichlet.np, "concatenate", built)  # makes `vals`
    sieve, sieved = dirichlet.prime_sieve, []

    def recorded(limit):
        sieved.append(limit)
        return sieve(limit)
    monkeypatch.setattr(dirichlet, "prime_sieve", recorded)
    spec = FactorSpec(3, 1, 4)
    # (ell - 1) |V| is over budget: refused before even the prime sieve
    for huge in (10 ** 21, 10 ** 320):
        with pytest.raises(BudgetExceeded, match="floor-set class"):
            multi_factor_sum([spec], huge)
    assert sieved == []
    # at 1e14 the class table fits, but 9 rows of omega counts do not
    with pytest.raises(BudgetExceeded, match="floor-set omega"):
        multi_factor_sum([spec], 10 ** 14)
    assert sieved == [10 ** 7]


def test_sweep_values_at_1e8():
    # perfbench/references.json, computed apart from the program
    series = multi_factor_sum([FactorSpec(3, 1, 4)], 10 ** 8)
    assert series.values == (
        1589, 3333, 7025, 14801, 31433, 66685, 139277, 289585, 605205,
        1259809, 2625165, 5455981, 11311209, 23430229, 48490401, 100232493,
        206965345, 321859545)
    series = multi_factor_sum([FactorSpec(3, 1, 2), FactorSpec(5, 2, 3)],
                              10 ** 8)
    assert series.values[-1] == 50005191


def test_sweep_refused_before_its_first_segment(monkeypatch):
    from nilcount.counting import count_cyclic_ell_at
    segments, built = dirichlet._segments, []

    def recorded(spec, limit):
        built.append(limit)
        return segments(spec, limit)
    monkeypatch.setattr(dirichlet, "_segments", recorded)
    # F = 1.2e9 < (191 - 1)^4 sends cyclic191 to the sweep, past 2^30
    with pytest.raises(BudgetExceeded, match="integer sweep to 1200000000 "
                                             f"exceeds {1 << 30}"):
        count_cyclic_ell_at(191, [1_200_000_000 ** 190])
    assert built == []
    # at the limit the sweep answers; one past it, no segment is built
    spec = FactorSpec(1009, 1, 2)
    monkeypatch.setitem(LIMITS, "sweep entries", 10 ** 5)
    got = multi_factor_sum([spec], 10 ** 5).values[-1]
    assert built == [10 ** 5]  # the sweep answered
    assert got == sum(coefficient_sieve(spec, 10 ** 5))
    built.clear()
    with pytest.raises(BudgetExceeded, match="integer sweep to 100001 "):
        multi_factor_sum([spec], 10 ** 5 + 1)
    assert built == []
