"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole gate is also part of the default suite.
"""

import time
from fractions import Fraction

import numpy as np

from nilcount.catalog import (abelian, dihedral4_regular, dihedral4_s4,
                              generalized_quaternion, nilpotent_catalog)
from nilcount.counting import (count_quadratic_at, enumerate_cyclic_ell,
                               enumerate_v4, v4_fiber_check)
from nilcount.dirichlet import (FactorSpec, default_checkpoints,
                                multi_factor_sum, slope_estimate)
from nilcount.malle import BaseFieldData, b_constant, min_index
from nilcount.series import d_constant, enumerate_refinements, optimize_d
from nilcount.suites import get_suite
from oracles import euler_factorization_check, factor_identity_check

Q = BaseFieldData.rationals()
SIX_OVER_PI2 = 6 / np.pi ** 2


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    assert passed, line


def test_criterion_1_invariant_table():
    t0 = time.time()
    q8 = generalized_quaternion(4)
    ok = min_index(q8) == (4, Fraction(1, 4))
    opt = optimize_d(q8, Q)
    ok &= opt.d_group == 1 and opt.d_field == 1 == b_constant(q8, Q)

    d4r = dihedral4_regular()
    ok &= min_index(d4r)[1] == Fraction(1, 4)
    ok &= optimize_d(d4r, Q).d_group == 5

    d4 = dihedral4_s4()
    ok &= min_index(d4)[1] == Fraction(1)
    ok &= optimize_d(d4, Q).d_group == 2

    c42 = abelian(4, 2)
    opt = optimize_d(c42, Q)
    ok &= opt.d_group == 3 and opt.d_field == b_constant(c42, Q) == 3
    worst = max(d_constant(r, Q)[0] for r in enumerate_refinements(c42))
    ok &= worst == 5

    # abelian ell-groups with ell^s <= 64: d(G) = ell^s - 1
    abelian_cases = [
        (2, [(2,), (4,), (8,), (2, 2), (4, 2), (4, 4), (8, 8), (2, 2, 2),
             (4, 4, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2)]),
        (3, [(3,), (9,), (27,), (3, 3), (9, 3), (9, 9), (3, 3, 3)]),
        (5, [(5,), (25,), (5, 5)]),
        (7, [(7,), (7, 7)]),
    ]
    for ell, types in abelian_cases:
        for orders in types:
            rank = len(orders)
            assert ell ** rank <= 64
            got = optimize_d(abelian(*orders), Q).d_group
            ok &= got == ell ** rank - 1

    ok &= optimize_d(generalized_quaternion(8), Q).d_group == 1
    ok &= optimize_d(generalized_quaternion(16), Q).d_group == 1
    report(1, ok, f"invariant table reproduced [{time.time() - t0:.1f}s]")


def test_criterion_2_falsifier_suites():
    t0 = time.time()
    entries = nilpotent_catalog()
    assert len(entries) >= 15 and all(G.order <= 64 for _, G in entries)
    suite_ids = ["4.4", "4.5", "4.7", "4.8iii", "5.1", "5.2", "5.3", "5.11"]
    results = {sid: get_suite(sid)(seed=42) for sid in suite_ids}
    elapsed = time.time() - t0
    ok = all(r.passed for r in results.values()) and elapsed < 60
    report(2, ok, f"{len(suite_ids)} suites over {len(entries)} groups "
                  f"[{elapsed:.1f}s]")


def test_criterion_3_counting_bounds():
    t0 = time.time()
    r31 = get_suite("3.1")(seed=42)
    r32 = get_suite("3.2")(seed=42)
    ok = (r31.passed and r32.passed
          and r31.details["cases"] == 200 and r32.details["cases"] == 200)
    report(3, ok, f"200 seeded profiles, bounds and partition identity exact "
                  f"[{time.time() - t0:.1f}s]")


def test_criterion_4_euler_algebra():
    t0 = time.time()
    ok = all(factor_identity_check(m) for m in range(1, 51))
    for ell in (2, 3, 5):
        for m in range(1, 7):
            for d in (1, 2, 3):
                ok &= euler_factorization_check(FactorSpec(ell, d, m), 10 ** 4)
    report(4, ok, f"identity to m=50; decomposition exact to 1e4 terms for "
                  f"54 specs [{time.time() - t0:.1f}s]")


def test_criterion_5_asymptotic_slopes():
    t0 = time.time()
    # squarefree density at 1e7 within 1%
    sq = multi_factor_sum([FactorSpec(2, 1, 1)], 10 ** 7)
    dens = sq.values[-1] / 10 ** 7
    ok = abs(dens - SIX_OVER_PI2) / SIX_OVER_PI2 < 0.01

    # quadratic field count density at 1e7 within 2%
    zc2 = count_quadratic_at([10 ** 7])[0] / 10 ** 7
    ok &= abs(zc2 - SIX_OVER_PI2) / SIX_OVER_PI2 < 0.02

    # cyclic cubic ratio drift < 5% over the last decade up to 1e8
    discs = sorted(disc for disc, _, _ in enumerate_cyclic_ell(3, 10 ** 8))
    import bisect
    ratios = []
    for cp in [c for c in default_checkpoints(10 ** 8) if c >= 10 ** 7]:
        z = bisect.bisect_right(discs, cp)
        ratios.append(z / cp ** 0.5)
    ok &= max(abs(r / ratios[-1] - 1) for r in ratios) < 0.05

    # multi-factor beta within +-0.3 of e-1 for e in {1, 2} at 1e8
    betas = {}
    for spec, e in [(FactorSpec(3, 1, 2), 1), (FactorSpec(3, 1, 4), 2)]:
        series = multi_factor_sum([spec], 10 ** 8)
        rep = slope_estimate(series)
        betas[e] = rep.beta_hat
        ok &= abs(rep.beta_hat - (e - 1)) <= 0.3
    report(5, ok, f"densities {dens:.5f}/{zc2:.5f}, drift ok, "
                  f"beta_hat {betas} [{time.time() - t0:.0f}s]")


def test_criterion_6_fiber_bound():
    t0 = time.time()
    rep = v4_fiber_check(enumerate_v4(10 ** 6))
    ok = (rep.passed and rep.field_count > 0
          and rep.bound_violations == 0 and rep.valuation_failures == 0)
    report(6, ok, f"{rep.field_count} fields, max fiber {rep.max_fiber} "
                  f"[{time.time() - t0:.1f}s]")


def test_criterion_7_constants_reported_not_asserted():
    # leading constants are not reproducible from the counting bounds; the
    # slope reports expose a fitted constant and nothing in the package
    # compares it to a theoretical value
    series = multi_factor_sum([FactorSpec(2, 1, 1)], 10 ** 7)
    rep = slope_estimate(series)
    ok = rep.fitted_constant > 0 and np.isfinite(rep.fitted_constant)
    report(7, ok, f"fitted constant {rep.fitted_constant:.4f} "
                  "(reported only, no assertion)")
