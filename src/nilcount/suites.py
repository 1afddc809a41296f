"""Falsifier suites behind `nilcount verify`.

Each suite re-derives one structural claim by explicit construction over the
group catalog (or over seeded random inputs for the counting bounds) and
reports pass/fail with enough detail to locate a falsifying witness.  The
suite ids are the labels the CLI dispatches on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .catalog import nilpotent_catalog, resolve
from .counting import (count_exactly_ramified, count_unramified_outside,
                       exact_ramified_bounds, unramified_bound, v4_fiber_check)
from .dirichlet import prime_sieve
from .errors import NilcountError, UnknownTheorem
from .extension import (ExtensionData, central_double_quotients,
                        solution_class_counts, verify_pullback_identity,
                        verify_semidirect_decomposition)
from .malle import BaseFieldData, b_constant, min_index
from .nilpotent import (critical_prime_check, natural_product,
                        sylow_decompose, sylow_subgroup_sets)
from .intmath import is_prime, valuation
from .permcore import PermGroup
from .series import (all_min_index_central, d_constant, enumerate_refinements,
                     optimize_d)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    title: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"suite": self.suite, "title": self.title,
                "passed": self.passed, "details": self.details}


def _central_prime_extensions(G: PermGroup) -> list[ExtensionData]:
    T = G.table
    subs = {frozenset(T.cyclic(z)) for z in T.center() if is_prime(T.order[z])}
    ordered = sorted(subs, key=lambda s: sorted(T.elements[i].images for i in s))
    return [ExtensionData.from_kernel(G, T.subset(s)) for s in ordered]


def _extension_cases() -> list[tuple[str, ExtensionData]]:
    """Central prime extensions across the catalog, plus an abelian
    non-central kernel (C3 inside S3) and a nonabelian kernel (the 2-Sylow
    of Q8 x C3)."""
    cases: list[tuple[str, ExtensionData]] = []
    for name, G in nilpotent_catalog():
        if G.order > 64 or G.order == 1:
            continue
        for i, ext in enumerate(_central_prime_extensions(G)):
            cases.append((f"{name}/z{i}", ext))
    s3 = resolve("S3").group()
    c3 = frozenset(g for g in s3.elements if g.order() in (1, 3))
    cases.append(("S3/C3", ExtensionData.from_kernel(s3, c3)))
    q8c3 = resolve("Q8xC3_S24").group()
    two_part = sylow_subgroup_sets(q8c3)[2]
    cases.append(("Q8xC3_S24/Q8", ExtensionData.from_kernel(q8c3, two_part)))
    return cases


def _random_profiles(seed: int, n_cases: int, max_set: int = 6,
                     prime_below: int = 200) -> list[tuple[int, list[int], list[int]]]:
    rng = random.Random(seed)
    primes = [int(p) for p in np.nonzero(prime_sieve(prime_below - 1))[0]]
    out = []
    for _ in range(n_cases):
        ell = rng.choice([2, 3, 5])
        pool = primes[:]
        rng.shuffle(pool)
        ns, nt = rng.randint(0, max_set), rng.randint(0, max_set)
        S = sorted(pool[:ns])
        T = sorted(pool[ns:ns + nt])
        out.append((ell, S, T))
    return out


def suite_class_bound(seed: int = 42, n_cases: int = 200) -> SuiteResult:
    """Exact unramified counts never exceed the rank bound."""
    checked = 0
    k = BaseFieldData.rationals()
    for ell, S, _T in _random_profiles(seed, n_cases):
        exact = count_unramified_outside(ell, S)
        bound = unramified_bound(k, ell, S)
        if exact > bound or exact < 0:
            return SuiteResult("3.1", "unramified count bound", False,
                               {"ell": ell, "S": S, "exact": exact, "bound": bound})
        checked += 1
    return SuiteResult("3.1", "unramified count bound", True, {"cases": checked})


def suite_exact_bound(seed: int = 42, n_cases: int = 200) -> SuiteResult:
    """Exact-ramification counts stay within both bound readings, and the
    inclusion-exclusion consistency identity holds exactly."""
    checked = 0
    for ell, S, T in _random_profiles(seed, n_cases):
        exact = count_exactly_ramified(ell, S, T)
        tight, loose = exact_ramified_bounds(ell, S, T)
        if not 0 <= exact <= tight <= loose:
            return SuiteResult("3.2", "exact ramification bound", False,
                               {"ell": ell, "S": S, "T": T,
                                "exact": exact, "tight": tight, "loose": loose})
        # partition: a field ramified at R with R inside S u T lands in the
        # single term S' = R n S, so the exact counts over subsets of S with
        # the SAME optional set T tile the unramified-outside count
        union = count_unramified_outside(ell, set(S) | set(T))
        split = 0
        S = list(S)
        for mask in range(1 << len(S)):
            sub = {S[i] for i in range(len(S)) if (mask >> i) & 1}
            split += count_exactly_ramified(ell, sub, set(T))
        if split != union:
            return SuiteResult("3.2", "exact ramification bound", False,
                               {"ell": ell, "S": S, "T": T,
                                "sum_over_subsets": split, "union_count": union})
        checked += 1
    return SuiteResult("3.2", "exact ramification bound", True, {"cases": checked})


def suite_semidirect_decomposition(seed: int = 42) -> SuiteResult:
    """Doubled fiber product = kernel x| group, via the explicit map."""
    cases = 0
    for label, ext in _extension_cases():
        try:
            verify_semidirect_decomposition(ext)
        except NilcountError as e:
            return SuiteResult("4.4", "semidirect decomposition", False,
                               {"case": label, "error": str(e)})
        cases += 1
    return SuiteResult("4.4", "semidirect decomposition", True, {"cases": cases})


def suite_pullback(seed: int = 42) -> SuiteResult:
    """Both pullback identities for abelian-kernel extensions."""
    cases = 0
    for label, ext in _extension_cases():
        if label.endswith("/Q8"):
            continue  # nonabelian kernel, not in scope for this suite
        try:
            verify_pullback_identity(ext)
        except NilcountError as e:
            return SuiteResult("4.5", "pullback identities", False,
                               {"case": label, "error": str(e)})
        cases += 1
    return SuiteResult("4.5", "pullback identities", True, {"cases": cases})


def suite_double_quotients(seed: int = 42) -> SuiteResult:
    """Quotient pattern of the doubled central extension."""
    cases = 0
    for label, ext in _extension_cases():
        if not (ext.central and is_prime(len(ext.kernel))):
            continue
        try:
            central_double_quotients(ext)
        except NilcountError as e:
            return SuiteResult("4.7", "double quotient pattern", False,
                               {"case": label, "error": str(e)})
        cases += 1
    return SuiteResult("4.7", "double quotient pattern", True, {"cases": cases})


def suite_solution_classes(seed: int = 42) -> SuiteResult:
    """Solution-class sizes against explicit index-ell subgroup enumeration."""
    cases = 0
    for name, G in nilpotent_catalog():
        for ell in {2, 3, 5}:
            if G.order % ell:
                continue
            try:
                counts = solution_class_counts(G, ell)
            except NilcountError as e:
                return SuiteResult("4.8iii", "solution class counts", False,
                                   {"case": name, "ell": ell, "error": str(e)})
            expect = (ell ** counts.rank - 1) // (ell - 1)
            if counts.index_subgroup_count != expect:
                return SuiteResult("4.8iii", "solution class counts", False,
                                   {"case": name, "ell": ell})
            cases += 1
    return SuiteResult("4.8iii", "solution class counts", True, {"cases": cases})


_COPRIME_PAIRS = [("C2", "C3"), ("C3", "C4"), ("C4", "C9"), ("C2", "C9"),
                  ("Q8", "C3"), ("D4_S4", "C3"), ("C8", "C3"), ("C5", "C4")]


def suite_product_a(seed: int = 42) -> SuiteResult:
    """a of a coprime natural product: the two-sided maximum formula, the two
    compared values always distinct, against a direct index scan."""
    for n1, n2 in _COPRIME_PAIRS:
        G1, G2 = resolve(n1).group(), resolve(n2).group()
        G = natural_product(G1, G2)
        a1, a2 = min_index(G1)[1], min_index(G2)[1]
        lhs = min_index(G)[1]
        v1, v2 = a1 / G2.degree, a2 / G1.degree
        if v1 == v2 or lhs != max(v1, v2):
            return SuiteResult("5.1", "natural product a-formula", False,
                               {"pair": (n1, n2), "scan": str(lhs),
                                "formula": [str(v1), str(v2)]})
    return SuiteResult("5.1", "natural product a-formula", True,
                       {"cases": len(_COPRIME_PAIRS)})


def suite_sylow_a(seed: int = 42) -> SuiteResult:
    """Sylow block decomposition: degrees multiply, factors transitive of
    prime-power order, and the decomposition maximum equals a(G)."""
    cases = 0
    for name, G in nilpotent_catalog():
        dec = sylow_decompose(G)
        prod_deg = 1
        for ell, G_ell in dec.factors:
            prod_deg *= G_ell.degree
            if not G_ell.is_transitive:
                return SuiteResult("5.2", "Sylow decomposition", False,
                                   {"case": name, "why": "factor not transitive"})
            for value in (G_ell.degree, G_ell.order):
                if valuation(value, ell)[1] != 1:
                    return SuiteResult("5.2", "Sylow decomposition", False,
                                       {"case": name, "why": "not a prime power"})
        if prod_deg != G.degree or dec.a_value != min_index(G)[1]:
            return SuiteResult("5.2", "Sylow decomposition", False,
                               {"case": name, "a_formula": str(dec.a_value),
                                "a_scan": str(min_index(G)[1])})
        cases += 1
    return SuiteResult("5.2", "Sylow decomposition", True, {"cases": cases})


def suite_critical_prime(seed: int = 42) -> SuiteResult:
    """All minimal-index elements share one prime order, the critical prime
    of the Sylow decomposition."""
    cases = 0
    for name, G in nilpotent_catalog():
        try:
            ell = critical_prime_check(G)
        except NilcountError as e:
            return SuiteResult("5.3", "critical prime", False,
                               {"case": name, "error": str(e)})
        if ell != sylow_decompose(G).critical_prime:
            return SuiteResult("5.3", "critical prime", False,
                               {"case": name, "why": "disagrees with decomposition"})
        cases += 1
    return SuiteResult("5.3", "critical prime", True, {"cases": cases})


def suite_fiber_bound(seed: int = 42, x: int = 10 ** 6) -> SuiteResult:
    """Every fiber of the biquadratic ramification-tuple map is within the
    bound, and tame discriminant valuations equal the involution index."""
    rep = v4_fiber_check(x)
    details = {"x": x, "fields": rep.field_count, "max_fiber": rep.max_fiber,
               "bound_violations": rep.bound_violations,
               "valuation_failures": rep.valuation_failures}
    return SuiteResult("5.7", "biquadratic fiber bound", rep.passed, details)


def suite_d_bounds(seed: int = 42) -> SuiteResult:
    """For every enumerated refinement: the layer weights partition |G| - 1
    and #minimal-index elements <= d(G) <= |G| - 1."""
    k = BaseFieldData.rationals()
    cases = 0
    for name, G in nilpotent_catalog():
        n_min = G.table.minimal.bit_count()
        b = b_constant(G, k)
        for ref in enumerate_refinements(G):
            if sum(ref.weights) != G.order - 1:
                return SuiteResult("5.11", "d bounds", False,
                                   {"case": name, "why": "weights do not sum"})
            if any(w != len(a) for w, a in zip(ref.weights, ref.layer_sets)):
                return SuiteResult("5.11", "d bounds", False,
                                   {"case": name, "why": "weight != layer size"})
            d_group, d_field = d_constant(ref, k)
            if not (n_min <= d_group <= G.order - 1):
                return SuiteResult("5.11", "d bounds", False,
                                   {"case": name, "d": d_group, "n_min": n_min})
            if d_field < b:
                return SuiteResult("5.11", "d bounds", False,
                                   {"case": name, "why": "d(k,G) < b(k,G)"})
            cases += 1
    return SuiteResult("5.11", "d bounds", True, {"refinements": cases})


_ABELIAN_RANK_CASES = [((2,), 1), ((4,), 1), ((8,), 1), ((2, 2), 3),
                       ((2, 2, 2), 7), ((2, 2, 2, 2), 15), ((4, 2), 3),
                       ((4, 4), 3), ((8, 8), 3), ((3,), 2), ((9,), 2),
                       ((3, 3), 8), ((9, 3), 8), ((3, 3, 3), 26),
                       ((5, 5), 24), ((7, 7), 48)]


def suite_abelian_d(seed: int = 42) -> SuiteResult:
    """Optimal d for abelian ell-groups of rank s is ell^s - 1, with
    d(k,G) = b(k,G)."""
    from .catalog import abelian
    k = BaseFieldData.rationals()
    for orders, want in _ABELIAN_RANK_CASES:
        G = abelian(*orders)
        opt = optimize_d(G, k)
        if opt.d_group != want or opt.d_field != b_constant(G, k):
            return SuiteResult("5.12", "abelian optimal d", False,
                               {"type": list(orders), "d": opt.d_group,
                                "want": want})
    return SuiteResult("5.12", "abelian optimal d", True,
                       {"cases": len(_ABELIAN_RANK_CASES)})


def suite_central_min(seed: int = 42) -> SuiteResult:
    """optimize_d reaches b(k,G) exactly when all minimal-index elements are
    central (over the rationals, across the catalog)."""
    k = BaseFieldData.rationals()
    cases = 0
    for name, G in nilpotent_catalog():
        flag = all_min_index_central(G)
        opt = optimize_d(G, k)
        b = b_constant(G, k)
        if flag != (opt.d_field == b) or opt.d_field < b:
            return SuiteResult("5.13", "central minimal-index elements", False,
                               {"case": name, "central": flag,
                                "d_field": str(opt.d_field), "b": b})
        expected = resolve(name).expected if resolve(name) else {}
        if "min_index_central" in expected and expected["min_index_central"] != flag:
            return SuiteResult("5.13", "central minimal-index elements", False,
                               {"case": name, "why": "catalog expectation"})
        cases += 1
    return SuiteResult("5.13", "central minimal-index elements", True,
                       {"cases": cases})


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "3.1": suite_class_bound,
    "3.2": suite_exact_bound,
    "4.4": suite_semidirect_decomposition,
    "4.5": suite_pullback,
    "4.7": suite_double_quotients,
    "4.8iii": suite_solution_classes,
    "5.1": suite_product_a,
    "5.2": suite_sylow_a,
    "5.3": suite_critical_prime,
    "5.7": suite_fiber_bound,
    "5.11": suite_d_bounds,
    "5.12": suite_abelian_d,
    "5.13": suite_central_min,
}


def run_suite(suite_id: str, seed: int = 42) -> SuiteResult:
    if suite_id not in SUITES:
        raise UnknownTheorem(f"unknown suite id {suite_id!r}; "
                             f"known: {', '.join(sorted(SUITES))}")
    return SUITES[suite_id](seed=seed)


def run_all(seed: int = 42) -> list[SuiteResult]:
    return [SUITES[sid](seed=seed) for sid in sorted(SUITES)]
