"""Falsifier suites behind `nilcount verify`.

Each suite re-derives one structural claim by explicit construction over the
group catalog (or over seeded random inputs for the counting bounds).  A check
registered by `_suite(id, title)` returns its pass details or raises
`Falsified` naming the witness; a `NilcountError` inside `_witness(**case)`
falsifies that case.  The suite ids are the labels the CLI dispatches on.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cache, wraps
from itertools import combinations
from typing import Callable, Iterator

from .catalog import abelian, nilpotent_catalog, resolve
from .counting import (count_exactly_ramified, count_unramified_outside,
                       enumerate_v4, exact_ramified_bounds, unramified_bound,
                       v4_fiber_check)
from .errors import NilcountError, UnknownTheorem
from .extension import (ExtensionData, central_double_quotients,
                        solution_class_counts, verify_pullback_identity,
                        verify_semidirect_decomposition)
from .malle import BaseFieldData, b_constant, min_index
from .nilpotent import critical_prime_check, natural_product, sylow_decompose
from .intmath import is_prime, valuation
from .permcore import PermGroup
from .series import (all_min_index_central, d_constant, enumerate_refinements,
                     optimize_d)

N_CASES = 200  # random ramification profiles drawn by suites 3.1 and 3.2
MAX_SET = 6  # at most this many primes in each of S and T
PRIME_BELOW = 200  # the primes of S and T lie below this
FIBER_X = 10 ** 6  # discriminant bound of the V4 fields of suite 5.7


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    title: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return asdict(self)


class Falsified(Exception):
    """A falsifying witness; the keyword details are the failure report."""

    def __init__(self, **details):
        super().__init__(details)
        self.details = details


@contextmanager
def _witness(**case):
    """A NilcountError raised while checking this case falsifies it."""
    try:
        yield
    except NilcountError as e:
        raise Falsified(**case, error=str(e)) from e


SUITES: dict[str, Callable[..., SuiteResult]] = {}  # the README table's order


def _suite(sid: str, title: str):
    """Register a check as suite `sid`, run as `SUITES[sid](seed=...)`."""
    def register(check: Callable[[int], dict]) -> Callable[..., SuiteResult]:
        @wraps(check)
        def run(seed: int = 42) -> SuiteResult:
            try:
                passed, details = True, check(seed)
            except Falsified as f:
                passed, details = False, f.details
            return SuiteResult(sid, title, passed, details)
        SUITES[sid] = run
        return run
    return register


def _central_prime_extensions(G: PermGroup) -> list[ExtensionData]:
    T = G.table
    subs = {frozenset(T.cyclic(z)) for z in T.center() if is_prime(T.order[z])}
    return [ExtensionData.from_kernel(G, s) for s in sorted(subs, key=sorted)]


@cache
def _extension_cases() -> tuple[tuple[str, ExtensionData], ...]:
    """Central prime extensions across the catalog, plus an abelian
    non-central kernel (C3 inside S3) and a nonabelian kernel (the 2-Sylow
    of Q8 x C3); built once per process and shared by suites 4.4, 4.5 and
    4.7, which only read them."""
    cases: list[tuple[str, ExtensionData]] = []
    for name, G in nilpotent_catalog():
        if G.order > 64 or G.order == 1:
            continue
        for i, ext in enumerate(_central_prime_extensions(G)):
            cases.append((f"{name}/z{i}", ext))
    s3 = resolve("S3").group()
    c3 = [i for i, o in enumerate(s3.table.order) if o in (1, 3)]
    cases.append(("S3/C3", ExtensionData.from_kernel(s3, c3)))
    q8c3 = resolve("Q8xC3_S24").group()
    cases.append(("Q8xC3_S24/Q8",
                  ExtensionData.from_kernel(q8c3, q8c3.table.sylow[2])))
    return tuple(cases)


def _random_profiles(seed: int) -> Iterator[tuple[int, list[int], list[int]]]:
    rng = random.Random(seed)
    primes = [p for p in range(PRIME_BELOW) if is_prime(p)]
    for _ in range(N_CASES):
        ell = rng.choice([2, 3, 5])
        pool = primes[:]
        rng.shuffle(pool)
        ns, nt = rng.randint(0, MAX_SET), rng.randint(0, MAX_SET)
        yield ell, sorted(pool[:ns]), sorted(pool[ns:ns + nt])


@_suite("3.1", "unramified count bound")
def suite_class_bound(seed: int) -> dict:
    """Exact unramified counts never exceed the rank bound."""
    k = BaseFieldData.rationals()
    for ell, S, _T in _random_profiles(seed):
        with _witness(ell=ell, S=S):
            exact = count_unramified_outside(ell, S)
            bound = unramified_bound(k, ell, S)
        if exact > bound or exact < 0:
            raise Falsified(ell=ell, S=S, exact=exact, bound=bound)
    return {"cases": N_CASES}


@_suite("3.2", "exact ramification bound")
def suite_exact_bound(seed: int) -> dict:
    """Exact-ramification counts stay within both bound readings, and the
    inclusion-exclusion consistency identity holds exactly."""
    for ell, S, T in _random_profiles(seed):
        with _witness(ell=ell, S=S, T=T):
            exact = count_exactly_ramified(ell, S, T)
            tight, loose = exact_ramified_bounds(ell, S, T)
            if not 0 <= exact <= tight <= loose:
                raise Falsified(ell=ell, S=S, T=T,
                                exact=exact, tight=tight, loose=loose)
            # partition: a field ramified at R with R inside S u T lands in
            # the single term S' = R n S, so the exact counts over subsets of
            # S with the SAME optional set T tile the unramified-outside count
            union = count_unramified_outside(ell, set(S) | set(T))
            optional = set(T)
            split = sum(count_exactly_ramified(ell, sub, optional)
                        for r in range(len(S) + 1)
                        for sub in combinations(S, r))
        if split != union:
            raise Falsified(ell=ell, S=S, T=T,
                            sum_over_subsets=split, union_count=union)
    return {"cases": N_CASES}


@_suite("4.4", "semidirect decomposition")
def suite_semidirect_decomposition(seed: int) -> dict:
    """Doubled fiber product = kernel x| group, via the explicit map."""
    cases = _extension_cases()
    for label, ext in cases:
        with _witness(case=label):
            verify_semidirect_decomposition(ext)
    return {"cases": len(cases)}


@_suite("4.5", "pullback identities")
def suite_pullback(seed: int) -> dict:
    """Both pullback identities for abelian-kernel extensions."""
    cases = 0
    for label, ext in _extension_cases():
        if label.endswith("/Q8"):
            continue  # nonabelian kernel, not in scope for this suite
        with _witness(case=label):
            verify_pullback_identity(ext)
        cases += 1
    return {"cases": cases}


@_suite("4.7", "double quotient pattern")
def suite_double_quotients(seed: int) -> dict:
    """Quotient pattern of the doubled central extension."""
    cases = 0
    for label, ext in _extension_cases():
        if not (ext.central and is_prime(len(ext.kernel))):
            continue
        with _witness(case=label):
            central_double_quotients(ext)
        cases += 1
    return {"cases": cases}


@_suite("4.8iii", "solution class counts")
def suite_solution_classes(seed: int) -> dict:
    """Solution-class sizes against explicit index-ell subgroup enumeration."""
    cases = 0
    for name, G in nilpotent_catalog():
        for ell in {2, 3, 5}:
            if G.order % ell:
                continue
            with _witness(case=name, ell=ell):
                counts = solution_class_counts(G, ell)
            expect = (ell ** counts.rank - 1) // (ell - 1)
            if counts.index_subgroup_count != expect:
                raise Falsified(case=name, ell=ell)
            cases += 1
    return {"cases": cases}


_COPRIME_PAIRS = [("C2", "C3"), ("C3", "C4"), ("C4", "C9"), ("C2", "C9"),
                  ("Q8", "C3"), ("D4_S4", "C3"), ("C8", "C3"), ("C5", "C4")]


@_suite("5.1", "natural product a-formula")
def suite_product_a(seed: int) -> dict:
    """a of a coprime natural product: the two-sided maximum formula, the two
    compared values always distinct, against a direct index scan."""
    for n1, n2 in _COPRIME_PAIRS:
        with _witness(pair=(n1, n2)):
            G1, G2 = resolve(n1).group(), resolve(n2).group()
            G = natural_product(G1, G2)
            a1, a2 = min_index(G1)[1], min_index(G2)[1]
            lhs = min_index(G)[1]
        v1, v2 = a1 / G2.degree, a2 / G1.degree
        if v1 == v2 or lhs != max(v1, v2):
            raise Falsified(pair=(n1, n2), scan=str(lhs),
                            formula=[str(v1), str(v2)])
    return {"cases": len(_COPRIME_PAIRS)}


@_suite("5.2", "Sylow decomposition")
def suite_sylow_a(seed: int) -> dict:
    """Sylow block decomposition: degrees multiply, factors transitive of
    prime-power order, and the decomposition maximum equals a(G)."""
    catalog = nilpotent_catalog()
    for name, G in catalog:
        with _witness(case=name):
            dec = sylow_decompose(G)
            a_scan = min_index(G)[1]
        prod_deg = 1
        for ell, G_ell in dec.factors:
            prod_deg *= G_ell.degree
            if not G_ell.is_transitive:
                raise Falsified(case=name, why="factor not transitive")
            for value in (G_ell.degree, G_ell.order):
                if valuation(value, ell)[1] != 1:
                    raise Falsified(case=name, why="not a prime power")
        if prod_deg != G.degree or dec.a_value != a_scan:
            raise Falsified(case=name, a_formula=str(dec.a_value),
                            a_scan=str(a_scan))
    return {"cases": len(catalog)}


@_suite("5.3", "critical prime")
def suite_critical_prime(seed: int) -> dict:
    """All minimal-index elements share one prime order, the critical prime
    of the Sylow decomposition."""
    catalog = nilpotent_catalog()
    for name, G in catalog:
        with _witness(case=name):
            if critical_prime_check(G) != sylow_decompose(G).critical_prime:
                raise Falsified(case=name, why="disagrees with decomposition")
    return {"cases": len(catalog)}


@_suite("5.7", "biquadratic fiber bound")
def suite_fiber_bound(seed: int) -> dict:
    """Every fiber of the biquadratic ramification-tuple map is within the
    bound, and tame discriminant valuations equal the involution index."""
    with _witness(x=FIBER_X):
        rep = v4_fiber_check(enumerate_v4(FIBER_X))
    details = {"x": FIBER_X, "fields": rep.field_count,
               "max_fiber": rep.max_fiber,
               "bound_violations": rep.bound_violations,
               "valuation_failures": rep.valuation_failures}
    if not rep.passed:
        raise Falsified(**details)
    return details


@_suite("5.11", "d bounds")
def suite_d_bounds(seed: int) -> dict:
    """For every enumerated refinement: the layer weights partition |G| - 1
    and #minimal-index elements <= d(G) <= |G| - 1."""
    k = BaseFieldData.rationals()
    cases = 0
    for name, G in nilpotent_catalog():
        n_min = G.table.minimal.bit_count()
        with _witness(case=name):
            b = b_constant(G, k)
            for ref in enumerate_refinements(G):
                if sum(ref.weights) != G.order - 1:
                    raise Falsified(case=name, why="weights do not sum")
                if any(w != len(a) for w, a in zip(ref.weights, ref.layer_sets)):
                    raise Falsified(case=name, why="weight != layer size")
                d_group, d_field = d_constant(ref, k)
                if not (n_min <= d_group <= G.order - 1):
                    raise Falsified(case=name, d=d_group, n_min=n_min)
                if d_field < b:
                    raise Falsified(case=name, why="d(k,G) < b(k,G)")
                cases += 1
    return {"refinements": cases}


_ABELIAN_RANK_CASES = [((2,), 1), ((4,), 1), ((8,), 1), ((2, 2), 3),
                       ((2, 2, 2), 7), ((2, 2, 2, 2), 15), ((4, 2), 3),
                       ((4, 4), 3), ((8, 8), 3), ((3,), 2), ((9,), 2),
                       ((3, 3), 8), ((9, 3), 8), ((3, 3, 3), 26),
                       ((5, 5), 24), ((7, 7), 48)]


@_suite("5.12", "abelian optimal d")
def suite_abelian_d(seed: int) -> dict:
    """Optimal d for abelian ell-groups of rank s is ell^s - 1, with
    d(k,G) = b(k,G)."""
    k = BaseFieldData.rationals()
    for orders, want in _ABELIAN_RANK_CASES:
        with _witness(type=list(orders)):
            G = abelian(*orders)
            opt = optimize_d(G, k)
            if opt.d_group != want or opt.d_field != b_constant(G, k):
                raise Falsified(type=list(orders), d=opt.d_group, want=want)
    return {"cases": len(_ABELIAN_RANK_CASES)}


@_suite("5.13", "central minimal-index elements")
def suite_central_min(seed: int) -> dict:
    """optimize_d reaches b(k,G) exactly when all minimal-index elements are
    central (over the rationals, across the catalog)."""
    k = BaseFieldData.rationals()
    catalog = nilpotent_catalog()
    for name, G in catalog:
        with _witness(case=name):
            flag = all_min_index_central(G)
            opt = optimize_d(G, k)
            b = b_constant(G, k)
            expected = resolve(name).expected
        if flag != (opt.d_field == b) or opt.d_field < b:
            raise Falsified(case=name, central=flag,
                            d_field=str(opt.d_field), b=b)
        if "min_index_central" in expected and expected["min_index_central"] != flag:
            raise Falsified(case=name, why="catalog expectation")
    return {"cases": len(catalog)}


def get_suite(suite_id: str) -> Callable[..., SuiteResult]:
    """The suite registered as `suite_id`; UnknownTheorem if there is none."""
    if suite_id not in SUITES:
        raise UnknownTheorem(f"unknown suite id {suite_id!r}; "
                             f"known: {', '.join(SUITES)}")
    return SUITES[suite_id]
