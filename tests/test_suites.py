from fractions import Fraction
from types import SimpleNamespace

import pytest

from nilcount import suites
from nilcount.catalog import nilpotent_catalog
from nilcount.counting import V4FiberReport, count_unramified_outside
from nilcount.errors import PropertyViolated, UnknownTheorem
from nilcount.malle import BaseFieldData, b_constant, min_index
from nilcount.series import all_min_index_central, optimize_d
from nilcount.suites import SUITES, get_suite


def test_catalog_size_and_scope():
    entries = nilpotent_catalog()
    assert len(entries) >= 15
    assert all(G.order <= 64 for _, G in entries)
    assert all(G.is_transitive for _, G in entries)


def test_unknown_suite_id():
    with pytest.raises(UnknownTheorem):
        get_suite("9.9")


def test_all_suite_ids_registered():
    assert set(SUITES) == {"3.1", "3.2", "4.4", "4.5", "4.7", "4.8iii",
                           "5.1", "5.2", "5.3", "5.7", "5.11", "5.12", "5.13"}


@pytest.mark.parametrize("sid", sorted(SUITES))
def test_suite_passes(sid):
    result = get_suite(sid)(seed=42)
    assert result.passed, result.details


def test_results_are_json_ready():
    import json
    for r in [get_suite(sid)(seed=1) for sid in sorted(SUITES)]:
        json.dumps(r.to_json())
        assert r.passed


# Falsified cases: one name in `nilcount.suites` is patched so that one case
# fails, and the report must name that case.  The witnesses below come from
# seed 42 (first random profile) and the first catalog groups and pairs.

TITLES = {"3.1": "unramified count bound", "3.2": "exact ramification bound",
          "4.4": "semidirect decomposition", "4.5": "pullback identities",
          "4.7": "double quotient pattern", "4.8iii": "solution class counts",
          "5.1": "natural product a-formula", "5.2": "Sylow decomposition",
          "5.3": "critical prime", "5.7": "biquadratic fiber bound",
          "5.11": "d bounds", "5.12": "abelian optimal d",
          "5.13": "central minimal-index elements"}
ELL, S = 5, [29, 31, 79, 89, 97, 113]  # the first profile of seed 42


def _falsified(monkeypatch, sid, name, fake) -> dict:
    monkeypatch.setattr(suites, name, fake)
    result = get_suite(sid)(seed=42)
    assert result.suite == sid and result.title == TITLES[sid]
    assert result.passed is False
    return result.details


def _boom(*args, **kwargs):
    raise PropertyViolated("boom")


@pytest.mark.parametrize("sid, name, case", [
    ("3.1", "count_unramified_outside", {"ell": ELL, "S": S}),
    ("3.2", "count_exactly_ramified", {"ell": ELL, "S": S, "T": []}),
    ("4.4", "verify_semidirect_decomposition", {"case": "Q8/z0"}),
    ("4.5", "verify_pullback_identity", {"case": "Q8/z0"}),
    ("4.7", "central_double_quotients", {"case": "Q8/z0"}),
    ("4.8iii", "solution_class_counts", {"case": "Q8", "ell": 2}),
    ("5.1", "natural_product", {"pair": ("C2", "C3")}),
    ("5.2", "sylow_decompose", {"case": "Q8"}),
    ("5.3", "critical_prime_check", {"case": "Q8"}),
    ("5.7", "v4_fiber_check", {"x": 10 ** 6}),
    ("5.11", "enumerate_refinements", {"case": "Q8"}),
    ("5.12", "optimize_d", {"type": [2]}),
    ("5.13", "optimize_d", {"case": "Q8"}),
])
def test_error_in_a_case_is_its_witness(monkeypatch, sid, name, case):
    details = _falsified(monkeypatch, sid, name, _boom)
    assert details == {**case, "error": "boom"}


def test_unramified_bound_falsified(monkeypatch):
    details = _falsified(monkeypatch, "3.1", "unramified_bound",
                         lambda k, ell, S: -1)
    assert details == {"ell": ELL, "S": S,
                       "exact": count_unramified_outside(ELL, S), "bound": -1}


def test_exact_bound_falsified(monkeypatch):
    details = _falsified(monkeypatch, "3.2", "exact_ramified_bounds",
                         lambda ell, S, T: (-1, -1))
    exact = suites.count_exactly_ramified(ELL, S, [])
    assert details == {"ell": ELL, "S": S, "T": [], "exact": exact,
                       "tight": -1, "loose": -1}


def test_exact_partition_falsified(monkeypatch):
    union = count_unramified_outside(ELL, S)  # what the subsets sum to
    details = _falsified(monkeypatch, "3.2", "count_unramified_outside",
                         lambda ell, S: -1)
    assert details == {"ell": ELL, "S": S, "T": [],
                       "sum_over_subsets": union, "union_count": -1}


def test_solution_class_count_falsified(monkeypatch):
    fake = SimpleNamespace(rank=1, index_subgroup_count=0)
    details = _falsified(monkeypatch, "4.8iii", "solution_class_counts",
                         lambda G, ell: fake)
    assert details == {"case": "Q8", "ell": 2}


def test_product_a_falsified(monkeypatch):
    # C2 in place of C2 x C3: a scans to 1 against the formula's 1/3, 1/4
    details = _falsified(monkeypatch, "5.1", "natural_product",
                         lambda G1, G2: G1)
    assert details == {"pair": ("C2", "C3"), "scan": "1",
                       "formula": ["1/3", "1/4"]}


@pytest.mark.parametrize("factor, why", [
    (SimpleNamespace(is_transitive=False, degree=2, order=2),
     "factor not transitive"),
    (SimpleNamespace(is_transitive=True, degree=6, order=6),
     "not a prime power"),
])
def test_sylow_factor_falsified(monkeypatch, factor, why):
    fake = SimpleNamespace(factors=((2, factor),), a_value=Fraction(1, 4))
    details = _falsified(monkeypatch, "5.2", "sylow_decompose",
                         lambda G: fake)
    assert details == {"case": "Q8", "why": why}


def test_sylow_a_falsified(monkeypatch):
    details = _falsified(monkeypatch, "5.2", "min_index",
                         lambda G: (min_index(G)[0], 2 * min_index(G)[1]))
    assert details == {"case": "Q8", "a_formula": "1/4", "a_scan": "1/2"}


def test_critical_prime_falsified(monkeypatch):
    details = _falsified(monkeypatch, "5.3", "critical_prime_check",
                         lambda G: 7)
    assert details == {"case": "Q8", "why": "disagrees with decomposition"}


def test_fiber_bound_falsified(monkeypatch):
    details = _falsified(monkeypatch, "5.7", "v4_fiber_check",
                         lambda fields: V4FiberReport(5, {}, 9, 1, 2))
    assert details == {"x": 10 ** 6, "fields": 5, "max_fiber": 9,
                       "bound_violations": 1, "valuation_failures": 2}


@pytest.mark.parametrize("ref, why", [
    (SimpleNamespace(weights=(1,), layer_sets=[()]), "weights do not sum"),
    (SimpleNamespace(weights=(7,), layer_sets=[()]), "weight != layer size"),
])
def test_refinement_layers_falsified(monkeypatch, ref, why):
    details = _falsified(monkeypatch, "5.11", "enumerate_refinements",
                         lambda G: [ref])
    assert details == {"case": "Q8", "why": why}


def test_d_range_falsified(monkeypatch):
    details = _falsified(monkeypatch, "5.11", "d_constant",
                         lambda ref, k: (0, Fraction(0)))
    assert details == {"case": "Q8", "d": 0, "n_min": 1}


def test_d_below_b_falsified(monkeypatch):
    details = _falsified(monkeypatch, "5.11", "d_constant",
                         lambda ref, k: (1, Fraction(0)))
    assert details == {"case": "Q8", "why": "d(k,G) < b(k,G)"}


def test_abelian_d_falsified(monkeypatch):
    details = _falsified(monkeypatch, "5.12", "optimize_d",
                         lambda G, k: SimpleNamespace(d_group=0, d_field=None))
    assert details == {"type": [2], "d": 0, "want": 1}


def test_central_min_falsified(monkeypatch):
    q8 = suites.resolve("Q8").group()
    k = BaseFieldData.rationals()
    assert all_min_index_central(q8)
    details = _falsified(monkeypatch, "5.13", "all_min_index_central",
                         lambda G: False)
    assert details == {"case": "Q8", "central": False,
                       "d_field": str(optimize_d(q8, k).d_field),
                       "b": b_constant(q8, k)}


def test_catalog_expectation_falsified(monkeypatch):
    entry = SimpleNamespace(expected={"min_index_central": False})
    details = _falsified(monkeypatch, "5.13", "resolve", lambda name: entry)
    assert details == {"case": "Q8", "why": "catalog expectation"}


def test_error_in_one_suite_keeps_the_others(monkeypatch):
    monkeypatch.setattr(suites, "optimize_d", _boom)
    results = [get_suite(sid)(seed=42) for sid in sorted(SUITES)]
    assert [(r.suite, r.title) for r in results] == sorted(TITLES.items())
    assert {r.suite for r in results if not r.passed} == {"5.12", "5.13"}
