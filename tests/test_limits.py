"""Every size limit in `errors.LIMITS`, shrunk, refuses at its entry point."""

import os
from argparse import Namespace

import pytest

from nilcount.catalog import abelian, resolve
from nilcount.cli import cmd_count
from nilcount.counting import enumerate_v4
from nilcount.dirichlet import FactorSpec, multi_factor_sum, prime_sieve
from nilcount.errors import LIMITS, BudgetExceeded
from nilcount.malle import BaseFieldData
from nilcount.series import enumerate_refinements, optimize_d

Q = BaseFieldData.rationals()

# limit name -> (shrunk limit, the call it refuses, the refused value)
CASES = {
    "group order": (4, lambda: resolve("C8"), 8),
    "enumeration order": (4, lambda: enumerate_refinements(abelian(4, 2)), 8),
    "listed chains": (100, lambda: enumerate_refinements(
        abelian(2, 2, 2, 2, 2)), 101),
    "search nodes": (1, lambda: optimize_d(resolve("D4_S8").group(), Q), 2),
    "sieve entries": (99, lambda: prime_sieve(100), 100),
    "sweep entries": (999, lambda: multi_factor_sum(
        [FactorSpec(1009, 1, 2)], 1000), 1000),
    "tuple entries": (5, lambda: multi_factor_sum(
        [FactorSpec(3, 1, 1), FactorSpec(3, 2, 1)], 10 ** 4), 6),
    "biquadratic discriminant": (999, lambda: enumerate_v4(1000), 1000),
    "listed fields": (15, lambda: cmd_count(Namespace(
        kind="cyclic3", max_x=10 ** 4, out=os.devnull)), 16),
}


def test_every_limit_has_a_case():
    assert set(CASES) == set(LIMITS)


def test_listed_fields_refuses_quadratic_out(monkeypatch):
    # 6,086 fundamental discriminants with |d| <= 1e4
    monkeypatch.setitem(LIMITS, "listed fields", 6085)
    with pytest.raises(BudgetExceeded, match=" 6086 exceeds 6085$"):
        cmd_count(Namespace(kind="quadratic", max_x=10 ** 4, out=os.devnull))


@pytest.mark.parametrize("name", sorted(CASES))
def test_shrunk_limit_refuses(monkeypatch, name):
    limit, call, value = CASES[name]
    monkeypatch.setitem(LIMITS, name, limit)
    with pytest.raises(BudgetExceeded, match=f" {value} exceeds {limit}$"):
        call()
