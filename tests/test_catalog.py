import tracemalloc
from fractions import Fraction
from math import prod

import pytest

from nilcount import extension
from nilcount.catalog import CATALOG, abelian, cyclic, get_group, resolve
from nilcount.errors import BudgetExceeded, PropertyViolated
from nilcount.malle import BaseFieldData, b_constant, min_index
from nilcount.nilpotent import is_nilpotent, natural_product
from nilcount.permcore import PermGroup, cycle_string
from nilcount.series import (all_min_index_central, d_constant,
                             enumerate_refinements, optimize_d)
from nilcount.suites import get_suite

Q = BaseFieldData.rationals()


def test_entries_reproduce_stated_invariants():
    for name, entry in CATALOG.items():
        G = entry.group()
        assert G.is_transitive, name
        assert is_nilpotent(G) == entry.nilpotent, name
        exp = entry.expected
        if "ind" in exp:
            assert min_index(G)[0] == exp["ind"], name
        if "a" in exp:
            assert min_index(G)[1] == Fraction(exp["a"]), name
        if "b" in exp:
            assert b_constant(G, Q) == exp["b"], name
        if "d_opt" in exp:
            assert optimize_d(G, Q).d_group == exp["d_opt"], name
        if "d_worst" in exp:
            worst = max(d_constant(r, Q)[0] for r in enumerate_refinements(G))
            assert worst == exp["d_worst"], name
        if "min_index_central" in exp:
            assert all_min_index_central(G) == exp["min_index_central"], name


def test_name_resolution():
    assert resolve("C6").group().order == 6
    assert resolve("C4xC2xC2").group().order == 16
    assert resolve("NoSuch") is None
    name, G = get_group("Q8")
    assert name == "Q8" and G.order == 8
    _, G = get_group("(1,2,3);(1,2)")
    assert G.order == 6
    with pytest.raises(ValueError):
        get_group("Banana")


def test_generator_strings_round_trip():
    for name, entry in CATALOG.items():
        strings = [cycle_string(g) for g in entry.group().generators]
        joined = ";".join(strings)
        _, G = get_group(joined, degree=entry.group().degree)
        assert G.order == entry.group().order, name


def test_cyclic_is_the_generated_rotation_group():
    from nilcount.catalog import cyclic
    from nilcount.permcore import PermGroup, Permutation
    for n in range(1, 65):
        G = cyclic(n)
        R = PermGroup.generate([Permutation(tuple((i + 1) % n for i in range(n)))])
        assert (G.elements, G.generators) == (R.elements, R.generators), n


def _factorizations(limit, prefix=()):
    """Every tuple of factors >= 2, in every order, with product <= limit."""
    for n in range(2, limit + 1):
        yield prefix + (n,)
        yield from _factorizations(limit // n, prefix + (n,))


def test_abelian_is_the_natural_product_fold():
    # every abelian type of order <= 64, each factor order in every position
    types = list(_factorizations(64))
    assert len(types) == len(set(types)) == 440
    assert {(2,) * 6, (4, 4, 4), (8, 8), (64,), (3, 7), (7, 3)} <= set(types)
    for t in types:
        G = abelian(*t)
        fold = cyclic(t[0])
        for n in t[1:]:
            fold = natural_product(fold, cyclic(n))
        assert G.elements == fold.elements, t
        assert G.generators == fold.generators, t
        assert G.table.mul == fold.table.mul, t


def product_rows(*tables):
    """Reference: Cayley table of the direct product of the groups with these
    tables; (i_1, ..., i_r) is numbered in mixed radix, the first factor most
    significant."""
    rows = [(0,)]
    for table in tables:
        n = len(table)
        rows = [tuple(a * n + b for a in row for b in t) for row in rows for t in table]
    return rows


def assert_product_matches_reference(groups, generators=None):
    """`PermGroup.product` against `regular` of the reference table, which
    also puts that table through the row check and Light's test."""
    G = PermGroup.product(*groups, generators=generators)
    ref = PermGroup.regular(product_rows(*(H.table.mul for H in groups)),
                            generators)
    assert G.elements == ref.elements
    assert G.generators == ref.generators
    assert G.table.mul == ref.table.mul
    return G


def test_product_matches_the_reference_table():
    # every ordered factorization up to order 64, with greedy generators and
    # with abelian's, then nonabelian factors, regular and generated
    for t in _factorizations(64):
        groups = [cyclic(n) for n in t]
        assert_product_matches_reference(groups)
        assert_product_matches_reference(
            groups, [prod(t[i + 1:]) for i in range(len(t))])
    q8, d4, s3 = (resolve(n).group() for n in ("Q8", "D4_S4", "S3"))
    for groups in ([q8], [d4], [q8, cyclic(2)], [cyclic(2), q8], [d4, q8],
                   [s3, d4, cyclic(3)], [q8, s3, q8], [resolve("Heis27").group(), s3]):
        assert_product_matches_reference(groups)


def test_product_of_c2_to_the_10_matches_the_reference_table():
    assert_product_matches_reference([cyclic(2)] * 10)


def test_cyclic_products_of_suite_4_7_match_the_reference_table(monkeypatch):
    built, rows = [], []
    cyclic_product = extension._cyclic_product
    pair_rows = extension._pair_rows

    def record(ell, K):
        built.append((ell, K, cyclic_product(ell, K)))
        return built[-1][2]

    def record_rows(n, left, mul, ks):
        rows.append((len(left(0)), mul, pair_rows(n, left, mul, ks)))
        return rows[-1][2]
    monkeypatch.setattr(extension, "_cyclic_product", record)
    monkeypatch.setattr(extension, "_pair_rows", record_rows)
    assert get_suite("4.7")(seed=1).passed
    # C_ell x G once per case, built once per (ell, G): the 45 cases hold
    # 27 such pairs over 23 groups, each pair's cases in a row
    assert len(built) == 45
    assert len({id(G) for _, _, G in built}) == 27
    for ell, K, G in built:
        ref = PermGroup.regular(product_rows(cyclic(ell).table.mul, K.table.mul))
        assert (G.elements, G.generators) == (ref.elements, ref.generators)
        assert G.table.mul == ref.table.mul
    # C_ell x H is never built: the rows the generator lemma reads, at the
    # generators' images, are those of the product of the built factors
    assert len(rows) == 45
    for ell, mulH, got in rows:
        mul = PermGroup.product(cyclic(ell), PermGroup.regular(mulH)).table.mul
        assert got and all(row == list(mul[x]) for x, row in got.items())


def test_product_refuses_past_the_order_limit_and_missing_generators():
    with pytest.raises(BudgetExceeded, match="group order 4160 exceeds 4096"):
        PermGroup.product(cyclic(64), cyclic(65))
    with pytest.raises(PropertyViolated, match="miss"):  # <(1, 0)> misses (0, 1)
        PermGroup.product(cyclic(2), cyclic(2), generators=[2])
    with pytest.raises(ValueError):
        PermGroup.product()


def test_product_table_at_the_order_limit_is_compact():
    # C2^12: `product_rows` and `regular` peaked at 752 MiB here
    factors = [cyclic(2)] * 12
    tracemalloc.start()
    try:
        G = PermGroup.product(*factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == len(G.table.mul) == 4096
    assert peak < 200 << 20
