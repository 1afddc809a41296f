from fractions import Fraction

import pytest

from nilcount.catalog import (CATALOG, abelian, cyclic, get_group,
                              nilpotent_catalog, resolve)
from nilcount.extension import fingerprint, is_isomorphic
from nilcount.malle import BaseFieldData, b_constant, min_index
from nilcount.nilpotent import is_nilpotent, natural_product
from nilcount.permcore import cycle_string
from nilcount.series import (all_min_index_central, d_constant,
                             enumerate_refinements, optimize_d)

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


def test_is_isomorphic_reflexive_and_symmetric_on_catalog():
    groups = [(n, G) for n, G in nilpotent_catalog() if G.order <= 27]
    for n1, G1 in groups:
        assert is_isomorphic(G1, G1), n1
        for n2, G2 in groups:
            assert is_isomorphic(G1, G2) == is_isomorphic(G2, G1), (n1, n2)
            if is_isomorphic(G1, G2):
                assert fingerprint(G1) == fingerprint(G2)


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
