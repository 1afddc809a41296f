import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nilcount
from nilcount.cli import SCHEMA, main
from nilcount.errors import LIMITS
from nilcount.suites import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants_q8(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "Q8")
    assert code == 0
    assert rep["schema"] == "nilcount-report-1"
    assert (rep["ind"], rep["a"], rep["b"]) == (4, "1/4", 1)
    assert rep["d_group"] == 1 and rep["d_field"] == "1"
    assert rep["bound"] == "O(x^{1/4})"
    assert rep["min_index_central"] is True
    assert rep["optimal_refinement"]["layer_min_index"] == [6, 6, 4]


def test_invariants_d4_regular_notes_gap(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "D4_S8")
    assert code == 0
    assert rep["d_group"] == 5
    assert rep["bound"] == "O(x^{1/4} log(x)^{4})"
    assert rep["conjectured_bound"] == "O(x^{1/4} log(x)^{2})"
    assert "note" in rep


def test_invariants_c4xc2(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "C4xC2_S8")
    assert code == 0
    assert rep["d_field"] == "3" and rep["b"] == 3


def test_invariants_d4_s4_bound_rendering(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "D4_S4")
    assert code == 0
    assert rep["a"] == "1" and rep["bound"] == "O(x log(x))"


def test_invariants_custom_cycles_and_s3(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "(1,2,3,4);(1,3)")
    assert code == 0 and rep["order"] == 8
    code, rep = run_cli(capsys, "invariants", "--group", "S3")
    assert code == 0
    assert "d_group" not in rep  # not nilpotent, d fields omitted
    assert rep["a"] == "1" and rep["b"] == 1


def test_invariants_intransitive_is_error(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "(1,2)(3,4)")
    assert code == 1
    assert "NotTransitive" in rep["error"]


def test_invariants_custom_field(tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"degree": 3, "real_places": 1,
                                "class_rank": {}, "cyclo_generators":
                                {"7": [2]}}))
    code, rep = run_cli(capsys, "invariants", "--group", "C7",
                        "--field", str(path))
    assert code == 0
    assert rep["b"] == 2 and rep["d_field"] == "2"


def test_verify_single_and_all_ids(capsys):
    code, rep = run_cli(capsys, "verify", "5.12", "--seed", "42")
    assert code == 0 and rep["passed"]
    assert rep["results"][0]["suite"] == "5.12"
    code, rep = run_cli(capsys, "verify", "nope")
    assert code == 2 and "error" in rep
    assert rep["error"].startswith("UnknownTheorem: unknown suite id 'nope'")
    code, rep = run_cli(capsys, "verify", "all", "--seed", "42")
    assert code == 0 and rep["passed"]
    assert [r["suite"] for r in rep["results"]] == sorted(SUITES)


def test_verify_checks_every_id_before_running(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "4.5", lambda seed: ran.append(seed))
    code, rep = run_cli(capsys, "verify", "4.5", "nope")
    assert code == 2 and rep["error"].startswith("UnknownTheorem: unknown "
                                                 "suite id 'nope'")
    assert ran == []


@pytest.mark.parametrize("argv,error", [
    (["count", "--kind", "v4", "--max-x", "foo"],
     "ValueError: argument --max-x: invalid int value: 'foo'"),
    (["verify"], "ValueError: the following arguments are required: ids"),
])
def test_parser_errors_are_error_reports(capsys, argv, error):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, json.loads(out), err) == (2, {"schema": SCHEMA, "error": error}, "")


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main([flag])
    assert stop.value.code == 0 and capsys.readouterr().out


def test_verify_deterministic(capsys):
    _, rep1 = run_cli(capsys, "verify", "3.2", "--seed", "7")
    _, rep2 = run_cli(capsys, "verify", "3.2", "--seed", "7")
    assert rep1 == rep2


def test_dseries_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "series.csv"
    code, rep = run_cli(capsys, "dseries", "--specs", "3:1:2",
                        "--max-x", str(10 ** 7), "--out", str(out))
    assert code == 0
    assert rep["alpha_pred"] == "1" and rep["beta_pred"] == "0"
    assert "beta_hat" in rep and "fitted_constant" in rep
    lines = out.read_text().splitlines()
    assert lines[0] == "x,S,S_over_x_alpha,running_beta"
    assert len(lines) - 1 == rep["checkpoints"]


def test_dseries_insufficient_checkpoints_is_note(capsys):
    code, rep = run_cli(capsys, "dseries", "--specs", "2:1:1",
                        "--max-x", "4000")
    assert code == 0
    assert "slope_note" in rep


def test_count_quadratic(capsys):
    code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                        "--max-x", "100000")
    assert code == 0
    assert rep["counts"][-1][0] == 100000
    assert abs(rep["density_x"] - 0.6079) < 0.01


def test_count_quadratic_lists_every_field(tmp_path, capsys, monkeypatch):
    from nilcount import cli
    calls = []
    enumerate_quadratic = cli.enumerate_quadratic

    def counted(x):
        calls.append(x)
        return enumerate_quadratic(x)
    monkeypatch.setattr(cli, "enumerate_quadratic", counted)
    out = tmp_path / "c2.csv"
    code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                        "--max-x", "1000000", "--out", str(out))
    assert code == 0 and calls == [10 ** 6]
    assert rep["counts"][-1] == [10 ** 6, 607925]
    rows = out.read_text().splitlines()
    assert len(rows) - 1 == 607925
    assert (rows[1], rows[-1]) == ("C2,3,3,3", "C2,999997,999997,999997")
    # 2,097,342 fields at 3.45e6 pass the limit on listed fields (2^21):
    # refused before any field is listed
    calls.clear()
    out.unlink()
    code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                        "--max-x", "3450000", "--out", str(out))
    assert code == 2 and calls == [] and not out.exists()
    assert rep["error"] == ("BudgetExceeded: listed fields 2097342 exceeds "
                            "2097152")


def test_count_cyclic3_with_csv(tmp_path, capsys):
    out = tmp_path / "c3.csv"
    code, rep = run_cli(capsys, "count", "--kind", "cyclic3",
                        "--max-x", "10000", "--out", str(out))
    assert code == 0
    assert rep["counts"][-1] == [10000, 16]
    rows = out.read_text().splitlines()
    assert rows[0] == "group,discriminant,conductor,tuple"
    assert len(rows) - 1 == 16


def test_count_cyclic3_conductor_column(tmp_path, capsys):
    # |disc| = f^2 for the conductor f of a cyclic cubic field
    out = tmp_path / "c3.csv"
    code, _ = run_cli(capsys, "count", "--kind", "cyclic3",
                      "--max-x", "1000", "--out", str(out))
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [7, 9, 13, 19, 31]
    assert all(int(r[1]) == int(r[2]) ** 2 for r in rows)


def test_count_cyclic_lists_fields_only_for_out(tmp_path, capsys,
                                                monkeypatch):
    from nilcount import cli
    calls = []
    enumerate_cyclic_ell = cli.enumerate_cyclic_ell

    def counted(ell, x):
        calls.append((ell, x))
        return enumerate_cyclic_ell(ell, x)
    monkeypatch.setattr(cli, "enumerate_cyclic_ell", counted)
    argv = ["count", "--kind", "cyclic3", "--max-x", "1000000"]
    code, rep = run_cli(capsys, *argv)
    assert code == 0 and calls == []
    out = tmp_path / "c3.csv"
    code, listed = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0 and listed == rep and calls == [(3, 10 ** 6)]
    assert len(out.read_text().splitlines()) - 1 == rep["counts"][-1][1]
    # past the limit on listed fields: refused before any field is listed
    calls.clear()
    monkeypatch.setitem(LIMITS, "listed fields", 158)
    out.unlink()
    code, rep = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and calls == [] and not out.exists()
    assert rep["error"] == "BudgetExceeded: listed fields 159 exceeds 158"


@pytest.mark.parametrize("kind, x", [
    ("quadratic", 2), ("cyclic5", 100), ("v4", 100)])
def test_count_out_without_fields_writes_the_header(tmp_path, capsys, kind,
                                                     x):
    out = tmp_path / "none.csv"
    code, rep = run_cli(capsys, "count", "--kind", kind, "--max-x", str(x),
                        "--out", str(out))
    assert code == 0
    assert (rep["fields"] if kind == "v4" else rep["counts"][-1][1]) == 0
    assert out.read_bytes() == b"group,discriminant,conductor,tuple\r\n"


@pytest.mark.parametrize("kind, x, fields, limit", [
    ("quadratic", 10 ** 6, 607925, 100 << 20),
    ("cyclic3", 10 ** 12, 158542, 35 << 20)])
def test_listing_fields_peak_memory(tmp_path, capsys, kind, x, fields, limit):
    # only the rows (a cyclic conductor's fields share one tuple) and the
    # CSV text grow with the number of fields listed
    out = tmp_path / "fields.csv"
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "count", "--kind", kind, "--max-x", str(x),
                            "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and rep["counts"][-1] == [x, fields]
    assert len(out.read_text().splitlines()) - 1 == fields
    assert peak < limit, peak


COHN = 0.158528258  # lim N(X)/sqrt(X) for cyclic cubic fields (Cohn 1954)


@pytest.mark.parametrize("x, fields, tolerance", [
    (10 ** 12, 158542, 2e-5),
    (10 ** 14, 1585249, 5e-6),
    (10 ** 16, 15852618, 5e-6),
    (10 ** 18, 158528150, 5e-7)])  # 1e18 also read off the sweep at F = 1e9
def test_cyclic3_ratio_approaches_cohn_constant(capsys, x, fields, tolerance):
    code, rep = run_cli(capsys, "count", "--kind", "cyclic3",
                        "--max-x", str(x))
    assert code == 0 and rep["counts"][-1] == [x, fields]
    assert abs(rep["ratio_x_alpha"] - COHN) < tolerance


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    from nilcount.cli import build_parser
    assert build_parser() is build_parser()  # built once per process
    out = tmp_path / "c3.csv"
    argv = ["count", "--kind", "cyclic3", "--max-x", "1000"]
    code, listed = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0 and out.exists()
    out.unlink()
    code, counted = run_cli(capsys, *argv)
    assert code == 0 and counted == listed and not out.exists()
    _, seeded = run_cli(capsys, "verify", "3.2", "--seed", "7")
    _, plain = run_cli(capsys, "verify", "3.2")
    assert (seeded["seed"], plain["seed"]) == (7, 42)


def test_count_v4(capsys):
    code, rep = run_cli(capsys, "count", "--kind", "v4", "--max-x", "10000")
    assert code == 0
    assert rep["passed"] and rep["fields"] > 0


def test_count_unknown_kind(capsys):
    code, rep = run_cli(capsys, "count", "--kind", "septic", "--max-x", "10")
    assert code == 2
    assert rep == {"schema": SCHEMA,
                   "error": "ValueError: unknown count kind 'septic'"}


def test_count_max_x_below_one_is_typed_error(capsys):
    for kind in ("quadratic", "cyclic3", "cyclic5", "v4"):
        for bad in ("0", "-3"):
            code, rep = run_cli(capsys, "count", "--kind", kind, "--max-x", bad)
            assert code == 2
            assert rep["error"].startswith("ValueError: --max-x must be")


def test_catalog_lists_groups(capsys):
    code, rep = run_cli(capsys, "catalog")
    assert code == 0
    names = {e["name"] for e in rep["catalog"]}
    assert {"Q8", "Q16", "D4_S4", "D4_S8", "C4xC2_S8", "Heis27", "S3"} <= names
    q8 = next(e for e in rep["catalog"] if e["name"] == "Q8")
    assert q8["order"] == 8 and len(q8["generators"]) >= 2


def test_error_reporting_returns_code_2(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "NoSuchGroup")
    assert code == 2 or "error" in rep


def test_count_v4_enumerates_once(tmp_path, capsys, monkeypatch):
    from nilcount import cli, counting
    calls = []
    enumerate_v4 = counting.enumerate_v4

    def counted(x):
        calls.append(x)
        return enumerate_v4(x)
    monkeypatch.setattr(cli, "enumerate_v4", counted)
    monkeypatch.setattr(counting, "enumerate_v4", counted)
    out = tmp_path / "v4.csv"
    for extra in ([], ["--out", str(out)]):
        calls.clear()
        code, rep = run_cli(capsys, "count", "--kind", "v4",
                            "--max-x", "10000", *extra)
        assert code == 0 and calls == [10000]
    assert len(out.read_text().splitlines()) - 1 == rep["fields"]


def test_count_v4_out_is_held_to_the_listed_fields_limit(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setitem(LIMITS, "listed fields", 46)
    argv = ["count", "--kind", "v4", "--max-x", "10000"]
    code, rep = run_cli(capsys, *argv)  # counting alone lists nothing
    assert code == 0 and rep["fields"] == 47
    out = tmp_path / "v4.csv"
    code, rep = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and not out.exists()
    assert rep["error"] == "BudgetExceeded: listed fields 47 exceeds 46"


def test_count_v4_failed_fiber_check_writes_no_csv(tmp_path, capsys,
                                                   monkeypatch):
    from nilcount import cli
    from nilcount.counting import V4FiberReport
    monkeypatch.setattr(cli, "v4_fiber_check",
                        lambda fields: V4FiberReport(len(fields), {}, 9, 1))
    out = tmp_path / "v4.csv"
    code, rep = run_cli(capsys, "count", "--kind", "v4", "--max-x", "10000",
                        "--out", str(out))
    assert code == 1 and not out.exists()
    assert (rep["fields"], rep["bound_violations"], rep["passed"]) == (
        47, 1, False)


def test_huge_max_x_is_typed_error(capsys):
    huge = str(10 ** 320)
    for argv in (["dseries", "--specs", "3:1:4,5:2:3", "--max-x", huge],
                 ["dseries", "--specs", "3:1:4", "--max-x", huge],
                 ["count", "--kind", "cyclic3", "--max-x", huge]):
        code, rep = run_cli(capsys, *argv)
        assert code == 2 and rep["error"].startswith("BudgetExceeded"), argv
    # conductors stay small at degree 101, but x itself exceeds the floats
    code, rep = run_cli(capsys, "count", "--kind", "cyclic101", "--max-x", huge)
    assert code == 0 and 0 < rep["ratio_x_alpha"] < 1


def test_dseries_weight_past_the_float_range(tmp_path, capsys):
    # S(x) = sum_k N_k m^k; with m = 10^80 the top terms pass 2^1024
    m, x = 10 ** 80, 100000
    out = tmp_path / "big.csv"
    code = main(["dseries", "--specs", f"3:1:{m}", "--max-x", str(x),
                 "--out", str(out)])
    stdout, err = capsys.readouterr()
    rep = json.loads(stdout)
    assert code == 0 and err == "" and "slope_note" in rep
    # oracle: omega of each squarefree n <= x whose primes are 3 or 1 mod 3
    spf = list(range(x + 1))
    for p in range(2, 317):
        if spf[p] == p:
            for k in range(p * p, x + 1, p):
                spf[k] = min(spf[k], p)
    total = 0
    for n in range(1, x + 1):
        k, r = 0, n
        while r > 1 and k >= 0:
            p = spf[r]
            r //= p
            k = k + 1 if (p == 3 or p % 3 == 1) and r % p else -1
        if k >= 0:
            total += m ** k
    assert rep["final_sum"] == total
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert rows[-1] == [str(x), str(total), "", ""]
    assert rows[0][2] != ""  # 6 * 10^240 still fits a float


def test_dseries_sums_past_the_digit_limit_are_refused(tmp_path, capsys):
    # S(1000) with m = 10^2000 passes 4300 digits: refused after the sum,
    # before --out is opened, so an earlier file stays as it was
    out = tmp_path / "w.csv"
    out.write_text("earlier\n")
    m = "1" + "0" * 2000
    code, rep = run_cli(capsys, "dseries", "--specs", f"3:1:{m}",
                        "--max-x", "100000", "--out", str(out))
    assert code == 2
    assert rep["error"] == (
        "ValueError: S(1000) has more than 4300 digits, the limit on "
        "writing an integer as text, at weight m = 100000... (2001 digits); "
        "lower the weight or --max-x")
    assert out.read_text() == "earlier\n"
    fresh = tmp_path / "fresh.csv"
    code, rep = run_cli(capsys, "dseries", "--specs", f"3:1:4,5:1:{m}",
                        "--max-x", "100000", "--out", str(fresh))
    assert code == 2 and "weight m = 4, 100000... (2001 digits)" in rep["error"]
    assert not fresh.exists()
    # below the limit the sums are written in full: omega <= 4 up to 1e5,
    # so S(1e5) has about 4000 digits at m = 10^1000
    code, rep = run_cli(capsys, "dseries", "--specs", f"3:1:{10 ** 1000}",
                        "--max-x", "100000", "--out", str(fresh))
    assert code == 0 and 4000 < len(str(rep["final_sum"])) <= 4300
    assert fresh.read_text().splitlines()[-1].split(",")[1] == str(
        rep["final_sum"])


def test_dseries_spec_fields_past_the_digit_limit_are_refused(capsys):
    # int() would refuse them with Python's own advice to lift the limit
    for spec, field in ((f"3:1:1{'0' * 4400}", "m = 100000... (4401 digits)"),
                        (f"1{'0' * 4300}:1:1", "ell = 100000... (4301 digits)")):
        code, rep = run_cli(capsys, "dseries", "--specs", spec,
                            "--max-x", "1000")
        assert code == 2
        assert rep["error"] == (
            f"ValueError: {field} has more than 4300 digits, the limit on "
            f"reading an integer from text; lower {field.split()[0]}")
    code, rep = run_cli(capsys, "dseries", "--specs", f"3:1:{'9' * 4300}",
                        "--max-x", "1")  # at the limit the field is read
    assert code == 0 and rep["final_sum"] == 1


def test_dseries_huge_d_answers_without_forming_2_to_the_d(capsys):
    code, rep = run_cli(capsys, "dseries", "--specs", "3:1000000000000:1",
                        "--max-x", "1000")
    assert code == 0 and rep["final_sum"] == 1
    # checkpoints past the float range leave the slope fit out
    code, rep = run_cli(capsys, "dseries", "--specs", "3:1000000000000:1",
                        "--max-x", str(10 ** 400))
    assert code == 0 and rep["final_sum"] == 1
    assert "float range" in rep["slope_note"]


def test_large_prime_ell_answers(capsys):
    code, rep = run_cli(capsys, "count", "--kind",
                        f"cyclic{2 ** 61 - 1}", "--max-x", "1000")
    assert code == 0 and rep["counts"] == [[1000, 0]]
    # no prime p = 1 mod 2^61 - 1 lies below 10^6
    code, rep = run_cli(capsys, "dseries", "--specs", f"{2 ** 61 - 1}:1:1")
    assert code == 0 and rep["final_sum"] == 1
    ell = 999999999989 * 1000000000039
    code, rep = run_cli(capsys, "count", "--kind", f"cyclic{ell}")
    assert code == 2 and rep["error"].startswith("ValueError")


ELL_PAST_INT64 = 2 ** 64 + 13  # prime; q % ell on an int64 array overflows


def test_prime_ell_past_int64_counts(capsys):
    code, rep = run_cli(capsys, "count", "--kind", f"cyclic{ELL_PAST_INT64}",
                        "--max-x", "1000")
    assert code == 0 and rep["counts"] == [[1000, 0]]


def test_prime_ell_past_int64_lists_no_field(tmp_path, capsys):
    out = tmp_path / "none.csv"
    code, rep = run_cli(capsys, "count", "--kind", f"cyclic{ELL_PAST_INT64}",
                        "--max-x", "1000", "--out", str(out))
    assert code == 0 and rep["counts"] == [[1000, 0]]
    assert out.read_bytes() == b"group,discriminant,conductor,tuple\r\n"


@pytest.mark.parametrize("specs, final_sum", [
    (f"{ELL_PAST_INT64}:1:1", 1),
    (f"{ELL_PAST_INT64}:2:1", 1),
    (f"3:1:2,{ELL_PAST_INT64}:1:1", 431)])  # 431 is S(1000) of 3:1:2 alone
def test_prime_ell_past_int64_sums(capsys, specs, final_sum):
    code, rep = run_cli(capsys, "dseries", "--specs", specs, "--max-x", "1000")
    assert code == 0 and rep["final_sum"] == final_sum


def test_dseries_past_the_floor_count_is_typed_error(capsys):
    code = main(["dseries", "--specs", "3:1:4", "--max-x", str(10 ** 21)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"].startswith("BudgetExceeded: floor-set")


def test_count_quadratic_sieves_once(capsys, monkeypatch):
    from nilcount import counting
    from nilcount.dirichlet import default_checkpoints
    expected = [[cp, counting.count_quadratic_at([cp])[0]]
                for cp in default_checkpoints(100000)]
    calls = []
    mobius = counting._mobius

    def counted(limit):
        calls.append(limit)
        return mobius(limit)
    monkeypatch.setattr(counting, "_mobius", counted)
    code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                        "--max-x", "100000")
    assert code == 0 and calls == [316]  # one sieve, to isqrt(1e5)
    assert rep["counts"] == expected
    # over budget, a Moebius sieve above 2^27: refused before it is allocated
    calls.clear()
    for huge in (10 ** 320, ((1 << 27) + 1) ** 2):
        code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                            "--max-x", str(huge))
        assert code == 2 and rep["error"].startswith("BudgetExceeded")
    assert calls == []


def test_ignored_cap_flag_keeps_the_report(capsys):
    # the benchmark's invariants jobs still pass --exhaustive-cap
    plain = run_cli(capsys, "invariants", "--group", "Q8", "--field", "Q")
    flagged = run_cli(capsys, "invariants", "--group", "Q8", "--field", "Q",
                      "--exhaustive-cap", "128")
    assert flagged == plain and plain[0] == 0


def test_refinement_node_budget_is_typed_error(capsys, monkeypatch):
    monkeypatch.setitem(LIMITS, "search nodes", 1)
    code, rep = run_cli(capsys, "invariants", "--group", "D4_S8")
    assert code == 2 and rep["error"].startswith("BudgetExceeded")


def test_table_budget_is_typed_error_before_allocating(capsys):
    from sympy.combinatorics import Permutation, PermutationGroup

    from nilcount.permcore import parse_generators

    # C2^13 is transitive only on its own 8192 points, where its elements
    # alone take gigabytes; (C2 wr C4) wr C2 has order 2^13 on 16 points,
    # too many to close, so sympy gives its order
    group = ("(1,2);(1,3,5,7)(2,4,6,8);"
             "(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)")
    P = PermutationGroup([Permutation(list(g.images))
                          for g in parse_generators(group)])
    assert (P.order(), P.is_transitive()) == (8192, True)
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "invariants", "--group", group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and rep["error"].startswith("BudgetExceeded")
    assert peak < 32 << 20  # its table alone would hold 2^26 entries


def test_oversized_catalog_patterns_refused_before_building(capsys):
    # C4200 used to build 4200 permutations of degree 4200 (about 140 MiB)
    # before the table budget refused it; C2^13 ran out of memory
    for group in ("C4200", "x".join(["C2"] * 13)):
        tracemalloc.start()
        try:
            code, rep = run_cli(capsys, "invariants", "--group", group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and rep["error"].startswith("BudgetExceeded"), group
        assert peak < 32 << 20, group


def test_raw_symmetric_generators_refused_while_closing(capsys):
    # S_8: only 8 points, but 40320 elements; the closure used to run to
    # 20000 of them (5.4 MiB) and end in CapExceeded
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "invariants", "--group",
                            "(1,2,3,4,5,6,7,8);(1,2)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and rep["error"].startswith("BudgetExceeded")
    assert peak < 2 << 20


def test_oversized_raw_cycles_refused_before_closing(capsys):
    # transitive on 4200 points, so of order at least 4200: closing the cycle
    # used to build 4200 permutations of degree 4200 (about 135 MiB) first
    cycle = "(" + ",".join(str(i) for i in range(1, 4201)) + ")"
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "invariants", "--group", cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and rep["error"].startswith("BudgetExceeded")
    assert peak < 32 << 20
    # a large degree alone is no reason to refuse
    code, rep = run_cli(capsys, "invariants", "--group", "(4999,5000)")
    assert code == 1 and rep["transitive"] is False
    assert (rep["degree"], rep["order"]) == (5000, 2)


def test_intransitive_report_builds_no_table(capsys):
    # 12 disjoint transpositions generate C2^12 on 24 points: the report
    # needs its order and orbits, not its table of 2^24 entries (about
    # 130 MiB when built)
    spec = ";".join(f"({i},{i + 1})" for i in range(1, 24, 2))
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "invariants", "--group", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and rep["transitive"] is False and rep["order"] == 4096
    assert peak < 16 << 20


def test_invariants_hashes_permutations_only_at_the_edges(capsys, monkeypatch):
    # inside the library a subset or map of a group is table indices; a
    # permutation's hash reads its whole image tuple (1024 entries here),
    # so the report must not hash one per element per subset it forms
    from nilcount.permcore import Permutation
    calls, real = [0], Permutation.__hash__

    def counted(self):
        calls[0] += 1
        return real(self)
    monkeypatch.setattr(Permutation, "__hash__", counted)
    code, rep = run_cli(capsys, "invariants", "--group", "x".join(["C2"] * 10))
    assert code == 0 and rep["order"] == 1024 and rep["d_group"] == 1023
    assert calls[0] < 2 * 1024


def test_long_orbit_raw_cycles_refused_before_closing(capsys):
    # intransitive, but its orbit of 4200 points bounds the order from below:
    # closing it used to build 4200 permutations of degree 4202 first
    spec = "(" + ",".join(str(i) for i in range(1, 4201)) + ")(4201,4202)"
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "invariants", "--group", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and rep["error"].startswith("BudgetExceeded")
    assert peak < 32 << 20


def test_degree_one_factor_is_value_error(capsys):
    code, rep = run_cli(capsys, "invariants", "--group", "C1xC2")
    assert code == 2
    assert rep["error"] == "ValueError: natural product needs degrees > 1"


@pytest.mark.parametrize("text,error", [
    (None, "FileNotFoundError"),
    ("[1, 2]", "ValueError"),
    ('{"degree": 1}', "ValueError"),
    ('{"degree": "x", "real_places": 1}', "ValueError"),
    ('{"degree": 2, "real_places": 0, "class_rank": [1]}', "ValueError"),
    ('{"degree": 2, "real_places": 0, "class_rank": {"3": [1]}}', "ValueError"),
    ('{"degree": 2, "real_places": 0, "cyclo_generators": {"0": [1]}}',
     "ValueError"),
    ('{"degree": 2, "real_places": 0, "class_rank": {"3": 1.5}}', "ValueError"),
    ('{"degree": 2, "real_places": 0, "cyclo_generators": {"7": [2.9]}}',
     "ValueError"),
    ('{"degree": 2, "real_places": 0, "cyclo_generators": {"7": 2}}',
     "ValueError"),
])
def test_bad_field_file_is_error_report(tmp_path, capsys, text, error):
    path = tmp_path / "field.json"
    if text is not None:
        path.write_text(text)
    code, rep = run_cli(capsys, "invariants", "--group", "C7", "--field", str(path))
    assert code == 2 and rep["error"].startswith(error + ": "), rep


@pytest.mark.parametrize("argv", [
    ["dseries", "--specs", "3:1:2", "--max-x", "10000"],
    ["count", "--kind", "quadratic", "--max-x", "1000"],
])
def test_unwritable_out_path_is_error_report(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    code, rep = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and rep["error"].startswith("FileNotFoundError: "), rep


@pytest.mark.parametrize("keep", ["0", "-2"])
def test_checkpoints_below_one_is_typed_error(capsys, keep):
    code, rep = run_cli(capsys, "dseries", "--specs", "3:1:2",
                        "--max-x", "10000", "--checkpoints", keep)
    assert code == 2
    assert rep["error"] == f"ValueError: --checkpoints must be at least 1, got {keep}"


@pytest.mark.parametrize("group", ["Q8", "(4999,5000)", "NoSuchGroup"])
def test_closed_stdout_ends_quietly(group):
    # the read end is closed before the child starts, so its first write to
    # stdout fails: a report, an intransitive report and an error report
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=str(Path(nilcount.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "nilcount.cli",
                               "invariants", "--group", group],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (2, b"")
