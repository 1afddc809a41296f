import json

from nilcount.cli import main


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


def test_count_cyclic3_with_csv(tmp_path, capsys):
    out = tmp_path / "c3.csv"
    code, rep = run_cli(capsys, "count", "--kind", "cyclic3",
                        "--max-x", "10000", "--out", str(out))
    assert code == 0
    assert rep["counts"][-1] == [10000, 16]
    rows = out.read_text().splitlines()
    assert rows[0] == "group,discriminant,conductor,tuple"
    assert len(rows) - 1 == 16


def test_count_v4(capsys):
    code, rep = run_cli(capsys, "count", "--kind", "v4", "--max-x", "10000")
    assert code == 0
    assert rep["passed"] and rep["fields"] > 0


def test_count_unknown_kind(capsys):
    code, rep = run_cli(capsys, "count", "--kind", "septic", "--max-x", "10")
    assert code == 2


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


def test_bad_environment_default_is_error_report(capsys, monkeypatch):
    monkeypatch.setenv("NILCOUNT_MAX_X", "1e6")
    code, rep = run_cli(capsys, "dseries", "--specs", "3:1:4")
    assert code == 2
    assert "NILCOUNT_MAX_X" in rep["error"]


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


def test_count_quadratic_sieves_once(capsys, monkeypatch):
    from nilcount import counting
    from nilcount.dirichlet import default_checkpoints
    expected = [[cp, counting.count_quadratic(cp)]
                for cp in default_checkpoints(100000)]
    calls = []
    squarefree_sieve = counting.squarefree_sieve

    def counted(limit):
        calls.append(limit)
        return squarefree_sieve(limit)
    monkeypatch.setattr(counting, "squarefree_sieve", counted)
    code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                        "--max-x", "100000")
    assert code == 0 and calls == [100000]
    assert rep["counts"] == expected
    # over budget: the one sieve call fails before any checkpoint is sieved
    calls.clear()
    huge = 10 ** 320
    code, rep = run_cli(capsys, "count", "--kind", "quadratic",
                        "--max-x", str(huge))
    assert code == 2 and rep["error"].startswith("BudgetExceeded")
    assert calls == [huge]
