"""Fast self-test of the benchmark on tiny inputs (about 10 s).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
  * the printed metric names and units match BENCHMARK.json, in both modes;
  * the known-fault job is counted as failed while `correct` stays true;
  * an output off by one (an invariant, a partial sum, a CSV value, a suite
    verdict) makes its job fail its check;
  * two traced runs give identical count metrics;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import build_jobs  # noqa: E402

SEED = 5


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def bench(trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd).resolve() / "perfbench" / "run.py"),
         "--workload", "selftest", "--seed", str(SEED), "--seconds", "0.01",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    expect(proc.returncode == 0, "run exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metrics_and_known_fault(spec: dict) -> list[dict]:
    traced = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result_of(bench(trace))
        expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
               f"result keys with --trace {trace}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        expect(got == want, f"metric names and units match {key}")
        expect(all(isinstance(m["value"], (int, float))
                   for m in res["metrics"].values()), "metric values are numbers")
        rounds = res["attempted"] // 6
        expect(res["failed"] == rounds and res["correct"] is True,
               f"overflow job failed once per round, correct stays true "
               f"(--trace {trace}: {res['failed']} of {res['attempted']})")
        if trace:
            traced.append(res)
    traced.append(result_of(bench(1)))
    return traced


def test_counts_repeat(traced: list[dict], spec: dict) -> None:
    counts = [n for n, m in ((m["name"], m) for m in spec["per_layer"])
              if m["unit"] == "count"]
    a, b = ([r["metrics"][n]["value"] for n in counts] for r in traced)
    expect(a == b, f"{len(counts)} count metrics repeat across traced runs")
    expect(traced[0]["metrics"]["permcore.mul_calls"]["value"] > 0,
           "permcore.mul_calls is counted")


def test_wrong_values_fail() -> None:
    refs = json.loads((HERE / "references.json").read_text())
    jobs = {j.id: j for j in build_jobs("selftest", SEED, run.OUT_DIR)}
    rnd = run.spawn("selftest", SEED, "round", deadline=time.monotonic() + 170)
    records = {r["id"]: r for r in rnd["jobs"]}

    def failing(job_id: str, edit) -> bool:
        rec = dict(records[job_id])
        report = json.loads(rec["stdout"])
        edit(report)
        rec["stdout"] = json.dumps(report)
        return checks.check_job(jobs[job_id], rec, refs) is not None

    for job_id, rec in records.items():
        if jobs[job_id].known_fault is None:
            expect(checks.check_job(jobs[job_id], rec, refs) is None,
                   f"{job_id} passes as printed")
    expect(failing("invariants:Q8", lambda r: r.update(ind=r["ind"] + 1)),
           "ind off by one fails")
    expect(failing("invariants:C2xC2xC2",
                   lambda r: r.update(d_group=r["d_group"] - 1)),
           "d_group off by one fails")
    expect(failing("verify:5.1", lambda r: r["results"][0].update(
        passed=False)), "a failed suite fails")
    sweep = "dseries:3:1:4@100000"
    expect(failing(sweep, lambda r: r.update(final_sum=r["final_sum"] + 1)),
           "final_sum off by one fails")
    csv_path = Path(jobs[sweep].params["csv"])
    rows = csv_path.read_text().splitlines()
    x, s, *rest = rows[3].split(",")
    rows[3] = ",".join([x, str(int(s) + 1)] + rest)
    csv_path.write_text("\n".join(rows) + "\n")
    expect(checks.check_job(jobs[sweep], records[sweep], refs) is not None,
           "a CSV partial sum off by one fails")


def test_bare_directory() -> None:
    bare = Path(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = bench(0, cwd=str(bare))
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program: non-zero exit and no result")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    traced = test_metrics_and_known_fault(spec)
    test_counts_repeat(traced, spec)
    test_wrong_values_fail()
    test_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
