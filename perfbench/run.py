"""The nilcount benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each round of a workload runs in a fresh single-threaded process
(worker.py), so nothing cached in one round reaches the next.  With
`--trace 0` the command runs whole rounds until `--seconds` have passed
(at least one) and reports the end-to-end metrics; set-up is measured in
separate processes too and reported as a median.  With `--trace 1` it runs
exactly one untraced and one traced round, so that counts repeat exactly,
and reports the per-layer metrics with the tracing overhead.

Every job's output is checked after its process has ended (checks.py).  A
job whose check fails counts as failed; `correct` turns false when a job
fails that is not a known fault of the program.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import layer_metric_names  # noqa: E402
from workloads import ALL, SUITE_IDS, build_jobs  # noqa: E402

OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170   # a run must end within 180 s
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("max_job_s", "s"),
              ("peak_rss_mb", "MiB")]


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NILCOUNT_")}
    # one thread for every numeric library; a fixed hash seed, so that set
    # iteration order, and with it every count, repeats across processes
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before the next round")
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(spawned), OUT_DIR, mode],
            env=worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} process did not end in {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    per_job: dict[str, list[float]] = {}
    for r in rounds:
        for rec in r["jobs"]:
            per_job.setdefault(rec["id"], []).append(rec["seconds"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "max_job_s": max(statistics.median(v) for v in per_job.values()),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(base: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in layer_metric_names(SUITE_IDS)}


def check_round(workload: str, seed: int, rnd: dict, refs: dict) -> list[dict]:
    """One entry per job of the round: its id, why it failed (None when it
    passed) and the known fault it is kept for."""
    jobs = build_jobs(workload, seed, OUT_DIR)
    if [rec["id"] for rec in rnd["jobs"]] != [job.id for job in jobs]:
        raise WorkerFailed("a round did not run its job list")
    return [{"job": job.id, "why": checks.check_job(job, rec, refs),
             "known_fault": job.known_fault}
            for job, rec in zip(jobs, rnd["jobs"])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nilcount benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(ALL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src", "nilcount", "__init__.py").is_file():
        print("run from the root of a nilcount checkout: src/nilcount is "
              "missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, str(Path("src").resolve()))  # the checks call nilcount
    refs = json.loads((HERE / "references.json").read_text())
    deadline = time.monotonic() + RUN_BUDGET_S
    w, seed = args.workload, args.seed
    rounds, outcomes, setups = [], [], []

    def run_round(mode: str) -> dict:
        rnd = spawn(w, seed, mode, deadline)
        outcomes.extend(check_round(w, seed, rnd, refs))  # CSV of this round
        rounds.append(rnd)
        return rnd

    try:
        if args.trace:
            metrics = per_layer(run_round("round"), run_round("trace"))
        else:
            spawn(w, seed, "setup", deadline)   # warm-up: bytecode caches
            setups += [spawn(w, seed, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES)]
            while sum(r["wall_s"] for r in rounds) < args.seconds:
                run_round("round")
            setups += [r["setup_s"] for r in rounds]
            metrics = end_to_end(rounds, setups)
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    failures = [o for o in outcomes if o["why"]]
    if w in ("verify", "selftest"):
        failures += [{"job": None, "why": why, "known_fault": None}
                     for why in checks.check_catalog_groups()]
    correct = all(f["known_fault"] for f in failures)
    attempted, failed = len(outcomes), sum(1 for f in failures if f["job"])
    for f in failures:
        print(f"FAILED {f['job']}: {f['why']}"
              + (f" (known fault: {f['known_fault']})"
                 if f["known_fault"] else ""), file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(f"{OUT_DIR}/result-{w}-s{seed}-t{args.trace}.json", "w") as fh:
        json.dump(dict(result, rounds=len(rounds), failures=failures,
                       setup_samples=setups,
                       job_seconds=[{rec["id"]: rec["seconds"]
                                     for rec in r["jobs"]} for r in rounds]),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
