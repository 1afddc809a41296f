"""One workload round in a fresh, single-threaded process.

Started by run.py as `python3 perfbench/worker.py <workload> <seed>
<spawned_ns> <out_dir> <mode>`, with mode `setup` (set up, report, exit),
`round` (run every job once) or `trace` (the same, with layer tracing).
Prints one JSON line on its standard output.

The program is driven only through `nilcount.cli.main(argv)`, in-process,
with each job's stdout captured.  Every `NILCOUNT_*` variable is cleared
first, so that no shell setting changes a job.  `setup_s` runs from the
parent's clock reading just before the process was spawned to the moment
the job list is built; CLOCK_MONOTONIC is shared by all processes.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the address space made at exec.  ru_maxrss does not
    serve: exec carries the parent's peak over into it, so a parent that
    has imported sympy would raise every round's figure."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    workload, seed, spawned_ns, out_dir, mode = sys.argv[1:6]
    seed = int(seed)
    root = Path.cwd().resolve()
    for key in [k for k in os.environ if k.startswith("NILCOUNT_")]:
        del os.environ[key]
    sys.path.insert(0, str(root / "src"))

    import nilcount
    import nilcount.cli  # imports numpy and every nilcount module
    import workloads

    if not Path(nilcount.__file__).resolve().is_relative_to(root / "src"):
        print(f"nilcount imported from {nilcount.__file__}, not from "
              f"{root / 'src'}", file=sys.stderr)
        return 1
    jobs = workloads.build_jobs(workload, seed, out_dir)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC)
               - int(spawned_ns)) / 1e9
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    cli = sys.modules["nilcount.cli"]  # after install: the wrapped main

    records = []
    t_round = time.perf_counter_ns()
    for job in jobs:
        if tracer:
            tracer.job = job.id
        buf = io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter_ns()
        try:
            with redirect_stdout(buf):
                rc = cli.main(list(job.argv))
        except SystemExit as e:  # argparse rejects its input this way
            rc = e.code
        except Exception as e:  # a traceback: the job failed
            error = f"{type(e).__name__}: {e}"
        seconds = (time.perf_counter_ns() - t0) / 1e9
        records.append({"id": job.id, "rc": rc, "error": error,
                        "seconds": seconds, "stdout": buf.getvalue()})
    wall_s = (time.perf_counter_ns() - t_round) / 1e9

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb(), "jobs": records}
    if tracer:
        sweep = next((j.id for j in jobs if j.id.startswith("dseries:")
                      and j.params["max_x"] == workloads.SWEEP_X
                      and "," not in j.params["specs"]), None)
        metrics = tracer.metrics(workloads.SUITE_IDS, sweep,
                                 workloads.SWEEP_X)
        tracer.dump(f"{out_dir}/trace-{workload}-s{seed}.json", metrics)
        result["layers"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
