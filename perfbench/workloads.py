"""The fixed job lists of the three benchmark workloads.

A job is one `nilcount` CLI command, given as the argv list that
`nilcount.cli.main` receives.  A flag is given
explicitly where a `NILCOUNT_*` variable could set its default, and the
worker clears those variables.  The seed is passed to `verify --seed`,
which seeds the random profiles of suites 3.1 and 3.2; the `invariants` and
`analytic` inputs are fixed.

This module imports nothing from nilcount: the worker builds the job list as
part of its set-up, and the checks use the same list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

SUITE_IDS = ["3.1", "3.2", "4.4", "4.5", "4.7", "4.8iii", "5.1", "5.2",
             "5.3", "5.7", "5.11", "5.12", "5.13"]

# The catalog's nilpotent entries (S3 is the one non-nilpotent entry).
CATALOG_NILPOTENT = {"Q8": 8, "Q16": 16, "Q32": 32, "D4_S4": 8, "D4_S8": 8,
                     "C4xC2_S8": 8, "V4_S4": 4, "Heis27": 27,
                     "Q8xC3_S24": 24, "D4xC3_S12": 24}

# Abelian patterns up to order 128, none equal to a catalog entry (V4_S4 is
# C2xC2 and C4xC2_S8 is C4xC2).  Elementary abelian ones carry the check
# d_group = ell^s - 1; C2^7 is the slowest exact refinement search.
ABELIAN_PATTERNS = [
    "C2xC2xC2", "C2xC2xC2xC2", "C2xC2xC2xC2xC2", "C2xC2xC2xC2xC2xC2",
    "C2xC2xC2xC2xC2xC2xC2", "C3xC3", "C3xC3xC3", "C3xC3xC3xC3", "C5xC5",
    "C5xC5xC5", "C7xC7", "C4xC4xC4", "C8xC8", "C9xC9", "C27xC3", "C9xC3xC3",
    "C4xC4xC2xC2", "C4xC4xC2xC2xC2", "C64", "C125", "C7", "C13",
]

# Above the default exhaustive cap of 128: today's flagged heuristic path.
ABOVE_CAP = ["C2xC2xC2xC2xC2xC2xC2xC2"]

# Generators of catalog groups in cycle notation, used as factors of the
# nonabelian natural products below.
_D4 = "(1,2,3,4);(1,3)"
_D4_REGULAR = "(1,2)(3,8)(4,7)(5,6);(1,3,5,7)(2,4,6,8)"
_Q8 = "(1,2,5,6)(3,8,7,4);(1,3,5,7)(2,4,6,8)"
_Q16 = ("(1,2,9,10)(3,16,11,8)(4,7,12,15)(5,14,13,6);"
        "(1,3,5,7,9,11,13,15)(2,4,6,8,10,12,14,16)")
_HEIS27 = ("(1,2,3)(4,5,6)(7,8,9)(10,11,12)(13,14,15)(16,17,18)(19,20,21)"
           "(22,23,24)(25,26,27);"
           "(1,4,7)(2,5,8)(3,6,9)(10,13,16)(11,14,17)(12,15,18)(19,22,25)"
           "(20,23,26)(21,24,27);"
           "(1,10,19)(2,11,20)(3,12,21)(4,14,24)(5,15,22)(6,13,23)(7,18,26)"
           "(8,16,27)(9,17,25)")
_C2, _C3, _C4 = "(1,2)", "(1,2,3)", "(1,2,3,4)"

# Nonabelian natural products (product action on the Cartesian product of
# the factors' point sets), passed to the CLI in cycle notation.
PRODUCTS = {
    "D4_S4xD4_S4xC2": (_D4, _D4, _C2),
    "Q16xC2xC2xC2": (_Q16, _C2, _C2, _C2),
    "Heis27xC3": (_HEIS27, _C3),
    "Q8xD4_S4": (_Q8, _D4),
    "Q8xQ8": (_Q8, _Q8),
    "D4_S4xC4": (_D4, _C4),
    "D4_S8xC2xC2": (_D4_REGULAR, _C2, _C2),
    "Q8xC2xC2": (_Q8, _C2, _C2),
}

CHECKPOINT_START = 1000
SWEEP_X = 10 ** 8
OVERFLOW_SPEC, OVERFLOW_X = "3:1:100000", 300_000


@dataclass(frozen=True)
class Job:
    """One CLI command.  `kind` and `params` tell the checks what the
    output must satisfy; `known_fault` marks a job that fails every time
    because of a named fault in the program."""

    id: str
    argv: list[str]
    kind: str
    params: dict = field(default_factory=dict)
    known_fault: str | None = None


def parse_cycles(text: str) -> tuple[int, list[list[int]]]:
    """Cycle notation with 1-based points and ';' between generators, as
    (degree, list of 0-based image lists)."""
    gens = [[[int(t) for t in c.split(",")]
             for c in re.findall(r"\(([^()]*)\)", part) if c.strip()]
            for part in text.split(";")]
    degree = max(p for g in gens for c in g for p in c)
    images = []
    for g in gens:
        img = list(range(degree))
        for c in g:
            for a, b in zip(c, c[1:] + c[:1]):
                img[a - 1] = b - 1
        images.append(img)
    return degree, images


def cycle_notation(images: list[int]) -> str:
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, j = [start], images[start]
        seen.add(start)
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = images[j]
        out.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) or "()"


def natural_product(*factors: str) -> str:
    """Generators of the product action of the factors on the Cartesian
    product of their point sets; point (i_1, ..., i_r) is numbered in
    mixed radix with the first factor most significant."""
    parsed = [parse_cycles(f) for f in factors]
    total = 1
    for deg, _ in parsed:
        total *= deg
    gens, stride = [], total
    for deg, images in parsed:
        stride //= deg
        for img in images:
            gens.append([i + (img[(i // stride) % deg] - (i // stride) % deg)
                         * stride for i in range(total)])
    return ";".join(cycle_notation(g) for g in gens)


def checkpoints(limit: int) -> list[int]:
    """The CLI's documented checkpoints: ratio 2 from 1000, ending at limit."""
    if limit < CHECKPOINT_START:
        return [limit]
    out, x = [], CHECKPOINT_START
    while x < limit:
        out.append(x)
        x *= 2
    return out + [limit]


def _verify(seed: int, out_dir: str) -> list[Job]:
    return [Job(f"verify:{sid}", ["verify", sid, "--seed", str(seed)],
                "verify", {"suite": sid, "seed": seed}) for sid in SUITE_IDS]


def _invariants_job(name: str, group_arg: str) -> Job:
    return Job(f"invariants:{name}",
               ["invariants", "--group", group_arg, "--field", "Q",
                "--exhaustive-cap", "128"],
               "invariants", {"name": name, "group": group_arg})


def _invariants(seed: int, out_dir: str) -> list[Job]:
    jobs = [_invariants_job(n, n) for n in CATALOG_NILPOTENT]
    jobs += [_invariants_job(n, n) for n in ABELIAN_PATTERNS + ABOVE_CAP]
    jobs += [_invariants_job(n, natural_product(*f))
             for n, f in PRODUCTS.items()]
    return jobs


def _dseries(specs: str, max_x: int, csv_path: str | None = None) -> Job:
    argv = ["dseries", "--specs", specs, "--max-x", str(max_x)]
    if csv_path:
        argv += ["--out", csv_path]
    known = None
    if specs == OVERFLOW_SPEC:
        known = ("int64 overflow in dirichlet._segments (val *= m) and the "
                 "np.cumsum of _prefix_sums_at")
    return Job(f"dseries:{specs}@{max_x}", argv, "dseries",
               {"specs": specs, "max_x": max_x, "csv": csv_path}, known)


def _count(kind: str, max_x: int) -> Job:
    return Job(f"count:{kind}@{max_x}",
               ["count", "--kind", kind, "--max-x", str(max_x)],
               "count", {"kind": kind, "max_x": max_x})


def _analytic(seed: int, out_dir: str) -> list[Job]:
    return [
        _dseries("3:1:4", SWEEP_X, f"{out_dir}/analytic-s{seed}-series.csv"),
        _dseries("3:1:2,5:2:3", SWEEP_X),
        _count("quadratic", 10 ** 8),
        _count("cyclic3", 10 ** 10),
        _count("v4", 10 ** 6),
        _dseries(OVERFLOW_SPEC, OVERFLOW_X),
    ]


def _selftest(seed: int, out_dir: str) -> list[Job]:
    """Tiny inputs for perfbench/selftest.py; not a benchmark workload."""
    return [
        _invariants_job("Q8", "Q8"),
        _invariants_job("C2xC2xC2", "C2xC2xC2"),
        _invariants_job("D4_S4xC4", natural_product(*PRODUCTS["D4_S4xC4"])),
        Job("verify:5.1", ["verify", "5.1", "--seed", str(seed)], "verify",
            {"suite": "5.1", "seed": seed}),
        _dseries("3:1:4", 10 ** 5, f"{out_dir}/selftest-s{seed}-series.csv"),
        _dseries(OVERFLOW_SPEC, OVERFLOW_X),
    ]


WORKLOADS = {"verify": _verify, "invariants": _invariants,
             "analytic": _analytic}
ALL = dict(WORKLOADS, selftest=_selftest)


def build_jobs(workload: str, seed: int, out_dir: str) -> list[Job]:
    """The workload's jobs, always in the same order: the live heap a job
    starts with, and so its garbage-collection cost, depends on the jobs
    before it, and a seeded order measurably widened the spread of
    `max_job_s`."""
    return ALL[workload](seed, out_dir)
