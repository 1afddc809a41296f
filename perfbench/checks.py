"""Checks of every job's output against references computed apart from the
program (references.json, sympy.combinatorics) or against properties the
method must have.  They run in run.py after the workload process has ended,
outside every timed interval.

`check_job` returns None when the output is right, else the reason.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction

from sympy.combinatorics import Permutation, PermutationGroup

from workloads import CATALOG_NILPOTENT, Job, checkpoints, parse_cycles

# The groups the verify suites draw on: the catalog's nilpotent list, the
# abelian spread the suites add to it, and S3.
VERIFY_GROUPS = ["Q8", "Q16", "Q32", "D4_S4", "D4_S8", "C4xC2_S8", "V4_S4",
                 "Heis27", "Q8xC3_S24", "D4xC3_S12", "C2", "C3", "C4", "C5",
                 "C6", "C8", "C9", "C12", "C27", "C2xC2xC2", "C3xC3",
                 "C9xC3", "C4xC4", "S3"]


def sympy_group(degree: int, images: list[list[int]]) -> PermutationGroup:
    return PermutationGroup([Permutation(img, size=degree) for img in images])


def _abelian_invariants(pattern: str) -> list[int]:
    """Prime-power invariants of C_n1 x C_n2 x ..., sorted as sympy sorts."""
    out = []
    for n in (int(t) for t in pattern[1:].split("xC")):
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


def _elementary(pattern: str) -> tuple[int, int] | None:
    """(ell, s) when the pattern is C_ell^s with ell prime."""
    if not re.fullmatch(r"C\d+(xC\d+)*", pattern):
        return None
    orders = {int(t) for t in pattern[1:].split("xC")}
    if len(orders) != 1:
        return None
    ell = orders.pop()
    if ell < 2 or any(ell % q == 0 for q in range(2, ell)):
        return None
    return ell, pattern.count("C")


def _cycle_count(images: list[int]) -> int:
    """Number of cycles, fixed points included."""
    seen, count = bytearray(len(images)), 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = 1
                j = images[j]
    return count


def check_verify(job: Job, report: dict) -> str | None:
    sid, seed = job.params["suite"], job.params["seed"]
    results = report.get("results", [])
    if report.get("seed") != seed:
        return f"seed {report.get('seed')} != {seed}"
    if [r.get("suite") for r in results] != [sid]:
        return f"suites {[r.get('suite') for r in results]} != [{sid}]"
    if not (report.get("passed") is True and results[0]["passed"] is True):
        return f"suite {sid} did not pass: {results[0].get('details')}"
    return None


def check_invariants(job: Job, report: dict) -> str | None:
    from nilcount.catalog import get_group
    from nilcount.permcore import center

    arg = job.params["group"]
    if "(" in arg:   # the job's own input, not the program's echo of it
        degree, images = parse_cycles(arg)
    else:
        degree, images = parse_cycles(";".join(report["generators"]))
        degree = report["degree"]
    P = sympy_group(degree, images)
    order = P.order()
    elements = list(P.generate_schreier_sims(af=True))
    if report["order"] != order:
        return f"order {report['order']} != sympy {order}"
    if order != CATALOG_NILPOTENT.get(arg, order):
        return f"{arg} has order {order}, not {CATALOG_NILPOTENT[arg]}"
    if re.fullmatch(r"C\d+(xC\d+)*", arg):
        if P.abelian_invariants() != _abelian_invariants(arg):
            return f"{arg} built as {P.abelian_invariants()}"
    _, G = get_group(arg)
    z = order if P.is_abelian else P.center().order()
    if len(center(G)) != z:
        return f"center {len(center(G))} != sympy {z}"
    if report["nilpotent"] != P.is_nilpotent:
        return f"nilpotent {report['nilpotent']} != sympy {P.is_nilpotent}"
    identity = list(range(degree))
    indices = [degree - _cycle_count(af) for af in elements if af != identity]
    ind = min(indices)
    if report["ind"] != ind or Fraction(report["a"]) != Fraction(1, ind):
        return f"ind/a {report['ind']}/{report['a']} != {ind}/1/{ind}"
    if not report["nilpotent"]:
        return None
    n_min, d = indices.count(ind), report["d_group"]
    if not n_min <= d <= order - 1:
        return f"not #min-index {n_min} <= d_group {d} <= |G|-1"
    d_field, b = Fraction(report["d_field"]), report["b"]
    el = _elementary(arg)
    if el and (d != el[0] ** el[1] - 1 or d_field != b):
        return f"C_{el[0]}^{el[1]}: d_group {d}, d_field {d_field}, b {b}"
    if (d_field == b) != report["min_index_central"]:
        return (f"d_field = b is {d_field == b}, min_index_central is "
                f"{report['min_index_central']}")
    return None


def check_dseries(job: Job, report: dict, refs: dict) -> str | None:
    specs, max_x = job.params["specs"], job.params["max_x"]
    final = report["final_sum"]
    if specs == "3:1:4":
        with open(job.params["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0][:2] != ["x", "S"]:
            return f"CSV header {rows[0]}"
        xs = [int(r[0]) for r in rows[1:]]
        S = [int(r[1]) for r in rows[1:]]
        if xs != checkpoints(max_x):
            return f"CSV checkpoints {xs}"
        if any(b < a for a, b in zip(S, S[1:])):
            return "S column decreases"
        if final != S[-1]:
            return f"final_sum {final} != CSV {S[-1]}"
        for x, s in zip(xs, S):
            found = [ref[str(x)] for ref in (refs["dseries 3:1:4 brute force"],
                                             refs["dseries 3:1:4 sieve"])
                     if str(x) in ref]
            if not found:
                return f"no reference for S({x})"
            if any(r != s for r in found):
                return f"S({x}) = {s}, reference {found}"
        return None
    ref = refs.get(f"dseries {specs} final")
    if ref is None:
        return f"no reference for {specs}"
    if final != ref:
        return f"final_sum {final}, reference {ref}"
    return None


def check_count(job: Job, report: dict, refs: dict) -> str | None:
    kind = job.params["kind"]
    if kind == "v4":
        if report["fields"] != refs["count v4 fields"]:
            return f"fields {report['fields']}, reference " \
                   f"{refs['count v4 fields']}"
        if report["bound_violations"] or report["valuation_failures"] \
                or report["passed"] is not True:
            return "V4 fiber report shows violations or failures"
        return None
    ref = refs[f"count {kind}"]
    want = [[int(x), c] for x, c in ref.items()]
    if report["counts"] != want:
        got = dict(map(tuple, report["counts"]))
        bad = [x for x, c in want if got.get(x) != c]
        return f"counts differ at {bad[:3] or 'the checkpoint list'}"
    if kind == "quadratic":
        density = 6 / math.pi ** 2
        if abs(report["density_x"] - density) > 0.01 * density:
            return f"density_x {report['density_x']} not within 1% of 6/pi^2"
    return None


def check_job(job: Job, record: dict, refs: dict) -> str | None:
    if record["id"] != job.id:
        return f"record {record['id']} in place of {job.id}"
    if record["error"]:
        return record["error"]
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    try:
        report = json.loads(record["stdout"])
    except ValueError:
        return "stdout is not one JSON report"
    try:
        if job.kind == "verify":
            return check_verify(job, report)
        if job.kind == "invariants":
            return check_invariants(job, report)
        if job.kind == "dseries":
            return check_dseries(job, report, refs)
        return check_count(job, report, refs)
    except (KeyError, TypeError, ValueError, OSError) as e:
        return f"malformed output: {type(e).__name__}: {e}"


def check_catalog_groups(names=VERIFY_GROUPS) -> list[str]:
    """Order, center size, class count and nilpotency of each group against
    sympy; returns the disagreements."""
    from nilcount.catalog import get_group
    from nilcount.nilpotent import is_nilpotent
    from nilcount.permcore import center, conjugacy_classes

    problems = []
    for name in names:
        _, G = get_group(name)
        P = sympy_group(G.degree, [list(g.images) for g in G.generators])
        ours = (G.order, len(center(G)), len(conjugacy_classes(G)),
                is_nilpotent(G))
        theirs = (P.order(), P.center().order(), len(P.conjugacy_classes()),
                  P.is_nilpotent)
        if ours != theirs:
            problems.append(f"{name}: (order, center, classes, nilpotent) "
                            f"{ours} != sympy {theirs}")
    return problems
