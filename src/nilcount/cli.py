"""Batch front end: invariant reports, verification suites, series and
field-count runs.  Reports are JSON on stdout (CSV sidecars via --out);
the exit code is 0 only when everything requested passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import __version__
from .catalog import CATALOG, get_group, resolve
from .counting import (count_cyclic_ell_at, count_quadratic_at,
                       enumerate_cyclic_ell, enumerate_quadratic,
                       enumerate_v4, v4_fiber_check)
from .dirichlet import (FactorSpec, default_checkpoints, multi_factor_sum,
                        series_csv_rows, slope_estimate)
from .errors import NilcountError, require
from .malle import BaseFieldData, b_constant, min_index
from .nilpotent import is_nilpotent, sylow_decompose
from .permcore import cycle_string
from .series import all_min_index_central, optimize_d, refinement_to_json
from .suites import SUITES, get_suite

SCHEMA = "nilcount-report-1"


def _field_data(arg: str) -> BaseFieldData:
    if arg == "Q":
        return BaseFieldData.rationals()
    return BaseFieldData.from_json(Path(arg).read_text())


def _bound_string(a: Fraction, log_exp: Fraction) -> str:
    x_part = "x" if a == 1 else f"x^{{{a}}}"
    if log_exp == 0:
        return f"O({x_part})"
    if log_exp == 1:
        return f"O({x_part} log(x))"
    return f"O({x_part} log(x)^{{{log_exp}}})"


def _write_csv(path: str, header: list[str], rows: Iterable[tuple]) -> None:
    """Write a CSV sidecar, every row formatted before the file is opened,
    so that a row that cannot be written leaves no partial file."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _require_printable(specs: list[FactorSpec], checkpoints, values) -> None:
    """Refuse partial sums longer than Python's limit on writing an integer
    as decimal text (4300 digits by default), which nilcount does not lift."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # the limit is off
        return
    bound = 10 ** limit
    for x, v in zip(checkpoints, values):
        if abs(v) >= bound:
            weights = ", ".join(t if len(t) <= 12
                                else f"{t[:6]}... ({len(t)} digits)"
                                for t in (str(s.m) for s in specs))
            raise ValueError(
                f"S({x}) has more than {limit} digits, the limit on writing "
                f"an integer as text, at weight m = {weights}; lower the "
                "weight or --max-x")


def cmd_invariants(args) -> int:
    name, G = get_group(args.group)
    k = _field_data(args.field)
    report: dict = {
        "schema": SCHEMA,
        "group": name,
        "generators": [cycle_string(g) for g in G.generators],
        "degree": G.degree,
        "order": G.order,
        "transitive": G.is_transitive,
    }
    if not G.is_transitive:
        report["error"] = "NotTransitive: counting invariants need transitivity"
        print(json.dumps(report, indent=2))
        return 1
    ind_G, a = min_index(G)
    b = b_constant(G, k)
    report.update({"ind": ind_G, "a": str(a), "b": b})
    report["nilpotent"] = is_nilpotent(G)
    if report["nilpotent"]:
        dec = sylow_decompose(G)
        report["critical_prime"] = dec.critical_prime
        report["min_index_central"] = all_min_index_central(G)
        opt = optimize_d(G, k)
        report["optimal_refinement"] = refinement_to_json(opt.refinement, k)
        report["d_group"] = opt.d_group
        report["d_field"] = str(opt.d_field)
        report["heuristic_only"] = opt.heuristic_only
        report["bound"] = _bound_string(a, opt.d_field - 1)
        report["conjectured_bound"] = _bound_string(a, Fraction(b - 1))
        if opt.d_field - 1 != b - 1:
            report["note"] = ("proved log exponent exceeds the conjectured "
                              "one for this group")
    else:
        report["note"] = "d-invariants omitted: group is not nilpotent"
    entry = resolve(name)
    if entry and entry.expected:
        report["expected"] = entry.expected
    print(json.dumps(report, indent=2))
    return 0


def cmd_verify(args) -> int:
    ids = sorted(SUITES) if args.ids == ["all"] else args.ids
    suites = [get_suite(sid) for sid in ids]  # every id, before any suite runs
    results = [suite(seed=args.seed) for suite in suites]
    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "results": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def cmd_dseries(args) -> int:
    specs = [FactorSpec.parse(s) for s in args.specs.split(",")]
    checkpoints = default_checkpoints(args.max_x)
    if args.checkpoints is not None:
        if args.checkpoints < 1:
            raise ValueError("--checkpoints must be at least 1, "
                             f"got {args.checkpoints}")
        checkpoints = checkpoints[-args.checkpoints:]
    series = multi_factor_sum(specs, args.max_x, checkpoints=checkpoints)
    _require_printable(specs, series.checkpoints, series.values)
    summary = {
        "schema": SCHEMA,
        "specs": [f"{s.ell}:{s.d}:{s.m}" for s in specs],
        "max_x": args.max_x,
        "alpha_pred": str(series.alpha_pred),
        "beta_pred": str(series.beta_pred),
        "final_sum": series.values[-1],
        "checkpoints": len(series.checkpoints),
    }
    try:
        rep = slope_estimate(series)
        summary.update({
            "alpha_hat": rep.alpha_hat,
            "beta_hat": rep.beta_hat,
            "fitted_constant": rep.fitted_constant,  # empirical, not asserted
            "residual_std": rep.residual_std,
        })
    except NilcountError as e:
        summary["slope_note"] = str(e)
    report = json.dumps(summary, indent=2)
    if args.out:
        _write_csv(args.out, ["x", "S", "S_over_x_alpha", "running_beta"],
                   series_csv_rows(series))
    print(report)
    return 0


def cmd_count(args) -> int:
    x = args.max_x
    if x < 1:
        raise ValueError(f"--max-x must be at least 1, got {x}")
    checkpoints = default_checkpoints(x)
    kind = args.kind
    summary: dict = {"schema": SCHEMA, "kind": kind, "max_x": x}
    if kind == "quadratic":
        counts = list(zip(checkpoints, count_quadratic_at(checkpoints)))
        summary["counts"] = counts
        summary["density_x"] = counts[-1][1] / x
        group, listed = "C2", counts[-1][1]
        listing = lambda: enumerate_quadratic(x)
    elif kind.startswith("cyclic"):
        ell = int(kind[len("cyclic"):])
        counts = list(zip(checkpoints, count_cyclic_ell_at(ell, checkpoints)))
        summary["counts"] = counts
        try:
            scale = x ** (1.0 / (ell - 1))
        except OverflowError:  # x beyond the float range
            scale = math.exp(math.log(x) / (ell - 1))
        summary["ratio_x_alpha"] = counts[-1][1] / scale
        group, listed = f"C{ell}", counts[-1][1]
        listing = lambda: enumerate_cyclic_ell(ell, x)
    elif kind == "v4":
        fields = enumerate_v4(x)
        rep = v4_fiber_check(fields)
        summary.update({
            "fields": rep.field_count,
            "max_fiber": rep.max_fiber,
            "bound_violations": rep.bound_violations,
            "valuation_failures": rep.valuation_failures,
            "passed": rep.passed,
        })
        if not rep.passed:
            print(json.dumps(summary, indent=2))
            return 1
        group, listed = "C2xC2", len(fields)
        listing = lambda: ((disc, "|".join(map(str, triple)),
                            "|".join(map(str, tup)))
                           for disc, triple, tup in fields)
    else:
        raise ValueError(f"unknown count kind {kind!r}")
    if args.out:
        require("listed fields", listed)
        _write_csv(args.out, ["group", "discriminant", "conductor", "tuple"],
                   ((group, *row) for row in listing()))
    print(json.dumps(summary, indent=2))
    return 0


def cmd_catalog(args) -> int:
    entries = []
    for name, entry in sorted(CATALOG.items()):
        G = entry.group()
        entries.append({
            "name": name,
            "degree": G.degree,
            "order": G.order,
            "generators": [cycle_string(g) for g in G.generators],
            "description": entry.description,
            "expected": entry.expected,
        })
    print(json.dumps({"schema": SCHEMA, "catalog": entries}, indent=2))
    return 0


class _Parser(argparse.ArgumentParser):
    """Input errors take `main`'s one JSON error path; subparsers inherit it."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache  # built once per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilcount",
        description="Counting constants for nilpotent Galois groups, with "
                    "verification suites and desk-scale counting checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="group invariant report")
    p_inv.add_argument("--group", required=True,
                       help="catalog name, CnxCm pattern, or cycle notation "
                            "like '(1,2,3,4);(1,3)'")
    p_inv.add_argument("--field", default="Q",
                       help="'Q' or a path to base-field JSON")
    # accepted and ignored: optimize_d is exact at every order
    p_inv.add_argument("--exhaustive-cap", type=int, help=argparse.SUPPRESS)
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="run falsifier suites")
    p_ver.add_argument("ids", nargs="+",
                       help="suite ids (e.g. 4.7 5.12) or 'all'")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.set_defaults(func=cmd_verify)

    p_ds = sub.add_parser("dseries", help="restricted Euler product sums")
    p_ds.add_argument("--specs", required=True,
                      help="comma-separated ell:d:m factors, e.g. '3:1:4'")
    p_ds.add_argument("--max-x", type=int, default=10 ** 6)
    p_ds.add_argument("--checkpoints", type=int, default=None,
                      help="keep only the last N geometric checkpoints")
    p_ds.add_argument("--out", help="CSV output path")
    p_ds.set_defaults(func=cmd_dseries)

    p_ct = sub.add_parser("count", help="field counting runs")
    p_ct.add_argument("--kind", required=True,
                      help="quadratic | cyclic3 | cyclic5 | ... | v4")
    p_ct.add_argument("--max-x", type=int, default=10 ** 6)
    p_ct.add_argument("--out", help="CSV output path")
    p_ct.set_defaults(func=cmd_count)

    p_cat = sub.add_parser("catalog", help="list the named group catalog")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (NilcountError, ValueError, OSError) as e:
            print(json.dumps({"schema": SCHEMA,
                              "error": f"{type(e).__name__}: {e}"}))
            code = 2
        sys.stdout.flush()  # a reader that left early fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout is closed: nothing can be reported, and the flush at exit
        # must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
