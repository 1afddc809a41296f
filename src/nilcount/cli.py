"""Batch front end: invariant reports, verification suites, series and
field-count runs.  Reports are JSON on stdout (CSV sidecars via --out);
the exit code is 0 only when everything requested passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .catalog import CATALOG, get_group, resolve
from .counting import (count_quadratic_at, enumerate_cyclic_ell,
                       enumerate_quadratic, enumerate_v4, v4_fiber_check)
from .dirichlet import (FactorSpec, default_checkpoints, multi_factor_sum,
                        series_csv_rows, slope_estimate)
from .errors import NilcountError, UnknownTheorem
from .malle import BaseFieldData, b_constant, min_index
from .nilpotent import is_nilpotent, sylow_decompose
from .permcore import cycle_string
from .series import all_min_index_central, optimize_d, refinement_to_json
from .suites import SUITES, run_suite

SCHEMA = "nilcount-report-1"


def _env_default(name: str, fallback):
    raw = os.environ.get(f"NILCOUNT_{name}")
    if raw is None or fallback is None:
        return fallback if raw is None else raw
    try:
        return type(fallback)(raw)
    except ValueError:
        raise ValueError(f"NILCOUNT_{name}={raw!r} is not a valid "
                         f"{type(fallback).__name__}") from None


def _field_data(arg: str) -> BaseFieldData:
    if arg == "Q":
        return BaseFieldData.rationals()
    return BaseFieldData.from_json(Path(arg).read_text())


def _frac(x: Fraction) -> str:
    return str(x)


def _bound_string(a: Fraction, log_exp: Fraction) -> str:
    x_part = "x" if a == 1 else f"x^{{{a}}}"
    if log_exp == 0:
        return f"O({x_part})"
    if log_exp == 1:
        return f"O({x_part} log(x))"
    return f"O({x_part} log(x)^{{{log_exp}}})"


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
    report.update({"ind": ind_G, "a": _frac(a), "b": b})
    report["nilpotent"] = is_nilpotent(G)
    if report["nilpotent"]:
        dec = sylow_decompose(G)
        report["critical_prime"] = dec.critical_prime
        report["min_index_central"] = all_min_index_central(G)
        opt = optimize_d(G, k, exhaustive_cap=args.exhaustive_cap)
        report["optimal_refinement"] = refinement_to_json(opt.refinement, k)
        report["d_group"] = opt.d_group
        report["d_field"] = _frac(opt.d_field)
        report["heuristic_only"] = opt.heuristic_only
        report["bound"] = _bound_string(a, opt.d_field - 1)
        report["conjectured_bound"] = _bound_string(a, Fraction(b - 1))
        if opt.d_field - 1 != b - 1:
            report["note"] = ("proved log exponent exceeds the conjectured "
                              "one for this group")
    else:
        report["note"] = "d-invariants omitted: group is not nilpotent"
    expected = resolve(name).expected if resolve(name) else {}
    if expected:
        report["expected"] = expected
    print(json.dumps(report, indent=2))
    return 0


def cmd_verify(args) -> int:
    ids = sorted(SUITES) if args.ids == ["all"] else args.ids
    results = []
    for sid in ids:
        try:
            results.append(run_suite(sid, seed=args.seed))
        except UnknownTheorem as e:
            print(json.dumps({"schema": SCHEMA, "error": str(e)}))
            return 2
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
        checkpoints = checkpoints[-args.checkpoints:]
    series = multi_factor_sum(specs, args.max_x, checkpoints=checkpoints)
    rows = series_csv_rows(series)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "S", "S_over_x_alpha", "running_beta"])
            w.writerows(rows)
    summary = {
        "schema": SCHEMA,
        "specs": [f"{s.ell}:{s.d}:{s.m}" for s in specs],
        "max_x": args.max_x,
        "alpha_pred": _frac(series.alpha_pred),
        "beta_pred": _frac(series.beta_pred),
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
    print(json.dumps(summary, indent=2))
    return 0


def cmd_count(args) -> int:
    x = args.max_x
    if x < 1:
        raise ValueError(f"--max-x must be at least 1, got {x}")
    checkpoints = default_checkpoints(x)
    kind = args.kind
    rows: list[tuple] = []
    summary: dict = {"schema": SCHEMA, "kind": kind, "max_x": x}
    if kind == "quadratic":
        counts = list(zip(checkpoints, count_quadratic_at(checkpoints)))
        summary["counts"] = counts
        summary["density_x"] = counts[-1][1] / x
        if args.out:
            # record list capped at 1e5; the summary counts go to max-x
            rows = [("C2", rec.discriminant, rec.discriminant,
                     "|".join(map(str, rec.ramified_tuple)))
                    for rec in enumerate_quadratic(min(x, 10 ** 5))]
    elif kind.startswith("cyclic"):
        ell = int(kind[len("cyclic"):])
        records = enumerate_cyclic_ell(ell, x)
        counts = []
        idx = 0
        for cp in checkpoints:
            while idx < len(records) and records[idx].discriminant <= cp:
                idx += 1
            counts.append((cp, idx))
        summary["counts"] = counts
        try:
            scale = x ** (1.0 / (ell - 1))
        except OverflowError:  # x beyond the float range
            scale = math.exp(math.log(x) / (ell - 1))
        summary["ratio_x_alpha"] = len(records) / scale
        if args.out:
            rows = [(rec.group, rec.discriminant, rec.discriminant,
                     "|".join(map(str, rec.ramified_tuple))) for rec in records]
    elif kind == "v4":
        fields = enumerate_v4(x)
        rep = v4_fiber_check(x, fields=fields)
        summary.update({
            "fields": rep.field_count,
            "max_fiber": rep.max_fiber,
            "bound_violations": rep.bound_violations,
            "valuation_failures": rep.valuation_failures,
            "passed": rep.passed,
        })
        if args.out:
            rows = [("C2xC2", f.discriminant, "|".join(map(str, f.triple)),
                     "|".join(map(str, f.ramified_tuple))) for f in fields]
        if not rep.passed:
            print(json.dumps(summary, indent=2))
            return 1
    else:
        print(json.dumps({"schema": SCHEMA,
                          "error": f"unknown count kind {kind!r}"}))
        return 2
    if args.out and rows:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["group", "discriminant", "conductor", "tuple"])
            w.writerows(rows)
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
            "generators": entry.generator_strings(),
            "description": entry.description,
            "expected": entry.expected,
        })
    print(json.dumps({"schema": SCHEMA, "catalog": entries}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcount",
        description="Counting constants for nilpotent Galois groups, with "
                    "verification suites and desk-scale counting checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="group invariant report")
    p_inv.add_argument("--group", required=True,
                       help="catalog name, CnxCm pattern, or cycle notation "
                            "like '(1,2,3,4);(1,3)'")
    p_inv.add_argument("--field", default=_env_default("FIELD", "Q"),
                       help="'Q' or a path to base-field JSON")
    p_inv.add_argument("--exhaustive-cap", type=int,
                       default=_env_default("EXHAUSTIVE_CAP", 128))
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="run falsifier suites")
    p_ver.add_argument("ids", nargs="+",
                       help="suite ids (e.g. 4.7 5.12) or 'all'")
    p_ver.add_argument("--seed", type=int, default=_env_default("SEED", 42))
    p_ver.set_defaults(func=cmd_verify)

    p_ds = sub.add_parser("dseries", help="restricted Euler product sums")
    p_ds.add_argument("--specs", required=True,
                      help="comma-separated ell:d:m factors, e.g. '3:1:4'")
    p_ds.add_argument("--max-x", type=int,
                      default=_env_default("MAX_X", 10 ** 6))
    p_ds.add_argument("--checkpoints", type=int, default=None,
                      help="keep only the last N geometric checkpoints")
    p_ds.add_argument("--out", default=_env_default("OUT", None),
                      help="CSV output path")
    p_ds.set_defaults(func=cmd_dseries)

    p_ct = sub.add_parser("count", help="field counting runs")
    p_ct.add_argument("--kind", required=True,
                      help="quadratic | cyclic3 | cyclic5 | ... | v4")
    p_ct.add_argument("--max-x", type=int,
                      default=_env_default("MAX_X", 10 ** 6))
    p_ct.add_argument("--out", default=_env_default("OUT", None),
                      help="CSV output path")
    p_ct.set_defaults(func=cmd_count)

    p_cat = sub.add_parser("catalog", help="list the named group catalog")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        # NILCOUNT_* defaults are parsed here, inside the error report
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (NilcountError, ValueError) as e:
        print(json.dumps({"schema": SCHEMA,
                          "error": f"{type(e).__name__}: {e}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
