"""Command-line interface: list scenarios, solve, sweep caps, audit, derive.

Exit codes: 0 optimal / success, 1 input error, 2 infeasible, 3 unbounded.
Text reports round MWh and dollars to whole units with thousands
separators; JSON carries full precision; CSV uses RFC-4180 quoting.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, catalog, derivation
from .lp import LPError, Status, solve
from .model import (
    CoefficientVariant,
    DemandMode,
    ObjectiveMode,
    Scenario,
    ScenarioError,
    compile_scenario,
    load_scenario_file,
    report,
)

CATALOG_DIR_ENV = "GRIDMIX_CATALOG_DIR"

_EXIT_BY_STATUS = {Status.OPTIMAL: 0, Status.INFEASIBLE: 2, Status.UNBOUNDED: 3}

_VARIANTS = {
    "as-printed": CoefficientVariant.AS_PRINTED,
    "table-derived": CoefficientVariant.TABLE_DERIVED,
}
_OBJECTIVES = {
    "lcoe": ObjectiveMode.LCOE,
    "om": ObjectiveMode.OM_ONLY,
    "emissions": ObjectiveMode.EMISSIONS,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the exit contract reserves 2 for
    infeasible models, so argument errors are remapped to 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value:,.0f}"


def _extra_catalog() -> dict[str, Scenario]:
    """Scenario files from $GRIDMIX_CATALOG_DIR, keyed by scenario name."""
    root = os.environ.get(CATALOG_DIR_ENV)
    if not root:
        return {}
    extra: dict[str, Scenario] = {}
    directory = Path(root)
    if not directory.is_dir():
        return {}
    for path in sorted(directory.glob("*.json")):
        try:
            scenario = load_scenario_file(path)
        except ScenarioError as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        extra[scenario.name] = scenario
    return extra


def _resolve_scenario(ref: str, variant: CoefficientVariant, base: str | None) -> Scenario:
    looks_like_path = ref.endswith(".json") or os.sep in ref
    if looks_like_path or Path(ref).is_file():
        base_scenario = catalog.get_scenario(base, variant) if base else None
        return load_scenario_file(ref, base=base_scenario)
    if base:
        raise ScenarioError("--base only applies when solving a scenario file")
    extra = _extra_catalog()
    if ref in extra:
        return extra[ref]
    return catalog.get_scenario(ref, variant)


# ---------------------------------------------------------------------------
# list


def _cmd_list(args) -> int:
    variant_filter = _VARIANTS[args.variant] if args.variant else None
    entries = []
    for scenario in catalog.builtin_scenarios():
        if variant_filter and scenario.coefficient_variant is not variant_filter:
            continue
        entries.append(scenario)
    extra = _extra_catalog()
    rows = [
        {
            "name": s.name,
            "variant": s.coefficient_variant.value,
            "objective": s.objective_mode.value,
            "sources": [src.name for src in s.sources],
            "description": s.description,
            "origin": "builtin",
        }
        for s in entries
    ]
    for name in sorted(extra):
        s = extra[name]
        if variant_filter and s.coefficient_variant is not variant_filter:
            continue
        rows.append(
            {
                "name": s.name,
                "variant": s.coefficient_variant.value,
                "objective": s.objective_mode.value,
                "sources": [src.name for src in s.sources],
                "description": s.description or "(scenario file)",
                "origin": "file",
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  {r['variant']:<13}  {r['description']}")
    return 0


# ---------------------------------------------------------------------------
# solve


def _rows_with_total(rep):
    return (*rep.rows, rep.total) if rep.total else rep.rows


def _report_text(scenario: Scenario, solution, rep) -> str:
    out = io.StringIO()
    out.write(f"scenario: {scenario.name} ({scenario.coefficient_variant.value})\n")
    out.write(f"status: {solution.status.value}\n")
    if solution.status is not Status.OPTIMAL:
        return out.getvalue()
    if scenario.objective_mode is ObjectiveMode.EMISSIONS:
        out.write(f"objective (emissions): {_fmt(solution.objective_value)} g CO2\n")
    else:
        out.write(f"objective ({scenario.objective_mode.value}): ${_fmt(solution.objective_value)}\n")
    out.write(f"binding: {', '.join(sorted(solution.binding)) or '(none)'}\n\n")
    per_period = scenario.demand_mode is DemandMode.PER_PERIOD
    headers = ["source"]
    if per_period:
        headers += ["early MWh", "daytime MWh", "evening MWh"]
    headers += ["annual MWh", "land ft^2", "emissions g", "capital $", "objective"]
    table = [headers]
    for row in _rows_with_total(rep):
        cells = [row.source]
        if per_period:
            cells += [_fmt(v) for v in (row.per_period or (0.0, 0.0, 0.0))]
        cells += [
            _fmt(row.annual),
            _fmt(row.land_ft2),
            _fmt(row.emissions_g),
            _fmt(row.capital_usd),
            _fmt(row.objective),
        ]
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for r in table:
        out.write("  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(r, widths))))
        out.write("\n")
    return out.getvalue()


def _report_json(scenario: Scenario, solution, rep, oracle=None) -> str:
    doc = {
        "scenario": scenario.name,
        "variant": scenario.coefficient_variant.value,
        "objective_mode": scenario.objective_mode.value,
        "status": solution.status.value,
    }
    if solution.status is Status.OPTIMAL:
        doc.update(
            {
                "objective_value": solution.objective_value,
                "values": {
                    name: value
                    for name, value in zip((s.name for s in scenario.sources), solution.values)
                },
                "binding": sorted(solution.binding),
                "iterations": solution.iterations,
                "rows": [
                    {
                        "source": r.source,
                        "per_period_mwh": list(r.per_period) if r.per_period else None,
                        "annual_mwh": r.annual,
                        "land_ft2": r.land_ft2,
                        "emissions_g": r.emissions_g,
                        "capital_usd": r.capital_usd,
                        "objective": r.objective,
                    }
                    for r in _rows_with_total(rep)
                ],
            }
        )
    if oracle is not None:
        doc["oracle"] = {
            "status": oracle.status.value,
            "objective": oracle.objective,
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def _report_csv(scenario: Scenario, solution, rep) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["source", "early_mwh", "daytime_mwh", "evening_mwh", "annual_mwh",
         "land_ft2", "emissions_g", "capital_usd", "objective"]
    )
    if solution.status is Status.OPTIMAL:
        for r in _rows_with_total(rep):
            period = r.per_period or ("", "", "")
            writer.writerow([r.source, *period, r.annual, r.land_ft2, r.emissions_g,
                             r.capital_usd, r.objective])
    return out.getvalue()


def _cmd_solve(args) -> int:
    scenario = _resolve_scenario(args.scenario, _VARIANTS[args.variant], args.base)
    if args.objective:
        scenario = scenario.with_objective(_OBJECTIVES[args.objective])
    lp = compile_scenario(scenario)
    solution = solve(lp)
    rep = report(scenario, solution)
    oracle = None
    if args.oracle:
        oracle = analysis.oracle_solve(lp)
        if oracle.status is not solution.status:
            print(
                f"oracle disagrees: solver={solution.status.value} oracle={oracle.status.value}",
                file=sys.stderr,
            )
            return 1
        if solution.status is Status.OPTIMAL:
            scale = max(1.0, abs(solution.objective_value), abs(oracle.objective))
            if abs(solution.objective_value - oracle.objective) > 1e-6 * scale:
                print(
                    f"oracle disagrees on the objective: solver={solution.objective_value!r} "
                    f"oracle={oracle.objective!r}",
                    file=sys.stderr,
                )
                return 1
    if args.format == "json":
        print(_report_json(scenario, solution, rep, oracle))
    elif args.format == "csv":
        sys.stdout.write(_report_csv(scenario, solution, rep))
    else:
        sys.stdout.write(_report_text(scenario, solution, rep))
        if oracle is not None and solution.status is Status.OPTIMAL:
            print(f"oracle: agrees (objective {_fmt(oracle.objective)})")
    return _EXIT_BY_STATUS[solution.status]


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ScenarioError("--steps must be >= 1")
    if args.start > args.stop:
        raise ScenarioError("--from must not exceed --to")
    scenario = _resolve_scenario(args.scenario, _VARIANTS[args.variant], None)
    if args.param not in analysis.CAP_FIELDS:
        raise ScenarioError(
            f"unknown sweep parameter {args.param!r}; known: {', '.join(analysis.CAP_FIELDS)}"
        )
    if args.steps == 1:
        values = [args.start]
    else:
        values = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
    points = analysis.sweep(scenario, args.param, values)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["value", "status", "objective", *(s.name for s in scenario.sources)])
    for p in points:
        if p.status is Status.OPTIMAL:
            writer.writerow([p.value, p.status.value, p.objective, *p.production])
        else:
            writer.writerow([p.value, p.status.value, "", *([""] * len(scenario.sources))])
    return 0


# ---------------------------------------------------------------------------
# audit


def _audit_text(audit, table_ids) -> str:
    out = io.StringIO()
    for t in audit.tables:
        if table_ids and t.table_id not in table_ids:
            continue
        delta = "inf" if t.headline_delta == float("inf") else f"{100 * t.headline_delta:.4f}%"
        out.write(
            f"table {t.table_id} ({t.scenario}): {t.classification} "
            f"[expected {t.expected}]\n"
        )
        out.write(f"  {t.title}\n")
        solver_obj = "-" if t.solver_objective is None else _fmt(t.solver_objective)
        oracle_obj = "-" if t.oracle_objective is None else _fmt(t.oracle_objective)
        out.write(
            f"  printed objective {_fmt(t.printed_objective)}  solver {solver_obj} "
            f"({t.solver_status.value})  oracle {oracle_obj} ({t.oracle_status.value})  "
            f"delta {delta}\n"
        )
        out.write(
            f"  printed point: feasible={'yes' if t.point_feasible else 'no'} "
            f"vertex={'yes' if t.point_is_vertex else 'no'}\n"
        )
        for cell in t.cells:
            flag = "  [ledger]" if cell.flagged else ""
            out.write(
                f"    {cell.label}: printed {_fmt(cell.printed)} vs recomputed "
                f"{_fmt(cell.recomputed)} ({100 * cell.rel_delta:.4f}%){flag}\n"
            )
        if t.ledger:
            out.write(f"  ledger items: {', '.join(t.ledger)}\n")
        for note in t.notes:
            out.write(f"  note: {note}\n")
    if not table_ids:
        out.write("\ndiscrepancy ledger:\n")
        for d in audit.discrepancies:
            out.write(f"  {d.ident}: {d.summary}\n")
    return out.getvalue()


def _audit_json(audit, table_ids) -> str:
    doc = {
        "tables": [
            {
                "table": t.table_id,
                "scenario": t.scenario,
                "title": t.title,
                "classification": t.classification,
                "expected": t.expected,
                "tolerance": t.tolerance,
                "printed_objective": t.printed_objective,
                "solver_status": t.solver_status.value,
                "solver_objective": t.solver_objective,
                "oracle_status": t.oracle_status.value,
                "oracle_objective": t.oracle_objective,
                "headline_delta": t.headline_delta,
                "point_feasible": t.point_feasible,
                "point_is_vertex": t.point_is_vertex,
                "cells": [
                    {
                        "label": c.label,
                        "printed": c.printed,
                        "recomputed": c.recomputed,
                        "rel_delta": c.rel_delta,
                        "flagged": c.flagged,
                    }
                    for c in t.cells
                ],
                "ledger": list(t.ledger),
                "notes": list(t.notes),
            }
            for t in audit.tables
            if not table_ids or t.table_id in table_ids
        ],
        "discrepancies": [{"id": d.ident, "summary": d.summary} for d in audit.discrepancies],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _audit_csv(audit, table_ids) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["table", "scenario", "classification", "expected", "printed_objective",
         "solver_objective", "oracle_objective", "headline_delta", "point_feasible",
         "point_is_vertex"]
    )
    for t in audit.tables:
        if table_ids and t.table_id not in table_ids:
            continue
        writer.writerow(
            [t.table_id, t.scenario, t.classification, t.expected, t.printed_objective,
             t.solver_objective, t.oracle_objective, t.headline_delta, t.point_feasible,
             t.point_is_vertex]
        )
    return out.getvalue()


def _cmd_audit(args) -> int:
    audit = analysis.audit_reference_results()
    table_ids = set(args.table) if args.table else set()
    known = {t.table_id for t in audit.tables}
    unknown = table_ids - known
    if unknown:
        raise ScenarioError(f"unknown table id(s): {', '.join(sorted(unknown))}")
    if args.format == "json":
        print(_audit_json(audit, table_ids))
    elif args.format == "csv":
        sys.stdout.write(_audit_csv(audit, table_ids))
    else:
        sys.stdout.write(_audit_text(audit, table_ids))
    if args.strict:
        return 0 if audit.strict_passed else 1
    return 0 if audit.passed else 1


# ---------------------------------------------------------------------------
# derive


def _cmd_derive(args) -> int:
    derived = derivation.derive_all()
    if args.format == "json":
        doc = {
            "constants": [
                {"name": c.name, "value": c.value, "unit": c.unit, "provenance": c.provenance}
                for c in derived.constants
            ],
            "deltas": [
                {
                    "name": d.name,
                    "recomputed": d.recomputed,
                    "published": d.published,
                    "rel_delta": d.rel_delta,
                    "note": d.note,
                }
                for d in derived.deltas
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["name", "value", "unit", "provenance"])
        for c in derived.constants:
            writer.writerow([c.name, repr(c.value), c.unit, c.provenance])
        writer.writerow([])
        writer.writerow(["delta", "recomputed", "published", "rel_delta", "note"])
        for d in derived.deltas:
            writer.writerow([d.name, repr(d.recomputed), repr(d.published), d.rel_delta, d.note])
    else:
        width = max(len(c.name) for c in derived.constants)
        for c in derived.constants:
            print(f"{c.name:<{width}}  {c.value!r:>24}  {c.unit:<8}  {c.provenance}")
        print("\ndeltas vs published values:")
        for d in derived.deltas:
            note = f"  ({d.note})" if d.note else ""
            print(
                f"  {d.name}: recomputed {d.recomputed!r} vs published {d.published!r} "
                f"({100 * d.rel_delta:.4f}%){note}"
            )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog scenarios")
    p_list.add_argument("--variant", choices=sorted(_VARIANTS))
    p_list.add_argument("--format", choices=["text", "json"], default="text")
    p_list.set_defaults(func=_cmd_list)

    p_solve = sub.add_parser("solve", help="solve a scenario and report")
    p_solve.add_argument("scenario", help="catalog name or scenario file path")
    p_solve.add_argument("--variant", choices=sorted(_VARIANTS), default="as-printed")
    p_solve.add_argument("--objective", choices=sorted(_OBJECTIVES))
    p_solve.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_solve.add_argument("--oracle", action="store_true",
                         help="also run vertex enumeration and require agreement")
    p_solve.add_argument("--base", help="catalog scenario a file overrides key-by-key")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="re-solve while sweeping one cap")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=10)
    p_sweep.add_argument("--variant", choices=sorted(_VARIANTS), default="as-printed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="audit the published result tables")
    p_audit.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_audit.add_argument("--table", action="append", help="restrict to a table id (repeatable)")
    p_audit.add_argument("--strict", action="store_true",
                         help="fail when any table classifies worse than expected")
    p_audit.set_defaults(func=_cmd_audit)

    p_derive = sub.add_parser("derive", help="export the derived-constant provenance table")
    p_derive.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_derive.set_defaults(func=_cmd_derive)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, KeyError, LPError, analysis.UnsupportedSizeError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"gridmix: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
