"""Command-line interface: list scenarios, solve, sweep caps, audit, derive.

Exit codes: 0 optimal / success, 1 input error, 2 infeasible, 3 unbounded.
Each command builds its records once and ``_emit`` prints them: text
reports round MWh and dollars to whole units with thousands separators;
JSON carries full precision, keyed by the library records' field names;
CSV is a column projection of the JSON records, with RFC-4180 quoting.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import catalog
from .scenario import (
    CAP_FIELDS, CoefficientVariant, DemandMode, ObjectiveMode, Scenario, ScenarioError, load_scenario_file,
)

CATALOG_DIR_ENV = "GRIDMIX_CATALOG_DIR"
MAX_STEPS = 1_000_000   # sweep grid points; larger grids are refused before anything is allocated
ORACLE_TOL = 1e-6       # solve --oracle: objectives agree within this, relative to max(1, |either objective|)

# Exit code by ``lp.Status`` value.
_EXIT_BY_STATUS = {"optimal": 0, "infeasible": 2, "unbounded": 3}

_VARIANTS = {
    "as-printed": CoefficientVariant.AS_PRINTED,
    "table-derived": CoefficientVariant.TABLE_DERIVED,
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
        print(f"gridmix: warning: {CATALOG_DIR_ENV} {root!r} is not a directory; no scenario files loaded",
              file=sys.stderr)
        return {}
    for path in sorted(directory.glob("*.json")):
        try:
            scenario = load_scenario_file(path)
        except ScenarioError as exc:
            print(f"gridmix: warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        extra[scenario.name] = scenario
    return extra


def _resolve_scenario(ref: str, variant: CoefficientVariant, base: str | None) -> Scenario:
    """The scenario *ref* names. A ref with a .json suffix or a path
    separator is a file; a bare word is a builtin or $GRIDMIX_CATALOG_DIR
    scenario, else an existing file, so a shell redirect that creates a
    file of that name first cannot shadow the scenario."""
    looks_like_path = ref.endswith(".json") or os.sep in ref
    extra = {} if looks_like_path else _extra_catalog()
    named = ref in extra or ref in catalog.scenario_names()
    if looks_like_path or (not named and Path(ref).is_file()):
        base_scenario = catalog.get_scenario(base, variant) if base else None
        return load_scenario_file(ref, base=base_scenario)
    if base:
        raise ScenarioError("--base only applies when solving a scenario file")
    return extra[ref] if ref in extra else catalog.get_scenario(ref, variant)


# ---------------------------------------------------------------------------
# output

# CSV columns: each table's projection of its JSON records.
_AMOUNTS = ("annual_mwh", "land_ft2", "emissions_g", "capital_usd", "objective")
_SOLVE_CSV = ("source", "early_mwh", "daytime_mwh", "evening_mwh", *_AMOUNTS)
_AUDIT_CSV = ("table", "scenario", "classification", "expected", "printed_objective",
              "solver_objective", "oracle_objective", "headline_delta", "point_feasible",
              "point_is_vertex")
_DERIVE_CSV = (("name", "value", "unit", "provenance"),
               ("delta", "recomputed", "published", "rel_delta", "note"))


def _emit(fmt: str, doc, text: str, *tables) -> None:
    """Print a command's output in *fmt*: *doc* as JSON, *text* as is, or
    each (header, rows) of *tables* as CSV, a blank line between tables.
    Each format's module loads only when that format is printed."""
    if fmt == "json":
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        for i, (header, rows) in enumerate(tables):
            if i:
                writer.writerow(())
            writer.writerow(header)
            writer.writerows(rows)
    else:
        sys.stdout.write(text)


def _record(value, **renamed):
    """*value* as JSON data: a library record (a named tuple) becomes a
    dict of its fields, with *renamed* field=key, and any other tuple a
    list, their items converted in turn."""
    if hasattr(value, "_fields"):
        return {renamed.get(key, key): _record(item) for key, item in zip(value._fields, value)}
    if isinstance(value, tuple):
        return list(map(_record, value))
    return value


# ---------------------------------------------------------------------------
# list


def _cmd_list(args) -> int:
    variant = _VARIANTS[args.variant] if args.variant else None
    extra = _extra_catalog()
    found = (("builtin", catalog.builtin_scenarios()), ("file", [extra[name] for name in sorted(extra)]))
    rows = [
        {
            "name": s.name,
            "variant": s.coefficient_variant.value,
            "objective": s.objective_mode.value,
            "sources": [src.name for src in s.sources],
            "description": s.description or ("(scenario file)" if origin == "file" else ""),
            "origin": origin,
        }
        for origin, scenarios in found
        for s in scenarios
        if variant in (None, s.coefficient_variant)
    ]
    width = max(len(r["name"]) for r in rows)
    text = "".join(f"{r['name']:<{width}}  {r['variant']:<13}  {r['description']}\n" for r in rows)
    _emit(args.format, rows, text)
    return 0


# ---------------------------------------------------------------------------
# solve


def _solve_text(scenario: Scenario, solution, records: list[dict], oracle) -> str:
    lines = [f"scenario: {scenario.name} ({scenario.coefficient_variant.value})",
             f"status: {solution.status.value}"]
    if solution.is_optimal:
        if scenario.objective_mode is ObjectiveMode.EMISSIONS:
            lines.append(f"objective (emissions): {_fmt(solution.objective_value)} g CO2")
        else:
            lines.append(f"objective ({scenario.objective_mode.value}): ${_fmt(solution.objective_value)}")
        lines += [f"binding: {', '.join(sorted(solution.binding)) or '(none)'}", ""]
        per_period = scenario.demand_mode is DemandMode.PER_PERIOD
        periods = ["early MWh", "daytime MWh", "evening MWh"] if per_period else []
        table = [["source", *periods, "annual MWh", "land ft^2", "emissions g", "capital $", "objective"]]
        for r in records:
            shares = (r["per_period_mwh"] or (0.0, 0.0, 0.0)) if per_period else ()
            table.append([r["source"], *map(_fmt, shares), *(_fmt(r[key]) for key in _AMOUNTS)])
        widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
        for row in table:
            lines.append("  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(row, widths))))
        if oracle is not None:
            lines.append(f"oracle: agrees (objective {_fmt(oracle.objective)})")
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    from .lp import solve
    from .model import compile_scenario, report

    scenario = _resolve_scenario(args.scenario, _VARIANTS[args.variant], args.base)
    if args.objective:
        scenario = scenario.with_objective(ObjectiveMode(args.objective))
    lp = compile_scenario(scenario)
    solution = solve(lp)
    rep = report(scenario, solution)
    oracle = None
    if args.oracle:
        from .oracle import oracle_solve

        oracle = oracle_solve(lp)
        if oracle.status is not solution.status:
            print(
                f"oracle disagrees: solver={solution.status.value} oracle={oracle.status.value}",
                file=sys.stderr,
            )
            return 1
        if solution.is_optimal:
            scale = max(1.0, abs(solution.objective_value), abs(oracle.objective))
            if abs(solution.objective_value - oracle.objective) > ORACLE_TOL * scale:
                print(
                    f"oracle disagrees on the objective: solver={solution.objective_value!r} "
                    f"oracle={oracle.objective!r}",
                    file=sys.stderr,
                )
                return 1
    records = [
        _record(r, per_period="per_period_mwh", annual="annual_mwh")
        for r in ((*rep.rows, rep.total) if rep.total else rep.rows)
    ]
    doc = {
        "scenario": scenario.name,
        "variant": scenario.coefficient_variant.value,
        "objective_mode": scenario.objective_mode.value,
        "status": solution.status.value,
    }
    if solution.is_optimal:
        doc.update(
            objective_value=solution.objective_value,
            values=dict(zip((s.name for s in scenario.sources), solution.values)),
            binding=sorted(solution.binding),
            iterations=solution.iterations,
            rows=records,
        )
    if oracle is not None:
        doc["oracle"] = {"status": oracle.status.value, "objective": oracle.objective}
    csv_rows = [
        [r["source"], *(r["per_period_mwh"] or ("", "", "")), *(r[key] for key in _AMOUNTS)]
        for r in records
    ]
    _emit(args.format, doc, _solve_text(scenario, solution, records, oracle), (_SOLVE_CSV, csv_rows))
    return _EXIT_BY_STATUS[solution.status.value]


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> int:
    import numpy as np

    from .lp import Status
    from .model import cap_rows
    from .parametric import sweep

    if args.steps < 1:
        raise ScenarioError("--steps must be >= 1")
    if args.steps > MAX_STEPS:
        raise ScenarioError(f"--steps must be at most {MAX_STEPS:,}")
    if not np.isfinite((args.start, args.stop)).all():
        raise ScenarioError("--from and --to must be finite")
    if args.start > args.stop:
        raise ScenarioError("--from must not exceed --to")
    scenario = _resolve_scenario(args.scenario, _VARIANTS[args.variant], None)
    points = sweep(scenario, args.param, np.linspace(args.start, args.stop, args.steps))
    cap = CAP_FIELDS[args.param]
    if not cap_rows(scenario.with_cap(cap, args.start), cap):
        print(f"gridmix: note: {args.param} bounds no row of scenario {scenario.name!r}, "
              "so every point solves the same program", file=sys.stderr)
    names = [s.name for s in scenario.sources]
    rows = [
        [p.value, p.status.value,
         *((p.objective, *p.production) if p.status is Status.OPTIMAL else [""] * (1 + len(names)))]
        for p in points
    ]
    _emit("csv", None, "", (("value", "status", "objective", *names), rows))
    return 0


# ---------------------------------------------------------------------------
# audit


def _audit_text(tables, discrepancies) -> str:
    lines = []
    for t in tables:
        delta = "inf" if t.headline_delta == float("inf") else f"{100 * t.headline_delta:.4f}%"
        solver_obj = "-" if t.solver_objective is None else _fmt(t.solver_objective)
        oracle_obj = "-" if t.oracle_objective is None else _fmt(t.oracle_objective)
        lines += [
            f"table {t.table_id} ({t.scenario}): {t.classification} [expected {t.expected}]",
            f"  {t.title}",
            f"  printed objective {_fmt(t.printed_objective)}  solver {solver_obj} "
            f"({t.solver_status.value})  oracle {oracle_obj} ({t.oracle_status.value})  delta {delta}",
            f"  printed point: feasible={'yes' if t.point_feasible else 'no'} "
            f"vertex={'yes' if t.point_is_vertex else 'no'}",
        ]
        lines += [
            f"    {c.label}: printed {_fmt(c.printed)} vs recomputed {_fmt(c.recomputed)} "
            f"({100 * c.rel_delta:.4f}%){'  [ledger]' if c.flagged else ''}"
            for c in t.cells
        ]
        if t.ledger:
            lines.append(f"  ledger items: {', '.join(t.ledger)}")
        lines += [f"  note: {note}" for note in t.notes]
    if discrepancies:
        lines += ["", "discrepancy ledger:", *(f"  {d.ident}: {d.summary}" for d in discrepancies)]
    return "\n".join(lines) + "\n"


def _cmd_audit(args) -> int:
    from .audit import audit_reference_results

    audit = audit_reference_results()
    table_ids = set(args.table) if args.table else set()
    known = {t.table_id for t in audit.tables}
    unknown = table_ids - known
    if unknown:
        raise ScenarioError(f"unknown table id(s): {', '.join(sorted(unknown))}")
    tables = [t for t in audit.tables if not table_ids or t.table_id in table_ids]
    records = [_record(t, table_id="table") for t in tables]
    doc = {"tables": records, "discrepancies": [_record(d, ident="id") for d in audit.discrepancies]}
    text = _audit_text(tables, () if table_ids else audit.discrepancies)
    _emit(args.format, doc, text, (_AUDIT_CSV, [[r[key] for key in _AUDIT_CSV] for r in records]))
    if args.strict:
        return 0 if audit.strict_passed else 1
    return 0 if audit.passed else 1


# ---------------------------------------------------------------------------
# derive


def _cmd_derive(args) -> int:
    from . import derivation

    derived = derivation.derive_all()
    width = max(len(c.name) for c in derived.constants)
    lines = [f"{c.name:<{width}}  {c.value!r:>24}  {c.unit:<8}  {c.provenance}" for c in derived.constants]
    lines.append("\ndeltas vs published values:")
    for d in derived.deltas:
        note = f"  ({d.note})" if d.note else ""
        lines.append(
            f"  {d.name}: recomputed {d.recomputed!r} vs published {d.published!r} "
            f"({100 * d.rel_delta:.4f}%){note}"
        )
    _emit(
        args.format,
        {"constants": _record(derived.constants), "deltas": _record(derived.deltas)},
        "\n".join(lines) + "\n",
        (_DERIVE_CSV[0], derived.constants),
        (_DERIVE_CSV[1], derived.deltas),
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
    p_solve.add_argument("--objective", choices=sorted(m.value for m in ObjectiveMode))
    p_solve.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_solve.add_argument("--oracle", action="store_true",
                         help="also run vertex enumeration and require agreement")
    p_solve.add_argument("--base", help="catalog scenario a file overrides key-by-key")
    p_solve.set_defaults(func=_cmd_solve, solves=True)

    p_sweep = sub.add_parser("sweep", help="re-solve while sweeping one cap")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=10)
    p_sweep.add_argument("--variant", choices=sorted(_VARIANTS), default="as-printed")
    p_sweep.set_defaults(func=_cmd_sweep, solves=True)

    p_audit = sub.add_parser("audit", help="audit the published result tables")
    p_audit.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_audit.add_argument("--table", action="append", help="restrict to a table id (repeatable)")
    p_audit.add_argument("--strict", action="store_true",
                         help="fail when any table classifies worse than expected")
    p_audit.set_defaults(func=_cmd_audit, solves=True)

    p_derive = sub.add_parser("derive", help="export the derived-constant provenance table")
    p_derive.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_derive.set_defaults(func=_cmd_derive)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    input_errors: tuple[type[Exception], ...] = (ScenarioError, KeyError)
    command = args.func
    if getattr(args, "solves", False):
        # The solver commands (``solves=True`` on their subparser), and
        # only they, load the LP layer, so only they can raise LPError.
        # ``lp.solve`` guards its own arithmetic. The commands that run
        # numpy arithmetic outside it (the sweep arrays, the oracle and the
        # audit) run inside ``lp._in_float_range``, so magnitudes past the
        # float range raise its LPError instead of printing an answer built
        # on inf or nan; a plain solve loads no numpy. Report amounts are
        # Python floats, which never raise: ``tabulate`` checks its totals
        # and raises ScenarioError.
        from .lp import LPError, _in_float_range

        input_errors += (LPError,)
        if command is not _cmd_solve or args.oracle:
            command = _in_float_range(command)
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`gridmix list | head`). Point
        # stdout at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except input_errors as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"gridmix: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
