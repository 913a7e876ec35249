"""The record contract: which gridmix types are dataclasses, and what the
named-tuple records promise (field order, no assignment)."""

import dataclasses
import importlib

import pytest

MODULES = ("scenario", "catalog", "lp", "model", "parametric", "oracle", "audit", "derivation", "analysis", "cli")

# The five types that callers rebuild with ``dataclasses.replace``, plus
# DerivedConstants: its ``derived[name]`` lookup would shadow a tuple's
# indexing.
DATACLASSES = {"scenario.Scenario", "scenario.EnergySource", "scenario.DayPeriod", "lp.Constraint",
               "lp.LinearProgram", "derivation.DerivedConstants"}

# Every named-tuple record, with its fields in the order they held as
# dataclass fields.
NAMED_TUPLES = {
    "lp.Solution": ("status", "values", "objective_value", "activities", "binding", "iterations"),
    "lp.StandardForm": ("body", "objective", "var_count", "slack_cols", "surplus_cols", "artificial_cols",
                        "basis", "row_scales", "shifts"),
    "model.SourceReportRow": ("source", "per_period", "annual", "land_ft2", "emissions_g", "capital_usd",
                              "objective"),
    "model.ScenarioReport": ("scenario", "variant", "status", "objective_mode", "objective_value", "rows",
                             "total", "binding"),
    "parametric.SweepPoint": ("value", "status", "objective", "production"),
    "parametric._Block": ("status", "iterations", "at", "points", "objective"),
    "oracle.Vertex": ("point", "objective", "binding"),
    "oracle.OracleResult": ("status", "objective", "point", "vertices"),
    "oracle.CornerRow": ("point", "binding", "values"),
    "oracle.CornerReport": ("objectives", "rows", "argmin", "shared_argmin"),
    "oracle.ConstraintCheck": ("label", "relation", "activity", "rhs", "violation", "satisfied", "binding"),
    "oracle.FeasibilityReport": ("feasible", "checks", "bounds_ok", "worst_violation", "worst_label", "binding",
                                 "violated"),
    "audit.Discrepancy": ("ident", "summary"),
    "audit._RefCell": ("label", "printed", "kind", "source", "period", "at"),
    "audit._RefTable": ("table_id", "scenario", "title", "point", "objective_total", "cells", "ledger",
                        "expected", "tolerance", "notes", "objective"),
    "audit.CellAudit": ("label", "printed", "recomputed", "rel_delta", "flagged"),
    "audit.TableAudit": ("table_id", "scenario", "title", "printed_objective", "solver_status",
                         "solver_objective", "oracle_status", "oracle_objective", "headline_delta",
                         "classification", "expected", "tolerance", "point_feasible", "point_is_vertex", "cells",
                         "ledger", "notes"),
    "audit.ReferenceAudit": ("tables", "discrepancies"),
    "derivation.DerivedConstant": ("name", "value", "unit", "provenance"),
    "derivation.DeltaRow": ("name", "recomputed", "published", "rel_delta", "note"),
}


def test_only_the_replace_targets_are_dataclasses_and_every_other_record_is_a_named_tuple():
    dataclasses_found, named_tuples = set(), {}
    for name in MODULES:
        module = importlib.import_module(f"gridmix.{name}")
        for attr, obj in vars(module).items():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                dataclasses_found.add(f"{name}.{attr}")
            elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                named_tuples[f"{name}.{attr}"] = obj
    assert dataclasses_found == DATACLASSES
    assert {key: cls._fields for key, cls in named_tuples.items()} == NAMED_TUPLES
    for key, cls in named_tuples.items():
        record = cls(*range(len(cls._fields)))
        for field in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert tuple(record) == tuple(range(len(cls._fields))), key
