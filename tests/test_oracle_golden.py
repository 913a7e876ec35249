"""Bit-exact oracle golden: every field of the vertex oracle's answers must
stay identical to the recorded file, to the last bit of every float.

The LP set is every catalog scenario of at most 4 variables in both
coefficient variants, under each objective mode, at demand scales 1/4, 1
and 8 (annual need, pinned period demand, caps, rooftop allowances and
output floors multiplied by the scale); the ``a1_om_objective`` corner
report under every objective mode; the reference audit; and 500 seeded
degenerate LPs of 1 to 4 variables whose rows are built through a common
apex, so the same vertex comes out of many hyperplane subsets and
deduplication decides which copy survives. For each LP the file holds the
status, objective and point, and every vertex's point, objective and
sorted binding labels. Floats are stored with ``float.hex``, so the
comparison is exact. The file was written from the oracle before its
deduplication was vectorized. Regenerate it only when a change to the
oracle's arithmetic is intended:

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridmix import oracle
from gridmix.audit import audit_reference_results
from gridmix.catalog import CATALOG_NAMES, get_scenario
from gridmix.lp import Constraint, LinearProgram, Relation, Sense
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario
from gridmix.oracle import corner_report, oracle_solve

GOLDEN = Path(__file__).parent / "data" / "oracle_golden.json"
SCALES = (0.25, 1.0, 8.0)
CAPS = ("emissions_cap", "budget_cap", "land_cap", "rooftop_cap")
RANDOM_CASES = 500
RELATIONS = (Relation.LE, Relation.GE, Relation.EQ)


def _hex(value: float | None) -> str | None:
    return None if value is None else float.hex(value)


def scaled(scenario, k: float):
    caps = {c: getattr(scenario, c) * k for c in CAPS if getattr(scenario, c) is not None}
    periods = tuple(
        replace(p, demand_mwh=p.demand_mwh * k) if p.demand_mwh is not None else p
        for p in scenario.periods
    )
    sources = tuple(
        replace(s, rooftop_allowance=s.rooftop_allowance * k, min_annual_output=s.min_annual_output * k)
        for s in scenario.sources
    )
    return replace(scenario, annual_need=scenario.annual_need * k, periods=periods, sources=sources, **caps)


def degenerate_program(seed: int) -> LinearProgram:
    """A random LP with many rows through one apex (some apex coordinates
    are 0, so bound planes pass through it too), scaled copies of some of
    those rows, and a few rows the apex satisfies with slack. Coefficients
    span 1e-2 to 1e13 and the apex 1e-2 to 1e9."""
    rng = np.random.default_rng([20261018, seed])
    n = int(rng.integers(1, 5))
    apex = np.round(rng.uniform(0.0, 10.0, n), 2) * 10.0 ** rng.uniform(-2.0, 8.0) * (rng.random(n) < 0.7)
    rows: list[tuple[np.ndarray, Relation, float]] = []
    for _ in range(n + int(rng.integers(0, 3))):
        a = np.round(rng.uniform(-10.0, 10.0, n), 2) * 10.0 ** rng.uniform(-2.0, 13.0)
        if not a.any():
            a[0] = 1.0
        rows.append((a, RELATIONS[int(rng.integers(0, 3))], float(a @ apex)))
    for _ in range(int(rng.integers(0, 3))):
        a, relation, rhs = rows[int(rng.integers(0, len(rows)))]
        factor = 10.0 ** rng.uniform(-2.0, 4.0)
        rows.append((a * factor, relation, rhs * factor))
    for _ in range(int(rng.integers(0, 3))):
        a = np.round(rng.uniform(-10.0, 10.0, n), 2) * 10.0 ** rng.uniform(-2.0, 13.0)
        if not a.any():
            a[0] = 1.0
        slack = abs(float(a @ apex)) * rng.uniform(0.0, 2.0) + float(np.max(np.abs(a)))
        relation = RELATIONS[int(rng.integers(0, 2))]
        rhs = float(a @ apex) + (slack if relation is Relation.LE else -slack)
        rows.append((a, relation, rhs))
    objective = np.round(rng.uniform(-10.0, 10.0, n), 2) * 10.0 ** rng.uniform(-2.0, 3.0)
    return LinearProgram(
        sense=Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE,
        objective=tuple(float(c) for c in objective),
        constraints=tuple(
            Constraint(tuple(float(v) for v in a), relation, rhs, f"c{i}")
            for i, (a, relation, rhs) in enumerate(rows)
        ),
        var_count=n,
    )


def golden_cases() -> list[tuple]:
    catalog = [
        ("catalog", name, variant.value, mode.value, k)
        for name in CATALOG_NAMES
        for variant in CoefficientVariant
        if len(get_scenario(name, variant).sources) <= 4
        for mode in ObjectiveMode
        for k in SCALES
    ]
    return catalog + [("corner",), ("audit",)] + [("degenerate", seed) for seed in range(RANDOM_CASES)]


def capture_oracle(lp: LinearProgram) -> dict:
    oracle = oracle_solve(lp)
    return {
        "status": oracle.status.value,
        "objective": _hex(oracle.objective),
        "point": None if oracle.point is None else [_hex(v) for v in oracle.point],
        "vertices": [
            [[_hex(v) for v in vertex.point], _hex(vertex.objective), sorted(vertex.binding)]
            for vertex in oracle.vertices
        ],
    }


def capture_corner() -> dict:
    scenario = get_scenario("a1_om_objective", CoefficientVariant.AS_PRINTED)
    named = [(mode.value, compile_scenario(scenario.with_objective(mode)).objective) for mode in ObjectiveMode]
    report = corner_report(compile_scenario(scenario), named)
    return {
        "objectives": list(report.objectives),
        "rows": [
            [[_hex(v) for v in row.point], sorted(row.binding), {k: _hex(v) for k, v in row.values.items()}]
            for row in report.rows
        ],
        "argmin": report.argmin,
        "shared_argmin": report.shared_argmin,
    }


def capture_audit() -> dict:
    audit = audit_reference_results()
    return {
        "tables": [
            {
                "table_id": t.table_id,
                "solver": [t.solver_status.value, _hex(t.solver_objective)],
                "oracle": [t.oracle_status.value, _hex(t.oracle_objective)],
                "headline_delta": _hex(t.headline_delta),
                "classification": t.classification,
                "point_feasible": t.point_feasible,
                "point_is_vertex": t.point_is_vertex,
                "cells": [[c.label, _hex(c.printed), _hex(c.recomputed), _hex(c.rel_delta), c.flagged] for c in t.cells],
            }
            for t in audit.tables
        ],
        "passed": audit.passed,
        "strict_passed": audit.strict_passed,
    }


def capture(case: tuple) -> dict:
    kind = case[0]
    if kind == "catalog":
        _, name, variant, mode, k = case
        scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
        result = capture_oracle(compile_scenario(scaled(scenario, k)))
    elif kind == "degenerate":
        result = capture_oracle(degenerate_program(case[1]))
    elif kind == "corner":
        result = capture_corner()
    else:
        result = capture_audit()
    return {"case": list(case), **result}


@pytest.fixture(scope="module")
def recorded() -> dict[tuple, dict]:
    return {tuple(entry["case"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_the_case_list(recorded):
    assert list(recorded) == golden_cases()


def test_degenerate_cases_repeat_vertices(monkeypatch):
    # The point of the random tier: many subsets meet at one vertex, so
    # deduplication has copies to drop in most cases.
    dropped = []
    dedup = oracle._dedup

    def counting(points):
        kept = dedup(points)
        dropped.append(len(points) - len(kept))
        return kept

    monkeypatch.setattr(oracle, "_dedup", counting)
    repeated = 0
    for seed in range(50):
        dropped.clear()
        oracle_solve(degenerate_program(seed))
        repeated += dropped[0] > 0
    assert repeated >= 25


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: "-".join(map(str, c)))
def test_oracle_matches_golden_bit_for_bit(case, recorded):
    assert capture(case) == recorded[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = [json.dumps(capture(c)) for c in golden_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n")
    print(f"wrote {GOLDEN} ({len(entries)} cases)", file=sys.stderr)
