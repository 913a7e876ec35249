"""Golden reports: every number of the ``ScenarioReport`` of each catalog
model, in both coefficient variants and under every objective, at demand
scales 1/4, 1 and 8, must match the recorded ``float.hex``.

Scaling multiplies the annual need and every pinned period demand, and
leaves the caps as printed, so the three scales reach optimal and
infeasible reports alike. A binding set is stored sorted: the iteration
order of a frozenset of strings changes with ``PYTHONHASHSEED``. The file
was written from the code before the solve read-out and ``tabulate``
were trimmed, so it pins every report digit across that change. Its
totals add each column left to right, as ``sum`` did before Python 3.12,
and ``tabulate`` gives those bits on every version.
Regenerate it only when a report change is intended:

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridmix import lp, model
from gridmix.catalog import CATALOG_NAMES, get_scenario
from gridmix.model import CoefficientVariant, ObjectiveMode

GOLDEN = Path(__file__).parent / "data" / "report_golden.json"
SCALES = (0.25, 1.0, 8.0)


def _hex(value):
    return None if value is None else float(value).hex()


def _row(row: model.SourceReportRow | None):
    if row is None:
        return None
    per_period = None if row.per_period is None else [_hex(v) for v in row.per_period]
    numbers = (row.annual, row.land_ft2, row.emissions_g, row.capital_usd, row.objective)
    return [row.source, per_period, *map(_hex, numbers)]


def scenarios():
    for name in CATALOG_NAMES:
        for variant in CoefficientVariant:
            base = get_scenario(name, variant)
            for mode in ObjectiveMode:
                for scale in SCALES:
                    periods = tuple(
                        p if p.demand_mwh is None else replace(p, demand_mwh=p.demand_mwh * scale)
                        for p in base.periods
                    )
                    scenario = replace(base, objective_mode=mode, annual_need=base.annual_need * scale, periods=periods)
                    yield f"{name}/{variant.value}/{mode.value}/{scale}", scenario


def current() -> dict[str, dict]:
    reports = {}
    for key, scenario in scenarios():
        report = model.report(scenario, lp.solve(model.compile_scenario(scenario)))
        reports[key] = {
            "status": report.status.value,
            "objective_value": _hex(report.objective_value),
            "rows": [_row(r) for r in report.rows],
            "total": _row(report.total),
            "binding": sorted(report.binding),
        }
    return reports


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed() -> dict[str, dict]:
    return current()


def test_golden_covers_every_model_variant_objective_and_scale(recorded, computed):
    assert list(recorded) == list(computed)
    assert len(recorded) == len(CATALOG_NAMES) * 2 * 3 * len(SCALES)
    assert {r["status"] for r in recorded.values()} >= {"optimal", "infeasible"}


def test_every_report_number_matches_golden(recorded, computed):
    moved = [key for key in recorded if computed[key] != recorded[key]]
    assert not moved, f"{len(moved)} reports moved, first {moved[0]}: {computed[moved[0]]} != {recorded[moved[0]]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
