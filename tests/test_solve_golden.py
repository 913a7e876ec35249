"""Bit-exact solve golden: every Solution field of a fixed LP set must stay
identical to the recorded file, to the last bit of every float.

The LP set is every catalog scenario in both coefficient variants, under
each objective mode, at demand scales 1/4, 1 and 8 (annual need, pinned
period demand and every cap multiplied by the scale). Floats are stored
with ``float.hex``, so the comparison is exact. The recorded file was
written from the solver before its hot path was rewritten to make fewer
numpy calls; it pins status, values, objective, activities, the binding
set and the iteration count. Activities and objectives come from numpy's
``@`` and ``np.dot``, so a BLAS that sums short products in another order
could move their last bits; the file was written with numpy 2.4 and
OpenBLAS on x86-64. A cold ``solve``, which never imports numpy, reaches
the same OpenBLAS ``ddot`` and ``dgemv`` through ``ctypes`` (the list
form of ``gridmix.lp``), so the golden still depends on this CPU's
OpenBLAS kernels, as it did before. Regenerate it only when a change to
the solver's arithmetic is intended:

    PYTHONPATH=src python tests/test_solve_golden.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridmix.catalog import CATALOG_NAMES, get_scenario
from gridmix.lp import solve
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario

GOLDEN = Path(__file__).parent / "data" / "solve_golden.json"
SCALES = (0.25, 1.0, 8.0)
CAPS = ("emissions_cap", "budget_cap", "land_cap", "rooftop_cap")


def scaled(scenario, k: float):
    caps = {c: getattr(scenario, c) * k for c in CAPS if getattr(scenario, c) is not None}
    periods = tuple(
        replace(p, demand_mwh=p.demand_mwh * k) if p.demand_mwh is not None else p
        for p in scenario.periods
    )
    return replace(scenario, annual_need=scenario.annual_need * k, periods=periods, **caps)


def golden_cases() -> list[tuple[str, str, str, float]]:
    return [
        (name, variant.value, mode.value, k)
        for name in CATALOG_NAMES
        for variant in CoefficientVariant
        for mode in ObjectiveMode
        for k in SCALES
    ]


def capture(case: tuple[str, str, str, float]) -> dict:
    name, variant, mode, k = case
    scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
    solution = solve(compile_scenario(scaled(scenario, k)))
    return {
        "case": list(case),
        "status": solution.status.value,
        "values": [float.hex(v) for v in solution.values],
        "objective": float.hex(solution.objective_value),
        "activities": [float.hex(a) for a in solution.activities],
        "binding": sorted(solution.binding),
        "iterations": solution.iterations,
    }


@pytest.fixture(scope="module")
def recorded() -> dict[tuple, dict]:
    return {tuple(entry["case"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_the_case_list(recorded):
    assert list(recorded) == golden_cases()


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: "-".join(map(str, c)))
def test_solution_matches_golden_bit_for_bit(case, recorded):
    assert capture(case) == recorded[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([capture(c) for c in golden_cases()], indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
