"""``model.compile_sweep`` writes, for every grid value, the rhs that
``compile_scenario(with_cap(value))`` writes, to the bit; ``lp.solve_rhs``
solves one program at every row of an rhs array as ``solve`` would, to
the bit; and ``analysis.sweep``, built on the two, still answers every
point as a per-point solve would.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from gridmix.analysis import sweep
from gridmix.catalog import CATALOG_NAMES, PUBLISHED, get_scenario
from gridmix.lp import Constraint, LinearProgram, Relation, Sense, Status, ValidationError, solve, solve_rhs
from gridmix.model import CAP_FIELDS, CoefficientVariant, ObjectiveMode, ScenarioError, compile_scenario, compile_sweep

from test_solve_many import bits, random_family

# A grid centre for caps that a catalog scenario leaves unset.
DEFAULT_CAPS = {
    "emissions_cap": PUBLISHED["emissions_cap_g"],
    "budget_cap": PUBLISHED["budget_cap_usd"],
    "land_cap": PUBLISHED["land_budget_ft2"],
    "rooftop_cap": PUBLISHED["rooftop_bound_mwh"],
}


def grid(centre: float) -> list[float]:
    """1e-3 .. ~3.2 x *centre*, plus values whose land bounds floor unevenly."""
    return [centre * 10.0 ** (e / 4) for e in range(-12, 3)] + [centre / 3.0, centre * 0.7071, 1.5, 1e-3]


def catalog_caps():
    for name in CATALOG_NAMES:
        for variant in CoefficientVariant:
            scenario = get_scenario(name, variant)
            for field in CAP_FIELDS.values():
                yield scenario, field


def hexes(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


# ---------------------------------------------------------------------------
# compile_sweep


def test_compile_sweep_writes_the_rhs_of_compile_scenario_on_every_catalog_cap():
    count = 0
    for scenario, field in catalog_caps():
        values = grid(getattr(scenario, field) or DEFAULT_CAPS[field])
        program, rhs = compile_sweep(scenario, field, values)
        assert program == compile_scenario(scenario.with_cap(field, values[0]))
        assert rhs.shape == (len(values), len(program.constraints))
        for value, row in zip(values, rhs):
            expected = compile_scenario(scenario.with_cap(field, value))
            assert hexes(row) == hexes(c.rhs for c in expected.constraints)
            count += 1
    assert count > 500


def test_compile_sweep_of_an_empty_grid_raises_scenario_error():
    with pytest.raises(ScenarioError):
        compile_sweep(get_scenario("m4_nuclear"), "land_cap", [])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_a_bad_grid_value_raises_the_scenario_error_of_with_cap(bad):
    scenario = get_scenario("m4_nuclear")
    with pytest.raises(ScenarioError) as direct:
        scenario.with_cap("land_cap", bad)
    values = [scenario.land_cap, bad, scenario.land_cap]
    with pytest.raises(ScenarioError) as compiled:
        compile_sweep(scenario, "land_cap", values)
    with pytest.raises(ScenarioError) as swept:
        sweep(scenario, "land_ft2", values)
    assert str(compiled.value) == str(swept.value) == str(direct.value)


# ---------------------------------------------------------------------------
# sweeps


def assert_sweep_matches_solve(scenario, parameter: str, values: list[float]) -> list:
    field = CAP_FIELDS[parameter]
    points = sweep(scenario, parameter, values)
    assert len(points) == len(values)
    for value, point in zip(values, points):
        solution = solve(compile_scenario(scenario.with_cap(field, value)))
        assert point.value == value and point.status is solution.status
        if solution.is_optimal:
            assert float.hex(point.objective) == float.hex(solution.objective_value)
            assert hexes(point.production) == hexes(solution.values)
        else:
            assert math.isnan(point.objective) and all(map(math.isnan, point.production))
    return points


def test_sweep_of_caps_unset_in_the_base_equals_per_point_solve():
    statuses = []
    for scenario, field in catalog_caps():
        if getattr(scenario, field) is not None:
            continue
        parameter = next(key for key, name in CAP_FIELDS.items() if name == field)
        for mode in ObjectiveMode:
            points = assert_sweep_matches_solve(scenario.with_objective(mode), parameter, grid(DEFAULT_CAPS[field]))
            statuses += [p.status for p in points]
    assert len(statuses) > 300
    assert set(statuses) == {Status.OPTIMAL, Status.INFEASIBLE}


def test_land_sweep_of_m0_adds_its_space_rows():
    scenario = get_scenario("m0_cost_only")
    values = grid(DEFAULT_CAPS["land_cap"])
    program, _ = compile_sweep(scenario, "land_cap", values)
    assert [c.label for c in compile_scenario(scenario).constraints] == ["demand"]
    assert [c.label for c in program.constraints] == ["demand"] + [f"space_{s}" for s in ("wind", "solar", "nuclear", "geothermal")]
    assert_sweep_matches_solve(scenario, "land_ft2", values)


# ---------------------------------------------------------------------------
# solve_rhs


def family_rhs(family: list[LinearProgram]) -> np.ndarray:
    return np.array([[c.rhs for c in program.constraints] for program in family])


def test_solve_rhs_equals_solve_on_seeded_rhs_families():
    rng = random.Random(20261019)
    statuses = set()
    for _ in range(150):
        family = random_family(rng, rng.randint(1, 25))
        solutions = solve_rhs(family[0], family_rhs(family))
        assert len(solutions) == len(family)
        for program, solution in zip(family, solutions):
            assert bits(solution) == bits(solve(program))
        statuses |= {s.status for s in solutions}
    assert statuses == set(Status)


def test_solve_rhs_across_a_sign_flip_of_the_standardized_rhs():
    # Output floor x1 >= 4 (a lower bound); the cap row x1 + x2 <= cap sweeps
    # below it, so its shifted rhs cap - 4 turns negative and the row flips;
    # the mix row's rhs crosses zero the other way.
    def program(cap: float, mix: float) -> LinearProgram:
        rows = (
            Constraint((1.0, 1.0), Relation.LE, cap, "cap"),
            Constraint((1.0, -1.0), Relation.GE, mix, "mix"),
        )
        return LinearProgram(Sense.MAXIMIZE, (1.0, 2.0), rows, 2, (4.0, 0.0))

    grid_rhs = [(10.0 - 0.5 * k, 3.0 - 0.5 * k) for k in range(21)]
    solutions = solve_rhs(program(*grid_rhs[0]), np.array(grid_rhs))
    for point, solution in zip(grid_rhs, solutions):
        assert bits(solution) == bits(solve(program(*point)))
    assert [s.status for s in solutions] == [Status.OPTIMAL] * 13 + [Status.INFEASIBLE] * 8


def test_solve_rhs_ignores_the_programs_own_rhs():
    scenario = get_scenario("m4_nuclear")
    values = grid(scenario.land_cap)
    program, rhs = compile_sweep(scenario, "land_cap", values)
    other = compile_scenario(scenario.with_cap("land_cap", values[-1]))
    assert [bits(s) for s in solve_rhs(program, rhs)] == [bits(s) for s in solve_rhs(other, rhs)]


def test_solve_rhs_checks_its_rhs():
    program = LinearProgram(Sense.MINIMIZE, (1.0, 1.0), (Constraint((1.0, 1.0), Relation.GE, 1.0, "floor"),), 2)
    assert solve_rhs(program, np.empty((0, 1))) == ()
    with pytest.raises(ValidationError):
        solve_rhs(program, np.ones((3, 2)))
    with pytest.raises(ValidationError):
        solve_rhs(program, np.ones(3))
    with pytest.raises(ValidationError) as raised:
        solve_rhs(program, np.array([[1.0], [math.inf]]))
    with pytest.raises(ValidationError) as direct:
        Constraint((1.0, 1.0), Relation.GE, math.inf, "floor")
    assert str(raised.value) == str(direct.value)
