"""``model.compile_sweep`` writes, for every grid value, the rhs that
``compile_scenario(with_cap(value))`` writes, to the bit; ``lp.solve_rhs``
solves one program at every row of an rhs array as ``solve`` would, to
the bit; and ``analysis.sweep``, built on the two, still answers every
point as a per-point solve would.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from gridmix import lp as lp_module
from gridmix.analysis import sweep
from gridmix.catalog import CATALOG_NAMES, PUBLISHED, get_scenario
from gridmix.lp import (
    Constraint, LinearProgram, LPError, Relation, Rows, Sense, Status, ValidationError, solve, solve_many, solve_rhs,
)
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


# The benchmark's four long-grid families: each block holds up to 1000
# columns, so its splits, its phase-1 verdict and its read-out all run on
# wide arrays.
LONG_GRIDS = [
    ("m4_nuclear", CoefficientVariant.AS_PRINTED, "land_cap"),
    ("m3_shared_space", CoefficientVariant.TABLE_DERIVED, "emissions_cap"),
    ("m5_geothermal", CoefficientVariant.AS_PRINTED, "budget_cap"),
    ("m2_period_demand", CoefficientVariant.TABLE_DERIVED, "rooftop_cap"),
]


@pytest.mark.parametrize("name, variant, field", LONG_GRIDS)
def test_solve_rhs_on_a_1000_point_grid_equals_solve(name, variant, field):
    scenario = get_scenario(name, variant)
    cap = getattr(scenario, field)
    values = [cap * (0.2 + 2.0 * i / 999) for i in range(1000)]
    solutions = solve_rhs(*compile_sweep(scenario, field, values))
    assert len(solutions) == len(values)
    for value, solution in zip(values, solutions):
        assert bits(solution) == bits(solve(compile_scenario(scenario.with_cap(field, value))))


def test_one_variable_optimum_at_zero_keeps_the_objective_sign_of_solve():
    # max -2x s.t. x <= b: x = 0, and np.dot's bare product -2 * 0.0 is -0.0.
    def program(b: float) -> LinearProgram:
        return LinearProgram(Sense.MAXIMIZE, (-2.0,), (Constraint((1.0,), Relation.LE, b, "cap"),), 1)

    grid_rhs = [[1.0 + k] for k in range(30)]
    solutions = solve_rhs(program(1.0), np.array(grid_rhs))
    for (b,), solution in zip(grid_rhs, solutions):
        direct = solve(program(b))
        assert float.hex(direct.objective_value) == "-0x0.0p+0"
        assert bits(solution) == bits(direct)


def assert_builtin_fields(solution) -> None:
    assert type(solution.status) is Status and type(solution.iterations) is int
    assert type(solution.objective_value) is float
    assert type(solution.values) is tuple and all(type(v) is float for v in solution.values)
    assert type(solution.activities) is tuple and all(type(a) is float for a in solution.activities)
    assert type(solution.binding) is frozenset and all(type(label) is str for label in solution.binding)


def test_solutions_hold_builtin_types_not_numpy_scalars():
    rng = random.Random(20261018)
    families = [random_family(rng, rng.randint(2, 25)) for _ in range(40)]
    # Only lower bounds: the optimum is the shift itself, or unbounded.
    for sense, objective in ((Sense.MINIMIZE, (1.0, 0.5)), (Sense.MAXIMIZE, (-1.0, 0.0)), (Sense.MINIMIZE, (1.0, -0.5))):
        families.append([LinearProgram(sense, objective, (), 2, (lower, 2.0)) for lower in (0.0, 1.5, 3.0)])
    statuses = set()
    for family in families:
        rhs = family_rhs(family).reshape(len(family), len(family[0].constraints))
        for solution in (*solve_rhs(family[0], rhs), *solve_many(family)):
            assert_builtin_fields(solution)
            statuses.add((solution.status, bool(family[0].constraints)))
    assert statuses == {(status, constrained) for status in Status for constrained in (True, False)} - {
        (Status.INFEASIBLE, False)
    }


# ---------------------------------------------------------------------------
# the solved block: sign codes and the sweep's read-out


def test_solve_rhs_on_more_than_64_rows_with_mixed_sign_patterns_equals_solve():
    # Each of the first 40 points puts its own anchor inside every row, so
    # it is feasible, and a row's rhs takes the sign of its coefficients'
    # dot product with the anchor, which differs from point to point. The
    # points after them copy one of them with a single row's rhs negated,
    # rows 64-69 included: a sign code that kept only 64 rows would put
    # such a copy in the tableau of the point it copies.
    rng = random.Random(20261021)
    n, m = 3, 70
    rows = [(tuple(rng.uniform(-1.0, 1.0) for _ in range(n)), rng.choice((Relation.LE, Relation.GE))) for _ in range(m)]
    given = []
    for _ in range(40):
        anchor = [rng.uniform(0.5, 3.0) for _ in range(n)]
        slack = [rng.uniform(0.0, 0.3) for _ in range(m)]
        given.append([
            sum(a * x for a, x in zip(coefficients, anchor)) + (s if relation is Relation.LE else -s)
            for (coefficients, relation), s in zip(rows, slack)
        ])
    for row in (0, 7, 8, 63, 64, 66, 69):
        for k in (3, 17):
            copy = list(given[k])
            copy[row] = -copy[row]
            given.append(copy)

    def program(rhs: list[float]) -> LinearProgram:
        constraints = tuple(
            Constraint(coefficients, relation, b, f"r{i}") for i, ((coefficients, relation), b) in enumerate(zip(rows, rhs))
        )
        return LinearProgram(Sense.MINIMIZE, (1.0, 2.0, 0.5), constraints, n)

    rhs = np.array(given)
    patterns = {tuple(signs) for signs in (rhs < 0.0).tolist()}
    assert len(patterns) > 40 and len({p[64:] for p in patterns}) > 1
    solutions = solve_rhs(program(given[0]), rhs)
    for point, solution in zip(given, solutions):
        assert bits(solution) == bits(solve(program(point)))
    statuses = [s.status for s in solutions]
    assert statuses.count(Status.OPTIMAL) >= 40 and Status.INFEASIBLE in statuses


def test_sweep_points_hold_builtin_types_not_numpy_scalars():
    statuses = set()
    for scenario, field in catalog_caps():
        parameter = next(key for key, name in CAP_FIELDS.items() if name == field)
        for point in sweep(scenario, parameter, grid(getattr(scenario, field) or DEFAULT_CAPS[field])):
            assert type(point.value) is float and type(point.status) is Status
            assert type(point.objective) is float
            assert type(point.production) is tuple and all(type(v) is float for v in point.production)
            assert len(point.production) == len(scenario.sources)
            if point.status is not Status.OPTIMAL:
                assert math.isnan(point.objective) and all(map(math.isnan, point.production))
            statuses.add(point.status)
    assert statuses == {Status.OPTIMAL, Status.INFEASIBLE}


def test_compiled_rows_raise_nothing_from_the_binding_test_a_sweep_skips():
    # solve_rhs adds binding sets that a sweep never builds. Only an = row
    # can raise there: its sense 0 times an activity past the float range
    # is 0 * inf. Every compiled program, swept caps included, has <= and
    # >= rows only, so a sweep drops no error by skipping them.
    for scenario, field in catalog_caps():
        for mode in ObjectiveMode:
            values = [getattr(scenario, field) or DEFAULT_CAPS[field]]
            program, _ = compile_sweep(scenario.with_objective(mode), field, values)
            assert {c.relation for c in program.constraints} <= {Relation.LE, Relation.GE}
    rhs = np.array([[1.0, 1e300]])
    activity = np.array([[math.inf, math.inf]])
    with np.errstate(all="raise"):
        satisfied = lp_module._check_activity(Rows(np.eye(2), rhs, np.array([-1.0, 1.0])), activity)[2]
        assert satisfied.tolist() == [[True, False]]
        with pytest.raises(FloatingPointError):
            lp_module._check_activity(Rows(np.eye(2), rhs, np.array([0.0, 1.0])), activity)


def test_sweep_raises_lp_error_when_an_objective_overflows():
    scenario = get_scenario("m4_nuclear")
    wind = dataclasses.replace(scenario.sources[0], lcoe=1e308)
    huge = dataclasses.replace(scenario, sources=(wind, *scenario.sources[1:]))
    values = grid(scenario.land_cap)
    with pytest.raises(LPError, match="^the input's magnitudes are out of range") as swept:
        sweep(huge, "land_ft2", values)
    with pytest.raises(LPError) as solved:
        solve_rhs(*compile_sweep(huge, "land_cap", values))
    assert str(swept.value) == str(solved.value)


def test_solve_rhs_reads_every_row_out_through_build_solution(monkeypatch):
    # One read-out for both entry points: each row, infeasible or optimal,
    # is one _build_solution call against that row's rhs and the bounds.
    calls = []
    original = lp_module._build_solution

    def counted(program, rows, *rest):
        calls.append(rows.rhs.tolist())
        return original(program, rows, *rest)

    monkeypatch.setattr(lp_module, "_build_solution", counted)
    program, rhs = compile_sweep(get_scenario("m4_nuclear", CoefficientVariant.TABLE_DERIVED), "land_cap", [1e6, 5e10])
    statuses = [s.status for s in solve_rhs(program, rhs)]
    assert statuses == [Status.INFEASIBLE, Status.OPTIMAL]
    assert calls == [[*row, *program.lower_bounds] for row in rhs.tolist()]


def test_solve_and_solve_rhs_refuse_an_overflowing_activity_alike():
    # The optimum (1e10, 0) and its objective are finite, but the second
    # row's activity 1e300 * 1e10 is past the float range.
    program = LinearProgram(
        Sense.MINIMIZE,
        (1.0, 1.0),
        (Constraint((1.0, 0.0), Relation.GE, 1e10, "floor"), Constraint((1e300, 0.0), Relation.GE, 1.0, "huge")),
        2,
    )
    with pytest.raises(LPError) as solved:
        solve(program)
    with pytest.raises(LPError) as stacked:
        solve_rhs(program, np.array([[1e10, 1.0]]))
    for caught in (solved, stacked):
        assert not isinstance(caught.value, FloatingPointError)
        assert str(caught.value).startswith("the input's magnitudes are out of range")
    assert str(solved.value) == str(stacked.value)
