"""``solve_many`` returns, for every program, the Solution ``solve`` returns,
to the last bit of every float, whatever the mix of shapes, statuses and
rhs signs in the batch; and ``analysis.sweep``, which is built on it,
still answers every grid point as a per-point solve would.
"""

from __future__ import annotations

import math
import random

import pytest

from gridmix import cli
from gridmix import lp as lp_module
from gridmix.analysis import CAP_FIELDS, sweep
from gridmix.catalog import CATALOG_NAMES, get_scenario
from gridmix.lp import Constraint, LinearProgram, LPError, Relation, Sense, Status, solve, solve_many
from gridmix.model import CoefficientVariant, ObjectiveMode, ScenarioError, compile_scenario

from test_solve_golden import golden_cases, scaled


def bits(solution) -> tuple:
    return (
        solution.status,
        [float.hex(v) for v in solution.values],
        float.hex(solution.objective_value),
        [float.hex(a) for a in solution.activities],
        sorted(solution.binding),
        solution.iterations,
    )


def assert_same_as_solve(programs) -> tuple:
    many = solve_many(programs)
    assert len(many) == len(programs)
    for program, solution in zip(programs, many):
        assert bits(solution) == bits(solve(program))
    return many


# ---------------------------------------------------------------------------
# batches of LPs


def test_solve_golden_lps_as_one_mixed_batch():
    programs = []
    for name, variant, mode, k in golden_cases():
        scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
        programs.append(compile_scenario(scaled(scenario, k)))
    many = assert_same_as_solve(programs)
    assert {s.status for s in many} == {Status.OPTIMAL, Status.INFEASIBLE}


def random_family(rng: random.Random, size: int) -> list[LinearProgram]:
    """Programs equal but for their rhs: one row swept across zero, the
    others jittered. Mixed relations, negative rhs, lower bounds, both
    senses, and sometimes a duplicated (redundant) row."""
    n = rng.randint(1, 4)
    rows = []
    for i in range(rng.randint(1, 5)):
        coefficients = [rng.choice([0.0, float(rng.randint(-3, 3)), rng.uniform(-10, 10)]) for _ in range(n)]
        if not any(coefficients):
            coefficients[0] = 1.0
        rows.append((tuple(coefficients), rng.choice(list(Relation)), rng.uniform(-50, 100), f"r{i}"))
    if len(rows) > 1 and rng.random() < 0.3:
        rows.append((rows[0][0], rows[0][1], rows[0][2], "again"))
    objective = tuple(rng.uniform(-5, 5) for _ in range(n))
    lower = tuple(rng.choice([0.0, 0.0, rng.uniform(0.0, 5.0)]) for _ in range(n))
    sense = rng.choice(list(Sense))
    swept = rng.randrange(len(rows))
    lo, hi = rng.uniform(-100.0, 0.0), rng.uniform(0.0, 200.0)
    family = []
    for k in range(size):
        constraints = []
        for i, (coefficients, relation, rhs, label) in enumerate(rows):
            if i == swept:
                rhs = lo + (hi - lo) * k / max(1, size - 1)
            elif rng.random() < 0.2:
                rhs *= rng.uniform(0.5, 1.5)
            constraints.append(Constraint(coefficients, relation, rhs, label))
        family.append(LinearProgram(sense, objective, tuple(constraints), n, lower))
    return family


def test_seeded_rhs_families_match_solve():
    rng = random.Random(20261018)
    families = [random_family(rng, rng.randint(1, 25)) for _ in range(150)]
    statuses = set()
    for family in families:
        statuses |= {s.status for s in assert_same_as_solve(family)}
    assert statuses == set(Status)
    # and all of them at once, interleaved, as one mixed-shape batch
    batch = [p for group in zip(*(f * 25 for f in families)) for p in group][:2000]
    assert_same_as_solve(batch)


def test_family_whose_sign_pattern_flips_mid_grid():
    # Output floor x1 >= 4 (a lower bound); the cap row x1 + x2 <= cap sweeps
    # below it, so its shifted rhs cap - 4 turns negative and the row flips.
    caps = [10.0 - 0.5 * k for k in range(21)]
    programs = [
        LinearProgram(
            Sense.MAXIMIZE,
            (1.0, 2.0),
            (
                Constraint((1.0, 1.0), Relation.LE, cap, "cap"),
                Constraint((1.0, -1.0), Relation.GE, -3.0, "mix"),
            ),
            2,
            (4.0, 0.0),
        )
        for cap in caps
    ]
    many = assert_same_as_solve(programs)
    # feasible while cap >= 4
    assert [s.status for s in many] == [Status.OPTIMAL] * 13 + [Status.INFEASIBLE] * 8


def test_infeasible_unbounded_and_redundant_members_in_one_family():
    def program(rhs: float) -> LinearProgram:
        return LinearProgram(
            Sense.MINIMIZE,
            (-1.0, 1.0),
            (
                Constraint((1.0, -1.0), Relation.LE, rhs, "gap"),
                Constraint((1.0, 1.0), Relation.EQ, 2.0, "sum"),
                Constraint((2.0, 2.0), Relation.EQ, 4.0, "sum twice"),
                Constraint((1.0, 0.0), Relation.LE, 2.0 + rhs, "cap"),
            ),
            2,
        )

    many = assert_same_as_solve([program(r) for r in (-5.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)])
    assert many[0].status is Status.INFEASIBLE
    assert many[-1].status is Status.OPTIMAL
    unbounded = LinearProgram(Sense.MAXIMIZE, (1.0, 0.0), (Constraint((0.0, 1.0), Relation.LE, 1.0, "y"),), 2)
    bounded = LinearProgram(Sense.MAXIMIZE, (1.0, 0.0), (Constraint((1.0, 1.0), Relation.LE, 1.0, "y"),), 2)
    assert [s.status for s in assert_same_as_solve([unbounded, bounded, unbounded])] == [
        Status.UNBOUNDED, Status.OPTIMAL, Status.UNBOUNDED,
    ]


def test_programs_without_constraints():
    free = LinearProgram(Sense.MINIMIZE, (1.0, 2.0), (), 2, (1.0, 3.0))
    unbounded = LinearProgram(Sense.MAXIMIZE, (1.0, 2.0), (), 2)
    assert [s.status for s in assert_same_as_solve([free, unbounded, free])] == [
        Status.OPTIMAL, Status.UNBOUNDED, Status.OPTIMAL,
    ]


def test_empty_batch():
    assert solve_many([]) == ()


def test_signed_zero_coefficients_do_not_share_a_tableau():
    def program(zero: float, rhs: float) -> LinearProgram:
        floor = Constraint((1.0, zero), Relation.GE, rhs, "floor")
        return LinearProgram(Sense.MINIMIZE, (1.0, 1.0), (floor,), 2)

    assert_same_as_solve([program(0.0, 1.0), program(-0.0, 2.0), program(0.0, -0.0), program(-0.0, -0.0)])


def test_errors_are_those_of_solve(monkeypatch):
    monkeypatch.setattr(lp_module, "MAX_ITER", 0)
    program = LinearProgram(Sense.MAXIMIZE, (1.0,), (Constraint((1.0,), Relation.LE, 1.0, "cap"),), 1)
    with pytest.raises(LPError) as raised:
        solve(program)
    with pytest.raises(type(raised.value), match=str(raised.value)):
        solve_many([program, program])


# ---------------------------------------------------------------------------
# the Bland fallback inside a block


# A degenerate LP (every rhs 0) on which Dantzig's rule cycles in phase 2,
# found by a seeded search over small-integer LPs with mixed relations, plus
# one independent row y <= t. With t = 0 it is degenerate throughout and the
# stall counter reaches 2(m+n) after 52 pivots; with t > 0 the first phase-2
# pivot (y enters) makes progress, so the same cycle reaches the limit one
# pivot later.
CYCLING_OBJECTIVE = (-1.0, -1.0, -3.0, 4.0, -4.0, 2.0, -10.0)
CYCLING_ROWS = (
    ((4.0, 0.0, -1.0, 2.0, 0.0, -2.0), Relation.LE),
    ((1.0, 0.0, 3.0, -1.0, 1.0, -3.0), Relation.EQ),
    ((-1.0, -1.0, 1.0, 3.0, 0.0, -1.0), Relation.EQ),
    ((3.0, 1.0, 3.0, 3.0, 3.0, 3.0), Relation.LE),
    ((3.0, -1.0, -2.0, 1.0, 4.0, -4.0), Relation.GE),
    ((-3.0, -4.0, 2.0, -4.0, -2.0, -1.0), Relation.GE),
    ((-4.0, -2.0, -1.0, -3.0, -2.0, 4.0), Relation.GE),
)


def cycling_program(t: float) -> LinearProgram:
    rows = [Constraint((*a, 0.0), relation, 0.0, f"r{i}") for i, (a, relation) in enumerate(CYCLING_ROWS)]
    rows.append(Constraint((0.0,) * 6 + (1.0,), Relation.LE, t, "y"))
    return LinearProgram(Sense.MINIMIZE, CYCLING_OBJECTIVE, tuple(rows), 7)


@pytest.fixture
def pivot_log(monkeypatch):
    """Every pivot_rule call as (rhs columns of the tableau, bland flag)."""
    calls = []
    rule = lp_module.pivot_rule

    def logged(tableau, *, bland=False):
        calls.append((tableau.ids, bland))
        return rule(tableau, bland=bland)

    monkeypatch.setattr(lp_module, "pivot_rule", logged)
    return calls


def test_bland_fallback_engages_inside_solve(pivot_log):
    solution = solve(cycling_program(0.0))
    assert solution.status is Status.OPTIMAL and solution.iterations == 54
    assert [bland for _, bland in pivot_log].count(True) == 2


def test_block_splits_on_the_bland_flag_with_the_bits_of_solve(pivot_log):
    family = [cycling_program(t) for t in (0.0, 1.0, 2.5)]
    assert_same_as_solve(family)
    pivot_log.clear()
    solve_many(family)
    last_shared = max(i for i, (ids, _) in enumerate(pivot_log) if ids == (0, 1, 2))
    first_apart = min(i for i, (ids, _) in enumerate(pivot_log) if ids == (1, 2))
    # The t = 0 column leads the block into Bland's rule while the others
    # still run Dantzig's, so they leave with their own flag ...
    assert pivot_log[last_shared] == ((0, 1, 2), True)
    assert pivot_log[first_apart] == ((1, 2), False)
    # ... and reach the limit themselves one pivot later.
    assert pivot_log[first_apart + 1] == ((1, 2), True)


# ---------------------------------------------------------------------------
# sweeps


def sweep_cases():
    for name in CATALOG_NAMES:
        for variant in CoefficientVariant:
            for mode in ObjectiveMode:
                scenario = get_scenario(name, variant).with_objective(mode)
                for parameter, field in CAP_FIELDS.items():
                    if getattr(scenario, field) is not None:
                        yield scenario, parameter, field


def test_sweep_equals_per_point_solve_on_every_catalog_cap():
    count = 0
    for scenario, parameter, field in sweep_cases():
        cap = getattr(scenario, field)
        values = [cap * 10.0 ** (e / 4) for e in range(-12, 3)]   # 1e-3 .. ~3.2 x the cap
        points = sweep(scenario, parameter, values)
        for value, point in zip(values, points):
            solution = solve(compile_scenario(scenario.with_cap(field, value)))
            assert point.value == value and point.status is solution.status
            if solution.is_optimal:
                assert float.hex(point.objective) == float.hex(solution.objective_value)
                assert [float.hex(v) for v in point.production] == [float.hex(v) for v in solution.values]
            else:
                assert math.isnan(point.objective) and all(map(math.isnan, point.production))
        count += len(values)
    assert count > 1000


def test_sweep_of_an_empty_and_a_one_point_grid():
    scenario = get_scenario("m4_nuclear")
    assert sweep(scenario, "land_ft2", []) == ()
    (point,) = sweep(scenario, "land_ft2", [scenario.land_cap])
    solution = solve(compile_scenario(scenario))
    assert point.objective == solution.objective_value and point.production == solution.values


def test_sweep_grid_with_a_cap_at_or_below_zero_raises_scenario_error():
    scenario = get_scenario("m1_flat_demand")
    for bad in (0.0, -1.0):
        with pytest.raises(ScenarioError) as swept:
            sweep(scenario, "emissions_g", [scenario.emissions_cap, bad, scenario.emissions_cap])
        with pytest.raises(ScenarioError) as direct:
            scenario.with_cap("emissions_cap", bad)
        assert str(swept.value) == str(direct.value)


def test_cli_sweep_from_zero_exits_1(capsys):
    code = cli.main(
        ["sweep", "m1_flat_demand", "--param", "emissions_g", "--from", "0", "--to", "1e12", "--steps", "5"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "gridmix: error:" in captured.err and "emissions_cap must be > 0" in captured.err
