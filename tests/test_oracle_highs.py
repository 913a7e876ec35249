"""The vertex oracle against HiGHS on the catalog at every demand scale,
and against the simplex on LPs whose rows span the north star's
coefficient range, 1e-2 to 1e13.

HiGHS is called through ``scipy.optimize.linprog`` directly; the tier is
skipped where scipy is missing.
"""

import dataclasses

import numpy as np
import pytest

from gridmix.catalog import builtin_scenarios, get_scenario
from gridmix.lp import Constraint, LinearProgram, Relation, Sense, Status, solve
from gridmix.model import ObjectiveMode, compile_scenario
from gridmix.oracle import oracle_solve

linprog = pytest.importorskip("scipy.optimize").linprog

DEMAND_SCALES = (0.25, 0.5, 1.0, 2.0, 2.5, 4.0, 8.0, 16.0, 40.0)
CAPS = ("emissions_cap", "budget_cap", "land_cap", "rooftop_cap")
REL_TOL = 1e-6
_HIGHS_STATUS = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}


def highs(lp: LinearProgram) -> tuple[Status, float | None]:
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in lp.constraints:
        if c.relation is Relation.EQ:
            a_eq.append(c.coefficients)
            b_eq.append(c.rhs)
        else:
            flip = 1.0 if c.relation is Relation.LE else -1.0
            a_ub.append([flip * a for a in c.coefficients])
            b_ub.append(flip * c.rhs)
    sign = 1.0 if lp.sense is Sense.MINIMIZE else -1.0
    result = linprog(
        [sign * c for c in lp.objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(b, None) for b in lp.lower_bounds],
        method="highs",
    )
    status = _HIGHS_STATUS[result.status]
    return status, sign * result.fun if status is Status.OPTIMAL else None


def agrees(status: Status, objective: float | None, expected: Status, expected_objective: float | None) -> bool:
    if status is not expected:
        return False
    if status is not Status.OPTIMAL:
        return True
    return abs(objective - expected_objective) <= REL_TOL * max(1.0, abs(expected_objective))


def scaled(scenario, k: float):
    """*scenario* with every right-hand-side quantity multiplied by *k*:
    demand, pinned period demand, caps, rooftop allowances and floors."""
    caps = {c: getattr(scenario, c) * k for c in CAPS if getattr(scenario, c) is not None}
    periods = tuple(
        dataclasses.replace(p, demand_mwh=p.demand_mwh * k) if p.demand_mwh is not None else p
        for p in scenario.periods
    )
    sources = tuple(
        dataclasses.replace(s, rooftop_allowance=s.rooftop_allowance * k, min_annual_output=s.min_annual_output * k)
        for s in scenario.sources
    )
    return dataclasses.replace(
        scenario, annual_need=scenario.annual_need * k, periods=periods, sources=sources, **caps
    )


def catalog_programs():
    for scenario in builtin_scenarios():
        if len(scenario.sources) > 4:
            continue
        for mode in ObjectiveMode:
            for k in DEMAND_SCALES:
                name = f"{scenario.name}/{scenario.coefficient_variant.value}/{mode.value}/x{k}"
                yield name, compile_scenario(scaled(scenario.with_objective(mode), k))


def test_catalog_at_every_demand_scale_agrees_with_highs():
    programs = list(catalog_programs())
    assert len(programs) == 432
    misses = []
    for name, lp in programs:
        expected = highs(lp)
        oracle = oracle_solve(lp)
        if not agrees(oracle.status, oracle.objective, *expected):
            misses.append(f"{name}: oracle {oracle.status.value} {oracle.objective}, HiGHS {expected}")
    assert misses == [], f"{len(misses)} disagreements, e.g. {misses[:3]}"


def test_zero_cost_optimal_face_is_optimal_however_far_it_reaches():
    # Under the om objective m5_geothermal's geothermal output costs 0, so
    # the optimal face is a ray of zero-cost points: optimal, objective 0.
    for k in (1.0, 4.0, 40.0):
        scenario = scaled(get_scenario("m5_geothermal").with_objective(ObjectiveMode.OM_ONLY), k)
        oracle = oracle_solve(compile_scenario(scenario))
        assert (oracle.status, oracle.objective) == (Status.OPTIMAL, 0.0), k


def test_flat_demand_beyond_the_catalog_scale_is_optimal():
    scenario = dataclasses.replace(
        get_scenario("m1_flat_demand"), annual_need=2e8, land_cap=1e13, emissions_cap=1e20, budget_cap=1e20
    )
    lp = compile_scenario(scenario)
    solution = solve(lp)
    oracle = oracle_solve(lp)
    assert solution.status is Status.OPTIMAL
    assert solution.objective_value == pytest.approx(7.56e9, rel=1e-3)
    assert agrees(oracle.status, oracle.objective, *highs(lp))
    assert agrees(oracle.status, oracle.objective, solution.status, solution.objective_value)
    assert max(oracle.point) > 1e8


RELATIONS = (Relation.LE, Relation.GE, Relation.EQ)


def scale_stratified_program(rng: np.random.Generator) -> LinearProgram:
    """A random LP on a point scale X in 1..1e9 whose rows are each
    multiplied by their own factor in 1e-2..1e13, with mixed relations,
    either sense and some positive lower bounds."""
    n = int(rng.integers(1, 5))
    x_scale = 10.0 ** rng.uniform(0.0, 9.0)
    constraints = []
    for i in range(int(rng.integers(1, 8))):
        row_scale = 10.0 ** rng.uniform(-2.0, 13.0)
        coefficients = np.round(rng.uniform(-10.0, 10.0, n), 3)
        if not coefficients.any():
            coefficients[0] = 1.0
        rhs = float(np.round(rng.uniform(-100.0, 100.0), 3)) * x_scale * row_scale
        constraints.append(
            Constraint(
                tuple(float(a) * row_scale for a in coefficients),
                RELATIONS[int(rng.integers(0, 3))],
                rhs,
                f"c{i}",
            )
        )
    bounds = np.round(rng.uniform(0.0, 10.0, n), 3) * x_scale * (rng.random(n) < 0.3)
    objective = np.round(rng.uniform(-10.0, 10.0, n), 3) * 10.0 ** rng.uniform(-2.0, 3.0)
    return LinearProgram(
        sense=Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE,
        objective=tuple(float(c) for c in objective),
        constraints=tuple(constraints),
        var_count=n,
        lower_bounds=tuple(float(b) for b in bounds),
    )


def test_oracle_equals_the_simplex_on_rows_scaled_from_1e_minus_2_to_1e13():
    rng = np.random.default_rng(20261018)
    statuses = dict.fromkeys(Status, 0)
    misses = []
    for k in range(2_000):
        lp = scale_stratified_program(rng)
        solution = solve(lp)
        oracle = oracle_solve(lp)
        statuses[solution.status] += 1
        if not agrees(oracle.status, oracle.objective, solution.status, solution.objective_value):
            misses.append(f"case {k}: oracle {oracle.status.value} {oracle.objective}, simplex "
                          f"{solution.status.value} {solution.objective_value}")
    assert misses == [], f"{len(misses)} disagreements, e.g. {misses[:3]}"
    assert min(statuses.values()) >= 200, statuses
