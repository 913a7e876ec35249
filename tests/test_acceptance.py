"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gridmix.audit import audit_reference_results
from gridmix.catalog import builtin_scenarios, get_scenario
from gridmix.lp import Constraint, LinearProgram, Relation, Sense, Status, solve
from gridmix.model import CoefficientVariant, compile_scenario
from gridmix.oracle import check_feasible, corner_report, oracle_solve
from gridmix.parametric import sweep

AP = CoefficientVariant.AS_PRINTED
TD = CoefficientVariant.TABLE_DERIVED


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} FAIL  {summary}")
        raise
    print(f"criterion {number:>2} PASS  {summary}")


def best_solve_time(lp, repeats: int = 5) -> float:
    solve(lp)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solve(lp)
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_flat_demand_vertex():
    with criterion(1, "m1 optimum sits exactly on the demand vertex within $1,000"):
        lp = compile_scenario(get_scenario("m1_flat_demand", AP))
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.values == (25_621_059.0, 0.0)
        assert abs(sol.objective_value - 968_476_030.0) <= 1_000.0
        assert best_solve_time(lp) < 0.010


def test_criterion_02_cost_only_runs_on_gas():
    with criterion(2, "m0 assigns all production to the 37.50 $/MWh source"):
        scenario = get_scenario("m0_cost_only", AP)
        lp = compile_scenario(scenario)
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        rates = [s.lcoe for s in scenario.sources]
        cheapest = rates.index(min(rates))
        assert scenario.sources[cheapest].lcoe == 37.50
        total = sum(sol.values)
        assert sol.values[cheapest] == pytest.approx(total, rel=1e-12)
        assert all(v == 0.0 for i, v in enumerate(sol.values) if i != cheapest)
        # independent closed form: a demand-only LP prices at need x min rate
        assert sol.objective_value == pytest.approx(scenario.annual_need * 37.50, rel=1e-12)
        assert best_solve_time(lp) < 0.010


def test_criterion_03_period_demand_reproduction():
    with criterion(3, "m2 as-printed: rooftop bound binds, objective within 0.5%"):
        lp = compile_scenario(get_scenario("m2_period_demand", AP))
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert check_feasible(lp, sol.values).feasible
        assert sol.values[1] == pytest.approx(344_900.0, rel=1e-9)
        assert "space_solar" in sol.binding
        assert abs(sol.objective_value - 1_309_379_704.0) / 1_309_379_704.0 <= 0.005
        # the residual delta is the documented coefficient inconsistency
        table7 = audit_reference_results().table("7")
        assert table7.classification == "near"
        assert "early-wind-share" in table7.ledger


def test_criterion_04_shared_space_improves():
    with criterion(4, "m3 as-printed within 1.0% of the published value and below m2"):
        m2 = solve(compile_scenario(get_scenario("m2_period_demand", AP)))
        m3 = solve(compile_scenario(get_scenario("m3_shared_space", AP)))
        assert m3.status is Status.OPTIMAL
        assert abs(m3.objective_value - 1_168_449_731.0) / 1_168_449_731.0 <= 0.010
        assert m3.objective_value < m2.objective_value


def test_criterion_05_nuclear_only_under_space_pressure():
    with criterion(5, "m4: nuclear idle at the default cap, required at the tight cap"):
        scenario = get_scenario("m4_nuclear", AP)
        relaxed = dataclasses.replace(
            scenario,
            sources=tuple(
                dataclasses.replace(s, min_annual_output=0.0) for s in scenario.sources
            ),
        )
        relaxed_sol = solve(compile_scenario(relaxed))
        assert relaxed_sol.status is Status.OPTIMAL
        assert relaxed_sol.values[2] == 0.0

        tight_lp = compile_scenario(get_scenario("m4_tight_space", AP))
        tight_sol = solve(tight_lp)
        assert tight_sol.status is Status.OPTIMAL
        assert tight_sol.values[2] > 0.0
        land = next(
            c for c in check_feasible(tight_lp, tight_sol.values).checks if c.label == "land"
        )
        assert land.satisfied

        points = sweep(
            scenario, "land_ft2", list(np.linspace(205_898_600.0, 50_589_860_000.0, 20))
        )
        nuclear = [p.production[2] for p in points]
        assert all(p.status is Status.OPTIMAL for p in points)
        for a, b in zip(nuclear, nuclear[1:]):
            assert b <= a + 1e-6 * max(1.0, a)


def test_criterion_06_geothermal_structure():
    with criterion(6, "m5 as-printed: no solar, geothermal ahead of wind; table ledger-flagged"):
        sol = solve(compile_scenario(get_scenario("m5_geothermal", AP)))
        assert sol.status is Status.OPTIMAL
        wind, solar, geo = sol.values
        assert solar == 0.0
        assert geo > wind
        table10 = audit_reference_results().table("10")
        assert table10.point_feasible and not table10.point_is_vertex
        assert table10.classification == "discrepancy"
        assert table10.ledger


def test_criterion_07_corner_point_report():
    with criterion(7, "corner B reproduces both objective values within 0.1%, shared argmin"):
        scenario = get_scenario("a1_om_objective", AP)
        lp = compile_scenario(scenario)
        om = tuple(s.om_cost for s in scenario.sources)
        lcoe = tuple(s.lcoe for s in scenario.sources)
        rep = corner_report(lp, [("om", om), ("lcoe", lcoe)])
        assert rep.shared_argmin
        b = rep.rows[rep.argmin["om"]]
        assert b.point[0] == pytest.approx(24_862_479.0, rel=1e-6)
        assert b.point[1] == pytest.approx(3_900_512.0, rel=1e-6)
        assert abs(b.values["om"] - 333_464_655.0) / 333_464_655.0 <= 0.001
        assert abs(b.values["lcoe"] - 1_168_449_731.0) / 1_168_449_731.0 <= 0.001


def test_criterion_08_emissions_objective_all_wind():
    with criterion(8, "emissions-minimizing model uses wind exclusively"):
        sol = solve(compile_scenario(get_scenario("b1_min_emissions", AP)))
        assert sol.status is Status.OPTIMAL
        assert sol.values[1] == 0.0
        assert sol.values[0] > 0.0


def test_criterion_09_derivation_regression():
    with criterion(9, "derived constants within 0.5%; emissions-cap delta tabulated"):
        from gridmix.derivation import (
            annual_need,
            baseline_emissions,
            derive_all,
            land_budget,
            period_rhs,
            production_bound,
        )

        assert abs(annual_need(1_091_285_298.314, 0.07, 0.3354) - 25_621_059) / 25_621_059 < 0.005
        assert abs(land_budget(1.61457e12, 0.47, 1 / 15) - 50_589_860_000) / 50_589_860_000 < 0.005
        assert production_bound(50_589_860_000, 1065.6) == 47_475_469
        assert production_bound(70_532_107, 204.5) == 344_900
        for fraction, printed in ((0.2759, 7.069e6), (0.5149, 13.192e6), (0.2344, 6.006e6)):
            assert abs(period_rhs(25_621_059, fraction) - printed) / printed < 0.005
        mix = [(0.2099, 820_000), (0.1231, 490_000), (0.0004, 1_106_765), (0.0021, 230_000)]
        assert abs(baseline_emissions(mix, 76_389_561) - 17.83e12) / 17.83e12 < 0.005
        delta = derive_all().delta("emissions_cap_g")
        assert delta.recomputed == pytest.approx(3.565e12, rel=1e-3)
        assert delta.published == 3.578e12


def test_criterion_10_oracle_equivalence():
    with criterion(10, "simplex matches the vertex oracle on the catalog and 1,000 fuzz LPs"):
        started = time.perf_counter()
        for scenario in builtin_scenarios():
            lp = compile_scenario(scenario)
            if lp.var_count > 4:
                continue  # enumeration is capped at 4 variables; m0 is covered in criterion 2
            sol = solve(lp)
            oracle = oracle_solve(lp)
            assert sol.status is oracle.status, scenario.name
            if sol.status is Status.OPTIMAL:
                scale = max(1.0, abs(sol.objective_value), abs(oracle.objective))
                assert abs(sol.objective_value - oracle.objective) <= 1e-6 * scale

        rng = np.random.default_rng(20240817)
        relations = [Relation.LE, Relation.LE, Relation.GE, Relation.GE, Relation.EQ]
        for k in range(1_000):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 9))
            constraints = []
            for i in range(m):
                coeffs = np.round(rng.uniform(-10, 10, n), 3)
                if not np.any(coeffs):
                    coeffs[0] = 1.0
                constraints.append(
                    Constraint(
                        tuple(float(c) for c in coeffs),
                        relations[int(rng.integers(0, len(relations)))],
                        float(np.round(rng.uniform(-100, 100), 3)),
                        f"c{i}",
                    )
                )
            lp = LinearProgram(
                sense=Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE,
                objective=tuple(float(c) for c in np.round(rng.uniform(-10, 10, n), 3)),
                constraints=tuple(constraints),
                var_count=n,
            )
            sol = solve(lp)
            oracle = oracle_solve(lp)
            assert sol.status is oracle.status, f"fuzz case {k}"
            if sol.status is Status.OPTIMAL:
                scale = max(1.0, abs(sol.objective_value), abs(oracle.objective))
                assert abs(sol.objective_value - oracle.objective) <= 1e-6 * scale, f"fuzz case {k}"
        assert time.perf_counter() - started < 60.0
