"""Analysis tests: vertex oracle, corner reports, sweeps, and the audit."""

import dataclasses
import math

import numpy as np
import pytest

from gridmix import analysis
from gridmix.analysis import (
    CAP_FIELDS,
    CORNER_A,
    CORNER_B,
    CORNER_D,
    DISCREPANCIES,
    SweepPoint,
    UnsupportedSizeError,
    audit_reference_results,
    corner_report,
    enumerate_vertices,
    oracle_solve,
    sweep,
    _near,
)
from gridmix.catalog import CATALOG_NAMES, PUBLISHED, builtin_scenarios, get_scenario
from gridmix.lp import Constraint, LinearProgram, LPError, Relation, Sense, Status, check_feasible, solve
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario, compile_sweep

AP = CoefficientVariant.AS_PRINTED
TD = CoefficientVariant.TABLE_DERIVED


def contains_point(vertices, point, tol=1e-6):
    p = np.asarray(point)
    for v in vertices:
        q = np.asarray(v.point)
        span = max(1.0, float(np.max(np.abs(p))), float(np.max(np.abs(q))))
        if float(np.max(np.abs(p - q))) <= tol * span:
            return True
    return False


# ---------------------------------------------------------------------------
# enumerate_vertices


def test_single_constraint_single_variable():
    lp = LinearProgram(
        sense=Sense.MINIMIZE,
        objective=(1.0,),
        constraints=(Constraint((1.0,), Relation.GE, 5.0, "floor"),),
        var_count=1,
    )
    vertices = enumerate_vertices(lp)
    assert [v.point for v in vertices] == [(5.0,)]
    assert vertices[0].binding == {"floor"}


def test_corner_region_includes_published_vertices():
    lp = compile_scenario(get_scenario("a1_om_objective", AP))
    vertices = enumerate_vertices(lp)
    assert contains_point(vertices, (24_862_479.0, 3_900_512.0))   # corner B
    assert contains_point(vertices, (47_475_469.0, 0.0))           # corner D
    assert contains_point(vertices, (21_812_415.0, 77_102_051.0))  # corner A


def test_m1_vertex_minimum_matches_simplex():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    vertices = enumerate_vertices(lp)
    sol = solve(lp)
    assert min(v.objective for v in vertices) == pytest.approx(
        sol.objective_value, rel=1e-6
    )


def test_subset_cap_counts_row_subsets_before_building_any(monkeypatch):
    # 4 variables, 100 constraint rows and 4 bound rows: C(104, 4) subsets.
    lp = LinearProgram(
        sense=Sense.MINIMIZE,
        objective=(1.0,) * 4,
        constraints=tuple(
            Constraint((1.0, float(i), 0.0, 1.0), Relation.LE, 100.0 + i, f"r{i}") for i in range(100)
        ),
        var_count=4,
    )

    def refuse(*_):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(analysis, "_subsets", refuse)
    monkeypatch.setattr(analysis, "_batch_solve", refuse)
    with pytest.raises(UnsupportedSizeError, match="4,598,126"):
        enumerate_vertices(lp)
    with pytest.raises(UnsupportedSizeError, match="4,598,126"):
        oracle_solve(lp)


def test_oracle_statuses():
    infeasible = LinearProgram(
        sense=Sense.MINIMIZE,
        objective=(1.0,),
        constraints=(
            Constraint((1.0,), Relation.LE, 1.0, "low"),
            Constraint((1.0,), Relation.GE, 2.0, "high"),
        ),
        var_count=1,
    )
    assert oracle_solve(infeasible).status is Status.INFEASIBLE
    unbounded = LinearProgram(
        sense=Sense.MINIMIZE,
        objective=(-1.0, 0.0),
        constraints=(Constraint((0.0, 1.0), Relation.LE, 1.0, "cap"),),
        var_count=2,
    )
    assert oracle_solve(unbounded).status is Status.UNBOUNDED


def test_oracle_completeness_for_catalog():
    # The simplex optimum must be attained at some enumerated vertex.
    for scenario in builtin_scenarios():
        lp = compile_scenario(scenario)
        if lp.var_count > 4:
            continue
        sol = solve(lp)
        oracle = oracle_solve(lp)
        assert sol.status is oracle.status, scenario.name
        if sol.status is Status.OPTIMAL:
            vertices = enumerate_vertices(lp)
            assert any(
                abs(v.objective - sol.objective_value)
                <= 1e-6 * max(1.0, abs(sol.objective_value))
                for v in vertices
            ), scenario.name


# ---------------------------------------------------------------------------
# corner_report


def test_corner_report_reproduces_alternate_objective_values():
    scenario = get_scenario("a1_om_objective", AP)
    lp = compile_scenario(scenario)
    om = tuple(s.om_cost for s in scenario.sources)
    lcoe = tuple(s.lcoe for s in scenario.sources)
    rep = corner_report(lp, [("om", om), ("lcoe", lcoe)])
    assert rep.shared_argmin
    b = rep.argmin_point("om")
    assert b[0] == pytest.approx(24_862_479.0, rel=1e-6)
    assert b[1] == pytest.approx(3_900_512.0, rel=1e-6)
    b_row = rep.rows[rep.argmin["om"]]
    assert b_row.values["om"] == pytest.approx(333_464_655.0, rel=1e-3)
    assert b_row.values["lcoe"] == pytest.approx(1_168_449_731.0, rel=1e-3)
    assert b_row.binding >= {"demand_daytime", "demand_evening"}


def test_corner_report_zero_objective_ties():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    rep = corner_report(lp, [("zero", (0.0, 0.0))])
    assert all(row.values["zero"] == 0.0 for row in rep.rows)
    assert rep.shared_argmin


def test_corner_report_without_a_vertex_raises_lp_error():
    # min x1 + x2 s.t. x1 + x2 <= -1 over x >= 0: the region is empty.
    lp = LinearProgram(
        sense=Sense.MINIMIZE,
        objective=(1.0, 1.0),
        constraints=(Constraint((1.0, 1.0), Relation.LE, -1.0, "c"),),
        var_count=2,
    )
    with pytest.raises(LPError, match="no vertex"):
        corner_report(lp, [("cost", (1.0, 1.0))])


def test_corner_report_table_derived_keeps_shared_argmin():
    scenario = get_scenario("a1_om_objective", TD)
    lp = compile_scenario(scenario)
    om = tuple(s.om_cost for s in scenario.sources)
    lcoe = tuple(s.lcoe for s in scenario.sources)
    rep = corner_report(lp, [("om", om), ("lcoe", lcoe)])
    assert rep.shared_argmin


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_value_matches_plain_solve():
    scenario = get_scenario("m4_nuclear")
    base = solve(compile_scenario(scenario))
    points = sweep(scenario, "land_ft2", [scenario.land_cap])
    assert len(points) == 1
    assert points[0].status is Status.OPTIMAL
    assert points[0].objective == pytest.approx(base.objective_value, rel=1e-12)
    assert points[0].production == pytest.approx(base.values, rel=1e-12)


def test_sweep_nuclear_nonincreasing_as_land_grows():
    scenario = get_scenario("m4_nuclear")
    values = list(np.linspace(205_898_600.0, 50_589_860_000.0, 20))
    points = sweep(scenario, "land_ft2", values)
    assert all(p.status is Status.OPTIMAL for p in points)
    nuclear = [p.production[2] for p in points]
    for a, b in zip(nuclear, nuclear[1:]):
        assert b <= a + 1e-6 * max(1.0, a)
    assert nuclear[-1] == pytest.approx(2_628_000.0)  # floor once space is ample


def test_sweep_reports_infeasible_points():
    # Under the table-derived rooftop offset the land row cannot host the
    # demanded mix at small caps; those points stay in the trajectory.
    scenario = get_scenario("m4_nuclear", TD)
    points = sweep(scenario, "land_ft2", [1e6, 50_589_860_000.0])
    assert points[0].status is Status.INFEASIBLE
    assert math.isnan(points[0].objective)
    assert points[1].status is Status.OPTIMAL


def test_sweep_takes_a_numpy_grid():
    scenario = get_scenario("m4_nuclear")
    values = np.linspace(1e10, 5e10, 5)
    points = sweep(scenario, "land_ft2", values)
    assert len(points) == 5
    assert points == sweep(scenario, "land_ft2", values.tolist())
    assert sweep(scenario, "land_ft2", np.array([])) == ()


def test_sweep_point_fields_are_named_in_order():
    assert SweepPoint._fields == ("value", "status", "objective", "production")


def test_sweep_point_is_immutable():
    point = sweep(get_scenario("m4_nuclear"), "land_ft2", [1e10])[0]
    for name in (*SweepPoint._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(point, name, 0.0)
    assert point.value == 1e10


def test_sweep_points_of_a_long_grid_keep_the_record_contract():
    # The table-derived rooftop offset makes the small land caps infeasible.
    scenario = get_scenario("m4_nuclear", TD)
    points = sweep(scenario, "land_ft2", np.linspace(1e6, 5e10, 1000))
    assert len(points) == 1000
    assert {p.status for p in points} == {Status.OPTIMAL, Status.INFEASIBLE}
    for p in points:
        assert type(p) is SweepPoint
        assert type(p.value) is float and type(p.status) is Status and type(p.objective) is float
        assert type(p.production) is tuple and len(p.production) == len(scenario.sources)
        assert all(type(v) is float for v in p.production)
        if p.status is not Status.OPTIMAL:
            assert math.isnan(p.objective) and all(map(math.isnan, p.production))
        rebuilt = SweepPoint(p.value, p.status, p.objective, p.production)
        assert rebuilt == p and hash(rebuilt) == hash(p)
        assert repr(p) == (
            f"SweepPoint(value={p.value!r}, status={p.status!r}, "
            f"objective={p.objective!r}, production={p.production!r})"
        )


# The rooftop cap compiles a row only under separate space bounds for a
# source with a rooftop allowance; these pairs have no such row to write.
_RHS_BLIND = {
    (name, variant, "rooftop_mwh")
    for name in ("m0_cost_only", "m3_shared_space", "m4_nuclear", "m4_tight_space",
                 "m5_geothermal", "a1_om_objective", "b1_min_emissions")
    for variant in CoefficientVariant
}
_DEFAULT_CAPS = {
    "emissions_cap": PUBLISHED["emissions_cap_g"],
    "budget_cap": PUBLISHED["budget_cap_usd"],
    "land_cap": PUBLISHED["land_budget_ft2"],
    "rooftop_cap": PUBLISHED["rooftop_bound_mwh"],
}


def test_compile_sweep_rhs_follows_the_cap_except_where_no_row_compiles():
    blind = set()
    for name in CATALOG_NAMES:
        for variant in CoefficientVariant:
            scenario = get_scenario(name, variant)
            for parameter, field in CAP_FIELDS.items():
                cap = getattr(scenario, field) or _DEFAULT_CAPS[field]
                _, rhs = compile_sweep(scenario, field, [cap, 2.0 * cap])
                if np.array_equal(rhs[0], rhs[1]):
                    blind.add((name, variant, parameter))
    assert blind == _RHS_BLIND


def test_sweep_unknown_parameter():
    with pytest.raises(KeyError):
        sweep(get_scenario("m4_nuclear"), "gravity", [1.0])
    assert set(CAP_FIELDS) == {"emissions_g", "budget_usd", "land_ft2", "rooftop_mwh"}


# ---------------------------------------------------------------------------
# scenario-level structural properties


def test_nuclear_unused_without_space_pressure():
    scenario = get_scenario("m4_nuclear")
    relaxed = dataclasses.replace(
        scenario,
        sources=tuple(
            dataclasses.replace(s, min_annual_output=0.0) for s in scenario.sources
        ),
    )
    sol = solve(compile_scenario(relaxed))
    assert sol.status is Status.OPTIMAL
    assert sol.values[2] == 0.0


def test_nuclear_required_under_tight_space():
    sol = solve(compile_scenario(get_scenario("m4_tight_space")))
    assert sol.status is Status.OPTIMAL
    assert sol.values[2] > 0.0
    assert "land" in sol.binding


def test_emissions_objective_selects_wind_only():
    sol = solve(compile_scenario(get_scenario("b1_min_emissions")))
    assert sol.status is Status.OPTIMAL
    assert sol.values[1] == 0.0
    assert sol.values[0] > 0.0


def test_geothermal_model_drops_solar():
    scenario = get_scenario("m5_geothermal")
    sol = solve(compile_scenario(scenario))
    assert sol.status is Status.OPTIMAL
    wind, solar, geo = sol.values
    assert solar == 0.0
    assert geo > wind


def test_concurrent_solves_match_serial():
    # Scenarios and sources are frozen; solves share no mutable state, so
    # fanning out across threads must reproduce the serial results.
    from concurrent.futures import ThreadPoolExecutor

    scenarios = [s for s in builtin_scenarios() if compile_scenario(s).var_count <= 4]
    serial = [solve(compile_scenario(s)) for s in scenarios]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda s: solve(compile_scenario(s)), scenarios))
    for a, b in zip(serial, threaded):
        assert a.status is b.status
        assert a.values == b.values


# ---------------------------------------------------------------------------
# audit


@pytest.fixture(scope="module")
def audit():
    return audit_reference_results()


def test_audit_classifications_match_expectations(audit):
    observed = {t.table_id: t.classification for t in audit.tables}
    assert observed == {
        "5": "match",
        "7": "near",
        "8": "near",
        "9": "discrepancy",
        "10": "discrepancy",
        "12": "match",
        "13": "match",
    }
    assert audit.passed
    assert audit.strict_passed


def test_audit_table5_matches(audit):
    t5 = audit.table("5")
    assert t5.point_feasible and t5.point_is_vertex
    assert t5.headline_delta < 1e-6
    space = next(c for c in t5.cells if "space" in c.label)
    assert space.flagged  # the published cell implies ~7.46 ft^2/MWh


def test_audit_table7_documents_residual_delta(audit):
    t7 = audit.table("7")
    assert t7.classification == "near"
    assert t7.headline_delta < 5e-3
    assert "early-wind-share" in t7.ledger
    early = next(c for c in t7.cells if "early-morning" in c.label)
    assert early.flagged


def test_audit_table8_near_with_mixed_coefficients(audit):
    t8 = audit.table("8")
    assert t8.classification == "near"
    assert t8.headline_delta < 1e-2
    assert t8.solver_objective == pytest.approx(1.159e9, rel=1e-3)
    assert not t8.point_is_vertex
    assert "results-implied-shares" in t8.ledger


def test_audit_table9_point_infeasible(audit):
    t9 = audit.table("9")
    assert not t9.point_feasible
    assert t9.classification == "discrepancy"
    assert any("976,3043,136" in note for note in t9.notes)


def test_audit_table10_point_feasible_but_not_vertex(audit):
    t10 = audit.table("10")
    assert t10.point_feasible
    assert not t10.point_is_vertex
    assert t10.classification == "discrepancy"


def test_audit_corner_tables_match(audit):
    t12, t13 = audit.table("12"), audit.table("13")
    assert t12.headline_delta < 1e-3
    assert t13.headline_delta < 1e-3
    assert t12.point_is_vertex and t13.point_is_vertex
    for cell in (*t12.cells, *t13.cells):
        assert not cell.flagged, cell


def test_corners_a_b_and_d_are_vertices_of_the_printed_corner_region():
    lp = compile_scenario(get_scenario("a1_om_objective", AP))
    points = [v.point for v in enumerate_vertices(lp)]
    for corner in (CORNER_A, CORNER_B, CORNER_D):
        assert _near(np.array([corner]), np.array(points)).any(), corner


def test_audit_oracle_agrees_everywhere(audit):
    for t in audit.tables:
        assert t.solver_status is t.oracle_status, t.table_id
        if t.solver_objective is not None and t.oracle_objective is not None:
            scale = max(1.0, abs(t.solver_objective))
            assert abs(t.solver_objective - t.oracle_objective) <= 1e-6 * scale


def test_discrepancy_ledger_ids_unique():
    ids = [d.ident for d in DISCREPANCIES]
    assert len(ids) == len(set(ids))
    for t in audit_reference_results().tables:
        assert set(t.ledger) <= set(ids)


# ---------------------------------------------------------------------------
# one region per audit call, and the oracle's verdict read without Vertex records


def _hex(value):
    return None if value is None else value.hex()


def test_the_audit_enumerates_each_distinct_region_once_per_call(monkeypatch):
    # Seven tables over six regions: tables 12 and 13 price one region two ways.
    calls = []
    batch_solve = analysis._batch_solve

    def counted(a, b):
        calls.append(len(a))
        return batch_solve(a, b)

    monkeypatch.setattr(analysis, "_batch_solve", counted)
    audit_reference_results()
    assert len(calls) == 6
    audit_reference_results()       # nothing is kept from one call to the next
    assert len(calls) == 12


def test_each_audited_table_reads_what_the_public_functions_say(audit):
    for ref in analysis._REFERENCE_TABLES:
        scenario = get_scenario(ref.scenario, AP)
        if ref.objective is not None:
            scenario = scenario.with_objective(ref.objective)
        lp = compile_scenario(scenario)
        table = audit.table(ref.table_id)
        oracle = oracle_solve(lp)
        assert table.oracle_status is oracle.status, ref.table_id
        assert _hex(table.oracle_objective) == _hex(oracle.objective), ref.table_id
        assert table.point_feasible == check_feasible(lp, ref.point).feasible, ref.table_id
        points = np.array([v.point for v in enumerate_vertices(lp)]).reshape(-1, lp.var_count)
        assert table.point_is_vertex == bool(_near(np.array([ref.point]), points).any()), ref.table_id


def test_the_oracle_lists_the_vertices_that_enumerate_vertices_lists():
    for name in CATALOG_NAMES:
        for variant in CoefficientVariant:
            for mode in ObjectiveMode:
                lp = compile_scenario(get_scenario(name, variant).with_objective(mode))
                if lp.var_count <= 4:
                    assert oracle_solve(lp).vertices == tuple(enumerate_vertices(lp)), (name, variant, mode)
