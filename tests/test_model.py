"""Scenario model tests: compilation, reporting, and the file format."""

import json

import pytest

from gridmix.catalog import builtin_scenarios, get_scenario
from gridmix.lp import Relation, Solution, Status, solve
from gridmix.model import (
    CoefficientVariant,
    DayPeriod,
    DemandMode,
    EnergySource,
    ObjectiveMode,
    Scenario,
    ScenarioError,
    ScenarioFormatError,
    SpaceMode,
    compile_scenario,
    load_scenario_file,
    report,
    scenario_from_dict,
    scenario_to_dict,
)

AP = CoefficientVariant.AS_PRINTED
TD = CoefficientVariant.TABLE_DERIVED


# ---------------------------------------------------------------------------
# compile


def test_m1_compiles_to_five_rows():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    assert lp.var_count == 2
    assert len(lp.constraints) == 5
    labels = [c.label for c in lp.constraints]
    assert labels == ["demand", "emissions", "budget", "space_wind", "space_solar"]
    assert lp.constraints[0].rhs == 25_621_059.0
    assert lp.constraints[3].rhs == 47_475_469.0
    assert lp.constraints[4].rhs == 344_900.0


def test_m3_land_row_folds_rooftop_offset():
    lp = compile_scenario(get_scenario("m3_shared_space"))
    land = next(c for c in lp.constraints if c.label == "land")
    assert land.coefficients == (1065.6, 204.5)
    assert land.rhs == pytest.approx(50_589_860_000.0 + 204.5 * 2_190_438.0, rel=1e-15)
    assert land.relation is Relation.LE


def test_empty_scenario_rejected():
    scenario = Scenario(name="empty", sources=(), annual_need=1.0)
    with pytest.raises(ScenarioError):
        compile_scenario(scenario)


def test_m4_nuclear_floor_and_daytime_share():
    lp = compile_scenario(get_scenario("m4_nuclear"))
    assert lp.lower_bounds == (0.0, 0.0, 2_628_000.0)
    daytime = next(c for c in lp.constraints if c.label == "demand_daytime")
    assert daytime.coefficients[2] == 0.5


def test_per_period_requires_fractions():
    bare = EnergySource(name="bare", lcoe=1.0)
    scenario = Scenario(
        name="broken",
        sources=(bare,),
        annual_need=10.0,
        demand_mode=DemandMode.PER_PERIOD,
        periods=(
            DayPeriod("early_morning", 7, 0.3),
            DayPeriod("daytime", 12, 0.5),
            DayPeriod("evening", 5, 0.2),
        ),
    )
    with pytest.raises(ScenarioError, match="period fractions"):
        compile_scenario(scenario)


def test_shared_land_requires_cap():
    wind = EnergySource(name="wind", lcoe=1.0, land_use=10.0)
    scenario = Scenario(
        name="no-land", sources=(wind,), annual_need=10.0, space_mode=SpaceMode.SHARED_LAND
    )
    with pytest.raises(ScenarioError, match="land cap"):
        compile_scenario(scenario)


def test_compile_is_deterministic():
    a = compile_scenario(get_scenario("m5_geothermal"))
    b = compile_scenario(get_scenario("m5_geothermal"))
    assert a == b


def test_unit_coherence():
    expected = {
        "demand": "MWh",
        "emissions": "g CO2",
        "budget": "USD",
        "space": "MWh",
        "land": "ft^2",
    }
    for scenario in builtin_scenarios():
        for row in compile_scenario(scenario).constraints:
            kind = row.label.split("_")[0] if not row.label.startswith("demand") else "demand"
            assert row.unit == expected[kind], (scenario.name, row.label)


def test_as_printed_vs_table_derived_early_wind_share():
    ap = compile_scenario(get_scenario("m2_period_demand", AP))
    td = compile_scenario(get_scenario("m2_period_demand", TD))
    early_ap = next(c for c in ap.constraints if c.label == "demand_early_morning")
    early_td = next(c for c in td.constraints if c.label == "demand_early_morning")
    assert early_ap.coefficients[0] == 0.3760
    assert early_td.coefficients[0] == 0.3769
    # as-printed pins the published rounded requirements; table-derived
    # recomputes them from the demand fractions at full precision
    assert early_ap.rhs == 7.069e6
    assert early_td.rhs == pytest.approx(25_621_059 * 0.2759, rel=1e-15)


def test_period_fraction_storage_as_printed():
    wind = get_scenario("m2_period_demand", AP).sources[0]
    solar = get_scenario("m2_period_demand", AP).sources[1]
    assert sum(wind.period_fractions) == pytest.approx(0.9991)
    assert sum(solar.period_fractions) == pytest.approx(0.9997)
    solar_td = get_scenario("m2_period_demand", TD).sources[1]
    assert sum(solar_td.period_fractions) == pytest.approx(0.9999)


def test_min_output_only_for_nuclear():
    for scenario in builtin_scenarios():
        for source in scenario.sources:
            if source.min_annual_output > 0:
                assert source.name == "nuclear"


# ---------------------------------------------------------------------------
# report


def test_m1_report_emissions_row():
    scenario = get_scenario("m1_flat_demand")
    sol = solve(compile_scenario(scenario))
    rep = report(scenario, sol)
    wind = rep.rows[0]
    assert wind.emissions_g == pytest.approx(4970 * 25_621_059, rel=1e-12)
    assert wind.emissions_g == pytest.approx(127_336_663_230.0, rel=1e-12)
    assert rep.total.annual == pytest.approx(25_621_059.0)
    assert rep.rows[0].per_period is None  # flat-annual scenarios have no period split


def test_zero_production_report_is_zero():
    scenario = get_scenario("m1_flat_demand")
    zero = Solution(
        status=Status.OPTIMAL,
        values=(0.0, 0.0),
        objective_value=0.0,
        activities=(0.0,) * 5,
        binding=frozenset(),
        iterations=0,
    )
    rep = report(scenario, zero)
    for row in rep.rows:
        assert row.annual == 0.0
        assert row.emissions_g == 0.0
        assert row.capital_usd == 0.0
        assert row.objective == 0.0


def test_m3_per_period_rows_cross_check_demand():
    scenario = get_scenario("m3_shared_space")
    lp = compile_scenario(scenario)
    sol = solve(lp)
    rep = report(scenario, sol)
    for idx, row_label in enumerate(["demand_early_morning", "demand_daytime", "demand_evening"]):
        period_total = sum(r.per_period[idx] for r in rep.rows)
        rhs = next(c.rhs for c in lp.constraints if c.label == row_label)
        assert period_total >= rhs * (1 - 1e-9)


def test_report_conservation_of_fraction_weighted_sums():
    scenario = get_scenario("m2_period_demand")
    sol = solve(compile_scenario(scenario))
    rep = report(scenario, sol)
    for row, source in zip(rep.rows, scenario.sources):
        weighted = row.annual * sum(source.period_fractions)
        assert sum(row.per_period) == pytest.approx(weighted, rel=1e-9)


def test_non_optimal_report_carries_status_only():
    scenario = get_scenario("m4_tight_space", TD)
    sol = solve(compile_scenario(scenario))
    assert sol.status is Status.INFEASIBLE
    rep = report(scenario, sol)
    assert rep.status is Status.INFEASIBLE
    assert rep.rows == ()
    assert rep.total is None


def test_rooftop_exempt_land_in_report():
    # m2 solar is rooftop-only: its land occupancy is zero at the rooftop bound.
    scenario = get_scenario("m2_period_demand")
    sol = solve(compile_scenario(scenario))
    rep = report(scenario, sol)
    solar = rep.rows[1]
    assert solar.annual == pytest.approx(344_900.0)
    assert solar.land_ft2 == 0.0


# ---------------------------------------------------------------------------
# scenario documents


def valid_doc():
    return {
        "name": "custom",
        "objective_mode": "lcoe",
        "coefficient_variant": "as_printed",
        "annual_need_mwh": 1_000_000.0,
        "demand_mode": "per_period",
        "periods": [
            {"name": "early_morning", "hours": 7, "demand_fraction": 0.2759},
            {"name": "daytime", "hours": 12, "demand_fraction": 0.5149},
            {"name": "evening", "hours": 5, "demand_fraction": 0.2344},
        ],
        "sources": [
            {
                "name": "wind",
                "lcoe": 37.80,
                "capital_cost": 27.45,
                "om_cost": 10.35,
                "emissions_g_per_mwh": 4970,
                "land_ft2_per_mwh": 1065.6,
                "rooftop_allowance_mwh": 0,
                "period_fractions": [0.3769, 0.3775, 0.2456],
                "min_annual_output_mwh": 0,
            },
            {
                "name": "solar",
                "lcoe": 58.62,
                "capital_cost": 39.12,
                "om_cost": 19.51,
                "emissions_g_per_mwh": 45000,
                "land_ft2_per_mwh": 204.5,
                "rooftop_allowance_mwh": 344900,
                "period_fractions": [0.0101, 0.9797, 0.0101],
                "min_annual_output_mwh": 0,
            },
        ],
        "caps": {
            "emissions_g": 3.578e12,
            "budget_usd": 2e9,
            "land_ft2": 5.058986e10,
            "rooftop_mwh": 344900,
        },
        "space_mode": "shared_land",
    }


def test_scenario_document_round_trip(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(valid_doc()))
    scenario = load_scenario_file(path)
    assert scenario.name == "custom"
    assert scenario.space_mode is SpaceMode.SHARED_LAND
    sol = solve(compile_scenario(scenario))
    assert sol.status is Status.OPTIMAL


def test_unknown_top_level_key_rejected():
    doc = valid_doc()
    doc["discount_rate"] = 0.05
    with pytest.raises(ScenarioFormatError, match="discount_rate"):
        scenario_from_dict(doc)


def test_unknown_source_key_rejected():
    doc = valid_doc()
    doc["sources"][0]["efficiency"] = 0.4
    with pytest.raises(ScenarioFormatError, match="efficiency"):
        scenario_from_dict(doc)


def test_missing_cap_rejected():
    doc = valid_doc()
    del doc["caps"]["budget_usd"]
    with pytest.raises(ScenarioFormatError, match="budget_usd"):
        scenario_from_dict(doc)


def test_nonpositive_cap_rejected():
    doc = valid_doc()
    doc["caps"]["land_ft2"] = 0
    with pytest.raises(ScenarioFormatError, match="land_ft2"):
        scenario_from_dict(doc)


def test_bad_period_name_rejected():
    doc = valid_doc()
    doc["periods"][0]["name"] = "midnight"
    with pytest.raises(ScenarioFormatError, match="midnight"):
        scenario_from_dict(doc)


def test_wrong_fraction_arity_rejected():
    doc = valid_doc()
    doc["sources"][0]["period_fractions"] = [0.5, 0.5]
    with pytest.raises(ScenarioFormatError, match="period_fractions"):
        scenario_from_dict(doc)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",')
    with pytest.raises(ScenarioFormatError, match=r":\d+:\d+:"):
        load_scenario_file(path)


def test_base_override_merges_key_by_key(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({"name": "tight_emissions", "caps": {"emissions_g": 1e11}}))
    base = get_scenario("m1_flat_demand")
    scenario = load_scenario_file(path, base=base)
    assert scenario.name == "tight_emissions"
    assert scenario.emissions_cap == 1e11
    assert scenario.budget_cap == base.budget_cap
    # wind alone already emits 1.27e11 g for the demand floor, so this is infeasible
    assert solve(compile_scenario(scenario)).status is Status.INFEASIBLE


def test_builtin_catalog_contents():
    names = {s.name for s in builtin_scenarios()}
    assert names == {
        "m0_cost_only",
        "m1_flat_demand",
        "m2_period_demand",
        "m3_shared_space",
        "m4_nuclear",
        "m4_tight_space",
        "m5_geothermal",
        "a1_om_objective",
        "b1_min_emissions",
    }
    tight = get_scenario("m4_tight_space")
    assert tight.land_cap == 205_898_600.0
    b1 = get_scenario("b1_min_emissions")
    assert b1.emissions_cap is None
    assert b1.objective_mode is ObjectiveMode.EMISSIONS
    lp = compile_scenario(b1)
    budget = next(c for c in lp.constraints if c.label == "budget")
    assert budget.coefficients == (37.80, 58.62)


def test_catalog_solves_with_known_exception():
    # One pinned exception: the tight land cap was chosen for the printed
    # rooftop offset; under the table-derived offset it is infeasible.
    expected_infeasible = {("m4_tight_space", TD)}
    for scenario in builtin_scenarios():
        status = solve(compile_scenario(scenario)).status
        key = (scenario.name, scenario.coefficient_variant)
        if key in expected_infeasible:
            assert status is Status.INFEASIBLE, key
        else:
            assert status is Status.OPTIMAL, key


def test_scenario_to_dict_round_trips_through_validation():
    for scenario in builtin_scenarios():
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        key = (scenario.name, scenario.coefficient_variant)
        assert rebuilt.annual_need == scenario.annual_need, key
        assert [s.name for s in rebuilt.sources] == [s.name for s in scenario.sources], key
        for cap in ("emissions_cap", "budget_cap", "land_cap", "rooftop_cap"):
            assert getattr(rebuilt, cap) == getattr(scenario, cap), (key, cap)
