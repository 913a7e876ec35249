"""Scenario model tests: compilation, reporting, and the file format."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmix.catalog import builtin_scenarios, get_scenario
from gridmix.lp import Relation, Solution, Status, solve
from gridmix.model import compile_scenario, report
from gridmix.scenario import (
    PERIOD_NAMES,
    BudgetRates,
    CoefficientVariant,
    DayPeriod,
    DemandMode,
    EnergySource,
    ObjectiveMode,
    Scenario,
    ScenarioError,
    ScenarioFormatError,
    SpaceMode,
    load_scenario_file,
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


@pytest.mark.parametrize("need", [math.nan, math.inf, 0.0, -1.0])
def test_annual_need_must_be_finite_and_positive(need):
    with pytest.raises(ScenarioError, match="annual need must be finite and > 0"):
        Scenario(name="bad-need", sources=(), annual_need=need)


def test_a_source_name_may_appear_only_once():
    # Two sources of one name would compile two rows of one label and
    # report one value under that name.
    m1 = get_scenario("m1_flat_demand")
    wind = next(s for s in m1.sources if s.name == "wind")
    with pytest.raises(ScenarioError, match="source 'wind' appears more than once"):
        replace(m1, sources=(*m1.sources, wind))


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


@pytest.mark.parametrize(
    "field, value, member",
    [
        ("objective_mode", "emissions", ObjectiveMode.EMISSIONS),
        ("demand_mode", "flat_annual", DemandMode.FLAT_ANNUAL),
        ("space_mode", "shared_land", SpaceMode.SHARED_LAND),
        ("coefficient_variant", "table_derived", CoefficientVariant.TABLE_DERIVED),
        ("budget_rates", "lcoe", BudgetRates.LCOE),
    ],
)
def test_an_enum_field_given_as_its_value_string_holds_its_member(field, value, member):
    # Readers test these fields with ``is``: a value string kept as a str
    # took the wrong branch (no demand row, the emissions objective).
    m1 = get_scenario("m1_flat_demand")
    scenario = replace(m1, **{field: value})
    assert getattr(scenario, field) is member
    assert compile_scenario(scenario) == compile_scenario(replace(m1, **{field: member}))


def test_an_objective_given_as_its_value_string_compiles_its_rates():
    m1 = get_scenario("m1_flat_demand")
    assert compile_scenario(m1.with_objective("lcoe")).objective == tuple(s.lcoe for s in m1.sources)
    assert compile_scenario(replace(m1, demand_mode="flat_annual")).constraints[0].label == "demand"


@pytest.mark.parametrize("field", ["objective_mode", "demand_mode", "space_mode", "coefficient_variant", "budget_rates"])
@pytest.mark.parametrize("value", ["bogus", None, 1, "LCOE"])
def test_an_enum_field_that_is_no_member_nor_its_value_string_is_refused(field, value):
    with pytest.raises(ScenarioError, match=f"^scenario 'm1_flat_demand': {field}: expected one of "):
        replace(get_scenario("m1_flat_demand"), **{field: value})


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
    # The file writes absent period fractions as zeros and has no key for
    # pinned period demand, budget pricing or the description; every other
    # field comes back equal.
    fields = (
        "annual_need", "emissions_cap", "budget_cap", "land_cap", "rooftop_cap",
        "demand_mode", "space_mode", "objective_mode", "coefficient_variant",
    )
    for scenario in builtin_scenarios():
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        key = (scenario.name, scenario.coefficient_variant)
        assert rebuilt.name == scenario.name, key
        for field in fields:
            assert getattr(rebuilt, field) == getattr(scenario, field), (key, field)
        assert rebuilt.sources == tuple(
            replace(s, period_fractions=s.period_fractions or (0.0, 0.0, 0.0)) for s in scenario.sources
        ), key
        assert [(p.name, p.hours, p.demand_fraction) for p in rebuilt.periods] == [
            (p.name, p.hours, p.demand_fraction) for p in scenario.periods
        ], key


RATES = st.floats(0.0, 1e12, allow_subnormal=False)
SHARES = st.floats(0.0, 1.0, allow_subnormal=False)
CAPS = st.none() | st.floats(1e-3, 1e15, allow_subnormal=False)


@st.composite
def file_scenarios(draw):
    """Scenarios whose every field has a key in the scenario file."""
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4, unique=True))
    sources = tuple(
        EnergySource(
            name=name,
            lcoe=draw(RATES),
            capital_cost=draw(RATES),
            om_cost=draw(RATES),
            emissions=draw(RATES),
            land_use=draw(RATES),
            rooftop_allowance=draw(RATES),
            period_fractions=draw(st.tuples(SHARES, SHARES, SHARES)),
            min_annual_output=draw(RATES),
        )
        for name in names
    )
    demand_mode = draw(st.sampled_from(DemandMode))
    periods = ()
    if demand_mode is DemandMode.PER_PERIOD or draw(st.booleans()):
        early = draw(st.integers(1, 22))
        daytime = draw(st.integers(1, 23 - early))
        hours = (early, daytime, 24 - early - daytime)
        periods = tuple(DayPeriod(n, h, draw(SHARES)) for n, h in zip(PERIOD_NAMES, hours))
    return Scenario(
        name=draw(st.text(min_size=1, max_size=12)),
        sources=sources,
        annual_need=draw(st.floats(1e-3, 1e12, allow_subnormal=False)),
        demand_mode=demand_mode,
        periods=periods,
        emissions_cap=draw(CAPS),
        budget_cap=draw(CAPS),
        land_cap=draw(CAPS),
        rooftop_cap=draw(CAPS),
        space_mode=draw(st.sampled_from(SpaceMode)),
        objective_mode=draw(st.sampled_from(ObjectiveMode)),
        coefficient_variant=draw(st.sampled_from(CoefficientVariant)),
    )


@settings(max_examples=200, deadline=None)
@given(scenario=file_scenarios())
def test_every_file_scenario_round_trips_through_json(scenario):
    text = json.dumps(scenario_to_dict(scenario))
    assert scenario_from_dict(json.loads(text)) == scenario


SOURCE_KEYS = tuple(valid_doc()["sources"][0])
MISSING = object()


@pytest.mark.parametrize(
    "key, bad",
    [(key, bad) for key in SOURCE_KEYS for bad in (MISSING, None, "x") if (key, bad) != ("name", "x")],
    ids=repr,
)
def test_every_source_key_is_named_when_missing_or_malformed(key, bad):
    doc = valid_doc()
    if bad is MISSING:
        del doc["sources"][1][key]
    else:
        doc["sources"][1][key] = bad
    with pytest.raises(ScenarioFormatError, match=key) as caught:
        scenario_from_dict(doc)
    assert str(caught.value).startswith("scenario.sources[1]")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s.update(lcoe="x"), "scenario.sources[0].lcoe: expected a number, got 'x'"),
        (lambda s: s.pop("om_cost"), "scenario.sources[0]: missing key 'om_cost'"),
        (lambda s: s.update(period_fractions=[0.1, "y", 0.2]),
         "scenario.sources[0].period_fractions[1]: expected a number, got 'y'"),
        (lambda s: s.update(lcoe=-1.0), "scenario.sources[0]: source 'wind': lcoe must be finite and >= 0"),
    ],
    ids=["bad value", "missing key", "bad fraction", "out of range"],
)
def test_source_errors_give_their_location_once(edit, message):
    doc = valid_doc()
    edit(doc["sources"][0])
    with pytest.raises(ScenarioFormatError) as caught:
        scenario_from_dict(doc)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "order",
    [
        ("daytime", "early_morning", "evening"),
        ("early_morning", "evening", "daytime"),
        ("early_morning", "early_morning", "evening"),
        ("early_morning", "daytime"),
        ("daytime",),
        ("early_morning", "daytime", "evening", "evening"),
    ],
)
@pytest.mark.parametrize("demand_mode", ["per_period", "flat_annual"])
def test_periods_out_of_order_are_rejected(order, demand_mode):
    # Row i of the demand block takes each source's i-th period fraction,
    # so a reordered list would pair a period's requirement with another
    # period's shares.
    doc = valid_doc()
    doc["demand_mode"] = demand_mode
    by_name = {p["name"]: p for p in doc["periods"]}
    doc["periods"] = [dict(by_name[name]) for name in order]
    with pytest.raises(ScenarioFormatError, match=r"^scenario\.periods: "):
        scenario_from_dict(doc)


def test_a_scenario_built_with_periods_out_of_order_is_refused():
    # Without the check this compiled demand_daytime with every source's
    # early-morning fraction.
    base = get_scenario("m2_period_demand")
    early_morning, daytime, evening = base.periods
    with pytest.raises(ScenarioError, match="periods must be early_morning, daytime, evening in that order"):
        replace(base, periods=(daytime, early_morning, evening))
    with pytest.raises(ScenarioError, match="got early_morning, evening, daytime"):
        replace(base, demand_mode=DemandMode.FLAT_ANNUAL, periods=(early_morning, evening, daytime))
    assert replace(base, periods=(early_morning, daytime, evening)) == base


def test_readme_example_is_the_example_file():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Scenario file format", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    example = Path(__file__).parent / "data" / "scenario_example.json"
    assert block == example.read_text()
    assert load_scenario_file(example).name == "my_city"


@pytest.mark.parametrize("variant", [AP, TD])
@pytest.mark.parametrize("name", ["m3_shared_space", "b1_min_emissions"])
def test_base_file_that_overrides_nothing_compiles_to_the_base(tmp_path, name, variant):
    # The file format has no key for pinned period demand or budget
    # pricing; both must come from the base.
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"name": name}))
    base = get_scenario(name, variant)
    assert compile_scenario(load_scenario_file(path, base=base)) == compile_scenario(base)


def test_base_file_that_sets_demand_drops_pinned_period_demand(tmp_path):
    base = get_scenario("m3_shared_space")
    assert any(p.demand_mwh is not None for p in base.periods)
    path = tmp_path / "need.json"
    path.write_text(json.dumps({"name": "need", "annual_need_mwh": base.annual_need}))
    scenario = load_scenario_file(path, base=base)
    assert all(p.demand_mwh is None for p in scenario.periods)
    demand = [c.rhs for c in compile_scenario(scenario).constraints if c.label.startswith("demand_")]
    assert demand == [base.annual_need * p.demand_fraction for p in base.periods]


RATE_KEYS = tuple(key for key in SOURCE_KEYS if key not in ("name", "period_fractions"))


@pytest.mark.parametrize("key", RATE_KEYS)
@pytest.mark.parametrize("bad", [-1.0, -1e-300])
def test_a_source_range_error_names_the_file_key(key, bad):
    doc = valid_doc()
    doc["sources"][0][key] = bad
    with pytest.raises(ScenarioFormatError) as caught:
        scenario_from_dict(doc, where="f.json")
    assert str(caught.value) == f"f.json.sources[0]: source 'wind': {key} must be finite and >= 0"


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("hours", 0, "hours must be positive"),
        ("hours", -7, "hours must be positive"),
        ("demand_fraction", 1.5, "demand fraction must be in [0, 1]"),
        ("demand_fraction", -0.1, "demand fraction must be in [0, 1]"),
    ],
)
def test_a_period_range_error_gives_its_location(key, bad, message):
    doc = valid_doc()
    doc["periods"][0][key] = bad
    with pytest.raises(ScenarioFormatError) as caught:
        scenario_from_dict(doc, where="f.json")
    assert str(caught.value) == f"f.json.periods[0]: period 'early_morning': {message}"


def test_a_land_bound_past_the_float_range_raises_scenario_error():
    scenario = get_scenario("m1_flat_demand")
    assert scenario.space_mode is SpaceMode.SEPARATE_BOUNDS
    tiny = replace(scenario, sources=tuple(replace(s, land_use=1e-3) for s in scenario.sources), land_cap=1e308)
    with pytest.raises(ScenarioError) as caught:
        compile_scenario(tiny)
    assert str(caught.value) == (
        "scenario 'm1_flat_demand': land_cap 1e+308 puts the rhs of row 'space_wind' past the float range"
    )


def test_a_report_amount_past_the_float_range_raises_scenario_error():
    # Uncapped rates: the LP solves, and only the report's amounts overflow.
    scenario = load_scenario_file(Path(__file__).parent / "data" / "scenario_example.json")
    wind = replace(scenario.sources[0], emissions=1e305, capital_cost=1e305)
    scenario = replace(scenario, sources=(wind,), emissions_cap=None, budget_cap=None)
    sol = solve(compile_scenario(scenario))
    assert sol.status is Status.OPTIMAL
    with pytest.raises(ScenarioError) as caught:
        report(scenario, sol)
    assert str(caught.value) == (
        "scenario 'my_city': report totals past the float range: emissions_g, capital_usd"
    )
