"""Built-in planning scenarios, in two coefficient variants each.

The models form the paper's chain, each an edit of the one before: m0
puts six sources on a flat annual need with no caps, and is the one place
each source's rates are written; m1 keeps m0's wind and solar and adds
period shares, the rooftop allowance and four caps; m2 adds per-period
demand; m3 adds shared land; m4_nuclear adds m0's nuclear, and
m4_tight_space cuts its land cap; m5 puts m0's geothermal in nuclear's
place; a1 and b1 change m3's objective.

``as_printed`` mirrors each published model block exactly as it appears,
including its internal inconsistencies (the early-morning wind share is
0.3760 in the wind+solar models but 0.3769 once nuclear or geothermal
join; the emissions cap jumps to 16,325e9 and then 163,325e9 g; the
rooftop offset grows from 344,900 to 2,190,438 to 10,279,088 MWh; the
geothermal model prices wind and solar against its own cost table).
``table_derived`` rebuilds every coefficient uniformly from the published
data tables: the table shares of each source, m0's LCOEs, the 3.578e12 g
emissions cap, and the 344,900 MWh rooftop bound everywhere.

Keeping both variants makes each discrepancy a testable fact instead of a
silent fix; the audit in ``gridmix.analysis`` reports where they diverge.
Each model is built once per process and shared: every field is frozen.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

from .scenario import (
    PERIOD_NAMES,
    BudgetRates,
    CoefficientVariant,
    DayPeriod,
    DemandMode,
    EnergySource,
    ObjectiveMode,
    Scenario,
    SpaceMode,
)

__all__ = [
    "CATALOG_NAMES",
    "builtin_scenarios",
    "get_scenario",
    "scenario_names",
]

# Published values the catalog consumes verbatim; ``gridmix.derivation``
# recomputes each from its raw inputs.
PUBLISHED: dict[str, float] = {
    "city_share_2010": 0.0588,
    "annual_need_mwh": 25_621_059.0,
    "city_total_2021_mwh": 76_389_561.0,
    "baseline_emissions_g": 17.83e12,
    "emissions_cap_g": 3.578e12,
    "budget_cap_usd": 2e9,
    "land_budget_ft2": 50_589_860_000.0,
    "wind_production_bound_mwh": 47_475_469.0,
    "rooftop_bound_mwh": 344_900.0,
    "early_morning_rhs_mwh": 7.069e6,
    "daytime_rhs_mwh": 13.192e6,
    "evening_rhs_mwh": 6.006e6,
}

ANNUAL_NEED = PUBLISHED["annual_need_mwh"]
EMISSIONS_CAP = PUBLISHED["emissions_cap_g"]
BUDGET_CAP = PUBLISHED["budget_cap_usd"]
LAND_CAP = PUBLISHED["land_budget_ft2"]
ROOFTOP_BOUND = PUBLISHED["rooftop_bound_mwh"]

# Section-local constants that only exist as printed.
M3_EMISSIONS_CAP = 16_325e9
M4_EMISSIONS_CAP = 163_325e9
M3_ROOFTOP_OFFSET = 2_190_438.0
M4_ROOFTOP_OFFSET = 10_279_088.0
TIGHT_LAND_CAP = 205_898_600.0
NUCLEAR_FLOOR = 2_628_000.0          # one small modular reactor at full capacity
GEOTHERMAL_CAPITAL = 21.8            # printed budget-row rate; absent from the capital table

DEMAND_FRACTIONS = (0.2759, 0.5149, 0.2344)   # highest observed share per period
PERIOD_HOURS = (7, 12, 5)

WIND_TABLE_FRACTIONS = (0.3769, 0.3775, 0.2456)
WIND_PRINTED_FRACTIONS = (0.3760, 0.3775, 0.2456)   # wind+solar model blocks
SOLAR_TABLE_FRACTIONS = (0.0101, 0.9797, 0.0101)
SOLAR_PRINTED_FRACTIONS = (0.01, 0.9797, 0.01)
NUCLEAR_FRACTIONS = (0.29, 0.50, 0.21)               # constant output over 7/12/5 hours
GEO_PRINTED_FRACTIONS = (0.2916, 0.5, 0.21)          # evening prints 0.21, not the derived 0.2083
GEO_TABLE_FRACTIONS = (0.2916, 0.5000, 0.2083)

# Coefficients implied by the published result tables: every per-period
# production row divides back to 0.38/0.3769/0.24 for wind. The corner
# points of the alternate-objective analysis are vertices only under this
# set, so it backs that one scenario.
WIND_RESULTS_FRACTIONS = (0.38, 0.3769, 0.24)

AP = CoefficientVariant.AS_PRINTED
TD = CoefficientVariant.TABLE_DERIVED


def _m0(variant: CoefficientVariant) -> Scenario:
    # Demand-only baseline over all six sources; no caps. Identical in
    # both variants (nothing to disagree about).
    return Scenario(
        name="m0_cost_only",
        sources=(
            EnergySource(
                name="wind",
                lcoe=37.80,
                capital_cost=27.45,
                om_cost=10.35,
                emissions=4970.0,
                land_use=1065.6,
            ),
            EnergySource(
                name="solar",
                lcoe=58.62,
                capital_cost=39.12,
                om_cost=19.51,
                emissions=45_000.0,
                land_use=204.5,
            ),
            EnergySource(name="nuclear", lcoe=96.2, emissions=49_000.0, land_use=3.23),
            EnergySource(name="geothermal", lcoe=39.61, emissions=38_000.0, land_use=9.6875),
            EnergySource(name="gas_combined_cycle", lcoe=37.50, emissions=490_000.0),
            EnergySource(name="hydroelectric", lcoe=63.9),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.FLAT_ANNUAL,
        space_mode=SpaceMode.SEPARATE_BOUNDS,
        coefficient_variant=variant,
        description="cost minimization over six sources with only the demand floor",
    )


def _from_m0(name: str, variant: CoefficientVariant, **changes) -> EnergySource:
    """m0's source *name*, edited by *changes*."""
    source = next(s for s in get_scenario("m0_cost_only", variant).sources if s.name == name)
    return replace(source, **changes)


def _m1(variant: CoefficientVariant) -> Scenario:
    printed = variant is AP
    return replace(
        get_scenario("m0_cost_only", variant),
        name="m1_flat_demand",
        sources=(
            _from_m0("wind", variant, period_fractions=WIND_PRINTED_FRACTIONS if printed else WIND_TABLE_FRACTIONS),
            _from_m0("solar", variant, rooftop_allowance=ROOFTOP_BOUND,
                     period_fractions=SOLAR_PRINTED_FRACTIONS if printed else SOLAR_TABLE_FRACTIONS),
        ),
        emissions_cap=EMISSIONS_CAP,
        budget_cap=BUDGET_CAP,
        land_cap=LAND_CAP,
        rooftop_cap=ROOFTOP_BOUND,
        description="wind+solar with flat annual demand and separate space bounds",
    )


def _m2(variant: CoefficientVariant) -> Scenario:
    # The as-printed block pins each period's requirement to its published rhs.
    printed = variant is AP
    return replace(
        get_scenario("m1_flat_demand", variant),
        name="m2_period_demand",
        demand_mode=DemandMode.PER_PERIOD,
        periods=tuple(
            DayPeriod(name=name, hours=hours, demand_fraction=fraction,
                      demand_mwh=PUBLISHED[f"{name}_rhs_mwh"] if printed else None)
            for name, hours, fraction in zip(PERIOD_NAMES, PERIOD_HOURS, DEMAND_FRACTIONS)
        ),
        description="wind+solar with time-of-day demand and rooftop-only solar",
    )


def _m3(variant: CoefficientVariant) -> Scenario:
    m2 = get_scenario("m2_period_demand", variant)
    wind, solar = m2.sources
    printed = variant is AP
    return replace(
        m2,
        name="m3_shared_space",
        sources=(wind, replace(solar, rooftop_allowance=M3_ROOFTOP_OFFSET) if printed else solar),
        emissions_cap=M3_EMISSIONS_CAP if printed else m2.emissions_cap,
        rooftop_cap=None,
        space_mode=SpaceMode.SHARED_LAND,
        description="wind+solar sharing one land budget, rooftop output exempt",
    )


def _m4_nuclear(variant: CoefficientVariant) -> Scenario:
    m3 = get_scenario("m3_shared_space", variant)
    wind, solar = m3.sources
    printed = variant is AP
    return replace(
        m3,
        name="m4_nuclear",
        sources=(
            replace(wind, period_fractions=WIND_TABLE_FRACTIONS),
            replace(solar, rooftop_allowance=M4_ROOFTOP_OFFSET) if printed else solar,
            _from_m0("nuclear", variant, capital_cost=70.8, period_fractions=NUCLEAR_FRACTIONS,
                     min_annual_output=NUCLEAR_FLOOR),
        ),
        emissions_cap=M4_EMISSIONS_CAP if printed else m3.emissions_cap,
        description="wind+solar+nuclear with one reactor's output as the nuclear floor",
    )


def _m4_tight_space(variant: CoefficientVariant) -> Scenario:
    return replace(
        get_scenario("m4_nuclear", variant),
        name="m4_tight_space",
        land_cap=TIGHT_LAND_CAP,
        description="wind+solar+nuclear with the land budget cut to 205,898,600 ft^2",
    )


def _m5(variant: CoefficientVariant) -> Scenario:
    m4 = get_scenario("m4_nuclear", variant)
    wind, solar, _ = m4.sources
    printed = variant is AP
    if printed:
        wind, solar = replace(wind, lcoe=73.7), replace(solar, lcoe=55.8)
    geothermal = _from_m0("geothermal", variant, capital_cost=GEOTHERMAL_CAPITAL,
                          period_fractions=GEO_PRINTED_FRACTIONS if printed else GEO_TABLE_FRACTIONS)
    return replace(
        m4,
        name="m5_geothermal",
        sources=(wind, solar, geothermal),
        emissions_cap=EMISSIONS_CAP,
        description="wind+solar+geothermal; the published block prices wind at 73.7 $/MWh",
    )


def _a1(variant: CoefficientVariant) -> Scenario:
    m3 = get_scenario("m3_shared_space", variant)
    a1 = replace(
        m3,
        name="a1_om_objective",
        objective_mode=ObjectiveMode.OM_ONLY,
        description="shared-space model under the O&M-only objective",
    )
    if variant is TD:
        return a1
    # Region reconstructed from the published corner points: they are
    # vertices only under the results-implied shares, the 3.578e12 g
    # emissions cap, a shared land row with no rooftop offset, and no
    # budget row (corner A breaks every printed budget pricing).
    wind, solar = m3.sources
    return replace(
        a1,
        sources=(replace(wind, period_fractions=WIND_RESULTS_FRACTIONS), replace(solar, rooftop_allowance=0.0)),
        emissions_cap=EMISSIONS_CAP,
        budget_cap=None,
        description=f"{a1.description} (corner-point region)",
    )


def _b1(variant: CoefficientVariant) -> Scenario:
    # The shared-space model with emissions as the objective, so the
    # emissions row drops; the budget row is priced at full LCOE instead of
    # capital cost.
    return replace(
        get_scenario("m3_shared_space", variant),
        name="b1_min_emissions",
        emissions_cap=None,
        objective_mode=ObjectiveMode.EMISSIONS,
        budget_rates=BudgetRates.LCOE,
        description="minimize emissions with costs capped at full LCOE pricing",
    )


_BUILDERS = {
    "m0_cost_only": _m0,
    "m1_flat_demand": _m1,
    "m2_period_demand": _m2,
    "m3_shared_space": _m3,
    "m4_nuclear": _m4_nuclear,
    "m4_tight_space": _m4_tight_space,
    "m5_geothermal": _m5,
    "a1_om_objective": _a1,
    "b1_min_emissions": _b1,
}

CATALOG_NAMES = tuple(_BUILDERS)


def builtin_scenarios() -> tuple[Scenario, ...]:
    """The full catalog: every model in both coefficient variants."""
    return tuple(get_scenario(name, variant) for name in CATALOG_NAMES for variant in (AP, TD))


def scenario_names() -> tuple[str, ...]:
    return CATALOG_NAMES


def get_scenario(name: str, variant: CoefficientVariant | str = AP) -> Scenario:
    """Catalog model *name* in *variant*, the enum or its value string,
    built on the first call and shared after: one cache entry per model
    however the variant is spelled or defaulted. ``get_scenario.cache_clear()``
    empties the cache."""
    return _built(name, CoefficientVariant(variant))


@cache
def _built(name: str, variant: CoefficientVariant) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(CATALOG_NAMES)}") from None
    return builder(variant)


get_scenario.cache_clear = _built.cache_clear
get_scenario.cache_info = _built.cache_info
