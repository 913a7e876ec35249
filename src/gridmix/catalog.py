"""Built-in planning scenarios, in two coefficient variants each.

``as_printed`` mirrors each published model block exactly as it appears,
including its internal inconsistencies (the early-morning wind share is
0.3760 in the wind+solar models but 0.3769 once nuclear or geothermal
join; the emissions cap jumps to 16,325e9 and then 163,325e9 g; the
rooftop offset grows from 344,900 to 2,190,438 to 10,279,088 MWh; the
geothermal model prices wind at 73.7 $/MWh against its own cost table).
``table_derived`` rebuilds every coefficient uniformly from the published
data tables: production shares 0.3769/0.3775/0.2456 (wind),
0.0101/0.9797/0.0101 (solar), 0.2916/0.5000/0.2083 (geothermal), LCOEs
37.80/58.62/96.2/39.61, the 3.578e12 g emissions cap, and the 344,900 MWh
rooftop bound everywhere.

Keeping both variants makes each discrepancy a testable fact instead of a
silent fix; the audit in ``gridmix.analysis`` reports where they diverge.
"""

from __future__ import annotations

from dataclasses import replace

from .model import (
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
PRINTED_PERIOD_RHS = (
    PUBLISHED["early_morning_rhs_mwh"],
    PUBLISHED["daytime_rhs_mwh"],
    PUBLISHED["evening_rhs_mwh"],
)

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


def _wind(variant: CoefficientVariant, *, early_printed: bool = False, lcoe: float = 37.80,
          fractions: tuple[float, float, float] | None = None) -> EnergySource:
    if fractions is None:
        if variant is AP:
            fractions = WIND_PRINTED_FRACTIONS if early_printed else WIND_TABLE_FRACTIONS
        else:
            fractions = WIND_TABLE_FRACTIONS
    return EnergySource(
        name="wind",
        lcoe=lcoe,
        capital_cost=27.45,
        om_cost=10.35,
        emissions=4970.0,
        land_use=1065.6,
        period_fractions=fractions,
    )


def _solar(variant: CoefficientVariant, *, rooftop: float, lcoe: float = 58.62,
           fractions: tuple[float, float, float] | None = None) -> EnergySource:
    if fractions is None:
        fractions = SOLAR_PRINTED_FRACTIONS if variant is AP else SOLAR_TABLE_FRACTIONS
    return EnergySource(
        name="solar",
        lcoe=lcoe,
        capital_cost=39.12,
        om_cost=19.51,
        emissions=45_000.0,
        land_use=204.5,
        rooftop_allowance=rooftop,
        period_fractions=fractions,
    )


def _nuclear() -> EnergySource:
    return EnergySource(
        name="nuclear",
        lcoe=96.2,
        capital_cost=70.8,
        emissions=49_000.0,
        land_use=3.23,
        period_fractions=NUCLEAR_FRACTIONS,
        min_annual_output=NUCLEAR_FLOOR,
    )


def _geothermal(variant: CoefficientVariant) -> EnergySource:
    return EnergySource(
        name="geothermal",
        lcoe=39.61,
        capital_cost=GEOTHERMAL_CAPITAL,
        emissions=38_000.0,
        land_use=9.6875,
        period_fractions=GEO_PRINTED_FRACTIONS if variant is AP else GEO_TABLE_FRACTIONS,
    )


def _periods(variant: CoefficientVariant) -> tuple[DayPeriod, ...]:
    names = ("early_morning", "daytime", "evening")
    return tuple(
        DayPeriod(
            name=name,
            hours=hours,
            demand_fraction=fraction,
            demand_mwh=PRINTED_PERIOD_RHS[i] if variant is AP else None,
        )
        for i, (name, hours, fraction) in enumerate(zip(names, PERIOD_HOURS, DEMAND_FRACTIONS))
    )


def _m0(variant: CoefficientVariant) -> Scenario:
    # Demand-only baseline over all six sources; no caps. Identical in
    # both variants (nothing to disagree about).
    sources = (
        replace(_wind(variant), period_fractions=None),
        replace(_solar(variant, rooftop=0.0), period_fractions=None),
        EnergySource(name="nuclear", lcoe=96.2, emissions=49_000.0, land_use=3.23),
        EnergySource(name="geothermal", lcoe=39.61, emissions=38_000.0, land_use=9.6875),
        EnergySource(name="gas_combined_cycle", lcoe=37.50, emissions=490_000.0),
        EnergySource(name="hydroelectric", lcoe=63.9),
    )
    return Scenario(
        name="m0_cost_only",
        sources=sources,
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.FLAT_ANNUAL,
        space_mode=SpaceMode.SEPARATE_BOUNDS,
        coefficient_variant=variant,
        description="cost minimization over six sources with only the demand floor",
    )


def _m1(variant: CoefficientVariant) -> Scenario:
    return Scenario(
        name="m1_flat_demand",
        sources=(
            _wind(variant, early_printed=True),
            _solar(variant, rooftop=ROOFTOP_BOUND),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.FLAT_ANNUAL,
        emissions_cap=EMISSIONS_CAP,
        budget_cap=BUDGET_CAP,
        land_cap=LAND_CAP,
        rooftop_cap=ROOFTOP_BOUND,
        space_mode=SpaceMode.SEPARATE_BOUNDS,
        coefficient_variant=variant,
        description="wind+solar with flat annual demand and separate space bounds",
    )


def _m2(variant: CoefficientVariant) -> Scenario:
    return Scenario(
        name="m2_period_demand",
        sources=(
            _wind(variant, early_printed=True),
            _solar(variant, rooftop=ROOFTOP_BOUND),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.PER_PERIOD,
        periods=_periods(variant),
        emissions_cap=EMISSIONS_CAP,
        budget_cap=BUDGET_CAP,
        land_cap=LAND_CAP,
        rooftop_cap=ROOFTOP_BOUND,
        space_mode=SpaceMode.SEPARATE_BOUNDS,
        coefficient_variant=variant,
        description="wind+solar with time-of-day demand and rooftop-only solar",
    )


def _m3(variant: CoefficientVariant) -> Scenario:
    return Scenario(
        name="m3_shared_space",
        sources=(
            _wind(variant, early_printed=True),
            _solar(variant, rooftop=M3_ROOFTOP_OFFSET if variant is AP else ROOFTOP_BOUND),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.PER_PERIOD,
        periods=_periods(variant),
        emissions_cap=M3_EMISSIONS_CAP if variant is AP else EMISSIONS_CAP,
        budget_cap=BUDGET_CAP,
        land_cap=LAND_CAP,
        space_mode=SpaceMode.SHARED_LAND,
        coefficient_variant=variant,
        description="wind+solar sharing one land budget, rooftop output exempt",
    )


def _m4(variant: CoefficientVariant, *, tight: bool = False) -> Scenario:
    return Scenario(
        name="m4_tight_space" if tight else "m4_nuclear",
        sources=(
            _wind(variant),
            _solar(variant, rooftop=M4_ROOFTOP_OFFSET if variant is AP else ROOFTOP_BOUND),
            _nuclear(),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.PER_PERIOD,
        periods=_periods(variant),
        emissions_cap=M4_EMISSIONS_CAP if variant is AP else EMISSIONS_CAP,
        budget_cap=BUDGET_CAP,
        land_cap=TIGHT_LAND_CAP if tight else LAND_CAP,
        space_mode=SpaceMode.SHARED_LAND,
        coefficient_variant=variant,
        description=(
            "wind+solar+nuclear with the land budget cut to 205,898,600 ft^2"
            if tight
            else "wind+solar+nuclear with one reactor's output as the nuclear floor"
        ),
    )


def _m5(variant: CoefficientVariant) -> Scenario:
    return Scenario(
        name="m5_geothermal",
        sources=(
            _wind(variant, lcoe=73.7 if variant is AP else 37.80),
            _solar(
                variant,
                rooftop=M4_ROOFTOP_OFFSET if variant is AP else ROOFTOP_BOUND,
                lcoe=55.8 if variant is AP else 58.62,
            ),
            _geothermal(variant),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.PER_PERIOD,
        periods=_periods(variant),
        emissions_cap=EMISSIONS_CAP,
        budget_cap=BUDGET_CAP,
        land_cap=LAND_CAP,
        space_mode=SpaceMode.SHARED_LAND,
        coefficient_variant=variant,
        description="wind+solar+geothermal; the published block prices wind at 73.7 $/MWh",
    )


def _a1(variant: CoefficientVariant) -> Scenario:
    if variant is AP:
        # Region reconstructed from the published corner points: they are
        # vertices only under the results-implied shares, the 3.578e12 g
        # emissions cap, a shared land row with no rooftop offset, and no
        # budget row (corner A breaks every printed budget pricing).
        return Scenario(
            name="a1_om_objective",
            sources=(
                _wind(variant, fractions=WIND_RESULTS_FRACTIONS),
                _solar(variant, rooftop=0.0, fractions=SOLAR_PRINTED_FRACTIONS),
            ),
            annual_need=ANNUAL_NEED,
            demand_mode=DemandMode.PER_PERIOD,
            periods=_periods(variant),
            emissions_cap=EMISSIONS_CAP,
            land_cap=LAND_CAP,
            space_mode=SpaceMode.SHARED_LAND,
            objective_mode=ObjectiveMode.OM_ONLY,
            coefficient_variant=variant,
            description="shared-space model under the O&M-only objective (corner-point region)",
        )
    base = _m3(variant)
    return Scenario(
        name="a1_om_objective",
        sources=base.sources,
        annual_need=base.annual_need,
        demand_mode=base.demand_mode,
        periods=base.periods,
        emissions_cap=base.emissions_cap,
        budget_cap=base.budget_cap,
        land_cap=base.land_cap,
        space_mode=base.space_mode,
        objective_mode=ObjectiveMode.OM_ONLY,
        coefficient_variant=variant,
        description="shared-space model under the O&M-only objective",
    )


def _b1(variant: CoefficientVariant) -> Scenario:
    # Emissions become the objective, so the emissions row drops; the
    # budget row is priced at full LCOE instead of capital cost.
    return Scenario(
        name="b1_min_emissions",
        sources=(
            _wind(variant, early_printed=True),
            _solar(variant, rooftop=M3_ROOFTOP_OFFSET if variant is AP else ROOFTOP_BOUND),
        ),
        annual_need=ANNUAL_NEED,
        demand_mode=DemandMode.PER_PERIOD,
        periods=_periods(variant),
        budget_cap=BUDGET_CAP,
        land_cap=LAND_CAP,
        space_mode=SpaceMode.SHARED_LAND,
        objective_mode=ObjectiveMode.EMISSIONS,
        budget_rates=BudgetRates.LCOE,
        coefficient_variant=variant,
        description="minimize emissions with costs capped at full LCOE pricing",
    )


_BUILDERS = {
    "m0_cost_only": _m0,
    "m1_flat_demand": _m1,
    "m2_period_demand": _m2,
    "m3_shared_space": _m3,
    "m4_nuclear": lambda v: _m4(v),
    "m4_tight_space": lambda v: _m4(v, tight=True),
    "m5_geothermal": _m5,
    "a1_om_objective": _a1,
    "b1_min_emissions": _b1,
}

CATALOG_NAMES = tuple(_BUILDERS)


def builtin_scenarios() -> tuple[Scenario, ...]:
    """The full catalog: every model in both coefficient variants."""
    return tuple(
        _BUILDERS[name](variant) for name in CATALOG_NAMES for variant in (AP, TD)
    )


def scenario_names() -> tuple[str, ...]:
    return CATALOG_NAMES


def get_scenario(name: str, variant: CoefficientVariant = AP) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(CATALOG_NAMES)}") from None
    return builder(variant)
