"""Recompute every right-hand-side constant of the built-in models.

Each scenario constant ships in two flavors: the published value used
verbatim by the catalog, and the value recomputed here from the raw
inputs (state consumption data, coverage factors, land areas, emission
rates). ``derive_all`` returns both, plus a delta table so any gap
between the published number and its own arithmetic is a recorded
finding instead of a silent correction.

All derived values are kept at full float precision; only reports round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import PUBLISHED

__all__ = [
    "DerivationError",
    "DerivedConstant",
    "DeltaRow",
    "DerivedConstants",
    "estimate_city_share",
    "annual_need",
    "baseline_emissions",
    "emissions_cap",
    "land_budget",
    "production_bound",
    "period_rhs",
    "derive_all",
    "RAW",
]


class DerivationError(ValueError):
    """Raised when a derivation input is outside its domain."""


@dataclass(frozen=True)
class DerivedConstant:
    name: str
    value: float
    unit: str
    provenance: str


@dataclass(frozen=True)
class DeltaRow:
    name: str
    recomputed: float
    published: float
    rel_delta: float
    note: str = ""


@dataclass(frozen=True)
class DerivedConstants:
    constants: tuple[DerivedConstant, ...]
    deltas: tuple[DeltaRow, ...]

    def __getitem__(self, name: str) -> DerivedConstant:
        for c in self.constants:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.constants)

    def value(self, name: str) -> float:
        return self[name].value

    def delta(self, name: str) -> DeltaRow:
        for d in self.deltas:
            if d.name == name:
                return d
        raise KeyError(name)


def estimate_city_share(
    city_elec: float,
    elec_coverage: float,
    city_gas: float,
    gas_coverage: float,
    state_total: float,
) -> float:
    """Estimate the city's share of statewide energy use.

    Reported city electricity/gas consumption covers only a fraction of
    the true totals, so each figure is grossed up by its coverage before
    dividing by the statewide total.
    """
    if not 0.0 < elec_coverage <= 1.0 or not 0.0 < gas_coverage <= 1.0:
        raise DerivationError("coverage fractions must be in (0, 1]")
    if state_total <= 0.0:
        raise DerivationError("state total must be positive")
    return (city_elec / elec_coverage + city_gas / gas_coverage) / state_total


def annual_need(state_total: float, adjusted_share: float, non_clean_fraction: float) -> float:
    """Annual MWh the city must replace with clean sources.

    ``adjusted_share`` is the population-adjusted city share of statewide
    consumption; ``non_clean_fraction`` is the portion of that demand not
    already served by clean or renewable generation.
    """
    if not 0.0 <= adjusted_share <= 1.0 or not 0.0 <= non_clean_fraction <= 1.0:
        raise DerivationError("fractions must be in [0, 1]")
    if state_total <= 0.0:
        raise DerivationError("state total must be positive")
    return state_total * adjusted_share * non_clean_fraction


def baseline_emissions(mix: list[tuple[float, float]], total: float) -> float:
    """Grams of CO2 emitted by the current generation mix.

    ``mix`` pairs each source's share of consumption with its emission
    rate in g/MWh; ``total`` is the annual consumption the shares apply to.
    """
    if any(fraction < 0.0 for fraction, _ in mix):
        raise DerivationError("mix fractions must be nonnegative")
    return sum(total * fraction * rate for fraction, rate in mix)


def emissions_cap(baseline: float, reduction: float) -> float:
    """Emission budget after cutting *baseline* by *reduction*."""
    if not 0.0 <= reduction <= 1.0:
        raise DerivationError("reduction must be in [0, 1]")
    return baseline * (1.0 - reduction)


def land_budget(state_area_ft2: float, unoccupied_fraction: float, dedication: float) -> float:
    """Land (ft^2) set aside for new plants: area x unoccupied x dedicated."""
    if not 0.0 <= unoccupied_fraction <= 1.0 or not 0.0 <= dedication <= 1.0:
        raise DerivationError("fractions must be in [0, 1]")
    return state_area_ft2 * unoccupied_fraction * dedication


def production_bound(area_ft2: float, land_rate: float) -> float:
    """Whole-MWh production cap for an area at *land_rate* ft^2 per MWh."""
    if land_rate <= 0.0:
        raise DerivationError("land rate must be positive")
    return math.floor(area_ft2 / land_rate)


def period_rhs(total_need: float, demand_fraction: float) -> float:
    """MWh a day period must deliver, at full precision."""
    if not 0.0 <= demand_fraction <= 1.0:
        raise DerivationError("demand fraction must be in [0, 1]")
    return total_need * demand_fraction


# Raw published inputs, each with a real-world citation target. The
# population-adjusted share 0.07 is an authorial judgment call (the 4%
# population growth does not arithmetically produce 7% from 5.88%), so it
# is configuration, not derivation.
RAW: dict[str, float] = {
    "state_total_2021_mwh": 1_091_285_298.314,
    "state_total_2010_mwh": 1_168_009_546.0,
    "city_elec_2010_mwh": 15_142_030.0,
    "elec_coverage": 0.68,
    "city_gas_2010_mwh": 37_998_300.0,
    "gas_coverage": 0.81,
    "adjusted_share": 0.07,
    "clean_shares": 0.5263 + 0.1227 + 0.0150 + 0.0006,
    "state_area_ft2": 1_614_570_000_000.0,
    "unoccupied_fraction": 0.47,
    "dedication": 1.0 / 15.0,
    "rooftop_area_ft2": 70_532_107.0,
    "wind_land_ft2_per_mwh": 1065.6,
    "solar_land_ft2_per_mwh": 204.5,
    "emissions_reduction": 0.80,
}

# Current-mix emission shares and g/MWh rates, with the published table's
# oil/biomass MWh figures pairing with 0.04%/0.21% respectively (the
# table's own percent labels print transposed).
_BASELINE_MIX = [
    (0.2099, 820_000.0),     # coal
    (0.1231, 490_000.0),     # natural gas
    (0.0004, 1_106_765.0),   # oil
    (0.0021, 230_000.0),     # biomass
]
_BASELINE_MIX_SWAPPED = [
    (0.2099, 820_000.0),
    (0.1231, 490_000.0),
    (0.0021, 1_106_765.0),   # oil at the printed 0.21% label
    (0.0004, 230_000.0),     # biomass at the printed 0.04% label
]

_DEMAND_FRACTIONS = {"early_morning": 0.2759, "daytime": 0.5149, "evening": 0.2344}

# Deltas below this threshold are measurement noise; above it they join
# the delta table.
_DELTA_FLOOR = 0.0005


def derive_all() -> DerivedConstants:
    """Recompute the full constant set and diff it against published values.

    Constants suffixed ``_printed`` are the published numbers scenarios
    consume; unsuffixed entries are the recomputed counterparts. Every
    recomputed/published pair whose relative gap exceeds 0.05% lands in
    the delta table.
    """
    constants: list[DerivedConstant] = []
    deltas: list[DeltaRow] = []

    def add(name: str, value: float, unit: str, provenance: str) -> float:
        constants.append(DerivedConstant(name, value, unit, provenance))
        return value

    def diff(name: str, recomputed: float, published: float, note: str = "") -> None:
        rel = abs(recomputed - published) / abs(published)
        if rel > _DELTA_FLOOR or note:
            deltas.append(DeltaRow(name, recomputed, published, rel, note))

    share = estimate_city_share(
        RAW["city_elec_2010_mwh"],
        RAW["elec_coverage"],
        RAW["city_gas_2010_mwh"],
        RAW["gas_coverage"],
        RAW["state_total_2010_mwh"],
    )
    add(
        "city_share_2010",
        share,
        "fraction",
        "2010 city electricity/gas grossed up by 68%/81% coverage over the state total",
    )
    add("city_share_2010_printed", PUBLISHED["city_share_2010"], "fraction", "published share")
    diff(
        "city_share_2010",
        share,
        PUBLISHED["city_share_2010"],
        "published gas estimate 46,504,074 equals 37,668,300/0.81, not 37,998,300/0.81",
    )

    add(
        "adjusted_share",
        RAW["adjusted_share"],
        "fraction",
        "population-adjusted share; configured input (author judgment, not derivable)",
    )

    non_clean = 1.0 - RAW["clean_shares"]
    add(
        "non_clean_fraction",
        non_clean,
        "fraction",
        "one minus the nuclear/wind/solar/hydro shares of state generation",
    )

    need = annual_need(RAW["state_total_2021_mwh"], RAW["adjusted_share"], non_clean)
    add("annual_need_mwh", need, "MWh", "2021 state total x adjusted share x non-clean fraction")
    add(
        "annual_need_mwh_printed",
        PUBLISHED["annual_need_mwh"],
        "MWh",
        "published demand floor; used by every scenario",
    )
    diff("annual_need_mwh", need, PUBLISHED["annual_need_mwh"],
         "published value rounds the intermediate city total before multiplying")

    city_total = RAW["state_total_2021_mwh"] * RAW["adjusted_share"]
    add("city_total_2021_mwh", city_total, "MWh", "2021 state total x adjusted share")
    diff("city_total_2021_mwh", city_total, PUBLISHED["city_total_2021_mwh"])

    baseline = baseline_emissions(_BASELINE_MIX, PUBLISHED["city_total_2021_mwh"])
    add(
        "baseline_emissions_g",
        baseline,
        "g CO2",
        "current-mix shares x emission rates x city total (oil at 0.04%, biomass at 0.21%)",
    )
    diff("baseline_emissions_g", baseline, PUBLISHED["baseline_emissions_g"])
    swapped = baseline_emissions(_BASELINE_MIX_SWAPPED, PUBLISHED["city_total_2021_mwh"])
    add(
        "baseline_emissions_swapped_g",
        swapped,
        "g CO2",
        "same mix with the oil/biomass pairing taken from the printed percent labels",
    )
    diff(
        "baseline_emissions_swapped_g",
        swapped,
        baseline,
        "oil/biomass rows transposed in the published table; both pairings recomputed",
    )

    cap = emissions_cap(baseline, RAW["emissions_reduction"])
    add("emissions_cap_g", cap, "g CO2", "recomputed baseline cut by 80%")
    add(
        "emissions_cap_g_printed",
        PUBLISHED["emissions_cap_g"],
        "g CO2",
        "published cap; used by every table-derived scenario",
    )
    diff("emissions_cap_g", cap, PUBLISHED["emissions_cap_g"],
         "published cap implies a slightly larger baseline than its own mix table")

    land = land_budget(RAW["state_area_ft2"], RAW["unoccupied_fraction"], RAW["dedication"])
    add("land_budget_ft2", land, "ft^2", "state area x 47% unoccupied x 1/15 dedicated")
    diff("land_budget_ft2", land, PUBLISHED["land_budget_ft2"])

    wind_bound = production_bound(land, RAW["wind_land_ft2_per_mwh"])
    add("wind_production_bound_mwh", wind_bound, "MWh", "land budget / 1065.6 ft^2 per MWh")
    diff("wind_production_bound_mwh", wind_bound, PUBLISHED["wind_production_bound_mwh"])

    rooftop = production_bound(RAW["rooftop_area_ft2"], RAW["solar_land_ft2_per_mwh"])
    add("rooftop_bound_mwh", rooftop, "MWh", "building footprint / 204.5 ft^2 per MWh")
    diff("rooftop_bound_mwh", rooftop, PUBLISHED["rooftop_bound_mwh"])

    add(
        "budget_cap_usd",
        PUBLISHED["budget_cap_usd"],
        "USD",
        "published construction budget; configured input",
    )

    for period, fraction in _DEMAND_FRACTIONS.items():
        value = period_rhs(PUBLISHED["annual_need_mwh"], fraction)
        add(
            f"{period}_rhs_mwh",
            value,
            "MWh",
            f"annual need x {fraction} (highest observed {period.replace('_', ' ')} demand share)",
        )
        add(
            f"{period}_rhs_mwh_printed",
            PUBLISHED[f"{period}_rhs_mwh"],
            "MWh",
            "published rounded period requirement",
        )
        diff(f"{period}_rhs_mwh", value, PUBLISHED[f"{period}_rhs_mwh"])

    return DerivedConstants(constants=tuple(constants), deltas=tuple(deltas))
