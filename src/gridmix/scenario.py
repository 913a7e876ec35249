"""Planning scenarios as data, and the scenario file format.

A Scenario bundles a set of EnergySources with demand, emission, budget,
and land data; every field is frozen and checked when it is built. The
file format is a JSON tree whose keys fix their units (MWh, g, USD,
ft^2): ``scenario_from_dict`` and ``load_scenario_file`` read it, and
``scenario_to_dict`` writes it. ``gridmix.model`` compiles a Scenario
into a LinearProgram.

This module imports neither numpy nor ``gridmix.lp``, so the catalog,
the derivations and the CLI's ``list`` and ``derive`` start without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

__all__ = [
    "ScenarioError",
    "ScenarioFormatError",
    "DemandMode",
    "SpaceMode",
    "ObjectiveMode",
    "CoefficientVariant",
    "BudgetRates",
    "EnergySource",
    "DayPeriod",
    "Scenario",
    "load_scenario_file",
    "scenario_from_dict",
    "scenario_to_dict",
    "CAP_FIELDS",
    "PERIOD_NAMES",
    "ROW_UNITS",
]


class ScenarioError(ValueError):
    """A scenario is internally inconsistent or cannot be compiled."""


class ScenarioFormatError(ScenarioError):
    """A scenario document violates the file schema."""


class DemandMode(str, Enum):
    FLAT_ANNUAL = "flat_annual"
    PER_PERIOD = "per_period"


class SpaceMode(str, Enum):
    SEPARATE_BOUNDS = "separate_bounds"
    SHARED_LAND = "shared_land"


class ObjectiveMode(str, Enum):
    LCOE = "lcoe"
    OM_ONLY = "om"
    EMISSIONS = "emissions"


class CoefficientVariant(str, Enum):
    AS_PRINTED = "as_printed"
    TABLE_DERIVED = "table_derived"


class BudgetRates(str, Enum):
    """Which per-MWh rate prices the budget row."""

    CAPITAL = "capital"
    LCOE = "lcoe"


@dataclass(frozen=True)
class EnergySource:
    """One technology's unit rates.

    ``period_fractions`` gives the share of annual output delivered in
    each day period (early morning, daytime, evening). The published
    shares do not always sum to 1 (wind's do, solar's reach 0.9999);
    they are stored as printed. ``rooftop_allowance`` is annual solar
    output exempt from the shared land budget.
    """

    name: str
    lcoe: float
    capital_cost: float = 0.0
    om_cost: float = 0.0
    emissions: float = 0.0              # g CO2 per MWh
    land_use: float = 0.0               # ft^2 per MWh
    rooftop_allowance: float = 0.0      # MWh per year
    period_fractions: tuple[float, float, float] | None = None
    min_annual_output: float = 0.0      # MWh per year

    def __post_init__(self) -> None:
        _check_rates({label: getattr(self, label) for label in _SOURCE_FIELDS.values()}, f"source {self.name!r}")
        if self.period_fractions is not None:
            if len(self.period_fractions) != 3:
                raise ScenarioError(f"source {self.name!r}: period_fractions needs 3 entries")
            if not all(0.0 <= f <= 1.0 for f in self.period_fractions):
                raise ScenarioError(f"source {self.name!r}: period fractions must be in [0, 1]")


@dataclass(frozen=True)
class DayPeriod:
    """One of the three demand slots the day splits into.

    ``demand_mwh`` optionally pins the period requirement to a published
    figure; when absent the requirement is annual_need x demand_fraction.
    """

    name: str
    hours: int
    demand_fraction: float
    demand_mwh: float | None = None

    def __post_init__(self) -> None:
        if self.hours <= 0:
            raise ScenarioError(f"period {self.name!r}: hours must be positive")
        if not 0.0 <= self.demand_fraction <= 1.0:
            raise ScenarioError(f"period {self.name!r}: demand fraction must be in [0, 1]")


PERIOD_NAMES = ("early_morning", "daytime", "evening")

# Constraint-row units by kind; the rhs unit always matches the unit of
# every coefficient's numerator in that row.
ROW_UNITS = {
    "demand": "MWh",
    "emissions": "g CO2",
    "budget": "USD",
    "space_bound": "MWh",
    "land": "ft^2",
}

# Each cap's key in a scenario file (its unit in the name) -> its Scenario
# attribute; the one list of caps that files, sweeps and validation share.
CAP_FIELDS = {
    "emissions_g": "emissions_cap",
    "budget_usd": "budget_cap",
    "land_ft2": "land_cap",
    "rooftop_mwh": "rooftop_cap",
}

# Each numeric source key in a scenario file -> its EnergySource attribute.
_SOURCE_FIELDS = {
    "lcoe": "lcoe",
    "capital_cost": "capital_cost",
    "om_cost": "om_cost",
    "emissions_g_per_mwh": "emissions",
    "land_ft2_per_mwh": "land_use",
    "rooftop_allowance_mwh": "rooftop_allowance",
    "min_annual_output_mwh": "min_annual_output",
}


def _check_rates(rates: dict[str, float], where: str, error: type[ScenarioError] = ScenarioError) -> None:
    """Raise *error* naming the first of *rates* that is not finite and >= 0."""
    for name, value in rates.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise error(f"{where}: {name} must be finite and >= 0")


# Each enum key in a scenario file, also its Scenario attribute -> its Enum.
_ENUM_FIELDS = {
    "objective_mode": ObjectiveMode,
    "coefficient_variant": CoefficientVariant,
    "demand_mode": DemandMode,
    "space_mode": SpaceMode,
}


@dataclass(frozen=True)
class Scenario:
    name: str
    sources: tuple[EnergySource, ...]
    annual_need: float
    demand_mode: DemandMode = DemandMode.FLAT_ANNUAL
    periods: tuple[DayPeriod, ...] = ()
    emissions_cap: float | None = None
    budget_cap: float | None = None
    land_cap: float | None = None
    rooftop_cap: float | None = None
    space_mode: SpaceMode = SpaceMode.SEPARATE_BOUNDS
    objective_mode: ObjectiveMode = ObjectiveMode.LCOE
    coefficient_variant: CoefficientVariant = CoefficientVariant.AS_PRINTED
    budget_rates: BudgetRates = BudgetRates.CAPITAL
    description: str = ""

    def __post_init__(self) -> None:
        for key, kind in (*_ENUM_FIELDS.items(), ("budget_rates", BudgetRates)):
            value = getattr(self, key)
            if type(value) is not kind:   # its value string becomes the member; anything else is refused
                object.__setattr__(self, key, _enum(value, kind, f"scenario {self.name!r}: {key}", ScenarioError))
        if not (math.isfinite(self.annual_need) and self.annual_need > 0.0):
            raise ScenarioError(f"scenario {self.name!r}: annual need must be finite and > 0")
        names = [s.name for s in self.sources]
        if len(set(names)) < len(names):
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise ScenarioError(f"scenario {self.name!r}: source {repeated!r} appears more than once")
        for cap_name in CAP_FIELDS.values():
            cap = getattr(self, cap_name)
            if cap is not None:
                _check_cap(self.name, cap_name, cap)
        if self.demand_mode is DemandMode.PER_PERIOD:
            if len(self.periods) != 3:
                raise ScenarioError(f"scenario {self.name!r}: per-period demand needs 3 periods")
            if sum(p.hours for p in self.periods) != 24:
                raise ScenarioError(f"scenario {self.name!r}: period hours must sum to 24")
        # Demand row i reads every source's i-th period fraction.
        if self.periods and tuple(p.name for p in self.periods) != PERIOD_NAMES:
            raise ScenarioError(
                f"scenario {self.name!r}: periods must be {', '.join(PERIOD_NAMES)} in that order, "
                f"got {', '.join(p.name for p in self.periods)}"
            )

    def with_objective(self, mode: ObjectiveMode) -> "Scenario":
        return replace(self, objective_mode=mode)

    def with_cap(self, cap_name: str, value: float) -> "Scenario":
        if cap_name not in CAP_FIELDS.values():
            raise ScenarioError(f"unknown cap {cap_name!r}")
        return replace(self, **{cap_name: value})


def _check_cap(scenario_name: str, cap_name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ScenarioError(f"scenario {scenario_name!r}: {cap_name} must be > 0")


# ---------------------------------------------------------------------------
# scenario documents

_TOP_KEYS = {"name", "annual_need_mwh", "periods", "sources", "caps", *_ENUM_FIELDS}
_PERIOD_KEYS = {"name", "hours", "demand_fraction"}
_SOURCE_KEYS = {"name", "period_fractions", *_SOURCE_FIELDS}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioFormatError(f"{where}: missing key {key!r}")
    return mapping[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{where}: number out of range") from None


def _number_at(mapping: dict, key: str, where: str) -> float:
    return _number(_require(mapping, key, where), f"{where}.{key}")


def _positive(value: float, where: str) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ScenarioFormatError(f"{where}: must be finite and > 0")
    return value


def _enum(value, kind: type[Enum], where: str, error: type[ScenarioError] = ScenarioFormatError):
    values = [m.value for m in kind]
    if not isinstance(value, str) or value not in values:
        raise error(f"{where}: expected one of {sorted(values)}, got {value!r}")
    return kind(value)


def scenario_from_dict(doc: dict, *, where: str = "scenario") -> Scenario:
    """Build a Scenario from the documented JSON-compatible tree.

    All units are fixed by key name (MWh, g, USD, ft^2); unknown keys are
    rejected anywhere in the tree.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{where}: expected an object at the top level")
    _reject_unknown(doc, _TOP_KEYS, where)

    name = _require(doc, "name", where)
    if not isinstance(name, str) or not name:
        raise ScenarioFormatError(f"{where}: name must be a non-empty string")
    enums = {
        key: _enum(_require(doc, key, where), kind, f"{where}.{key}") for key, kind in _ENUM_FIELDS.items()
    }
    annual_need = _positive(_number_at(doc, "annual_need_mwh", where), f"{where}.annual_need_mwh")

    periods_doc = _require(doc, "periods", where)
    if not isinstance(periods_doc, list):
        raise ScenarioFormatError(f"{where}.periods: expected a list")
    periods = []
    for i, p in enumerate(periods_doc):
        loc = f"{where}.periods[{i}]"
        if not isinstance(p, dict):
            raise ScenarioFormatError(f"{loc}: expected an object")
        _reject_unknown(p, _PERIOD_KEYS, loc)
        pname = _require(p, "name", loc)
        if pname not in PERIOD_NAMES:
            raise ScenarioFormatError(f"{loc}.name: expected one of {PERIOD_NAMES}, got {pname!r}")
        hours = _number_at(p, "hours", loc)
        if not (math.isfinite(hours) and hours.is_integer()):
            raise ScenarioFormatError(f"{loc}.hours: expected a whole number, got {hours!r}")
        fraction = _number_at(p, "demand_fraction", loc)
        try:
            periods.append(DayPeriod(pname, int(hours), fraction))
        except ScenarioError as exc:
            raise ScenarioFormatError(f"{loc}: {exc}") from exc
    # Demand row i reads every source's i-th period fraction.
    if periods and tuple(p.name for p in periods) != PERIOD_NAMES:
        raise ScenarioFormatError(
            f"{where}.periods: expected {', '.join(PERIOD_NAMES)} in that order, "
            f"got {', '.join(p.name for p in periods)}"
        )

    sources_doc = _require(doc, "sources", where)
    if not isinstance(sources_doc, list) or not sources_doc:
        raise ScenarioFormatError(f"{where}.sources: expected a non-empty list")
    sources = []
    for i, s in enumerate(sources_doc):
        loc = f"{where}.sources[{i}]"
        if not isinstance(s, dict):
            raise ScenarioFormatError(f"{loc}: expected an object")
        _reject_unknown(s, _SOURCE_KEYS, loc)
        fractions_doc = _require(s, "period_fractions", loc)
        if not isinstance(fractions_doc, list) or len(fractions_doc) != 3:
            raise ScenarioFormatError(f"{loc}.period_fractions: expected 3 numbers")
        sname = _require(s, "name", loc)
        if not isinstance(sname, str) or not sname:
            raise ScenarioFormatError(f"{loc}.name: expected a non-empty string")
        fractions = tuple(_number(f, f"{loc}.period_fractions[{k}]") for k, f in enumerate(fractions_doc))
        rates = {key: _number_at(s, key, loc) for key in _SOURCE_FIELDS}
        _check_rates(rates, f"{loc}: source {sname!r}", ScenarioFormatError)
        rates = {attr: rates[key] for key, attr in _SOURCE_FIELDS.items()}
        try:
            sources.append(EnergySource(name=sname, period_fractions=fractions, **rates))
        except ScenarioError as exc:
            raise ScenarioFormatError(f"{loc}: {exc}") from exc

    caps_doc = _require(doc, "caps", where)
    if not isinstance(caps_doc, dict):
        raise ScenarioFormatError(f"{where}.caps: expected an object")
    _reject_unknown(caps_doc, set(CAP_FIELDS), f"{where}.caps")
    caps = {}
    for key in sorted(CAP_FIELDS):
        value = _require(caps_doc, key, f"{where}.caps")
        if value is None:  # null: no cap
            caps[CAP_FIELDS[key]] = None
            continue
        caps[CAP_FIELDS[key]] = _positive(_number(value, f"{where}.caps.{key}"), f"{where}.caps.{key}")

    try:
        return Scenario(
            name=name,
            sources=tuple(sources),
            annual_need=annual_need,
            periods=tuple(periods),
            **caps,
            **enums,
        )
    except ScenarioError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize *scenario* into the documented tree.

    The tree has no key for pinned period demand (``DayPeriod.demand_mwh``)
    or budget pricing (``budget_rates``), so those two do not round-trip;
    ``load_scenario_file`` carries them over from its base instead.
    """
    return {
        "name": scenario.name,
        **{key: getattr(scenario, key).value for key in _ENUM_FIELDS},
        "annual_need_mwh": scenario.annual_need,
        "periods": [
            {"name": p.name, "hours": p.hours, "demand_fraction": p.demand_fraction}
            for p in scenario.periods
        ],
        "sources": [
            {
                "name": s.name,
                **{key: getattr(s, attr) for key, attr in _SOURCE_FIELDS.items()},
                "period_fractions": list(s.period_fractions or (0.0, 0.0, 0.0)),
            }
            for s in scenario.sources
        ],
        "caps": {key: getattr(scenario, cap) for key, cap in CAP_FIELDS.items()},
    }


def load_scenario_file(path: str | Path, *, base: Scenario | None = None) -> Scenario:
    """Load a scenario document; with *base*, file keys override the base
    scenario key-by-key (caps merge per key, lists replace wholesale).

    The base's budget pricing always carries over, and so do its periods,
    pinned demand included, unless the file sets ``periods``,
    ``annual_need_mwh`` or ``demand_mode``. The file is read as UTF-8; a
    file that cannot be read or decoded raises ScenarioFormatError naming it.
    """
    import json   # loaded only by the commands that read a scenario file

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:   # an integer past the digit limit, nesting past the stack
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    if base is not None:
        if not isinstance(doc, dict):
            raise ScenarioFormatError(f"{path}: expected an object at the top level")
        _reject_unknown(doc, _TOP_KEYS, str(path))
        merged = scenario_to_dict(base)
        for key, value in doc.items():
            if key == "caps" and isinstance(value, dict):
                merged["caps"] = {**merged["caps"], **value}
            else:
                merged[key] = value
        scenario = scenario_from_dict(merged, where=str(path))
        kept = {"budget_rates": base.budget_rates}
        if not doc.keys() & {"periods", "annual_need_mwh", "demand_mode"}:
            kept["periods"] = base.periods
        return replace(scenario, **kept)
    return scenario_from_dict(doc, where=str(path))
