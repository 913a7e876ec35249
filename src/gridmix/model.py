"""Energy technologies, planning scenarios, and the scenario -> LP compiler.

A Scenario bundles a set of EnergySources with demand, emission, budget,
and land data and compiles deterministically into a LinearProgram. Two
space treatments exist: per-source production bounds (the land budget
divided by each source's land rate, plus a rooftop bound for rooftop
solar) and a single shared-land row where rooftop-exempt solar output is
folded into the right-hand side as an affine offset.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .lp import Constraint, LinearProgram, Relation, Sense, Solution, Status

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
    "SourceReportRow",
    "ScenarioReport",
    "compile_scenario",
    "compile_sweep",
    "report",
    "load_scenario_file",
    "scenario_from_dict",
    "CAP_FIELDS",
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
        rates = {
            "lcoe": self.lcoe,
            "capital_cost": self.capital_cost,
            "om_cost": self.om_cost,
            "emissions": self.emissions,
            "land_use": self.land_use,
            "rooftop_allowance": self.rooftop_allowance,
            "min_annual_output": self.min_annual_output,
        }
        for label, value in rates.items():
            if not math.isfinite(value) or value < 0.0:
                raise ScenarioError(f"source {self.name!r}: {label} must be finite and >= 0")
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
        if self.annual_need <= 0.0:
            raise ScenarioError(f"scenario {self.name!r}: annual need must be positive")
        for cap_name in CAP_FIELDS.values():
            cap = getattr(self, cap_name)
            if cap is not None:
                _check_cap(self.name, cap_name, cap)
        if self.demand_mode is DemandMode.PER_PERIOD:
            if len(self.periods) != 3:
                raise ScenarioError(f"scenario {self.name!r}: per-period demand needs 3 periods")
            if sum(p.hours for p in self.periods) != 24:
                raise ScenarioError(f"scenario {self.name!r}: period hours must sum to 24")

    def with_objective(self, mode: ObjectiveMode) -> "Scenario":
        return replace(self, objective_mode=mode)

    def with_cap(self, cap_name: str, value: float) -> "Scenario":
        if cap_name not in CAP_FIELDS.values():
            raise ScenarioError(f"unknown cap {cap_name!r}")
        return replace(self, **{cap_name: value})


def _check_cap(scenario_name: str, cap_name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ScenarioError(f"scenario {scenario_name!r}: {cap_name} must be > 0")


def _objective_rate(source: EnergySource, mode: ObjectiveMode) -> float:
    if mode is ObjectiveMode.LCOE:
        return source.lcoe
    if mode is ObjectiveMode.OM_ONLY:
        return source.om_cost
    return source.emissions


def compile_scenario(scenario: Scenario) -> LinearProgram:
    """Translate *scenario* into a LinearProgram.

    Row order is fixed (demand, emissions, budget, space) so identical
    scenarios compile to bit-identical programs.
    """
    return _compile(scenario)[0]


# A capped row: its index, the Scenario cap attribute it reads, and its rhs
# as a function of that cap's value.
_CapRow = tuple[int, str, Callable[[float], float]]


def _same(cap: float) -> float:
    return cap


def _compile(scenario: Scenario) -> tuple[LinearProgram, list[_CapRow]]:
    """``compile_scenario``, plus every row a cap writes and how: each
    capped row's rhs is written by its own function of the cap."""
    if not scenario.sources:
        raise ScenarioError(f"scenario {scenario.name!r}: at least one source is required")
    sources = scenario.sources
    n = len(sources)
    objective = tuple(_objective_rate(s, scenario.objective_mode) for s in sources)
    constraints: list[Constraint] = []
    capped: list[_CapRow] = []

    def cap_row(cap_name: str, rhs_of: Callable[[float], float], coefficients, label: str, unit: str) -> None:
        capped.append((len(constraints), cap_name, rhs_of))
        rhs = rhs_of(getattr(scenario, cap_name))
        constraints.append(Constraint(tuple(coefficients), Relation.LE, rhs, label, ROW_UNITS[unit]))

    if scenario.demand_mode is DemandMode.FLAT_ANNUAL:
        constraints.append(
            Constraint(
                coefficients=(1.0,) * n,
                relation=Relation.GE,
                rhs=scenario.annual_need,
                label="demand",
                unit=ROW_UNITS["demand"],
            )
        )
    else:
        for idx, period in enumerate(scenario.periods):
            coeffs = []
            for s in sources:
                if s.period_fractions is None:
                    raise ScenarioError(
                        f"scenario {scenario.name!r}: source {s.name!r} has no period fractions"
                    )
                coeffs.append(s.period_fractions[idx])
            rhs = period.demand_mwh
            if rhs is None:
                rhs = scenario.annual_need * period.demand_fraction
            constraints.append(
                Constraint(
                    coefficients=tuple(coeffs),
                    relation=Relation.GE,
                    rhs=rhs,
                    label=f"demand_{period.name}",
                    unit=ROW_UNITS["demand"],
                )
            )

    if scenario.emissions_cap is not None:
        cap_row("emissions_cap", _same, (s.emissions for s in sources), "emissions", "emissions")

    if scenario.budget_cap is not None:
        rate = (
            (lambda s: s.capital_cost)
            if scenario.budget_rates is BudgetRates.CAPITAL
            else (lambda s: s.lcoe)
        )
        cap_row("budget_cap", _same, (rate(s) for s in sources), "budget", "budget")

    if scenario.space_mode is SpaceMode.SEPARATE_BOUNDS:
        for j, s in enumerate(sources):
            if s.rooftop_allowance > 0.0:
                if scenario.rooftop_cap is None:
                    raise ScenarioError(
                        f"scenario {scenario.name!r}: rooftop source {s.name!r} needs a rooftop cap"
                    )
                cap_name, rhs_of = "rooftop_cap", _same
            elif s.land_use > 0.0 and scenario.land_cap is not None:
                cap_name, rhs_of = "land_cap", lambda cap, rate=s.land_use: math.floor(cap / rate)
            else:
                continue
            coeffs = (1.0 if k == j else 0.0 for k in range(n))
            cap_row(cap_name, rhs_of, coeffs, f"space_{s.name}", "space_bound")
    else:
        if scenario.land_cap is None:
            raise ScenarioError(
                f"scenario {scenario.name!r}: shared-land space mode requires a land cap"
            )
        # Rooftop-exempt output enters as an affine offset on the rhs.
        offset = sum(s.land_use * s.rooftop_allowance for s in sources)
        cap_row("land_cap", lambda cap: cap + offset, (s.land_use for s in sources), "land", "land")

    return LinearProgram(
        sense=Sense.MINIMIZE,
        objective=objective,
        constraints=tuple(constraints),
        var_count=n,
        lower_bounds=tuple(s.min_annual_output for s in sources),
        variable_names=tuple(s.name for s in sources),
    ), capped


def compile_sweep(scenario: Scenario, cap_name: str, values: Sequence[float]) -> tuple[LinearProgram, np.ndarray]:
    """Compile *scenario* once for a non-empty grid of *cap_name* values.

    Returns the program of ``scenario.with_cap(cap_name, values[0])`` and a
    (len(values), m) array whose row i holds, to the bit, the constraints'
    rhs that ``compile_scenario(scenario.with_cap(cap_name, values[i]))``
    writes; ``lp.solve_rhs`` solves the program at every row. Each value
    is checked, and an error raised, as ``with_cap`` would.
    """
    if len(values) == 0:
        raise ScenarioError(f"scenario {scenario.name!r}: no {cap_name} values to sweep")
    program, capped = _compile(scenario.with_cap(cap_name, values[0]))
    for value in values:
        _check_cap(scenario.name, cap_name, value)
    m = len(program.constraints)
    rhs = np.tile(program.rows.rhs[:m], (len(values), 1))
    for row, name, rhs_of in capped:
        if name == cap_name:
            rhs[:, row] = np.array([rhs_of(value) for value in values], dtype=float)
    return program, rhs


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class SourceReportRow:
    source: str
    per_period: tuple[float, float, float] | None
    annual: float
    land_ft2: float
    emissions_g: float
    capital_usd: float
    objective: float


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    variant: str
    status: Status
    objective_mode: ObjectiveMode
    objective_value: float
    rows: tuple[SourceReportRow, ...]
    total: SourceReportRow | None
    binding: frozenset[str]


def report(scenario: Scenario, solution: Solution) -> ScenarioReport:
    """Tabulate a solved scenario by source: per-period output, land,
    emissions, capital spend, and objective contribution.

    Non-optimal solutions yield a status-only report.
    """
    if solution.status is not Status.OPTIMAL:
        return ScenarioReport(
            scenario=scenario.name,
            variant=scenario.coefficient_variant.value,
            status=solution.status,
            objective_mode=scenario.objective_mode,
            objective_value=math.nan,
            rows=(),
            total=None,
            binding=frozenset(),
        )
    rows: list[SourceReportRow] = []
    per_period_mode = scenario.demand_mode is DemandMode.PER_PERIOD
    for s, value in zip(scenario.sources, solution.values):
        per_period = None
        if per_period_mode and s.period_fractions is not None:
            per_period = tuple(value * f for f in s.period_fractions)
        land = s.land_use * max(0.0, value - s.rooftop_allowance)
        rows.append(
            SourceReportRow(
                source=s.name,
                per_period=per_period,
                annual=value,
                land_ft2=land,
                emissions_g=s.emissions * value,
                capital_usd=s.capital_cost * value,
                objective=_objective_rate(s, scenario.objective_mode) * value,
            )
        )
    total = SourceReportRow(
        source="total",
        per_period=(
            tuple(sum(r.per_period[i] for r in rows if r.per_period) for i in range(3))
            if per_period_mode
            else None
        ),
        annual=sum(r.annual for r in rows),
        land_ft2=sum(r.land_ft2 for r in rows),
        emissions_g=sum(r.emissions_g for r in rows),
        capital_usd=sum(r.capital_usd for r in rows),
        objective=sum(r.objective for r in rows),
    )
    return ScenarioReport(
        scenario=scenario.name,
        variant=scenario.coefficient_variant.value,
        status=solution.status,
        objective_mode=scenario.objective_mode,
        objective_value=solution.objective_value,
        rows=tuple(rows),
        total=total,
        binding=solution.binding,
    )


# ---------------------------------------------------------------------------
# scenario documents

_TOP_KEYS = {
    "name",
    "objective_mode",
    "coefficient_variant",
    "annual_need_mwh",
    "demand_mode",
    "periods",
    "sources",
    "caps",
    "space_mode",
}
_PERIOD_KEYS = {"name", "hours", "demand_fraction"}
_SOURCE_KEYS = {
    "name",
    "lcoe",
    "capital_cost",
    "om_cost",
    "emissions_g_per_mwh",
    "land_ft2_per_mwh",
    "rooftop_allowance_mwh",
    "period_fractions",
    "min_annual_output_mwh",
}

_OBJECTIVE_VALUES = {m.value: m for m in ObjectiveMode}
_DEMAND_VALUES = {m.value: m for m in DemandMode}
_SPACE_VALUES = {m.value: m for m in SpaceMode}
_VARIANT_VALUES = {m.value: m for m in CoefficientVariant}


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


def _enum(value, table: dict, where: str):
    if not isinstance(value, str) or value not in table:
        raise ScenarioFormatError(
            f"{where}: expected one of {sorted(table)}, got {value!r}"
        )
    return table[value]


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
    objective = _enum(_require(doc, "objective_mode", where), _OBJECTIVE_VALUES, f"{where}.objective_mode")
    variant = _enum(
        _require(doc, "coefficient_variant", where), _VARIANT_VALUES, f"{where}.coefficient_variant"
    )
    demand_mode = _enum(_require(doc, "demand_mode", where), _DEMAND_VALUES, f"{where}.demand_mode")
    space_mode = _enum(_require(doc, "space_mode", where), _SPACE_VALUES, f"{where}.space_mode")
    annual_need = _number(_require(doc, "annual_need_mwh", where), f"{where}.annual_need_mwh")

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
        hours = _number(_require(p, "hours", loc), f"{loc}.hours")
        if not (math.isfinite(hours) and hours.is_integer()):
            raise ScenarioFormatError(f"{loc}.hours: expected a whole number, got {hours!r}")
        periods.append(
            DayPeriod(
                name=pname,
                hours=int(hours),
                demand_fraction=_number(_require(p, "demand_fraction", loc), f"{loc}.demand_fraction"),
            )
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
        try:
            sources.append(
                EnergySource(
                    name=sname,
                    lcoe=_number(_require(s, "lcoe", loc), f"{loc}.lcoe"),
                    capital_cost=_number(_require(s, "capital_cost", loc), f"{loc}.capital_cost"),
                    om_cost=_number(_require(s, "om_cost", loc), f"{loc}.om_cost"),
                    emissions=_number(
                        _require(s, "emissions_g_per_mwh", loc), f"{loc}.emissions_g_per_mwh"
                    ),
                    land_use=_number(
                        _require(s, "land_ft2_per_mwh", loc), f"{loc}.land_ft2_per_mwh"
                    ),
                    rooftop_allowance=_number(
                        _require(s, "rooftop_allowance_mwh", loc), f"{loc}.rooftop_allowance_mwh"
                    ),
                    period_fractions=tuple(
                        _number(f, f"{loc}.period_fractions[{k}]")
                        for k, f in enumerate(fractions_doc)
                    ),
                    min_annual_output=_number(
                        _require(s, "min_annual_output_mwh", loc), f"{loc}.min_annual_output_mwh"
                    ),
                )
            )
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
        value = caps[CAP_FIELDS[key]] = _number(value, f"{where}.caps.{key}")
        if value <= 0.0:
            raise ScenarioFormatError(f"{where}.caps.{key}: must be > 0")

    try:
        return Scenario(
            name=name,
            sources=tuple(sources),
            annual_need=annual_need,
            demand_mode=demand_mode,
            periods=tuple(periods),
            **caps,
            space_mode=space_mode,
            objective_mode=objective,
            coefficient_variant=variant,
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
        "objective_mode": scenario.objective_mode.value,
        "coefficient_variant": scenario.coefficient_variant.value,
        "annual_need_mwh": scenario.annual_need,
        "demand_mode": scenario.demand_mode.value,
        "periods": [
            {"name": p.name, "hours": p.hours, "demand_fraction": p.demand_fraction}
            for p in scenario.periods
        ],
        "sources": [
            {
                "name": s.name,
                "lcoe": s.lcoe,
                "capital_cost": s.capital_cost,
                "om_cost": s.om_cost,
                "emissions_g_per_mwh": s.emissions,
                "land_ft2_per_mwh": s.land_use,
                "rooftop_allowance_mwh": s.rooftop_allowance,
                "period_fractions": list(s.period_fractions or (0.0, 0.0, 0.0)),
                "min_annual_output_mwh": s.min_annual_output,
            }
            for s in scenario.sources
        ],
        "caps": {key: getattr(scenario, cap) for key, cap in CAP_FIELDS.items()},
        "space_mode": scenario.space_mode.value,
    }


def load_scenario_file(path: str | Path, *, base: Scenario | None = None) -> Scenario:
    """Load a scenario document; with *base*, file keys override the base
    scenario key-by-key (caps merge per key, lists replace wholesale).

    The base's budget pricing always carries over, and so do its periods,
    pinned demand included, unless the file sets ``periods``,
    ``annual_need_mwh`` or ``demand_mode``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
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
