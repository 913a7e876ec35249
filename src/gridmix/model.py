"""The scenario -> LP compiler, and the report of a solved scenario.

``compile_scenario`` translates a Scenario (``gridmix.scenario``) into a
LinearProgram deterministically. Two space treatments exist: per-source
production bounds (the land budget divided by each source's land rate,
plus a rooftop bound for rooftop solar) and a single shared-land row where
rooftop-exempt solar output is folded into the right-hand side as an
affine offset. ``compile_sweep`` writes one rhs row per cap value,
``cap_rows`` names the rows a cap writes, and ``report`` tabulates a
solution by source.

This module loads ``gridmix.lp``, and numpy only when ``compile_sweep``
first runs; ``gridmix.scenario`` loads neither. The scenario data names
live in ``gridmix.scenario``; of them, only ``CAP_FIELDS``,
``CoefficientVariant`` and ``load_scenario_file`` are re-exported here,
for callers that read them as ``gridmix.model.<name>``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
from operator import add
from typing import NamedTuple

from .lp import Constraint, LinearProgram, Relation, Sense, Solution, Status, _Deferred
from .scenario import (
    ROW_UNITS,
    BudgetRates,
    DemandMode,
    EnergySource,
    ObjectiveMode,
    Scenario,
    ScenarioError,
    SpaceMode,
    _check_cap,
)
from .scenario import CAP_FIELDS, CoefficientVariant, load_scenario_file  # noqa: F401 - read as gridmix.model.<name>

__all__ = [
    "SourceReportRow",
    "ScenarioReport",
    "compile_scenario",
    "compile_sweep",
    "cap_rows",
    "tabulate",
    "report",
]

np = _Deferred(globals())


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


# A capped row: its index, its label, the Scenario cap attribute it reads,
# and how its rhs follows from that cap: floor(cap / divisor), or cap +
# offset where the divisor is None.
_CapRow = tuple[int, str, str, "float | None", float]


def _rhs_of(scenario_name: str, row: _CapRow, caps):
    """Capped *row*'s rhs at *caps*, one cap value or an array of them.
    Raises ScenarioError at the first cap whose rhs is past the float range."""
    _, label, cap_name, divisor, offset = row
    if isinstance(caps, (int, float)):
        rhs = caps + offset if divisor is None else caps / divisor
        past = [] if math.isfinite(rhs) else [caps]
        if divisor is not None and not past:   # math.floor raises on inf
            rhs = float(math.floor(rhs))
    else:
        with np.errstate(over="ignore"):
            rhs = caps + offset if divisor is None else np.floor(caps / divisor)
        past = caps[~np.isfinite(rhs)].tolist()
    if past:
        raise ScenarioError(
            f"scenario {scenario_name!r}: {cap_name} {past[0]!r} puts the rhs of row {label!r} past the float range"
        )
    return rhs


def _compile(scenario: Scenario) -> tuple[LinearProgram, list[_CapRow]]:
    """``compile_scenario``, plus every row a cap writes and how."""
    if not scenario.sources:
        raise ScenarioError(f"scenario {scenario.name!r}: at least one source is required")
    sources = scenario.sources
    n = len(sources)
    objective = tuple([_objective_rate(s, scenario.objective_mode) for s in sources])
    constraints: list[Constraint] = []

    if scenario.demand_mode is DemandMode.FLAT_ANNUAL:
        constraints.append(Constraint((1.0,) * n, Relation.GE, scenario.annual_need, "demand", ROW_UNITS["demand"]))
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
                Constraint(tuple(coeffs), Relation.GE, rhs, f"demand_{period.name}", ROW_UNITS["demand"])
            )

    # Each capped row: its cap attribute, coefficients, label, unit, divisor and offset.
    caps: list[tuple[str, list[float], str, str, float | None, float]] = []
    if scenario.emissions_cap is not None:
        caps.append(("emissions_cap", [s.emissions for s in sources], "emissions", "emissions", None, 0.0))
    if scenario.budget_cap is not None:
        capital = scenario.budget_rates is BudgetRates.CAPITAL
        rates = [s.capital_cost if capital else s.lcoe for s in sources]
        caps.append(("budget_cap", rates, "budget", "budget", None, 0.0))
    if scenario.space_mode is SpaceMode.SEPARATE_BOUNDS:
        for j, s in enumerate(sources):
            if s.rooftop_allowance > 0.0:
                if scenario.rooftop_cap is None:
                    raise ScenarioError(
                        f"scenario {scenario.name!r}: rooftop source {s.name!r} needs a rooftop cap"
                    )
                cap_name, divisor = "rooftop_cap", None
            elif s.land_use > 0.0 and scenario.land_cap is not None:
                cap_name, divisor = "land_cap", s.land_use
            else:
                continue
            unit = [0.0] * n
            unit[j] = 1.0
            caps.append((cap_name, unit, f"space_{s.name}", "space_bound", divisor, 0.0))
    else:
        if scenario.land_cap is None:
            raise ScenarioError(
                f"scenario {scenario.name!r}: shared-land space mode requires a land cap"
            )
        # Rooftop-exempt output enters as an affine offset on the rhs.
        offset = sum(s.land_use * s.rooftop_allowance for s in sources)
        caps.append(("land_cap", [s.land_use for s in sources], "land", "land", None, offset))

    capped: list[_CapRow] = []
    for cap_name, coefficients, label, unit, divisor, offset in caps:
        row = (len(constraints), label, cap_name, divisor, offset)
        capped.append(row)
        rhs = _rhs_of(scenario.name, row, getattr(scenario, cap_name))
        constraints.append(Constraint(tuple(coefficients), Relation.LE, rhs, label, ROW_UNITS[unit]))

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
    writes; ``parametric.solve_rhs`` solves the program at every row. The values
    are checked and the rhs written as whole arrays. The first value that
    ``with_cap`` would refuse raises its ScenarioError, and the first that
    puts a rhs past the float range raises ``compile_scenario``'s, before
    anything is solved. A cap with no row to bound leaves every rhs row
    the same: the rooftop cap compiles a row only under separate space
    bounds and for a source with a rooftop allowance, so on a shared-land
    scenario or one without rooftop solar it is accepted and ignored.
    """
    if len(values) == 0:
        raise ScenarioError(f"scenario {scenario.name!r}: no {cap_name} values to sweep")
    program, capped = _compile(scenario.with_cap(cap_name, values[0]))
    caps = np.asarray(values, dtype=float)
    ok = np.isfinite(caps)
    ok[ok] = caps[ok] > 0.0   # compares finite values only
    bad = np.flatnonzero(~ok)
    if len(bad):
        _check_cap(scenario.name, cap_name, float(caps[bad[0]]))   # raises
    m = len(program.constraints)
    rhs = np.tile(program.rows.rhs[:m], (len(caps), 1))
    for row in capped:
        index, _, name, *_ = row
        if name == cap_name:
            rhs[:, index] = _rhs_of(scenario.name, row, caps)
    return program, rhs


def cap_rows(scenario: Scenario, cap_name: str) -> tuple[str, ...]:
    """The labels of the rows whose rhs *scenario*'s *cap_name* writes; none
    when the cap bounds no row (see ``compile_sweep``). An unknown cap
    raises ScenarioError."""
    if cap_name not in CAP_FIELDS.values():
        raise ScenarioError(f"unknown cap {cap_name!r}")
    return tuple(label for _, label, name, *_ in _compile(scenario)[1] if name == cap_name)


# ---------------------------------------------------------------------------
# reporting


class SourceReportRow(NamedTuple):
    source: str
    per_period: tuple[float, float, float] | None
    annual: float
    land_ft2: float
    emissions_g: float
    capital_usd: float
    objective: float


class ScenarioReport(NamedTuple):
    scenario: str
    variant: str
    status: Status
    objective_mode: ObjectiveMode
    objective_value: float
    rows: tuple[SourceReportRow, ...]
    total: SourceReportRow | None
    binding: frozenset[str]


def tabulate(scenario: Scenario, values: Sequence[float]) -> tuple[tuple[SourceReportRow, ...], SourceReportRow]:
    """Each source's report row at annual outputs *values*, and their total:
    the one place the report quantities are computed from a point.

    Raises ScenarioError when a total amount is past the float range. No
    LP row bounds an uncapped rate, so the solve cannot catch it; every
    per-source amount is >= 0, so any infinite one makes its total infinite.
    """
    per_period_mode = scenario.demand_mode is DemandMode.PER_PERIOD
    mode = scenario.objective_mode
    rows = []
    for s, value in zip(scenario.sources, values):
        fractions = s.period_fractions if per_period_mode else None
        rows.append(
            SourceReportRow(
                s.name,
                None if fractions is None else tuple([value * f for f in fractions]),
                value,
                s.land_use * max(0.0, value - s.rooftop_allowance),
                s.emissions * value,
                s.capital_cost * value,
                _objective_rate(s, mode) * value,
            )
        )
    # One transposition; each total adds its column to 0 in source order.
    # Not sum(): from Python 3.12 it compensates float sums, so a total's
    # last bit would depend on the Python version.
    _, periods, *columns = zip(*rows) if rows else ((),) * len(SourceReportRow._fields)
    amounts = [reduce(add, column, 0) for column in columns]
    if not all(map(math.isfinite, amounts)):
        overflowed = ", ".join(
            name for name, amount in zip(SourceReportRow._fields[2:], amounts) if not math.isfinite(amount)
        )
        raise ScenarioError(f"scenario {scenario.name!r}: report totals past the float range: {overflowed}")
    per_period = None
    if per_period_mode:
        per_period = tuple(reduce(add, (p[i] for p in periods if p), 0) for i in range(3))
    total = SourceReportRow("total", per_period, *amounts)
    return tuple(rows), total


def report(scenario: Scenario, solution: Solution) -> ScenarioReport:
    """Tabulate a solved scenario by source: per-period output, land,
    emissions, capital spend, and objective contribution.

    Non-optimal solutions yield a status-only report.
    """
    optimal = solution.status is Status.OPTIMAL
    rows, total = tabulate(scenario, solution.values) if optimal else ((), None)
    return ScenarioReport(
        scenario=scenario.name,
        variant=scenario.coefficient_variant.value,
        status=solution.status,
        objective_mode=scenario.objective_mode,
        objective_value=solution.objective_value if optimal else math.nan,
        rows=rows,
        total=total,
        binding=solution.binding if optimal else frozenset(),
    )

