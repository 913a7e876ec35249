"""gridmix: clean-energy portfolio linear programs for one city.

A from-scratch two-phase simplex (``gridmix.lp``), a scenario catalog
compiling energy-mix models into LPs (``gridmix.model``,
``gridmix.catalog``), audited derivations of every model constant
(``gridmix.derivation``), and an independent vertex-enumeration oracle
plus reproduction audit (``gridmix.analysis``).
"""

from .analysis import (
    CornerReport,
    OracleResult,
    ReferenceAudit,
    Vertex,
    audit_reference_results,
    corner_report,
    enumerate_vertices,
    oracle_solve,
    sweep,
)
from .catalog import builtin_scenarios, get_scenario, scenario_names
from .derivation import DerivedConstants, derive_all
from .lp import (
    Constraint,
    FeasibilityReport,
    LinearProgram,
    Relation,
    Sense,
    Solution,
    Status,
    check_feasible,
    solve,
    standardize,
)
from .model import (
    CoefficientVariant,
    DayPeriod,
    DemandMode,
    EnergySource,
    ObjectiveMode,
    Scenario,
    ScenarioReport,
    SpaceMode,
    compile_scenario,
    load_scenario_file,
    report,
)

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "LinearProgram",
    "Relation",
    "Sense",
    "Solution",
    "Status",
    "FeasibilityReport",
    "solve",
    "standardize",
    "check_feasible",
    "EnergySource",
    "DayPeriod",
    "Scenario",
    "ScenarioReport",
    "DemandMode",
    "SpaceMode",
    "ObjectiveMode",
    "CoefficientVariant",
    "compile_scenario",
    "report",
    "load_scenario_file",
    "builtin_scenarios",
    "get_scenario",
    "scenario_names",
    "DerivedConstants",
    "derive_all",
    "Vertex",
    "OracleResult",
    "CornerReport",
    "ReferenceAudit",
    "enumerate_vertices",
    "oracle_solve",
    "corner_report",
    "sweep",
    "audit_reference_results",
    "__version__",
]
