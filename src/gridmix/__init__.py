"""gridmix: clean-energy portfolio linear programs for one city.

A from-scratch two-phase simplex (``gridmix.lp``), a scenario catalog
(``gridmix.scenario``, ``gridmix.catalog``) compiled into LPs
(``gridmix.model``), one program solved at many right-hand sides and cap
sweeps (``gridmix.parametric``), audited derivations of every model
constant (``gridmix.derivation``), an independent vertex-enumeration
oracle (``gridmix.oracle``) and the reproduction audit
(``gridmix.audit``). ``gridmix.analysis`` keeps six of those names under
their pre-split module for the benchmark and the pinned tests, and
nothing in the package imports it; ROADMAP item 8 (*Imports*) is the
benchmark change that lets it go. The scenario, catalog and derivation
modules load neither numpy nor ``gridmix.lp``, and ``gridmix.lp`` loads
neither the block loop nor the oracle.
"""

from importlib import import_module

# Each re-export and its defining module. They load on first use (PEP 562),
# so importing one submodule, e.g. ``gridmix.cli``, loads only what it needs.
_SOURCES = {
    "lp": ("Constraint", "LinearProgram", "Relation", "Sense", "Solution", "Status", "solve", "standardize"),
    "scenario": ("EnergySource", "DayPeriod", "Scenario", "DemandMode", "SpaceMode", "ObjectiveMode",
                 "CoefficientVariant", "load_scenario_file"),
    "model": ("ScenarioReport", "compile_scenario", "compile_sweep", "report"),
    "catalog": ("builtin_scenarios", "get_scenario", "scenario_names"),
    "derivation": ("DerivedConstants", "derive_all"),
    "parametric": ("solve_many", "solve_rhs", "sweep"),
    "oracle": ("Vertex", "OracleResult", "CornerReport", "FeasibilityReport", "enumerate_vertices",
               "oracle_solve", "corner_report", "check_feasible"),
    "audit": ("ReferenceAudit", "audit_reference_results"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
