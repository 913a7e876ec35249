"""Independent verification and sweeps, under one name: a re-export
facade over the modules that do each job.

- ``gridmix.oracle``: vertex enumeration, ``oracle_solve``,
  ``corner_report`` and ``check_feasible``;
- ``gridmix.parametric``: ``sweep`` and ``SweepPoint``, on the block loop;
- ``gridmix.audit``: the audit of the published result tables and its
  discrepancy ledger.

Every name keeps resolving as ``gridmix.analysis.<name>``, each the very
object its home module defines. Loading the facade loads all three, so
the CLI imports only the module each command runs and never this one.
The facade also loads ``gridmix.derivation``, which no job here uses:
the benchmark's tracer wraps ``derivation.derive_all`` through
``sys.modules`` and needs that module loaded once it has imported this
one.
"""

from __future__ import annotations

from . import derivation  # noqa: F401 - read from sys.modules by the benchmark's tracer
from .audit import (  # noqa: F401 - the private names are read as gridmix.analysis.<name>
    CORNER_A, CORNER_B, CORNER_D, DISCREPANCIES, _REFERENCE_TABLES, CellAudit, Discrepancy, ReferenceAudit,
    TableAudit, audit_reference_results,
)
from .oracle import (  # noqa: F401
    MAX_SUBSETS, SINGULAR_TOL, TIE_TOL, CornerReport, CornerRow, OracleResult, UnsupportedSizeError, Vertex,
    _batch_solve, _dedup, _near, _subsets, corner_report, enumerate_vertices, oracle_solve,
)
from .parametric import SweepPoint, sweep
from .scenario import CAP_FIELDS

__all__ = [
    "UnsupportedSizeError",
    "Vertex",
    "OracleResult",
    "CornerRow",
    "CornerReport",
    "SweepPoint",
    "Discrepancy",
    "CellAudit",
    "TableAudit",
    "ReferenceAudit",
    "enumerate_vertices",
    "oracle_solve",
    "corner_report",
    "sweep",
    "audit_reference_results",
    "DISCREPANCIES",
    "CAP_FIELDS",
]
