"""The six names still read as ``gridmix.analysis.<name>`` from outside the
package, each the very object that ``gridmix.oracle``, ``gridmix.parametric``,
``gridmix.audit`` or ``gridmix.scenario`` defines. Nothing in the package
imports this module. The readers:

- ``sweep`` and ``CAP_FIELDS``: ``perfbench/workloads.py`` and the pinned
  ``tests/test_solve_many.py`` and ``tests/test_solve_rhs.py``;
- ``oracle_solve``, ``corner_report`` and ``audit_reference_results``:
  ``perfbench/workloads.py`` and ``perfbench/worker.py``;
- ``enumerate_vertices``: ``perfbench/tracing.py``'s ``TARGETS``.

It also loads ``gridmix.derivation``, which no name here uses: the
benchmark's tracer wraps ``derivation.derive_all`` through ``sys.modules``.
ROADMAP item 8 (*Imports*) is the benchmark change that lets this module go.
"""

from __future__ import annotations

from . import derivation  # noqa: F401 - read from sys.modules by the benchmark's tracer
from .audit import audit_reference_results
from .oracle import corner_report, enumerate_vertices, oracle_solve
from .parametric import sweep
from .scenario import CAP_FIELDS

__all__ = ["CAP_FIELDS", "audit_reference_results", "corner_report", "enumerate_vertices", "oracle_solve", "sweep"]
