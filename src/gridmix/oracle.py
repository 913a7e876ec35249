"""The vertex oracle, corner reports and the feasibility audit of a point.

The vertex oracle has two halves, split where the objective enters.
``_region`` intersects every n-subset of constraint hyperplanes (variable
bounds included) and keeps the feasible intersection points. ``_verdict``
ranks them by objective and takes the best once the same enumeration over
the recession cone's extreme rays has ruled out unboundedness.
``enumerate_vertices`` and ``oracle_solve`` are built on the two; the audit
(``gridmix.audit``) enumerates each distinct region once per call, so
tables 12 and 13 share one, and reads the verdict without building
``Vertex`` records. The oracle shares no pivoting code with the simplex,
which is what makes agreement between the two a certificate; both test
points against rows with the one kernel ``lp.check_rows``, and so does
``check_feasible``.
Singular subsystems are detected by batched partial-pivot elimination on
row-equilibrated matrices with the SINGULAR_TOL pivot threshold;
equilibration matters because the built-in models mix fraction-scale
rows with 1e13 g emission rows. Many subsets meet at one vertex of a
degenerate region, so the intersection points are deduplicated: two are
equal when every coordinate is within ROW_TOL * max(1, the largest
|coordinate| of the pair). Every pair is tested in one (k, k) array, and
a greedy pass in lexicographic order keeps each point equal to none kept
before it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .lp import (
    ROW_TOL, Constraint, LinearProgram, LPError, Relation, Sense, Status, ValidationError, check_rows,
)

__all__ = [
    "UnsupportedSizeError",
    "Vertex",
    "OracleResult",
    "CornerRow",
    "CornerReport",
    "ConstraintCheck",
    "FeasibilityReport",
    "enumerate_vertices",
    "oracle_solve",
    "corner_report",
    "check_feasible",
]

SINGULAR_TOL = 1e-12   # smallest pivot of a vertex subsystem, absolute on equilibrated rows
TIE_TOL = 1e-9         # oracle objective ties, relative to max(1, |best objective|),
                       # and improving rays, relative to max(1, max|c|)
MAX_SUBSETS = 10_000   # the most n-subsets of rows one vertex enumeration solves


class UnsupportedSizeError(LPError, ValueError):
    """Vertex enumeration is combinatorial: a region of r rows (variable
    bounds included) in n variables has C(r, n) row subsets to solve, and
    more than MAX_SUBSETS are refused before any is built."""


class Vertex(NamedTuple):
    point: tuple[float, ...]
    objective: float
    binding: frozenset[str]


class OracleResult(NamedTuple):
    status: Status
    objective: float | None
    point: tuple[float, ...] | None
    vertices: tuple[Vertex, ...]     # every vertex of the feasible region, as enumerate_vertices orders them


def _batch_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a (K, n, n) float64 batch of square systems by Gauss-Jordan
    with partial pivoting; returns solutions and a nonsingular mask."""
    k, n, _ = a.shape
    m = np.concatenate([a, b[..., None]], axis=2)
    scale = np.abs(a).max(axis=2)
    nonzero = scale > 0.0
    ok = nonzero.all(axis=1)
    m /= np.where(nonzero, scale, 1.0)[:, :, None]
    rows = np.arange(k)
    for col in range(n):
        if col < n - 1:     # a search over the last row alone picks that row
            pivot_row = np.abs(m[:, col:, col]).argmax(axis=1) + col
            swap = m[rows, pivot_row]
            m[rows, pivot_row] = m[:, col]
            m[:, col] = swap
        pivots = m[:, col, col]
        usable = np.abs(pivots) > SINGULAR_TOL
        ok &= usable
        m[:, col, :] /= np.where(usable, pivots, 1.0)[:, None]
        factors = m[:, :, col].copy()
        factors[:, col] = 0.0
        m -= factors[:, :, None] * m[:, col : col + 1, :]
    return m[:, :, n], ok


@functools.cache
def _subsets(row_count: int, n: int) -> np.ndarray:
    """Every n-subset of range(row_count) as one read-only (C(row_count, n), n)
    index array in ``itertools.combinations`` order, built once per (row_count, n)."""
    index = np.array(list(itertools.combinations(range(row_count), n)), dtype=np.intp).reshape(-1, n)
    index.flags.writeable = False
    return index


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) mask of point equality: a[i] equals b[j] when
    every coordinate is within ROW_TOL * max(1, the largest |coordinate|
    of the pair). Each entry takes the same IEEE operations as a test of
    the one pair."""
    span = np.maximum(np.maximum(1.0, np.abs(a).max(axis=1))[:, None], np.abs(b).max(axis=1))
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2) <= ROW_TOL * span


def _dedup(points: np.ndarray) -> list[int]:
    """Indices of *points* in lexicographic order, skipping each point
    equal to one already kept. Every pair is compared in one (k, k)
    ``_near`` array; only the greedy pass is Python."""
    near = _near(points, points).tolist()
    kept: list[int] = []
    for idx in np.lexsort(points.T[::-1]).tolist():
        row = near[idx]
        if not any(row[j] for j in kept):
            kept.append(idx)
    return kept


def _region(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The oracle's row-only half: the (k, n) feasible intersection points
    of *lp*'s n-subsets of rows, their (k, r) binding masks over
    ``lp.rows``, and the indices ``_dedup`` keeps. Capped at MAX_SUBSETS
    row subsets."""
    n = lp.var_count
    rows = lp.rows
    count = math.comb(len(rows.rhs), n)
    if count > MAX_SUBSETS:
        raise UnsupportedSizeError(
            f"vertex enumeration supports at most {MAX_SUBSETS:,} row subsets, "
            f"got C({len(rows.rhs)}, {n}) = {count:,}"
        )
    idx = _subsets(len(rows.rhs), n)      # never empty: the n bound rows are one subset
    points, ok = _batch_solve(rows.matrix[idx], rows.rhs[idx])
    points = points[ok]
    _, _, satisfied, binding = check_rows(rows, points)
    feasible = satisfied.all(axis=1)
    points = points[feasible]
    return points, binding[feasible], _dedup(points)


def _ranked(lp: LinearProgram, region: tuple) -> list[tuple[float, tuple[float, ...], int]]:
    """(objective, point, index) of each kept point of *region*, ordered
    by (objective, point)."""
    points, _, kept = region
    objective = np.asarray(lp.objective)
    coordinates = points.tolist()
    ranked = [(float(points[i] @ objective), tuple(coordinates[i]), i) for i in kept]
    ranked.sort(key=lambda r: (r[0], r[1]))
    return ranked


def _verdict(lp: LinearProgram, region: tuple) -> tuple[Status, list, tuple | None]:
    """The oracle's verdict on *lp* over its region: the status, the
    ``_ranked`` vertices, and the optimum among them when there is one.

    No vertex means infeasible. Every variable is bounded below, so a
    feasible region has a vertex, and it is unbounded exactly when an
    extreme ray d of its recession cone improves the objective:
    sign * c.d < -TIE_TOL * max(1, max|c|), with sign -1 when maximizing
    (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
    §4.8). The rays are enumerated only when some sign * c_i < 0, since
    no d >= 0 improves otherwise. Else the optimum is the first vertex, in
    ranked order, within TIE_TOL of the best objective.
    """
    ranked = _ranked(lp, region)
    if not ranked:
        return Status.INFEASIBLE, ranked, None
    sign = 1.0 if lp.sense is Sense.MINIMIZE else -1.0
    cost = [sign * c for c in lp.objective]
    if min(cost) < 0.0:
        band = TIE_TOL * max(1.0, max(map(abs, cost)))
        cone = _recession_cone(lp)
        if any(sign * ray < -band for ray, _, _ in _ranked(cone, _region(cone))):
            return Status.UNBOUNDED, ranked, None
    best = (min if sign > 0.0 else max)(r[0] for r in ranked)
    chosen = next(r for r in ranked if abs(r[0] - best) <= TIE_TOL * max(1.0, abs(best)))
    return Status.OPTIMAL, ranked, chosen


def _vertices(lp: LinearProgram, region: tuple, ranked: list) -> list[Vertex]:
    labels = [c.label for c in lp.constraints]
    flags = region[1].tolist()
    return [
        Vertex(point=point, objective=objective, binding=frozenset(itertools.compress(labels, flags[i])))
        for objective, point, i in ranked
    ]


def enumerate_vertices(lp: LinearProgram) -> list[Vertex]:
    """All vertices of the feasible region, deduplicated at ROW_TOL
    relative, ordered by (objective, point). Capped at MAX_SUBSETS row subsets."""
    region = _region(lp)
    return _vertices(lp, region, _ranked(lp, region))


def _recession_cone(lp: LinearProgram) -> LinearProgram:
    """The directions d >= 0 along which *lp*'s region recedes, cut by
    sum(d) = 1: its vertices are the extreme rays of the recession cone.

    Each row keeps its relation with rhs 0 and is divided by its max-abs
    coefficient, so ``check_rows``' absolute band at rhs 0 means the same
    on 1e-2 rows as on 1e13 rows.
    """
    n = lp.var_count
    rows = [Constraint((1.0,) * n, Relation.EQ, 1.0, "sum(d)")]
    for c in lp.constraints:
        scale = max(map(abs, c.coefficients))
        rows.append(Constraint(tuple(a / scale for a in c.coefficients), c.relation, 0.0, c.label))
    return LinearProgram(sense=lp.sense, objective=lp.objective, constraints=tuple(rows), var_count=n)


def oracle_solve(lp: LinearProgram) -> OracleResult:
    """Classify and solve *lp* by brute force, as ``_verdict`` sets out;
    ``vertices`` are those of ``enumerate_vertices``."""
    region = _region(lp)
    status, ranked, chosen = _verdict(lp, region)
    vertices = tuple(_vertices(lp, region, ranked))
    objective, point = chosen[:2] if chosen else (None, None)
    return OracleResult(status=status, objective=objective, point=point, vertices=vertices)


# ---------------------------------------------------------------------------
# corner report


class CornerRow(NamedTuple):
    point: tuple[float, ...]
    binding: frozenset[str]
    values: dict[str, float]


class CornerReport(NamedTuple):
    objectives: tuple[str, ...]
    rows: tuple[CornerRow, ...]
    argmin: dict[str, int]           # objective name -> row index
    shared_argmin: bool

    def argmin_point(self, name: str) -> tuple[float, ...]:
        return self.rows[self.argmin[name]].point


def corner_report(lp: LinearProgram, objectives: list[tuple[str, tuple[float, ...]]]) -> CornerReport:
    """Evaluate several named objective vectors at every feasible vertex
    and flag the argmin of each; ``shared_argmin`` says whether all
    objectives select the same vertex."""
    vertices = enumerate_vertices(lp)
    if not vertices:
        raise LPError("corner_report: the feasible region has no vertex")
    rows = tuple(
        CornerRow(
            point=v.point,
            binding=v.binding,
            values={name: float(np.dot(vec, v.point)) for name, vec in objectives},
        )
        for v in vertices
    )
    argmin = {}
    for name, _vec in objectives:
        argmin[name] = min(range(len(rows)), key=lambda i: (rows[i].values[name], i))
    indices = set(argmin.values())
    return CornerReport(
        objectives=tuple(name for name, _ in objectives),
        rows=rows,
        argmin=argmin,
        shared_argmin=len(indices) == 1,
    )


# ---------------------------------------------------------------------------
# feasibility of one point


class ConstraintCheck(NamedTuple):
    label: str
    relation: Relation
    activity: float
    rhs: float
    violation: float        # 0.0 when satisfied
    satisfied: bool
    binding: bool


class FeasibilityReport(NamedTuple):
    feasible: bool
    checks: tuple[ConstraintCheck, ...]
    bounds_ok: bool
    worst_violation: float
    worst_label: str | None
    binding: frozenset[str]
    violated: frozenset[str]


def check_feasible(lp: LinearProgram, values: tuple[float, ...]) -> FeasibilityReport:
    """Audit a candidate point against every constraint and lower bound.

    Violations and binding tests are those of ``check_rows``, relative to
    each row's scale max(1, |rhs|), which keeps gram-scale rows (~1e12)
    and fraction-scale demand rows comparable. Raises ValidationError
    when *values* has the wrong length or a value that is not finite.
    """
    if len(values) != lp.var_count:
        raise ValidationError(f"expected {lp.var_count} values, got {len(values)}")
    for name, value in zip(lp.variable_names, values):
        if not math.isfinite(value):
            raise ValidationError(f"the value of {name!r} is not finite: {value!r}")
    m = len(lp.constraints)
    rows = lp.rows
    activity, violation, satisfied, binding = (
        a[0] for a in check_rows(rows, np.array([values], dtype=float))
    )
    checks = tuple(
        ConstraintCheck(c.label, c.relation, act, c.rhs, vio, sat, bind)
        for c, act, vio, sat, bind in zip(
            lp.constraints, activity.tolist(), violation.tolist(), satisfied.tolist(), binding.tolist()
        )
    )
    relative = violation[:m] / rows.scale[:m]
    worst = float(relative.max(initial=0.0))
    bounds_ok = bool(satisfied[m:].all())
    violated = frozenset(ch.label for ch in checks if not ch.satisfied)
    return FeasibilityReport(
        feasible=bounds_ok and not violated,
        checks=checks,
        bounds_ok=bounds_ok,
        worst_violation=worst,
        worst_label=lp.constraints[int(np.argmax(relative))].label if worst > 0.0 else None,
        binding=frozenset(ch.label for ch in checks if ch.binding),
        violated=violated,
    )
