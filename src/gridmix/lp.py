"""Dense-tableau two-phase simplex for small linear programs.

The solver targets the scale of the built-in energy models: at most a
handful of variables and a couple dozen constraints, with coefficient
magnitudes ranging from 1e-2 (period fractions) to 1e13 (emissions caps).
Every row is equilibrated (divided by its max-abs coefficient) before
phase 1 so pivot ratios stay well conditioned in 64-bit floats; the
scaling is undone when the solution is reported.

Pivoting defaults to Dantzig's rule (most negative reduced cost, smallest
ratio, ties broken toward the lowest row index). If the objective does
not fall below its best so far for 2*(m+n) iterations the solver falls
back to Bland's rule, which guarantees termination on degenerate instances.

``LinearProgram.rows`` is one dense view of a program's constraints and
lower bounds, built once and read by ``standardize``, ``check_feasible``,
the binding set of a Solution and the vertex oracle. ``check_rows`` is
the only test of points against rows. Every threshold is a module
constant below (ROW_TOL, FEAS_TOL, ...), never a parameter.

``solve`` is deterministic to the bit, and tests/test_solve_golden.py pins
every field of its Solutions. At this size a numpy call costs more than
its arithmetic, so the pivot choice, the basis bookkeeping and the
standard form read Python lists taken with one ``tolist()`` each; Python
floats round exactly as numpy's. Numpy stays where the order of a sum
fixes the result: the pivot's outer product, the priced-out cost rows,
and ``@``/``np.dot`` for activities and objectives.

A ``Tableau`` is one array: the body rows with the reduced-cost row
stacked under them (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, §3.6), so ``_apply_pivot``'s one outer product updates
both. Two loops pivot on it. ``solve`` runs the lone loop,
``_two_phase_lone`` over ``_run_lone``: one rhs column, a scalar stall
count and best objective, and the phase-1 verdict and the point read
out on Python floats.

``_solve_block`` runs the block loop, ``_two_phase`` over
``_run_simplex``: it solves one program at each row of a (k, m) rhs
array and returns each row's status and pivot count, and one (k, n)
array of the optimal points with their objectives. Two read-outs sit on
it: ``solve_rhs`` reads each row's Solution out through ``solve``'s
``_build_solution``, and ``analysis.sweep`` reads its points straight
from the arrays. ``solve_many`` groups a batch of programs that differ
only in their constraints' rhs into one ``solve_rhs`` call each, so the
rhs shift, equilibration and sign flip live in one place. Rows of rhs
whose standardized rhs have the same signs have the same tableau but for
the rhs, so they share one: it carries one rhs column per row, and every
pivot updates the whole block.
The rows are grouped by one packed sign code each (``np.packbits``, any
m). Each pivot is chosen by ``pivot_rule`` for the lead (first) column;
the others replay its ratio test, tie band included, in
``_leaving_rows``. The entering column depends only on the cost row and
the Bland flag, which all columns of a block share, so a column leaves
its block only where its leaving row, its Bland flag (from its own stall
count) or its phase-1 verdict differs from the lead's; it continues in a
block of its own from the same state. This is parametric rhs analysis
(Bertsimas & Tsitsiklis, §5.2): one basis stays optimal over an interval
of rhs values, so a sweep's grid needs few blocks. A block's per-column
steps (stall counts, split tests, the phase-1 verdict, reading out its
points) are whole-array operations, a block of one column included. The
bits match ``solve`` because every operation on the tableau is
elementwise per column (the outer-product update, the priced cost row,
the ratios and tolerances), and the objectives of all optimal points
come from one stacked product, ``np.matmul(P[:, None, :], c[:, None])``:
each (1, n) slice goes through the BLAS call of ``solve``'s
``np.dot(c, x)``, where a plain 2-D ``P @ c`` rounds differently. Two
caveats: P must be C-contiguous, or numpy skips BLAS and the objective
can move by an ulp; and at n = 1 ``np.dot`` is the bare product c*x,
-0.0 included, where the stacked form gives +0.0, so the objective is
that product.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, wraps
from itertools import compress
from typing import NamedTuple

import numpy as np

__all__ = [
    "Relation",
    "Sense",
    "Status",
    "Constraint",
    "LinearProgram",
    "Rows",
    "Solution",
    "StandardForm",
    "Tableau",
    "ConstraintCheck",
    "FeasibilityReport",
    "LPError",
    "ValidationError",
    "IterationLimitError",
    "solve",
    "solve_many",
    "solve_rhs",
    "standardize",
    "pivot_rule",
    "check_rows",
    "check_feasible",
]

ROW_TOL = 1e-6       # row check and point equality, relative to max(1, |rhs|) or the point scale
FEAS_TOL = 1e-7      # phase-1 residual of each row, relative to max(1, |its rhs|)
PIVOT_TOL = 1e-9     # smallest pivot entry, absolute on equilibrated rows; also the ratio tie band
OPT_TOL = 1e-9       # entering reduced cost, relative to max(1, largest |reduced cost|)
STALL_TOL = 1e-12    # smallest decrease below the best objective so far that resets the stall count, relative
MAX_ITER = 10_000    # pivots per phase


class LPError(Exception):
    """Base class for solver errors."""


class ValidationError(LPError):
    """Input data violates the LinearProgram contract."""


class IterationLimitError(LPError):
    """The simplex loop exceeded its iteration budget."""


_OUT_OF_RANGE = "the input's magnitudes are out of range"


def _in_float_range(func):
    """Run *func* with numpy overflow and invalid operations raising: each
    becomes an LPError instead of a RuntimeWarning and an answer of inf or
    nan."""

    @wraps(func)
    def guarded(*args):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return func(*args)
        except FloatingPointError as exc:
            raise LPError(f"{_OUT_OF_RANGE} ({exc})") from None

    return guarded


class _Unbounded(Exception):
    """Internal signal: an improving column has no blocking row."""


class Sense(str, Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Relation(str, Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """One linear constraint: coefficients . x  <relation>  rhs.

    ``unit`` tags the rhs and the numerator of every coefficient (e.g. a
    row in g CO2 has g/MWh coefficients and a gram rhs).
    """

    coefficients: tuple[float, ...]
    relation: Relation
    rhs: float
    label: str
    unit: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.rhs):
            raise ValidationError(f"constraint {self.label!r}: rhs is not finite")
        if not all(map(math.isfinite, self.coefficients)):
            raise ValidationError(f"constraint {self.label!r}: non-finite coefficient")
        if not any(self.coefficients):
            raise ValidationError(f"constraint {self.label!r}: all coefficients are zero")


_SENSE = {Relation.LE: 1.0, Relation.GE: -1.0, Relation.EQ: 0.0}


@dataclass(frozen=True, eq=False)
class Rows:
    """Dense half-spaces ``matrix @ x  <sense>  rhs``; callers never write
    to the arrays, which a LinearProgram shares with every reader.

    ``sense`` is +1 for <=, -1 for >= and 0 for =.
    """

    matrix: np.ndarray              # (r, n)
    rhs: np.ndarray                 # (r,), or (k, r) with one rhs per point of a check
    sense: np.ndarray               # (r,)
    scale: np.ndarray = field(init=False)   # max(1, |rhs|), each row's tolerance scale

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", np.maximum(1.0, np.abs(self.rhs)))


def check_rows(rows: Rows, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Test a (k, n) batch of points against every row of *rows*.

    Returns (k, r) arrays: activities, violations, and the satisfied and
    binding masks. A row is binding when |activity - rhs| is at most
    ROW_TOL * max(1, |rhs|), and satisfied when it is binding or, for an
    inequality, when the gap points into its half-space. The violation is
    0.0 for a satisfied row and |activity - rhs| otherwise.
    """
    return _check_activity(rows, points @ rows.matrix.T)


def _check_activity(rows: Rows, activity: np.ndarray) -> tuple[np.ndarray, ...]:
    """``check_rows`` for activities already computed. Every step is
    elementwise, so *rows*' rhs may hold one row of rhs per point."""
    gap = activity - rows.rhs
    distance = np.abs(gap)
    binding = distance <= ROW_TOL * rows.scale
    satisfied = binding | (rows.sense * gap < 0.0)
    return activity, np.where(satisfied, 0.0, distance), satisfied, binding


@dataclass(frozen=True)
class LinearProgram:
    sense: Sense
    objective: tuple[float, ...]
    constraints: tuple[Constraint, ...]
    var_count: int
    lower_bounds: tuple[float, ...] = ()
    variable_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.var_count <= 0:
            raise ValidationError("var_count must be positive")
        if len(self.objective) != self.var_count:
            raise ValidationError(
                f"objective has {len(self.objective)} coefficients for {self.var_count} variables"
            )
        if not all(map(math.isfinite, self.objective)):
            raise ValidationError("objective contains a non-finite coefficient")
        if not self.lower_bounds:
            object.__setattr__(self, "lower_bounds", (0.0,) * self.var_count)
        if len(self.lower_bounds) != self.var_count:
            raise ValidationError("lower_bounds length does not match var_count")
        if not all(math.isfinite(b) and b >= 0.0 for b in self.lower_bounds):
            raise ValidationError("lower bounds must be finite and >= 0")
        if not self.variable_names:
            object.__setattr__(
                self, "variable_names", tuple(f"x{i + 1}" for i in range(self.var_count))
            )
        if len(self.variable_names) != self.var_count:
            raise ValidationError("variable_names length does not match var_count")
        for row in self.constraints:
            if len(row.coefficients) != self.var_count:
                raise ValidationError(
                    f"constraint {row.label!r} has {len(row.coefficients)} coefficients "
                    f"for {self.var_count} variables"
                )

    def objective_at(self, values: tuple[float, ...] | np.ndarray) -> float:
        return float(np.dot(self.objective, values))

    @cached_property
    def rows(self) -> Rows:
        """Every half-space of the feasible region: the constraints in
        order, then ``x_i >= lower_bounds[i]``."""
        n, m = self.var_count, len(self.constraints)
        units = [0.0] * (n * n)                # unit lower-bound rows below the constraints
        units[:: n + 1] = [1.0] * n
        return Rows(
            matrix=np.array([a for c in self.constraints for a in c.coefficients] + units).reshape(m + n, n),
            rhs=np.array([c.rhs for c in self.constraints] + list(self.lower_bounds), dtype=float),
            sense=np.array([_SENSE[c.relation] for c in self.constraints] + [-1.0] * n),
        )


@dataclass(frozen=True)
class Solution:
    status: Status
    values: tuple[float, ...]
    objective_value: float
    activities: tuple[float, ...]
    binding: frozenset[str]
    iterations: int

    @property
    def is_optimal(self) -> bool:
        return self.status is Status.OPTIMAL


@dataclass(frozen=True)
class ConstraintCheck:
    label: str
    relation: Relation
    activity: float
    rhs: float
    violation: float        # 0.0 when satisfied
    satisfied: bool
    binding: bool


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    checks: tuple[ConstraintCheck, ...]
    bounds_ok: bool
    worst_violation: float
    worst_label: str | None
    binding: frozenset[str]
    violated: frozenset[str]


# ---------------------------------------------------------------------------
# standard form


@dataclass(frozen=True)
class StandardForm:
    """Equality-form data for the two-phase tableau.

    Columns are ordered structural | slack | surplus | artificial, and the
    rhs follows them as the last column of ``body``. Rows are equilibrated
    by their max-abs structural coefficient and sign-flipped where needed
    so every rhs is nonnegative. Nonzero variable lower bounds are shifted
    into the rhs (x = shift + x') and recorded for un-shifting.
    """

    body: np.ndarray                # (m, total_cols + 1), rhs last
    objective: tuple[float, ...]    # minimization cost of each column, zero past the structural ones
    var_count: int
    slack_cols: tuple[int, ...]
    surplus_cols: tuple[int, ...]
    artificial_cols: tuple[int, ...]
    basis: tuple[int, ...]          # each row's slack or artificial column: the phase-1 basis
    row_scales: tuple[float, ...]   # divisor applied to each original row
    shifts: tuple[float, ...]       # per-variable lower-bound shift

    @property
    def column_count(self) -> int:
        return len(self.objective)


def standardize(lp: LinearProgram) -> StandardForm:
    """Augment *lp* into equality form with slack/surplus/artificial columns."""
    return _standardize(lp, lp.rows.rhs[: len(lp.constraints)])


def _standardize(lp: LinearProgram, given: np.ndarray) -> StandardForm:
    """``standardize`` of *lp* with *given* as its constraints' rhs."""
    m = len(lp.constraints)
    n = lp.var_count
    view = lp.rows
    shifts = view.rhs[m:]
    rows = view.matrix[:m]

    # Equilibrate each row by its max-abs coefficient (every constraint has
    # a nonzero one) and flip rows with negative rhs so the textbook
    # augmentation applies. Python floats round exactly as numpy's do.
    scaled: list[list[float]] = []
    rhs: list[float] = []
    scales: list[float] = []
    sense: list[float] = []
    for coefficients, b, s in zip(rows.tolist(), (given - rows @ shifts).tolist(), view.sense.tolist()):
        scale = max(map(abs, coefficients))
        row = [c / scale for c in coefficients]
        b /= scale
        if b < 0.0:
            row, b, s = [-c for c in row], -b, -s
        scaled.append(row)
        rhs.append(b)
        scales.append(scale)
        sense.append(s)

    n_slack = sense.count(1.0)
    n_surplus = sense.count(-1.0)
    total = n + m + n_surplus
    slack_cols: list[int] = []
    surplus_cols: list[int] = []
    artificial_cols: list[int] = []
    basis: list[int] = []
    next_slack = n
    next_surplus = n + n_slack
    next_artificial = n + n_slack + n_surplus
    for row, b, s in zip(scaled, rhs, sense):
        row += [0.0] * (total - n)
        row.append(b)
        if s < 0.0:
            row[next_surplus] = -1.0
            surplus_cols.append(next_surplus)
            next_surplus += 1
        if s > 0.0:
            basic = next_slack
            slack_cols.append(basic)
            next_slack += 1
        else:
            basic = next_artificial
            artificial_cols.append(basic)
            next_artificial += 1
        row[basic] = 1.0
        basis.append(basic)

    sign = 1.0 if lp.sense is Sense.MINIMIZE else -1.0
    return StandardForm(
        body=np.array(scaled, dtype=float).reshape(m, total + 1),
        objective=tuple([sign * c for c in lp.objective] + [0.0] * (total - n)),
        var_count=n,
        slack_cols=tuple(slack_cols),
        surplus_cols=tuple(surplus_cols),
        artificial_cols=tuple(artificial_cols),
        basis=tuple(basis),
        row_scales=tuple(scales),
        shifts=tuple(shifts.tolist()),
    )


# ---------------------------------------------------------------------------
# tableau and pivoting


@dataclass
class Tableau:
    """Canonical-form simplex tableau: body rows over a priced cost row,
    stacked in one array, ``table``, so that one elimination step updates
    both (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
    §3.6).

    ``table`` is (m+1, N+k): N matrix columns, then one rhs column for each
    of the k programs named in ``ids``. ``body`` is a view of its first m
    rows and ``cost`` of its last: the reduced-cost row, whose rhs entries
    hold each program's negated objective value. ``basis[i]`` is the
    column basic in row i. The first rhs column leads: ``pivot_rule`` reads
    it. Given only ``body`` and ``cost``, the tableau stacks copies of them;
    ``Tableau.over`` wraps a stacked table as it is.
    """

    body: np.ndarray
    cost: np.ndarray
    basis: list[int]
    blocked: Sequence[int] = ()                                 # columns barred from entering
    ids: tuple[int, ...] = (0,)                                 # the program of each rhs column
    table: np.ndarray | None = field(default=None, repr=False)  # body over cost, one array
    cols: int = field(init=False)                               # N, the matrix columns

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = np.vstack((self.body, self.cost))
            self.body, self.cost = self.table[:-1], self.table[-1]
        self.cols = self.table.shape[1] - len(self.ids)

    @classmethod
    def over(
        cls, table: np.ndarray, basis: list[int], blocked: Sequence[int] = (), ids: tuple[int, ...] = (0,)
    ) -> Tableau:
        """The tableau whose body and cost row are views of *table*."""
        return cls(table[:-1], table[-1], basis, blocked, ids, table)

    @property
    def rows(self) -> int:
        return self.body.shape[0]

    def take(self, picks: np.ndarray) -> Tableau:
        """A copy holding only the rhs columns at positions *picks*."""
        index = np.concatenate((np.arange(self.cols), self.cols + picks))
        ids = tuple([self.ids[k] for k in picks.tolist()])
        return Tableau.over(self.table[:, index], list(self.basis), self.blocked, ids)


def pivot_rule(tableau: Tableau, *, bland: bool = False) -> tuple[int, int] | None:
    """Pick the next (row, col) pivot for the lead rhs column, or None when
    no reduced cost is negative.

    Default: Dantzig entering column with the smallest-ratio leaving row,
    ratio ties broken toward the lowest row index. Bland: lowest-index
    entering column, ratio ties broken toward the lowest basic variable
    index, which prevents cycling.

    Raises _Unbounded when the chosen column has no positive pivot entry.
    """
    cols = tableau.cols
    reduced = tableau.cost[:cols].tolist()
    tol = OPT_TOL * max(1.0, max(map(abs, reduced), default=1.0))
    for j in tableau.blocked:
        reduced[j] = 0.0
    if bland:
        col = next((j for j, r in enumerate(reduced) if r < -tol), -1)
    else:
        best = min(reduced, default=0.0)
        col = reduced.index(best) if best < -tol else -1   # the lowest index among equal minima
    if col < 0:
        return None

    row = -1
    best_ratio = math.inf
    basis = tableau.basis
    for i, (entry, rhs) in enumerate(zip(tableau.body[:, col].tolist(), tableau.body[:, cols].tolist())):
        if entry <= PIVOT_TOL:
            continue
        ratio = rhs / entry
        if row < 0:
            row, best_ratio = i, ratio
            continue
        tie_band = PIVOT_TOL * max(1.0, abs(best_ratio))
        if ratio < best_ratio - tie_band:
            row, best_ratio = i, ratio
        elif abs(ratio - best_ratio) <= tie_band and bland and basis[i] < basis[row]:
            row = i
        # default rule keeps the lowest row index already held on ties
    if row < 0:
        raise _Unbounded()
    return row, col


def _leaving_rows(tableau: Tableau, col: int, bland: bool) -> np.ndarray:
    """``pivot_rule``'s ratio test for entering column *col*, replayed on
    every rhs column at once: the leaving row of each.

    Which rows are eligible depends on column *col* alone, so every rhs
    column starts from the same first eligible row; the ratios, tie bands
    and comparisons are pivot_rule's own, elementwise.
    """
    rhs = tableau.body[:, tableau.cols:]
    basis = np.array(tableau.basis)
    row = best = None
    for i, entry in enumerate(tableau.body[:, col].tolist()):
        if entry <= PIVOT_TOL:
            continue
        ratio = rhs[i] / entry
        if row is None:
            row, best = np.full(len(ratio), i), ratio
            continue
        tie_band = PIVOT_TOL * np.maximum(1.0, np.abs(best))
        lower = ratio < best - tie_band
        take = lower
        if bland:
            take = lower | ((np.abs(ratio - best) <= tie_band) & (basis[i] < basis[row]))
        row = np.where(take, i, row)
        best = np.where(lower, ratio, best)
    return row


def _apply_pivot(tableau: Tableau, row: int, col: int) -> None:
    """Pivot on (row, col): one outer-product update of the whole table,
    cost row included, which becomes c - c[col] * pivot row entrywise."""
    table = tableau.table
    pivot_row = table[row]
    pivot_row /= pivot_row[col]
    factors = table[:, col].copy()
    factors[row] = 0.0
    table -= factors[:, None] * pivot_row       # np.outer(factors, pivot_row), without its wrapper
    tableau.basis[row] = col


def _price(table: np.ndarray, cost: Sequence[float], basis: list[int]) -> None:
    """Write *table*'s cost row: *cost* over the matrix columns with every
    basic column priced out; its entries past *cost* hold -objective of
    each rhs column."""
    row = table[-1]
    row[: len(cost)] = cost
    row[len(cost):] = 0.0
    # Basic columns are exact unit vectors, so no subtraction below changes
    # a factor before its turn: all can be read up front.
    for i, factor in enumerate(row.take(basis).tolist()):
        if factor != 0.0:
            row -= factor * table[i]


def _drive_out_artificials(tableau: Tableau, first: int) -> list[int]:
    """Pivot zero-valued artificials (the columns from *first* on) out of
    the basis; return redundant rows."""
    redundant: list[int] = []
    for i, basic in enumerate(tableau.basis):
        if basic < first:
            continue
        entries = tableau.body[i, :first].tolist()
        target = next((j for j, v in enumerate(entries) if abs(v) > PIVOT_TOL), -1)
        if target >= 0:
            _apply_pivot(tableau, i, target)
        else:
            redundant.append(i)
    return redundant


def _run_lone(tableau: Tableau) -> tuple[int, bool]:
    """Iterate *tableau*, with its one rhs column, to optimality: returns
    (iterations, unbounded).

    Bland's rule takes over once the objective has not fallen below its
    best so far for 2*(m+n) pivots. Measured against the previous pivot
    instead, a cycle whose objective falls and rises by rounding-level
    steps would reset the count forever. The cost row holds -objective, so
    the objective falls where that entry rises.
    """
    cols = tableau.cols
    cost = tableau.cost
    stall_limit = 2 * (tableau.rows + cols)
    iterations = stall = 0
    best = cost.item(cols)
    while True:
        try:
            pivot = pivot_rule(tableau, bland=stall >= stall_limit)
        except _Unbounded:
            return iterations, True
        if pivot is None:
            return iterations, False
        _apply_pivot(tableau, *pivot)
        iterations += 1
        if iterations > MAX_ITER:
            raise IterationLimitError(f"no convergence within {MAX_ITER} iterations")
        now = cost.item(cols)
        if now > best + STALL_TOL * max(1.0, abs(best)):
            stall, best = 0, now
        else:
            stall += 1


def _two_phase_lone(form: StandardForm) -> tuple[Status, tuple[float, ...] | None, int]:
    """Both simplex phases on *form* with its own rhs, the one column of a
    plain solve: (status, the optimal point or None, iterations). Its
    tests and read-out are Python floats, which round as numpy's do."""
    total = form.column_count
    if not form.basis:
        # Only lower bounds constrain the problem; the minimum sits at the shift.
        if min(form.objective, default=0.0) < 0.0:
            return Status.UNBOUNDED, None, 0
        return Status.OPTIMAL, form.shifts, 0

    table = np.zeros((len(form.basis) + 1, total + 1))   # the body over a cost row
    table[:-1] = form.body
    basis = list(form.basis)
    first = total - len(form.artificial_cols)   # the artificials are the last columns
    before = 0
    if first < total:
        _price(table, [0.0] * first + [1.0] * (total - first), basis)
        phase1 = Tableau.over(table, basis)
        before, unbounded = _run_lone(phase1)
        if unbounded:  # the phase-1 objective is bounded below by zero
            raise LPError("phase 1 reported unbounded; input is numerically degenerate")
        # A basic artificial is its own row's residual, so it is judged
        # against that row's scale, max(1, |rhs|) in the row's own units as
        # in check_rows: a row with a huge rhs cannot hide another's. In
        # equilibrated units that is max(1 / row scale, equilibrated rhs).
        rhs, given, scales = table[:, total].tolist(), form.body[:, total].tolist(), form.row_scales
        for i, col in enumerate(basis):
            if col >= first:
                r = form.basis.index(col)
                if rhs[i] > FEAS_TOL * max(1.0 / scales[r], given[r]):
                    return Status.INFEASIBLE, None, before
        redundant = _drive_out_artificials(phase1, first)
        if redundant:
            keep = [i for i in range(len(basis)) if i not in redundant]
            table, basis = table[[*keep, len(basis)]], [basis[i] for i in keep]

    # Phase 2: original costs over the feasible basis; artificials barred.
    _price(table, form.objective, basis)
    iterations, unbounded = _run_lone(Tableau.over(table, basis, form.artificial_cols))
    if unbounded:
        return Status.UNBOUNDED, None, before + iterations
    # Scatter the basic values into the point, then un-shift.
    shifted = [0.0] * total
    for j, value in zip(basis, table[:, total].tolist()):
        shifted[j] = value
    return Status.OPTIMAL, tuple([v + s for v, s in zip(shifted, form.shifts)]), before + iterations


def _run_simplex(tableau: Tableau) -> list[tuple[Tableau, int, bool]]:
    """Iterate every rhs column of *tableau* to optimality.

    The columns of a block share its entering column, which depends only
    on the cost row and the Bland flag. Before a pivot, the columns whose
    leaving row or Bland flag differs from the lead's are split off into
    a block of their own, which continues from the same state; a block of
    one column cannot split and skips that test. Each column's stall
    count and best objective are those of ``_run_lone``, kept as arrays
    and tested elementwise. Returns (block, iterations, unbounded) for
    *tableau* and for every block split from it.
    """
    cols = tableau.cols
    stall_limit = 2 * (tableau.rows + cols)
    todo = [(tableau, 0, np.zeros(len(tableau.ids), dtype=np.intp), tableau.cost[cols:].copy())]
    done: list[tuple[Tableau, int, bool]] = []
    while todo:
        tableau, iterations, stall, best = todo.pop()
        while True:
            bland = stall[0] >= stall_limit
            try:
                pivot = pivot_rule(tableau, bland=bland)
            except _Unbounded:
                done.append((tableau, iterations, True))
                break
            if pivot is None:
                done.append((tableau, iterations, False))
                break
            row, col = pivot
            if len(tableau.ids) > 1:
                moved = (_leaving_rows(tableau, col, bland) != row) | ((stall >= stall_limit) != bland)
                if moved.any():
                    away, kept = np.flatnonzero(moved), np.flatnonzero(~moved)
                    todo.append((tableau.take(away), iterations, stall[away], best[away]))
                    tableau = tableau.take(kept)
                    stall, best = stall[kept], best[kept]
            _apply_pivot(tableau, row, col)
            iterations += 1
            if iterations > MAX_ITER:
                raise IterationLimitError(f"no convergence within {MAX_ITER} iterations")
            current = tableau.cost[cols:]
            fell = current > best + STALL_TOL * np.maximum(1.0, np.abs(best))
            stall = np.where(fell, 0, stall + 1)
            best = np.where(fell, current, best)
    return done


# (rhs columns, status, their (k, n) points when optimal, iterations)
_Outcome = tuple[tuple[int, ...], Status, "np.ndarray | None", int]


def _two_phase(form: StandardForm, table: np.ndarray) -> list[_Outcome]:
    """Run both simplex phases on *table*: *form*'s rows with one rhs
    column per program, over a cost row that is overwritten here. Returns
    one outcome per block of rhs columns that ended alike, in no fixed
    order.

    The steps are ``_two_phase_lone``'s, taken on every column of a block
    at once: the phase-1 verdict and the read-out of the points are whole
    arrays, elementwise, so each column's bits are those of a lone solve.
    """
    total = form.column_count
    ids = tuple(range(table.shape[1] - total))
    if not form.basis:
        # Only lower bounds constrain the problem; the minimum sits at the shift.
        if min(form.objective, default=0.0) < 0.0:
            return [(ids, Status.UNBOUNDED, None, 0)]
        return [(ids, Status.OPTIMAL, np.tile(form.shifts, (len(ids), 1)), 0)]

    outcomes: list[_Outcome] = []
    first = total - len(form.artificial_cols)   # the artificials are the last columns
    starts = []   # phase-2 blocks: table, basis, ids, phase-1 iterations
    if first == total:
        starts.append((table, list(form.basis), ids, 0))
    else:
        _price(table, [0.0] * first + [1.0] * (total - first), form.basis)
        scales = np.array(form.row_scales)
        given = table[:-1, total:].copy()    # each program's equilibrated rhs, before phase 1 pivots
        for tableau, iterations, unbounded in _run_simplex(Tableau.over(table, list(form.basis), ids=ids)):
            if unbounded:  # the phase-1 objective is bounded below by zero
                raise LPError("phase 1 reported unbounded; input is numerically degenerate")
            # Each basic artificial against its own row's scale, as in _two_phase_lone.
            at = [i for i, col in enumerate(tableau.basis) if col >= first]
            of = [form.basis.index(tableau.basis[i]) for i in at]
            band = FEAS_TOL * np.maximum(1.0 / scales[of, None], given[of][:, tableau.ids])
            failed = (tableau.body[at, tableau.cols:] > band).any(axis=0).tolist()
            if any(failed):
                outcomes.append((tuple(compress(tableau.ids, failed)), Status.INFEASIBLE, None, iterations))
                if all(failed):
                    continue
                tableau = tableau.take(np.flatnonzero(np.logical_not(failed)))
            redundant = _drive_out_artificials(tableau, first)
            keep = [i for i in range(tableau.rows) if i not in redundant]
            table = tableau.table[[*keep, tableau.rows]] if redundant else tableau.table
            starts.append((table, [tableau.basis[i] for i in keep], tableau.ids, iterations))

    # Phase 2: original costs over the feasible basis; artificials barred.
    for table, basis, ids, before in starts:
        _price(table, form.objective, basis)
        for tableau, iterations, unbounded in _run_simplex(Tableau.over(table, basis, form.artificial_cols, ids)):
            if unbounded:
                outcomes.append((tableau.ids, Status.UNBOUNDED, None, before + iterations))
                continue
            # Scatter each column's basic values into its point, then un-shift.
            points = np.zeros((len(tableau.ids), total))
            points[:, tableau.basis] = tableau.body[:, tableau.cols:].T
            points = points[:, : form.var_count] + np.array(form.shifts)
            outcomes.append((tableau.ids, Status.OPTIMAL, points, before + iterations))
    return outcomes


@_in_float_range
def solve(lp: LinearProgram) -> Solution:
    """Solve *lp* with the two-phase simplex.

    Returns a Solution whose status is Optimal, Infeasible (phase 1 ends
    with some row's artificial above FEAS_TOL of that row's scale), or
    Unbounded (an improving column has no blocking row in phase 2).
    Activities, the binding set and the objective are recomputed against
    the original rows. Arithmetic that overflows the float range raises
    LPError.
    """
    form = standardize(lp)
    status, point, iterations = _two_phase_lone(form)
    return _build_solution(lp, lp.rows, status, point, iterations)


def _shape(lp: LinearProgram) -> tuple:
    """Everything a Solution of *lp* depends on except the constraints' rhs,
    to the bit (so 0.0 and -0.0 differ)."""
    cons = lp.constraints
    floats = [*lp.objective, *lp.lower_bounds, *[a for c in cons for a in c.coefficients]]
    return (
        lp.sense,
        tuple([c.relation for c in cons]),
        tuple([c.label for c in cons]),
        struct.pack(f"{len(floats)}d", *floats),
    )


def solve_many(programs: Sequence[LinearProgram]) -> tuple[Solution, ...]:
    """Solve every program in *programs*; each Solution equals ``solve``'s,
    to the bit.

    Programs that differ only in their constraints' rhs go to one
    ``solve_rhs`` call. An error that ``solve`` would raise for any
    program is raised here.
    """
    groups: dict[tuple, list[int]] = {}
    for i, lp in enumerate(programs):
        groups.setdefault(_shape(lp), []).append(i)
    solutions: list[Solution | None] = [None] * len(programs)
    for members in groups.values():
        given = np.array([[c.rhs for c in programs[i].constraints] for i in members], dtype=float)
        for i, solution in zip(members, solve_rhs(programs[members[0]], given)):
            solutions[i] = solution
    return tuple(solutions)


class _Block(NamedTuple):
    """``_solve_block``'s answer for a (k, m) rhs."""

    status: list[Status]        # each row's status
    iterations: list[int]       # each row's pivots, both phases
    at: np.ndarray              # the optimal rows, in the order of the two arrays below
    points: np.ndarray          # (len(at), n) C-contiguous: each optimal row's point
    objective: np.ndarray       # (len(at),) each point's objective, to the bit of solve's


@_in_float_range
def _solve_block(lp: LinearProgram, rhs: np.ndarray) -> _Block:
    """The simplex of ``solve_rhs`` without its read-out: every row's
    status and pivot count, and the points and objectives of the optimal
    rows. Raises what ``solve_rhs`` raises, objective overflow included.

    Rows whose standardized rhs have the same signs share one tableau; a
    row's signs are packed into one code of ceil(m / 8) bytes, and one
    stable sort of the codes groups the rows in order of first appearance.
    """
    m = len(lp.constraints)
    given = np.asarray(rhs, dtype=float)
    if given.ndim != 2 or given.shape[1] != m:
        raise ValidationError(f"rhs has shape {given.shape}; expected (k, {m})")
    finite = np.isfinite(given).all(axis=0).tolist()
    if not all(finite):
        raise ValidationError(f"constraint {lp.constraints[finite.index(False)].label!r}: rhs is not finite")
    k = len(given)
    given = given.T
    view = lp.rows
    # standardize's rhs of every row at once: shifted, equilibrated, flipped to >= 0
    scales = np.abs(view.matrix[:m]).max(axis=1)
    shifted = (given - (view.matrix[:m] @ view.rhs[m:])[:, None]) / scales[:, None]
    flips = shifted < 0.0
    shifted = np.where(flips, -shifted, shifted)
    codes = np.packbits(flips, axis=0)          # (ceil(m / 8), k): column j is row j's sign code
    order = np.lexsort(codes) if m else np.arange(k)   # stable: each group's rows ascend
    ordered = codes[:, order]
    cuts = (np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).any(axis=0)) + 1).tolist()
    starts = [0, *cuts] if k else []
    groups = sorted((order[a:b] for a, b in zip(starts, [*cuts, k])), key=lambda picks: picks[0])

    status = np.empty(k, dtype=object)
    iterations = np.zeros(k, dtype=int)
    found = [np.zeros(0, dtype=int)]               # the optimal rows of each block ...
    points = [np.zeros((0, lp.var_count))]         # ... and their points
    for picks in groups:
        form = _standardize(lp, given[:, picks[0]])
        total = form.column_count
        table = np.zeros((m + 1, total + len(picks)))   # _two_phase prices its last row, the cost row
        table[:-1, :total] = form.body[:, :-1]
        table[:-1, total:] = shifted[:, picks]
        for ids, outcome, block_points, count in _two_phase(form, table):
            at = np.take(picks, ids)
            status[at] = outcome
            iterations[at] = count
            if block_points is not None:
                found.append(at)
                points.append(block_points)

    # One stacked product, each point's own (1, n) product as in solve,
    # where a 2-D product would round differently (see above).
    at = np.concatenate(found)
    points = np.concatenate(points)   # C-contiguous, as the product needs
    cost = np.array(lp.objective)
    if lp.var_count == 1:   # np.dot of one term is the bare product, -0.0 included
        objective = points[:, 0] * cost[0]
    else:
        objective = np.matmul(points[:, None, :], cost[:, None])[:, 0, 0]
    finite = np.isfinite(objective)
    if not finite.all():   # a product's overflow raises no floating-point flag
        raise LPError(f"{_OUT_OF_RANGE} (the objective is {float(objective[~finite][0])})")
    return _Block(status.tolist(), iterations.tolist(), at, points, objective)


@_in_float_range
def solve_rhs(lp: LinearProgram, rhs: np.ndarray) -> tuple[Solution, ...]:
    """Solve *lp* once for each row of *rhs*, a (k, m) array that takes the
    place of its constraints' rhs. Solution i equals, to the bit, ``solve``
    of *lp* with row i as its rhs.

    ``_solve_block`` runs the simplex, and ``_build_solution`` reads out
    each row's Solution against that row's rhs, as ``solve`` does. An
    error that ``solve`` would raise for any row is raised here.
    """
    status, iterations, at, points, _ = _solve_block(lp, rhs)
    found = dict(zip(at.tolist(), map(tuple, points.tolist())))
    view = lp.rows
    bounds = view.rhs[len(lp.constraints):]
    solutions = []
    for k, row in enumerate(np.asarray(rhs, dtype=float)):
        rows = Rows(view.matrix, np.concatenate((row, bounds)), view.sense)
        solutions.append(_build_solution(lp, rows, status[k], found.get(k), iterations[k]))
    return tuple(solutions)


def _build_solution(
    lp: LinearProgram,
    rows: Rows,
    status: Status,
    values: tuple[float, ...] | None,
    iterations: int,
) -> Solution:
    """The Solution of *lp* at *values*, or an empty one when *values* is
    None. Activities and the binding set are tested against *rows*: *lp*'s
    matrix and sense with the solved rhs, then the lower bounds."""
    if values is None:
        empty = (0.0,) * lp.var_count
        return Solution(
            status=status,
            values=empty,
            objective_value=math.nan,
            activities=(),
            binding=frozenset(),
            iterations=iterations,
        )
    objective = lp.objective_at(values)
    if not math.isfinite(objective):   # np.dot's overflow raises no floating-point flag
        raise LPError(f"{_OUT_OF_RANGE} (the objective is {objective})")
    activity, _, _, binding = check_rows(rows, np.array([values]))
    return Solution(
        status=status,
        values=values,
        objective_value=objective,
        activities=tuple(activity[0, : len(lp.constraints)].tolist()),
        binding=frozenset(c.label for c, b in zip(lp.constraints, binding[0].tolist()) if b),
        iterations=iterations,
    )


def check_feasible(lp: LinearProgram, values: tuple[float, ...]) -> FeasibilityReport:
    """Audit a candidate point against every constraint and lower bound.

    Violations and binding tests are those of ``check_rows``, relative to
    each row's scale max(1, |rhs|), which keeps gram-scale rows (~1e12)
    and fraction-scale demand rows comparable.
    """
    if len(values) != lp.var_count:
        raise ValidationError(f"expected {lp.var_count} values, got {len(values)}")
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
