"""Dense-tableau two-phase simplex for small linear programs.

The solver targets the scale of the built-in energy models: at most a
handful of variables and a couple dozen constraints, with coefficient
magnitudes ranging from 1e-2 (period fractions) to 1e13 (emissions caps).
Every row is equilibrated (divided by its max-abs coefficient) before
phase 1 so pivot ratios stay well conditioned in 64-bit floats; the
scaling is undone when the solution is reported.

Pivoting defaults to Dantzig's rule (most negative reduced cost, smallest
ratio, ties broken toward the lowest row index). If the objective does
not fall below its best so far for 2 * (rows + columns) pivots, counting
the tableau's rows and all its columns (slack, surplus and artificial
included), the solver falls back to Bland's rule, which guarantees
termination on degenerate instances.

``LinearProgram.rows`` is one dense view of a program's constraints and
lower bounds, built once and read by ``standardize``, the binding set of
a Solution, ``oracle.check_feasible`` and the vertex oracle.
``check_rows`` is the only test of points against rows. A Solution's
read-out needs only its activities and binding set, so it runs
``check_rows``' binding test, ``_binding``, alone, without the
violations and satisfied masks. Every threshold is a module constant
below (ROW_TOL, FEAS_TOL, ...), never a parameter.

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
both. ``_run_simplex`` is the one pivot loop and ``_two_phase`` the one
two-phase driver, each for a tableau of any number of rhs columns; the
split test, ``_split_test``, runs only in blocks of two or more columns.
The driver returns each block's status, pivot count and final tableau,
and each caller keeps only its read-out: ``solve`` runs the driver on
one column and reads its point out on Python floats.

This module holds what ``solve`` runs. The read-out of one program at
many rhs lives in ``gridmix.parametric``, and ``check_feasible`` with
its report types in ``gridmix.oracle``; code in the package imports
them from there. Three of those names, kept for the
benchmark and the pinned tests, still resolve here: ``solve_many``,
``solve_rhs`` and ``check_feasible`` load their module on first use
(PEP 562), so a plain ``solve`` compiles neither.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, wraps
from importlib import import_module
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
    "LPError",
    "ValidationError",
    "IterationLimitError",
    "solve",
    "standardize",
    "pivot_rule",
    "check_rows",
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


class Rows:
    """Dense half-spaces ``matrix @ x  <sense>  rhs``; callers never write
    to the arrays, which a LinearProgram shares with every reader.

    ``sense`` is +1 for <=, -1 for >= and 0 for =.
    """

    __slots__ = ("matrix", "rhs", "sense", "scale")

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray, sense: np.ndarray) -> None:
        self.matrix = matrix                        # (r, n)
        self.rhs = rhs                              # (r,), or (k, r) with one rhs per point of a check
        self.sense = sense                          # (r,)
        self.scale = np.maximum(1.0, np.abs(rhs))   # max(1, |rhs|), each row's tolerance scale


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
    gap, distance, binding = _binding(rows, activity)
    satisfied = binding | (rows.sense * gap < 0.0)
    return activity, np.where(satisfied, 0.0, distance), satisfied, binding


def _binding(rows: Rows, activity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``check_rows``' binding test of activities already computed: the gap
    activity - rhs, its size, and the binding mask. A Solution's read-out
    needs only the mask."""
    gap = activity - rows.rhs
    distance = np.abs(gap)
    return gap, distance, distance <= ROW_TOL * rows.scale


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


class Solution(NamedTuple):
    status: Status
    values: tuple[float, ...]
    objective_value: float
    activities: tuple[float, ...]
    binding: frozenset[str]
    iterations: int

    @property
    def is_optimal(self) -> bool:
        return self.status is Status.OPTIMAL


# ---------------------------------------------------------------------------
# standard form


class StandardForm(NamedTuple):
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
    it.
    """

    __slots__ = ("body", "cost", "basis", "blocked", "ids", "table", "cols")

    def __init__(
        self,
        table: np.ndarray,                      # body over cost, one array
        basis: list[int],
        blocked: Sequence[int] = (),            # columns barred from entering
        ids: tuple[int, ...] = (0,),            # the program of each rhs column
    ) -> None:
        self.table, self.body, self.cost = table, table[:-1], table[-1]
        self.basis, self.blocked, self.ids = basis, blocked, ids
        self.cols = table.shape[1] - len(ids)   # N, the matrix columns

    @property
    def rows(self) -> int:
        return self.body.shape[0]

    def take(self, picks: np.ndarray) -> Tableau:
        """A copy holding only the rhs columns at positions *picks*."""
        index = np.concatenate((np.arange(self.cols), self.cols + picks))
        ids = tuple(map(self.ids.__getitem__, picks.tolist()))
        return Tableau(self.table[:, index], list(self.basis), self.blocked, ids)


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
    # a factor before its turn: all can be read up front. A factor of
    # exactly 1.0 (every phase-1 artificial row) subtracts the row itself,
    # since 1.0 * x == x for every float.
    for i, factor in enumerate(row.take(basis).tolist()):
        if factor == 1.0:
            row -= table[i]
        elif factor != 0.0:
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


def _split_test(tableau: Tableau, col: int, bland: bool, varies: list[bool]) -> np.ndarray | None:
    """``pivot_rule``'s ratio test for entering column *col*, replayed on
    every rhs column: a mask of the columns whose leaving row differs from
    the lead's, or None when none can.

    Which rows are eligible depends on column *col* alone. A row whose flag
    in *varies* is off holds the lead's rhs in every column (``==``, so
    +0.0 and -0.0 alike), hence the lead's ratio; the fold's comparisons
    and tie bands treat ±0 alike. So the fold runs on the lead's Python
    floats, as in ``pivot_rule``, while every column holds the lead's
    (row, best), and elementwise once a flagged row gives the columns
    different states. A test whose eligible rows are all unflagged builds
    no array.
    """
    cols, body, basis, tol = tableau.cols, tableau.body, tableau.basis, PIVOT_TOL
    lead = body[:, cols].tolist()
    row = best = None
    for i, entry in enumerate(body[:, col].tolist()):
        if entry <= tol:
            continue
        ratio = body[i, cols:] / entry if varies[i] else lead[i] / entry
        if row is None:
            row, best = i, ratio
            continue
        if type(best) is float:   # every column holds the lead's (row, best)
            tie_band = tol * max(1.0, abs(best))
            if type(ratio) is float:
                if ratio < best - tie_band:
                    row, best = i, ratio
                elif bland and abs(ratio - best) <= tie_band and basis[i] < basis[row]:
                    row = i
                continue
        else:
            tie_band = tol * np.maximum(1.0, np.abs(best))
        lower = ratio < best - tie_band
        take = lower
        if bland:
            take = lower | ((np.abs(ratio - best) <= tie_band) & (basis[i] < np.take(basis, row)))
        if take.any():
            row = np.where(take, i, row)
            best = np.where(lower, ratio, best)
    return row != row[0] if type(row) is np.ndarray else None


def _stall_step(current: np.ndarray, stall: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stall rule for one pivot, elementwise: each column's stall count
    and best objective after its cost row's rhs entry became *current*.
    The cost row holds -objective, so the objective falls where that entry
    rises."""
    fell = current > best + STALL_TOL * np.maximum(1.0, np.abs(best))
    return np.where(fell, 0, stall + 1), np.where(fell, current, best)


def _run_simplex(tableau: Tableau) -> list[tuple[Tableau, int, bool]]:
    """Iterate every rhs column of *tableau* to optimality: the pivot loop
    of each phase of ``_two_phase``, whose tableau has one rhs column
    under ``solve`` and one per program under ``gridmix.parametric``.
    Returns (block, iterations, unbounded) for *tableau* and for every
    block split from it; a tableau of one column never splits, so its
    answer is one entry, *tableau* itself.

    Bland's rule takes over for a column once its objective has not fallen
    below its best so far for 2 * (tableau.rows + tableau.cols) pivots;
    the columns include every slack, surplus and artificial column.
    Measured against the previous pivot instead, a cycle whose objective
    falls and rises by rounding-level steps would reset the count forever.

    The columns of a block share its entering column, which depends only
    on the cost row and the Bland flag. Before a pivot, the columns whose
    leaving row or Bland flag differs from the lead's are split off into
    a block of their own, which continues from the same state; a block of
    one column cannot split and skips that test. Each column's stall count
    and best objective are kept as arrays and tested elementwise. A stall
    count never exceeds the pivots taken, so no column can reach Bland's
    rule before the block has taken ``stall_limit`` pivots: until then the
    block only keeps a copy of the cost row's rhs entries before its first
    pivot and after each one, split along with it, and replays that
    history through the stall rule when it reaches the limit.

    A tableau of two or more columns also keeps one flag per body row:
    whether that row's rhs can differ between the block's columns. The
    flags are set here by comparing each row with the lead column (``!=``,
    so +0.0 and -0.0 count as equal) and are carried along on every split.
    A pivot on an unflagged row keeps every unflagged row equal; after a
    pivot on a flagged row, every row with a nonzero entry in the pivot
    column is flagged too. The split test reads the columns apart only at
    flagged rows, and a test whose eligible rows are all unflagged splits
    nothing and builds no array.
    """
    cols = tableau.cols
    stall_limit = 2 * (tableau.rows + cols)
    varies = None
    if len(tableau.ids) > 1:
        rhs = tableau.body[:, cols:]
        varies = (rhs[:, 1:] != rhs[:, :1]).any(axis=1).tolist()
    # (block, iterations, history or None once replayed, stall, best, varies)
    todo = [(tableau, 0, [tableau.cost[cols:].copy()], None, None, varies)]
    done: list[tuple[Tableau, int, bool]] = []
    while todo:
        tableau, iterations, history, stall, best, varies = todo.pop()
        while True:
            if history is not None and iterations >= stall_limit:
                stall, best = np.zeros(len(tableau.ids), dtype=np.intp), history[0]
                for current in history[1:]:
                    stall, best = _stall_step(current, stall, best)
                history = None
            bland = history is None and stall[0] >= stall_limit
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
                moved = _split_test(tableau, col, bland, varies)
                if history is None:
                    stalled = (stall >= stall_limit) != bland
                    moved = stalled if moved is None else moved | stalled
                if moved is not None and moved.any():
                    away, kept = np.flatnonzero(moved), np.flatnonzero(~moved)
                    if history is None:
                        todo.append((tableau.take(away), iterations, None, stall[away], best[away], varies))
                        stall, best = stall[kept], best[kept]
                    else:
                        todo.append((tableau.take(away), iterations, [h[away] for h in history], None, None, varies))
                        history = [h[kept] for h in history]
                    tableau = tableau.take(kept)
                if varies[row]:   # the pivot row mixes into every row it eliminates from
                    varies = [flag or entry != 0.0 for flag, entry in zip(varies, tableau.body[:, col].tolist())]
            _apply_pivot(tableau, row, col)
            iterations += 1
            if iterations > MAX_ITER:
                raise IterationLimitError(f"no convergence within {MAX_ITER} iterations")
            if history is None:
                stall, best = _stall_step(tableau.cost[cols:], stall, best)
            else:
                history.append(tableau.cost[cols:].copy())
    return done


def _two_phase(
    form: StandardForm, table: np.ndarray, given: np.ndarray
) -> list[tuple[tuple[int, ...], Status, int, Tableau | None]]:
    """Run both simplex phases on *table*: *form*'s rows with one rhs
    column per program, over a cost row that is overwritten here. *given*
    holds each program's equilibrated rhs before phase 1, one column each.

    Returns (ids, status, iterations, final tableau) for every block of rhs
    columns that ended alike, in no fixed order: one entry for a table of
    one column. The tableau is None where the block is infeasible or
    *form* has no rows; each caller reads its points out of the rest.
    Every step is elementwise per column, the phase-1 verdict included, so
    each column's bits are those of a table of that column alone.
    """
    total = form.column_count
    ids = tuple(range(table.shape[1] - total))
    if not form.basis:
        # Only lower bounds constrain the problem; the minimum sits at the shift.
        return [(ids, Status.UNBOUNDED if min(form.objective, default=0.0) < 0.0 else Status.OPTIMAL, 0, None)]

    ended = []
    first = total - len(form.artificial_cols)   # the artificials are the last columns
    starts = []   # phase-2 blocks: table, basis, ids, phase-1 iterations
    if first == total:
        starts.append((table, list(form.basis), ids, 0))
    else:
        _price(table, [0.0] * first + [1.0] * (total - first), form.basis)
        for tableau, iterations, unbounded in _run_simplex(Tableau(table, list(form.basis), ids=ids)):
            if unbounded:  # the phase-1 objective is bounded below by zero
                raise LPError("phase 1 reported unbounded; input is numerically degenerate")
            # A basic artificial is its own row's residual, so it is judged
            # against that row's scale, max(1, |rhs|) in the row's own units as
            # in check_rows: a row with a huge rhs cannot hide another's. In
            # equilibrated units that is max(1 / row scale, equilibrated rhs).
            # No column can fail once every artificial has left the basis.
            at = [i for i, col in enumerate(tableau.basis) if col >= first]
            if at:
                of = [form.basis.index(tableau.basis[i]) for i in at]
                floors = [[1.0 / form.row_scales[r]] for r in of]
                band = np.maximum(floors, given.take(of, 0).take(tableau.ids, 1))
                band *= FEAS_TOL
                failed = (tableau.body.take(at, 0)[:, tableau.cols:] > band).any(0).tolist()
                if any(failed):
                    ended.append((tuple(compress(tableau.ids, failed)), Status.INFEASIBLE, iterations, None))
                    if all(failed):
                        continue
                    tableau = tableau.take(np.flatnonzero(np.logical_not(failed)))
            redundant = _drive_out_artificials(tableau, first)
            table, basis = tableau.table, tableau.basis
            if redundant:
                keep = [i for i in range(len(basis)) if i not in redundant]
                table, basis = table[[*keep, len(basis)]], [basis[i] for i in keep]
            starts.append((table, basis, tableau.ids, iterations))

    # Phase 2: original costs over the feasible basis; artificials barred.
    for table, basis, ids, before in starts:
        _price(table, form.objective, basis)
        for tableau, iterations, unbounded in _run_simplex(Tableau(table, basis, form.artificial_cols, ids)):
            ended.append((tableau.ids, Status.UNBOUNDED if unbounded else Status.OPTIMAL, before + iterations, tableau))
    return ended


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
    total = form.column_count
    table = np.zeros((len(form.basis) + 1, total + 1))   # the body over a cost row
    table[:-1] = form.body
    [(_, status, iterations, final)] = _two_phase(form, table, form.body[:, total:])
    point = None
    if status is Status.OPTIMAL:
        point = form.shifts   # no rows: the point is the shifts, -0.0 included
        if final is not None:
            # Scatter the basic values into the point, then un-shift, on Python floats.
            shifted = [0.0] * total
            for j, value in zip(final.basis, final.body[:, total].tolist()):
                shifted[j] = value
            point = tuple([v + s for v, s in zip(shifted, form.shifts)])
    return _build_solution(lp, lp.rows, status, point, iterations)


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
        return Solution(status, (0.0,) * lp.var_count, math.nan, (), frozenset(), iterations)
    objective = lp.objective_at(values)
    if not math.isfinite(objective):   # np.dot's overflow raises no floating-point flag
        raise LPError(f"{_OUT_OF_RANGE} (the objective is {objective})")
    m = len(lp.constraints)
    activity = rows.matrix @ values    # check_rows' activities of the one point
    binding = _binding(rows, activity)[2][:m].tolist()
    labels = frozenset(compress([c.label for c in lp.constraints], binding))
    return Solution(status, values, objective, tuple(activity[:m].tolist()), labels, iterations)


# The three moved names still read as ``lp.<name>`` from outside the package
# (the pinned tests/test_solve_many.py and tests/test_solve_rhs.py, and the
# benchmark's workloads and tracer), and the module each lives in. Each
# loads its module on first use (PEP 562) and is then kept here, so a caller
# that reads ``lp.check_feasible`` once per call pays the import only once.
_HOME = {"solve_many": "parametric", "solve_rhs": "parametric", "check_feasible": "oracle"}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__package__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
