"""Dense-tableau two-phase simplex for small linear programs.

The solver targets the scale of the built-in energy models: at most a
handful of variables and a couple dozen constraints, with coefficient
magnitudes ranging from 1e-2 (period fractions) to 1e13 (emissions caps).
Every row is equilibrated (divided by its max-abs coefficient) before
phase 1 so pivot ratios stay well conditioned in 64-bit floats; the
scaling is undone when the solution is reported.

Pivoting defaults to Dantzig's rule (most negative reduced cost, smallest
ratio, ties broken toward the lowest row index). If the objective stalls
for 2*(m+n) iterations the solver falls back to Bland's rule, which
guarantees termination on degenerate instances.

``LinearProgram.rows`` is one dense view of a program's constraints and
lower bounds, built once and read by ``standardize``, ``check_feasible``,
the binding set of a Solution and the vertex oracle. ``check_rows`` is
the only test of points against rows. Every threshold is a module
constant below (ROW_TOL, FEAS_TOL, ...), never a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
    "standardize",
    "pivot_rule",
    "check_rows",
    "check_feasible",
]

ROW_TOL = 1e-6       # row check and point equality, relative to max(1, |rhs|) or the point scale
FEAS_TOL = 1e-7      # phase-1 residual, relative to max(1, largest tableau rhs)
PIVOT_TOL = 1e-9     # smallest pivot entry, absolute on equilibrated rows; also the ratio tie band
OPT_TOL = 1e-9       # entering reduced cost, relative to max(1, largest |reduced cost|)
STALL_TOL = 1e-12    # smallest objective decrease that resets the stall count, relative
MAX_ITER = 10_000    # pivots per phase


class LPError(Exception):
    """Base class for solver errors."""


class ValidationError(LPError):
    """Input data violates the LinearProgram contract."""


class IterationLimitError(LPError):
    """The simplex loop exceeded its iteration budget."""


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
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValidationError(f"constraint {self.label!r}: non-finite coefficient")
        if not any(c != 0.0 for c in self.coefficients):
            raise ValidationError(f"constraint {self.label!r}: all coefficients are zero")


_SENSE = {Relation.LE: 1.0, Relation.GE: -1.0, Relation.EQ: 0.0}


@dataclass(frozen=True, eq=False)
class Rows:
    """Dense half-spaces ``matrix @ x  <sense>  rhs``; callers never write
    to the arrays, which a LinearProgram shares with every reader.

    ``sense`` is +1 for <=, -1 for >= and 0 for =.
    """

    matrix: np.ndarray              # (r, n)
    rhs: np.ndarray                 # (r,)
    sense: np.ndarray               # (r,)
    scale: np.ndarray = field(init=False)   # max(1, |rhs|), each row's tolerance scale

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", np.maximum(1.0, np.abs(self.rhs)))


def check_rows(rows: Rows, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Test a (k, n) batch of points against every row of *rows*.

    Returns (k, r) arrays: activities, violations (0.0 when satisfied),
    and the satisfied and binding masks. A row is satisfied when its
    violation, and binding when |activity - rhs|, is at most
    ROW_TOL * max(1, |rhs|).
    """
    activity = points @ rows.matrix.T
    gap = activity - rows.rhs
    distance = np.abs(gap)
    # An inequality whose gap points into its half-space is not violated.
    violation = np.where(rows.sense * gap < 0.0, 0.0, distance)
    band = ROW_TOL * rows.scale
    return activity, violation, violation <= band, distance <= band


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
        if not all(math.isfinite(c) for c in self.objective):
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
        matrix = np.eye(m + n, n, -m)          # unit lower-bound rows below the constraints
        for i, c in enumerate(self.constraints):
            matrix[i] = c.coefficients
        return Rows(
            matrix=matrix,
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

    Columns are ordered structural | slack | surplus | artificial. Rows are
    equilibrated by their max-abs structural coefficient and sign-flipped
    where needed so every rhs is nonnegative. Nonzero variable lower bounds
    are shifted into the rhs (x = shift + x') and recorded for un-shifting.
    """

    matrix: np.ndarray              # (m, total_cols)
    rhs: np.ndarray                 # (m,)
    objective: np.ndarray           # minimization costs over structural columns, zero-padded
    objective_offset: float         # c . shift, added back when reporting
    var_count: int
    slack_cols: tuple[int, ...]
    surplus_cols: tuple[int, ...]
    artificial_cols: tuple[int, ...]
    row_labels: tuple[str, ...]
    row_scales: tuple[float, ...]   # divisor applied to each original row
    shifts: tuple[float, ...]       # per-variable lower-bound shift

    @property
    def column_count(self) -> int:
        return self.matrix.shape[1]


def standardize(lp: LinearProgram) -> StandardForm:
    """Augment *lp* into equality form with slack/surplus/artificial columns."""
    m = len(lp.constraints)
    n = lp.var_count
    view = lp.rows
    shifts = view.rhs[m:]

    rows = view.matrix[:m]
    rhs = view.rhs[:m] - rows @ shifts

    scales = np.max(np.abs(rows), axis=1) if m else np.empty(0)
    # Every constraint has a nonzero coefficient, so scales > 0.
    if m:
        rows = rows / scales[:, None]
        rhs = rhs / scales

    # Flip rows with negative rhs so the textbook augmentation applies.
    sense = view.sense[:m].tolist()
    for i in np.flatnonzero(rhs < 0.0):
        rows[i] *= -1.0
        rhs[i] = -rhs[i]
        sense[i] = -sense[i]

    n_slack = sense.count(1.0)
    n_surplus = sense.count(-1.0)
    n_artificial = m - n_slack
    total = n + n_slack + n_surplus + n_artificial

    matrix = np.zeros((m, total))
    matrix[:, :n] = rows
    slack_cols: list[int] = []
    surplus_cols: list[int] = []
    artificial_cols: list[int] = []
    next_slack = n
    next_surplus = n + n_slack
    next_artificial = n + n_slack + n_surplus
    for i, s in enumerate(sense):
        if s > 0.0:
            matrix[i, next_slack] = 1.0
            slack_cols.append(next_slack)
            next_slack += 1
        elif s < 0.0:
            matrix[i, next_surplus] = -1.0
            surplus_cols.append(next_surplus)
            next_surplus += 1
            matrix[i, next_artificial] = 1.0
            artificial_cols.append(next_artificial)
            next_artificial += 1
        else:
            matrix[i, next_artificial] = 1.0
            artificial_cols.append(next_artificial)
            next_artificial += 1

    cost = np.zeros(total)
    sign = 1.0 if lp.sense is Sense.MINIMIZE else -1.0
    cost[:n] = sign * np.asarray(lp.objective, dtype=float)

    return StandardForm(
        matrix=matrix,
        rhs=rhs,
        objective=cost,
        objective_offset=float(np.dot(lp.objective, shifts)),
        var_count=n,
        slack_cols=tuple(slack_cols),
        surplus_cols=tuple(surplus_cols),
        artificial_cols=tuple(artificial_cols),
        row_labels=tuple(c.label for c in lp.constraints),
        row_scales=tuple(float(s) for s in scales),
        shifts=tuple(float(s) for s in shifts),
    )


# ---------------------------------------------------------------------------
# tableau and pivoting


@dataclass
class Tableau:
    """Canonical-form simplex tableau: body rows plus a priced cost row.

    ``body`` is (m, N+1) with the rhs in the last column; ``cost`` is the
    reduced-cost row of length N+1 whose last entry holds the negated
    objective value. ``basis[i]`` is the column basic in row i.
    """

    body: np.ndarray
    cost: np.ndarray
    basis: list[int]
    blocked: frozenset[int] = field(default_factory=frozenset)  # columns barred from entering

    @property
    def rows(self) -> int:
        return self.body.shape[0]

    @property
    def cols(self) -> int:
        return self.body.shape[1] - 1

    def objective_value(self) -> float:
        return -float(self.cost[-1])


def pivot_rule(tableau: Tableau, *, bland: bool = False) -> tuple[int, int] | None:
    """Pick the next (row, col) pivot, or None when no reduced cost is negative.

    Default: Dantzig entering column with the smallest-ratio leaving row,
    ratio ties broken toward the lowest row index. Bland: lowest-index
    entering column, ratio ties broken toward the lowest basic variable
    index, which prevents cycling.

    Raises _Unbounded when the chosen column has no positive pivot entry.
    """
    reduced = tableau.cost[:-1]
    tol = OPT_TOL * max(1.0, float(np.max(np.abs(reduced))) if reduced.size else 1.0)

    col = -1
    if bland:
        for j in range(reduced.size):
            if j not in tableau.blocked and reduced[j] < -tol:
                col = j
                break
    else:
        best = -tol
        for j in range(reduced.size):
            if j not in tableau.blocked and reduced[j] < best:
                best = reduced[j]
                col = j
    if col < 0:
        return None

    column = tableau.body[:, col]
    rhs = tableau.body[:, -1]
    row = -1
    best_ratio = math.inf
    for i in range(tableau.rows):
        if column[i] <= PIVOT_TOL:
            continue
        ratio = rhs[i] / column[i]
        if row < 0:
            row, best_ratio = i, ratio
            continue
        tie_band = PIVOT_TOL * max(1.0, abs(best_ratio))
        if ratio < best_ratio - tie_band:
            row, best_ratio = i, ratio
        elif abs(ratio - best_ratio) <= tie_band and bland and tableau.basis[i] < tableau.basis[row]:
            row = i
        # default rule keeps the lowest row index already held on ties
    if row < 0:
        raise _Unbounded()
    return row, col


def _apply_pivot(tableau: Tableau, row: int, col: int) -> None:
    body = tableau.body
    body[row] /= body[row, col]
    factors = body[:, col].copy()
    factors[row] = 0.0
    body -= np.outer(factors, body[row])
    tableau.cost -= tableau.cost[col] * body[row]
    tableau.basis[row] = col


def _run_simplex(tableau: Tableau) -> int:
    """Iterate to optimality; returns the iteration count. Raises _Unbounded."""
    iterations = 0
    stall = 0
    stall_limit = 2 * (tableau.rows + tableau.cols)
    bland = False
    last = tableau.objective_value()
    while True:
        pivot = pivot_rule(tableau, bland=bland)
        if pivot is None:
            return iterations
        _apply_pivot(tableau, *pivot)
        iterations += 1
        if iterations > MAX_ITER:
            raise IterationLimitError(f"no convergence within {MAX_ITER} iterations")
        current = tableau.objective_value()
        if current < last - STALL_TOL * max(1.0, abs(last)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= stall_limit:
                bland = True
        last = current


def _priced_cost_row(matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int]) -> np.ndarray:
    row = np.append(cost.astype(float), 0.0)
    for i, j in enumerate(basis):
        factor = row[j]
        if factor != 0.0:
            row[:-1] -= factor * matrix[i]
            row[-1] -= factor * rhs[i]
    # store -objective in the last slot
    return row


def _drive_out_artificials(tableau: Tableau, artificial: set[int]) -> list[int]:
    """Pivot zero-valued artificials out of the basis; return redundant rows."""
    redundant: list[int] = []
    for i in range(tableau.rows):
        if tableau.basis[i] not in artificial:
            continue
        target = -1
        for j in range(tableau.cols):
            if j in artificial:
                continue
            if abs(tableau.body[i, j]) > PIVOT_TOL:
                target = j
                break
        if target >= 0:
            _apply_pivot(tableau, i, target)
        else:
            redundant.append(i)
    return redundant


def solve(lp: LinearProgram) -> Solution:
    """Solve *lp* with the two-phase simplex.

    Returns a Solution whose status is Optimal, Infeasible (phase 1 ends
    with a positive artificial objective), or Unbounded (an improving
    column has no blocking row in phase 2). Activities, the binding set
    and the objective are recomputed against the original rows.
    """
    form = standardize(lp)
    m = form.matrix.shape[0]
    n_total = form.column_count
    iterations = 0

    if m == 0:
        # Only lower bounds constrain the problem; the minimum sits at the shift.
        if any(c < 0.0 for c in form.objective[: form.var_count]):
            return _build_solution(lp, Status.UNBOUNDED, None, 0)
        return _build_solution(lp, Status.OPTIMAL, form.shifts, 0)

    matrix = form.matrix.copy()
    rhs = form.rhs.copy()
    artificial = set(form.artificial_cols)

    # Phase 1 starts from the slack/artificial identity basis.
    basis: list[int] = []
    for i in range(m):
        slot = -1
        for j in (*form.slack_cols, *form.artificial_cols):
            if matrix[i, j] == 1.0:
                slot = j
                break
        basis.append(slot)

    if artificial:
        phase1_cost = np.zeros(n_total)
        for j in artificial:
            phase1_cost[j] = 1.0
        body = np.hstack([matrix, rhs[:, None]])
        tableau = Tableau(body=body, cost=_priced_cost_row(matrix, rhs, phase1_cost, basis), basis=basis)
        try:
            iterations += _run_simplex(tableau)
        except _Unbounded:  # the phase-1 objective is bounded below by zero
            raise LPError("phase 1 reported unbounded; input is numerically degenerate")
        scale = max(1.0, float(np.max(np.abs(tableau.body[:, -1]))))
        if tableau.objective_value() > FEAS_TOL * scale:
            return _build_solution(lp, Status.INFEASIBLE, None, iterations)
        redundant = set(_drive_out_artificials(tableau, artificial))
        keep = [i for i in range(tableau.rows) if i not in redundant]
        body = tableau.body[keep]
        basis = [tableau.basis[i] for i in keep]
    else:
        body = np.hstack([matrix, rhs[:, None]])

    # Phase 2: original costs over the feasible basis; artificials barred.
    tableau = Tableau(
        body=body,
        cost=_priced_cost_row(body[:, :-1], body[:, -1], form.objective, basis),
        basis=basis,
        blocked=frozenset(artificial),
    )
    try:
        iterations += _run_simplex(tableau)
    except _Unbounded:
        return _build_solution(lp, Status.UNBOUNDED, None, iterations)

    shifted = np.zeros(n_total)
    for i, j in enumerate(tableau.basis):
        shifted[j] = tableau.body[i, -1]
    values = tuple(float(v) for v in (shifted[: form.var_count] + np.asarray(form.shifts)))
    return _build_solution(lp, Status.OPTIMAL, values, iterations)


def _build_solution(
    lp: LinearProgram,
    status: Status,
    values: tuple[float, ...] | None,
    iterations: int,
) -> Solution:
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
    activity, _, _, binding = check_rows(lp.rows, np.array([values]))
    return Solution(
        status=status,
        values=values,
        objective_value=lp.objective_at(values),
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
