"""Parametric rhs analysis: one program solved at many right-hand sides.

``_solve_block`` runs the block driver, ``_two_phase``: it solves one
program at each row of a (k, m) rhs array and returns each row's status
and pivot count, and one (k, n) array of the optimal points with their
objectives. Two read-outs sit on it: ``solve_rhs`` reads each row's
Solution out through ``solve``'s ``_build_solution``, and ``sweep`` reads
its points straight from the arrays. ``solve_many`` groups a batch of
programs that differ only in their constraints' rhs into one
``solve_rhs`` call each, so the rhs shift, equilibration and sign flip
live in one place. Rows of rhs whose standardized rhs have the same signs
have the same tableau but for the rhs, so they share one: it carries one
rhs column per row, and every pivot updates the whole block.
When no standardized rhs is negative (a sweep's usual case) all rows
share one tableau; otherwise they are grouped by one packed sign code
each (``np.packbits``, any m). Each phase runs ``solve``'s pivot loop,
``lp._run_simplex``, on the whole block: each pivot is chosen by
``pivot_rule`` for the lead (first) column, and a column leaves its block
only where its leaving row, its Bland flag (from its own stall count) or
its phase-1 verdict differs from the lead's; it continues in a block of
its own from the same state. This is parametric rhs analysis (Bertsimas
& Tsitsiklis, *Introduction to Linear Optimization*, §5.2): one basis
stays optimal over an interval of rhs values, so a sweep's grid needs
few blocks. The phase-1 verdict and reading out the points are
whole-array operations, a block of one column included; the verdict
runs only while an artificial is basic. The bits
match ``solve`` because every operation on the tableau is elementwise per
column (the outer-product update, the priced cost row, the ratios and
tolerances), and the objectives of all optimal points come from one
stacked product, ``np.matmul(P[:, None, :], c[:, None])``: each (1, n)
slice goes through the BLAS call of ``solve``'s ``np.dot(c, x)``, where
a plain 2-D ``P @ c`` rounds differently. Two caveats: P must be
C-contiguous, or numpy skips BLAS and the objective can move by an ulp;
and at n = 1 ``np.dot`` is the bare product c*x, -0.0 included, where
the stacked form gives +0.0, so the objective is that product.

The driver reads ``solve``'s pivot loop, pricing, read-out and
thresholds as attributes of ``gridmix.lp`` when it runs
(``lp_module._run_simplex``, ``lp_module.FEAS_TOL``, ...), so both
drivers always run the same ones. ``solve`` loads none of this module.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import lp as lp_module
from .lp import (
    _OUT_OF_RANGE, LinearProgram, LPError, Rows, Solution, StandardForm, Status, Tableau, ValidationError,
    _in_float_range,
)
from .model import compile_sweep
from .scenario import CAP_FIELDS, Scenario

__all__ = ["SweepPoint", "solve_many", "solve_rhs", "sweep"]


# (rhs columns, status, their (k, n) points when optimal, iterations)
_Outcome = tuple[tuple[int, ...], Status, "np.ndarray | None", int]


def _two_phase(form: StandardForm, table: np.ndarray) -> list[_Outcome]:
    """Run both simplex phases on *table*: *form*'s rows with one rhs
    column per program, over a cost row that is overwritten here. Returns
    one outcome per block of rhs columns that ended alike, in no fixed
    order.

    The steps are ``lp._two_phase_lone``'s, taken on every column of a
    block at once: the same pivot loop, and the phase-1 verdict and the
    read-out of the points as whole arrays, elementwise, so each column's
    bits are those of a lone solve.
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
        lp_module._price(table, [0.0] * first + [1.0] * (total - first), form.basis)
        scales = np.array(form.row_scales)
        given = table[:-1, total:].copy()    # each program's equilibrated rhs, before phase 1 pivots
        for tableau, iterations, unbounded in lp_module._run_simplex(Tableau(table, list(form.basis), ids=ids)):
            if unbounded:  # the phase-1 objective is bounded below by zero
                raise LPError("phase 1 reported unbounded; input is numerically degenerate")
            # Each basic artificial against its own row's scale, as in _two_phase_lone.
            # No column can fail once every artificial has left the basis.
            at = [i for i, col in enumerate(tableau.basis) if col >= first]
            if at:
                of = [form.basis.index(tableau.basis[i]) for i in at]
                band = lp_module.FEAS_TOL * np.maximum(1.0 / scales[of, None], given[of][:, tableau.ids])
                failed = (tableau.body[at, tableau.cols:] > band).any(axis=0).tolist()
                if any(failed):
                    outcomes.append((tuple(compress(tableau.ids, failed)), Status.INFEASIBLE, None, iterations))
                    if all(failed):
                        continue
                    tableau = tableau.take(np.flatnonzero(np.logical_not(failed)))
            redundant = lp_module._drive_out_artificials(tableau, first)
            keep = [i for i in range(tableau.rows) if i not in redundant]
            table = tableau.table[[*keep, tableau.rows]] if redundant else tableau.table
            starts.append((table, [tableau.basis[i] for i in keep], tableau.ids, iterations))

    # Phase 2: original costs over the feasible basis; artificials barred.
    for table, basis, ids, before in starts:
        lp_module._price(table, form.objective, basis)
        for tableau, iterations, unbounded in lp_module._run_simplex(Tableau(table, basis, form.artificial_cols, ids)):
            if unbounded:
                outcomes.append((tableau.ids, Status.UNBOUNDED, None, before + iterations))
                continue
            # Scatter each column's basic values into its point, then un-shift.
            points = np.zeros((len(tableau.ids), total))
            points[:, tableau.basis] = tableau.body[:, tableau.cols:].T
            points = points[:, : form.var_count] + np.array(form.shifts)
            outcomes.append((tableau.ids, Status.OPTIMAL, points, before + iterations))
    return outcomes


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

    Rows whose standardized rhs have the same signs share one tableau.
    When no standardized rhs is negative, every row shares one; otherwise a
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
    if not flips.any():   # one sign code, as in a sweep whose rhs stay >= 0
        groups = [np.arange(k)] if k else []
    else:
        shifted = np.where(flips, -shifted, shifted)
        codes = np.packbits(flips, axis=0)          # (ceil(m / 8), k): column j is row j's sign code
        order = np.lexsort(codes)                   # stable: each group's rows ascend
        ordered = codes[:, order]
        cuts = (np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).any(axis=0)) + 1).tolist()
        groups = sorted((order[a:b] for a, b in zip([0, *cuts], [*cuts, k])), key=lambda picks: picks[0])

    status = np.empty(k, dtype=object)
    iterations = np.zeros(k, dtype=int)
    found = [np.zeros(0, dtype=int)]               # the optimal rows of each block ...
    points = [np.zeros((0, lp.var_count))]         # ... and their points
    for picks in groups:
        form = lp_module._standardize(lp, given[:, picks[0]])
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

    ``_solve_block`` runs the simplex, and ``lp._build_solution`` reads
    out each row's Solution against that row's rhs, as ``solve`` does. An
    error that ``solve`` would raise for any row is raised here.
    """
    status, iterations, at, points, _ = _solve_block(lp, rhs)
    found = dict(zip(at.tolist(), map(tuple, points.tolist())))
    view = lp.rows
    bounds = view.rhs[len(lp.constraints):]
    solutions = []
    for k, row in enumerate(np.asarray(rhs, dtype=float)):
        rows = Rows(view.matrix, np.concatenate((row, bounds)), view.sense)
        solutions.append(lp_module._build_solution(lp, rows, status[k], found.get(k), iterations[k]))
    return tuple(solutions)


# ---------------------------------------------------------------------------
# sweeps


class SweepPoint(NamedTuple):
    """One grid point of a sweep, a named tuple like the library's other
    result records. A sweep builds one per point, each in one
    ``tuple.__new__`` call with no per-field setter."""

    value: float
    status: Status
    objective: float
    production: tuple[float, ...]


def sweep(scenario: Scenario, parameter: str, values: Sequence[float]) -> tuple[SweepPoint, ...]:
    """Solve *scenario* at each cap value; infeasible points are kept in
    the trajectory with their status rather than dropped. A point that is
    not optimal has a NaN objective and NaN production.

    The scenario is compiled once: ``compile_sweep`` checks every value as
    ``with_cap`` would and writes each point's rhs with the expressions of
    ``compile_scenario``, and one ``_solve_block`` call runs the simplex
    for every point; the points share one tableau, with one rhs column
    each, until their pivots differ. Each point's status, objective and
    production are those of the Solution ``solve`` returns for
    ``compile_scenario(scenario.with_cap(cap, value))``, to the bit, read
    straight from the solved block's arrays: no Solution, activities or
    binding set is built per point. A cap that compiles no row (see
    ``compile_sweep``) leaves every point the same program.
    """
    if parameter not in CAP_FIELDS:
        raise KeyError(f"unknown sweep parameter {parameter!r}; known: {', '.join(CAP_FIELDS)}")
    if len(values) == 0:
        return ()
    program, rhs = compile_sweep(scenario, CAP_FIELDS[parameter], values)
    block = _solve_block(program, rhs)
    objective = np.full(len(values), math.nan)
    production = np.full((len(values), program.var_count), math.nan)
    objective[block.at] = block.objective
    production[block.at] = block.points
    # tuple.__new__ is SweepPoint._make without its length check; every
    # item of the zip holds the four fields in order.
    fields = zip(map(float, values), block.status, objective.tolist(), zip(*production.T.tolist()))
    return tuple(map(tuple.__new__, itertools.repeat(SweepPoint), fields))
