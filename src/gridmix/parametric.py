"""Parametric rhs analysis: one program solved at many right-hand sides.

``_solve_block`` runs ``solve``'s two-phase driver, ``lp._two_phase``, on
a tableau with one rhs column per row of a (k, m) rhs array, and reads
out each row's status and pivot count, and one (k, n) array of the
optimal points with their objectives. Two read-outs sit on it:
``solve_rhs`` reads each row's Solution out through ``solve``'s
``_build_solution``, and ``sweep`` reads its points straight from the
arrays. ``solve_many`` groups a batch of programs that differ only in
their constraints' rhs into one ``solve_rhs`` call each, so the rhs
shift, equilibration and sign flip live in one place. Rows of rhs whose
standardized rhs have the same signs have the same tableau but for the
rhs, so they share one: it carries one rhs column per row, and every
pivot updates the whole block. When no standardized rhs is negative (a
sweep's usual case) all rows share one tableau; otherwise they are
grouped by one packed sign code each (``np.packbits``, any m). Each
pivot is chosen by ``pivot_rule``, whose one ratio test gives every
column's leaving row, and a column leaves its block only where its
leaving row, its Bland flag (from its own stall count) or its phase-1
verdict differs from the lead's (first) column's; it continues in a
block of its own from the same state. This is parametric
rhs analysis (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, §5.2): one basis stays optimal over an interval of rhs
values, so a sweep's grid needs few blocks. The driver hands back each
block's final tableau, and its points are scattered out as one array.
The bits match ``solve`` because every operation on the tableau is
elementwise per column (the outer-product update, the priced cost row,
the ratios and tolerances, the phase-1 verdict), and the objectives of
all optimal points come from one stacked product,
``np.matmul(P[:, None, :], c[:, None])``: each (1, n) slice goes through
the BLAS call of ``solve``'s ``np.dot(c, x)``, where a plain 2-D
``P @ c`` rounds differently. Two caveats: P must be C-contiguous, or
numpy skips BLAS and the objective can move by an ulp; and at n = 1
``np.dot`` is the bare product c*x, -0.0 included, where the stacked
form gives +0.0, so the objective is that product.

This module reads the driver, the standard form and the Solution
read-out as attributes of ``gridmix.lp`` when it runs
(``lp_module._two_phase``, ...), so it always runs ``solve``'s own.
``solve`` loads none of this module.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import lp as lp_module
from .lp import _OUT_OF_RANGE, LinearProgram, LPError, Rows, Solution, Status, ValidationError, _in_float_range
from .model import compile_sweep
from .scenario import CAP_FIELDS, Scenario

__all__ = ["SweepPoint", "solve_many", "solve_rhs", "sweep"]


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
def _solve_block(lp: LinearProgram, given: np.ndarray) -> _Block:
    """The simplex of ``solve_rhs`` without its read-out, on a (k, m) rhs
    *given* already checked: every row's status and pivot count, and the
    points and objectives of the optimal rows. Raises what ``solve_rhs``
    raises past that check, objective overflow included.

    Rows whose standardized rhs have the same signs share one tableau.
    When no standardized rhs is negative, every row shares one; otherwise a
    row's signs are packed into one code of ceil(m / 8) bytes, and one
    stable sort of the codes groups the rows in order of first appearance.
    """
    k, m = given.shape
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
        for ids, outcome, count, final in lp_module._two_phase(form, shifted[:, picks]):
            at = np.take(picks, ids)
            status[at] = outcome
            iterations[at] = count
            if outcome is not Status.OPTIMAL:
                continue
            if final is None:   # no rows: every point is the shifts, -0.0 included
                block_points = np.tile(form.shifts, (len(ids), 1))
            else:
                # Scatter each column's basic values into its point, then un-shift.
                block_points = np.zeros((len(ids), total))
                block_points[:, final.basis] = final.body[:, total:].T
                block_points = block_points[:, : lp.var_count] + np.array(form.shifts)
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
    m = len(lp.constraints)
    given = np.asarray(rhs, dtype=float)
    if given.ndim != 2 or given.shape[1] != m:
        raise ValidationError(f"rhs has shape {given.shape}; expected (k, {m})")
    finite = np.isfinite(given).all(axis=0).tolist()
    if not all(finite):
        raise ValidationError(f"constraint {lp.constraints[finite.index(False)].label!r}: rhs is not finite")
    status, iterations, at, points, _ = _solve_block(lp, given)
    found = dict(zip(at.tolist(), map(tuple, points.tolist())))
    view = lp.rows
    bounds = view.rhs[m:]
    solutions = []
    for k, row in enumerate(given):
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
