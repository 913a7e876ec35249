"""``solve`` and the block loop share one pivot loop, ``lp._run_simplex``,
and one two-phase driver, ``lp._two_phase``. On a tableau of one rhs
column the loop must pivot exactly as ``solve``'s own scalar loop did
before the two were merged: that loop is frozen below, and every phase
that ``solve`` runs here is replayed on it, pivot for pivot, to the bit
of the whole table. ``solve``'s own scalar driver is frozen below too,
run on the frozen loop, and ``solve`` must answer as it does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from gridmix import lp as lp_module
from gridmix.catalog import get_scenario
from gridmix.lp import LinearProgram, LPError, Sense, StandardForm, Status, Tableau, solve, standardize
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario

from test_phase_one import magnitude_program
from test_solve_golden import golden_cases, scaled
from test_solve_many import CYCLING_OBJECTIVE, CYCLING_ROWS, bits, cycling_program
from test_stall_replay import CAPS, capped_cycling_program, degenerate_families


def run_lone_frozen(tableau: Tableau) -> tuple[int, bool]:
    """``solve``'s loop before it ran ``_run_simplex``: *tableau*, with its
    one rhs column, iterated to optimality with a scalar stall count and
    best objective. Returns (iterations, unbounded)."""
    cols = tableau.cols
    cost = tableau.cost
    stall_limit = 2 * (tableau.rows + cols)
    iterations = stall = 0
    best = cost.item(cols)
    while True:
        try:
            pivot = lp_module.pivot_rule(tableau, bland=stall >= stall_limit)
        except lp_module._Unbounded:
            return iterations, True
        if pivot is None:
            return iterations, False
        lp_module._apply_pivot(tableau, *pivot)
        iterations += 1
        if iterations > lp_module.MAX_ITER:
            raise lp_module.IterationLimitError(f"no convergence within {lp_module.MAX_ITER} iterations")
        now = cost.item(cols)
        if now > best + lp_module.STALL_TOL * max(1.0, abs(best)):
            stall, best = 0, now
        else:
            stall += 1


def two_phase_lone_frozen(form: StandardForm) -> tuple[Status, tuple[float, ...] | None, int]:
    """``solve``'s driver before it ran ``_two_phase``, on the frozen loop:
    both phases on *form* with its own rhs, (status, the optimal point or
    None, iterations), its tests and read-out on Python floats."""
    total = form.column_count
    if not form.basis:
        if min(form.objective, default=0.0) < 0.0:
            return Status.UNBOUNDED, None, 0
        return Status.OPTIMAL, form.shifts, 0

    table = np.zeros((len(form.basis) + 1, total + 1))
    table[:-1] = form.body
    basis = list(form.basis)
    first = total - len(form.artificial_cols)
    before = 0
    if first < total:
        lp_module._price(table, [0.0] * first + [1.0] * (total - first), basis)
        phase1 = Tableau(table, basis)
        before, unbounded = run_lone_frozen(phase1)
        if unbounded:
            raise LPError("phase 1 reported unbounded; input is numerically degenerate")
        rhs, given, scales = table[:, total].tolist(), form.body[:, total].tolist(), form.row_scales
        for i, col in enumerate(basis):
            if col >= first:
                r = form.basis.index(col)
                if rhs[i] > lp_module.FEAS_TOL * max(1.0 / scales[r], given[r]):
                    return Status.INFEASIBLE, None, before
        redundant = lp_module._drive_out_artificials(phase1, first)
        if redundant:
            keep = [i for i in range(len(basis)) if i not in redundant]
            table, basis = table[[*keep, len(basis)]], [basis[i] for i in keep]

    lp_module._price(table, form.objective, basis)
    iterations, unbounded = run_lone_frozen(Tableau(table, basis, form.artificial_cols))
    if unbounded:
        return Status.UNBOUNDED, None, before + iterations
    shifted = [0.0] * total
    for j, value in zip(basis, table[:, total].tolist()):
        shifted[j] = value
    return Status.OPTIMAL, tuple([v + s for v, s in zip(shifted, form.shifts)]), before + iterations


@lp_module._in_float_range
def solve_frozen(lp: LinearProgram) -> lp_module.Solution:
    """``solve`` with its driver and pivot loop frozen."""
    return lp_module._build_solution(lp, lp.rows, *two_phase_lone_frozen(standardize(lp)))


def assert_solves_as_frozen(programs) -> None:
    """``solve`` returns the frozen driver's Solution, to the bit, or
    raises what it raises."""
    for lp in programs:
        try:
            expected = bits(solve_frozen(lp))
        except LPError as raised:
            with pytest.raises(type(raised)):
                solve(lp)
            continue
        assert bits(solve(lp)) == expected


def test_solve_answers_as_its_frozen_driver():
    catalog = []
    for name, variant, mode, k in golden_cases():
        scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
        catalog.append(compile_scenario(scaled(scenario, k)))
    rng = np.random.default_rng(1)   # the 1,000 programs of tests/test_phase_one.py
    magnitudes = [magnitude_program(rng) for _ in range(1_000)]
    cycling = [cycling_program(0.0), *(capped_cycling_program(t, s) for t, s in CAPS)]
    no_rows = [LinearProgram(sense, (1.0, 2.0), (), 2, lower_bounds=(-0.0, 3.0)) for sense in Sense]
    assert_solves_as_frozen([*catalog, *magnitudes, *cycling, *no_rows])


def check_each_loop(patch: pytest.MonkeyPatch) -> list[tuple[int, int]]:
    """Replay every ``_run_simplex`` call of ``solve`` on a copy of its
    tableau through ``run_lone_frozen``, and check that both took the same
    pivots under the same Bland flags and left the same iterations,
    unbounded flag, basis and table bits. Returns (iterations, pivot_rule
    calls under Bland's rule) of each loop run."""
    runs: list[tuple[int, int]] = []
    log: list[tuple[bool, tuple[int, int] | None]] = []
    run_simplex, rule = lp_module._run_simplex, lp_module.pivot_rule

    def logged(tableau, *, bland=False):
        pivot = None
        try:
            pivot = rule(tableau, bland=bland)
            return pivot
        finally:
            log.append((bland, pivot))

    def checked(tableau):
        assert len(tableau.ids) == 1
        frozen = Tableau(tableau.table.copy(), list(tableau.basis), tableau.blocked, tableau.ids)
        log.clear()
        expected = run_lone_frozen(frozen)
        pivots = list(log)
        log.clear()
        [(block, iterations, unbounded)] = done = run_simplex(tableau)
        assert block is tableau and log == pivots
        assert (iterations, unbounded) == expected
        assert tableau.basis == frozen.basis
        assert tableau.table.tobytes() == frozen.table.tobytes()
        runs.append((iterations, sum(bland for bland, _ in pivots)))
        return done

    patch.setattr(lp_module, "pivot_rule", logged)
    patch.setattr(lp_module, "_run_simplex", checked)
    return runs


def test_both_phases_of_every_catalog_lp_pivot_as_the_frozen_loop(monkeypatch):
    runs = check_each_loop(monkeypatch)
    phases = []
    for name, variant, mode, k in golden_cases():
        scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
        before = len(runs)
        solution = solve(compile_scenario(scaled(scenario, k)))
        phases.append((solution.status, len(runs) - before))
    # Every catalog LP has an artificial: phase 1 always runs, phase 2 unless infeasible.
    assert {count for status, count in phases if status is Status.INFEASIBLE} == {1}
    assert {count for status, count in phases if status is not Status.INFEASIBLE} == {2}


def test_blands_rule_engages_where_the_frozen_loop_engages_it(monkeypatch):
    runs = check_each_loop(monkeypatch)
    assert solve(cycling_program(0.0)).iterations == 54
    assert sum(bland for _, bland in runs) == 2
    runs.clear()
    for t, s in CAPS:
        assert solve(capped_cycling_program(t, s)).iterations == 60
    assert all(bland for _, bland in runs[1::2])   # Bland's rule in every phase 2
    # Rounding-level falls and rises of the objective: the stall count is
    # measured against the best objective so far.
    rows = tuple(
        lp_module.Constraint(a, relation, 1e-11 if i == 0 else 0.0, f"r{i}")
        for i, (a, relation) in enumerate(CYCLING_ROWS)
    )
    runs.clear()
    solve(lp_module.LinearProgram(lp_module.Sense.MINIMIZE, CYCLING_OBJECTIVE[:6], rows, 6))
    assert any(bland for _, bland in runs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_families())
def test_small_degenerate_families_pivot_as_the_frozen_loop(family):
    with pytest.MonkeyPatch.context() as patch:
        check_each_loop(patch)
        assert_solves_as_frozen(family)   # and each answer is the frozen driver's
