"""``solve`` and the block loop share one pivot loop, ``lp._run_simplex``.
On a tableau of one rhs column it must pivot exactly as ``solve``'s own
scalar loop did before the two were merged: that loop is frozen below,
and every phase that ``solve`` runs here is replayed on it, pivot for
pivot, to the bit of the whole table.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings

from gridmix import lp as lp_module
from gridmix.catalog import get_scenario
from gridmix.lp import LPError, Status, Tableau, solve
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario

from test_solve_golden import golden_cases, scaled
from test_solve_many import CYCLING_OBJECTIVE, CYCLING_ROWS, cycling_program
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
        for program in family:
            with contextlib.suppress(LPError):
                solve(program)
