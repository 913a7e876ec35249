"""The block loop's ratio test reads only the rows where a block's rhs
columns can differ. Each block's tableau carries one flag per body row,
``Tableau.varies``: off means every column holds the lead's rhs there
(``==``, so ±0 alike). These tests pin that the flags never miss a row
that differs, that ``pivot_rule``'s leaving rows mark exactly the columns
that the full elementwise replay of the ratio test, frozen below, sends
to another row, and that each pivot runs that test, ``lp._leaving_row``,
once.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridmix import cli, lp as lp_module
from gridmix.lp import PIVOT_TOL as TOL
from gridmix.lp import LPError, Tableau, pivot_rule, solve_rhs

from test_stall_replay import CAPS, capped_cycling_program, degenerate_families


def leaving_rows_frozen(tableau: Tableau, col: int, bland: bool) -> np.ndarray:
    """The split test before the row flags: ``pivot_rule``'s ratio test
    replayed elementwise on every rhs column, the leaving row of each."""
    rhs = tableau.body[:, tableau.cols:]
    basis = np.array(tableau.basis) if bland else None
    row = best = None
    for i, entry in enumerate(tableau.body[:, col].tolist()):
        if entry <= lp_module.PIVOT_TOL:
            continue
        ratio = rhs[i] / entry
        if row is None:
            row, best = np.full(len(ratio), i), ratio
            continue
        tie_band = lp_module.PIVOT_TOL * np.maximum(1.0, np.abs(best))
        lower = ratio < best - tie_band
        take = lower
        if bland:
            take = lower | ((np.abs(ratio - best) <= tie_band) & (basis[i] < basis[row]))
        row = np.where(take, i, row)
        best = np.where(lower, ratio, best)
    return row


# ---------------------------------------------------------------------------
# pivot_rule's leaving rows against the frozen replay


# Entering-column entries: ineligible (negative, zero, exactly PIVOT_TOL)
# and eligible (just past it, and powers of two, which keep every ratio exact).
ENTRIES = [-1.0, -0.0, 0.0, TOL, TOL * (1.0 + 2**-40), 0.5, 1.0, 1.0, 4.0]
# Ratios: a few shared values, each moved by these multiples of its tie band.
SHARED = [0.0, 0.0, 1.0, 1e4]
OFFSETS = [0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]


def block(entries: list[float], rhs: list[list[float]], basis: list[int]) -> Tableau:
    """A block tableau whose entering column 0, the only one with a
    negative reduced cost, holds *entries*, with one row of *rhs* per
    entry and one rhs column per item of each row."""
    m, k = len(rhs), len(rhs[0])
    table = np.zeros((m + 1, m + 1 + k))
    table[:-1, 0] = entries
    table[-1, 0] = -1.0
    table[:-1, m + 1:] = rhs
    return Tableau(table, basis, ids=tuple(range(k)))


@st.composite
def block_tableaux(draw):
    """A block tableau, its entering column (0), the Bland flag and row
    flags that are off only where every column holds the lead's rhs (±0
    alike). The ratios sit on a few shared values, moved by multiples of
    their tie band, so rows tie inside, at and just past the band."""
    m = draw(st.integers(1, 7))
    k = draw(st.integers(2, 5))
    cell = st.tuples(st.sampled_from(SHARED), st.sampled_from(OFFSETS), st.booleans(), st.booleans())
    entries, rhs, varies = [], [], []
    for _ in range(m):
        entry, flagged = draw(st.sampled_from(ENTRIES)), draw(st.booleans())
        cells = draw(st.lists(cell, min_size=k, max_size=k))
        row = []
        for shared, offset, own, negative in cells:
            if not (flagged and own):   # the lead's rhs, ±0 alike
                shared, offset = cells[0][:2]
            value = (shared + offset * TOL * max(1.0, shared)) * abs(entry or 1.0)
            row.append(-0.0 if value == 0.0 and negative else value)
        entries.append(entry)
        rhs.append(row)
        varies.append(flagged)
    basis = [j + 1 for j in draw(st.permutations(range(m)))]
    return block(entries, rhs, basis), 0, draw(st.booleans()), varies



@settings(max_examples=100, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(block_tableaux())
# While every column shares the lead's state, row 1's ratio sits exactly
# on the band's lower edge (not taken) and, under Bland's rule, exactly on
# its upper edge (taken): the varying row 2 then splits the block only if
# those shared steps were right.
@example((block([1.0, 1.0, 1.0], [[0.0, -0.0], [-TOL, -TOL], [-1.5 * TOL, 0.0]], [1, 2, 3]), 0, False, [False, False, True]))
@example((block([1.0, 1.0, 1.0], [[0.0, 0.0], [TOL, TOL], [0.0, 3 * TOL]], [3, 1, 2]), 0, True, [False, False, True]))
def test_the_leaving_rows_mark_the_columns_the_frozen_replay_moves(case):
    tableau, col, bland, varies = case
    rows = leaving_rows_frozen(tableau, col, bland)
    expected = [False] * len(tableau.ids) if rows is None else (rows != rows[0]).tolist()
    for flags in (varies, None):   # the block's flags, then none: the lead alone
        tableau.varies = flags
        if rows is None:
            with pytest.raises(lp_module._Unbounded):
                pivot_rule(tableau, bland=bland)
            continue
        row, entered = pivot_rule(tableau, bland=bland)
        moved = row != row[0] if type(row) is np.ndarray else None
        if flags is None:
            assert moved is None and (row, entered) == (rows[0], col)
        else:
            assert ([False] * len(tableau.ids) if moved is None else moved.tolist()) == expected
            assert (row if moved is None else row[0], entered) == (rows[0], col)


def test_a_test_whose_eligible_rows_all_hold_the_leads_rhs_splits_nothing():
    # Row 1 varies but is not eligible; row 0 holds +0 and -0, and row 2's
    # ratio ties with it inside the band, where Bland's rule takes row 2.
    tableau = block([1.0, -1.0, 1.0], [[0.0, -0.0, 0.0], [5.0, 1.0, 7.0], [TOL / 2] * 3], [3, 2, 1])
    tableau.varies = [False, True, False]
    for bland, row in ((False, 0), (True, 2)):
        assert leaving_rows_frozen(tableau, 0, bland).tolist() == [row] * 3
        pivot = pivot_rule(tableau, bland=bland)
        assert pivot == (row, 0) and type(pivot[0]) is int


# ---------------------------------------------------------------------------
# the flags never miss a row that differs


def check_flags(patch: pytest.MonkeyPatch) -> list[int]:
    """Before every ``pivot_rule`` call of the block loop on a tableau
    with row flags, check that each unflagged row holds ``==`` rhs in
    every column of its block. Returns the running counts of (flagged
    calls, unflagged rows seen)."""
    counts = [0, 0]
    rule = lp_module.pivot_rule

    def checked(tableau, *, bland=False):
        varies = tableau.varies
        if varies is not None:
            rhs = tableau.body[:, tableau.cols:]
            same = (rhs == rhs[:, :1]).all(axis=1).tolist()
            assert all(same[i] for i, flag in enumerate(varies) if not flag)
            counts[0] += 1
            counts[1] += varies.count(False)
        return rule(tableau, bland=bland)

    patch.setattr(lp_module, "pivot_rule", checked)
    return counts


def run_sweep_goldens() -> None:
    golden = Path(__file__).parent / "data" / "sweep_golden.json"
    for entry in json.loads(golden.read_text()):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(entry["argv"])) == entry["exit"]


def test_unflagged_rows_are_equal_at_every_pivot_of_the_golden_sweeps(monkeypatch):
    counts = check_flags(monkeypatch)
    run_sweep_goldens()
    tests, unflagged = counts
    assert tests > 50 and unflagged > tests   # more than one unflagged row per test on average


def test_unflagged_rows_are_equal_at_every_pivot_of_the_capped_cycling_family(monkeypatch):
    counts = check_flags(monkeypatch)
    family = [capped_cycling_program(t, s) for t, s in CAPS]
    solve_rhs(family[0], np.array([[c.rhs for c in program.constraints] for program in family]))
    assert counts[0] > 0 and counts[1] > 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_families())
def test_unflagged_rows_are_equal_at_every_pivot_of_small_degenerate_families(family):
    with pytest.MonkeyPatch.context() as patch, contextlib.suppress(LPError):
        check_flags(patch)
        solve_rhs(family[0], np.array([[c.rhs for c in program.constraints] for program in family]))


# ---------------------------------------------------------------------------
# one ratio test per pivot


def test_each_pivot_of_the_golden_sweeps_runs_the_ratio_test_once(monkeypatch):
    # A block's leaving rows come from the same fold that picks the lead's
    # row, so no ratio test runs outside pivot_rule and each pivot runs one.
    rule, fold = lp_module.pivot_rule, lp_module._leaving_row
    running = [None]   # ratio tests of the pivot_rule call in progress, None outside one
    stray = [0]        # ratio tests outside any pivot_rule call
    pivots = []        # (rhs columns, ratio tests) of every call that returned a pivot

    def counted_fold(*args):
        if running[0] is None:
            stray[0] += 1
        else:
            running[0] += 1
        return fold(*args)

    def counted_rule(tableau, *, bland=False):
        running[0] = 0
        try:
            pivot = rule(tableau, bland=bland)
        finally:
            tests, running[0] = running[0], None
        if pivot is not None:
            pivots.append((len(tableau.ids), tests))
        return pivot

    monkeypatch.setattr(lp_module, "_leaving_row", counted_fold)
    monkeypatch.setattr(lp_module, "pivot_rule", counted_rule)
    run_sweep_goldens()
    assert stray == [0]
    assert {tests for _, tests in pivots} == {1}
    assert sum(width > 1 for width, _ in pivots) > 50
