"""The block loop's split test reads only the rows where a block's rhs
columns can differ. Each block keeps one flag per body row: off means
every column holds the lead's rhs there (``==``, so ±0 alike). These tests
pin that the flags never miss a row that differs, and that the split test
marks exactly the columns that the full elementwise replay of
``pivot_rule``'s ratio test, frozen below, sends to another row. Both run
one fold, ``lp._leaving_row``, so ``pivot_rule``'s leaving row is checked
against the replay's lead column too.
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
# the split test against the frozen replay


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
def test_the_split_test_marks_the_columns_the_frozen_replay_moves(case):
    tableau, col, bland, varies = case
    rows = leaving_rows_frozen(tableau, col, bland)
    moved = lp_module._split_test(tableau, col, bland, varies)
    expected = [False] * len(tableau.ids) if rows is None else (rows != rows[0]).tolist()
    assert ([False] * len(tableau.ids) if moved is None else moved.tolist()) == expected
    if rows is None:
        with pytest.raises(lp_module._Unbounded):
            pivot_rule(tableau, bland=bland)
    else:
        assert pivot_rule(tableau, bland=bland) == (rows[0], col)


def test_a_test_whose_eligible_rows_all_hold_the_leads_rhs_splits_nothing():
    # Row 1 varies but is not eligible; row 0 holds +0 and -0, and row 2's
    # ratio ties with it inside the band, where Bland's rule takes row 2.
    tableau = block([1.0, -1.0, 1.0], [[0.0, -0.0, 0.0], [5.0, 1.0, 7.0], [TOL / 2] * 3], [3, 2, 1])
    for bland, row in ((False, 0), (True, 2)):
        assert leaving_rows_frozen(tableau, 0, bland).tolist() == [row] * 3
        assert lp_module._split_test(tableau, 0, bland, [False, True, False]) is None


# ---------------------------------------------------------------------------
# the flags never miss a row that differs


def check_flags(patch: pytest.MonkeyPatch) -> list[int]:
    """Before every split test of the block loop, check that each unflagged
    row holds ``==`` rhs in every column of its block. Returns the running
    counts of (split tests, unflagged rows seen)."""
    counts = [0, 0]
    split_test = lp_module._split_test

    def checked(tableau, col, bland, varies):
        rhs = tableau.body[:, tableau.cols:]
        same = (rhs == rhs[:, :1]).all(axis=1).tolist()
        assert all(same[i] for i, flag in enumerate(varies) if not flag)
        counts[0] += 1
        counts[1] += varies.count(False)
        return split_test(tableau, col, bland, varies)

    patch.setattr(lp_module, "_split_test", checked)
    return counts


def test_unflagged_rows_are_equal_at_every_pivot_of_the_golden_sweeps(monkeypatch):
    counts = check_flags(monkeypatch)
    golden = Path(__file__).parent / "data" / "sweep_golden.json"
    for entry in json.loads(golden.read_text()):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(entry["argv"])) == entry["exit"]
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
