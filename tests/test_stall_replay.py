"""The block loop keeps its stall counts lazily, in one stall track per
block: until the block has taken ``stall_limit`` pivots the track holds
only the cost row's rhs entries, split along with the block, replayed
through ``solve``'s stall rule on the pivot that reaches the limit. These
tests pin that a block split off long before the limit
still reaches Bland's rule on the pivot ``solve`` does, and that small
degenerate families keep the bits of ``solve``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridmix.lp import Constraint, LinearProgram, LPError, Relation, Sense, solve, solve_rhs

from test_solve_many import CYCLING_OBJECTIVE, CYCLING_ROWS, bits, pivot_log  # noqa: F401 (a fixture)


# ---------------------------------------------------------------------------
# a split long before the stall limit


def capped_cycling_program(t: float, s: float) -> LinearProgram:
    """The pinned cycling LP with two caps on y, y <= t and y <= s."""
    rows = [Constraint((*a, 0.0), relation, 0.0, f"r{i}") for i, (a, relation) in enumerate(CYCLING_ROWS)]
    y = (0.0,) * 6 + (1.0,)
    rows += [Constraint(y, Relation.LE, t, "y <= t"), Constraint(y, Relation.LE, s, "y <= s")]
    return LinearProgram(Sense.MINIMIZE, CYCLING_OBJECTIVE, tuple(rows), 7)


CAPS = [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)]


def test_a_column_split_off_early_replays_its_stall_count_into_blands_rule(pivot_log):
    family = [capped_cycling_program(t, s) for t, s in CAPS]
    rhs = np.array([[c.rhs for c in program.constraints] for program in family])
    solutions = solve_rhs(family[0], rhs)
    log = list(pivot_log)
    for program, solution in zip(family, solutions):
        assert solution.iterations == 60
        assert bits(solution) == bits(solve(program))
    # (2, 1) binds y on its other cap, so it leaves the block after three
    # pivots, long before the limit; both blocks then reach Bland's rule.
    assert log[:3] == [((0, 1, 2), False)] * 3
    assert log[3][0] in {(0, 2), (1,)}
    assert ((0, 2), True) in log
    assert ((1,), True) in log


# ---------------------------------------------------------------------------
# small degenerate families


@st.composite
def degenerate_families(draw):
    """Integer LPs of 2-6 variables and 2-7 rows over 2-8 rhs rows drawn
    from {0, 1, 2}: many ties in the ratio test, many degenerate pivots."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 7))
    coefficient = st.integers(-4, 4).map(float)
    row = st.tuples(st.tuples(*[coefficient] * n), st.sampled_from(list(Relation)))
    rows = draw(st.lists(row, min_size=m, max_size=m))
    rows = [(a if any(a) else (1.0, *a[1:]), relation) for a, relation in rows]
    objective = draw(st.tuples(*[coefficient] * n))
    sense = draw(st.sampled_from(list(Sense)))
    rhs = draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=m, max_size=m), min_size=2, max_size=8))
    family = []
    for given in rhs:
        constraints = tuple(Constraint(a, r, b, f"r{i}") for i, ((a, r), b) in enumerate(zip(rows, given)))
        family.append(LinearProgram(sense, objective, constraints, n))
    return family


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_families())
def test_solve_rhs_equals_solve_on_small_degenerate_families(family):
    rhs = np.array([[c.rhs for c in program.constraints] for program in family])
    try:
        expected = [bits(solve(program)) for program in family]
    except LPError as raised:
        with pytest.raises(type(raised)):
            solve_rhs(family[0], rhs)
        return
    assert [bits(solution) for solution in solve_rhs(family[0], rhs)] == expected
