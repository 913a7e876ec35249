"""Phase 1 judges every row on its own scale: a basic artificial is its
row's residual, and it must be within FEAS_TOL * max(1, |rhs|) of that
row, in the row's own units. Judged against the largest rhs of all rows,
one huge row hid another row's infeasibility, and the infeasible program
came back "optimal" at a point below its bounds.
"""

import numpy as np

from gridmix.lp import Constraint, LinearProgram, LPError, Relation, Sense, Status, solve
from gridmix.oracle import check_feasible, oracle_solve

RELATIONS = (Relation.LE, Relation.GE, Relation.EQ)


def test_a_huge_row_does_not_hide_an_infeasible_one():
    # -132814 x2 = 6.5e9 needs x2 = -48,940.6 < 0; the second row's rhs,
    # 9.8e14 once divided by 0.0056, used to set phase 1's tolerance.
    lp = LinearProgram(
        sense=Sense.MINIMIZE,
        objective=(1.0, 1.0),
        constraints=(
            Constraint((0.0, -132814.0), Relation.EQ, 6.5e9, "tiny"),
            Constraint((0.00096, 0.0056), Relation.LE, 5.5e12, "huge"),
        ),
        var_count=2,
    )
    assert solve(lp).status is Status.INFEASIBLE
    assert oracle_solve(lp).status is Status.INFEASIBLE


def magnitude_program(rng: np.random.Generator) -> LinearProgram:
    """A random LP whose every coefficient and rhs has its own magnitude,
    drawn from 1e-2 to 1e13, with random signs, some zero coefficients,
    mixed relations and either sense."""
    n = int(rng.integers(1, 5))
    constraints = []
    for i in range(int(rng.integers(1, 7))):
        a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, 13.0, n) * (rng.random(n) < 0.75)
        if not a.any():
            a[int(rng.integers(0, n))] = 10.0 ** rng.uniform(-2.0, 13.0)
        rhs = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 13.0))
        constraints.append(Constraint(tuple(map(float, a)), RELATIONS[int(rng.integers(0, 3))], rhs, f"c{i}"))
    objective = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, 3.0, n)
    return LinearProgram(
        sense=Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE,
        objective=tuple(map(float, objective)),
        constraints=tuple(constraints),
        var_count=n,
    )


def test_optimal_answers_on_independent_magnitudes_pass_their_own_row_check():
    # With one tolerance for all rows, 62 of these 1,000 programs came back
    # optimal at a point that fails check_feasible. Judging each row on its
    # own scale leaves 11. Those come from elsewhere: the ratio test skips
    # pivot entries below PIVOT_TOL, which cannot see coefficients 1e-15 of
    # their row's largest, and cancellation between terms far larger than
    # the row's rhs; both are open. The count may fall; it must not rise.
    rng = np.random.default_rng(1)
    failing = []
    for k in range(1_000):
        lp = magnitude_program(rng)
        try:
            solution = solve(lp)
        except LPError:
            continue
        if solution.is_optimal and not check_feasible(lp, solution.values).feasible:
            failing.append(k)
    assert len(failing) <= 11, failing
