"""Solver-core tests: worked examples, regressions, and properties."""

import contextlib
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridmix.lp as lp_module
from gridmix import cli
from gridmix.catalog import get_scenario
from gridmix.lp import (
    Constraint,
    LinearProgram,
    Relation,
    Sense,
    Status,
    LPError,
    Tableau,
    ValidationError,
    pivot_rule,
    solve,
    standardize,
)
from gridmix.model import CoefficientVariant, compile_scenario
from gridmix.oracle import check_feasible, oracle_solve
from gridmix.parametric import solve_many, solve_rhs

TD = CoefficientVariant.TABLE_DERIVED


def lp_min(objective, constraints, lower_bounds=()):
    return LinearProgram(
        sense=Sense.MINIMIZE,
        objective=tuple(objective),
        constraints=tuple(constraints),
        var_count=len(objective),
        lower_bounds=tuple(lower_bounds),
    )


# ---------------------------------------------------------------------------
# solve examples


def test_lower_bound_optimum():
    lp = lp_min([1.0], [Constraint((1.0,), Relation.GE, 0.0, "nonneg")])
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.values == (0.0,)
    assert sol.objective_value == 0.0


def test_two_binding_constraints_vertex():
    # Hand enumeration: feasible vertices are (4, 6) and (0, 10);
    # 37.80*4 + 58.62*6 = 502.92 < 586.20.
    lp = lp_min(
        [37.80, 58.62],
        [
            Constraint((1.0, 1.0), Relation.GE, 10.0, "demand"),
            Constraint((1.0, 0.0), Relation.LE, 4.0, "cap"),
        ],
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.values == pytest.approx((4.0, 6.0), rel=1e-12)
    assert sol.objective_value == pytest.approx(502.92, rel=1e-12)
    assert sol.binding == {"demand", "cap"}


def test_m1_demand_vertex_exact():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.values == (25_621_059.0, 0.0)
    assert sol.objective_value == pytest.approx(968_476_030.0, abs=1.0)


def test_m3_agrees_with_oracle():
    from gridmix.oracle import oracle_solve

    lp = compile_scenario(get_scenario("m3_shared_space"))
    sol = solve(lp)
    oracle = oracle_solve(lp)
    assert sol.status is Status.OPTIMAL and oracle.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(oracle.objective, rel=1e-6)


def test_infeasible_detection():
    lp = lp_min(
        [1.0],
        [
            Constraint((1.0,), Relation.LE, 1.0, "low"),
            Constraint((1.0,), Relation.GE, 2.0, "high"),
        ],
    )
    assert solve(lp).status is Status.INFEASIBLE


def test_unbounded_detection():
    lp = lp_min(
        [-1.0, 0.0],
        [Constraint((0.0, 1.0), Relation.LE, 1.0, "cap")],
    )
    assert solve(lp).status is Status.UNBOUNDED


def test_unbounded_without_constraints():
    lp = lp_min([-1.0], [])
    assert solve(lp).status is Status.UNBOUNDED


def test_maximize_sense():
    lp = LinearProgram(
        sense=Sense.MAXIMIZE,
        objective=(1.0, 2.0),
        constraints=(Constraint((1.0, 1.0), Relation.LE, 4.0, "cap"),),
        var_count=2,
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.values == pytest.approx((0.0, 4.0))
    assert sol.objective_value == pytest.approx(8.0)


@pytest.mark.parametrize("sense", [Sense.MINIMIZE, "minimize"])
def test_a_sense_given_as_its_value_string_is_its_member(sense):
    # Every reader tests the sense with ``is``: a value string kept as a
    # str would maximize this program, to 20.
    rows = (Constraint((1.0, 1.0), Relation.GE, 3.0, "floor"), Constraint((1.0, 1.0), Relation.LE, 10.0, "cap"))
    lp = LinearProgram(sense, (1.0, 2.0), rows, 2)
    assert lp.sense is Sense.MINIMIZE
    assert solve(lp).objective_value == 3.0
    assert oracle_solve(lp).objective == 3.0


@pytest.mark.parametrize("sense", ["bogus", "MINIMIZE", None, 1, Relation.LE])
def test_a_sense_that_is_no_member_nor_its_value_string_is_refused(sense):
    with pytest.raises(ValidationError, match="^sense: "):
        LinearProgram(sense, (1.0,), (), 1)


def test_equality_constraint():
    lp = lp_min(
        [1.0, 1.0],
        [
            Constraint((1.0, 1.0), Relation.EQ, 3.0, "fix"),
            Constraint((1.0, -1.0), Relation.GE, 1.0, "gap"),
        ],
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.activities[0] == pytest.approx(3.0)


def test_beale_cycling_regression():
    # Classic degenerate instance that cycles under naive most-negative
    # pivoting; must terminate via the Bland fallback.
    lp = lp_min(
        [-0.75, 150.0, -0.02, 6.0],
        [
            Constraint((0.25, -60.0, -0.04, 9.0), Relation.LE, 0.0, "r1"),
            Constraint((0.5, -90.0, -0.02, 3.0), Relation.LE, 0.0, "r2"),
            Constraint((0.0, 0.0, 1.0, 0.0), Relation.LE, 1.0, "r3"),
        ],
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.iterations <= 100
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def test_redundant_equality_rows_are_dropped():
    # A duplicated equality leaves a zero-valued artificial in the basis;
    # phase 2 must start from the cleaned, full-rank row set.
    lp = lp_min(
        [3.0, 1.0],
        [
            Constraint((1.0, 1.0), Relation.EQ, 2.0, "a"),
            Constraint((2.0, 2.0), Relation.EQ, 4.0, "b"),
        ],
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0)
    assert sol.values == pytest.approx((0.0, 2.0))


def test_inconsistent_equality_rows_are_infeasible():
    lp = lp_min(
        [1.0, 1.0],
        [
            Constraint((1.0, 1.0), Relation.EQ, 2.0, "a"),
            Constraint((1.0, 1.0), Relation.EQ, 3.0, "b"),
        ],
    )
    assert solve(lp).status is Status.INFEASIBLE


def test_validation_errors():
    with pytest.raises(ValidationError):
        lp_min([1.0, 2.0], [Constraint((1.0,), Relation.GE, 1.0, "short")])
    with pytest.raises(ValidationError):
        Constraint((math.nan, 1.0), Relation.LE, 1.0, "nan")
    with pytest.raises(ValidationError):
        Constraint((0.0, 0.0), Relation.LE, 1.0, "zero-row")
    with pytest.raises(ValidationError):
        Constraint((1.0,), Relation.LE, math.inf, "inf-rhs")
    with pytest.raises(ValidationError):
        lp_min([1.0], [], lower_bounds=[-1.0])


def test_objective_matches_dot_product():
    lp = compile_scenario(get_scenario("m2_period_demand"))
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(
        float(np.dot(lp.objective, sol.values)), rel=1e-9
    )


# ---------------------------------------------------------------------------
# standardize


def slack_and_surplus_counts(form) -> tuple[int, int]:
    """The slack columns are the phase-1 basis's non-artificial columns;
    every column past the structural and basic ones is a surplus."""
    slack = sum(col not in form.artificial_cols for col in form.basis)
    return slack, form.column_count - form.var_count - len(form.basis)


def test_standardize_single_le_row():
    lp = lp_min([1.0, 1.0], [Constraint((1.0, 2.0), Relation.LE, 5.0, "cap")])
    form = standardize(lp)
    assert form.column_count == 3
    assert slack_and_surplus_counts(form) == (1, 0)
    assert len(form.artificial_cols) == 0


def test_standardize_m2_slack_surplus_counts():
    form = standardize(compile_scenario(get_scenario("m2_period_demand")))
    assert slack_and_surplus_counts(form) == (4, 3)


def test_standardize_shifts_nuclear_floor():
    scenario = get_scenario("m4_nuclear")
    lp = compile_scenario(scenario)
    form = standardize(lp)
    assert form.shifts == (0.0, 0.0, 2_628_000.0)
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.values[2] >= 2_628_000.0


def test_standardize_flips_negative_rhs():
    lp = lp_min([1.0], [Constraint((-1.0,), Relation.LE, -2.0, "neg")])
    form = standardize(lp)
    # -x <= -2 becomes x >= 2: surplus plus artificial, no slack.
    assert slack_and_surplus_counts(form) == (0, 1)
    assert len(form.artificial_cols) == 1
    sol = solve(lp)
    assert sol.values == pytest.approx((2.0,))


# ---------------------------------------------------------------------------
# pivot_rule


def test_pivot_rule_optimal_returns_none():
    tableau = Tableau(
        np.array([[1.0, 0.5, 4.0], [0.3, 0.2, 0.0]]),
        basis=[0],
    )
    assert pivot_rule(tableau) is None


def test_pivot_rule_forced_pivot():
    tableau = Tableau(
        np.array([[1.0, 0.5, 4.0], [0.0, 1.0, 2.0], [-1.0, 0.0, 0.0]]),
        basis=[1, 2],
    )
    assert pivot_rule(tableau) == (0, 0)


def test_pivot_rule_bland_picks_lowest_index():
    tableau = Tableau(
        np.array([[1.0, 2.0, 4.0], [-1.0, -5.0, 0.0]]),
        basis=[2],
    )
    assert pivot_rule(tableau, bland=True) == (0, 0)
    assert pivot_rule(tableau, bland=False) == (0, 1)


# ---------------------------------------------------------------------------
# check_feasible


def test_check_feasible_m1_printed_point():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    rep = check_feasible(lp, (25_621_059.0, 0.0))
    assert rep.feasible
    assert rep.binding == {"demand"}


def test_check_feasible_zero_point_violates_demand():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    rep = check_feasible(lp, (0.0, 0.0))
    assert not rep.feasible
    assert rep.violated == {"demand"}
    assert rep.worst_label == "demand"


def test_check_feasible_m3_daytime_slack():
    # The published shared-space point overshoots the daytime row by
    # ~14,900 MWh under the as-printed daytime coefficients.
    lp = compile_scenario(get_scenario("m3_shared_space"))
    point = (24_862_479.0, 3_900_512.0)
    rep = check_feasible(lp, point)
    assert rep.feasible
    daytime = next(c for c in rep.checks if c.label == "demand_daytime")
    expected = 0.3775 * point[0] + 0.9797 * point[1] - 13_192_000.0
    assert daytime.activity - daytime.rhs == pytest.approx(expected, rel=1e-12)
    assert abs(expected - 14_900.0) < 100.0


def test_check_feasible_names_no_worst_row_at_catalog_vertices():
    # Exact vertices miss their binding rows only by rounding; a gap within
    # the row tolerance is no violation, so no worst row is named.
    from gridmix.catalog import builtin_scenarios
    from gridmix.oracle import enumerate_vertices

    checked = 0
    for scenario in builtin_scenarios():
        lp = compile_scenario(scenario)
        if lp.var_count > 4:
            continue
        for vertex in enumerate_vertices(lp):
            rep = check_feasible(lp, vertex.point)
            assert rep.feasible, (scenario.name, vertex.point)
            assert (rep.worst_violation, rep.worst_label) == (0.0, None), (scenario.name, vertex.point)
            assert all(c.violation == 0.0 for c in rep.checks)
            checked += 1
    assert checked >= 80


def test_check_feasible_length_mismatch():
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    with pytest.raises(ValidationError):
        check_feasible(lp, (1.0,))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_check_feasible_refuses_a_value_that_is_not_finite(value):
    # Let through, inf meets a 0.0 coefficient in check_rows' product, an
    # invalid operation, and nan reads as an ordinary violation.
    lp = compile_scenario(get_scenario("m1_flat_demand"))
    names = lp.variable_names
    with pytest.raises(ValidationError, match=f"^the value of {names[0]!r} is not finite: {value!r}$"):
        check_feasible(lp, (value, 0.0))
    with pytest.raises(ValidationError, match=f"^the value of {names[1]!r} is not finite"):
        check_feasible(lp, (1.0, value))


# ---------------------------------------------------------------------------
# properties


def test_optimal_solutions_pass_check_feasible():
    from gridmix.catalog import builtin_scenarios

    for scenario in builtin_scenarios():
        lp = compile_scenario(scenario)
        sol = solve(lp)
        if sol.status is Status.OPTIMAL:
            assert check_feasible(lp, sol.values).feasible, scenario.name


def test_demand_monotonicity_on_m1():
    base = get_scenario("m1_flat_demand")
    lp = compile_scenario(base)
    previous = -math.inf
    for factor in np.linspace(0.9, 1.1, 9):
        scaled = dataclasses.replace(
            lp,
            constraints=tuple(
                dataclasses.replace(c, rhs=c.rhs * factor) if c.label == "demand" else c
                for c in lp.constraints
            ),
        )
        sol = solve(scaled)
        assert sol.status is Status.OPTIMAL
        assert sol.objective_value >= previous - 1e-6 * max(1.0, abs(previous))
        previous = sol.objective_value


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False))
def test_objective_scaling_leaves_argmin_unchanged(scale):
    lp = compile_scenario(get_scenario("m2_period_demand"))
    scaled = dataclasses.replace(lp, objective=tuple(scale * c for c in lp.objective))
    base_sol = solve(lp)
    scaled_sol = solve(scaled)
    assert scaled_sol.status is Status.OPTIMAL
    assert scaled_sol.values == pytest.approx(base_sol.values, rel=1e-9, abs=1e-6)


def test_fuzz_against_oracle_small():
    # A fast slice of the acceptance fuzz: random LPs vs the vertex oracle.
    from gridmix.oracle import oracle_solve

    rng = np.random.default_rng(7)
    relations = [Relation.LE, Relation.LE, Relation.GE, Relation.GE, Relation.EQ]
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        constraints = []
        for i in range(m):
            coeffs = np.round(rng.uniform(-10, 10, n), 3)
            if not np.any(coeffs):
                coeffs[0] = 1.0
            constraints.append(
                Constraint(
                    tuple(float(c) for c in coeffs),
                    relations[int(rng.integers(0, len(relations)))],
                    float(np.round(rng.uniform(-100, 100), 3)),
                    f"c{i}",
                )
            )
        lp = LinearProgram(
            sense=Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE,
            objective=tuple(float(c) for c in np.round(rng.uniform(-10, 10, n), 3)),
            constraints=tuple(constraints),
            var_count=n,
        )
        sol = solve(lp)
        oracle = oracle_solve(lp)
        assert sol.status is oracle.status
        if sol.status is Status.OPTIMAL:
            scale = max(1.0, abs(sol.objective_value), abs(oracle.objective))
            assert abs(sol.objective_value - oracle.objective) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# one column of solve against a block of solve_rhs


def hexed(solution):
    return (
        solution.status,
        [v.hex() for v in solution.values],
        solution.objective_value.hex(),
        [a.hex() for a in solution.activities],
        solution.binding,
        solution.iterations,
    )


def redundant_program():
    # Row b is twice row a: its artificial stays basic at zero with no
    # structural entry to pivot on, so the row is dropped before phase 2.
    return lp_min(
        [1.0, 3.0],
        [
            Constraint((1.0, 1.0), Relation.EQ, 2.0, "a"),
            Constraint((2.0, 2.0), Relation.EQ, 4.0, "b"),
            Constraint((1.0, -1.0), Relation.LE, 1.0, "c"),
        ],
    )


def infeasible_program():
    return lp_min(
        [1.0, 1.0],
        [Constraint((1.0, 1.0), Relation.LE, 1.0, "low"), Constraint((1.0, 1.0), Relation.GE, 3.0, "high")],
    )


def unbounded_program():
    # Phase 1 finds a feasible basis; x1 then grows along x1 - x2 <= 1.
    return LinearProgram(
        sense=Sense.MAXIMIZE,
        objective=(1.0, 0.0),
        constraints=(
            Constraint((1.0, 1.0), Relation.GE, 1.0, "floor"),
            Constraint((1.0, -1.0), Relation.LE, 1.0, "gap"),
        ),
        var_count=2,
    )


@pytest.mark.parametrize(
    "program, status, others",
    [
        (redundant_program, Status.OPTIMAL, [[3.0, 6.0, 1.0], [2.0, 5.0, 1.0]]),
        (infeasible_program, Status.INFEASIBLE, [[4.0, 3.0], [1.0, 2.0]]),
        (unbounded_program, Status.UNBOUNDED, [[2.0, 1.0], [1.0, 3.0]]),
    ],
    ids=["redundant-row", "phase-1-infeasible", "phase-2-unbounded"],
)
def test_lone_loop_branches_equal_the_block_loop(monkeypatch, program, status, others):
    dropped = []
    drive_out = lp_module._drive_out_artificials

    def spy(tableau, first):
        dropped.append(drive_out(tableau, first))
        return dropped[-1]

    monkeypatch.setattr(lp_module, "_drive_out_artificials", spy)
    lp = program()
    solution = solve(lp)
    assert solution.status is status
    if program is redundant_program:
        assert dropped == [[1]]
        assert solution.values == (1.5, 0.5)
    rhs = [c.rhs for c in lp.constraints]
    for given in (np.array([rhs]), np.array([rhs, *others])):
        assert hexed(solve_rhs(lp, given)[0]) == hexed(solution)


@pytest.mark.parametrize("sense, status", [(Sense.MINIMIZE, Status.OPTIMAL), (Sense.MAXIMIZE, Status.UNBOUNDED)])
def test_a_program_without_rows_has_solves_bits_in_every_caller(sense, status):
    # Only lower bounds constrain it, so the minimum sits at the bounds,
    # read out unchanged: the -0.0 bound stays -0.0, where 0.0 + -0.0
    # would give +0.0.
    lp = LinearProgram(sense, (1.0, 2.0), (), 2, lower_bounds=(-0.0, 3.0))
    solution = solve(lp)
    assert solution.status is status
    if status is Status.OPTIMAL:
        assert [v.hex() for v in solution.values] == ["-0x0.0p+0", "0x1.8000000000000p+1"]
    for other in (*solve_rhs(lp, np.zeros((3, 0))), *solve_many([lp, lp])):
        assert hexed(other) == hexed(solution)


def test_a_one_column_tableau_carries_no_flags_and_pivot_rule_returns_an_int_row(monkeypatch):
    # A block of one column can never split, so it carries no row flags
    # and its ratio test runs on the lead's floats alone: in solve, in
    # solve_rhs of one rhs row, and in the long grids that the sweep golden
    # pins, which pivot only on blocks of two or more.
    seen = []   # (rhs columns, flagged, the row's type) of every pivot
    rule = lp_module.pivot_rule

    def spy(tableau, *, bland=False):
        pivot = rule(tableau, bland=bland)
        if pivot is not None:
            seen.append((len(tableau.ids), tableau.varies is not None, type(pivot[0])))
        return pivot

    monkeypatch.setattr(lp_module, "pivot_rule", spy)
    golden = Path(__file__).parent / "data" / "sweep_golden.json"
    for entry in json.loads(golden.read_text()):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(entry["argv"])) == entry["exit"]
    program = compile_scenario(get_scenario("m4_nuclear"))
    solve(program)
    solve_rhs(program, np.array([[c.rhs for c in program.constraints]]))
    lone = {(flagged, kind) for width, flagged, kind in seen if width == 1}
    assert lone == {(False, int)}
    assert {flagged for width, flagged, _ in seen if width > 1} == {True}
    assert {kind for width, _, kind in seen if width > 1} == {int, np.ndarray}


# ---------------------------------------------------------------------------
# arithmetic past the float range


def nuclear_with(index, **changes):
    scenario = get_scenario("m4_nuclear")
    sources = list(scenario.sources)
    sources[index] = dataclasses.replace(sources[index], **changes)
    return compile_scenario(dataclasses.replace(scenario, sources=tuple(sources)))


@pytest.mark.parametrize(
    "lp",
    [
        nuclear_with(0, lcoe=1e308),                 # wind: the objective overflows
        nuclear_with(2, min_annual_output=1e308),    # nuclear: the lower-bound shift overflows
        lp_min((1e308, 1e308), [], lower_bounds=(1.0, 1.0)),   # only np.dot overflows
    ],
    ids=["wind-lcoe", "nuclear-floor", "dot-only"],
)
def test_out_of_range_magnitudes_raise_instead_of_returning_inf_or_nan(lp):
    rhs = np.array([[c.rhs for c in lp.constraints]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LPError, match="^the input's magnitudes are out of range"):
            solve(lp)
        with pytest.raises(LPError, match="^the input's magnitudes are out of range"):
            solve_rhs(lp, rhs)
