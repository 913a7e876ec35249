"""A Solution's activities and binding set are ``check_rows``' at its point.

``lp._build_solution`` reads them out through the binding test that it
shares with ``check_rows``, without the violations and satisfied masks
it has no use for. These tests hold the two to the bit: for each
Solution, ``check_rows`` on the program's rows (with the rhs it was
solved at) and the Solution's point gives the same activities, to the
bit, and the same binding rows.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from gridmix.catalog import get_scenario
from gridmix.lp import LPError, Rows, Status, check_rows, solve
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario, compile_sweep
from gridmix.parametric import solve_rhs
from gridmix.scenario import CAP_FIELDS

from test_phase_one import magnitude_program
from test_solve_golden import golden_cases, scaled

SWEEP_GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def assert_reads_out_as_check_rows(program, rows: Rows, solution) -> None:
    if solution.status is not Status.OPTIMAL:
        assert (solution.activities, solution.binding) == ((), frozenset())
        return
    m = len(program.constraints)
    activity, _, _, binding = check_rows(rows, np.array([solution.values]))
    assert bits(solution.activities) == bits(activity[0, :m].tolist())
    labels = [c.label for c in program.constraints]
    assert solution.binding == {label for label, b in zip(labels, binding[0, :m].tolist()) if b}


def test_solve_reads_out_as_check_rows_on_the_golden_and_phase_one_programs():
    programs = []
    for name, variant, mode, k in golden_cases():
        scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
        programs.append(compile_scenario(scaled(scenario, k)))
    rng = np.random.default_rng(1)   # the 1,000 programs of tests/test_phase_one.py
    programs += [magnitude_program(rng) for _ in range(1_000)]
    optimal = 0
    for program in programs:
        try:
            solution = solve(program)
        except LPError:
            continue
        assert_reads_out_as_check_rows(program, program.rows, solution)
        optimal += solution.is_optimal
    assert optimal > 300


def test_solve_rhs_reads_out_as_check_rows_over_every_sweep_golden_grid():
    checked = 0
    for entry in json.loads(SWEEP_GOLDEN.read_text()):
        argv = entry["argv"]
        options = dict(zip(argv[2::2], argv[3::2]))
        scenario = get_scenario(argv[1], CoefficientVariant(options["--variant"].replace("-", "_")))
        values = np.linspace(float(options["--from"]), float(options["--to"]), int(options["--steps"]))
        program, rhs = compile_sweep(scenario, CAP_FIELDS[options["--param"]], values)
        view = program.rows
        bounds = view.rhs[len(program.constraints):]
        for row, solution in zip(rhs, solve_rhs(program, rhs)):
            rows = Rows(view.matrix, np.concatenate((row, bounds)), view.sense)
            assert_reads_out_as_check_rows(program, rows, solution)
            checked += solution.is_optimal
    assert checked > 4_000
