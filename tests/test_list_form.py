"""``solve`` has two table forms (see ``gridmix.lp``): the array form runs
once numpy is loaded, as in this process, and the list form while it is
not, as in a cold ``gridmix solve``. Both are run here side by side on
the same programs, and every Solution field must match to the bit, the
iteration count included; a program that one form refuses with LPError
the other must refuse with the same message. A cold start of the CLI,
which runs the list form, is checked against the CLI golden and on one
refusal, and the fallback to the array form where the wheel's BLAS is
not found is pinned.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridmix import cli
from gridmix import lp as lp_module
from gridmix.catalog import CATALOG_NAMES, get_scenario
from gridmix.lp import Constraint, LinearProgram, LPError, Relation, Sense
from gridmix.model import CoefficientVariant, ObjectiveMode, compile_scenario
from gridmix.scenario import scenario_to_dict

from test_lp_core import lp_min, nuclear_with
from test_phase_one import magnitude_program
from test_solve_golden import golden_cases, scaled
from test_solve_many import bits, cycling_program
from test_stall_replay import CAPS, capped_cycling_program

pytestmark = pytest.mark.skipif(
    lp_module._blas() is None, reason="numpy's wheel BLAS is not found: solve runs the array form only"
)

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
LISTED = functools.partial(lp_module._solve, listed=True)   # the list form, as a cold ``solve`` runs it


def outcome(form, lp: LinearProgram) -> tuple:
    """*form*'s Solution of *lp* as bits, or the LPError it raises with its
    whole message, whose parenthesis names numpy's failing step."""
    try:
        return bits(form(lp))
    except LPError as exc:
        return type(exc), str(exc)


def assert_forms_agree(programs) -> list[tuple]:
    outcomes = []
    for lp in programs:
        listed = outcome(LISTED, lp)
        assert listed == outcome(lp_module._solve_arrays, lp), lp
        outcomes.append(listed)
    return outcomes


def test_both_forms_answer_the_golden_lps_and_the_magnitude_family_alike():
    catalog = []
    for name, variant, mode, k in golden_cases():
        scenario = get_scenario(name, CoefficientVariant(variant)).with_objective(ObjectiveMode(mode))
        catalog.append(compile_scenario(scaled(scenario, k)))
    rng = np.random.default_rng(1)   # the 1,000 programs of tests/test_phase_one.py
    family = [magnitude_program(rng) for _ in range(1_000)]
    no_rows = [LinearProgram(sense, (1.0, 2.0), (), 2, lower_bounds=(-0.0, 3.0)) for sense in Sense]
    no_rows += [LinearProgram(sense, (-3.0,), (), 1, lower_bounds=(2.0,)) for sense in Sense]
    outcomes = assert_forms_agree([*catalog, *family, *no_rows])
    assert len({o[0] for o in outcomes}) >= 3   # optimal, infeasible and unbounded all occur
    assert outcomes[-4][1] == ["-0x0.0p+0", "0x1.8000000000000p+1"]   # the -0.0 lower bound, read out as is


def test_blands_rule_engages_in_both_forms(monkeypatch):
    flags: list[bool] = []
    rule = lp_module.pivot_rule

    def logged(tableau, *, bland=False):
        flags.append(bland)
        return rule(tableau, bland=bland)

    monkeypatch.setattr(lp_module, "pivot_rule", logged)
    for program in (cycling_program(0.0), *(capped_cycling_program(t, s) for t, s in CAPS)):
        engaged = []
        for form in (LISTED, lp_module._solve_arrays):
            flags.clear()
            form(program)
            engaged.append(sum(flags))
        assert engaged[0] == engaged[1] > 0
    assert_forms_agree([cycling_program(0.0), *(capped_cycling_program(t, s) for t, s in CAPS)])


@pytest.mark.parametrize(
    ("lp", "step"),
    [
        (nuclear_with(0, lcoe=1e308), "multiply"),                 # the objective overflows
        (nuclear_with(2, min_annual_output=1e308), "matmul"),      # the lower-bound shift overflows
        # Only the objective's dot overflows. Whether numpy flags an np.dot
        # overflow depends on the installed numpy; where it does not,
        # _build_solution's objective check refuses, naming the objective.
        # So only the text before the parenthesis is compared.
        (lp_min((1e308, 1e308), [], lower_bounds=(1.0, 1.0)), None),
        # A finite answer, (1e10, 0) at 1e10, whose second row's activity overflows.
        (lp_min((1.0, 1.0), [Constraint((1.0, 0.0), Relation.GE, 1e10, "a"),
                             Constraint((1e300, 0.0), Relation.GE, 1.0, "b")]), "matmul"),
    ],
    ids=["wind-lcoe", "nuclear-floor", "dot-only", "activity"],
)
def test_both_forms_refuse_the_same_out_of_range_programs_with_the_same_message(lp, step):
    refusals = [outcome(form, lp) for form in (LISTED, lp_module._solve_arrays)]
    expected = "the input's magnitudes are out of range"
    if step is None:
        refusals = [(kind, message.split(" (")[0]) for kind, message in refusals]
    else:
        expected += f" (overflow encountered in {step})"
    assert refusals == [(LPError, expected)] * 2


def run_cold(script: str) -> list[str]:
    """Run *script* in a fresh interpreter on this checkout's package; its
    stdout lines."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("GRIDMIX_CATALOG_DIR", None)
    result = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


COLD_CLI = """
import contextlib, io, json, sys
from gridmix import cli
solves = [e for e in json.load(open({golden!r})) if e["argv"][0] == "solve"]
for entry in sorted(solves, key=lambda e: "--oracle" in e["argv"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(entry["argv"])
    same = (code, out.getvalue()) == (entry["exit"], entry["stdout"])
    print(json.dumps([entry["argv"], same, "numpy" in sys.modules]))
"""


def test_a_cold_cli_prints_the_golden_of_every_solve_without_loading_numpy():
    # The 30 catalog solves of the CLI golden and its 6 scenario-file
    # solves, in one fresh process. The 27 without --oracle come first and
    # must leave numpy unloaded; the 3 --oracle runs load it, and their
    # solves run the array form.
    runs = [json.loads(line) for line in run_cold(COLD_CLI.format(golden=str(GOLDEN)))]
    assert (sum(argv[1] in CATALOG_NAMES for argv, _, _ in runs), len(runs)) == (30, 36)
    assert [argv for argv, same, _ in runs if not same] == []
    assert [("--oracle" in argv, loaded) for argv, _, loaded in runs] == [(False, False)] * 33 + [(True, True)] * 3


COLD_REFUSAL = """
import contextlib, io, json, sys
from gridmix import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
print(json.dumps([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules]))
"""


def test_a_cold_cli_refuses_out_of_range_magnitudes_as_the_array_form_does(tmp_path):
    # The list form's refusal reaches the CLI's error line as the same
    # bytes the array form's errstate refusal prints, and numpy stays unloaded.
    doc = scenario_to_dict(get_scenario("m4_nuclear"))
    next(s for s in doc["sources"] if s["name"] == "wind")["lcoe"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--base", "m4_nuclear"]
    line = "gridmix: error: the input's magnitudes are out of range (overflow encountered in multiply)\n"
    [cold] = run_cold(COLD_REFUSAL.format(argv=argv))
    assert json.loads(cold) == [1, "", line, False]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (1, "", line)


FALLBACK = """
import sys
from gridmix import lp
from gridmix.catalog import get_scenario
from gridmix.model import compile_scenario
{patch}
solution = lp.solve(compile_scenario(get_scenario("m4_nuclear")))
print("numpy" in sys.modules, lp._blas() is None)
print([solution.status.value, [v.hex() for v in solution.values], solution.objective_value.hex(),
       [a.hex() for a in solution.activities], sorted(solution.binding), solution.iterations])
"""


@pytest.mark.parametrize(
    "patch",
    [
        "lp._find_openblas = lambda: None",
        "lp._BLAS_SYMBOLS = (lp._BLAS_SYMBOLS[0], 'no_such_symbol')",   # the found library lacks one symbol
        "",
    ],
    ids=["no-library", "missing-symbol", "found"],
)
def test_solve_imports_numpy_and_runs_the_array_form_where_the_wheel_blas_is_missing(patch):
    s = bits(lp_module.solve(compile_scenario(get_scenario("m4_nuclear"))))
    expected = repr([s[0].value, s[1], s[2], s[3], s[4], s[5]])
    loaded, answer = run_cold(FALLBACK.format(patch=patch))
    assert loaded == ("False False" if not patch else "True True")
    assert answer == expected
