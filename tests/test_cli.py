"""CLI tests: exit codes, output formats, determinism, env catalog dir."""

import copy
import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridmix import cli
from gridmix.lp import Status
from gridmix.scenario import ScenarioFormatError, load_scenario_file, scenario_to_dict
from gridmix.catalog import get_scenario


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_m1_text(capsys):
    code, out, _ = run(capsys, "solve", "m1_flat_demand")
    assert code == 0
    assert "25,621,059" in out
    assert "$968,476,030" in out
    assert "binding: demand" in out


def test_solve_exit_code_infeasible(capsys):
    code, out, _ = run(capsys, "solve", "m4_tight_space", "--variant", "table-derived")
    assert code == 2
    assert "infeasible" in out


def test_exit_code_table_is_complete():
    assert cli._EXIT_BY_STATUS == {
        Status.OPTIMAL.value: 0,
        Status.INFEASIBLE.value: 2,
        Status.UNBOUNDED.value: 3,
    }


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "missing.json")
    assert code == 1
    assert "missing.json" in err


def test_solve_a_file_that_is_not_utf8_exits_one_naming_it(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"gridmix: error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_solve_unknown_scenario(capsys):
    code, _, err = run(capsys, "solve", "m9_fusion")
    assert code == 1
    assert "m9_fusion" in err


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "m1_flat_demand", "--variant", "bogus"])
    capsys.readouterr()
    assert exc.value.code == 1  # argument errors must not collide with exit 2 (infeasible)


def test_solve_emissions_objective_is_wind_only(capsys):
    code, out, _ = run(
        capsys, "solve", "m1_flat_demand", "--objective", "emissions", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["solar"] == 0.0
    assert doc["values"]["wind"] == 25_621_059.0
    assert doc["objective_value"] == 127_336_663_230.0  # full precision


def test_solve_json_full_precision(capsys):
    _, out, _ = run(capsys, "solve", "m3_shared_space", "--format", "json")
    doc = json.loads(out)
    assert doc["objective_value"] == pytest.approx(1_158_805_385.37, abs=1.0)
    assert abs(doc["objective_value"] - round(doc["objective_value"])) > 0  # not rounded


def test_solve_with_oracle(capsys):
    code, out, _ = run(capsys, "solve", "m3_shared_space", "--oracle")
    assert code == 0
    assert "oracle: agrees" in out


@pytest.mark.parametrize("variant", ["as-printed", "table-derived"])
def test_solve_oracle_checks_the_six_variable_model(capsys, variant):
    # m0 has 6 variables but 7 rows, so only 7 row subsets to enumerate.
    code, out, err = run(capsys, "solve", "m0_cost_only", "--variant", variant, "--oracle")
    assert (code, err) == (0, "")
    assert "oracle: agrees (objective 960,789,712)" in out


def test_solve_csv_quoting(capsys):
    _, out, _ = run(capsys, "solve", "m2_period_demand", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "source"
    assert rows[1][0] == "wind"
    assert float(rows[2][4]) == pytest.approx(344_900.0)  # solar annual MWh


def test_solve_deterministic_output(capsys):
    for fmt in ("text", "json", "csv"):
        _, first, _ = run(capsys, "solve", "m5_geothermal", "--format", fmt)
        _, second, _ = run(capsys, "solve", "m5_geothermal", "--format", fmt)
        assert first == second, fmt


def test_solve_scenario_file_with_base(tmp_path, capsys):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({"name": "tight", "caps": {"emissions_g": 1e11}}))
    code, out, _ = run(capsys, "solve", str(path), "--base", "m1_flat_demand")
    assert code == 2
    assert "infeasible" in out


def test_solve_scenario_file_with_uncapped_base(tmp_path, capsys):
    # m3_shared_space has no rooftop cap, so its serialized base carries a
    # null cap, which means "no cap".
    path = tmp_path / "m3_file.json"
    path.write_text(json.dumps({"name": "m3_file"}))
    code, out, err = run(capsys, "solve", str(path), "--base", "m3_shared_space")
    assert (code, err) == (0, "")
    assert "scenario: m3_file (as_printed)" in out
    assert "status: optimal" in out


def test_solver_input_error_exits_one(tmp_path, capsys):
    # A valid file whose only source emits nothing compiles an all-zero
    # emissions row, which the LP layer rejects.
    doc = {
        "name": "hydro_only",
        "objective_mode": "lcoe",
        "coefficient_variant": "as_printed",
        "annual_need_mwh": 1000.0,
        "demand_mode": "flat_annual",
        "periods": [],
        "sources": [
            {
                "name": "hydroelectric",
                "lcoe": 63.9,
                "capital_cost": 0.0,
                "om_cost": 0.0,
                "emissions_g_per_mwh": 0.0,
                "land_ft2_per_mwh": 0.0,
                "rooftop_allowance_mwh": 0.0,
                "period_fractions": [0.3, 0.5, 0.2],
                "min_annual_output_mwh": 0.0,
            }
        ],
        "caps": {"emissions_g": 1e12, "budget_usd": 1e9, "land_ft2": 1e10, "rooftop_mwh": 1e5},
        "space_mode": "separate_bounds",
    }
    path = tmp_path / "hydro.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert err == "gridmix: error: constraint 'emissions': all coefficients are zero\n"


def nuclear_doc() -> dict:
    return scenario_to_dict(get_scenario("m4_nuclear"))


def with_period_hours(hours) -> dict:
    doc = nuclear_doc()
    doc["periods"][0]["hours"] = hours
    return doc


def with_land_cap(value) -> dict:
    doc = nuclear_doc()
    doc["caps"]["land_ft2"] = value
    return doc


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"space_mode": []}, "space_mode"),
        ({"objective_mode": {}}, "objective_mode"),
        ({"demand_mode": ["per_period"]}, "demand_mode"),
        ({"coefficient_variant": 1}, "coefficient_variant"),
        (with_period_hours(float("nan")), "periods[0].hours"),
        (with_period_hours(float("inf")), "periods[0].hours"),
        (with_period_hours(6.5), "periods[0].hours"),
        ({"annual_need_mwh": 10**400}, "annual_need_mwh"),
        ({"annual_need_mwh": float("nan")}, "annual_need_mwh"),
        ({"annual_need_mwh": float("inf")}, "annual_need_mwh"),
        (with_land_cap(float("nan")), "caps.land_ft2"),
    ],
)
def test_malformed_file_fields_exit_one_without_a_traceback(tmp_path, capsys, doc, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match=where.replace("[", r"\[")):
        load_scenario_file(path, base=get_scenario("m4_nuclear"))
    code, out, err = run(capsys, "solve", str(path), "--base", "m4_nuclear")
    assert (code, out) == (1, "")
    assert err.startswith("gridmix: error: ") and where in err


def test_a_file_that_repeats_a_source_exits_one_naming_it(tmp_path, capsys):
    doc = scenario_to_dict(get_scenario("m1_flat_demand"))
    doc["sources"].append(next(s for s in doc["sources"] if s["name"] == "wind"))
    path = tmp_path / "two_winds.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path), "--format", "json")
    assert (code, out) == (1, "")
    assert err == f"gridmix: error: {path}: scenario 'm1_flat_demand': source 'wind' appears more than once\n"


def test_out_of_range_magnitudes_exit_one_instead_of_printing_inf(tmp_path, capsys):
    doc = nuclear_doc()
    doc["sources"][0]["lcoe"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path), "--base", "m4_nuclear")
    assert (code, out) == (1, "")
    assert err.startswith("gridmix: error: the input's magnitudes are out of range")


def json_paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from json_paths(value, (*prefix, key))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=12)
    | st.sampled_from(["lcoe", "per_period", "shared_land", "table_derived", "daytime"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_scenario_files_exit_with_a_documented_code(tmp_path, data):
    doc = nuclear_doc()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from([p for p in json_paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(JSON_VALUES))
    if doc and data.draw(st.booleans()):   # --base fills in the keys a file leaves out
        doc = {key: doc[key] for key in data.draw(st.lists(st.sampled_from(sorted(doc)), unique=True))}
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["solve", str(file), "--base", "m4_nuclear"])
    assert code in {0, 1, 2, 3}
    assert err.getvalue() == "" or err.getvalue().startswith("gridmix:")


# Argv pieces for the property below. --steps takes small, malformed or
# past-the-maximum values: a grid within the maximum is really allocated,
# and no piece is an abbreviation of --steps that could carry a large one
# past this guard.
NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0", "1e308", "-1e308", "1e999", "2.5e13", "abc", ""]),
    st.floats().map(repr),
    st.floats(0.0, 1e15).map(repr),
    st.integers(-(10**30), 10**30).map(str),
)
STEPS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "inf", "1e3", "-0", "abc", "", "1000001", str(10**12), str(10**30)]),
)
NAMES = st.sampled_from(["m1_flat_demand", "m4_nuclear", "m0_cost_only", "a1_om_objective", "nope", "missing.json"])
PARAMS = st.sampled_from(["land_ft2", "budget_usd", "emissions_g", "rooftop_mwh", "speed"])
ARGV_PIECES = st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv", "xml"])),
    st.tuples(st.just("--variant"), st.sampled_from(["as-printed", "table-derived", "bogus"])),
    st.tuples(st.just("--objective"), st.sampled_from(["lcoe", "om", "emissions", "cost"])),
    st.tuples(st.just("--base"), NAMES),
    st.tuples(st.just("--param"), PARAMS),
    st.tuples(st.sampled_from(["--from", "--to", "--table"]), NUMBERS),
    st.tuples(st.just("--steps"), STEPS),
    st.tuples(st.sampled_from(["--oracle", "--strict", "--bogus", "--help"])),
    st.tuples(NAMES),
    st.tuples(NUMBERS),
)


@st.composite
def argvs(draw):
    """A subcommand with its required arguments most of the time, plus up
    to three random pieces, in random order."""
    command = draw(st.sampled_from(["list", "solve", "sweep", "audit", "derive", "bogus"]))
    pieces = []
    if command in ("solve", "sweep"):
        pieces.append((draw(NAMES),))
    if command == "sweep":
        pieces += [("--param", draw(PARAMS)), ("--from", draw(NUMBERS)), ("--to", draw(NUMBERS))]
    pieces = draw(st.permutations(pieces + draw(st.lists(ARGV_PIECES, max_size=3))))
    return [command, *(token for piece in pieces for token in piece)]


def test_argparse_errors_print_usage_and_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--bogus"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage:")


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    # argparse reports its own errors (unknown flags, bad choices, missing
    # or malformed values) with a "usage:" block and exit code 1; every other
    # failure is one "gridmix..." line.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 1, 2, 3}, argv
    assert err.getvalue() == "" or err.getvalue().startswith(("gridmix", "usage:")), (argv, err.getvalue())


def test_a_file_named_like_a_catalog_scenario_does_not_shadow_it(tmp_path, capsys, monkeypatch):
    # `gridmix solve m1_flat_demand > m1_flat_demand`: the shell creates the
    # empty file before the command runs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m1_flat_demand").write_text("")
    code, out, err = run(capsys, "solve", "m1_flat_demand")
    assert (code, err) == (0, "")
    assert "25,621,059" in out
    # A path-like ref still reads the file, and so does a bare word that
    # names no scenario.
    code, _, err = run(capsys, "solve", os.path.join(".", "m1_flat_demand"))
    assert code == 1 and "m1_flat_demand" in err
    scenario = scenario_to_dict(get_scenario("m1_flat_demand"))
    scenario["name"] = "my_city"
    (tmp_path / "my_city").write_text(json.dumps(scenario))
    code, out, _ = run(capsys, "solve", "my_city")
    assert code == 0 and "scenario: my_city" in out


def test_base_requires_file(capsys):
    code, _, err = run(capsys, "solve", "m1_flat_demand", "--base", "m2_period_demand")
    assert code == 1
    assert "--base" in err


# ---------------------------------------------------------------------------
# list


def test_list_contains_catalog(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "m3_shared_space" in out
    assert "table_derived" in out


def test_list_variant_filter(capsys):
    _, out, _ = run(capsys, "list", "--variant", "as-printed")
    assert "as_printed" in out
    assert "table_derived" not in out


def test_list_json(capsys):
    _, out, _ = run(capsys, "list", "--format", "json")
    doc = json.loads(out)
    names = {row["name"] for row in doc}
    assert "m4_tight_space" in names
    assert all({"name", "variant", "description"} <= set(row) for row in doc)


def test_catalog_dir_env(tmp_path, capsys, monkeypatch):
    scenario = scenario_to_dict(get_scenario("m1_flat_demand"))
    scenario["name"] = "my_city"
    (tmp_path / "my_city.json").write_text(json.dumps(scenario))
    (tmp_path / "broken.json").write_text("{nope")
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe")
    monkeypatch.setenv(cli.CATALOG_DIR_ENV, str(tmp_path))
    code, out, err = run(capsys, "list")
    assert code == 0
    assert "my_city" in out
    # Unparseable and non-UTF-8 files are skipped with a warning.
    assert "broken.json" in err
    assert "latin1.json: 'utf-8' codec can't decode byte 0xff" in err
    code, out, _ = run(capsys, "solve", "my_city")
    assert code == 0
    assert "25,621,059" in out


def test_a_catalog_dir_that_is_not_a_directory_is_named_in_one_warning(tmp_path, capsys, monkeypatch):
    path = tmp_path / "my_city.json"
    path.write_text("{}")
    monkeypatch.setenv(cli.CATALOG_DIR_ENV, str(path))
    code, out, err = run(capsys, "solve", "my_city")
    assert (code, out) == (1, "")
    warning, error = err.splitlines()
    assert warning == (
        f"gridmix: warning: {cli.CATALOG_DIR_ENV} {str(path)!r} is not a directory; no scenario files loaded"
    )
    assert error.startswith("gridmix: error: unknown scenario 'my_city'")
    code, out, err = run(capsys, "list")
    assert code == 0 and "m1_flat_demand" in out
    assert err.count("\n") == 1 and err.startswith("gridmix: warning: ")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_output(capsys):
    code, out, _ = run(
        capsys, "sweep", "m4_nuclear", "--param", "land_ft2",
        "--from", "2.06e8", "--to", "5.06e10", "--steps", "20",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["value", "status", "objective", "wind", "solar", "nuclear"]
    assert len(rows) == 21
    nuclear = [float(r[5]) for r in rows[1:]]
    for a, b in zip(nuclear, nuclear[1:]):
        assert b <= a + 1e-6 * max(1.0, a)


@pytest.mark.parametrize(
    "param, start, stop, noted",
    [("rooftop_mwh", "1e5", "1e7", True), ("land_ft2", "1e10", "1.1e11", False)],
    ids=["rooftop-bounds-no-row", "land-bounds-rows"],
)
def test_sweep_notes_a_cap_that_bounds_no_row_on_stderr_only(capsys, param, start, stop, noted):
    code, out, err = run(capsys, "sweep", "m4_nuclear", "--param", param, "--from", start, "--to", stop, "--steps", "3")
    assert code == 0
    assert out.splitlines()[0] == "value,status,objective,wind,solar,nuclear" and len(out.splitlines()) == 4
    note = f"gridmix: note: {param} bounds no row of scenario 'm4_nuclear', so every point solves the same program\n"
    assert err == (note if noted else "")


def test_sweep_single_step(capsys):
    code, out, _ = run(
        capsys, "sweep", "m1_flat_demand", "--param", "emissions_g",
        "--from", "3.578e12", "--to", "4e12", "--steps", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[1][0]) == 3.578e12


@pytest.mark.parametrize("stop", ["inf", "nan"])
def test_sweep_single_step_refuses_a_non_finite_end_as_longer_grids_do(capsys, stop):
    # One step sweeps np.linspace(start, stop, 1), which is nan for a
    # non-finite stop, so --steps 1 fails exactly as --steps 2 does.
    argv = ["sweep", "m1_flat_demand", "--param", "land_ft2", "--from", "1", "--to", stop]
    code, out, err = run(capsys, *argv, "--steps", "1")
    assert (code, out) == (1, "")
    assert err.startswith("gridmix: error:")
    assert (code, out, err) == run(capsys, *argv, "--steps", "2")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_sweep_refuses_a_non_finite_end_naming_both_flags(capsys, flag, value):
    # "--from=-inf": argparse reads a bare "-inf" as a flag.
    ends = {"--from": "1", "--to": "2", flag: value}
    code, out, err = run(
        capsys, "sweep", "m1_flat_demand", "--param", "land_ft2",
        *(f"{name}={end}" for name, end in ends.items()), "--steps", "2",
    )
    assert (code, out, err) == (1, "", "gridmix: error: --from and --to must be finite\n")


def test_sweep_invalid_range(capsys):
    code, _, err = run(
        capsys, "sweep", "m1_flat_demand", "--param", "emissions_g",
        "--from", "2", "--to", "1", "--steps", "3",
    )
    assert code == 1
    assert "--from" in err


@pytest.mark.parametrize("steps", [cli.MAX_STEPS + 1, 10**12])
def test_sweep_refuses_steps_past_the_maximum(capsys, steps):
    code, out, err = run(
        capsys, "sweep", "m1_flat_demand", "--param", "emissions_g",
        "--from", "1", "--to", "2", "--steps", str(steps),
    )
    assert code == 1 and out == ""
    assert err == f"gridmix: error: --steps must be at most {cli.MAX_STEPS:,}\n"


def test_sweep_unknown_param(capsys):
    code, _, err = run(
        capsys, "sweep", "m1_flat_demand", "--param", "altitude",
        "--from", "1", "--to", "2", "--steps", "2",
    )
    assert code == 1
    assert "altitude" in err


# ---------------------------------------------------------------------------
# audit


def test_audit_text_and_exit(capsys):
    code, out, _ = run(capsys, "audit")
    assert code == 0
    assert "table 5" in out
    assert "discrepancy ledger:" in out


def test_audit_json(capsys):
    code, out, _ = run(capsys, "audit", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ids = {t["table"] for t in doc["tables"]}
    assert ids == {"5", "7", "8", "9", "10", "12", "13"}
    assert {d["id"] for d in doc["discrepancies"]} >= {"early-wind-share"}


def test_audit_single_table(capsys):
    code, out, _ = run(capsys, "audit", "--table", "5")
    assert code == 0
    assert "table 5" in out
    assert "table 8" not in out


def test_audit_unknown_table(capsys):
    code, _, err = run(capsys, "audit", "--table", "99")
    assert code == 1
    assert "99" in err


def test_audit_strict(capsys):
    code, _, _ = run(capsys, "audit", "--strict")
    assert code == 0


def test_audit_csv(capsys):
    code, out, _ = run(capsys, "audit", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "table"
    assert len(rows) == 8  # header + 7 tables


def test_audit_deterministic(capsys):
    _, first, _ = run(capsys, "audit", "--format", "json")
    _, second, _ = run(capsys, "audit", "--format", "json")
    assert first == second


# ---------------------------------------------------------------------------
# derive


def test_derive_text(capsys):
    code, out, _ = run(capsys, "derive")
    assert code == 0
    assert "annual_need_mwh" in out
    assert "deltas vs published values:" in out


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", "--format", "json")
    doc = json.loads(out)
    names = {c["name"] for c in doc["constants"]}
    assert "land_budget_ft2" in names
    assert any(d["name"] == "emissions_cap_g" for d in doc["deltas"])


def test_derive_csv(capsys):
    code, out, _ = run(capsys, "derive", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value", "unit", "provenance"]


# ---------------------------------------------------------------------------
# imports


SOLVER = ("numpy", "gridmix.lp", "gridmix.model")
ANALYSIS = ("gridmix.analysis",)
PARAMETRIC, ORACLE, AUDIT, DERIVATION = "gridmix.parametric", "gridmix.oracle", "gridmix.audit", "gridmix.derivation"
SWEEP = "['sweep', 'm4_nuclear', '--param', 'land_ft2', '--from', '1e10', '--to', '1.1e11', '--steps', '5']"
FORMATS = ("json", "csv")   # each loads only when its format is printed, or a scenario file is read
SOLVE_FILE = f"['solve', {str(Path(__file__).parent / 'data' / 'scenario_example.json')!r}, '--base', 'm1_flat_demand']"


@pytest.mark.parametrize(
    "statement, unloaded, last_line",
    [
        ("import gridmix.cli", SOLVER + ANALYSIS + ("gridmix.derivation",) + FORMATS, "[] None"),
        ("import gridmix.cli; code = gridmix.cli.main(['list', '--format', 'json'])", SOLVER + ANALYSIS, "[] 0"),
        ("import gridmix.cli; code = gridmix.cli.main(['derive', '--format', 'json'])", SOLVER + ANALYSIS, "[] 0"),
        ("import gridmix.catalog, gridmix.derivation", SOLVER + ANALYSIS, "[] None"),
        ("import gridmix; gridmix.Scenario", SOLVER + ANALYSIS, "[] None"),
        ("import gridmix.cli; code = gridmix.cli.main(['solve', 'm1_flat_demand'])",
         ("numpy",) + ANALYSIS + (PARAMETRIC, ORACLE, AUDIT, DERIVATION) + FORMATS, "[] 0"),
        ("import gridmix.cli; code = gridmix.cli.main(['solve', 'm1_flat_demand', '--format', 'json'])",
         ("numpy",) + FORMATS, "['json'] 0"),
        ("import gridmix.cli; code = gridmix.cli.main(['solve', 'm1_flat_demand', '--format', 'csv'])",
         ("numpy",) + FORMATS, "['csv'] 0"),
        (f"import gridmix.cli; code = gridmix.cli.main({SOLVE_FILE})", ("numpy",) + FORMATS, "['json'] 0"),
        ("import gridmix.cli; code = gridmix.cli.main(['solve', 'm1_flat_demand', '--oracle'])",
         ANALYSIS + (PARAMETRIC, AUDIT, DERIVATION), "[] 0"),
        (f"import gridmix.cli; code = gridmix.cli.main({SWEEP})", ANALYSIS + (ORACLE, AUDIT, DERIVATION), "[] 0"),
        ("import gridmix.cli; code = gridmix.cli.main(['audit', '--format', 'json'])",
         ANALYSIS + (PARAMETRIC, DERIVATION), "[] 0"),
    ],
    ids=["import-cli", "list", "derive", "import-catalog-derivation", "package-Scenario", "solve", "solve-json",
         "solve-csv", "solve-file", "solve-oracle", "sweep", "audit"],
)
def test_each_entry_point_leaves_the_layers_it_does_not_use_unloaded(statement, unloaded, last_line):
    # The rows that run a command print its exit code after the loaded
    # modules (the import rows print None), so a command that fails before
    # reaching a layer cannot pass.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop(cli.CATALOG_DIR_ENV, None)
    script = f"import sys\ncode = None\n{statement}\nprint(sorted(sys.modules.keys() & {set(unloaded)!r}), code)\n"
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "argv",
    [["list", "--format", "json"], ["solve", "m1_flat_demand"]],
    ids=["list", "solve"],
)
def test_a_closed_stdout_exits_one_with_nothing_on_stderr(argv):
    # The read end is closed before gridmix starts, so its first write to
    # stdout fails, as it does when `head` stops reading early.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "gridmix.cli", *argv], env=env, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")


def test_published_table_resolves_from_derivation():
    from gridmix import catalog, derivation

    assert derivation.PUBLISHED is catalog.PUBLISHED


def test_package_reexports_resolve_lazily():
    import gridmix
    from gridmix import analysis, oracle_solve

    assert oracle_solve is analysis.oracle_solve
    assert all(hasattr(gridmix, name) for name in gridmix.__all__)
    with pytest.raises(AttributeError):
        gridmix.no_such_name


# The names the two shims keep for readers outside the package, by home
# module: gridmix.analysis's six and the three gridmix.lp loads on first use.
HOMES = {
    "gridmix.parametric": ("solve_many", "solve_rhs", "sweep"),
    "gridmix.oracle": ("check_feasible", "corner_report", "enumerate_vertices", "oracle_solve"),
    "gridmix.audit": ("audit_reference_results",),
    "gridmix.scenario": ("CAP_FIELDS",),
}


def test_the_shims_hold_exactly_the_names_read_from_outside_the_package():
    import ast
    import importlib

    import gridmix
    from gridmix import analysis, lp

    assert sorted(analysis.__all__) == [
        "CAP_FIELDS", "audit_reference_results", "corner_report", "enumerate_vertices", "oracle_solve", "sweep",
    ]
    assert set(lp._HOME) == {"solve_many", "solve_rhs", "check_feasible"}
    home = {name: module for module, names in HOMES.items() for name in names}
    for facade, names in ((analysis, analysis.__all__), (lp, lp._HOME)):
        for name in names:
            assert getattr(facade, name) is getattr(importlib.import_module(home[name]), name), name
    assert {getattr(lp, name).__module__ for name in lp.__all__} == {"gridmix.lp"}
    for name in gridmix.__all__:
        if name != "__version__":
            obj = getattr(gridmix, name)
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
            assert obj.__module__ == home.get(name, obj.__module__), name
    with pytest.raises(AttributeError):
        lp.no_such_name
    # No module of the package reads the facade.
    for path in Path(gridmix.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                read = {getattr(node, "module", None) or ""} | {alias.name for alias in node.names}
                assert not read & {"analysis", "gridmix.analysis"}, path.name


@pytest.mark.parametrize(
    "command",
    [["solve"], ["sweep", "--param", "land_ft2", "--from", "1e300", "--to", "1e308", "--steps", "2"]],
    ids=["solve", "sweep"],
)
def test_a_land_bound_past_the_float_range_exits_one_without_a_traceback(tmp_path, capsys, command):
    # floor(1e308 / 1e-3) is past the float range: the separate land bound
    # of every source.
    doc = scenario_to_dict(get_scenario("m1_flat_demand"))
    for source in doc["sources"]:
        source["land_ft2_per_mwh"] = 1e-3
    doc["caps"]["land_ft2"] = 1e308
    path = tmp_path / "huge_land.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err == (
        "gridmix: error: scenario 'm1_flat_demand': land_cap 1e+308 puts the rhs of row 'space_wind' "
        "past the float range\n"
    )


def overflowing_example(tmp_path) -> Path:
    # Uncapped emission and capital rates: no LP row sees them, so the solve
    # succeeds and only the report's amounts pass the float range.
    doc = json.loads((Path(__file__).parent / "data" / "scenario_example.json").read_text())
    doc["sources"][0]["emissions_g_per_mwh"] = 1e305
    doc["sources"][0]["capital_cost"] = 1e305
    doc["caps"]["emissions_g"] = None
    doc["caps"]["budget_usd"] = None
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_report_amount_past_the_float_range_exits_one(tmp_path, capsys, fmt):
    code, out, err = run(capsys, "solve", str(overflowing_example(tmp_path)), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == (
        "gridmix: error: scenario 'my_city': report totals past the float range: emissions_g, capital_usd\n"
    )


def test_solve_oracle_status_disagreement_exits_one(capsys, monkeypatch):
    from gridmix import oracle

    monkeypatch.setattr(
        oracle, "oracle_solve", lambda lp: oracle.OracleResult(Status.INFEASIBLE, None, None, ())
    )
    code, out, err = run(capsys, "solve", "m1_flat_demand", "--oracle")
    assert (code, out) == (1, "")
    assert err == "oracle disagrees: solver=optimal oracle=infeasible\n"


def test_solve_oracle_objective_disagreement_exits_one(capsys, monkeypatch):
    from gridmix import oracle

    monkeypatch.setattr(
        oracle, "oracle_solve", lambda lp: oracle.OracleResult(Status.OPTIMAL, 1.0, (1.0, 0.0), ())
    )
    code, out, err = run(capsys, "solve", "m1_flat_demand", "--oracle")
    assert (code, out) == (1, "")
    assert err.startswith("oracle disagrees on the objective: solver=968476030.")
    assert err.endswith(" oracle=1.0\n")


def test_numpy_overflow_exits_one_with_the_range_error(capsys):
    code, out, err = run(
        capsys, "sweep", "m1_flat_demand", "--param", "emissions_g",
        "--from=-1.5e308", "--to", "1.5e308", "--steps", "3",
    )
    assert (code, out) == (1, "")
    assert err.startswith("gridmix: error: the input's magnitudes are out of range")
    assert err.count("\n") == 1
