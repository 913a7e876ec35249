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
from gridmix.model import ScenarioFormatError, load_scenario_file, scenario_to_dict
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
        Status.OPTIMAL: 0,
        Status.INFEASIBLE: 2,
        Status.UNBOUNDED: 3,
    }


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "missing.json")
    assert code == 1
    assert "missing.json" in err


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


def test_solve_oracle_rejects_large_models(capsys):
    code, _, err = run(capsys, "solve", "m0_cost_only", "--oracle")
    assert code == 1
    assert "4 variables" in err


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
    monkeypatch.setenv(cli.CATALOG_DIR_ENV, str(tmp_path))
    code, out, err = run(capsys, "list")
    assert code == 0
    assert "my_city" in out
    assert "broken.json" in err  # unparseable files are skipped with a warning
    code, out, _ = run(capsys, "solve", "my_city")
    assert code == 0
    assert "25,621,059" in out


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


def test_sweep_single_step(capsys):
    code, out, _ = run(
        capsys, "sweep", "m1_flat_demand", "--param", "emissions_g",
        "--from", "3.578e12", "--to", "4e12", "--steps", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[1][0]) == 3.578e12


def test_sweep_invalid_range(capsys):
    code, _, err = run(
        capsys, "sweep", "m1_flat_demand", "--param", "emissions_g",
        "--from", "2", "--to", "1", "--steps", "3",
    )
    assert code == 1
    assert "--from" in err


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


def test_solve_does_not_load_the_analysis_layer():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import sys, gridmix.cli\n"
        "loaded_at_import = 'gridmix.analysis' in sys.modules\n"
        "code = gridmix.cli.main(['solve', 'm1_flat_demand'])\n"
        "print(loaded_at_import, 'gridmix.analysis' in sys.modules, code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False False 0"


def test_solve_does_not_load_the_derivation_layer():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import sys, gridmix.cli\n"
        "code = gridmix.cli.main(['solve', 'm1_flat_demand'])\n"
        "print('gridmix.derivation' in sys.modules, code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False 0"


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
