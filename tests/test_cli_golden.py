"""Golden CLI outputs: stdout and exit code of a fixed argv list must stay
byte-identical to the recorded file.

The recorded file was written from the code before the row-check kernel
and the tolerance constants were consolidated, so it pins every printed
number, binding set, feasibility flag and exit code across that change.
Regenerate it only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gridmix import cli
from gridmix.catalog import CATALOG_NAMES

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
# README's scenario-file example, named relative to the repository root.
EXAMPLE = "tests/data/scenario_example.json"


def golden_argvs() -> list[list[str]]:
    argvs = [
        ["solve", name, "--variant", variant]
        for name in CATALOG_NAMES
        for variant in ("as-printed", "table-derived")
    ]
    argvs += [
        ["solve", name, "--format", fmt]
        for name in ("m3_shared_space", "m4_nuclear")
        for fmt in ("json", "csv")
    ]
    argvs += [
        ["solve", "m3_shared_space", "--oracle"],
        ["sweep", "m4_nuclear", "--param", "land_ft2", "--from", "1e9", "--to", "5e10", "--steps", "20"],
        ["audit"],
        ["audit", "--format", "json"],
        ["audit", "--format", "csv"],
        ["derive"],
        ["list"],
    ]
    # Added before the per-command renderers were folded into one emitter:
    # every format of every command it rewrites, and the paths that only
    # some formats take (oracle, objective override, infeasible points).
    argvs += [
        ["list", "--format", "json"],
        ["list", "--variant", "table-derived"],
        ["derive", "--format", "json"],
        ["derive", "--format", "csv"],
        *(["audit", "--table", "9", "--table", "12", "--format", fmt] for fmt in ("text", "json", "csv")),
        ["audit", "--strict"],
        *(["solve", "m4_nuclear", "--oracle", "--format", fmt] for fmt in ("json", "csv")),
        *(["solve", "m1_flat_demand", "--objective", "emissions", "--format", fmt]
          for fmt in ("text", "json", "csv")),
        *(["solve", "m2_period_demand", "--format", fmt] for fmt in ("json", "csv")),
        ["sweep", "m1_flat_demand", "--param", "emissions_g", "--from", "1", "--to", "2e11", "--steps", "7"],
    ]
    # Added before the scenario-file parser was rebuilt from one field
    # table: README's example file, alone and as an override of a catalog
    # scenario.
    argvs += [
        ["solve", EXAMPLE, *base, "--format", fmt]
        for base in ([], ["--base", "m4_nuclear"])
        for fmt in ("text", "json", "csv")
    ]
    return argvs


def capture(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict[tuple[str, ...], dict]:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_the_argv_list(recorded):
    assert list(recorded) == [tuple(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(argv, recorded, monkeypatch):
    monkeypatch.delenv(cli.CATALOG_DIR_ENV, raising=False)
    monkeypatch.chdir(ROOT)
    got = capture(argv)
    assert got["exit"] == recorded[tuple(argv)]["exit"]
    assert got["stdout"] == recorded[tuple(argv)]["stdout"]


if __name__ == "__main__":
    os.environ.pop(cli.CATALOG_DIR_ENV, None)
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([capture(a) for a in golden_argvs()], indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
