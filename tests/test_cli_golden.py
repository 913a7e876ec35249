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

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


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
    got = capture(argv)
    assert got["exit"] == recorded[tuple(argv)]["exit"]
    assert got["stdout"] == recorded[tuple(argv)]["stdout"]


if __name__ == "__main__":
    os.environ.pop(cli.CATALOG_DIR_ENV, None)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([capture(a) for a in golden_argvs()], indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
