"""Golden long sweeps: the CSV that `gridmix sweep` prints for a
1000-point grid over each benchmark long-grid (scenario, cap) pair, in
both coefficient variants, must keep the recorded sha256.

The recorded file was written from the code before a sweep read its
points straight from the solved blocks, so it pins every printed status,
objective and production digit across that change. Regenerate it only
when an output change is intended:

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from gridmix import analysis, catalog, cli

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"
STEPS = 1000
# The four long grids of the `sweep` benchmark workload, one per cap.
LONG_GRIDS = (
    ("land_ft2", "m4_nuclear"),
    ("emissions_g", "m3_shared_space"),
    ("budget_usd", "m5_geothermal"),
    ("rooftop_mwh", "m2_period_demand"),
)


def golden_argvs() -> list[list[str]]:
    argvs = []
    for param, name in LONG_GRIDS:
        for flag, variant in cli._VARIANTS.items():
            cap = getattr(catalog.get_scenario(name, variant), analysis.CAP_FIELDS[param])
            argvs.append(["sweep", name, "--param", param, "--from", repr(0.2 * cap),
                          "--to", repr(2.2 * cap), "--steps", str(STEPS), "--variant", flag])
    return argvs


def capture(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    return {"argv": argv, "exit": code, "lines": text.count("\n"),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.fixture(scope="module")
def recorded() -> dict[tuple[str, ...], dict]:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_the_argv_list(recorded):
    assert list(recorded) == [tuple(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_sweep_csv_matches_golden(argv, recorded):
    assert capture(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([capture(a) for a in golden_argvs()], indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
