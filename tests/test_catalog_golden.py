"""Golden catalog: the ``repr`` of every built-in scenario, in both
coefficient variants, must match the recorded file.

``repr`` of a float round-trips, so the file pins every rate, share, cap
and pinned period demand bit for bit (``-0.0`` included), and also the
fields no solve reads: names, descriptions, modes and budget rates. It
was written from the catalog as one full constructor per model, before
each model became an edit of its parent. Regenerate it only when a
catalog change is intended:

    PYTHONPATH=src python tests/test_catalog_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from gridmix.catalog import CATALOG_NAMES, builtin_scenarios, get_scenario
from gridmix.model import CoefficientVariant

GOLDEN = Path(__file__).parent / "data" / "catalog_golden.json"


def current() -> dict[str, str]:
    return {f"{s.name}/{s.coefficient_variant.value}": repr(s) for s in builtin_scenarios()}


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_catalog(recorded):
    assert list(recorded) == list(current())


@pytest.mark.parametrize("key", list(current()))
def test_scenario_repr_matches_golden(key, recorded):
    assert current()[key] == recorded[key]


@pytest.mark.parametrize("variant", list(CoefficientVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_get_scenario_builds_each_model_once(name, variant):
    assert get_scenario(name, variant) is get_scenario(name, variant)


def test_builtin_scenarios_returns_the_cached_objects():
    expected = [get_scenario(name, variant) for name in CATALOG_NAMES for variant in CoefficientVariant]
    assert all(a is b for a, b in zip(builtin_scenarios(), expected, strict=True))


@pytest.mark.parametrize("variant", list(CoefficientVariant), ids=lambda v: v.value)
def test_a_variant_named_by_its_string_builds_that_variant(variant, recorded):
    # "as_printed" == AS_PRINTED and both hash alike, so the string lookup
    # fills the cache entry that the enum lookup reads.
    get_scenario.cache_clear()
    for name in CATALOG_NAMES:
        assert repr(get_scenario(name, variant.value)) == recorded[f"{name}/{variant.value}"]
        assert get_scenario(name, variant) is get_scenario(name, variant.value)


@pytest.mark.parametrize("name", ["m0_cost_only", "m4_nuclear"])
def test_every_spelling_of_the_variant_shares_one_cache_entry(name):
    AP = CoefficientVariant.AS_PRINTED
    get_scenario.cache_clear()
    get_scenario(name)
    entries = get_scenario.cache_info().currsize   # the model and its parents, m0 has none
    spellings = [get_scenario(name), get_scenario(name, AP), get_scenario(name, "as_printed"), get_scenario(name, variant=AP)]
    assert all(scenario is spellings[0] for scenario in spellings)
    assert get_scenario.cache_info().currsize == entries
    assert name != "m0_cost_only" or entries == 1


def test_unknown_name_lists_the_known_names():
    with pytest.raises(KeyError) as caught:
        get_scenario("m9_fusion")
    assert caught.value.args == (f"unknown scenario 'm9_fusion'; known: {', '.join(CATALOG_NAMES)}",)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
