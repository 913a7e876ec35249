"""Seeded inputs and the timed operation of each benchmark workload.

Every input is a pure function of the seed. Scenario inputs are built in
two steps: a *shape* (a catalog scenario with one objective mode and
jittered caps) and a per-op *scale* ``k``. Scaling multiplies every
right-hand-side quantity of the scenario by ``k`` (demand, pinned period
demand, every cap, rooftop allowances and output floors), so the LP is
homogeneous in ``k``: the status is unchanged and the optimum is
``k`` times the unit-scale optimum. Reference answers are therefore
computed once per shape at unit scale, while every timed op still solves
an LP that no earlier op has seen.

The benchmark calls gridmix through module attributes (``lp.solve``,
not ``from gridmix.lp import solve``) so that the traced run, which
rebinds those attributes, sees the top-level calls too.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace

import gridmix.analysis as analysis
import gridmix.catalog as catalog
import gridmix.cli as cli
import gridmix.lp as lp
import gridmix.model as model
from gridmix.model import CoefficientVariant, ObjectiveMode

CAPS = ("emissions_cap", "budget_cap", "land_cap", "rooftop_cap")
SCALE_RANGE = (0.25, 8.0)          # annual demand relative to the catalog value
CAP_JITTER = (0.6, 1.4)            # per-cap factor on top of the demand scale
SHAPES_PER_COMBO = 12
ORACLE_BOX = 1e8                   # analysis.oracle_solve's default clipping box
REL_TOL = 1e-6                     # objective agreement with the reference

SWEEP_SHORT, SWEEP_LONG = 20, 1000
SWEEP_SHORT_SPECS = 24
# One long grid per cap, each on a fixed scenario so that the seed moves
# the grid bounds and scales but not which LP family dominates the run.
SWEEP_LONG_SCENARIOS = {
    "land_ft2": ("m4_nuclear", CoefficientVariant.AS_PRINTED),
    "emissions_g": ("m3_shared_space", CoefficientVariant.TABLE_DERIVED),
    "budget_usd": ("m5_geothermal", CoefficientVariant.AS_PRINTED),
    "rooftop_mwh": ("m2_period_demand", CoefficientVariant.TABLE_DERIVED),
}

# Ops per block; every block holds the same mix in a seeded order.
SWEEP_BLOCK = ("short",) * 4 + ("long",)
VERIFY_BLOCK = ("oracle",) * 8 + ("corner", "audit")

# Ops in the fixed prefix that the traced run replays (so counts repeat).
TRACE_OPS = {"cli_cold": 26, "solve_mix": 2000, "sweep": 10, "verify": 200}
# Ops built per untimed batch in the measured loop.
BATCH_OPS = {"solve_mix": 500, "sweep": len(SWEEP_BLOCK), "verify": len(VERIFY_BLOCK)}


def _variants():
    return (CoefficientVariant.AS_PRINTED, CoefficientVariant.TABLE_DERIVED)


def scale_scenario(scenario, k: float):
    """Multiply every right-hand-side quantity of *scenario* by *k*."""
    caps = {c: getattr(scenario, c) * k for c in CAPS if getattr(scenario, c) is not None}
    periods = tuple(
        replace(p, demand_mwh=p.demand_mwh * k) if p.demand_mwh is not None else p
        for p in scenario.periods
    )
    sources = tuple(
        replace(s, rooftop_allowance=s.rooftop_allowance * k, min_annual_output=s.min_annual_output * k)
        if (s.rooftop_allowance or s.min_annual_output)
        else s
        for s in scenario.sources
    )
    return replace(scenario, annual_need=scenario.annual_need * k, periods=periods, sources=sources, **caps)


def _draw_scale(rng: random.Random) -> float:
    lo, hi = SCALE_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# solve_mix and verify: a pool of shapes, one seeded scale per op


@dataclass(frozen=True)
class Shape:
    combo: tuple[str, str, str]     # scenario name, variant, objective mode
    scenario: object                # gridmix Scenario at unit scale


def shape_pool(seed: int, max_vars: int | None = None) -> list[Shape]:
    rng = random.Random(f"shapes/{seed}")
    shapes = []
    for name in catalog.scenario_names():
        for variant in _variants():
            base = catalog.get_scenario(name, variant)
            if max_vars is not None and len(base.sources) > max_vars:
                continue
            for mode in ObjectiveMode:
                for _ in range(SHAPES_PER_COMBO):
                    caps = {
                        c: getattr(base, c) * rng.uniform(*CAP_JITTER)
                        for c in CAPS
                        if getattr(base, c) is not None
                    }
                    scenario = replace(base, objective_mode=mode, **caps)
                    shapes.append(Shape((name, variant.value, mode.value), scenario))
    return shapes


def shape_ops(seed: int, shapes: list[Shape], stream: str):
    """Endless seeded (shape index, scale) stream; consecutive ops never
    share a scenario/variant/objective combination, hence never a basis."""
    rng = random.Random(f"{stream}/{seed}")
    previous = None
    while True:
        idx = rng.randrange(len(shapes))
        while shapes[idx].combo == previous:
            idx = rng.randrange(len(shapes))
        previous = shapes[idx].combo
        yield idx, _draw_scale(rng)


def objective_ok(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def check_solution(solution, ref: dict, k: float) -> str | None:
    """Compare a gridmix Solution with a unit-scale reference scaled by *k*."""
    if solution.status.value != ref["status"]:
        return "status"
    if ref["status"] == "optimal" and not objective_ok(solution.objective_value, k * ref["objective"]):
        return "objective"
    return None


def solve_mix_op(scenario):
    solution = lp.solve(model.compile_scenario(scenario))
    model.report(scenario, solution)
    return solution


def verify_oracle_op(program):
    solution = lp.solve(program)
    oracle = analysis.oracle_solve(program)
    feasibility = lp.check_feasible(program, solution.values)
    return solution, oracle, feasibility


def check_oracle(result, ref: dict, k: float) -> str | None:
    solution, oracle, feasibility = result
    wrong = check_solution(solution, ref, k)
    if wrong:
        return f"simplex_{wrong}"
    if ref["status"] == "optimal" and not feasibility.feasible:
        return "simplex_point_infeasible"
    if oracle.status.value != ref["status"] or (
        ref["status"] == "optimal" and not objective_ok(oracle.objective, k * ref["objective"])
    ):
        # The oracle clips the region at a fixed box: an optimum beyond it
        # is its known blind spot. Other disagreements are rarer (a zero-cost
        # optimal face that reaches the box is reported as unbounded).
        beyond = ref["status"] == "optimal" and k * max(ref["point"]) >= ORACLE_BOX * (1.0 - 1e-6)
        return "oracle_beyond_box" if beyond else "oracle_other"
    return None


# Outcomes that are the oracle's own disagreements with the reference.
# verify counts them apart from failed ops: they are reported as
# oracle_disagreements and do not lower ok_ratio or "correct". Any other
# kind means gridmix returned a wrong answer.
ORACLE_FAILURES = frozenset({"oracle_beyond_box", "oracle_other"})


def corner_objectives():
    scenario = catalog.get_scenario("a1_om_objective", CoefficientVariant.AS_PRINTED)
    program = model.compile_scenario(scenario)
    named = [(mode.value, model.compile_scenario(scenario.with_objective(mode)).objective) for mode in ObjectiveMode]
    return program, named


def check_corner(rep, refs: dict) -> str | None:
    for name, expected in refs.items():
        if not objective_ok(rep.rows[rep.argmin[name]].values[name], expected):
            return "corner"
    return None


def verify_ops(seed: int):
    """Endless seeded stream of verify op kinds (fixed share per block)."""
    rng = random.Random(f"verify-order/{seed}")
    while True:
        block = list(VERIFY_BLOCK)
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# sweep: a pool of grids, one seeded scale per op


@dataclass(frozen=True)
class SweepSpec:
    scenario: object
    param: str
    values: tuple[float, ...]


def _grid(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    return tuple(lo + (hi - lo) * i / (steps - 1) for i in range(steps))


def sweep_specs(seed: int) -> tuple[list[SweepSpec], list[SweepSpec]]:
    rng = random.Random(f"sweep-specs/{seed}")
    pairs = []
    for param, field in analysis.CAP_FIELDS.items():
        for name in catalog.scenario_names():
            for variant in _variants():
                scenario = catalog.get_scenario(name, variant)
                if getattr(scenario, field) is not None:
                    pairs.append((param, scenario))
    short = []
    for _ in range(SWEEP_SHORT_SPECS):
        param, scenario = rng.choice(pairs)
        cap = getattr(scenario, analysis.CAP_FIELDS[param])
        values = _grid(cap * rng.uniform(0.05, 0.6), cap * rng.uniform(1.2, 3.0), SWEEP_SHORT)
        short.append(SweepSpec(scenario, param, values))
    long = []
    for param, (name, variant) in SWEEP_LONG_SCENARIOS.items():
        scenario = catalog.get_scenario(name, variant)
        cap = getattr(scenario, analysis.CAP_FIELDS[param])
        values = _grid(cap * rng.uniform(0.2, 0.3), cap * rng.uniform(1.8, 2.2), SWEEP_LONG)
        long.append(SweepSpec(scenario, param, values))
    return short, long


def sweep_ops(seed: int, n_short: int, n_long: int):
    """Endless seeded stream of ("short"|"long", spec index, scale)."""
    rng = random.Random(f"sweep-ops/{seed}")
    while True:
        block = list(SWEEP_BLOCK)
        rng.shuffle(block)
        for kind in block:
            idx = rng.randrange(n_short if kind == "short" else n_long)
            yield kind, idx, _draw_scale(rng)


def check_sweep(points, refs: list[dict], k: float) -> str | None:
    if len(points) != len(refs):
        return "sweep_length"
    for point, ref in zip(points, refs):
        if point.status.value != ref["status"]:
            return "sweep_status"
        if ref["status"] == "optimal" and not objective_ok(point.objective, k * ref["objective"]):
            return "sweep_objective"
    return None


# ---------------------------------------------------------------------------
# cli_cold: a seeded argv mix


CLI_FORMATS = ("text", "json", "csv")
CLI_BLOCK_OPS = 13                 # argvs per block of cli_blocks


def cli_blocks(seed: int, base_files: list[str]):
    """Endless seeded stream of argv lists, one fixed mix per block:
    solve in each format for both variants, solve --oracle, a scenario
    file with --base, a 20-step sweep, audit, derive and list."""
    rng = random.Random(f"cli/{seed}")
    names = catalog.scenario_names()
    small = [n for n in names if len(catalog.get_scenario(n).sources) <= 4]
    variants = ("as-printed", "table-derived")
    sweepable = [
        (n, v, p)
        for n in names
        for v in variants
        for p, f in analysis.CAP_FIELDS.items()
        if getattr(catalog.get_scenario(n, CoefficientVariant(v.replace("-", "_"))), f) is not None
    ]
    block_no = 0
    while True:
        block = []
        for fmt in CLI_FORMATS:
            for variant in variants:
                argv = ["solve", rng.choice(names), "--variant", variant, "--format", fmt]
                if rng.random() < 0.5:
                    argv += ["--objective", rng.choice(("lcoe", "om", "emissions"))]
                block.append(argv)
        for fmt in ("json", "text"):
            block.append(["solve", rng.choice(small), "--oracle", "--format", fmt])
        block.append(["solve", base_files[block_no % len(base_files)], "--base", rng.choice(names),
                      "--format", "json"])
        name, variant, param = rng.choice(sweepable)
        cap = getattr(catalog.get_scenario(name, CoefficientVariant(variant.replace("-", "_"))),
                      analysis.CAP_FIELDS[param])
        block.append(["sweep", name, "--variant", variant, "--param", param,
                      "--from", repr(cap * rng.uniform(0.1, 0.6)), "--to", repr(cap * rng.uniform(1.2, 3.0)),
                      "--steps", "20"])
        block.append(["audit", "--strict", "--format", rng.choice(CLI_FORMATS)])
        block.append(["derive", "--format", rng.choice(CLI_FORMATS)])
        block.append(["list", "--format", rng.choice(("text", "json"))])
        rng.shuffle(block)
        block_no += 1
        yield from block


def base_file_docs(seed: int, count: int = 8) -> list[dict]:
    """Scenario override documents for ``solve FILE --base NAME``. Each sets
    all four caps, because a base scenario without one is written out with
    a null cap, which the loader rejects."""
    rng = random.Random(f"cli-files/{seed}")
    caps = {"emissions_g": 3.578e12, "budget_usd": 2e9, "land_ft2": 5.059e10, "rooftop_mwh": 344_900.0}
    return [
        {
            "name": f"bench_city_{i}",
            "annual_need_mwh": 25_621_059.0 * _draw_scale(rng),
            "caps": {key: value * rng.uniform(0.5, 4.0) for key, value in caps.items()},
        }
        for i in range(count)
    ]


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` on *argv*; return its exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def check_cli(code: int, out: str, expect: dict) -> str | None:
    """Exit code, and for json solve output also status and objective."""
    if code != expect["exit"]:
        return "cli_exit_code"
    if expect.get("status") is not None:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return "cli_json"
        if doc.get("status") != expect["status"]:
            return "cli_json_status"
        if expect["status"] == "optimal" and not objective_ok(doc["objective_value"], expect["objective"]):
            return "cli_json_objective"
    return None


# ---------------------------------------------------------------------------
# in-process workloads: batch() builds inputs untimed, run() is one op,
# check() compares a result with its reference


class SolveMix:
    def __init__(self, seed: int, refs: dict) -> None:
        self.shapes = shape_pool(seed)
        self.refs = refs["shapes"]
        self.stream = shape_ops(seed, self.shapes, "solve_mix")

    def batch(self, n: int) -> list:
        items = []
        for _ in range(n):
            idx, k = next(self.stream)
            items.append((scale_scenario(self.shapes[idx].scenario, k), idx, k))
        return items

    def run(self, item):
        return solve_mix_op(item[0])

    def check(self, item, solution) -> str | None:
        return check_solution(solution, self.refs[item[1]], item[2])


class Verify:
    def __init__(self, seed: int, refs: dict) -> None:
        self.shapes = shape_pool(seed, max_vars=4)
        self.refs = refs["shapes"]
        self.corner_refs = refs["corner"]
        self.stream = shape_ops(seed, self.shapes, "verify")
        self.kinds = verify_ops(seed)
        self.corner_program, self.corner_objectives = corner_objectives()

    def batch(self, n: int) -> list:
        items = []
        for _ in range(n):
            kind = next(self.kinds)
            if kind == "oracle":
                idx, k = next(self.stream)
                program = model.compile_scenario(scale_scenario(self.shapes[idx].scenario, k))
                items.append((kind, program, idx, k))
            else:
                items.append((kind,))
        return items

    def run(self, item):
        if item[0] == "oracle":
            return verify_oracle_op(item[1])
        if item[0] == "corner":
            return analysis.corner_report(self.corner_program, self.corner_objectives)
        return analysis.audit_reference_results()

    def check(self, item, result) -> str | None:
        if item[0] == "oracle":
            return check_oracle(result, self.refs[item[2]], item[3])
        if item[0] == "corner":
            return check_corner(result, self.corner_refs)
        return None if result.strict_passed else "audit_strict"


class Sweep:
    def __init__(self, seed: int, refs: dict) -> None:
        self.specs = dict(zip(("short", "long"), sweep_specs(seed)))
        self.refs = refs
        self.stream = sweep_ops(seed, len(self.specs["short"]), len(self.specs["long"]))

    def batch(self, n: int) -> list:
        items = []
        for _ in range(n):
            kind, idx, k = next(self.stream)
            spec = self.specs[kind][idx]
            items.append((scale_scenario(spec.scenario, k), spec.param, [v * k for v in spec.values], kind, idx, k))
        return items

    def run(self, item):
        return analysis.sweep(*item[:3])

    def check(self, item, points) -> str | None:
        return check_sweep(points, self.refs[item[3]][item[4]], item[5])


class CliInProcess:
    """The cli_cold argv stream run through ``cli.main`` in this process."""

    def __init__(self, seed: int, refs: dict) -> None:
        self.argvs = cli_blocks(seed, refs["base_files"])
        self.expect = refs["cli_expect"]
        self.index = 0

    def batch(self, n: int) -> list:
        items = [(next(self.argvs), self.expect[self.index + i]) for i in range(n)]
        self.index += n
        return items

    def run(self, item):
        return run_cli_in_process(item[0])

    def check(self, item, result) -> str | None:
        return check_cli(*result, item[1])


IN_PROCESS = {"solve_mix": SolveMix, "verify": Verify, "sweep": Sweep, "cli_cold": CliInProcess}
