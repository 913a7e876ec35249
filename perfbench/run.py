"""gridmix benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout (gridmix need not be installed; ``src``
is put on the path). Workloads: cli_cold, solve_mix, sweep, verify; see
perfbench/README.md for what each one stresses and why.

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics of a separate traced run. The line before it carries the
details: environment, interpreter and numpy floors, the tail percentile
and its sample count, the failures by kind and the oracle's
disagreements with the reference. ``--all`` runs every
workload both ways, prints one table and writes the results to
``perfbench/out/BENCH_<sha>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKER = HERE / "worker.py"
ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
SETUP_REPEATS = 11
FLOOR_REPEATS = 3
WORKLOADS = ("cli_cold", "solve_mix", "sweep", "verify")
EXIT_BY_STATUS = {"optimal": 0, "infeasible": 2, "unbounded": 3}


@contextmanager
def unpinned():
    """Undo pin_one_cpu() while the block runs."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def pin_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU, so that a
    calibration taken here and the child process it corrects share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(ALL_CPUS)})


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GRIDMIX_CATALOG_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed(argv: list[str], env: dict, bare: bool = True) -> tuple[float, str]:
    """Wall seconds of one process at the reference host speed, and its
    stdout. The host factor comes from calibrations right before and after:
    a bare interpreter start, or with ``bare=False`` the in-process unit
    (for the import floors, one of which is itself a bare start)."""
    import measure

    if bare:
        calibrate, reference = (lambda: measure.bare_start(env)), measure.PROC_REFERENCE_S
    else:
        calibrate, reference = measure.calibrate, measure.CAL_REFERENCE_S
    before = calibrate()
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True, text=True)
    elapsed = perf_counter() - start
    factor = (before + calibrate()) / 2.0 / reference
    return elapsed / factor, done.stdout


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def floors(env: dict) -> dict:
    """Start-up floors: bare interpreter, + numpy, + gridmix.cli (medians
    at the reference host speed)."""
    exe = sys.executable
    count = "import sys; print(sum(m == 'gridmix' or m.startswith('gridmix.') for m in sys.modules))"
    samples: dict[str, list[float]] = {"python": [], "numpy": [], "gridmix": []}
    modules = 0
    for _ in range(FLOOR_REPEATS):
        samples["python"].append(timed([exe, "-c", "pass"], env, bare=False)[0])
        samples["numpy"].append(timed([exe, "-c", "import numpy"], env, bare=False)[0])
        seconds, out = timed([exe, "-c", f"import gridmix.cli; {count}"], env, bare=False)
        samples["gridmix"].append(seconds)
        modules = int(out)
    ms = {k: statistics.median(v) * 1e3 for k, v in samples.items()}
    return {
        "import.python_ms": ms["python"],
        "import.numpy_ms": ms["numpy"],
        "import.gridmix_ms": ms["gridmix"] - ms["numpy"],
        "import.gridmix_modules": modules,
    }


# ---------------------------------------------------------------------------
# reference answers (untimed)


def cli_expect(argv: list[str]) -> dict:
    import reference
    import workloads as W

    if argv[0] != "solve":
        return {"exit": 0}
    flags, i = {}, 2
    while i < len(argv):
        if argv[i] == "--oracle":
            flags["--oracle"], i = True, i + 1
        else:
            flags[argv[i]], i = argv[i + 1], i + 2
    variant = W.CoefficientVariant(flags.get("--variant", "as-printed").replace("-", "_"))
    if "--base" in flags:
        base = W.catalog.get_scenario(flags["--base"], variant)
        scenario = W.model.load_scenario_file(ROOT / argv[1], base=base)
    else:
        scenario = W.catalog.get_scenario(argv[1], variant)
    if "--objective" in flags:
        scenario = scenario.with_objective(W.ObjectiveMode(flags["--objective"]))
    ref = reference.solve_one(W.model.compile_scenario(scenario))
    expect = {"exit": EXIT_BY_STATUS[ref["status"]]}
    if flags.get("--format") == "json":
        expect.update(status=ref["status"], objective=ref["objective"])
    return expect


def write_base_files(seed: int) -> list[str]:
    import workloads as W

    WORK.mkdir(exist_ok=True)
    paths = []
    for i, doc in enumerate(W.base_file_docs(seed)):
        path = WORK / f"base_{seed}_{i}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        paths.append(str(path.relative_to(ROOT)))
    return paths


def references(workload: str, seed: int, trace: bool, base_files: list[str]) -> dict:
    import reference
    import workloads as W
    from dataclasses import replace

    refs: dict = {"base_files": base_files}
    if trace:
        argvs = W.cli_blocks(seed, base_files)
        refs["cli_expect"] = [cli_expect(next(argvs)) for _ in range(max(W.TRACE_OPS["cli_cold"], W.CLI_BLOCK_OPS))]
    if workload in ("solve_mix", "verify"):
        shapes = W.shape_pool(seed, max_vars=4 if workload == "verify" else None)
        refs["shapes"] = [reference.solve_one(W.model.compile_scenario(s.scenario)) for s in shapes]
    if workload == "verify":
        program, objectives = W.corner_objectives()
        refs["corner"] = {
            name: reference.solve_one(replace(program, objective=tuple(vec)))["objective"] for name, vec in objectives
        }
    if workload == "sweep":
        for kind, specs in zip(("short", "long"), W.sweep_specs(seed)):
            refs[kind] = [
                reference.solve_sweep([
                    W.model.compile_scenario(spec.scenario.with_cap(W.analysis.CAP_FIELDS[spec.param], v))
                    for v in spec.values
                ])
                for spec in specs
            ]
    return refs


# ---------------------------------------------------------------------------
# measured runs


def run_cli_cold(seed: int, seconds: float, env: dict, base_files: list[str]) -> dict:
    """Closed loop, one client: each op is a fresh ``python -m gridmix.cli``.
    The run ends on a whole block, so every run has the same command mix."""
    import measure
    import workloads as W

    argvs = W.cli_blocks(seed, base_files)
    latencies: list[float] = []
    marks: list[tuple[int, float]] = []
    failures: Counter = Counter()
    peak_kb = 0
    busy = 0.0
    while busy < seconds or len(latencies) % W.CLI_BLOCK_OPS:
        argv = next(argvs)
        expect = cli_expect(argv)
        marks.append((len(latencies), measure.bare_start(env)))
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridmix.cli", *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        latencies.append(elapsed)
        busy += elapsed
        peak_kb = max(peak_kb, usage.ru_maxrss)
        wrong = W.check_cli(proc.returncode, out.decode(), expect)
        if wrong:
            failures[wrong] += 1
    marks.append((len(latencies), measure.bare_start(env)))
    factors = measure.host_factors(len(latencies), marks, measure.PROC_REFERENCE_S)
    summary = measure.summarize(latencies, factors, "cli_cold")
    return {"attempted": len(latencies), "failures": failures, "summary": summary, "peak_kb": peak_kb}


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict, refs: dict) -> dict:
    """Run an in-process workload in a fresh worker. The worker is not
    pinned: it calibrates itself, and the kernel may move it off a CPU
    that something else wants."""
    with unpinned():
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "run", workload, str(seed), repr(seconds), "1" if trace else "0"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
    proc.stdin.write(json.dumps(refs).encode())
    proc.stdin.close()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["peak_kb"] = usage.ru_maxrss
    return result


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one run; returns (result line, details)."""
    import workloads as W

    env = child_env()
    pin_one_cpu()
    firstcall = [sys.executable, str(WORKER), "firstcall", workload]
    timed(firstcall, env)                         # warms __pycache__ once
    setup = [] if trace else [timed(firstcall, env)[0] for _ in range(SETUP_REPEATS)]
    floor = floors(env)
    base_files = write_base_files(seed)
    if workload == "cli_cold" and not trace:
        result = run_cli_cold(seed, seconds, env, base_files)
    else:
        result = run_worker(workload, seed, seconds, trace, env, references(workload, seed, trace, base_files))

    failures = Counter(result["failures"])
    disagreements = {kind: n for kind, n in failures.items() if kind in W.ORACLE_FAILURES}
    failed = sum(n for kind, n in failures.items() if kind not in W.ORACLE_FAILURES)
    attempted = result["attempted"]
    if trace:
        metrics = {name: (value, "count" if name == "import.gridmix_modules" else "ms")
                   for name, value in floor.items()}
        metrics.update({name: tuple(pair) for name, pair in result["layers"].items()})
    else:
        summary = result["summary"]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (summary["ops_per_s"], "ops/s"),
            "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
            "latency_tail_ms": (summary["latency_tail_ms"], "ms"),
            "ok_ratio": (1.0 - failed / attempted, "1"),
            "peak_rss_mb": (result["peak_kb"] / 1024.0, "MB"),
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "floors_ms": floor,
        "failed_ratio": failed / attempted,
        "failures": {kind: n for kind, n in failures.items() if kind not in disagreements},
        "oracle_disagreements": disagreements,
        "oracle_disagreement_ratio": sum(disagreements.values()) / attempted,
        "setup_s_samples": setup,
    }
    if trace:
        details.update({k: result[k] for k in ("spans", "untraced", "traced")})
    else:
        details["latency"] = {k: v for k, v in result["summary"].items() if k not in metrics}
    return line, details


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, in fresh processes; one table."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            details, line = (json.loads(text) for text in done.stdout.strip().splitlines()[-2:])
            results[f"{workload}/trace{trace}"] = {"result": line, "details": details}
    print(f"{'workload':<10} {'metric':<16} {'value':>14}  unit")
    for workload in WORKLOADS:
        entry = results[f"{workload}/trace0"]
        for name, metric in entry["result"]["metrics"].items():
            print(f"{workload:<10} {name:<16} {metric['value']:>14.6g}  {metric['unit']}")
        details = entry["details"]
        print(f"{workload:<10} {'failed_ratio':<16} {details['failed_ratio']:>14.6g}  1"
              f"   (tail = p{details['latency']['tail_pct']:g} of {details['latency']['samples']} samples)")
        if details["oracle_disagreements"]:
            print(f"{workload:<10} {'oracle_disagree':<16} {details['oracle_disagreement_ratio']:>14.6g}  1")
    sha = results["cli_cold/trace0"]["details"]["environment"]["git_sha"][:12]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{sha}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    args = parser.parse_args(argv)
    if not (SRC / "gridmix" / "__init__.py").is_file():
        print(f"gridmix sources not found under {SRC}; run from a gridmix checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --all")
    sys.path.insert(0, str(SRC))
    line, details = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
