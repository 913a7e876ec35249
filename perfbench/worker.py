"""Child process of the benchmark.

    python3 perfbench/worker.py firstcall WORKLOAD
        import gridmix and make the first call into every public function
        the workload uses; run.py times this process for ``setup_s``.
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
        read reference answers (JSON) on stdin, run the workload in this
        process and print one JSON result line. The process holds only
        gridmix and the benchmark's own inputs, so its peak RSS is the
        workload's.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gridmix  # noqa: E402,F401  (first import is part of set-up)

import measure  # noqa: E402
import workloads as W  # noqa: E402


def firstcall(workload: str) -> None:
    catalog, model, lp, analysis = W.catalog, W.model, W.lp, W.analysis
    if workload == "cli_cold":
        for argv in (
            ["list"],
            ["solve", "m1_flat_demand", "--format", "json"],
            ["solve", "m3_shared_space", "--oracle", "--format", "csv"],
            ["sweep", "m4_nuclear", "--param", "land_ft2", "--from", "1e9", "--to", "5e10", "--steps", "20"],
            ["audit", "--strict"],
            ["derive"],
        ):
            W.run_cli_in_process(argv)
    elif workload == "solve_mix":
        scenario = catalog.get_scenario("m4_nuclear")
        model.report(scenario, lp.solve(model.compile_scenario(scenario)))
    elif workload == "sweep":
        analysis.sweep(catalog.get_scenario("m4_nuclear"), "land_ft2", [1e9, 5e10])
    else:
        program, objectives = W.corner_objectives()
        solution = lp.solve(program)
        analysis.oracle_solve(program)
        lp.check_feasible(program, solution.values)
        analysis.corner_report(program, objectives)
        analysis.audit_reference_results()


def _timed_pass(job, items, failures: Counter) -> tuple[float, float]:
    """ops/s and median ms of one calibrated pass over *items*."""
    latencies: list[float] = []
    marks: list[tuple[int, float]] = []
    measure.run_batch(job, items, latencies, failures, marks)
    factors = measure.host_factors(len(latencies), marks)
    normal = sorted(value / factor for value, factor in zip(latencies, factors))
    return len(normal) / sum(normal), measure.nearest_rank(normal, 50.0) * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    refs = json.loads(sys.stdin.read())
    job = W.IN_PROCESS[workload](seed, refs)
    failures: Counter = Counter()
    if not trace:
        latencies, factors, failures = measure.measure(job, seconds, W.BATCH_OPS[workload])
        summary = measure.summarize(latencies, factors, workload)
        return {"attempted": len(latencies), "failures": failures, "summary": summary}

    from tracing import Tracer

    # The same fixed prefix of ops runs untraced, traced, and untraced
    # again, so counts repeat exactly for a seed and the difference from
    # the mean of the untraced passes is the tracing overhead.
    items = job.batch(W.TRACE_OPS[workload])
    # One block of the cli_cold argv mix, in process, so that the cli,
    # derivation and audit layers are measured on every workload. Inputs
    # are built before the tracer is installed, so no span is the
    # benchmark's own.
    cli_job = W.CliInProcess(seed, refs)
    cli_items = [] if workload == "cli_cold" else cli_job.batch(W.CLI_BLOCK_OPS)
    rate_1, p50_1 = _timed_pass(job, items, Counter())
    tracer = Tracer()
    tracer.install()
    try:
        traced_rate, traced_p50 = _timed_pass(job, items, failures)
        measure.run_batch(cli_job, cli_items, [], failures)
    finally:
        tracer.uninstall()
    rate_2, p50_2 = _timed_pass(job, items, Counter())
    plain_rate, plain_p50 = (rate_1 + rate_2) / 2, (p50_1 + p50_2) / 2
    layers = tracer.layer_metrics()
    layers["trace.overhead_ops_per_s"] = (traced_rate - plain_rate, "ops/s")
    layers["trace.overhead_latency_p50_ms"] = (traced_p50 - plain_p50, "ms")
    return {
        "attempted": len(items) + len(cli_items),
        "failures": failures,
        "layers": layers,
        "spans": len(tracer.spans),
        "untraced": {"ops_per_s": plain_rate, "latency_p50_ms": plain_p50, "ops": len(items)},
        "traced": {"ops_per_s": traced_rate, "latency_p50_ms": traced_p50, "ops": len(items)},
    }


def main(argv: list[str]) -> int:
    if argv[0] == "firstcall":
        firstcall(argv[1])
        return 0
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(run(workload, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
