"""Closed-loop measurement with one client, and the latency summary.

The host this benchmark was built on is shared. For stretches of 0.1 s
to minutes every op runs up to ~1.9x slower, in CPU time as well as wall
time, so the cause is contention on the core and not descheduling. A
fixed calibration unit, interpreter and small-numpy work that does not
touch gridmix, slows by the same factor (per-round correlation 0.87-0.93,
see perfbench/README.md). So the loop times the calibration unit at
least every CAL_EVERY seconds of busy time, and every op's wall time is
divided by the host factor of its segment: the mean calibration time at
the segment's two ends over CAL_REFERENCE_S. The reported times are
therefore wall times on a host that runs the calibration unit in
CAL_REFERENCE_S; the raw figures are kept beside them.

Ops that are whole process starts (set-up and the cli_cold processes) are
calibrated with a bare interpreter start instead. Much of a start is
exec, mmap and page faults, which contention slows less than the unit, so
dividing by the unit's factor over-corrects them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np

CAL_UNITS = 10
CAL_REFERENCE_S = 0.5e-3    # CAL_UNITS undisturbed on the reference host
CAL_EVERY = 0.02            # seconds of busy time between calibrations
PROC_REFERENCE_S = 0.05     # a bare interpreter start undisturbed there
MIN_BEYOND = 10
# Per workload, the highest of p50/p75/p90/p99/p99.9 that keeps at least
# MIN_BEYOND samples beyond it at run_seconds=18 with a 1.5x margin in op rate,
# except solve_mix: its slowest ops move with host contention that the
# calibration corrects only in part (across ten seeds p99.9 spread 0.32 and
# p99 up to 0.12, also between runs of one seed), so it uses p95.
TAIL_PCT = {"cli_cold": 75.0, "solve_mix": 95.0, "sweep": 90.0, "verify": 99.0}
# A run whose consecutive quarters each keep MIN_BEYOND samples beyond the
# tail percentile reports the median of the quarters' tails, so that one
# burst the calibration misses moves one quarter and not the result.
TAIL_CHUNKS = 4

_CAL_BASE = np.eye(7, 13) * 4.0 + np.linspace(0.1, 1.0, 91).reshape(7, 13)


def _calibration_unit() -> float:
    body = _CAL_BASE.copy()
    for r in range(7):
        body[r] /= body[r, r]
        factors = body[:, r].copy()
        factors[r] = 0.0
        body -= np.outer(factors, body[r])
    acc = 0
    table = {}
    for i in range(150):
        acc += i * 3 % 7
        table[i & 15] = acc
    return float(body[0, -1]) + acc


def calibrate() -> float:
    """Seconds this host takes for CAL_UNITS calibration units now (after
    one untimed unit, so that a cold cache after a wait does not count)."""
    _calibration_unit()
    start = perf_counter()
    for _ in range(CAL_UNITS):
        _calibration_unit()
    return perf_counter() - start


def bare_start(env: dict) -> float:
    """Seconds a bare interpreter start (``python -c pass``) takes on this
    host now; the calibration for ops that are process starts."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return perf_counter() - start


def host_factors(n_ops: int, marks: list[tuple[int, float]],
                 reference: float = CAL_REFERENCE_S) -> list[float]:
    """Per-op host factor from (op index, calibration seconds) marks, each
    taken just before that op index; every op lies between two marks."""
    factors = [1.0] * n_ops
    for (start, before), (end, after) in zip(marks, marks[1:]):
        factor = (before + after) / 2.0 / reference
        for i in range(start, end):
            factors[i] = factor
    return factors


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of *pct* among *n* samples."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[_rank(len(ordered), pct) - 1]


def summarize(latencies: list[float], factors: list[float], workload: str) -> dict:
    """ops_per_s, latency_p50_ms and latency_tail_ms of one run at the
    reference host speed, with the raw figures and sample counts."""
    normal = [value / factor for value, factor in zip(latencies, factors)]
    pct = TAIL_PCT[workload]
    size = len(normal) // TAIL_CHUNKS
    chunks = TAIL_CHUNKS if size - _rank(size, pct) >= MIN_BEYOND else 1
    size = len(normal) // chunks
    tail = statistics.median(
        nearest_rank(sorted(normal[i * size:(i + 1) * size]), pct) for i in range(chunks)
    )
    return {
        "ops_per_s": len(normal) / sum(normal),
        "latency_p50_ms": statistics.median(normal) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_pct": pct,
        "tail_chunks": chunks,
        "samples": len(normal),
        "beyond_tail_per_chunk": size - _rank(size, pct),
        "host_factor_p50": statistics.median(factors),
        "raw_ops_per_s": len(latencies) / sum(latencies),
        "raw_p50_ms": statistics.median(latencies) * 1e3,
    }


def run_batch(workload, items, latencies: list[float], failures: Counter,
              marks: list[tuple[int, float]] | None = None) -> None:
    """Time each op of *items*, calibrating between ops when *marks* is
    given; check each result afterwards, untimed."""
    results = []
    since = CAL_EVERY
    for item in items:
        if marks is not None and since >= CAL_EVERY:
            marks.append((len(latencies), calibrate()))
            since = 0.0
        start = perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        elapsed = perf_counter() - start
        latencies.append(elapsed)
        since += elapsed
        results.append(result)
    if marks is not None:
        marks.append((len(latencies), calibrate()))
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            failures[f"raised_{type(result).__name__}"] += 1
            continue
        wrong = workload.check(item, result)
        if wrong:
            failures[wrong] += 1


def measure(workload, seconds: float, batch_ops: int) -> tuple[list[float], list[float], Counter]:
    """Run batches until the ops' busy time reaches *seconds*; returns
    latencies, host factors and failures."""
    latencies: list[float] = []
    marks: list[tuple[int, float]] = []
    failures: Counter = Counter()
    busy = 0.0
    while busy < seconds:
        done = len(latencies)
        run_batch(workload, workload.batch(batch_ops), latencies, failures, marks)
        busy += sum(latencies[done:])
    return latencies, host_factors(len(latencies), marks), failures
