"""Reference answers from HiGHS (``scipy.optimize.linprog``), computed
untimed before the measured loop.

gridmix LPs minimise or maximise over rows of <=, >= and = with variable
lower bounds. A sweep moves one <= cap, so its feasible points form a
suffix of the grid: the feasibility threshold is found by bisection and
the feasible points are then solved together as one block-diagonal LP,
whose optimum is the optimum of every block.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _rows(program):
    """(c, A_ub, b_ub, A_eq, b_eq, lower bounds) in minimisation form."""
    sign = 1.0 if program.sense.value == "minimize" else -1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in program.constraints:
        if row.relation.value == "<=":
            a_ub.append(row.coefficients)
            b_ub.append(row.rhs)
        elif row.relation.value == ">=":
            a_ub.append([-v for v in row.coefficients])
            b_ub.append(-row.rhs)
        else:
            a_eq.append(row.coefficients)
            b_eq.append(row.rhs)
    n = program.var_count
    return (
        sign * np.asarray(program.objective, dtype=float),
        np.asarray(a_ub, dtype=float).reshape(-1, n),
        np.asarray(b_ub, dtype=float),
        np.asarray(a_eq, dtype=float).reshape(-1, n),
        np.asarray(b_eq, dtype=float),
        np.asarray(program.lower_bounds, dtype=float),
    )


def _highs(c, a_ub, b_ub, a_eq, b_eq, lower):
    bounds = np.column_stack([lower, np.full(lower.size, np.inf)])
    res = linprog(
        c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if a_eq.shape[0] else None,
        bounds=bounds,
        method="highs",
    )
    if res.status not in _STATUS:
        raise RuntimeError(f"HiGHS gave no verdict: {res.message}")
    return res


def solve_one(program) -> dict:
    """Status, objective and point of *program* according to HiGHS."""
    res = _highs(*_rows(program))
    status = _STATUS[res.status]
    if status != "optimal":
        return {"status": status, "objective": None, "point": None}
    return {
        "status": status,
        "objective": float(np.dot(program.objective, res.x)),
        "point": [float(v) for v in res.x],
    }


def _feasible(program) -> bool:
    c, a_ub, b_ub, a_eq, b_eq, lower = _rows(program)
    return _STATUS[_highs(np.zeros_like(c), a_ub, b_ub, a_eq, b_eq, lower).status] == "optimal"


def solve_sweep(programs: list) -> list[dict]:
    """References for LPs that differ only in one growing <= cap."""
    lo, hi = 0, len(programs)           # first feasible index lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(programs[mid]):
            hi = mid
        else:
            lo = mid + 1
    refs = [{"status": "infeasible", "objective": None} for _ in programs[:lo]]
    feasible = programs[lo:]
    if not feasible:
        return refs
    parts = [_rows(p) for p in feasible]
    if any(part[3].shape[0] for part in parts):
        raise ValueError("sweep references expect inequality rows only")
    res = _highs(
        np.concatenate([part[0] for part in parts]),
        sparse.block_diag([part[1] for part in parts], format="csc"),
        np.concatenate([part[2] for part in parts]),
        np.zeros((0, sum(part[0].size for part in parts))),
        np.zeros(0),
        np.concatenate([part[5] for part in parts]),
    )
    if _STATUS[res.status] != "optimal":
        raise RuntimeError(f"sweep batch is {_STATUS[res.status]} past the feasibility threshold")
    offset = 0
    for program in feasible:
        n = program.var_count
        refs.append({"status": "optimal", "objective": float(np.dot(program.objective, res.x[offset:offset + n]))})
        offset += n
    return refs
