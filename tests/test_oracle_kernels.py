"""The vertex oracle's kernels and the audit's work counts.

``_batch_solve`` must give the same bits as the Gauss-Jordan elimination
frozen below, which is the kernel as it stood before the argmax and swap
of the last column were dropped and the pivot test was shared: the same
solutions, byte for byte, -0.0 and singular systems included, and the same
nonsingular mask. ``_subsets`` must list ``itertools.combinations`` row for
row. The audit compiles each table's scenario once and tabulates each
printed point once.
"""

import itertools

import numpy as np
import pytest

from gridmix import analysis
from gridmix.analysis import SINGULAR_TOL, _batch_solve, _subsets, audit_reference_results
from gridmix.catalog import builtin_scenarios
from gridmix.model import ObjectiveMode, compile_scenario


def batch_solve_frozen(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k, n, _ = a.shape
    m = np.concatenate([a.astype(float), b.astype(float)[..., None]], axis=2)
    scale = np.max(np.abs(m[:, :, :n]), axis=2)
    ok = np.all(scale > 0.0, axis=1)
    scale = np.where(scale > 0.0, scale, 1.0)
    m /= scale[:, :, None]
    rows = np.arange(k)
    for col in range(n):
        pivot_row = np.argmax(np.abs(m[:, col:, col]), axis=1) + col
        swap = m[rows, pivot_row].copy()
        m[rows, pivot_row] = m[rows, col]
        m[rows, col] = swap
        pivots = m[:, col, col]
        ok &= np.abs(pivots) > SINGULAR_TOL
        safe = np.where(np.abs(pivots) > SINGULAR_TOL, pivots, 1.0)
        m[:, col, :] /= safe[:, None]
        factors = m[:, :, col].copy()
        factors[:, col] = 0.0
        m -= factors[:, :, None] * m[:, col : col + 1, :]
    return m[:, :, n], ok


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    expected, expected_ok = batch_solve_frozen(a.copy(), b.copy())
    points, ok = _batch_solve(a, b)
    assert points.dtype == expected.dtype and points.shape == expected.shape
    assert points.tobytes() == expected.tobytes()
    assert ok.tobytes() == expected_ok.tobytes()
    return ok


def random_batch(rng: np.random.Generator, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """k systems of n rows, each row at a magnitude from 1e-2 to 1e13 with
    some zero entries, some all-zero rows, some rows repeated or scaled
    (singular systems), and rhs entries with either sign or zero."""
    a = rng.uniform(-1.0, 1.0, (k, n, n)) * 10.0 ** rng.uniform(-2.0, 13.0, (k, n, 1))
    a[rng.random((k, n, n)) < 0.25] = 0.0
    a[rng.random((k, n)) < 0.05] = 0.0
    if n > 1:
        copies = rng.random(k) < 0.2
        a[copies, 1] = a[copies, 0] * rng.choice([1.0, -2.0, 1e-3], copies.sum())[:, None]
    b = rng.uniform(-1.0, 1.0, (k, n)) * 10.0 ** rng.uniform(-2.0, 13.0, (k, n))
    b[rng.random((k, n)) < 0.2] = 0.0
    b[rng.random((k, n)) < 0.05] = -0.0
    return a, b


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batch_solve_matches_the_frozen_kernel_on_seeded_batches(seed, n):
    a, b = random_batch(np.random.default_rng(seed * 10 + n), 400, n)
    ok = assert_same_bits(a, b)
    assert ok.any() and not ok.all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batch_solve_matches_the_frozen_kernel_on_exact_singular_cases(n):
    zero = np.zeros((1, n, n))
    ones = np.ones((1, n, n))
    eye = np.eye(n)[None]
    a = np.concatenate([zero, ones, eye, -eye, eye * 1e13, eye * 1e-2])
    b = np.concatenate([np.zeros((3, n)), np.full((1, n), -0.0), np.full((2, n), 7.0)])
    ok = assert_same_bits(a, b)
    assert ok.tolist() == [False, n == 1, True, True, True, True]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch_solve_pivots_at_the_singular_threshold(n):
    # Rows (1, 0, ...) and (1, t, 0, ...): eliminating the first column
    # leaves the pivot t exactly, so t = SINGULAR_TOL is singular and the
    # next float up is not.
    a = np.repeat(np.eye(n)[None], 2, axis=0)
    a[:, 1, 0] = 1.0
    a[:, 1, 1] = [SINGULAR_TOL, np.nextafter(SINGULAR_TOL, 1.0)]
    ok = assert_same_bits(a, np.ones((2, n)))
    assert ok.tolist() == [False, True]


def test_batch_solve_matches_the_frozen_kernel_on_every_catalog_subsystem():
    for scenario in builtin_scenarios():
        for mode in ObjectiveMode:
            lp = compile_scenario(scenario.with_objective(mode))
            if lp.var_count <= 4:
                idx = _subsets(len(lp.rows.rhs), lp.var_count)
                assert_same_bits(lp.rows.matrix[idx], lp.rows.rhs[idx])


def test_subsets_list_the_combinations_row_for_row():
    for r in range(12):
        for n in range(1, 5):
            index = _subsets(r, n)
            expected = list(itertools.combinations(range(r), n))
            assert index.dtype == np.intp
            assert index.shape == (len(expected), n)
            assert [tuple(row) for row in index.tolist()] == expected
            if n > r:
                assert index.shape == (0, n)
            assert _subsets(r, n) is index
            assert not index.flags.writeable


def test_the_audit_compiles_each_table_once_and_tabulates_each_point_once(monkeypatch):
    calls = {"compile_scenario": 0, "tabulate": 0}

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counted(name))
    audit = audit_reference_results()
    assert len(audit.tables) == 7
    assert calls == {"compile_scenario": 7, "tabulate": 5}
