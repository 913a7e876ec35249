"""The oracle's point-equality rule: ``_dedup`` and ``_near`` compare
every pair in one array, and must keep exactly the points that the
pair-by-pair loop below keeps. The loop is the rule as first written:
a point equals another when every coordinate is within
ROW_TOL * max(1, the largest |coordinate| of the pair), and ``_dedup``
walks the points in lexicographic order, keeping each point that equals
none kept before it.
"""

import numpy as np
import pytest

from gridmix.lp import ROW_TOL
from gridmix.oracle import _dedup, _near


def near_any(point: np.ndarray, others) -> bool:
    """Whether *point* equals one of *others*, by one ``_near`` call, as
    the audit tests a printed point against a region's vertices."""
    return bool(_near(point[None, :], np.asarray(others, dtype=float).reshape(-1, point.size)).any())


def near_any_pairwise(point: np.ndarray, others) -> bool:
    for q in others:
        span = max(1.0, float(np.max(np.abs(point))), float(np.max(np.abs(q))))
        if float(np.max(np.abs(point - q))) <= ROW_TOL * span:
            return True
    return False


def dedup_pairwise(points: np.ndarray) -> list[int]:
    kept: list[int] = []
    for idx in np.lexsort(points.T[::-1]) if points.size else ():
        if not near_any_pairwise(points[idx], points[kept]):
            kept.append(int(idx))
    return kept


def assert_same_rule(points: np.ndarray) -> list[int]:
    kept = _dedup(points)
    assert kept == dedup_pairwise(points)
    for point in points:
        for others in (points[:0], points[kept], points):
            assert near_any(point, list(map(tuple, others))) == near_any_pairwise(point, others)
    return kept


def test_no_points_and_a_single_point():
    assert assert_same_rule(np.empty((0, 3))) == []
    assert assert_same_rule(np.array([[4.0, 0.0, 2.5e9]])) == [0]
    assert near_any(np.array([1.0, 2.0]), []) is False


def test_one_vertex_repeated_six_times_keeps_the_first():
    points = np.array([[3.0, 1e7, 0.25]] * 6)
    assert assert_same_rule(points) == [0]


@pytest.mark.parametrize("scale", [0.5, 1.0, 1e3, 1e13])
def test_pairs_exactly_at_and_one_ulp_past_the_tolerance(scale):
    # The second coordinates differ by |0 - t| = t exactly, and the pair's
    # span is max(1, scale), so t = ROW_TOL * span is the last gap that counts as equal.
    span = max(1.0, scale)
    at = ROW_TOL * span
    past = np.nextafter(at, np.inf)
    assert assert_same_rule(np.array([[scale, 0.0], [scale, at]])) == [0]
    assert assert_same_rule(np.array([[scale, 0.0], [scale, past]])) == [0, 1]
    assert near_any(np.array([scale, 0.0]), [(scale, at)]) is True
    assert near_any(np.array([scale, 0.0]), [(scale, past)]) is False


def test_a_chain_depends_on_the_greedy_order():
    # A ~ B and B ~ C but not A ~ C: what survives depends on which point
    # the lexicographic walk meets first.
    a, b, c = 1.0, 1.0 + 0.9e-6, 1.0 + 1.8e-6
    assert assert_same_rule(np.array([[c], [b], [a]])) == [2, 0]      # A first: B dropped, C kept
    middle_first = np.array(
        [[1.0 + 0.5e-6, 1.0 - 0.9e-6], [1.0, 1.0], [1.0 + 0.6e-6, 1.0 + 0.9e-6]]
    )
    assert assert_same_rule(middle_first) == [1]                      # B first: both neighbours dropped


def test_coordinates_from_1e_minus_2_to_1e13_near_the_threshold():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        base = rng.uniform(-10.0, 10.0, (int(rng.integers(1, 5)), n)) * 10.0 ** rng.uniform(-2.0, 13.0, (1, n))
        base[rng.random(base.shape) < 0.2] = 0.0
        copies = base[rng.integers(0, len(base), int(rng.integers(1, 12)))]
        span = np.maximum(1.0, np.max(np.abs(copies), axis=1, keepdims=True))
        # gaps of 0.5 to 1.5 tolerances, so pairs fall on both sides of the rule
        jitter = ROW_TOL * span * rng.uniform(-1.5, 1.5, copies.shape) * (rng.random(copies.shape) < 0.5)
        points = np.concatenate([base, copies + jitter])
        assert_same_rule(points[rng.permutation(len(points))])
