import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad import gapmetrics, trainer
from glad.gapmetrics import (accuracy_gap, confusion_matrix, mean_class_accuracy,
                             scene_distance, temporal_distance)
from oracles import scene_distance_one_matrix, unit_rows


def sorted_pair_emd(p, q):
    """Oracle for equal-size lists: mean absolute gap after sorting both."""
    return float(np.mean(np.abs(np.sort(p) - np.sort(q))))


def double_loop_scene_distance(u, v):
    """Independently coded double-loop over both feature sets."""
    def cos_dist(a, b):
        return 1.0 - float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    left = sum(min(cos_dist(a, b) for b in v) for a in u) / len(u)
    right = sum(min(cos_dist(b, a) for a in u) for b in v) / len(v)
    return 0.5 * (left + right)


def test_scene_distance_hand_example():
    u = unit_rows([[1.0, 0.0]])
    v = unit_rows([[1.0, 0.0], [0.0, 1.0]])
    assert scene_distance(u, v) == pytest.approx(0.25, abs=1e-12)


def test_scene_distance_identical_sets_zero():
    rng = np.random.default_rng(0)
    u = unit_rows(rng.normal(size=(7, 5)))
    assert scene_distance(u, u) == pytest.approx(0.0, abs=1e-12)


def test_scene_distance_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        nu = int(rng.integers(1, 31))
        nv = int(rng.integers(1, 31))
        d = int(rng.integers(2, 17))
        a = rng.normal(size=(nu, d))
        b = rng.normal(size=(nv, d))
        u = unit_rows(a)
        v = unit_rows(b)
        got = scene_distance(u, v)
        assert got == pytest.approx(double_loop_scene_distance(a, b), abs=1e-9)
        assert scene_distance(v, u) == pytest.approx(got, abs=1e-12)


def blocked_one_matrix_and_swapped(ls: int, lt: int, seed: int) -> tuple:
    """Both distances of near-copies of 4 shared vectors: every minimum
    distance is tiny, so a last-bit change in any maximum dot product shows
    in the mean."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(4, 64))
    u, v = (unit_rows(centres[np.arange(n) % 4] + 1e-3 * rng.normal(size=(n, 64)))
            for n in (ls, lt))
    return scene_distance(u, v), scene_distance_one_matrix(u, v), scene_distance(v, u)


B = gapmetrics._scene_rows(300)  # source rows per block against 300 target rows


@pytest.mark.parametrize("ls,lt", [(ls, lt) for lt in (1, 300)
                                   for ls in (1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7)]
                         + [(4 * gapmetrics._scene_rows(2000) + 7, 2000)])
def test_blocked_scene_distance_equals_one_matrix_bit_for_bit(ls, lt):
    """Row blocks give the one-matrix distance exactly, and swapping the
    sets gives the same distance. Both run under one BLAS thread, in a
    forked worker: a threaded BLAS splits one product's rows at points set
    by the thread count, which moves last bits of the one matrix as well."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                             initializer=trainer._one_blas_thread) as pool:
        blocked, whole, swapped = pool.submit(blocked_one_matrix_and_swapped,
                                              ls, lt, ls * 7919 + lt).result()
    assert blocked == whole
    assert swapped == pytest.approx(blocked, abs=1e-12)


def test_scene_distance_memory_is_one_block():
    """tracemalloc sees numpy's buffers: the distance between 4,000 and 2,000
    scene features must not hold a split-sized matrix (one float64
    (4000, 2000) matrix is 64 MB)."""
    rng = np.random.default_rng(3)
    u = unit_rows(rng.normal(size=(4000, 64)))
    v = unit_rows(rng.normal(size=(2000, 64)))
    tracemalloc.start()
    try:
        scene_distance(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_emd_hand_example():
    assert temporal_distance([2, 2], [4, 6]) == pytest.approx(3.0, abs=1e-12)


def test_emd_identical_lists_zero():
    assert temporal_distance([5, 9, 9, 30], [5, 9, 9, 30]) == 0.0


def test_emd_single_points():
    assert temporal_distance([10], [25]) == pytest.approx(15.0, abs=1e-12)


def test_emd_matches_sorted_pair_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        p = rng.integers(1, 1001, size=n).astype(float)
        q = rng.integers(1, 1001, size=n).astype(float)
        assert temporal_distance(p, q) == pytest.approx(sorted_pair_emd(p, q), abs=1e-9)


def test_emd_unequal_sizes():
    # CDF areas computed by hand: p puts mass 1 at 0, q splits between 0 and 2
    assert temporal_distance([0.0], [0.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=12),
       st.lists(st.floats(0, 100), min_size=1, max_size=12),
       st.lists(st.floats(0, 100), min_size=1, max_size=12))
@settings(max_examples=100)
def test_emd_triangle_inequality(p, q, r):
    assert temporal_distance(p, r) <= (
        temporal_distance(p, q) + temporal_distance(q, r) + 1e-9)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=12),
       st.lists(st.floats(0, 100), min_size=1, max_size=12))
@settings(max_examples=100)
def test_emd_symmetric_and_nonnegative(p, q):
    d = temporal_distance(p, q)
    assert d >= 0.0
    assert temporal_distance(q, p) == pytest.approx(d, abs=1e-12)


def test_confusion_matrix_counts():
    cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 0], n_classes=3)
    assert cm.shape == (3, 3)
    assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1 and cm[2, 0] == 1
    assert cm.sum() == 4


def test_mca_perfect_and_zero():
    assert mean_class_accuracy(confusion_matrix([0, 1, 2], [0, 1, 2], 3)) == pytest.approx(100.0)
    assert mean_class_accuracy(confusion_matrix([0, 1], [1, 0], 2)) == pytest.approx(0.0)


def test_mca_weights_classes_equally():
    # class 0: 1/2 right, class 1: 1/1 right; unweighted mean = 75
    cm = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
    assert mean_class_accuracy(cm) == pytest.approx(75.0)


def test_accuracy_gap_table_values():
    assert accuracy_gap(76.7, 11.7) == pytest.approx(65.0, abs=1e-12)
