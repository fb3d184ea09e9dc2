import math

import numpy as np
import pytest

from part2object.spatial import PriorBox, labeled_close_pairs


def brute_min_distance(pa, pb):
    best = math.inf
    for p in pa:
        for q in pb:
            best = min(best, float(np.linalg.norm(p - q)))
    return best


def test_labeled_close_pairs_handles_negative_coordinates():
    rng = np.random.default_rng(4)
    pts = rng.random((200, 3)) * 0.6 - 0.3
    labels = rng.integers(0, 8, size=200)
    cutoff = 0.07
    got = labeled_close_pairs(pts, labels, cutoff)
    want = {}
    for la in range(8):
        for lb in range(la + 1, 8):
            pa, pb = pts[labels == la], pts[labels == lb]
            if pa.size and pb.size:
                d = brute_min_distance(pa, pb)
                if d <= cutoff:
                    want[(la, lb)] = d
    assert set(got) == set(want)


def test_labeled_close_pairs_equals_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = 300
        pts = rng.random((n, 3)) * 1.2
        labels = rng.integers(0, 12, size=n)
        cutoff = 0.08
        got = labeled_close_pairs(pts, labels, cutoff)

        want = {}
        for la in range(12):
            for lb in range(la + 1, 12):
                pa, pb = pts[labels == la], pts[labels == lb]
                if pa.size == 0 or pb.size == 0:
                    continue
                d = brute_min_distance(pa, pb)
                if d <= cutoff:
                    want[(la, lb)] = d
        assert set(got) == set(want)
        for key in want:
            assert abs(got[key] - want[key]) < 1e-9


def test_prior_box_containment():
    box = PriorBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    pts = np.array([[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [1.1, 0.5, 0.5]])
    assert box.contains(pts).tolist() == [True, True, False]
    assert box.fraction_inside(pts) == pytest.approx(2.0 / 3.0)


def test_prior_box_rejects_inverted_corners():
    with pytest.raises(ValueError):
        PriorBox((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))
