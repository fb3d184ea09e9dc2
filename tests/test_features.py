import tracemalloc

import numpy as np
import pytest

from part2object.features import BLOCK_ROWS, fuse_feature, point_norms


def fuse(feats):
    """fuse_feature over every row of feats."""
    feats = np.atleast_2d(np.asarray(feats))
    return fuse_feature(feats, np.arange(len(feats)), point_norms(feats))


def fuse_oracle(feats):
    """Direct loop evaluation of the fusion rule, independent of the library."""
    feats = [np.asarray(f, dtype=np.float64) for f in feats]
    feats = [f for f in feats if np.sqrt((f * f).sum()) > 0]
    mean = sum(feats) / len(feats)
    mean_norm = np.sqrt((mean * mean).sum())
    if mean_norm <= 1e-8:
        return mean
    weights = []
    for f in feats:
        w = (f * mean).sum() / (np.sqrt((f * f).sum()) * mean_norm)
        weights.append(max(w, 0.0))
    total = sum(weights)
    if total <= 1e-8:
        return mean
    out = np.zeros_like(mean)
    for w, f in zip(weights, feats):
        out += (w / total) * f
    return out


def test_fuse_single_member_is_identity():
    v = np.array([0.3, -1.2, 4.0])
    assert np.allclose(fuse([v]), v, atol=1e-6)


def test_fuse_identical_members_is_identity():
    v = np.array([2.0, 1.0, 0.5])
    assert np.allclose(fuse([v] * 5), v, atol=1e-6)


def test_fuse_against_hand_oracle():
    # mean (2/3, 1/3); weights (2, 2, 1)/sqrt(5) -> normalized (0.4, 0.4, 0.2)
    out = fuse([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert np.allclose(out, (0.8, 0.2), atol=1e-6)
    assert np.allclose(out, fuse_oracle([(1, 0), (1, 0), (0, 1)]), atol=1e-6)


def test_fuse_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 32))
        size = int(rng.integers(1, 40))
        feats = rng.standard_normal((size, dim))
        got = fuse(feats)
        want = fuse_oracle(feats)
        assert np.allclose(got, want, atol=1e-6, rtol=1e-6)


def test_fuse_permutation_invariant():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 8))
    base = fuse(feats)
    for _ in range(5):
        perm = rng.permutation(12)
        assert np.allclose(fuse(feats[perm]), base, atol=1e-6)


def test_fuse_output_is_convex_combination():
    rng = np.random.default_rng(5)
    feats = rng.random((20, 6)) + 0.1
    out = fuse(feats)
    assert (out >= feats.min(axis=0) - 1e-6).all()
    assert (out <= feats.max(axis=0) + 1e-6).all()


def test_fuse_downweights_outlier_versus_plain_mean():
    v = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    members = [v] * 6 + [u]
    fused = fuse(members)
    mean = np.mean(members, axis=0)
    cos_to_v = [a @ v / (np.linalg.norm(a) * np.linalg.norm(v)) for a in (fused, mean)]
    assert cos_to_v[0] >= cos_to_v[1]


def test_fuse_drops_zero_vectors():
    out = fuse([(0.0, 0.0), (3.0, 0.0)])
    assert np.allclose(out, (3.0, 0.0), atol=1e-6)


def test_fuse_all_zero_is_the_zero_vector():
    out = fuse([(0.0, 0.0), (0.0, 0.0)])
    assert out.dtype == np.float32 and out.tolist() == [0.0, 0.0]


def test_fuse_degenerate_mean_falls_back_to_plain_mean():
    out = fuse([(1.0, 0.0), (-1.0, 0.0)])
    assert np.allclose(out, (0.0, 0.0))


def fuse_reference(point_features):
    """fuse_feature as first written: norms recomputed on the kept rows, and
    the zero rows always filtered out by a copy. The literal reference."""
    feats = np.atleast_2d(np.asarray(point_features, dtype=np.float64))
    norms = np.linalg.norm(feats, axis=1)
    feats = feats[norms > 0.0]
    if feats.shape[0] == 0:
        return np.zeros(feats.shape[1], dtype=np.float32)
    mean = feats.mean(axis=0)
    mean_norm = np.linalg.norm(mean)
    if mean_norm <= 1e-8:
        return mean.astype(np.float32)
    sims = feats @ mean / (np.linalg.norm(feats, axis=1) * mean_norm)
    weights = np.maximum(sims, 0.0)
    total = weights.sum()
    if total <= 1e-8:
        return mean.astype(np.float32)
    return ((weights / total) @ feats).astype(np.float32)


def reference_cases():
    """(name, point features, member ids); ids None means every row."""
    rng = np.random.default_rng(17)
    with_zero_rows = rng.standard_normal((300, 16)).astype(np.float32)
    with_zero_rows[::7] = 0.0
    yield "random", rng.standard_normal((500, 32)).astype(np.float32), None
    yield "zero_rows", with_zero_rows, None
    yield "single_row", rng.standard_normal((1, 8)), None
    yield ("single_row_among_zeros",
           np.vstack([np.zeros((3, 4)), rng.standard_normal((1, 4))]), None)
    yield "degenerate_mean", np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]), None
    yield "degenerate_weights", np.array([(1e12, 1.0), (-1e12, 1.0)]), None
    yield "large_cluster", rng.standard_normal((20_000, 32)).astype(np.float32) + 0.3, None
    yield ("every_other_row", rng.standard_normal((1_000, 32)).astype(np.float32),
           np.arange(0, 1_000, 2))
    zero_at_edge = rng.standard_normal((BLOCK_ROWS + 50, 8)).astype(np.float32)
    zero_at_edge[BLOCK_ROWS - 3:BLOCK_ROWS + 2] = 0.0
    yield "zero_rows_at_block_edge", zero_at_edge, None
    yield ("over_two_blocks",
           rng.standard_normal((2 * BLOCK_ROWS + 7, 16)).astype(np.float32) + 0.1, None)


@pytest.mark.parametrize("name, feats, ids", list(reference_cases()),
                         ids=[name for name, _, _ in reference_cases()])
def test_fuse_is_bit_identical_to_the_literal_reference(name, feats, ids):
    ids = np.arange(len(feats)) if ids is None else ids
    got = fuse_feature(feats, ids, point_norms(feats))
    want = fuse_reference(feats[ids])
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_fuse_all_zero_rows_are_the_zero_vector_like_the_reference():
    feats = np.zeros((4, 3))
    for out in (fuse_reference(feats), fuse(feats)):
        assert out.dtype == np.float32 and out.tolist() == [0.0, 0.0, 0.0]


def test_point_norms_are_bitwise_numpy_norms_across_a_block_edge():
    rng = np.random.default_rng(19)
    feats = rng.standard_normal((BLOCK_ROWS + 9, 32)).astype(np.float32)
    feats[BLOCK_ROWS - 1:BLOCK_ROWS + 1] = 0.0
    want = np.linalg.norm(feats.astype(np.float64), axis=1)
    got = point_norms(feats)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fusion_holds_little_beyond_its_float64_rows():
    # A float32 gather, its float64 copy and a norm temporary of the cluster
    # would take about 2.5 times its float64 rows.
    feats = np.random.default_rng(29).standard_normal((100_000, 32)).astype(np.float32)
    ids, norms = np.arange(len(feats)), point_norms(feats)
    tracemalloc.start()
    try:
        fuse_feature(feats, ids, norms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * feats.size * 8
