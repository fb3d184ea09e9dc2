import numpy as np
import pytest

from part2object.errors import AllZeroFeatures
from part2object.features import fuse_feature


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
    assert np.allclose(fuse_feature([v]), v, atol=1e-6)


def test_fuse_identical_members_is_identity():
    v = np.array([2.0, 1.0, 0.5])
    assert np.allclose(fuse_feature([v] * 5), v, atol=1e-6)


def test_fuse_against_hand_oracle():
    # mean (2/3, 1/3); weights (2, 2, 1)/sqrt(5) -> normalized (0.4, 0.4, 0.2)
    out = fuse_feature([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert np.allclose(out, (0.8, 0.2), atol=1e-6)
    assert np.allclose(out, fuse_oracle([(1, 0), (1, 0), (0, 1)]), atol=1e-6)


def test_fuse_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 32))
        size = int(rng.integers(1, 40))
        feats = rng.standard_normal((size, dim))
        got = fuse_feature(feats)
        want = fuse_oracle(feats)
        assert np.allclose(got, want, atol=1e-6, rtol=1e-6)


def test_fuse_permutation_invariant():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 8))
    base = fuse_feature(feats)
    for _ in range(5):
        perm = rng.permutation(12)
        assert np.allclose(fuse_feature(feats[perm]), base, atol=1e-6)


def test_fuse_output_is_convex_combination():
    rng = np.random.default_rng(5)
    feats = rng.random((20, 6)) + 0.1
    out = fuse_feature(feats)
    assert (out >= feats.min(axis=0) - 1e-6).all()
    assert (out <= feats.max(axis=0) + 1e-6).all()


def test_fuse_downweights_outlier_versus_plain_mean():
    v = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    members = [v] * 6 + [u]
    fused = fuse_feature(members)
    mean = np.mean(members, axis=0)
    cos_to_v = [a @ v / (np.linalg.norm(a) * np.linalg.norm(v)) for a in (fused, mean)]
    assert cos_to_v[0] >= cos_to_v[1]


def test_fuse_drops_zero_vectors():
    out = fuse_feature([(0.0, 0.0), (3.0, 0.0)])
    assert np.allclose(out, (3.0, 0.0), atol=1e-6)


def test_fuse_all_zero_raises():
    with pytest.raises(AllZeroFeatures):
        fuse_feature([(0.0, 0.0), (0.0, 0.0)])


def test_fuse_degenerate_mean_falls_back_to_plain_mean():
    out = fuse_feature([(1.0, 0.0), (-1.0, 0.0)])
    assert np.allclose(out, (0.0, 0.0))
