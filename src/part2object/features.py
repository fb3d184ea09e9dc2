"""Cluster feature fusion, robust to noisy member features.

A cluster's feature is a similarity-weighted average of its member point
features: points that agree with the cluster mean get large weights, outliers
get small ones. Weights are clamped at zero so the result stays a convex
combination of the members.
"""

import logging

import numpy as np

from .errors import AllZeroFeatures

log = logging.getLogger(__name__)

# Below this weight mass the similarity weighting is meaningless and we fall
# back to the plain mean.
DEGENERATE_WEIGHT_EPS = 1e-8


def fuse_feature(point_features):
    """Fuse member point features into one cluster feature.

    Zero vectors are dropped before fusion (they carry no signal, e.g. points
    never covered by a 2D projection). The remaining members are weighted by
    their cosine similarity to the member mean, clamped at zero, normalized to
    sum to one, and summed. If the total weight collapses (all members nearly
    orthogonal to the mean, or the mean itself is zero) the plain mean is
    returned instead and a warning is logged.

    Args:
        point_features: (m, C) array-like of member features, m >= 1.

    Returns:
        (C,) float32 fused feature.

    Raises:
        AllZeroFeatures: every member is a zero vector.
    """
    feats = np.atleast_2d(np.asarray(point_features, dtype=np.float64))
    if feats.shape[0] == 0:
        raise AllZeroFeatures("no point features supplied")

    norms = np.linalg.norm(feats, axis=1)
    nonzero = norms > 0.0
    if not nonzero.all():
        feats, norms = feats[nonzero], norms[nonzero]
        if feats.shape[0] == 0:
            raise AllZeroFeatures("all point features are zero vectors")

    mean = feats.mean(axis=0)
    mean_norm = np.linalg.norm(mean)
    if mean_norm <= DEGENERATE_WEIGHT_EPS:
        log.warning("degenerate fusion (zero mean feature); using plain mean")
        return mean.astype(np.float32)

    sims = feats @ mean / (norms * mean_norm)
    weights = np.maximum(sims, 0.0)
    total = weights.sum()
    if total <= DEGENERATE_WEIGHT_EPS:
        log.warning("degenerate fusion (weight mass %.3g); using plain mean", total)
        return mean.astype(np.float32)

    fused = (weights / total) @ feats
    return fused.astype(np.float32)
