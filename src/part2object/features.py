"""Cluster feature fusion, robust to noisy member features.

A cluster's feature is a similarity-weighted average of its member point
features: points that agree with the cluster mean get large weights, outliers
get small ones. Weights are clamped at zero so the result stays a convex
combination of the members.

Every point's float64 norm is computed once per scene (point_norms), and a
fusion reads its members' norms from that array. The members' rows are
gathered block by block straight into one float64 matrix, so no float32 copy
of the cluster and no x*x temporary is held beside it. The mean, both matrix
products and the weight sum still run on that whole matrix, so every bit is
that of fusing the widened rows in one piece.
"""

import logging

import numpy as np

log = logging.getLogger(__name__)

# Below this weight mass the similarity weighting is meaningless and we fall
# back to the plain mean.
DEGENERATE_WEIGHT_EPS = 1e-8

# Rows per block of point_norms and of fuse_feature's gather: the largest
# temporary either holds beside its result.
BLOCK_ROWS = 1 << 14


def point_norms(point_features):
    """(N,) float64 norm of each row of the (N, C) point features.

    Computed in blocks of BLOCK_ROWS rows. A row's norm depends on that row
    alone, so this is bitwise np.linalg.norm(F.astype(np.float64), axis=1).
    """
    norms = np.empty(len(point_features))
    for start in range(0, len(point_features), BLOCK_ROWS):
        block = np.asarray(point_features[start:start + BLOCK_ROWS], dtype=np.float64)
        norms[start:start + BLOCK_ROWS] = np.linalg.norm(block, axis=1)
    return norms


def fuse_feature(point_features, ids, norms):
    """Fuse the features of the points `ids` into one cluster feature.

    norms is point_norms(point_features). Zero vectors are dropped before
    fusion (they carry no signal, e.g. points never covered by a 2D
    projection); when every member is one, the result is the float32 zero
    vector, and a cluster of that feature never merges by similarity. The
    remaining members are weighted by their cosine similarity to the member
    mean, clamped at zero, normalized to sum to one, and summed. If the total
    weight collapses (all members nearly orthogonal to the mean, or the mean
    itself is zero) the plain mean is returned instead and a warning is
    logged.

    Args:
        point_features: (N, C) point features.
        ids: (m,) integer rows of the members.
        norms: (N,) float64 row norms of point_features.

    Returns:
        (C,) float32 fused feature.
    """
    ids = np.asarray(ids)
    kept = ids[norms[ids] > 0.0]
    if kept.size == 0:
        return np.zeros(point_features.shape[1], dtype=np.float32)
    feats = np.empty((kept.size, point_features.shape[1]))
    for start in range(0, kept.size, BLOCK_ROWS):
        feats[start:start + BLOCK_ROWS] = point_features[kept[start:start + BLOCK_ROWS]]
    norms = norms[kept]

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
