"""Prior-guided hierarchical clustering over super-points.

Each round pairs up clusters that are spatially adjacent (closest points
within T) and semantically similar (similarity rank within the top K fraction
of this round's candidate pairs), vetoes pairs that straddle an objectness
prior box, and unions the survivors into the next layer. Clusters that stop
merging are the objects; the children that formed an object are its parts.

Two clusters are adjacent after a union exactly when some pair of their
members was adjacent before it, so point-level adjacency is computed once,
between the layer-0 super-points, and each round contracts that edge list
onto the next layer instead of scanning the points again.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroFeatures
from .features import fuse_feature
from .scene_io import Instance, InstanceSet
from .spatial import PriorBox, labeled_close_pairs

HIERARCHY_SCHEMA = "p2o.hierarchy/1"


@dataclass
class MergeParams:
    K_fraction: float = 0.6
    T: float = 0.05
    max_layers: int = 10
    inside_frac: float = 0.9
    outside_frac: float = 0.1
    min_object_points: int = 50

    def __post_init__(self):
        if not (0.0 < self.K_fraction <= 1.0):
            raise ValueError("K_fraction must be in (0, 1]")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")
        if not (0.0 < self.inside_frac <= 1.0):
            raise ValueError("inside_frac must be in (0, 1]")
        if not (0.0 <= self.outside_frac < 1.0):
            raise ValueError("outside_frac must be in [0, 1)")
        if self.outside_frac >= self.inside_frac:
            raise ValueError("outside_frac must be < inside_frac")
        if self.min_object_points < 1:
            raise ValueError("min_object_points must be >= 1")


@dataclass
class Cluster:
    layer: int
    index: int
    point_ids: np.ndarray
    children: list = field(default_factory=list)

    def __post_init__(self):
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64)
        if self.point_ids.size == 0:
            raise ValueError("cluster must contain at least one point")


@dataclass
class LayerLog:
    """What happened in one merge round, pair indices into the source layer."""

    accepted: list = field(default_factory=list)
    rejected_stop: list = field(default_factory=list)
    n_candidates: int = 0


@dataclass
class Hierarchy:
    layers: list
    features: list
    merge_log: list

    @property
    def n_points(self):
        return int(sum(c.point_ids.size for c in self.layers[0]))


def _as_point_sets(layer):
    return [c.point_ids if isinstance(c, Cluster) else np.asarray(c, dtype=np.int64)
            for c in layer]


def candidate_pairs(layer, positions, t):
    """All (i, j, distance) with i < j and closest-point distance <= t.

    Grid accelerated: cluster pairs whose points never co-occupy adjacent
    t-sized grid cells are never evaluated. run_hierarchy calls this once,
    on layer 0; later layers get their pairs from contract_edges.
    """
    sets = _as_point_sets(layer)
    n_points = positions.shape[0]
    labels = np.full(n_points, -1, dtype=np.int64)
    used = []
    for i, ids in enumerate(sets):
        labels[ids] = i
        used.append(ids)
    used = np.concatenate(used) if used else np.empty(0, dtype=np.int64)
    dists = labeled_close_pairs(positions[used], labels[used], t)
    return sorted((i, j, d) for (i, j), d in dists.items())


def _edge_array(pairs):
    """(E, 2) int64 array of the (i, j) of candidate_pairs output."""
    return np.array([(i, j) for i, j, _d in pairs], dtype=np.int64).reshape(-1, 2)


def contract_edges(edges, next_layer):
    """Adjacency edges of next_layer, given those of the layer it was built from.

    Each endpoint maps to the next-layer cluster that lists it as a child;
    self-loops are dropped and repeats collapse. The result is sorted
    lexicographically with i < j, the order candidate_pairs returns.
    """
    parent = np.empty(sum(len(c.children) for c in next_layer), dtype=np.int64)
    for k, cl in enumerate(next_layer):
        parent[cl.children] = k
    mapped = parent[edges]
    lo, hi = mapped.min(axis=1), mapped.max(axis=1)
    keep = lo < hi
    n = len(next_layer)
    keys = np.unique(lo[keep] * n + hi[keep])
    return np.column_stack([keys // n, keys % n])


def rank_filter(pairs_with_sims, k_fraction):
    """Keep the top ceil(K * n) pairs by similarity.

    Sorts descending by similarity with ascending (i, j) as the tie-break, so
    equal similarities keep the lexicographically smallest pairs.
    """
    n_keep = math.ceil(k_fraction * len(pairs_with_sims))
    ranked = sorted(pairs_with_sims, key=lambda p: (-p[2], p[0], p[1]))
    return ranked[:n_keep]


def _box_membership(boxes, positions):
    """(N, B) bool matrix: point n lies inside box b."""
    if not boxes:
        return np.zeros((positions.shape[0], 0), dtype=bool)
    return np.column_stack([box.contains(positions) for box in boxes])


def _inside_fractions(point_sets, contains):
    """(C, B) fraction of each point set's points inside each box.

    Equals PriorBox.fraction_inside exactly: both are count / size in
    float64. An empty set reads 0.0.
    """
    sizes = np.array([ids.size for ids in point_sets], dtype=np.int64)
    labels = np.repeat(np.arange(len(point_sets)), sizes)
    members = contains[np.concatenate(point_sets)]
    counts = np.zeros((len(point_sets), contains.shape[1]))
    for b in range(contains.shape[1]):
        counts[:, b] = np.bincount(labels, weights=members[:, b], minlength=len(point_sets))
    return counts / np.maximum(sizes, 1)[:, None]


def _separated(fa, fb, inside_frac, outside_frac):
    """Veto rule over the last axis: some box holds one cluster, excludes the other."""
    return (
        ((fa >= inside_frac) & (fb <= outside_frac))
        | ((fb >= inside_frac) & (fa <= outside_frac))
    ).any(axis=-1)


def stop_criteria(a_ids, b_ids, boxes, positions, inside_frac=0.9, outside_frac=0.1):
    """True when some prior box separates the two clusters.

    A box separates the pair when one cluster is essentially inside it
    (fraction of points >= inside_frac) and the other essentially outside
    (fraction <= outside_frac).
    """
    sets = [np.asarray(a_ids, dtype=np.int64), np.asarray(b_ids, dtype=np.int64)]
    fa, fb = _inside_fractions(sets, _box_membership(boxes, positions))
    return bool(_separated(fa, fb, inside_frac, outside_frac))


class _DisjointSet:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # Root at the smaller index so representatives are deterministic.
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri


def _cluster_feature(point_features, ids):
    try:
        return fuse_feature(point_features[ids])
    except AllZeroFeatures:
        # Featureless clusters never merge by similarity but stay in the layer.
        return np.zeros(point_features.shape[1], dtype=np.float32)


def run_layer(clusters, feats, point_features, positions, boxes, params,
              edges=None, contains=None):
    """One merge round: returns (next clusters, next features, LayerLog).

    Candidate pairs (distance <= T, both features non-zero) are ranked by
    similarity, the top K fraction survive, pairs vetoed by the stop criterion
    are dropped, and the rest are unioned transitively. Untouched clusters
    carry forward with single-child lineage. Features of merged clusters are
    re-fused from their member point features.

    edges is this layer's (E, 2) adjacency as kept by run_hierarchy (layer-0
    pairs contracted round by round); without it the pairs are found from
    the points with candidate_pairs. contains is the point-by-box membership
    matrix; without it it is computed from boxes.
    """
    layer_idx = clusters[0].layer if clusters else 0
    if edges is None:
        edges = _edge_array(candidate_pairs(clusters, positions, params.T))
    if contains is None:
        contains = _box_membership(boxes, positions)

    f64 = feats.astype(np.float64)
    norms = np.linalg.norm(f64, axis=1)
    sim_pairs = []
    if edges.size:
        ii, jj = edges[:, 0], edges[:, 1]
        ok = (norms[ii] > 0.0) & (norms[jj] > 0.0)
        sims = np.zeros(len(edges))
        sims[ok] = np.clip(
            (f64[ii[ok]] * f64[jj[ok]]).sum(axis=1) / (norms[ii[ok]] * norms[jj[ok]]),
            -1.0, 1.0,
        )
        sim_pairs = [
            (int(i), int(j), float(s)) for i, j, s, good in zip(ii, jj, sims, ok) if good
        ]
    ranked = rank_filter(sim_pairs, params.K_fraction)

    log = LayerLog(n_candidates=len(sim_pairs))
    vetoed = np.zeros(len(ranked), dtype=bool)
    if ranked:
        phi = _inside_fractions([c.point_ids for c in clusters], contains)
        ri = np.array([p[0] for p in ranked])
        rj = np.array([p[1] for p in ranked])
        vetoed = _separated(phi[ri], phi[rj], params.inside_frac, params.outside_frac)

    dsu = _DisjointSet(len(clusters))
    for (i, j, _s), separated in zip(ranked, vetoed):
        if separated:
            log.rejected_stop.append((i, j))
        else:
            log.accepted.append((i, j))
            dsu.union(i, j)

    groups = {}
    for i in range(len(clusters)):
        groups.setdefault(dsu.find(i), []).append(i)

    next_clusters = []
    next_feats = []
    for root in sorted(groups):
        children = sorted(groups[root])
        k = len(next_clusters)
        if len(children) == 1:
            src = clusters[children[0]]
            next_clusters.append(
                Cluster(layer_idx + 1, k, src.point_ids, children=children)
            )
            next_feats.append(feats[children[0]])
        else:
            ids = np.sort(np.concatenate([clusters[c].point_ids for c in children]))
            next_clusters.append(Cluster(layer_idx + 1, k, ids, children=children))
            next_feats.append(_cluster_feature(point_features, ids))
    return next_clusters, np.asarray(next_feats, dtype=np.float32), log


def run_hierarchy(layer0, cloud, boxes, params=None, l2_normalize=False):
    """Merge rounds until a fixpoint or params.max_layers layers exist.

    layer0 is a partition of [0, N) as produced by build_superpoints. Point
    features come from cloud.semantic_features (optionally L2-normalized
    first). Layer-0 cluster features are fused from member point features.
    """
    params = params or MergeParams()
    if cloud.semantic_features is None:
        raise ValueError("clustering requires per-point semantic features")
    point_features = cloud.semantic_features
    if l2_normalize:
        point_features = point_features.astype(np.float64)
        lens = np.linalg.norm(point_features, axis=1, keepdims=True)
        point_features = np.where(lens > 0, point_features / np.maximum(lens, 1e-30), 0.0)
        point_features = point_features.astype(np.float32)
    positions = cloud.positions.astype(np.float64)
    boxes = list(boxes or [])

    clusters = [
        Cluster(0, i, np.sort(np.asarray(ids, dtype=np.int64)))
        for i, ids in enumerate(layer0)
    ]
    feats = np.asarray(
        [_cluster_feature(point_features, c.point_ids) for c in clusters],
        dtype=np.float32,
    )

    # The only point-level adjacency scan; later rounds contract its edges.
    edges = _edge_array(candidate_pairs(clusters, positions, params.T))
    contains = _box_membership(boxes, positions)

    layers = [clusters]
    features = [feats]
    merge_log = []
    while len(layers) < params.max_layers:
        nxt, nxt_feats, log = run_layer(
            layers[-1], features[-1], point_features, positions, boxes, params,
            edges=edges, contains=contains,
        )
        if not log.accepted:
            break
        layers.append(nxt)
        features.append(nxt_feats)
        merge_log.append(log)
        edges = contract_edges(edges, nxt)
    return Hierarchy(layers=layers, features=features, merge_log=merge_log)


def _trace_to_merge_node(h, layer_idx, cluster_idx):
    """Walk a carry-forward chain down to the cluster that last gained siblings."""
    cl = h.layers[layer_idx][cluster_idx]
    while cl.layer > 0 and len(cl.children) == 1:
        cl = h.layers[cl.layer - 1][cl.children[0]]
    return cl


def collect_objects(h, params=None, include_stalled=False):
    """Terminal clusters (those that never merge again) as object instances.

    Every terminal-layer cluster whose size clears min_object_points becomes
    one object with confidence 1.0. With include_stalled=True, clusters that
    sat out at least one full round before being absorbed later are emitted
    too (an experimental, non-default reading of "stopped merging").
    """
    params = params or MergeParams()
    instances = []
    seen = set()
    terminal = h.layers[-1]
    for cl in terminal:
        if cl.point_ids.size < params.min_object_points:
            continue
        key = cl.point_ids.tobytes()
        if key in seen:
            continue
        seen.add(key)
        instances.append(Instance(point_ids=cl.point_ids, confidence=1.0, kind="object"))

    if include_stalled:
        for t in range(len(h.layers) - 1):
            for parent in h.layers[t + 1]:
                if len(parent.children) < 2:
                    continue
                for child_idx in parent.children:
                    child = h.layers[t][child_idx]
                    # Absorbed after surviving >= 1 round untouched earlier.
                    if child.layer > 0 and len(child.children) == 1:
                        if child.point_ids.size < params.min_object_points:
                            continue
                        key = child.point_ids.tobytes()
                        if key not in seen:
                            seen.add(key)
                            instances.append(
                                Instance(point_ids=child.point_ids, confidence=1.0,
                                         kind="object")
                            )
    return InstanceSet(instances=instances)


def collect_parts(h, objects):
    """Immediate children of each object, traced through carry-forward chains.

    An object that was never assembled from siblings (layer-0 or pure
    carry-forward lineage) is its own sole part. Parts of one object exactly
    partition it.
    """
    by_points = {}
    for t, layer in enumerate(h.layers):
        for cl in layer:
            by_points[cl.point_ids.tobytes()] = (t, cl.index)

    parts = []
    for inst in objects.instances:
        loc = by_points.get(inst.point_ids.tobytes())
        if loc is None:
            raise ValueError("object does not correspond to any cluster in the hierarchy")
        node = _trace_to_merge_node(h, loc[0], loc[1])
        if node.layer == 0 or len(node.children) <= 1:
            parts.append(Instance(point_ids=inst.point_ids, confidence=inst.confidence,
                                  kind="part"))
        else:
            for child_idx in node.children:
                child = h.layers[node.layer - 1][child_idx]
                parts.append(Instance(point_ids=child.point_ids,
                                      confidence=inst.confidence, kind="part"))
    return InstanceSet(instances=parts)


def drop_most_planar(objects, cloud, n_drop, min_points=500):
    """Remove the n most planar large instances (walls, floors).

    Planarity is the ratio of the two smallest PCA eigenvalues of the
    instance's positions; only instances with at least min_points points are
    candidates. Used by the extraction stage's --drop-largest-planar flag.
    """
    if n_drop <= 0:
        return objects
    pos = cloud.positions.astype(np.float64)
    scores = []
    for k, inst in enumerate(objects.instances):
        if inst.point_ids.size < min_points:
            continue
        pts = pos[inst.point_ids]
        centered = pts - pts.mean(axis=0)
        vals = np.linalg.eigvalsh(centered.T @ centered / pts.shape[0])
        flatness = vals[0] / vals[1] if vals[1] > 0 else 0.0
        scores.append((flatness, k))
    scores.sort()
    dropped = {k for _, k in scores[:n_drop]}
    kept = [inst for k, inst in enumerate(objects.instances) if k not in dropped]
    return InstanceSet(instances=kept)


# ---------------------------------------------------------------------------
# JSON round trip (layer 0 by explicit ids, later layers by lineage)


def hierarchy_to_dict(h):
    layers_out = [
        {"clusters": [{"points": [int(v) for v in c.point_ids]} for c in h.layers[0]]}
    ]
    for layer in h.layers[1:]:
        layers_out.append(
            {"clusters": [{"children": list(c.children)} for c in layer]}
        )
    return {
        "schema": HIERARCHY_SCHEMA,
        "n_points": h.n_points,
        "layers": layers_out,
        "merge_log": [
            {
                "accepted": [list(p) for p in log.accepted],
                "rejected_stop": [list(p) for p in log.rejected_stop],
                "n_candidates": log.n_candidates,
            }
            for log in h.merge_log
        ],
    }


def hierarchy_from_dict(data):
    if data.get("schema") != HIERARCHY_SCHEMA:
        raise ValueError(f"unsupported hierarchy schema {data.get('schema')!r}")
    layers = []
    layer0 = [
        Cluster(0, i, np.asarray(entry["points"], dtype=np.int64))
        for i, entry in enumerate(data["layers"][0]["clusters"])
    ]
    layers.append(layer0)
    for t, layer_data in enumerate(data["layers"][1:], start=1):
        layer = []
        for i, entry in enumerate(layer_data["clusters"]):
            children = [int(c) for c in entry["children"]]
            ids = np.sort(np.concatenate([layers[t - 1][c].point_ids for c in children]))
            layer.append(Cluster(t, i, ids, children=children))
        layers.append(layer)
    merge_log = [
        LayerLog(
            accepted=[tuple(p) for p in log["accepted"]],
            rejected_stop=[tuple(p) for p in log["rejected_stop"]],
            n_candidates=int(log["n_candidates"]),
        )
        for log in data["merge_log"]
    ]
    return Hierarchy(layers=layers, features=[], merge_log=merge_log)
