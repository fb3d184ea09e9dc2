"""Prior-guided hierarchical clustering over super-points.

Each round pairs up clusters that are spatially adjacent (closest points
within T) and semantically similar (similarity rank within the top K fraction
of this round's candidate pairs), vetoes pairs that straddle an objectness
prior's box, and unions the survivors into the next layer. A prior is a
track's sorted point ids; its box, the tight axis-aligned box of those
points, is derived only where points are tested against it (_box_counts).
Clusters that stop merging are the objects; the children that formed an
object are its parts.

Two clusters are adjacent after a union exactly when some pair of their
members was adjacent before it, and a cluster's count of points inside a
prior's box is the sum of its children's. So adjacency and box counts are
computed once from the points, on the layer-0 super-points, and each round
contracts them onto the next layer instead of scanning the points again.

A round works on arrays: a point -> cluster label array for the current
layer, the layer's contracted (E, 2) edges and (C, B + 1) box counts, and
the round's parent array (cluster -> next-layer cluster, numbered by
smallest child). The Hierarchy keeps only the lineage, in the shape
hierarchy.json stores: super-point ids at layer 0 and child indices above
it; Hierarchy.clusters(t) derives the point sets of higher layers.

A merged cluster's feature is re-fused from its member points: point norms
are computed once (features.point_norms), rows are gathered straight into
float64, and the fusion's full-matrix steps keep the bits.

MergeParams is the one definition of this stage's tunables: the merge
rounds' K, T, max_layers and veto fractions, which run_hierarchy reads, and
the extraction's min_object_points, which collect_objects reads. Extraction
reads nothing but the hierarchy, and neither stage reads normals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .features import fuse_feature, point_norms
from .parallel import thread_map
from .scene_io import Instance, InstanceSet, check_fields, require_finite
from .spatial import components, groups, labeled_close_pairs, sorted_unique

HIERARCHY_SCHEMA = "p2o.hierarchy/1"


@dataclass
class MergeParams:
    K: float = 0.6
    T: float = 0.05
    max_layers: int = 10
    inside_frac: float = 0.9
    outside_frac: float = 0.1
    min_object_points: int = 50

    def __post_init__(self):
        require_finite(self)
        if not (0.0 < self.K <= 1.0):
            raise ValueError("K must be in (0, 1]")
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
class LayerLog:
    """What happened in one merge round, pair indices into the source layer."""

    accepted: list = field(default_factory=list)
    rejected_stop: list = field(default_factory=list)
    n_candidates: int = 0


@dataclass
class Hierarchy:
    """The merge rounds as lineage, in the shape hierarchy.json stores.

    layers[0][k] is super-point k's sorted point ids; layers[t][k] (t >= 1) is
    cluster k's sorted child indices into layer t - 1. Point sets above
    layer 0 are derived by clusters(t), never stored.
    """

    layers: list
    merge_log: list

    @property
    def n_points(self):
        return int(sum(ids.size for ids in self.layers[0]))

    def clusters(self, t):
        """Sorted point ids of every cluster of layer t."""
        return groups(self._point_labels()[t], len(self.layers[t]))

    def _point_labels(self):
        """Point -> cluster index at every layer, layer 0 first."""
        labels = [_partition_labels(self.layers[0], self.n_points)]
        for below, layer in zip(self.layers, self.layers[1:]):
            labels.append(_partition_labels(layer, len(below))[labels[-1]])
        return labels


def _partition_labels(sets, n):
    """Member -> set index, for sets that partition [0, n) into non-empty sets.

    Raises ValueError on an empty set, a set that is not a flat array of
    integers, an index outside [0, n), or an index that is in no set or in
    more than one.
    """
    sets = [np.asarray(g) for g in sets]
    for k, g in enumerate(sets):
        if g.size == 0:
            raise ValueError(f"set {k} is empty")
        if g.ndim != 1 or g.dtype.kind not in "iu":
            raise ValueError(f"set {k} is not a flat array of integer ids")
    sets = [g.astype(np.int64, copy=False) for g in sets]
    sizes = np.array([g.size for g in sets], dtype=np.int64)
    ids = np.concatenate([np.empty(0, dtype=np.int64)] + sets)
    outside = ids[(ids < 0) | (ids >= n)]
    if outside.size:
        raise ValueError(f"index {int(outside[0])} outside [0, {n})")
    # The count before the n-long label array: n may come from a file.
    if ids.size == n:
        labels = np.full(n, -1, dtype=np.int64)
        labels[ids] = np.repeat(np.arange(len(sets)), sizes)
        if (labels >= 0).all():
            return labels
    raise ValueError(f"sets do not partition [0, {n}): an index is missing or repeated")


def candidate_pairs(labels, positions, t):
    """(E, 2) int64 cluster pairs (i < j, sorted) whose closest points are within t.

    labels maps each point to its cluster; the pairs come from an exact search
    over a grid of cells of edge t (spatial.labeled_close_pairs).
    run_hierarchy calls this once, on layer 0; later layers get their pairs
    from contract_edges.
    """
    return labeled_close_pairs(positions, labels, t)


def contract_edges(edges, parent):
    """Adjacency edges of the next layer, given this layer's and its parent array.

    Each endpoint maps to its parent; self-loops are dropped and repeats
    collapse. The result is sorted lexicographically with i < j, the order
    candidate_pairs returns.
    """
    mapped = parent[edges]
    lo, hi = mapped.min(axis=1), mapped.max(axis=1)
    keep = lo < hi
    n = int(parent.max()) + 1
    keys = sorted_unique(lo[keep] * n + hi[keep])
    return np.column_stack([keys // n, keys % n])


def rank_filter(pairs, sims, k_fraction):
    """The top ceil(K * n) of the (n, 2) pairs by similarity, in rank order.

    Ranks descending by similarity with ascending (i, j) as the tie-break, so
    equal similarities keep the lexicographically smallest pairs.
    """
    n_keep = math.ceil(k_fraction * len(pairs))
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0], -sims))[:n_keep]]


def _box_counts(labels, n_clusters, positions, priors):
    """(C, B + 1) float64: each cluster's points inside each prior's box (the
    tight box of the prior's points, closed on every face), then its size."""
    boxes = [(positions[ids].min(axis=0), positions[ids].max(axis=0)) for ids in priors]
    columns = [((positions >= lo) & (positions <= hi)).all(axis=1) for lo, hi in boxes]
    return np.column_stack([np.bincount(labels, weights=c, minlength=n_clusters)
                            for c in columns + [np.ones(labels.size)]])


def contract_counts(counts, parent, n_next):
    """Box counts of the next layer: each row summed into its parent's row,
    exactly, as the counts are integers below 2**53."""
    out = np.zeros((n_next, counts.shape[1]))
    np.add.at(out, parent, counts)
    return out


def _separated(fa, fb, inside_frac, outside_frac):
    """The veto, over the last axis: some prior box separates the two clusters.

    A box separates a pair when one cluster is essentially inside it
    (fraction of points >= inside_frac) and the other essentially outside
    (fraction <= outside_frac).
    """
    return (
        ((fa >= inside_frac) & (fb <= outside_frac))
        | ((fb >= inside_frac) & (fa <= outside_frac))
    ).any(axis=-1)


def run_layer(labels, feats, point_features, norms, edges, counts, params):
    """One merge round: returns (parent, next features, LayerLog, children).

    labels maps each point to its cluster in this layer, feats holds one row
    per cluster, norms each point's feature norm (features.point_norms,
    computed once by run_hierarchy), edges is the layer's (E, 2) adjacency
    (candidate_pairs or contract_edges) and counts its (C, B + 1) counts of
    points inside each prior's box (_box_counts or contract_counts).
    Candidate pairs (both features non-zero) are ranked by similarity, the
    top K fraction survive, pairs a prior's box separates (on the fractions
    count / size) are dropped, and the rest are unioned transitively
    (spatial.components). parent[c] is the next-layer index of cluster c;
    next-layer clusters are numbered by their smallest child, and
    children[k] is next-layer cluster k's sorted child indices.
    Untouched clusters carry their feature forward; merged clusters re-fuse
    theirs from their member point features in ascending point order, their
    rows gathered straight into float64; the fusion's full-matrix steps keep
    the bits.
    """
    n_clusters = len(feats)
    f64 = feats.astype(np.float64)
    f_norms = np.linalg.norm(f64, axis=1)
    ii, jj = edges[:, 0], edges[:, 1]
    ok = (f_norms[ii] > 0.0) & (f_norms[jj] > 0.0)
    ii, jj = ii[ok], jj[ok]
    sims = np.clip((f64[ii] * f64[jj]).sum(axis=1) / (f_norms[ii] * f_norms[jj]), -1.0, 1.0)
    pairs = rank_filter(edges[ok], sims, params.K)

    phi = counts[:, :-1] / counts[:, -1:]
    vetoed = _separated(phi[pairs[:, 0]], phi[pairs[:, 1]], params.inside_frac,
                        params.outside_frac)
    union = pairs[~vetoed]
    log = LayerLog(accepted=[tuple(p) for p in union.tolist()],
                   rejected_stop=[tuple(p) for p in pairs[vetoed].tolist()],
                   n_candidates=len(sims))
    n_next, parent = components(n_clusters, union)

    children = groups(parent, n_next)
    next_feats = feats[[c[0] for c in children]]
    if n_next < n_clusters:
        point_sets = groups(parent[labels], n_next)
        for k, c in enumerate(children):
            if c.size > 1:
                next_feats[k] = fuse_feature(point_features, point_sets[k], norms)
    return parent, next_feats, log, children


def run_hierarchy(layer0, cloud, priors, params=None):
    """Merge rounds until a fixpoint or params.max_layers layers exist.

    layer0 must partition [0, N) into non-empty sets, as build_superpoints
    does (ValueError otherwise). Each prior is a non-empty array of point
    ids, as a track's point_ids. Point features come from
    cloud.semantic_features, as stored, and their norms are computed once
    for every round; layer-0 cluster features are fused from member point
    features. The three layer-0 inputs (the fused
    features, the candidate_pairs edges and the box counts) are built side
    by side as blocks of parallel.thread_map; the merge rounds are serial
    and contract the edges and the counts through each parent array.
    """
    params = params or MergeParams()
    if cloud.semantic_features is None:
        raise ValueError("clustering requires per-point semantic features")
    point_features = cloud.semantic_features
    positions = cloud.positions.astype(np.float64)

    labels = _partition_labels(layer0, positions.shape[0])
    layer0 = [np.sort(np.asarray(ids, dtype=np.int64)) for ids in layer0]
    norms = point_norms(point_features)
    # Side by side, because the fusion loop holds the interpreter lock while
    # the adjacency grid and box tests release it. These are the only
    # point-level scans; later rounds contract the edges and the counts.
    edges, feats, counts = thread_map(lambda build: build(), [
        lambda: candidate_pairs(labels, positions, params.T),
        lambda: np.asarray([fuse_feature(point_features, ids, norms) for ids in layer0],
                           dtype=np.float32),
        lambda: _box_counts(labels, len(layer0), positions, priors),
    ])

    h = Hierarchy(layers=[layer0], merge_log=[])
    while len(h.layers) < params.max_layers:
        parent, feats, log, children = run_layer(labels, feats, point_features, norms,
                                                 edges, counts, params)
        if not log.accepted:
            break
        h.layers.append(children)
        h.merge_log.append(log)
        labels = parent[labels]
        edges = contract_edges(edges, parent)
        counts = contract_counts(counts, parent, len(feats))
    return h


def collect_objects(h, params=None):
    """Terminal clusters (those that never merge again) of at least
    params.min_object_points points, as object instances of confidence 1.0."""
    params = params or MergeParams()
    return InstanceSet(instances=[
        Instance(point_ids=ids, confidence=1.0, kind="object")
        for ids in h.clusters(-1) if ids.size >= params.min_object_points
    ])


def collect_parts(h, objects):
    """The children each object formed from, as part instances.

    Every object must be a terminal cluster (ValueError otherwise). The walk
    starts at that cluster and descends while the cluster has exactly one
    child, which holds the same points; where it stops, the object's parts
    are the cluster's children. An object that reaches layer 0 (a
    super-point) is its own sole part. Parts of one object exactly partition
    it.
    """
    labels = h._point_labels()
    terminal = groups(labels[-1], len(h.layers[-1]))
    parts = []
    for inst in objects.instances:
        ids = inst.point_ids
        c = labels[-1][ids[0]] if ids.size and 0 <= ids[0] < labels[-1].size else None
        if c is None or not np.array_equal(terminal[c], ids):
            raise ValueError("object is not a terminal cluster of the hierarchy")
        t = len(h.layers) - 1
        while t > 0 and len(h.layers[t][c]) == 1:
            c, t = h.layers[t][c][0], t - 1
        if t == 0:
            pieces = [ids]
        else:
            below = labels[t - 1][ids]
            pieces = [ids[below == k] for k in h.layers[t][c]]
        parts += [Instance(point_ids=p, confidence=inst.confidence, kind="part")
                  for p in pieces]
    return InstanceSet(instances=parts)


# ---------------------------------------------------------------------------
# JSON round trip (layer 0 by explicit ids, later layers by lineage)


def hierarchy_to_dict(h):
    return {
        "schema": HIERARCHY_SCHEMA,
        "n_points": h.n_points,
        "layers": [{"clusters": [{"points": ids.tolist()} for ids in h.layers[0]]}]
        + [{"clusters": [{"children": c.tolist()} for c in layer]} for layer in h.layers[1:]],
        "merge_log": [{"accepted": log.accepted, "rejected_stop": log.rejected_stop,
                       "n_candidates": log.n_candidates} for log in h.merge_log],
    }


# The keys of hierarchy.json and of each of its merge_log entries.
_HIERARCHY_FIELDS = {"schema": str, "n_points": int, "layers": list, "merge_log": list}
_LOG_FIELDS = {"accepted": list, "rejected_stop": list, "n_candidates": int}


def _layer_from_dict(layer, t, where):
    """Layer t's id arrays; FormatError unless each id is a JSON integer."""
    key, where = "children" if t else "points", f"{where}: hierarchy layer {t}"
    sets = [check_fields(c, {key: list}, where, "cluster")[key]
            for c in check_fields(layer, {"clusters": list}, where, "layer")["clusters"]]
    for k, ids in enumerate(sets):
        if not all(type(v) is int for v in ids):  # not a bool, a float or a list
            raise FormatError(f"{where}: set {k} is not a flat array of integer ids")
    return [np.asarray(ids) for ids in sets]


def hierarchy_from_dict(data, where="hierarchy"):
    """Hierarchy from hierarchy_to_dict output; FormatError, prefixed by
    `where` (the file), unless n_points is a JSON integer, each of the one or
    more layers is {"clusters": [{"points" (layer 0) or "children": ids}]}
    and partitions the one below it (layer 0: the n_points point ids), and
    merge_log holds one entry per layer after the first, entry t with
    n_candidates a JSON integer >= 0 and each accepted and rejected_stop item
    a pair [i, j] of JSON integers, 0 <= i < j < layer t's cluster count."""
    data = check_fields(data, _HIERARCHY_FIELDS, where, "hierarchy")
    if data.get("schema") != HIERARCHY_SCHEMA:
        raise FormatError(f"{where}: unsupported hierarchy schema {data.get('schema')!r}")
    try:
        n_points = data["n_points"]
        if not data["layers"]:
            raise FormatError(f"{where}: a hierarchy holds at least one layer")
        layers = [_layer_from_dict(layer, t, where) for t, layer in enumerate(data["layers"])]
        logs = [check_fields(log, _LOG_FIELDS, where, "merge_log entry")
                for log in data["merge_log"]]
    except KeyError as exc:
        raise FormatError(f"{where}: malformed hierarchy: {exc!r}") from exc
    for t, layer in enumerate(layers):
        try:
            _partition_labels(layer, len(layers[t - 1]) if t else n_points)
        except ValueError as exc:
            raise FormatError(f"{where}: hierarchy layer {t}: {exc}") from exc
    if len(logs) != len(layers) - 1:
        raise FormatError(f"{where}: {len(logs)} merge_log entries for {len(layers)} layers; "
                          f"expected {len(layers) - 1}")
    for t, log in enumerate(logs):
        if log["n_candidates"] < 0:
            raise FormatError(f"{where}: merge_log entry {t}: n_candidates is negative")
        n = len(layers[t])
        for key in ("accepted", "rejected_stop"):
            for p in log[key]:
                # type(v) is int: a JSON boolean is a bool, a fraction a float.
                if not (isinstance(p, (list, tuple)) and len(p) == 2
                        and all(type(v) is int for v in p) and 0 <= p[0] < p[1] < n):
                    raise FormatError(f"{where}: merge_log entry {t}: {key} item {p!r} is "
                                      f"not a pair of integers 0 <= i < j < {n}")
    merge_log = [LayerLog([tuple(p) for p in log["accepted"]],
                          [tuple(p) for p in log["rejected_stop"]],
                          log["n_candidates"]) for log in logs]
    return Hierarchy(layers=layers, merge_log=merge_log)
