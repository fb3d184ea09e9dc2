import json
import math
import re

import numpy as np
import pytest

from part2object import hierarchy as hi
from part2object.features import fuse_feature, point_norms
from part2object.scene_io import SceneCloud

from conftest import points_in_box

# ---------------------------------------------------------------------------
# independent straight-line oracle


def brute_closest(pa, pb):
    best = math.inf
    for p in pa:
        for q in pb:
            best = min(best, float(np.linalg.norm(p - q)))
    return best


def tight_box(positions, prior):
    """A prior's box: the tight axis-aligned box of its points."""
    held = positions[prior]
    return held.min(axis=0), held.max(axis=0)


def brute_phi(pts, lo, hi):
    inside = 0
    for p in pts:
        if (p >= lo).all() and (p <= hi).all():
            inside += 1
    return inside / len(pts)


def brute_accepted(point_sets, feats, positions, priors, params):
    """Literal merge rule: dist <= T, similarity rank within top K, no veto
    by the tight box of any prior's points."""
    boxes = [tight_box(positions, prior) for prior in priors]
    cands = []
    for i in range(len(point_sets)):
        for j in range(i + 1, len(point_sets)):
            d = brute_closest(positions[point_sets[i]], positions[point_sets[j]])
            if d > params.T:
                continue
            fi = np.asarray(feats[i], dtype=np.float64)
            fj = np.asarray(feats[j], dtype=np.float64)
            ni, nj = np.linalg.norm(fi), np.linalg.norm(fj)
            if ni == 0 or nj == 0:
                continue
            cands.append((i, j, float(np.dot(fi, fj) / (ni * nj))))
    cands.sort(key=lambda p: (-p[2], p[0], p[1]))
    kept = cands[: math.ceil(params.K * len(cands))]
    accepted = set()
    for i, j, _s in kept:
        vetoed = False
        for box in boxes:
            fa = brute_phi(positions[point_sets[i]], *box)
            fb = brute_phi(positions[point_sets[j]], *box)
            if (fa >= params.inside_frac and fb <= params.outside_frac) or (
                fb >= params.inside_frac and fa <= params.outside_frac
            ):
                vetoed = True
                break
        if not vetoed:
            accepted.add((i, j))
    return accepted


def make_cloud(positions, feats):
    return SceneCloud(
        positions=np.asarray(positions, dtype=np.float32),
        semantic_features=np.asarray(feats, dtype=np.float32),
    )


def row_scene(ranges, angles, pts_per=20, seed=0):
    """Clusters of points in x ranges, all sharing one feature per cluster."""
    rng = np.random.default_rng(seed)
    positions, feats, sets = [], [], []
    cursor = 0
    for (x0, x1), ang in zip(ranges, angles):
        pts = np.column_stack(
            [
                rng.uniform(x0, x1, pts_per),
                rng.uniform(0.0, 0.02, pts_per),
                rng.uniform(0.0, 0.02, pts_per),
            ]
        )
        positions.append(pts)
        f = (math.cos(math.radians(ang)), math.sin(math.radians(ang)))
        feats.append(np.tile(f, (pts_per, 1)))
        sets.append(np.arange(cursor, cursor + pts_per))
        cursor += pts_per
    return np.vstack(positions), np.vstack(feats), sets


def labels_of(sets):
    labels = np.empty(sum(len(ids) for ids in sets), dtype=np.int64)
    for i, ids in enumerate(sets):
        labels[ids] = i
    return labels


def run_layer_on(sets, feats, point_feats, pos, priors, params):
    """run_layer over the layer the point sets form, edges found from the
    points: (parent, next features, log), once its children are checked to
    be the parent array's groups."""
    labels = labels_of(sets)
    parent, next_feats, log, children = hi.run_layer(
        labels, feats, point_feats, point_norms(point_feats),
        hi.candidate_pairs(labels, pos, params.T),
        hi._box_counts(labels, len(sets), pos, priors), params)
    want = [np.flatnonzero(parent == k) for k in range(len(next_feats))]
    assert len(children) == len(want)
    assert all(np.array_equal(c, w) for c, w in zip(children, want))
    return parent, next_feats, log


def box_priors(pos, corners):
    """The points of each (lo, hi) box, as priors; a box that holds no point
    is left out, as it cannot veto."""
    priors = [np.flatnonzero(points_in_box(pos, lo, hi)) for lo, hi in corners]
    return [ids for ids in priors if ids.size]


# ---------------------------------------------------------------------------
# candidate_pairs


def test_candidate_pair_present_within_t():
    pos = np.array([[0.0, 0, 0], [0.04, 0, 0]])
    pairs = hi.candidate_pairs(np.array([0, 1]), pos, 0.05)
    assert pairs.dtype == np.int64 and pairs.tolist() == [[0, 1]]


def test_candidate_pair_absent_beyond_t():
    pos = np.array([[0.0, 0, 0], [0.06, 0, 0]])
    assert hi.candidate_pairs(np.array([0, 1]), pos, 0.05).shape == (0, 2)


def test_candidate_pairs_match_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = 240
        pos = rng.random((n, 3)) * 0.8
        labels = rng.integers(0, 30, size=n)
        labels[:30] = np.arange(30)
        sets = [np.flatnonzero(labels == c) for c in range(30)]
        got = {(i, j) for i, j in hi.candidate_pairs(labels, pos, 0.05).tolist()}
        want = set()
        for i in range(30):
            for j in range(i + 1, 30):
                if brute_closest(pos[sets[i]], pos[sets[j]]) <= 0.05:
                    want.add((i, j))
        assert got == want


# ---------------------------------------------------------------------------
# rank_filter


def test_rank_filter_keeps_top_fraction():
    pairs = np.array([(i, i + 1) for i in range(10)], dtype=np.int64)
    sims = 0.1 * np.arange(10)
    kept = hi.rank_filter(pairs, sims, 0.6)
    assert kept.shape == (6, 2)
    assert kept.tolist() == [[i, i + 1] for i in range(9, 3, -1)]


def test_rank_filter_full_fraction_keeps_all():
    pairs = np.array([(0, 1), (1, 2)], dtype=np.int64)
    assert hi.rank_filter(pairs, np.array([0.5, 0.1]), 1.0).tolist() == [[0, 1], [1, 2]]


def test_rank_filter_ties_lexicographic():
    pairs = np.array([(2, 3), (0, 5), (0, 1), (1, 4)], dtype=np.int64)
    kept = hi.rank_filter(pairs, np.full(4, 0.5), 0.5)
    assert kept.tolist() == [[0, 1], [0, 5]]


def test_featureless_cluster_is_never_a_candidate():
    # Three touching clusters in a row; the middle one has an all-zero feature.
    pos, _, sets = row_scene([(0.0, 0.1), (0.11, 0.2), (0.21, 0.3)], [0, 0, 0])
    feats = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    point_feats = np.zeros((len(pos), 2), dtype=np.float32)
    for i, ids in enumerate(sets):
        point_feats[ids] = feats[i]
    parent, _nf, log = run_layer_on(sets, feats, point_feats, pos, [],
                                    hi.MergeParams(K=1.0, T=0.05))
    assert log.n_candidates == 0 and log.accepted == []
    assert parent.tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# the prior-box veto


def stop_criteria(a_ids, b_ids, priors, pos):
    """True when run_layer vetoes the one candidate pair (a, b) at K = 1."""
    feats = np.ones((2, 2), dtype=np.float32)
    _parent, _nf, log = run_layer_on([np.array(a_ids), np.array(b_ids)], feats,
                                     np.ones((len(pos), 2), dtype=np.float32), pos, priors,
                                     hi.MergeParams(K=1.0, T=100.0))
    assert log.n_candidates == 1
    return log.rejected_stop == [(0, 1)]


def test_stop_criteria_no_boxes_never_rejects():
    pos = np.zeros((4, 3))
    assert stop_criteria([0, 1], [2, 3], [], pos) is False


def test_stop_criteria_inside_outside():
    pos = np.array([[0.5, 0.5, 0.5], [0.4, 0.4, 0.4], [5.0, 5, 5], [5.1, 5, 5]])
    prior = np.array([0, 1])
    assert stop_criteria([0, 1], [2, 3], [prior], pos) is True
    assert stop_criteria([2, 3], [0, 1], [prior], pos) is True


def test_stop_criteria_straddling_clusters_pass():
    # Both clusters half in, half out: phi = 0.5 for each.
    pos = np.array([[0.5, 0.5, 0.5], [2.0, 2, 2], [0.4, 0.4, 0.4], [3.0, 3, 3]])
    prior = np.array([0, 2])
    assert stop_criteria([0, 1], [2, 3], [prior], pos) is False
    assert brute_phi(pos[[0, 1]], *tight_box(pos, prior)) == 0.5
    assert brute_phi(pos[[2, 3]], *tight_box(pos, prior)) == 0.5


# ---------------------------------------------------------------------------
# run_layer


def _layer_feats(sets, point_features):
    norms = point_norms(point_features)
    return np.asarray([fuse_feature(point_features, ids, norms) for ids in sets],
                      dtype=np.float32)


def test_run_layer_fixpoint_when_no_candidates():
    pos, feats, sets = row_scene([(0.0, 0.1), (1.0, 1.1)], [0, 5])
    cf = _layer_feats(sets, feats.astype(np.float32))
    parent, nf, log = run_layer_on(sets, cf, feats.astype(np.float32), pos, [],
                                   hi.MergeParams())
    assert log.accepted == []
    # Both clusters carry forward unchanged, each the sole child of its successor.
    assert parent.tolist() == [0, 1]
    assert np.array_equal(nf, cf)


def test_run_layer_transitive_union():
    # Three mutually adjacent, similar clusters merge into one with 3 children.
    pos, feats, sets = row_scene([(0.0, 0.1), (0.11, 0.2), (0.21, 0.3)], [0, 2, 4])
    cf = _layer_feats(sets, feats.astype(np.float32))
    parent, nf, log = run_layer_on(
        sets, cf, feats.astype(np.float32), pos, [], hi.MergeParams(K=1.0)
    )
    assert parent.tolist() == [0, 0, 0]
    assert len(nf) == 1
    assert len(log.accepted) >= 2


def test_run_layer_rejects_cross_object_pairs():
    # Each cluster is one prior, so each prior's box separates the pair.
    pos, feats, sets = row_scene([(0.0, 0.1), (0.11, 0.2)], [0, 2])
    cf = _layer_feats(sets, feats.astype(np.float32))
    parent, _nf, log = run_layer_on(
        sets, cf, feats.astype(np.float32), pos, sets, hi.MergeParams(K=1.0),
    )
    assert log.accepted == []
    assert log.rejected_stop == [(0, 1)]
    assert parent.tolist() == [0, 1]


def test_run_layer_accepted_set_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n_clusters = int(rng.integers(2, 13))
        n = n_clusters * 8
        pos = rng.random((n, 3)) * 0.4
        labels = rng.integers(0, n_clusters, size=n)
        labels[:n_clusters] = np.arange(n_clusters)
        sets = [np.flatnonzero(labels == c) for c in range(n_clusters)]
        # float32 features on both sides so the oracle sees the same rounding
        feats = rng.standard_normal((n_clusters, 6)).astype(np.float32)
        priors = box_priors(pos, [np.sort(rng.random((2, 3)) * 0.4, axis=0)
                                  for _ in range(int(rng.integers(0, 3)))])
        params = hi.MergeParams(
            K=float(rng.uniform(0.2, 1.0)),
            T=0.08,
            inside_frac=0.8,
            outside_frac=0.2,
            min_object_points=1,
        )
        point_feats = np.zeros((n, 6), dtype=np.float32)
        for i, ids in enumerate(sets):
            point_feats[ids] = feats[i]
        _parent, _nf, log = run_layer_on(
            sets, feats.astype(np.float32), point_feats, pos, priors, params
        )
        want = brute_accepted(sets, feats, pos, priors, params)
        assert set(log.accepted) == want, f"trial {trial}"


# ---------------------------------------------------------------------------
# run_hierarchy


def test_single_cluster_terminates_immediately():
    pos, feats, sets = row_scene([(0.0, 0.1)], [0])
    cloud = make_cloud(pos, feats)
    h = hi.run_hierarchy(sets, cloud, [], hi.MergeParams(min_object_points=1))
    assert len(h.layers) == 1
    assert h.merge_log == []


def test_two_similar_adjacent_clusters_merge_once():
    pos, feats, sets = row_scene([(0.0, 0.1), (0.11, 0.2)], [0, 2])
    cloud = make_cloud(pos, feats)
    h = hi.run_hierarchy(sets, cloud, [], hi.MergeParams(min_object_points=1))
    assert len(h.layers) == 2
    assert len(h.layers[-1]) == 1


def test_requires_semantic_features():
    cloud = SceneCloud(positions=np.zeros((4, 3), dtype=np.float32) + 0.5)
    with pytest.raises(ValueError):
        hi.run_hierarchy([np.arange(4)], cloud, [], hi.MergeParams())


def reference_hierarchy(sets, feats_by_cluster, positions, priors, params,
                        point_feats):
    """Straight-line re-implementation used as the oracle for run_hierarchy."""
    norms = point_norms(point_feats)
    layers = [list(map(np.asarray, sets))]
    cluster_feats = [np.asarray(f, dtype=np.float64) for f in feats_by_cluster]
    while len(layers) < params.max_layers:
        cur = layers[-1]
        accepted = brute_accepted(cur, cluster_feats, positions, priors, params)
        if not accepted:
            break
        groups = [{i} for i in range(len(cur))]
        for i, j in accepted:
            gi = next(g for g in groups if i in g)
            gj = next(g for g in groups if j in g)
            if gi is not gj:
                groups.remove(gj)
                gi |= gj
        groups.sort(key=min)
        nxt, nxt_feats = [], []
        for g in groups:
            ids = np.sort(np.concatenate([cur[c] for c in sorted(g)]))
            nxt.append(ids)
            if len(g) == 1:
                nxt_feats.append(cluster_feats[next(iter(g))])
            else:
                nxt_feats.append(fuse_feature(point_feats, ids, norms).astype(np.float64))
        layers.append(nxt)
        cluster_feats = nxt_feats
    return layers


def test_run_hierarchy_matches_reference_implementation():
    rng = np.random.default_rng(33)
    for trial in range(5):
        n_clusters = 10
        pos, feats, sets = row_scene(
            [(0.12 * k, 0.12 * k + 0.1) for k in range(n_clusters)],
            rng.uniform(0, 90, n_clusters),
            seed=trial,
        )
        cloud = make_cloud(pos, feats)
        params = hi.MergeParams(K=0.5, min_object_points=1)
        h = hi.run_hierarchy(sets, cloud, [], params)

        cluster_feats = [feats[s[0]] for s in sets]
        ref = reference_hierarchy(sets, cluster_feats, pos, [], params,
                                  cloud.semantic_features)
        assert len(h.layers) == len(ref)
        got_terminal = sorted(ids.tolist() for ids in h.clusters(-1))
        want_terminal = sorted(ids.tolist() for ids in ref[-1])
        assert got_terminal == want_terminal


def test_run_hierarchy_matches_reference_on_three_block_scene(three_block_scene):
    # Same straight-line oracle, but on the rendered scene with the ground
    # truth as priors.
    # (Feature fusion inside the oracle reuses fuse_feature; its correctness
    # is covered separately by the hand/loop fusion oracle.)
    from scipy.spatial.distance import cdist

    from part2object.superpoints import build_superpoints

    cloud, gt, _frames = three_block_scene
    pos = cloud.positions.astype(np.float64)
    priors = [g.point_ids for g in gt.instances]
    layer0 = build_superpoints(cloud)
    params = hi.MergeParams(min_object_points=30)
    h = hi.run_hierarchy(layer0, cloud, priors, params)

    import test_hierarchy as me

    original = me.brute_closest
    me.brute_closest = lambda pa, pb: float(cdist(pa, pb).min())
    try:
        norms = point_norms(cloud.semantic_features)
        feats0 = [
            fuse_feature(cloud.semantic_features, np.sort(ids), norms)
            for ids in layer0
        ]
        ref = reference_hierarchy(
            [np.sort(ids) for ids in layer0], feats0, pos, priors, params,
            cloud.semantic_features,
        )
    finally:
        me.brute_closest = original
    assert len(h.layers) == len(ref)
    got_terminal = sorted(ids.tolist() for ids in h.clusters(-1))
    want_terminal = sorted(ids.tolist() for ids in ref[-1])
    assert got_terminal == want_terminal


# ---------------------------------------------------------------------------
# invariants on a real scene


@pytest.fixture(scope="module")
def scene_hierarchy(three_block_scene):
    from part2object.superpoints import build_superpoints

    cloud, gt, _frames = three_block_scene
    layer0 = build_superpoints(cloud)
    params = hi.MergeParams(min_object_points=30)
    priors = [g.point_ids for g in gt.instances]
    return cloud, gt, hi.run_hierarchy(layer0, cloud, priors, params), params


def test_every_layer_is_a_partition(scene_hierarchy):
    cloud, _gt, h, _params = scene_hierarchy
    universe = np.arange(cloud.n_points)
    for t in range(len(h.layers)):
        pooled = np.concatenate(h.clusters(t))
        assert np.array_equal(np.sort(pooled), universe)


def test_layer_counts_monotone(scene_hierarchy):
    _cloud, _gt, h, _params = scene_hierarchy
    sizes = [len(layer) for layer in h.layers]
    assert all(b < a for a, b in zip(sizes, sizes[1:]))
    assert len(h.merge_log) == len(h.layers) - 1


def test_lineage_children_partition_parent(scene_hierarchy):
    _cloud, _gt, h, _params = scene_hierarchy
    for t in range(1, len(h.layers)):
        below = h.clusters(t - 1)
        for children, ids in zip(h.layers[t], h.clusters(t)):
            pooled = np.sort(np.concatenate([below[c] for c in children]))
            assert np.array_equal(pooled, ids)


def test_hierarchy_determinism(scene_hierarchy):
    from part2object.superpoints import build_superpoints

    cloud, gt, h, params = scene_hierarchy
    priors = [g.point_ids for g in gt.instances]
    h2 = hi.run_hierarchy(build_superpoints(cloud), cloud, priors, params)
    assert hi.hierarchy_to_dict(h) == hi.hierarchy_to_dict(h2)


def test_hierarchy_json_round_trip(scene_hierarchy):
    _cloud, _gt, h, _params = scene_hierarchy
    back = hi.hierarchy_from_dict(hi.hierarchy_to_dict(h))
    assert len(back.layers) == len(h.layers)
    for t, (la, lb) in enumerate(zip(h.layers, back.layers)):
        assert len(la) == len(lb)
        for ca, cb in zip(la, lb):
            assert np.array_equal(ca, cb)
        for ca, cb in zip(h.clusters(t), back.clusters(t)):
            assert np.array_equal(ca, cb)
    assert [log.accepted for log in back.merge_log] == [
        log.accepted for log in h.merge_log
    ]


# ---------------------------------------------------------------------------
# adjacency contracted round by round instead of rescanned from the points


def assert_contraction_exact(labels, parents, positions, t):
    """Contracting layer-0 edges through each parent array equals a fresh scan."""
    edges = hi.candidate_pairs(labels, positions, t)
    for parent in parents:
        edges = hi.contract_edges(edges, parent)
        labels = parent[labels]
        assert edges.dtype == np.int64 and edges.shape[1] == 2
        assert np.array_equal(edges, hi.candidate_pairs(labels, positions, t))


def random_merge(rng, n):
    """Parent array of a random grouping of n clusters, numbered by smallest child."""
    group_of = rng.integers(0, max(1, n // 2), size=n)
    _, first, inverse = np.unique(group_of, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def lineage(h):
    """Layer-0 point labels and each round's parent array, from the stored lineage."""
    parents = [hi._partition_labels(layer, len(below))
               for below, layer in zip(h.layers, h.layers[1:])]
    return hi._partition_labels(h.layers[0], h.n_points), parents


def test_contracted_edges_match_candidate_pairs_on_random_layers():
    from conftest import random_partition

    rng = np.random.default_rng(41)
    for _ in range(20):
        n_clusters = int(rng.integers(2, 40))
        n = n_clusters * int(rng.integers(3, 9))
        pos = rng.random((n, 3)) * 0.5
        labels = random_partition(rng, n, n_clusters)
        parents = []
        while n_clusters > 1:
            parents.append(random_merge(rng, n_clusters))
            n_clusters = int(parents[-1].max()) + 1
        assert_contraction_exact(labels, parents, pos, 0.06)


@pytest.fixture(scope="module")
def synth_hierarchies():
    """c3-style random scenes (with and without a room) and a three-block room."""
    from conftest import three_block_spec
    from part2object import objectness, synth
    from part2object.superpoints import build_superpoints
    from test_acceptance import random_scene_spec

    rng = np.random.default_rng(303)
    specs = [random_scene_spec(rng) for _ in range(4)]
    specs.append(three_block_spec(seed=13, room=(4.0, 4.0, 1.5), points_per_m2=800.0))
    assert any(spec.room is not None for spec in specs[:4])
    params = hi.MergeParams(min_object_points=20)
    out = []
    for spec in specs:
        cloud, _gt, frames = synth.generate(spec)
        layer0 = build_superpoints(cloud)
        priors = [t.point_ids for t in objectness.build_tracks(cloud, frames)]
        out.append((cloud, layer0, priors, params,
                    hi.run_hierarchy(layer0, cloud, priors, params)))
    return out


def test_contracted_edges_match_candidate_pairs_on_synth_scenes(synth_hierarchies):
    for cloud, _layer0, _priors, params, h in synth_hierarchies:
        assert len(h.layers) > 1
        labels, parents = lineage(h)
        assert_contraction_exact(labels, parents, cloud.positions.astype(np.float64), params.T)


def test_run_hierarchy_matches_rescanning_reference(synth_hierarchies):
    for cloud, layer0, priors, params, h in synth_hierarchies:
        positions = cloud.positions.astype(np.float64)
        point_feats = cloud.semantic_features
        norms = point_norms(point_feats)
        layers = [[np.sort(ids) for ids in layer0]]
        labels = labels_of(layers[0])
        features = [np.asarray([fuse_feature(point_feats, ids, norms)
                                for ids in layers[0]], dtype=np.float32)]
        merge_log = []
        while len(layers) < params.max_layers:
            # Edges and box counts scanned from the points of this layer, not
            # contracted.
            parent, nxt_feats, log, _children = hi.run_layer(
                labels, features[-1], point_feats, norms,
                hi.candidate_pairs(labels, positions, params.T),
                hi._box_counts(labels, len(features[-1]), positions, priors), params,
            )
            if not log.accepted:
                break
            layers.append([np.flatnonzero(parent == k) for k in range(len(nxt_feats))])
            features.append(nxt_feats)
            merge_log.append(log)
            labels = parent[labels]
        ref = hi.Hierarchy(layers=layers, merge_log=merge_log)
        assert hi.hierarchy_to_dict(h) == hi.hierarchy_to_dict(ref)


def test_run_hierarchy_scans_points_once(monkeypatch, three_block_scene):
    from part2object.superpoints import build_superpoints

    cloud, gt, _frames = three_block_scene
    priors = [g.point_ids for g in gt.instances]
    calls = {"pairs": 0, "box": 0}
    real_pairs, real_counts = hi.labeled_close_pairs, hi._box_counts

    def counting_pairs(*args, **kwargs):
        calls["pairs"] += 1
        return real_pairs(*args, **kwargs)

    def counting_counts(*args, **kwargs):
        calls["box"] += 1
        return real_counts(*args, **kwargs)

    monkeypatch.setattr(hi, "labeled_close_pairs", counting_pairs)
    monkeypatch.setattr(hi, "_box_counts", counting_counts)
    h = hi.run_hierarchy(build_superpoints(cloud), cloud, priors,
                         hi.MergeParams(min_object_points=30))
    assert len(h.merge_log) >= 2
    # One adjacency scan and one box test of the points, both on layer 0.
    assert calls == {"pairs": 1, "box": 1}


# ---------------------------------------------------------------------------
# box counts contracted round by round instead of rescanned from the points


def rescanned_counts(labels, positions, priors):
    """Literal reference: each cluster's points inside the tight box of each
    prior's points, then its size."""
    boxes = [tight_box(positions, prior) for prior in priors]
    rows = []
    for c in range(int(labels.max()) + 1):
        pts = positions[labels == c]
        rows.append([int(points_in_box(pts, *box).sum()) for box in boxes] + [len(pts)])
    return np.array(rows, dtype=np.float64)


def record_rounds(monkeypatch):
    """(labels, counts, log) of every run_layer call run_hierarchy makes."""
    rounds = []
    real = hi.run_layer

    def recording(labels, feats, point_features, norms, edges, counts, params):
        result = real(labels, feats, point_features, norms, edges, counts, params)
        rounds.append((labels, counts, result[2]))
        return result

    monkeypatch.setattr(hi, "run_layer", recording)
    return rounds


def assert_counts_rescan_exactly(monkeypatch, layer0, cloud, priors, params):
    """run_hierarchy with every round's counts checked against a rescan; returns
    the rounds and the hierarchy."""
    rounds = record_rounds(monkeypatch)
    h = hi.run_hierarchy(layer0, cloud, priors, params)
    monkeypatch.undo()
    positions = cloud.positions.astype(np.float64)
    for labels, counts, _log in rounds:
        assert counts.dtype == np.float64
        assert np.array_equal(counts, rescanned_counts(labels, positions, priors))
    return rounds, h


def test_box_counts_equal_a_rescan_against_each_priors_tight_box():
    # Random point sets as priors: their tight boxes also hold other points.
    from conftest import random_partition

    rng = np.random.default_rng(67)
    wider = 0
    for trial in range(20):
        n_clusters = int(rng.integers(1, 12))
        n = n_clusters * int(rng.integers(2, 12))
        pos = rng.random((n, 3))
        labels = random_partition(rng, n, n_clusters)
        priors = [np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.3)) for _ in range(4)]
        # A one-point prior's box has no volume.
        priors = [ids for ids in priors if ids.size] + [rng.integers(0, n, 1)]
        got = hi._box_counts(labels, n_clusters, pos, priors)
        assert got.dtype == np.float64, trial
        assert np.array_equal(got, rescanned_counts(labels, pos, priors)), trial
        wider += (got[:, :-1].sum(axis=0) > [ids.size for ids in priors]).any()
    assert wider >= 10


def test_every_track_point_counts_inside_its_prior(three_block_scene):
    # The derived box is closed on every face: a track's extreme points, which
    # lie on its box's faces, count as inside.
    from part2object.objectness import build_tracks

    cloud, _gt, frames = three_block_scene
    priors = [t.point_ids for t in build_tracks(cloud, frames)]
    assert len(priors) == 3
    pos = cloud.positions.astype(np.float64)
    for k, ids in enumerate(priors):
        labels = np.ones(cloud.n_points, dtype=np.int64)
        labels[ids] = 0
        assert hi._box_counts(labels, 2, pos, priors)[0, k] == ids.size


def test_contracted_box_counts_match_rescanned_counts_on_synth_scenes(monkeypatch,
                                                                      synth_hierarchies):
    for cloud, layer0, priors, params, h in synth_hierarchies:
        # A prior of every point cannot separate two clusters, so the
        # hierarchy stays the same.
        everything = [np.arange(cloud.n_points)]
        for scene_priors in (priors, priors + everything, []):
            rounds, got = assert_counts_rescan_exactly(monkeypatch, layer0, cloud,
                                                       scene_priors, params)
            assert len(rounds) >= 2
            if scene_priors:
                assert hi.hierarchy_to_dict(got) == hi.hierarchy_to_dict(h)


def test_contracted_box_counts_match_rescanned_counts_on_random_layers(monkeypatch):
    from conftest import random_partition

    rng = np.random.default_rng(59)
    multi_round = 0
    for trial in range(20):
        n_clusters = int(rng.integers(2, 30))
        n = n_clusters * int(rng.integers(3, 9))
        pos = rng.random((n, 3)) * 0.4
        labels = random_partition(rng, n, n_clusters)
        base = rng.standard_normal((3, 4))
        feats = base[rng.integers(0, 3, n_clusters)][labels] + 0.3 * rng.standard_normal((n, 4))
        cloud = make_cloud(pos, feats)
        # B = 0 every fourth trial.
        priors = box_priors(cloud.positions.astype(np.float64),
                            [np.sort(rng.random((2, 3)) * 0.4, axis=0) for _ in range(trial % 4)])
        params = hi.MergeParams(K=float(rng.uniform(0.3, 1.0)), T=0.08,
                                inside_frac=0.8, outside_frac=0.2, min_object_points=1)
        rounds, _h = assert_counts_rescan_exactly(
            monkeypatch, [np.flatnonzero(labels == c) for c in range(n_clusters)],
            cloud, priors, params)
        multi_round += len(rounds) >= 3
    assert multi_round >= 5


def test_contracted_box_counts_reach_the_veto_thresholds_exactly(monkeypatch):
    # Round 1: a1 (8 of 10 points in the box) joins a2 (10 of 10); a2 and b
    # (1 of 10) are vetoed. Round 2: a1 + a2 holds 18 of 20 points, exactly
    # inside_frac = 0.9, and b exactly outside_frac = 0.1, so that pair is
    # vetoed too.
    pos, feats, sets = row_scene([(0.0, 0.1), (0.11, 0.2), (0.21, 0.3)], [0, 0, 0], pts_per=10)
    cloud = make_cloud(pos, feats)
    pos = cloud.positions.astype(np.float64)
    a1_x, b_x = np.sort(pos[sets[0], 0]), np.sort(pos[sets[2], 0])
    prior = np.flatnonzero(points_in_box(pos, (a1_x[2], -1.0, -1.0), (b_x[0], 1.0, 1.0)))
    rounds, h = assert_counts_rescan_exactly(monkeypatch, sets, cloud, [prior],
                                             hi.MergeParams(K=1.0, min_object_points=1))
    assert [counts.tolist() for _labels, counts, _log in rounds] == [
        [[8.0, 10.0], [10.0, 10.0], [1.0, 10.0]],
        [[18.0, 20.0], [1.0, 10.0]],
    ]
    assert [(log.accepted, log.rejected_stop) for _l, _c, log in rounds] == [
        ([(0, 1)], [(1, 2)]),
        ([], [(0, 1)]),
    ]
    assert len(h.layers) == 2


def test_inside_fractions_equal_fraction_inside():
    # The fractions run_layer vetoes on, count / size from _box_counts, equal
    # the literal per-cluster fraction: the share of its points inside each
    # prior's tight box.
    rng = np.random.default_rng(8)
    pos = rng.random((300, 3))
    priors = box_priors(pos, [np.sort(rng.random((2, 3)), axis=0) for _ in range(4)])
    boxes = [tight_box(pos, prior) for prior in priors]
    sets = [np.flatnonzero(rng.random(300) < 0.2) for _ in range(6)] + [np.empty(0, int)]
    got, want = [], []
    for ids in sets:
        # Cluster 0 is the set, cluster 1 every other point.
        labels = np.ones(300, dtype=np.int64)
        labels[ids] = 0
        counts = hi._box_counts(labels, 2, pos, priors)
        inside = [points_in_box(pos[ids], *box) for box in boxes]
        assert counts[0].tolist() == [c.sum() for c in inside] + [ids.size]
        if ids.size:
            got.append((counts[:, :-1] / counts[:, -1:])[0].tolist())
            want.append([float(c.mean()) for c in inside])
    assert len(got) == 6 and got == want


# ---------------------------------------------------------------------------
# object and part collection


def test_collect_objects_single_merged_cluster():
    pos, feats, sets = row_scene([(0.0, 0.1), (0.11, 0.2)], [0, 2])
    cloud = make_cloud(pos, feats)
    h = hi.run_hierarchy(sets, cloud, [], hi.MergeParams(min_object_points=1))
    objs = hi.collect_objects(h, hi.MergeParams(min_object_points=1))
    assert len(objs) == 1
    assert objs.instances[0].confidence == 1.0
    assert objs.instances[0].point_ids.size == 40


def test_collect_objects_size_threshold():
    pos, feats, sets = row_scene([(0.0, 0.1), (1.0, 1.1)], [0, 5])
    cloud = make_cloud(pos, feats)
    h = hi.run_hierarchy(sets, cloud, [], hi.MergeParams(min_object_points=1))
    assert len(hi.collect_objects(h, hi.MergeParams(min_object_points=21))) == 0
    assert len(hi.collect_objects(h, hi.MergeParams(min_object_points=20))) == 2


def test_three_block_objects_match_ground_truth(scene_hierarchy):
    from part2object.evaluation import mask_iou

    _cloud, gt, h, params = scene_hierarchy
    objs = hi.collect_objects(h, params)
    assert len(objs) == 3
    for inst in objs.instances:
        best = max(mask_iou(inst.point_ids, g.point_ids) for g in gt.instances)
        assert best >= 0.9


def test_parts_partition_objects(scene_hierarchy):
    _cloud, _gt, h, params = scene_hierarchy
    objs = hi.collect_objects(h, params)
    parts = hi.collect_parts(h, objs)
    pooled_parts = np.sort(np.concatenate([p.point_ids for p in parts.instances]))
    pooled_objs = np.sort(np.concatenate([o.point_ids for o in objs.instances]))
    assert np.array_equal(pooled_parts, pooled_objs)


def test_layer0_object_is_its_own_part():
    pos, feats, sets = row_scene([(0.0, 0.1)], [0])
    cloud = make_cloud(pos, feats)
    h = hi.run_hierarchy(sets, cloud, [], hi.MergeParams(min_object_points=1))
    objs = hi.collect_objects(h, hi.MergeParams(min_object_points=1))
    parts = hi.collect_parts(h, objs)
    assert len(parts) == 1
    assert parts.instances[0].kind == "part"
    assert np.array_equal(parts.instances[0].point_ids, objs.instances[0].point_ids)


def test_two_part_object_traces_back_through_carry_forward():
    # back+seat merge in round 1; an unrelated trio keeps merging afterwards,
    # so the assembled object rides a carry-forward chain to the terminal
    # layer. Its parts must still be the two round-0 pieces.
    ranges = [(0.0, 0.1), (0.11, 0.2), (1.0, 1.1), (1.11, 1.2), (1.21, 1.3)]
    angles = [0, 3, 45, 57, 77]
    pos, feats, sets = row_scene(ranges, angles)
    cloud = make_cloud(pos, feats)
    params = hi.MergeParams(K=0.6, min_object_points=1)
    h = hi.run_hierarchy(sets, cloud, [], params)
    assert len(h.layers) >= 3

    objs = hi.collect_objects(h, params)
    parts = hi.collect_parts(h, objs)
    toilet = next(
        o for o in objs.instances
        if np.array_equal(o.point_ids, np.sort(np.concatenate(sets[:2])))
    )
    toilet_parts = [
        p for p in parts.instances if np.isin(p.point_ids, toilet.point_ids).all()
    ]
    got = sorted(p.point_ids.tolist() for p in toilet_parts)
    want = sorted([sets[0].tolist(), sets[1].tolist()])
    assert got == want


def reference_objects_and_parts(data, min_points):
    """Objects, parts and the layer each object formed at, read literally off
    hierarchy.json (points and children)."""
    layers = [layer["clusters"] for layer in data["layers"]]
    sets = [[sorted(c["points"]) for c in layers[0]]]
    for layer in layers[1:]:
        sets.append([sorted(p for c in cl["children"] for p in sets[-1][c]) for cl in layer])
    objects = [ids for ids in sets[-1] if len(ids) >= min_points]
    parts, formed = [], []
    for ids in objects:
        t = next(t for t in range(len(sets)) if ids in sets[t])
        formed.append(t)
        if t == 0:
            parts.append(ids)
        else:
            children = layers[t][sets[t].index(ids)]["children"]
            parts += [sets[t - 1][c] for c in children]
    return objects, parts, formed


def carry_forward_row_hierarchy():
    ranges = [(0.0, 0.1), (0.11, 0.2), (1.0, 1.1), (1.11, 1.2), (1.21, 1.3)]
    pos, feats, sets = row_scene(ranges, [0, 3, 45, 57, 77])
    params = hi.MergeParams(K=0.6, min_object_points=1)
    return hi.run_hierarchy(sets, make_cloud(pos, feats), [], params), params


def test_objects_and_parts_equal_literal_reference(synth_hierarchies):
    cases = [(h, params) for _c, _l, _b, params, h in synth_hierarchies]
    cases.append(carry_forward_row_hierarchy())
    descended = at_layer0 = 0
    for h, params in cases:
        data = hi.hierarchy_to_dict(h)
        for min_points in (1, params.min_object_points):
            objs = hi.collect_objects(h, hi.MergeParams(min_object_points=min_points))
            parts = hi.collect_parts(h, objs)
            want_objs, want_parts, formed = reference_objects_and_parts(data, min_points)
            assert [o.point_ids.tolist() for o in objs.instances] == want_objs
            assert [q.point_ids.tolist() for q in parts.instances] == want_parts
            assert all(o.kind == "object" for o in objs.instances)
            assert all(q.kind == "part" for q in parts.instances)
            descended += sum(0 < t < len(h.layers) - 1 for t in formed)
            at_layer0 += formed.count(0)
    # Some objects formed below the terminal layer and some are super-points,
    # so the walk's descent and its layer-0 exit are both compared.
    assert descended > 0 and at_layer0 > 0


def test_collect_parts_rejects_an_object_that_is_not_a_terminal_cluster():
    from part2object.scene_io import Instance, InstanceSet

    h, _params = carry_forward_row_hierarchy()
    merged = next(c for c in h.layers[1] if len(c) > 1)
    superpoint = h.layers[0][merged[0]]
    for ids in (superpoint, np.empty(0, dtype=np.int64)):
        with pytest.raises(ValueError, match="not a terminal cluster"):
            hi.collect_parts(h, InstanceSet([Instance(ids)]))


def test_run_layer_numbers_next_clusters_by_smallest_member():
    rng = np.random.default_rng(57)
    for _ in range(40):
        n_clusters = int(rng.integers(2, 25))
        n = n_clusters * 4
        pos = rng.random((n, 3)) * 0.3
        labels = rng.integers(0, n_clusters, size=n)
        labels[:n_clusters] = np.arange(n_clusters)
        sets = [np.flatnonzero(labels == c) for c in range(n_clusters)]
        feats = rng.standard_normal((n_clusters, 4)).astype(np.float32)
        point_feats = feats[labels]
        parent, _nf, log = run_layer_on(sets, feats, point_feats, pos, [],
                                        hi.MergeParams(K=0.7, T=0.08))
        # Literal union-find over the accepted pairs; groups ordered by min member.
        group = list(range(n_clusters))
        for i, j in log.accepted:
            gi, gj = group[i], group[j]
            group = [gi if g == gj else g for g in group]
        order = sorted(set(group), key=lambda g: group.index(g))
        assert parent.tolist() == [order.index(g) for g in group]


@pytest.mark.parametrize("mutation", ["overlap", "gap", "out_of_range", "negative", "empty"])
def test_run_hierarchy_rejects_layer0_that_does_not_partition(mutation):
    pos, feats, sets = row_scene([(0.0, 0.1), (0.11, 0.2)], [0, 2])
    sets = [s.tolist() for s in sets]
    if mutation == "overlap":
        sets[1].append(0)
    elif mutation == "gap":
        sets[1].pop()
    elif mutation == "out_of_range":
        sets[1].append(40)
    elif mutation == "negative":
        sets[0][0] = -1
    else:
        sets.append([])
    with pytest.raises(ValueError):
        hi.run_hierarchy(sets, make_cloud(pos, feats), [], hi.MergeParams())


@pytest.mark.parametrize("mutation", ["boolean_id", "cluster_key", "layer_key"])
def test_hierarchy_from_dict_reads_ids_and_keys_as_other_json_readers_do(mutation):
    # Each mutation leaves a partition that would load if it were not caught.
    from part2object.errors import FormatError

    h, _params = carry_forward_row_hierarchy()
    data = hi.hierarchy_to_dict(h)
    for t in range(len(data["layers"])):
        broken = json.loads(json.dumps(data))
        layer = broken["layers"][t]
        key = "points" if t == 0 else "children"
        k = next(k for k, c in enumerate(layer["clusters"]) if 1 in c[key])
        if mutation == "boolean_id":
            # JSON true is 1 in a numpy id array.
            ids = layer["clusters"][k][key]
            ids[ids.index(1)] = True
            message = f"set {k} is not a flat array of integer ids"
        elif mutation == "cluster_key":
            layer["clusters"][k]["extra"] = 1
            message = "unknown cluster keys ['extra']"
        else:
            layer["extra"] = 1
            message = "unknown layer keys ['extra']"
        with pytest.raises(FormatError, match=re.escape(f"h.json: hierarchy layer {t}: {message}")):
            hi.hierarchy_from_dict(broken, "h.json")


@pytest.mark.parametrize("mutation", ["overlap", "gap", "out_of_range", "empty"])
def test_hierarchy_from_dict_rejects_layers_that_do_not_partition(mutation):
    from part2object.errors import FormatError

    h, _params = carry_forward_row_hierarchy()
    data = hi.hierarchy_to_dict(h)
    assert hi.hierarchy_to_dict(hi.hierarchy_from_dict(data)) == data
    for t in range(len(data["layers"])):
        broken = json.loads(json.dumps(data))
        clusters = broken["layers"][t]["clusters"]
        key = "points" if t == 0 else "children"
        n_below = data["n_points"] if t == 0 else len(data["layers"][t - 1]["clusters"])
        if mutation == "overlap":
            clusters[-1][key].append(clusters[0][key][0])
        elif mutation == "gap":
            clusters[-1][key].pop()
            if not clusters[-1][key]:
                clusters.pop()
        elif mutation == "out_of_range":
            clusters[-1][key].append(n_below)
        else:
            clusters.append({key: []})
        with pytest.raises(FormatError, match=f"hierarchy layer {t}"):
            hi.hierarchy_from_dict(broken)
