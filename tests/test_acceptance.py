"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Oracles here are deliberately independent re-implementations (plain
loops) of the documented contracts.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from part2object import evaluation, hierarchy, objectness, scene_io, superpoints, synth
from part2object.features import point_norms

from conftest import points_in_box, spec_json, three_block_spec
from test_evaluation import instset, oracle_ap
from test_features import fuse, fuse_oracle
from test_hierarchy import box_priors, brute_accepted
from test_objectness import bfs_components, brute_links


def report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. feature-fusion oracle


def test_c1_fusion_matches_direct_evaluation():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 65))
        size = int(rng.integers(1, 201))
        feats = rng.standard_normal((size, dim))
        got = fuse(feats).astype(np.float64)
        want = fuse_oracle(feats)
        scale = max(np.linalg.norm(want), 1e-12)
        worst = max(worst, float(np.linalg.norm(got - want)) / scale)
        assert worst <= 1e-6, f"relative error {worst:.3g} exceeds 1e-6"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"fusion oracle run took {elapsed:.2f}s (limit 5s)"
    report(f"1 fusion oracle: PASS (1000 cases, worst rel err {worst:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. merge-rule oracle


def test_c2_layer_merges_match_brute_force():
    rng = np.random.default_rng(202)
    for trial in range(200):
        n_clusters = int(rng.integers(2, 13))
        n = n_clusters * int(rng.integers(4, 10))
        pos = rng.random((n, 3)) * 0.4
        labels = rng.integers(0, n_clusters, size=n)
        labels[:n_clusters] = np.arange(n_clusters)
        sets = [np.flatnonzero(labels == c) for c in range(n_clusters)]
        feats = rng.standard_normal((n_clusters, 5))
        priors = box_priors(pos, [np.sort(rng.random((2, 3)) * 0.4, axis=0)
                                  for _ in range(int(rng.integers(0, 4)))])
        params = hierarchy.MergeParams(
            K=float(rng.uniform(0.1, 1.0)),
            T=float(rng.uniform(0.03, 0.12)),
            inside_frac=float(rng.uniform(0.6, 1.0)),
            outside_frac=float(rng.uniform(0.0, 0.3)),
            min_object_points=1,
        )
        point_feats = np.zeros((n, 5), dtype=np.float32)
        for i, ids in enumerate(sets):
            point_feats[ids] = feats[i]
        _parent, _nf, log, _children = hierarchy.run_layer(
            labels, feats.astype(np.float32), point_feats, point_norms(point_feats),
            hierarchy.candidate_pairs(labels, pos, params.T),
            hierarchy._box_counts(labels, n_clusters, pos, priors), params,
        )
        want = brute_accepted(sets, feats, pos, priors, params)
        assert set(log.accepted) == want, f"trial {trial}: {set(log.accepted)} != {want}"
    report("2 merge-rule oracle: PASS (200 random layers, exact match)")


# ---------------------------------------------------------------------------
# 3. partition invariants on randomized scenes


def random_scene_spec(rng):
    n_objects = int(rng.integers(1, 4))
    objects = []
    for k in range(n_objects):
        shape = "cuboid" if rng.random() < 0.7 else "cylinder"
        size = float(rng.uniform(0.3, 0.6))
        objects.append(
            synth.SynthObject(
                shape=shape,
                center=(float(k * 1.2 - 1.2 + rng.uniform(-0.1, 0.1)),
                        float(rng.uniform(-0.2, 0.2)),
                        size / 2.0),
                size=(size, size, size),
                yaw=float(rng.uniform(0, math.pi)),
            )
        )
    return synth.SynthSpec(
        seed=int(rng.integers(0, 2**31)),
        objects=objects,
        room=None if rng.random() < 0.5 else (4.0, 3.0, 1.0),
        points_per_m2=float(rng.uniform(600, 1800)),
        cameras=[synth.look_at((0.0, -2.5, 1.5), (0.0, 0.0, 0.3))],
    )


def test_c3_partition_invariants_on_random_scenes():
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(50):
        spec = random_scene_spec(rng)
        cloud, _gt, frames = synth.generate(spec)
        layer0 = superpoints.build_superpoints(cloud)
        priors = [t.point_ids for t in objectness.build_tracks(cloud, frames)]
        params = hierarchy.MergeParams(min_object_points=20)
        h = hierarchy.run_hierarchy(layer0, cloud, priors, params)

        universe = np.arange(cloud.n_points)
        for t in range(len(h.layers)):
            pooled = np.sort(np.concatenate(h.clusters(t)))
            if not np.array_equal(pooled, universe):
                violations += 1
        objs = hierarchy.collect_objects(h, params)
        parts = hierarchy.collect_parts(h, objs)
        if len(objs):
            pooled_o = np.sort(np.concatenate([o.point_ids for o in objs.instances]))
            pooled_p = np.sort(np.concatenate([p.point_ids for p in parts.instances]))
            if not np.array_equal(pooled_o, pooled_p):
                violations += 1
    assert violations == 0
    report("3 partition invariants: PASS (50 scenes, 0 violations)")


# ---------------------------------------------------------------------------
# 4. stop-criterion efficacy (prior guidance ablation)


def test_c4_priors_separate_adjacent_objects():
    # Blocks 0.04 m apart: within the adjacency threshold, so only the
    # priors can stop cross-object merging once the rank filter lets
    # everything through.
    spec = three_block_spec(seed=7, gap=0.04)
    cloud, gt, _frames = synth.generate(spec)
    perfect = [g.point_ids for g in gt.instances]
    layer0 = superpoints.build_superpoints(cloud)

    guided_params = hierarchy.MergeParams(min_object_points=30)
    guided = hierarchy.run_hierarchy(layer0, cloud, perfect, guided_params)
    guided_objects = hierarchy.collect_objects(guided, guided_params)
    ap_guided = evaluation.evaluate(guided_objects, gt).ap50

    blind_params = hierarchy.MergeParams(K=1.0, min_object_points=30)
    blind = hierarchy.run_hierarchy(layer0, cloud, [], blind_params)
    blind_objects = hierarchy.collect_objects(blind, blind_params)
    ap_blind = evaluation.evaluate(blind_objects, gt).ap50

    assert ap_guided == 1.0, f"guided mAP@50 {ap_guided} != 1.0"
    assert ap_blind < 1.0, f"unguided mAP@50 {ap_blind} should drop below 1.0"
    report(f"4 prior guidance: PASS (guided mAP@50 = {ap_guided}, unguided = {ap_blind})")


# ---------------------------------------------------------------------------
# 5. matching + propagation oracles


def test_c5_matching_and_propagation_oracles():
    rng = np.random.default_rng(505)
    for _ in range(100):
        n_frames = int(rng.integers(2, 6))
        counts = rng.integers(1, 6, size=n_frames)
        nodes = [(f, m) for f in range(n_frames) for m in range(counts[f])]
        edges = []
        for f in range(n_frames - 1):
            for i in range(counts[f]):
                if rng.random() < 0.6:
                    edges.append(((f, i), (f + 1, int(rng.integers(0, counts[f + 1])))))
        got = [t.members for t in objectness.propagate_sameness(nodes, edges)]
        assert got == bfs_components(nodes, edges)

    from test_objectness import frame_with_features

    for _ in range(100):
        na, nb = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        fa = rng.standard_normal((na, 6)) + 0.01
        fb = rng.standard_normal((nb, 6)) + 0.01
        tau = float(rng.uniform(-0.6, 0.95))
        got = objectness.match_adjacent(
            frame_with_features(0, fa), frame_with_features(1, fb), tau
        )
        assert got == brute_links(fa, fb, tau)
    report("5 matching/propagation oracles: PASS (100 graphs + 100 feature sets, exact)")


# ---------------------------------------------------------------------------
# 6. projection oracle


def cube_faces(n_side, lo, hi, z_near, z_far):
    lin = np.linspace(lo + 1e-3, hi - 1e-3, n_side)
    g1, g2 = (g.ravel() for g in np.meshgrid(lin, lin, indexing="ij"))
    zs = np.linspace(z_near + 1e-3, z_far - 1e-3, n_side)
    gz1, gz2 = (g.ravel() for g in np.meshgrid(lin, zs, indexing="ij"))
    front = np.column_stack([g1, g2, np.full(g1.size, z_near)])
    back = np.column_stack([g1, g2, np.full(g1.size, z_far)])
    left = np.column_stack([np.full(gz1.size, lo), gz1, gz2])
    right = np.column_stack([np.full(gz1.size, hi), gz1, gz2])
    bottom = np.column_stack([gz1, np.full(gz1.size, lo), gz2])
    top = np.column_stack([gz1, np.full(gz1.size, hi), gz2])
    return front, np.vstack([back, left, right, bottom, top])


def test_c6_projection_recovers_visible_face():
    depth_tol = 0.05
    for tz, z_near in ((0.0, 2.0), (-0.5, 2.5), (0.25, 1.75)):
        front, rest = cube_faces(24, -0.45, 0.45, z_near, z_near + 0.9)
        positions = np.vstack([front, rest, [[0.0, 0.0, tz - 1.0]]])
        cloud = scene_io.SceneCloud(positions=positions.astype(np.float32))
        h, w = 96, 96
        cam_depth = z_near - tz
        frame = scene_io.FrameObservation(
            frame_id=0,
            intrinsics=np.array(
                [[90.0, 0, (w - 1) / 2], [0, 90.0, (h - 1) / 2], [0, 0, 1]]
            ),
            extrinsics=np.array(
                [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, tz], [0, 0, 0, 1.0]]
            ),
            depth=np.full((h, w), cam_depth, dtype=np.float32),
            masks=[
                scene_io.MaskEntry(
                    bitmap=np.ones((h, w), dtype=bool),
                    feature=np.ones(4, dtype=np.float32),
                )
            ],
        )
        ids = objectness.project_mask_points(
            frame, 0, objectness.visible_points(cloud, frame, depth_tol))

        n_front = front.shape[0]
        recovered = np.isin(np.arange(n_front), ids).mean()
        assert recovered >= 0.99, f"only {recovered:.3f} of visible face recovered"
        # no inclusion may sit farther than depth_tol from the true surface
        true_depth = positions[ids, 2] - tz
        assert (np.abs(true_depth - cam_depth) <= depth_tol + 1e-9).all()
    report("6 projection oracle: PASS (3 camera setups, full face, 0 bad inclusions)")


# ---------------------------------------------------------------------------
# 7. AP evaluator oracle


def test_c7_ap_matches_exhaustive_oracle():
    rng = np.random.default_rng(707)
    cases = 0
    thresholds = sorted(evaluation.DEFAULT_THRESHOLDS)
    while cases < 500:
        n_gt = int(rng.integers(1, 4))
        n_pred = int(rng.integers(0, 5 - n_gt + 2))
        if n_gt + n_pred > 5 or n_pred == 0:
            continue
        universe = 30
        gt_sets, used = [], set()
        for _ in range(n_gt):
            base = int(rng.integers(0, universe - 6))
            ids = set(range(base, base + int(rng.integers(2, 7)))) - used
            if ids:
                gt_sets.append(ids)
                used |= ids
        if not gt_sets:
            continue
        pred_items = []
        for _ in range(n_pred):
            base = int(rng.integers(0, universe - 6))
            pred_items.append(
                (set(range(base, base + int(rng.integers(2, 7)))),
                 float(rng.choice([0.4, 0.6, 0.8, 1.0])))
            )
        preds = instset(*[sorted(s) for s, _ in pred_items],
                        confs=[c for _, c in pred_items])
        gt = instset(*[sorted(s) for s in gt_sets])
        rep = evaluation.evaluate(preds, gt)
        aps = [rep.ap_by_threshold[t] for t in thresholds]
        assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:])), "not monotone"
        for theta in thresholds:
            want = oracle_ap(pred_items, gt_sets, theta)
            assert rep.ap_by_threshold[theta] == pytest.approx(want, abs=1e-12)
        cases += 1

    gt = instset(range(12), range(20, 33), range(40, 44))
    identity = evaluation.evaluate(gt, gt)
    assert identity.ap25 == 1.0 and identity.ap50 == 1.0 and identity.mean_ap == 1.0
    report("7 AP oracle: PASS (500 cases exact, identity = 1.0, monotone)")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism and runtime


def test_c8_cli_run_is_deterministic_and_fast(tmp_path):
    spec = three_block_spec(seed=13, room=(4.0, 4.0, 1.5), points_per_m2=1150.0)
    scene = tmp_path / "scene"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_json(spec))
    subprocess.run(
        [sys.executable, "-m", "part2object", "synth", "--spec", str(spec_path),
         "--out", str(scene)],
        check=True,
    )
    cloud = scene_io.load_scene(scene)
    assert cloud.n_points >= 50_000, f"scene has only {cloud.n_points} points"

    def run(out):
        t0 = time.monotonic()
        subprocess.run(
            [sys.executable, "-m", "part2object", "run", "--scene", str(scene),
             "--out", str(out), "--min-object-points", "30"],
            check=True,
        )
        return time.monotonic() - t0

    t_a = run(tmp_path / "a")
    t_b = run(tmp_path / "b")
    assert t_a < 60.0 and t_b < 60.0, f"runs took {t_a:.1f}s / {t_b:.1f}s (limit 60s)"

    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    report(f"8 end-to-end determinism: PASS ({cloud.n_points} pts, "
           f"{len(files_a)} identical artifacts, {max(t_a, t_b):.1f}s worst run)")


# ---------------------------------------------------------------------------
# 9. performance floor at scale


def test_c9_large_scene_clustering_under_budget():
    rng = np.random.default_rng(909)
    blocks_per_side = 7
    n_objects = blocks_per_side**2
    patches_per_object = 102
    points_per_patch = 100
    feat_dim = 16

    positions = np.empty((n_objects * patches_per_object * points_per_patch, 3))
    features = np.empty((positions.shape[0], feat_dim), dtype=np.float32)
    layer0 = []
    obj_feats = np.linalg.qr(rng.standard_normal((feat_dim, feat_dim)))[0].T

    cursor = 0
    for ox in range(blocks_per_side):
        for oy in range(blocks_per_side):
            origin = np.array([ox * 1.4, oy * 1.4, 0.0])
            feat = obj_feats[(ox * blocks_per_side + oy) % feat_dim]
            for p in range(patches_per_object):
                px, py = divmod(p, 10)
                base = origin + (px * 0.098, py * 0.098, 0.0)
                pts = base + rng.random((points_per_patch, 3)) * (0.098, 0.098, 0.4)
                sl = slice(cursor, cursor + points_per_patch)
                positions[sl] = pts
                features[sl] = feat + rng.standard_normal(
                    (points_per_patch, feat_dim)).astype(np.float32) * 0.02
                layer0.append(np.arange(cursor, cursor + points_per_patch))
                cursor += points_per_patch

    positions = positions[:cursor]
    features = features[:cursor]
    assert cursor >= 500_000 - 10_000 and len(layer0) >= 4900
    cloud = scene_io.SceneCloud(
        positions=positions.astype(np.float32), semantic_features=features
    )
    pos = cloud.positions.astype(np.float64)
    priors = [
        np.flatnonzero(points_in_box(pos, (ox * 1.4, oy * 1.4, 0.0),
                                     (ox * 1.4 + 1.0, oy * 1.4 + 1.0, 0.5)))
        for ox in range(3) for oy in range(3)
    ]
    params = hierarchy.MergeParams(min_object_points=50)

    t0 = time.monotonic()
    h = hierarchy.run_hierarchy(layer0, cloud, priors, params)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"clustering took {elapsed:.1f}s (limit 120s)"
    assert len(h.layers[-1]) < len(layer0)
    report(f"9 performance floor: PASS ({cursor} pts, {len(layer0)} superpoints, "
           f"{elapsed:.1f}s, layers {[len(l) for l in h.layers]})")
