import json
import logging
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from part2object import cli, parallel, scene_io, synth
from part2object.objectness import camera_project, project_mask_points, visible_points
from conftest import spec_json, three_block_spec


def test_single_cuboid_single_camera():
    spec = synth.SynthSpec(
        seed=1,
        objects=[synth.SynthObject(center=(0, 0, 0.25), size=(0.5, 0.5, 0.5))],
        cameras=[synth.look_at((0, -2, 1), (0, 0, 0.25))],
        points_per_m2=800,
    )
    cloud, gt, frames = synth.generate(spec)
    assert len(gt) == 1
    assert len(frames) == 1
    assert len(frames[0].masks) == 1
    assert gt.instances[0].point_ids.size == cloud.n_points


def test_same_seed_is_byte_identical():
    spec = three_block_spec(seed=5)
    a_cloud, a_gt, a_frames = synth.generate(spec)
    b_cloud, b_gt, b_frames = synth.generate(three_block_spec(seed=5))
    assert a_cloud.positions.tobytes() == b_cloud.positions.tobytes()
    assert a_cloud.semantic_features.tobytes() == b_cloud.semantic_features.tobytes()
    for fa, fb in zip(a_frames, b_frames):
        assert fa.depth.tobytes() == fb.depth.tobytes()
        assert len(fa.masks) == len(fb.masks)
        for ma, mb in zip(fa.masks, fb.masks):
            assert (ma.bitmap == mb.bitmap).all()
            assert ma.feature.tobytes() == mb.feature.tobytes()


def test_different_seed_differs():
    a_cloud, _, _ = synth.generate(three_block_spec(seed=5))
    b_cloud, _, _ = synth.generate(three_block_spec(seed=6))
    assert a_cloud.positions.tobytes() != b_cloud.positions.tobytes()


def _ring_spec():
    """Four objects seen by eight cameras on a ring, and a ninth camera, at
    index 3, that looks away from all of them."""
    centres = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
    objects = [synth.SynthObject(shape=("cuboid", "cylinder")[k % 2], center=(x, y, 0.2),
                                 size=(0.4, 0.4, 0.4))
               for k, (x, y) in enumerate(centres)]
    cameras = [synth.look_at((2.5 * math.cos(a), 2.5 * math.sin(a), 1.5), (0.0, 0.0, 0.2))
               for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    cameras.insert(3, synth.look_at((0.0, -3.0, 1.0), (0.0, -6.0, 1.0)))
    return synth.SynthSpec(seed=4, objects=objects, points_per_m2=600.0, cameras=cameras)


def _scene_bytes(scene):
    """(cloud bytes, ground-truth bytes, per frame: depth then each mask's
    bitmap and feature bytes) of a generated scene."""
    cloud, gt, frames = scene
    return ([cloud.positions.tobytes(), cloud.semantic_features.tobytes()],
            [inst.point_ids.tobytes() for inst in gt.instances],
            [[f.depth.tobytes()] + [m.bitmap.tobytes() + m.feature.tobytes() for m in f.masks]
             for f in frames])


def test_generate_gives_the_same_bytes_at_any_cpu_count(monkeypatch):
    spec = _ring_spec()
    assert spec.feature_noise > 0
    scenes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside frames too
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "cpu_workers", lambda workers=workers: workers)
            scenes.append(_scene_bytes(synth.generate(spec)))
    finally:
        sys.setswitchinterval(interval)
    assert scenes[1] == scenes[0] and scenes[2] == scenes[0]

    def last_block_first(fn, blocks):
        return [fn(b) for b in list(blocks)[::-1]][::-1]
    monkeypatch.setattr(parallel, "thread_map", last_block_first)
    assert _scene_bytes(synth.generate(spec)) == scenes[0]
    monkeypatch.undo()

    frames = scenes[0][2]
    assert len(frames[3]) == 1 and all(len(f) > 1 for f in frames[:3] + frames[4:])
    # Every camera draws one noise row per object, in camera order, whether
    # it sees the object or not: the first cameras alone render the same
    # frames, and a camera that sees objects in place of the blind one
    # leaves every other frame as it was.
    prefix = replace(spec, cameras=spec.cameras[:5])
    assert _scene_bytes(synth.generate(prefix))[2] == frames[:5]
    seeing = replace(spec, cameras=spec.cameras[:3] + spec.cameras[:1] + spec.cameras[4:])
    others = _scene_bytes(synth.generate(seeing))[2]
    assert len(others[3]) > 1
    assert others[:3] + others[4:] == frames[:3] + frames[4:]


def test_gt_partitions_non_background_points(three_block_scene):
    cloud, gt, _frames = three_block_scene
    pooled = np.concatenate([i.point_ids for i in gt.instances])
    assert np.unique(pooled).size == pooled.size
    assert np.array_equal(np.sort(pooled), np.arange(pooled.size))


def test_room_points_are_background():
    spec = three_block_spec(room=(4.0, 4.0, 1.5))
    cloud, gt, _frames = synth.generate(spec)
    n_fg = sum(i.point_ids.size for i in gt.instances)
    assert cloud.n_points > n_fg  # room added points beyond the objects


def test_mask_projections_stay_within_their_object(three_block_scene):
    cloud, gt, frames = three_block_scene
    # masks are emitted in object order and all three blocks are visible in
    # every view of this spec
    for frame in frames:
        assert len(frame.masks) == 3
        for k in range(3):
            ids = project_mask_points(frame, k, visible_points(cloud, frame, 0.05))
            assert ids.size > 0
            assert np.isin(ids, gt.instances[k].point_ids).all()


def test_depth_close_to_true_surface(three_block_scene):
    cloud, _gt, frames = three_block_scene
    # every point that passes the depth-consistency gate is on a real surface
    pos = cloud.positions.astype(np.float64)
    frame = frames[0]
    ext = frame.extrinsics
    cam = (pos - ext[:3, 3]) @ ext[:3, :3]
    for k in range(len(frame.masks)):
        ids = project_mask_points(frame, k, visible_points(cloud, frame, 0.05))
        assert (cam[ids, 2] > 0).all()


def test_feature_assignment_is_well_separated():
    spec = three_block_spec()
    cloud, gt, _ = synth.generate(spec)
    feats = []
    for inst in gt.instances:
        feats.append(cloud.semantic_features[inst.point_ids].mean(axis=0))
    for a in range(3):
        for b in range(a + 1, 3):
            cs = np.dot(feats[a], feats[b]) / (
                np.linalg.norm(feats[a]) * np.linalg.norm(feats[b])
            )
            assert cs <= 0.5


def test_similar_explicit_features_rejected():
    spec = synth.SynthSpec(
        seed=0,
        objects=[
            synth.SynthObject(feature=np.array([1.0, 0.0])),
            synth.SynthObject(feature=np.array([0.99, 0.1])),
        ],
        feature_dim=2,
    )
    with pytest.raises(ValueError):
        synth.generate(spec)
    spec.allow_similar_features = True
    synth.generate(spec)  # override works


def test_a_spec_without_objects_or_room_is_rejected_by_generate():
    with pytest.raises(ValueError, match="a spec needs at least one object or a room"):
        synth.generate(synth.SynthSpec())


def test_hidden_object_warns_and_omits_masks(caplog):
    spec = synth.SynthSpec(
        seed=2,
        objects=[synth.SynthObject(center=(0, 0, 0.25))],
        cameras=[synth.look_at((0, -2, 0.5), (0, -4, 0.5))],  # looks away
        points_per_m2=500,
    )
    with caplog.at_level(logging.WARNING):
        _cloud, _gt, frames = synth.generate(spec)
    assert frames[0].masks == []
    assert any("behind every camera" in r.message for r in caplog.records)


def test_cylinder_sampling():
    spec = synth.SynthSpec(
        seed=3,
        objects=[synth.SynthObject(shape="cylinder", size=(0.4, 0.4, 0.8))],
        points_per_m2=1000,
    )
    cloud, _gt, _ = synth.generate(spec)
    pos = cloud.positions.astype(np.float64)
    r = np.sqrt(pos[:, 0] ** 2 + pos[:, 1] ** 2)
    assert r.max() < 0.25  # radius 0.2 plus jitter
    assert abs(pos[:, 2]).max() < 0.45


@pytest.mark.parametrize("flat_cameras", [False, True], ids=["4x4", "16-floats"])
def test_p2o_synth_writes_what_generate_and_the_writers_write(flat_cameras, tmp_path):
    spec = three_block_spec(room=(4.0, 4.0, 1.0))
    want = tmp_path / "want"
    cloud, gt, frames = synth.generate(spec)
    scene_io.write_scene(want, cloud)
    scene_io.write_frames(want, frames)
    scene_io.write_instances(want / "ground_truth.txt", gt)

    data = json.loads(spec_json(spec))
    if flat_cameras:
        data["cameras"] = [sum(pose, []) for pose in data["cameras"]]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    got = tmp_path / "got"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(got)]) == 0

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert tree(got) == tree(want)


def _lexsort_render(spec, pose, positions):
    """Reference splat z-buffer: one (pixel, z, id) entry per pixel each
    visible point's splat covers, a 3-key lexsort, and the first entry of
    every pixel wins. Returns (depth, winner) with 0 / -1 where none does."""
    model = spec.camera_model
    h, w = model.height, model.width
    row, col, z, ok = camera_project(positions, model.intrinsics, pose, (h, w))
    idx = np.flatnonzero(ok)
    reach = spec.splat_px // 2
    pix, zs, ids = [], [], []
    for dr in range(-reach, reach + 1):
        for dc in range(-reach, reach + 1):
            r, c = row[idx] + dr, col[idx] + dc
            good = (r >= 0) & (r < h) & (c >= 0) & (c < w)
            pix.append(r[good] * w + c[good])
            zs.append(z[idx][good])
            ids.append(idx[good])
    pix, zs, ids = (np.concatenate(a) for a in (pix, zs, ids))
    depth = np.zeros(h * w, dtype=np.float32)
    winner = np.full(h * w, -1, dtype=np.int64)
    if pix.size:
        order = np.lexsort((ids, zs, pix))
        first = np.concatenate(([True], pix[order][1:] != pix[order][:-1]))
        depth[pix[order][first]] = zs[order][first]
        winner[pix[order][first]] = ids[order][first]
    return depth.reshape(h, w), winner.reshape(h, w)


def _oracle_points(case, model):
    """Camera-frame points (pose is the identity) on a few depth planes, so
    that z ties across neighbouring pixels are common."""
    rng = np.random.default_rng(11)
    n = 300
    z = rng.choice([-1.0, 0.0, 1.0, 2.0, 3.0], n)  # <= 0: behind the camera
    if case == "behind":
        z = -np.abs(z) - 0.5
    # pixel targets from a margin outside the image, so splats clip at edges
    u = rng.uniform(-2.0, model.width + 1.0, n)
    v = rng.uniform(-2.0, model.height + 1.0, n)
    corners = [(0, 0), (model.width - 1, 0), (0, model.height - 1),
               (model.width - 1, model.height - 1), (model.width // 2, 0),
               (0, model.height // 2), (model.width - 1, model.height // 2),
               (model.width // 2, model.height - 1)]
    if case != "behind":
        u = np.concatenate((u, [c[0] for c in corners]))
        v = np.concatenate((v, [c[1] for c in corners]))
        z = np.concatenate((z, np.full(len(corners), 1.5)))
    pos = np.column_stack(((u - model.cx) * z / model.fx, (v - model.cy) * z / model.fy, z))
    # coincident copies: the same (pixel, z) as lower ids, so the lowest id
    # must win every tie
    return np.vstack((pos, pos[:40], pos[:20]))


@pytest.mark.parametrize("splat_px", [1, 3, 5, 7, 11])
@pytest.mark.parametrize("case", ["mixed", "behind"])
def test_render_matches_the_lexsort_splat_oracle(case, splat_px):
    model = synth.CameraModel(width=12, height=9, fx=10.0, fy=10.0, cx=5.5, cy=4.0)
    spec = synth.SynthSpec(camera_model=model, splat_px=splat_px, feature_dim=2)
    pose = np.eye(4)
    positions = _oracle_points(case, model)
    n = positions.shape[0]
    # every point is its own object, so each mask is one point's winning pixels
    owner = np.arange(n)
    feats = [np.zeros(2)] * n
    noise = np.random.default_rng(0).standard_normal((n, 2)) * spec.feature_noise
    frame, visible = synth._render_frame(spec, 0, pose, positions, owner, feats, noise)

    depth, winner = _lexsort_render(spec, pose, positions)
    assert frame.depth.tobytes() == depth.tobytes()
    want = [k for k in range(n) if (winner == k).any()]
    assert visible == set(want)
    assert [m.bitmap.tobytes() for m in frame.masks] == [
        (winner == k).tobytes() for k in want]
    if case == "behind":
        assert not depth.any() and visible == set()
    else:
        # the case holds z ties in view and a point at every corner
        ok = camera_project(positions, model.intrinsics, pose, depth.shape)[3]
        assert ok[n - 60:].any()
        assert (winner[[0, 0, -1, -1], [0, -1, 0, -1]] >= 0).all()


@pytest.mark.parametrize("splat_px", [0, 2, 4, -1, 3.0, True, "3"])
def test_splat_px_must_be_a_positive_odd_integer(splat_px, tmp_path, capsys):
    with pytest.raises(ValueError, match="splat_px"):
        synth.SynthSpec(splat_px=splat_px)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"splat_px": splat_px}))
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "splat_px" in err and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("width", 0), ("height", 0), ("width", -5),
                                          ("fx", 0.0), ("fx", -140.0), ("fy", float("nan"))])
def test_camera_model_ranges_are_checked(field, value):
    with pytest.raises(ValueError, match=field):
        synth.CameraModel(**{field: value})
