import json
import re
import shutil

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import bits_equal, three_block_spec
from part2object import parallel, scene_io, spatial, synth
from part2object.errors import FormatError
from part2object.scene_io import (
    FrameObservation,
    Instance,
    InstanceSet,
    MaskEntry,
    SceneCloud,
    estimate_normals,
    load_frames,
    load_instances,
    load_scene,
    rle_decode,
    rle_encode,
    write_frames,
    write_instances,
    write_scene,
)


def make_cloud(rng, n=100, with_features=True, feature_dim=8):
    cloud = SceneCloud(
        positions=rng.random((n, 3)).astype(np.float32),
        colors=rng.random((n, 3)).astype(np.float32),
        semantic_features=(
            rng.standard_normal((n, feature_dim)).astype(np.float32)
            if with_features else None
        ),
    )
    return cloud


def identity_frame(h=8, w=10, masks=()):
    return FrameObservation(
        frame_id=0,
        intrinsics=np.array([[5.0, 0, 4.5], [0, 5.0, 3.5], [0, 0, 1]]),
        extrinsics=np.eye(4),
        depth=np.ones((h, w), dtype=np.float32),
        masks=list(masks),
    )


# ---------------------------------------------------------------------------
# RLE


def test_rle_golden():
    bitmap = np.array([[0, 1, 1], [0, 0, 1]], dtype=bool)
    assert rle_encode(bitmap).tolist() == [1, 2, 2, 1]
    assert (rle_decode([1, 2, 2, 1], (2, 3)) == bitmap).all()


def test_rle_all_zeros_and_all_ones():
    zeros = np.zeros((3, 4), dtype=bool)
    assert rle_encode(zeros).tolist() == [12]
    ones = np.ones((3, 4), dtype=bool)
    assert rle_encode(ones).tolist() == [0, 12]


def test_rle_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        bitmap = rng.random((h, w)) < rng.random()
        assert (rle_decode(rle_encode(bitmap), (h, w)) == bitmap).all()


def test_rle_length_mismatch_raises():
    with pytest.raises(FormatError, match=r"^RLE decodes to 5 pixels, expected 6$"):
        rle_decode([3, 2], (2, 3))


# ---------------------------------------------------------------------------
# scene round trips and validation


def test_scene_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    cloud = make_cloud(rng)
    cloud.normals = estimate_normals(cloud, k=8)
    write_scene(tmp_path, cloud)
    loaded = load_scene(tmp_path)
    assert loaded.positions.tobytes() == cloud.positions.tobytes()
    assert loaded.colors.tobytes() == cloud.colors.tobytes()
    assert loaded.normals.tobytes() == cloud.normals.tobytes()
    assert loaded.semantic_features.tobytes() == cloud.semantic_features.tobytes()


def test_load_scene_without_features(tmp_path):
    rng = np.random.default_rng(2)
    write_scene(tmp_path, make_cloud(rng, with_features=False))
    loaded = load_scene(tmp_path)
    assert loaded.n_points == 100
    assert loaded.semantic_features is None
    assert loaded.normals is None  # returned as stored; build_superpoints estimates


def test_missing_points_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scene(tmp_path)


def write_binary_scene(dir_path):
    """points.p2o with colors and normals, features.f32 and one 8x10 frame."""
    rng = np.random.default_rng(3)
    cloud = make_cloud(rng, n=20)
    cloud.normals = estimate_normals(cloud, k=8)
    write_scene(dir_path, cloud)
    bitmap = np.zeros((8, 10), dtype=bool)
    bitmap[2, 3] = True
    write_frames(dir_path, [identity_frame(masks=[MaskEntry(bitmap, np.ones(4, np.float32))])])


def u32(*values):
    return np.asarray(values, dtype="<u4").tobytes()


# fault -> (file, edit of its bytes, message after the file's path)
BINARY_FAULTS = {
    "points-bad-tag": ("points.p2o", lambda b: b"P2OF" + b[4:], "bad tag, expected b'P2O1'"),
    "points-truncated-header": ("points.p2o", lambda b: b[:6],
                                "truncated file while reading count"),
    "points-truncated-payload": ("points.p2o", lambda b: b[:-1],
                                 "truncated file while reading normals"),
    "points-trailing-byte": ("points.p2o", lambda b: b + b"\0", "1 trailing byte(s)"),
    "points-unknown-flag-bits": ("points.p2o", lambda b: b[:8] + b"\x07" + b[9:],
                                 "unknown flag bits 0x7"),
    "points-zero-count": ("points.p2o", lambda b: b[:4] + u32(0) + b[8:],
                          "point count must be >= 1"),
    "features-bad-tag": ("features.f32", lambda b: b"P2O1" + b[4:], "bad tag, expected b'P2OF'"),
    "features-truncated-header": ("features.f32", lambda b: b[:10],
                                  "truncated file while reading dims"),
    "features-truncated-payload": ("features.f32", lambda b: b[:-1],
                                   "truncated file while reading features"),
    "features-trailing-byte": ("features.f32", lambda b: b + b"\0", "1 trailing byte(s)"),
    "features-rows-not-n": ("features.f32", lambda b: b[:4] + u32(19) + b[8:],
                            "feature rows (19) != point count (20)"),
    "masks-bad-tag": ("frame_0.masks", lambda b: b"NOPE" + b[4:], "bad tag, expected b'P2OM'"),
    "masks-truncated-header": ("frame_0.masks", lambda b: b[:8],
                               "truncated file while reading dims"),
    "masks-truncated-payload": ("frame_0.masks", lambda b: b[:-1],
                                "truncated file while reading mask feature"),
    "masks-trailing-byte": ("frame_0.masks", lambda b: b + b"\0", "1 trailing byte(s)"),
    "depth-truncated-payload": ("frame_0.depth", lambda b: b[:-1],
                                "truncated file while reading 8x10 depth"),
    "depth-trailing-byte": ("frame_0.depth", lambda b: b + b"\0", "1 trailing byte(s)"),
    "depth-of-another-size": ("frame_0.depth", lambda b: b[:4 * 4 * 5],
                              "truncated file while reading 8x10 depth"),
}


@pytest.mark.parametrize("fault", list(BINARY_FAULTS))
def test_a_rejected_binary_file_is_named_by_its_full_path(fault, tmp_path):
    name, edit, message = BINARY_FAULTS[fault]
    write_binary_scene(tmp_path)
    load_frames(tmp_path)
    load_scene(tmp_path)
    path = tmp_path / name
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_frames(tmp_path) if name.startswith("frame_") else load_scene(tmp_path)


def test_missing_frame_files_are_named(tmp_path):
    write_binary_scene(tmp_path)
    for suffix in ("masks", "depth"):
        path = tmp_path / f"frame_0.{suffix}"
        path.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            load_frames(tmp_path)


def test_non_finite_positions_rejected():
    pos = np.ones((4, 3), dtype=np.float32)
    pos[2, 1] = np.nan
    with pytest.raises(FormatError):
        SceneCloud(positions=pos)


def test_non_unit_normals_rejected():
    with pytest.raises(FormatError):
        SceneCloud(positions=np.ones((2, 3)), normals=np.full((2, 3), 0.9))


# ---------------------------------------------------------------------------
# normals


def test_normals_on_z_plane():
    rng = np.random.default_rng(5)
    pos = np.column_stack([rng.random(60), rng.random(60), np.zeros(60)])
    cloud = SceneCloud(positions=pos)
    normals = estimate_normals(cloud, k=8)
    assert np.allclose(normals, (0.0, 0.0, 1.0), atol=1e-5)


def test_normals_on_x_plane():
    rng = np.random.default_rng(6)
    pos = np.column_stack([np.ones(60), rng.random(60), rng.random(60)])
    cloud = SceneCloud(positions=pos)
    normals = estimate_normals(cloud, k=8)
    assert np.allclose(np.abs(normals), np.tile((1.0, 0.0, 0.0), (60, 1)), atol=1e-5)
    # dot with +z is zero: sign comes from the eigensolver, deterministically
    again = estimate_normals(cloud, k=8)
    assert np.array_equal(normals, again)


def test_normals_on_sphere_point_radially():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((50, 3))
    pos = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    cloud = SceneCloud(positions=pos)
    normals = estimate_normals(cloud, k=6).astype(np.float64)
    radial = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    dots = np.abs((normals * radial).sum(axis=1))
    assert dots.mean() >= 0.9


def test_normals_degenerate_neighborhood():
    pos = np.tile((1.0, 2.0, 3.0), (10, 1))
    cloud = SceneCloud(positions=pos)
    normals = estimate_normals(cloud, k=5)
    assert np.allclose(normals, (0.0, 0.0, 1.0))


def reference_normals(cloud, k):
    """The serial einsum loop estimate_normals replaced, kept as the oracle."""
    pos = cloud.positions.astype(np.float64)
    n = pos.shape[0]
    tree = cKDTree(pos)
    normals = np.empty((n, 3), dtype=np.float64)
    chunk = 65536
    for start in range(0, n, chunk):
        block = pos[start : start + chunk]
        _, idx = tree.query(block, k=k)
        nb = pos[idx]
        centered = nb - nb.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered)
        _, vecs = np.linalg.eigh(cov)
        nrm = vecs[:, :, 0]
        degenerate = np.abs(centered).max(axis=(1, 2)) == 0.0
        nrm[degenerate] = (0.0, 0.0, 1.0)
        flip = nrm[:, 2] < 0.0
        nrm[flip] *= -1.0
        lengths = np.linalg.norm(nrm, axis=1, keepdims=True)
        normals[start : start + chunk] = nrm / lengths
    return normals.astype(np.float32)


def assert_normals_equal_reference(cloud, k):
    got = estimate_normals(cloud, k=k)
    assert got.shape == (cloud.n_points, 3)
    assert bits_equal(got, reference_normals(cloud, k))


@pytest.fixture(scope="module")
def room_normals():
    """A 256k-point room cloud, many blocks and a partial last one, with its oracle normals."""
    spec = three_block_spec(seed=7, room=(4.0, 4.0, 1.5), points_per_m2=5750.0)
    cloud, _, _ = synth.generate(spec)
    n = cloud.n_points
    assert n > 200_000 and n % scene_io._NORMALS_BLOCK != 0
    return cloud, reference_normals(cloud, k=16)


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_normals_equal_reference_on_room(room_normals, workers, monkeypatch):
    # None keeps the CPU count this process may use.
    if workers is not None:
        monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    cloud, want = room_normals
    got = estimate_normals(cloud, k=16)
    assert bits_equal(got, want)


def test_normals_of_rows_equal_the_whole_cloud_on_room(room_normals):
    # Rows in any order, one at a time or many blocks at once, with the
    # function's own tree or a caller's.
    cloud, want = room_normals
    n = cloud.n_points
    rng = np.random.default_rng(3)
    tree = spatial.kdtree(cloud.positions.astype(np.float64))
    for rows in (rng.permutation(n)[: 2 * scene_io._NORMALS_BLOCK + 5], np.arange(7), [n - 1]):
        rows = np.asarray(rows)
        for t in (None, tree):
            got = estimate_normals(cloud, k=16, rows=rows, tree=t)
            assert got.shape == (rows.size, 3)
            assert bits_equal(got, want[rows])
    assert estimate_normals(cloud, k=16, rows=np.empty(0, dtype=np.int64)).shape == (0, 3)
    assert bits_equal(estimate_normals(cloud, k=16, tree=tree), want)


def test_normals_equal_reference_on_coincident_points():
    rng = np.random.default_rng(11)
    spread = rng.random((300, 3))
    stacked = np.repeat(rng.random((40, 3)), 8, axis=0)
    cloud = SceneCloud(positions=np.concatenate([spread, stacked]).astype(np.float32))
    normals = estimate_normals(cloud, k=5)
    # Each stack of 8 copies is a neighbourhood with no spread.
    assert (normals[300:] == np.float32((0.0, 0.0, 1.0))).all()
    assert_normals_equal_reference(cloud, k=5)


def test_normals_equal_reference_on_collinear_points():
    # Rank-1 covariances: the smallest eigenvalue is double, so any rounding
    # difference in the covariance picks another normal in its plane.
    rng = np.random.default_rng(14)
    t = rng.random(200)
    lines = [np.outer(t, d) + o for d, o in (((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                            ((0.3, -0.7, 0.2), (2.0, 1.0, -1.0)),
                                            ((0.0, 0.0, 1.0), (5.0, 5.0, 5.0)))]
    cloud = SceneCloud(positions=np.concatenate(lines).astype(np.float32))
    assert_normals_equal_reference(cloud, k=8)


def test_normals_equal_reference_on_copies_of_two_positions():
    rng = np.random.default_rng(15)
    # 30 pairs of positions about 0.05 m apart, the pairs about 1 m apart.
    first = rng.random((30, 3)) * 4.0 - 2.0
    second = first + rng.normal(size=(30, 3)) * 0.03
    pos = np.concatenate([np.repeat([a, b], (5, 4), axis=0) for a, b in zip(first, second)])
    cloud = SceneCloud(positions=pos.astype(np.float32))
    assert_normals_equal_reference(cloud, k=7)


def test_normals_equal_reference_when_k_is_the_point_count():
    pos = np.random.default_rng(12).random((20, 3)).astype(np.float32)
    assert_normals_equal_reference(SceneCloud(positions=pos), k=20)


def test_normals_equal_reference_below_one_block():
    pos = np.random.default_rng(13).random((3000, 3)).astype(np.float32)
    assert 3000 < scene_io._NORMALS_BLOCK
    assert_normals_equal_reference(SceneCloud(positions=pos), k=16)


@pytest.mark.parametrize("n_rows,workers,sizes", [
    (3000, 4, [1500, 1500]),  # two blocks of at least _NORMALS_MIN_BLOCK rows
    (900, 4, [900]),
    (25150, 2, [12575, 12575]),  # not 16,384 + 8,766
    (40000, 2, [13333, 13333, 13334]),  # no block above _NORMALS_BLOCK
])
def test_normals_blocks_are_near_equal(room_normals, n_rows, workers, sizes, monkeypatch):
    cloud, want = room_normals
    spans = []
    thread_map = parallel.thread_map

    def recording_thread_map(fn, blocks):
        blocks = list(blocks)
        spans.extend(blocks)
        return thread_map(fn, blocks)

    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    monkeypatch.setattr(parallel, "thread_map", recording_thread_map)
    rows = np.random.default_rng(4).permutation(cloud.n_points)[:n_rows]
    assert bits_equal(estimate_normals(cloud, k=16, rows=rows), want[rows])
    assert [s.stop - s.start for s in spans] == sizes


def test_normals_k_bounds():
    cloud = SceneCloud(positions=np.random.default_rng(0).random((10, 3)))
    with pytest.raises(ValueError):
        estimate_normals(cloud, k=2)
    with pytest.raises(ValueError):
        estimate_normals(cloud, k=11)


# ---------------------------------------------------------------------------
# frames


def test_frames_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    frames = []
    for fid in range(3):
        masks = []
        for _ in range(fid):  # 0, 1, 2 masks
            bitmap = np.zeros((8, 10), dtype=bool)
            bitmap[rng.integers(0, 8), rng.integers(0, 10)] = True
            masks.append(MaskEntry(bitmap=bitmap, feature=rng.random(6).astype(np.float32)))
        frame = identity_frame(masks=masks)
        frame.frame_id = fid
        frame.depth = (rng.random((8, 10)) + 0.5).astype(np.float32)
        frames.append(frame)
    write_frames(tmp_path, frames)
    loaded = load_frames(tmp_path)
    assert [f.frame_id for f in loaded] == [0, 1, 2]
    for orig, back in zip(frames, loaded):
        assert back.depth.tobytes() == orig.depth.tobytes()
        assert len(back.masks) == len(orig.masks)
        for ma, mb in zip(orig.masks, back.masks):
            assert (ma.bitmap == mb.bitmap).all()
            assert ma.feature.tobytes() == mb.feature.tobytes()


def test_frames_with_no_masks(tmp_path):
    frames = [identity_frame(), identity_frame()]
    frames[1].frame_id = 4
    write_frames(tmp_path, frames)
    loaded = load_frames(tmp_path)
    assert len(loaded) == 2
    assert all(not f.masks for f in loaded)


def test_only_canonical_frame_names_are_frames(tmp_path):
    # frame_01 and frame_١ (an Arabic-Indic one) would both read as id 1 and
    # load frame_1.*; they are not frames, so frame 1 loads once.
    frames = [identity_frame(), identity_frame()]
    frames[1].frame_id = 1
    frames[1].depth = np.full((8, 10), 2.0, dtype=np.float32)
    write_frames(tmp_path, frames)
    for name in ("frame_01", "frame_١", "frame_x"):
        for suffix in ("cam", "depth", "masks"):
            shutil.copy(tmp_path / f"frame_1.{suffix}", tmp_path / f"{name}.{suffix}")
    assert scene_io.frame_ids(tmp_path) == [0, 1]
    loaded = load_frames(tmp_path)
    assert [f.frame_id for f in loaded] == [0, 1]
    assert (loaded[1].depth == 2.0).all()


def test_a_lone_non_canonical_frame_is_not_a_frame(tmp_path):
    # Alone, frame_01.cam once made the loader look for frame_1.cam.
    write_frames(tmp_path, [identity_frame()])
    for suffix in ("cam", "depth", "masks"):
        (tmp_path / f"frame_0.{suffix}").rename(tmp_path / f"frame_01.{suffix}")
    assert load_frames(tmp_path) == []


def test_corrupt_rle_in_mask_file(tmp_path):
    bitmap = np.zeros((8, 10), dtype=bool)
    bitmap[0, 0] = True
    frame = identity_frame(masks=[MaskEntry(bitmap, np.ones(4, dtype=np.float32))])
    write_frames(tmp_path, [frame])
    raw = bytearray((tmp_path / "frame_0.masks").read_bytes())
    # First run count lives right after magic, mask_count, C2 and rle_len.
    raw[16:20] = np.uint32(999).tobytes()
    (tmp_path / "frame_0.masks").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / 'frame_0.masks'))}: "
                                          "RLE decodes to 1079 pixels, expected 80$"):
        load_frames(tmp_path)


@pytest.mark.parametrize("key, value", [
    ("width", "10"), ("width", 10.7), ("height", True), ("fx", "5.0"), ("cy", None),
    ("depth_scale", 1000.0),
])
def test_cam_values_are_checked_not_coerced(key, value, tmp_path):
    write_frames(tmp_path, [identity_frame()])
    cam_path = tmp_path / "frame_0.cam"
    cam = json.loads(cam_path.read_text())
    cam[key] = value
    cam_path.write_text(json.dumps(cam))
    with pytest.raises(FormatError, match=f"^{re.escape(str(cam_path))}: .*{key}"):
        load_frames(tmp_path)


def test_cam_json_syntax_error_names_the_file(tmp_path):
    write_frames(tmp_path, [identity_frame()])
    cam_path = tmp_path / "frame_0.cam"
    cam_path.write_text(cam_path.read_text()[:-5])
    with pytest.raises(FormatError, match=f"^{re.escape(str(cam_path))}: Expecting "):
        load_frames(tmp_path)


def test_non_orthonormal_pose_rejected():
    ext = np.eye(4)
    ext[0, 0] = 2.0
    with pytest.raises(FormatError, match="^extrinsics rotation block not orthonormal$"):
        FrameObservation(
            frame_id=0, intrinsics=np.eye(3), extrinsics=ext,
            depth=np.ones((4, 4), dtype=np.float32),
        )


@pytest.mark.parametrize("row, col, value", [(0, 0, 0.0), (1, 1, -5.0), (0, 2, np.nan),
                                            (1, 2, np.inf)])
def test_intrinsics_must_be_finite_with_positive_focal_lengths(row, col, value):
    k = np.array([[5.0, 0, 4.5], [0, 5.0, 3.5], [0, 0, 1]])
    k[row, col] = value
    with pytest.raises(FormatError, match="intrinsics"):
        FrameObservation(frame_id=0, intrinsics=k, extrinsics=np.eye(4),
                         depth=np.ones((4, 4), dtype=np.float32))


def cam_fault(key, value, kind, named, message):
    """A camera case, named by its key, value, kind of fault and the file it names."""
    return pytest.param(key, value, named, message, id=f"{key}-{value}-{kind}-{named}")


@pytest.mark.parametrize("key, value, named, message", [
    cam_fault("fx", 0.0, "FormatError", "frame_0", "intrinsics must be finite with fx, fy > 0"),
    cam_fault("fy", -140.0, "FormatError", "frame_0",
              "intrinsics must be finite with fx, fy > 0"),
    cam_fault("width", 0, "CorruptHeader", "frame_0.cam",
              "missing or malformed field (width and height must be >= 1, got 0x8)"),
    cam_fault("height", -5, "CorruptHeader", "frame_0.cam",
              "missing or malformed field (width and height must be >= 1, got 10x-5)"),
])
def test_a_camera_out_of_range_is_rejected(key, value, named, message, tmp_path):
    write_frames(tmp_path, [identity_frame()])
    cam_path = tmp_path / "frame_0.cam"
    cam = json.loads(cam_path.read_text())
    cam[key] = value
    cam_path.write_text(json.dumps(cam))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{tmp_path / named}: {message}')}$"):
        load_frames(tmp_path)


@pytest.mark.parametrize("field", ["colors", "normals"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_colors_or_normals_are_rejected(field, value):
    rng = np.random.default_rng(4)
    cloud = make_cloud(rng, n=20)
    values = estimate_normals(cloud, k=8) if field == "normals" else cloud.colors.copy()
    values[3, 1] = value
    with pytest.raises(FormatError, match=f"^{field} contain non-finite values$"):
        SceneCloud(positions=cloud.positions, **{field: values})


def test_value_errors_name_the_frame_or_the_scene(tmp_path):
    write_binary_scene(tmp_path)
    (tmp_path / "frame_0.depth").write_bytes(np.full((8, 10), np.nan, "<f4").tobytes())
    with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / 'frame_0'))}: "
                                          "depth contains non-finite values$"):
        load_frames(tmp_path)
    raw = bytearray((tmp_path / "points.p2o").read_bytes())
    raw[9:13] = np.float32(np.nan).tobytes()  # the first position's x
    (tmp_path / "points.p2o").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path))}: "
                                          "positions contain non-finite values$"):
        load_scene(tmp_path)


def test_inconsistent_mask_feature_dims(tmp_path):
    bitmap = np.zeros((8, 10), dtype=bool)
    bitmap[0, 0] = True
    f0 = identity_frame(masks=[MaskEntry(bitmap, np.ones(4, dtype=np.float32))])
    f1 = identity_frame(masks=[MaskEntry(bitmap, np.ones(5, dtype=np.float32))])
    f1.frame_id = 1
    write_frames(tmp_path, [f0, f1])
    with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / 'frame_1.masks'))}: "
                                          "mask feature dim 5 != 4$"):
        load_frames(tmp_path)


# ---------------------------------------------------------------------------
# instance manifests


def test_empty_manifest(tmp_path):
    path = tmp_path / "preds.txt"
    write_instances(path, InstanceSet())
    assert path.read_text() == ""
    assert len(load_instances(path)) == 0


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "preds.txt"
    original = InstanceSet(
        instances=[
            Instance(np.array([0, 3, 7]), confidence=0.75, kind="object"),
            Instance(np.array([1, 2]), confidence=1.0, kind="part"),
        ]
    )
    write_instances(path, original)
    assert len(path.read_text().strip().splitlines()) == 2
    loaded = load_instances(path)
    assert len(loaded) == 2
    for a, b in zip(original.instances, loaded.instances):
        assert np.array_equal(a.point_ids, b.point_ids)
        assert a.confidence == b.confidence
        assert a.kind == b.kind


def test_a_shorter_rewrite_leaves_only_the_manifests_mask_files(tmp_path):
    path = tmp_path / "preds.txt"
    masks = tmp_path / "preds_masks"
    masks.mkdir()
    # Not named as write_instances names a mask file, so never removed.
    others = ["notes.txt", "12.txt", "00005.txt", "0001.txt.bak"]
    for name in others:
        (masks / name).write_text("keep\n")
    for count in (5, 2, 0):
        write_instances(path, InstanceSet([Instance(np.arange(k + 1)) for k in range(count)]))
        named = [line.split()[0] for line in path.read_text().splitlines()]
        assert named == [f"preds_masks/{k:04d}.txt" for k in range(count)]
        assert sorted(p.name for p in masks.iterdir()) == sorted(
            others + [f"{k:04d}.txt" for k in range(count)])
        loaded = load_instances(path)
        assert [i.point_ids.tolist() for i in loaded.instances] == [
            list(range(k + 1)) for k in range(count)]
    # Instance 10000's file has five digits, so a five-digit name is a mask file too.
    (masks / "10000.txt").write_text("0\n")
    write_instances(path, InstanceSet())
    assert not (masks / "10000.txt").exists()


def test_a_rewrite_with_no_instances_leaves_no_mask_directory(tmp_path):
    # A first write of no instances makes no mask directory; a later one
    # removes the directory its earlier write made, so the two leave one tree.
    for name, counts in (("fresh", [0]), ("rerun", [2, 0])):
        out = tmp_path / name
        for count in counts:
            write_instances(out / "preds.txt",
                            InstanceSet([Instance(np.arange(k + 1)) for k in range(count)]))
        assert [p.name for p in out.iterdir()] == ["preds.txt"]
        assert load_instances(out / "preds.txt").instances == []


@pytest.mark.parametrize("confidence, text", [(np.float64(0.5), "0.5"),
                                              (np.float32(0.25), "0.25")])
def test_a_numpy_confidence_round_trips_as_a_plain_number(confidence, text, tmp_path):
    path = tmp_path / "preds.txt"
    write_instances(path, InstanceSet([Instance(np.array([1, 4]), confidence)]))
    assert path.read_text() == f"preds_masks/0000.txt object {text}\n"
    (loaded,) = load_instances(path).instances
    assert type(loaded.confidence) is float and loaded.confidence == float(text)


@pytest.mark.parametrize("confidence", ["0.5", None, [0.5]])
def test_a_confidence_that_is_not_a_number_is_rejected(confidence):
    with pytest.raises(FormatError, match="^confidence must be a number, got "):
        Instance(np.array([1]), confidence)


def test_manifest_missing_mask_file(tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("nowhere.txt object 1.0\n")
    with pytest.raises(FileNotFoundError):
        load_instances(path)


def test_manifest_index_out_of_range(tmp_path):
    path = tmp_path / "preds.txt"
    write_instances(path, InstanceSet([Instance(np.array([5, 900]))]))
    with pytest.raises(FormatError, match="references point 900 but scene has 100 points$"):
        load_instances(path, n_points=100)


def manifest_fault(line, mask, kind, message):
    """A manifest case, named by its line, mask file and kind of fault."""
    return pytest.param(line, mask, message, id=f"{line}-{mask}-{kind}")


@pytest.mark.parametrize("line, mask, message", [
    manifest_fault("m.txt object", "1\n", "FormatError", "expected 3 fields, got 2"),
    manifest_fault("m.txt object x", "1\n", "FormatError", "bad confidence 'x'"),
    manifest_fault("m.txt object nan", "1\n", "FormatError", "non-finite confidence"),
    manifest_fault("m.txt object 1.5", "1\n", "FormatError", "confidence must be in [0, 1]"),
    manifest_fault("m.txt chair 1.0", "1\n", "FormatError",
                   "kind must be one of ('object', 'part')"),
    manifest_fault("m.txt object 1.0", "2\n1\n", "FormatError",
                   "point_ids must be sorted strictly ascending"),
    manifest_fault("m.txt object 1.0", "-1\n", "IndexOutOfRange", "negative point index"),
    manifest_fault("m.txt object 1.0", "1.5\n", "FormatError", "m.txt: non-integer point index"),
    manifest_fault("m.txt object 1.0", "99999999999999999999\n", "IndexOutOfRange",
                   "m.txt: point index out of range"),
    manifest_fault("m.txt object 1.0", "100\n", "IndexOutOfRange",
                   "m.txt references point 100 but scene has 100 points"),
])
def test_every_manifest_error_names_the_manifest_and_line(line, mask, message, tmp_path):
    (tmp_path / "ok.txt").write_text("0\n")
    (tmp_path / "m.txt").write_text(mask)
    path = tmp_path / "preds.txt"
    path.write_text(f"ok.txt object 1.0\n\n{line}\n")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        load_instances(path, n_points=100)


@pytest.mark.parametrize("ids", [[], [7], list(range(0, 45000, 3)), [0, 2**40, 2**63 - 1],
                                 list(range(0, 600_000, 5))])
def test_mask_file_bytes_match_per_id_formatting(tmp_path, ids):
    path = tmp_path / "preds.txt"
    write_instances(path, InstanceSet([Instance(np.array(ids, dtype=np.int64))]))
    ids = np.array(ids, dtype=np.int64)
    old_text = "\n".join(str(int(i)) for i in ids) + ("\n" if ids.size else "")
    assert (tmp_path / "preds_masks" / "0000.txt").read_bytes() == old_text.encode()


def write_mask_file(tmp_path, text):
    (tmp_path / "m.txt").write_text(text)
    path = tmp_path / "preds.txt"
    path.write_text("m.txt object 1.0\n")
    return path


@pytest.mark.parametrize("token,value", [("+2", 2), ("1_0", 10), ("007", 7)])
def test_mask_file_tokens_accepted_like_int(tmp_path, token, value):
    path = write_mask_file(tmp_path, f"0\n{token}\n")
    assert load_instances(path).instances[0].point_ids.tolist() == [0, value]


def test_mask_file_negative_token_parses_then_fails_range_check(tmp_path):
    with pytest.raises(FormatError, match=": negative point index$"):
        load_instances(write_mask_file(tmp_path, "-1\n"))


@pytest.mark.parametrize("token", ["1.5", "abc", "1e3", "0x10", "1,2"])
def test_mask_file_non_integer_tokens_rejected(tmp_path, token):
    with pytest.raises(FormatError, match="non-integer"):
        load_instances(write_mask_file(tmp_path, f"0\n{token}\n"))


@pytest.mark.parametrize("token", ["99999999999999999999", str(2**63), str(-(2**63) - 1)])
def test_mask_file_out_of_int64_range_is_format_error(tmp_path, token):
    with pytest.raises(FormatError, match="point index out of range"):
        load_instances(write_mask_file(tmp_path, f"0\n{token}\n"))


def reference_ids(text):
    """What np.array(text.split(), dtype=np.int64) returns, or (class, message) of its error."""
    try:
        return np.array(text.split(), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def read_ids_or_error(path):
    try:
        return scene_io._read_ids(path)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_reads_like_reference(path):
    got, want = read_ids_or_error(path), reference_ids(path.read_text())
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


SEPARATORS = (" ", "\t", "\n", "\r\n", "\x0b", "\x0c")


def random_mask_text(rng):
    """Ids in [0, 2**62) of random magnitude, some with leading zeros, between
    runs of random separators, with and without leading and trailing ones."""

    def space(least):
        return "".join(rng.choice(SEPARATORS) for _ in range(int(rng.integers(least, 3))))

    text = space(0)
    for _ in range(int(rng.integers(0, 40))):
        zeros = "0" * int(rng.integers(1, 4)) if rng.random() < 0.2 else ""
        text += zeros + str(int(rng.integers(0, 2 ** int(rng.integers(1, 63))))) + space(1)
    return text.rstrip() if rng.random() < 0.5 else text


def test_mask_file_parse_equals_reference_on_random_files(tmp_path, monkeypatch):
    calls = []
    ids_from_text = scene_io._ids_from_text
    monkeypatch.setattr(scene_io, "_ids_from_text",
                        lambda text: calls.append(text) or ids_from_text(text))
    rng = np.random.default_rng(21)
    path = tmp_path / "m.txt"
    n_files = 400
    for _ in range(n_files):
        path.write_bytes(random_mask_text(rng).encode())
        assert_reads_like_reference(path)
    # Both the C-level parse and the int() fallback are exercised.
    assert 0 < len(calls) < n_files


@pytest.mark.parametrize("text", [
    "", "\n", " \t\n", "\r\n\r\n", "0", "0\n", "000\n",
    "123456789012345678\n999999999999999999\n", "999999999999999999 0",
    f"{10**18 - 1}\n{10**18}\n", f"1\n{2**63 - 1}\n", f"{2**63}\n", f"0 {2**63 - 1}0\n",
    "12345678901234567890\n", "00000000000000000000000000042\n",
    "1\xa02\n", "1\x852\n", "1\x1f2\n", " 1 2",
    "+2\n", "1_0\n", "-1\n", "1.5\n", "0\nabc\n", "1e3", "\x00",
])
def test_mask_file_parse_equals_reference_on_edge_cases(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    assert_reads_like_reference(path)


def test_write_instances_output_takes_the_c_level_parse(tmp_path, monkeypatch):
    def fallback(text):
        raise AssertionError("fell back to the int() parse")

    monkeypatch.setattr(scene_io, "_ids_from_text", fallback)
    rng = np.random.default_rng(5)
    original = InstanceSet([
        Instance(np.array([], dtype=np.int64)),
        Instance(np.array([0])),
        Instance(np.sort(rng.choice(10**6, 5000, replace=False)), confidence=0.25),
        Instance(np.array([7, 10**17, 10**18 - 1]), kind="part"),
    ])
    path = tmp_path / "preds.txt"
    write_instances(path, original)
    loaded = load_instances(path)
    for a, b in zip(original.instances, loaded.instances, strict=True):
        assert b.point_ids.dtype == np.int64
        assert np.array_equal(a.point_ids, b.point_ids)


def test_instance_requires_sorted_unique_ids():
    with pytest.raises(FormatError):
        Instance(np.array([3, 3, 5]))
    with pytest.raises(FormatError):
        Instance(np.array([5, 3]))
    with pytest.raises(FormatError, match="^negative point index$"):
        Instance(np.array([-1, 3]))
