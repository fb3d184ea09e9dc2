import threading
import tracemalloc

import numpy as np
import pytest

from part2object import objectness as ob
from part2object import parallel
from part2object.scene_io import CameraModel, FrameObservation, MaskEntry, SceneCloud

from conftest import points_in_box


def test_frame_span_counts_distinct_frames():
    assert ob.ObjectTrack(members=[(0, 1), (0, 2), (3, 0)]).frame_span == 2
    assert ob.ObjectTrack(members=[]).frame_span == 0


def frame_with_features(frame_id, feats, h=6, w=6):
    masks = []
    for f in feats:
        bitmap = np.zeros((h, w), dtype=bool)
        bitmap[0, 0] = True
        masks.append(MaskEntry(bitmap=bitmap, feature=np.asarray(f, dtype=np.float32)))
    return FrameObservation(
        frame_id=frame_id,
        camera=CameraModel(fx=5.0, fy=5.0, cx=2.5, cy=2.5, width=w, height=h),
        extrinsics=np.eye(4),
        depth=np.ones((h, w), dtype=np.float32),
        masks=masks,
    )


def brute_links(fa, fb, tau):
    links = []
    for i, a in enumerate(fa):
        best_j, best_s = None, -2.0
        for j, b in enumerate(fb):
            a64 = np.asarray(a, dtype=np.float64)
            b64 = np.asarray(b, dtype=np.float64)
            s = float(a64 @ b64 / (np.linalg.norm(a64) * np.linalg.norm(b64)))
            if s > best_s:
                best_j, best_s = j, s
        if best_s > tau:
            links.append((i, best_j))
    return links


# ---------------------------------------------------------------------------
# match_adjacent


def test_match_empty_next_frame():
    fa = frame_with_features(0, [(1.0, 0.0)])
    fb = frame_with_features(1, [])
    assert ob.match_adjacent(fa, fb, 0.3) == []


def test_match_identical_masks():
    fa = frame_with_features(0, [(1.0, 0.0)])
    fb = frame_with_features(1, [(2.0, 0.0)])
    assert ob.match_adjacent(fa, fb, 0.3) == [(0, 0)]


def test_match_threshold_is_strict():
    fa = frame_with_features(0, [(1.0, 0.0)])
    fb = frame_with_features(1, [(1.0, 0.0)])
    assert ob.match_adjacent(fa, fb, 1.0) == []  # sim == tau is not enough


def test_match_ties_take_lowest_index():
    fa = frame_with_features(0, [(1.0, 0.0)])
    fb = frame_with_features(1, [(3.0, 0.0), (1.0, 0.0)])
    assert ob.match_adjacent(fa, fb, 0.3) == [(0, 0)]


def test_match_equals_brute_force_on_random_features():
    rng = np.random.default_rng(17)
    for _ in range(50):
        na, nb = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        fa = rng.standard_normal((na, 5)) + 0.01
        fb = rng.standard_normal((nb, 5)) + 0.01
        tau = float(rng.uniform(-0.5, 0.9))
        frame_a = frame_with_features(0, fa)
        frame_b = frame_with_features(1, fb)
        got = ob.match_adjacent(frame_a, frame_b, tau)
        assert got == brute_links(fa, fb, tau)


# ---------------------------------------------------------------------------
# propagate_sameness


def test_propagation_chains_across_frames():
    nodes = [(0, 0), (1, 0), (2, 1)]
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 1))]
    tracks = ob.propagate_sameness(nodes, edges)
    assert len(tracks) == 1
    assert tracks[0].members == [(0, 0), (1, 0), (2, 1)]


def test_no_links_yield_singletons():
    nodes = [(0, 0), (0, 1), (1, 0)]
    tracks = ob.propagate_sameness(nodes, [])
    assert [t.members for t in tracks] == [[(0, 0)], [(0, 1)], [(1, 0)]]


def bfs_components(nodes, edges):
    adjacency = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            cur = queue.pop(0)
            comp.append(cur)
            for nb in sorted(adjacency[cur]):
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        comps.append(sorted(comp))
    return comps


def test_propagation_equals_bfs_oracle_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n_frames = int(rng.integers(2, 6))
        counts = rng.integers(1, 5, size=n_frames)
        nodes = [(f, m) for f in range(n_frames) for m in range(counts[f])]
        edges = []
        for f in range(n_frames - 1):
            for i in range(counts[f]):
                if rng.random() < 0.5:
                    edges.append(((f, i), (f + 1, int(rng.integers(0, counts[f + 1])))))
        got = [t.members for t in ob.propagate_sameness(nodes, edges)]
        assert got == bfs_components(nodes, edges)


def union_find_tracks(nodes, edges):
    """Reference: path-halving union-find, roots kept at the smaller index."""
    nodes = sorted(nodes)
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    groups = {}
    for k in range(len(nodes)):
        groups.setdefault(find(k), []).append(k)
    return [[nodes[k] for k in groups[root]] for root in sorted(groups)]


def test_propagation_equals_union_find_reference():
    # Arbitrary links, not only adjacent frames: empty graphs, isolated
    # nodes, self-loops, repeated links and nodes given out of order.
    rng = np.random.default_rng(31)
    for trial in range(300):
        n_frames = int(rng.integers(0, 6))
        counts = rng.integers(0, 5, size=n_frames)
        nodes = [(f, m) for f in range(n_frames) for m in range(counts[f])]
        n_edges = int(rng.integers(0, 2 * len(nodes) + 1)) if nodes else 0
        picks = rng.integers(0, max(len(nodes), 1), size=(n_edges, 2))
        edges = [(nodes[a], nodes[b]) for a, b in picks]
        if nodes and trial % 3 == 0:
            edges.append((nodes[0], nodes[0]))
        shuffled = [nodes[k] for k in rng.permutation(len(nodes))]
        got = [t.members for t in ob.propagate_sameness(shuffled, edges)]
        assert got == union_find_tracks(nodes, edges)


# ---------------------------------------------------------------------------
# projection


def front_back_cube_cloud(n_side=20):
    """Front face at z=2 and back face at z=3 of an axis-aligned cube."""
    lin = np.linspace(-0.45, 0.45, n_side)
    gx, gy = np.meshgrid(lin, lin, indexing="ij")
    front = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, 2.0)])
    back = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, 3.0)])
    behind = np.array([[0.0, 0.0, -1.0]])
    return SceneCloud(positions=np.vstack([front, back, behind]).astype(np.float32))


def axis_aligned_frame(h=64, w=64, depth_value=2.0):
    depth = np.full((h, w), depth_value, dtype=np.float32)
    bitmap = np.ones((h, w), dtype=bool)
    return FrameObservation(
        frame_id=0,
        camera=CameraModel(fx=60.0, fy=60.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h),
        extrinsics=np.eye(4),
        depth=depth,
        masks=[MaskEntry(bitmap=bitmap, feature=np.ones(4, dtype=np.float32))],
    )


def test_projection_recovers_front_face_only():
    cloud = front_back_cube_cloud()
    frame = axis_aligned_frame()
    ids = ob.project_mask_points(frame, 0, ob.visible_points(cloud, frame, 0.05))
    n_face = 400
    assert set(ids) == set(range(n_face))  # front face in, back face + behind out


def test_projection_empty_when_mask_misses_points():
    cloud = front_back_cube_cloud()
    frame = axis_aligned_frame()
    frame.masks[0].bitmap = np.zeros_like(frame.masks[0].bitmap)
    frame.masks[0].bitmap[0, 0] = True  # corner pixel no point hits
    ids = ob.project_mask_points(frame, 0, ob.visible_points(cloud, frame, 0.05))
    assert ids.size == 0


def test_projection_rejects_invalid_depth():
    cloud = front_back_cube_cloud()
    frame = axis_aligned_frame(depth_value=0.0)  # all pixels invalid
    assert ob.project_mask_points(frame, 0, ob.visible_points(cloud, frame, 0.05)).size == 0


def test_point_behind_camera_excluded():
    cloud = SceneCloud(positions=np.array([[0.0, 0.0, -1.0]], dtype=np.float32))
    frame = axis_aligned_frame()
    assert ob.project_mask_points(frame, 0, ob.visible_points(cloud, frame, 10.0)).size == 0


# ---------------------------------------------------------------------------
# tracks and priors


def test_zero_frames_yield_no_priors():
    cloud = SceneCloud(positions=np.zeros((1, 3), dtype=np.float32))
    assert ob.build_tracks(cloud, []) == []


def test_priors_on_synthetic_scene(three_block_scene):
    cloud, gt, frames = three_block_scene
    params = ob.MatchParams()
    tracks = ob.build_tracks(cloud, frames, params)
    assert len(tracks) == 3
    pos = cloud.positions.astype(np.float64)
    for track in tracks:
        ids = track.point_ids
        assert ids.dtype == np.int64 and (np.diff(ids) > 0).all()
        # each track's tight box encloses >= 95% of exactly one ground-truth
        # object (pooled points alone cannot: some faces are hidden in every view)
        lo, hi = pos[ids].min(axis=0), pos[ids].max(axis=0)
        fractions = [points_in_box(pos[g.point_ids], lo, hi).mean() for g in gt.instances]
        assert max(fractions) >= 0.95


def test_dissimilar_objects_are_never_co_tracked(three_block_scene):
    cloud, _gt, frames = three_block_scene
    tracks = ob.build_tracks(cloud, frames, ob.MatchParams())
    # every track's members reference masks of a single synthetic object:
    # masks are emitted per object in feature order, so cross-object tracks
    # would show up as boxes spanning two blocks
    pos = cloud.positions.astype(np.float64)
    for track in tracks:
        extent = pos[track.point_ids].max(axis=0) - pos[track.point_ids].min(axis=0)
        assert extent[0] < 0.6  # a single 0.5 m block, not two


def test_match_params_validation():
    with pytest.raises(ValueError):
        ob.MatchParams(tau=1.0)
    with pytest.raises(ValueError):
        ob.MatchParams(depth_tol=0.0)
    with pytest.raises(ValueError):
        ob.MatchParams(min_track_frames=0)


# ---------------------------------------------------------------------------
# build_tracks against the whole-cloud projection per member


def reference_camera_project(positions, camera, extrinsics):
    """camera_project as first written: masked gathers, -1 off the image."""
    pos = np.asarray(positions, dtype=np.float64)
    ext = np.asarray(extrinsics, dtype=np.float64)
    cam = (pos - ext[:3, 3]) @ ext[:3, :3]
    z = cam[:, 2]
    ok = z > 0.0

    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    h, w = camera.height, camera.width
    col = np.full(pos.shape[0], -1, dtype=np.int64)
    row = np.full(pos.shape[0], -1, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        col[ok] = np.floor(fx * cam[ok, 0] / z[ok] + cx + 0.5).astype(np.int64)
        row[ok] = np.floor(fy * cam[ok, 1] / z[ok] + cy + 0.5).astype(np.int64)
    ok &= (col >= 0) & (col < w) & (row >= 0) & (row < h)
    return row, col, z, ok


def assert_same_projection(positions, camera, extrinsics):
    """camera_project returns the points the reference puts in the image,
    with the reference's pixels and depths; returns the reference's mask."""
    want_row, want_col, want_z, want_ok = reference_camera_project(positions, camera, extrinsics)
    ids, flat, z = ob.camera_project(positions, camera, extrinsics)
    assert ids.dtype == flat.dtype == np.int64 and z.dtype == np.float64
    assert np.array_equal(ids, np.flatnonzero(want_ok))
    assert np.array_equal(flat, want_row[ids] * camera.width + want_col[ids])
    assert z.tobytes() == want_z[ids].tobytes()
    return want_ok


def test_camera_project_equals_reference_on_random_cameras():
    rng = np.random.default_rng(808)
    behind = inside = outside = 0
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(1, 40, 2))
        f = rng.uniform(2.0, 60.0, 2)
        camera = CameraModel(fx=f[0], fy=f[1], cx=rng.uniform(-2, w + 2),
                             cy=rng.uniform(-2, h + 2), width=w, height=h)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        extrinsics = np.eye(4)
        extrinsics[:3, :3] = q
        extrinsics[:3, 3] = rng.uniform(-1, 1, 3)
        positions = rng.uniform(-3, 3, (int(rng.integers(0, 200)), 3))
        if rng.random() < 0.5:
            positions = positions.astype(np.float32)
        ok = assert_same_projection(positions, camera, extrinsics)
        z = reference_camera_project(positions, camera, extrinsics)[2]
        behind += int((z <= 0).sum())
        inside += int(ok.sum())
        outside += int(((z > 0) & ~ok).sum())
    assert behind and inside and outside


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000,
                               ob._BLOCK - 1, ob._BLOCK, ob._BLOCK + 1])
def test_camera_project_subtracts_as_the_broadcast(n):
    # the subtraction runs over rows of 256 points plus a tail, in blocks
    # of _BLOCK points; float32, float64 and a strided float64 view
    rng = np.random.default_rng(n)
    camera = CameraModel(fx=30.0, fy=30.0, cx=20.0, cy=15.0, width=40, height=30)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    extrinsics = np.eye(4)
    extrinsics[:3, :3] = q
    extrinsics[:3, 3] = rng.uniform(-1, 1, 3)
    wide = rng.uniform(-3, 3, (n, 4))
    for positions in (wide[:, :3].astype(np.float32), wide[:, :3], np.ascontiguousarray(wide[:, 1:])):
        cam = np.subtract(positions, extrinsics[:3, 3], dtype=np.float64) @ extrinsics[:3, :3]
        ids, _, z = ob.camera_project(positions, camera, extrinsics)
        assert z.tobytes() == cam[ids, 2].tobytes()
        assert_same_projection(positions, camera, extrinsics)


def test_camera_project_edges():
    # f = 8 and c = 7.5 on a 16 x 16 image: x / z = -1 lands on u = -0.5,
    # which rounds into column 0, and x / z = 1 on u = w - 0.5, which rounds
    # to column 16, off the image; likewise for rows.
    h = w = 16
    camera = CameraModel(fx=8.0, fy=8.0, cx=7.5, cy=7.5, width=w, height=h)
    positions = np.array([
        [-1.0, 0.0, 1.0],   # u = -0.5: column 0
        [1.0, 0.0, 1.0],    # u = w - 0.5: column w
        [0.0, -2.0, 2.0],   # v = -0.5: row 0
        [0.0, 2.0, 2.0],    # v = h - 0.5: row h
        [0.0, 0.0, 0.0],    # z = 0 at the camera centre
        [1.0, 1.0, 0.0],    # z = 0 off the axis
        [0.0, 0.0, -1.0],   # behind, on the axis
        [-0.5, 0.5, -1.0],  # behind, would mirror into the image
        [0.0, 0.0, 1.0],    # image centre
    ])
    moved = np.eye(4)
    moved[:3, 3] = (0.25, -0.5, 1.5)  # the same points seen from a moved camera
    for extrinsics, world in ((np.eye(4), positions), (moved, positions + moved[:3, 3])):
        for pos in (world, world.astype(np.float32)):
            ok = assert_same_projection(pos, camera, extrinsics)
            assert ok.tolist() == [True, False, True, False, False, False, False, False, True]
    ids, flat, _ = ob.camera_project(positions, camera, np.eye(4))
    # (row, col) = (8, 0), (0, 8) and (8, 8)
    assert (ids.tolist(), flat.tolist()) == ([0, 2, 8], [8 * w, 8, 8 * w + 8])


def test_camera_project_holds_little_beyond_its_result():
    # About half of 300k float32 points land in the image. The whole-cloud
    # arrays of a projection (float64 copies, pixel coordinates, masks) would
    # take about 80 bytes a point; the result takes 24 per point in the image.
    rng = np.random.default_rng(31)
    camera = CameraModel(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    n = 300_000
    z = rng.uniform(0.5, 4.0, n)
    u = rng.uniform(-0.2, 1.2, n) * camera.width
    v = rng.uniform(-0.2, 1.2, n) * camera.height
    positions = np.column_stack(((u - camera.cx) * z / camera.fx,
                                 (v - camera.cy) * z / camera.fy, z)).astype(np.float32)
    tracemalloc.start()
    try:
        ids, _, _ = ob.camera_project(positions, camera, np.eye(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.4 * n < ids.size < 0.6 * n
    assert peak < 40 * n + (4 << 20)


def reference_project_mask_points(cloud, frame, mask_index, depth_tol):
    """The projection as written before frames were shared: one per mask."""
    row, col, z, ok = reference_camera_project(cloud.positions, frame.camera, frame.extrinsics)
    idx = np.flatnonzero(ok)
    d = frame.depth[row[idx], col[idx]].astype(np.float64)
    good = (d > 0.0) & (np.abs(z[idx] - d) <= depth_tol)
    idx = idx[good]
    return idx[frame.masks[mask_index].bitmap[row[idx], col[idx]]]


def reference_build_tracks(cloud, frames, params):
    """build_tracks with the whole cloud projected once per track member.

    Also returns the tracks that passed min_track_frames (before the point
    threshold), so callers can tell which frames had to be projected, and the
    number of tracks formed.
    """
    frames = sorted(frames, key=lambda f: f.frame_id)
    by_id = {f.frame_id: f for f in frames}
    nodes = [(f.frame_id, m) for f in frames for m in range(len(f.masks))]
    edges = []
    for a, b in zip(frames, frames[1:]):
        for i, j in ob.match_adjacent(a, b, params.tau):
            edges.append(((a.frame_id, i), (b.frame_id, j)))
    kept, long_enough = [], []
    formed = ob.propagate_sameness(nodes, edges)
    for track in formed:
        if len({fid for fid, _ in track.members}) < params.min_track_frames:
            continue
        long_enough.append(track)
        pooled = [
            reference_project_mask_points(cloud, by_id[fid], mi, params.depth_tol)
            for fid, mi in track.members
        ]
        ids = np.unique(np.concatenate(pooled))
        if ids.size < params.min_track_points:
            continue
        track.point_ids = ids
        kept.append(track)
    return kept, long_enough, len(formed)


def random_tracking_scene(rng, h=12, w=16):
    """Random points (some behind every camera) seen by 2-6 jittered cameras.

    Depth maps are z-buffers of the cloud with some pixels zeroed and some
    pushed off the surface. Masks are random rectangles, often overlapping,
    whose features are noisy copies of a few object prototypes so that they
    link across frames; some frames have no masks and some bitmaps are
    cleared to all-false after construction.
    """
    n = int(rng.integers(20, 400))
    positions = np.column_stack([
        rng.uniform(-1.5, 1.5, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 4.0, n)
    ])
    # a few points right in front of the cameras: on a zero-depth pixel they
    # are within depth_tol of 0, so only the zero-depth rule rejects them
    positions[:8] = rng.uniform((-0.02, -0.02, 0.2), (0.02, 0.02, 0.25), (8, 3))
    cloud = SceneCloud(positions=positions.astype(np.float32))
    prototypes = rng.standard_normal((int(rng.integers(1, 4)), 6))
    camera = CameraModel(fx=10.0, fy=10.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    frame_ids = np.sort(rng.choice(50, size=int(rng.integers(2, 7)), replace=False))
    frames = []
    for fid in frame_ids:
        angle = rng.uniform(-0.2, 0.2)
        c, s = np.cos(angle), np.sin(angle)
        extrinsics = np.eye(4)
        extrinsics[:3, :3] = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
        extrinsics[:3, 3] = rng.uniform(-0.2, 0.2, 3)
        _, flat, z = ob.camera_project(positions, camera, extrinsics)
        depth = np.full(h * w, np.inf)
        np.minimum.at(depth, flat, z)
        depth[np.isinf(depth)] = 0.0
        depth[rng.random(h * w) < 0.15] = 0.0
        off = rng.random(h * w) < 0.1
        depth[off] += 0.5
        masks = []
        for _ in range(int(rng.choice([0, 1, 2, 3, 4], p=[0.15, 0.2, 0.25, 0.2, 0.2]))):
            bitmap = np.zeros((h, w), dtype=bool)
            r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            bitmap[r0:r0 + int(rng.integers(1, h)), c0:c0 + int(rng.integers(1, w))] = True
            feature = prototypes[rng.integers(len(prototypes))] + 0.3 * rng.standard_normal(6)
            mask = MaskEntry(bitmap=bitmap, feature=feature)
            if rng.random() < 0.1:
                mask.bitmap = np.zeros((h, w), dtype=bool)
            masks.append(mask)
        frames.append(FrameObservation(
            frame_id=int(fid), camera=camera, extrinsics=extrinsics,
            depth=depth.reshape(h, w).astype(np.float32), masks=masks,
        ))
    order = rng.permutation(len(frames))
    return cloud, [frames[k] for k in order]


def record_projections(monkeypatch, threads=None):
    """Patch camera_project to log the id of each call's extrinsics array.

    When a set is given as threads, the calling thread's id is added to it.
    """
    calls = []
    real_project = ob.camera_project

    def counting_project(positions, camera, extrinsics):
        calls.append(id(extrinsics))
        if threads is not None:
            threads.add(threading.get_ident())
        return real_project(positions, camera, extrinsics)

    monkeypatch.setattr(ob, "camera_project", counting_project)
    return calls


def test_build_tracks_equals_per_member_projection(monkeypatch):
    """At 1, 2 and 3 workers: the reference's tracks, one projection a frame,
    every projection in the calling thread."""
    threads = set()
    calls = record_projections(monkeypatch, threads)
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "cpu_workers", lambda workers=workers: workers)
        threads.clear()
        rng = np.random.default_rng(404)
        seen = dict.fromkeys(
            ["overlap", "all_false", "no_masks", "behind", "zero_depth",
             "dropped_frames", "dropped_points", "kept"], 0)
        for _ in range(150):
            cloud, frames = random_tracking_scene(rng)
            params = ob.MatchParams(
                tau=float(rng.uniform(0.0, 0.8)),
                depth_tol=float(rng.uniform(0.02, 0.3)),
                min_track_frames=int(rng.integers(1, 4)),
                min_track_points=int(rng.integers(1, 40)),
            )
            want, long_enough, n_formed = reference_build_tracks(cloud, frames, params)

            calls.clear()
            got = ob.build_tracks(cloud, frames, params)
            projected = list(calls)

            assert [t.members for t in got] == [t.members for t in want]
            for g, w in zip(got, want):
                assert g.point_ids.dtype == w.point_ids.dtype
                assert np.array_equal(g.point_ids, w.point_ids)

            # one projection per frame holding a member of a track that passed
            # min_track_frames, and none for any other frame
            by_id = {f.frame_id: f for f in frames}
            needed = {fid for t in long_enough for fid, _ in t.members}
            assert sorted(projected) == sorted(id(by_id[fid].extrinsics) for fid in needed)

            seen["dropped_frames"] += len(long_enough) < n_formed
            seen["dropped_points"] += len(want) < len(long_enough)
            seen["kept"] += len(want) > 0
            seen["no_masks"] += any(not f.masks for f in frames)
            seen["all_false"] += any(not m.bitmap.any() for f in frames for m in f.masks)
            seen["zero_depth"] += any((f.depth == 0).any() for f in frames)
            for f in frames:
                z = reference_camera_project(cloud.positions, f.camera, f.extrinsics)[2]
                seen["behind"] += bool((z <= 0).any())
                if len(f.masks) > 1:
                    stack = np.stack([m.bitmap for m in f.masks])
                    seen["overlap"] += bool((stack.sum(axis=0) > 1).any())
        assert all(count > 0 for count in seen.values()), seen
        # frames are projected in the calling thread, whatever the CPU count
        assert threads == {threading.get_ident()}


def test_frames_of_dropped_tracks_are_never_projected(monkeypatch):
    cloud = front_back_cube_cloud()
    frames = [axis_aligned_frame() for _ in range(3)]
    for fid, frame in enumerate(frames):
        frame.frame_id = fid
    # frame 1's only mask differs from its neighbours, so every track spans a
    # single frame (frames 0 and 2 are not adjacent)
    frames[1].masks[0].feature = np.array([1.0, -1.0, 1.0, -1.0], dtype=np.float32)
    calls = record_projections(monkeypatch)
    assert ob.build_tracks(cloud, frames, ob.MatchParams(min_track_frames=2)) == []
    assert calls == []

    frames[1].masks[0].feature = np.ones(4, dtype=np.float32)
    tracks = ob.build_tracks(cloud, frames, ob.MatchParams(min_track_frames=2))
    assert [t.members for t in tracks] == [[(0, 0), (1, 0), (2, 0)]]
    assert sorted(calls) == sorted(id(f.extrinsics) for f in frames)
