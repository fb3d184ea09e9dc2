"""3D objectness priors from consecutive 2D frames.

Masks of the same object are grouped across frames first (greedy
adjacent-frame matching on mask features, then transitive propagation), and
only then projected to 3D, where each group's pooled, sorted point ids are
one prior (the merge rounds box them, hierarchy._box_counts). Grouping
before projection sidesteps the impossible task of picking a single 3D
overlap criterion for objects of all sizes.

Projection is split in two: each frame that shows a surviving track is
projected and depth-tested once (``visible_points``), and each of its masks
then only indexes its flattened bitmap at those visible pixels. The frames
are projected one after another in the calling thread, in frame order.
``camera_project`` walks the cloud in fixed-size blocks and returns only the
points that land in the image, so a frame never holds a whole-cloud
temporary, and its small matrix products stay in the calling thread.

MatchParams is the one definition of this stage's tunables: the matching
threshold tau, the projection's depth_tol, and the min_track_frames /
min_track_points floors.
"""

from dataclasses import dataclass, field

import numpy as np

from .scene_io import require_finite
from .spatial import components, groups, sorted_unique


@dataclass
class MatchParams:
    tau: float = 0.3
    depth_tol: float = 0.05
    min_track_frames: int = 2
    min_track_points: int = 30

    def __post_init__(self):
        require_finite(self)
        if not (-1.0 < self.tau < 1.0):
            raise ValueError("tau must be in (-1, 1)")
        if self.depth_tol <= 0:
            raise ValueError("depth_tol must be positive")
        if self.min_track_frames < 1:
            raise ValueError("min_track_frames must be >= 1")
        if self.min_track_points < 1:
            raise ValueError("min_track_points must be >= 1")


@dataclass
class ObjectTrack:
    """Masks judged to show one object, plus their pooled 3D points."""

    members: list
    point_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def frame_span(self):
        """The number of distinct frames the track's masks come from."""
        return len({fid for fid, _ in self.members})


def match_adjacent(frame_a, frame_b, tau):
    """Greedy links (i in a, j in b) by highest mask-feature similarity.

    Each mask in frame_a links to its most similar mask in frame_b when that
    similarity exceeds tau; argmax ties go to the lowest j. Matching is
    one-directional, so several masks of frame_a may link to one mask of
    frame_b.
    """
    if not frame_a.masks or not frame_b.masks:
        return []
    fa = np.stack([m.feature for m in frame_a.masks]).astype(np.float64)
    fb = np.stack([m.feature for m in frame_b.masks]).astype(np.float64)
    fa /= np.linalg.norm(fa, axis=1, keepdims=True)
    fb /= np.linalg.norm(fb, axis=1, keepdims=True)
    sims = fa @ fb.T
    best_j = sims.argmax(axis=1)
    return [(i, int(j)) for i, j in enumerate(best_j) if sims[i, j] > tau]


def propagate_sameness(nodes, edges):
    """Connected components of the (frame, mask) link graph as tracks.

    Every node ends up in exactly one track, linked or not. Components are
    ordered by their smallest member (spatial.components) and members are
    sorted, so the result is deterministic.
    """
    nodes = sorted(nodes)
    index = {node: k for k, node in enumerate(nodes)}
    n_tracks, track_of = components(len(nodes), [(index[a], index[b]) for a, b in edges])
    return [ObjectTrack(members=[nodes[k] for k in g.tolist()])
            for g in groups(track_of, n_tracks)]


# Values per row of camera_project's subtraction: 256 points.
_ROW = 768
# Points per block of camera_project, a multiple of _ROW // 3. A block's
# (_BLOCK, 3) @ (3, 3) product stays under OpenBLAS's 2**18 multiply-adds, so
# it runs in the calling thread even when numpy was imported before the
# package's OpenBLAS pin; smaller blocks spend more time holding the
# interpreter lock.
_BLOCK = 28672


def camera_project(positions, camera, extrinsics):
    """Project world points to pixels of a scene_io.CameraModel, nearest-pixel.

    Returns (ids, flat, depth) for the points that land in the image: their
    ascending ids, their flat pixel indices row * width + col (int64) and
    their camera-space depths, each positive. Extrinsics are camera-to-world.

    The points are projected in blocks of _BLOCK, so the call holds a few
    block-sized buffers besides its result. Within a block each pixel
    coordinate is computed in one buffer, in place, in the order
    floor(f * x / z + c + 0.5), and the bounds are checked on the floored
    floats. The camera position is subtracted over rows of _ROW values, a
    tiled copy per row, so numpy runs one long loop per row, not a length-3
    loop per point; each difference is the same float as the broadcast's,
    and each row of the product the same as the whole cloud's.
    """
    ext = np.asarray(extrinsics, dtype=np.float64)
    pos = np.asarray(positions)
    n = pos.shape[0]
    rel = np.empty((min(n, _BLOCK), 3), dtype=np.float64)
    cam, col, row = np.empty_like(rel), np.empty(len(rel)), np.empty(len(rel))
    shift = np.tile(ext[:3, 3], _ROW // 3)
    ids, flat, depth = [], [], []
    for start in range(0, max(n, 1), _BLOCK):  # one empty block for no points
        block = pos[start:start + _BLOCK]
        m = block.shape[0]
        full = m - m % (_ROW // 3)
        np.subtract(block[:full].reshape(-1, _ROW), shift,
                    out=rel[:full].reshape(-1, _ROW), dtype=np.float64)
        np.subtract(block[full:], ext[:3, 3], out=rel[full:m], dtype=np.float64)
        np.matmul(rel[:m], ext[:3, :3], out=cam[:m])
        z = cam[:m, 2]
        # Points at or behind the camera divide by z <= 0; ok drops them.
        with np.errstate(all="ignore"):
            ok = z > 0.0
            for px, axis, f, centre, size in ((col, 0, camera.fx, camera.cx, camera.width),
                                               (row, 1, camera.fy, camera.cy, camera.height)):
                px = np.multiply(cam[:m, axis], f, out=px[:m])
                px /= z
                px += centre
                px += 0.5
                np.floor(px, out=px)
                ok &= px >= 0.0
                ok &= px < size
        hit = np.flatnonzero(ok)
        pixel = row[hit]
        pixel *= camera.width
        pixel += col[hit]
        ids.append(hit + start)
        flat.append(pixel.astype(np.int64))
        depth.append(z[hit])
    return np.concatenate(ids), np.concatenate(flat), np.concatenate(depth)


def visible_points(cloud, frame, depth_tol=MatchParams.depth_tol):
    """Point ids that frame sees, ascending, with their flat pixel indices.

    A point is visible when camera_project puts it in the image and it agrees
    with the rendered depth at its pixel within depth_tol (a zero depth pixel
    never matches). Its flat index is row * width + col, so any
    (height, width) image of the frame reads it as image.ravel()[flat].
    """
    ids, flat, z = camera_project(cloud.positions, frame.camera, frame.extrinsics)
    d = frame.depth.ravel()[flat].astype(np.float64)
    good = (d > 0.0) & (np.abs(z - d) <= depth_tol)
    return ids[good], flat[good]


def project_mask_points(frame, mask_index, visible):
    """3D point ids, ascending, that are visible in frame inside the 2D mask.

    visible is frame's visible_points result, which every mask of the frame
    shares.
    """
    idx, flat = visible
    return idx[frame.masks[mask_index].bitmap.ravel()[flat]]


def build_tracks(cloud, frames, params=None):
    """Group masks across frames, project each group, pool the points.

    Adjacent frames are matched by match_adjacent with params.tau. Tracks
    whose frame_span is below min_track_frames are dropped before any
    projection, so a frame is projected at most once, in frame order, and
    only when it holds a member of a surviving track. Tracks with fewer than
    min_track_points pooled points are dropped afterwards.
    """
    params = params or MatchParams()
    frames = sorted(frames, key=lambda f: f.frame_id)
    by_id = {f.frame_id: f for f in frames}

    nodes = [(f.frame_id, m) for f in frames for m in range(len(f.masks))]
    edges = []
    for a, b in zip(frames, frames[1:]):
        for i, j in match_adjacent(a, b, params.tau):
            edges.append(((a.frame_id, i), (b.frame_id, j)))

    tracks = [t for t in propagate_sameness(nodes, edges)
              if t.frame_span >= params.min_track_frames]
    members_by_frame = {}
    for k, track in enumerate(tracks):
        for fid, mi in track.members:
            members_by_frame.setdefault(fid, []).append((k, mi))

    pooled = [[] for _ in tracks]
    for fid, members in sorted(members_by_frame.items()):
        frame = by_id[fid]
        visible = visible_points(cloud, frame, params.depth_tol)
        for k, mi in members:
            pooled[k].append(project_mask_points(frame, mi, visible))

    kept = []
    for track, ids in zip(tracks, pooled):
        ids = sorted_unique(np.concatenate(ids))
        if ids.size < params.min_track_points:
            continue
        track.point_ids = ids
        kept.append(track)
    return kept

