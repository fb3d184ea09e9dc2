"""Deterministic synthetic scenes with ground truth, frames and masks.

Surfaces of simple solids (plus an optional floor-and-walls room) are point
sampled, every point carries its object's feature vector plus Gaussian noise,
and cameras render depth maps by splat z-buffering the sampled points: each
point covers the splat_px x splat_px square around its pixel, and a pixel
shows the nearest z, then the lowest id, over every point whose splat covers
it. Each visible object contributes one ground-truth mask per frame, so the
generator doubles as the oracle for the projection, prior and end-to-end tests.

Everything is a pure function of the spec, including its seed.
"""

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .objectness import camera_project
from .scene_io import FrameObservation, Instance, InstanceSet, MaskEntry, SceneCloud, check_fields

log = logging.getLogger(__name__)

_NO_ID = np.iinfo(np.int64).max  # the id of a pixel that no point covers


@dataclass
class CameraModel:
    width: int = 160
    height: int = 120
    fx: float = 140.0
    fy: float = 140.0
    cx: float = 79.5
    cy: float = 59.5

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"width and height must be >= 1, got {self.width}x{self.height}")
        if not all(math.isfinite(f) and f > 0 for f in (self.fx, self.fy)):
            raise ValueError(f"fx and fy must be finite and > 0, got {self.fx}, {self.fy}")

    @property
    def intrinsics(self):
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass
class SynthObject:
    shape: str = "cuboid"
    center: tuple = (0.0, 0.0, 0.0)
    size: tuple = (0.5, 0.5, 0.5)
    yaw: float = 0.0
    color: tuple = (0.5, 0.5, 0.5)
    feature: np.ndarray | None = None

    def __post_init__(self):
        if self.shape not in ("cuboid", "cylinder"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if not all(math.isfinite(v) and v > 0 for v in self.size):
            raise ValueError(f"size must be finite and > 0, got {list(self.size)}")
        if self.feature is not None:
            try:
                self.feature = np.asarray(self.feature, dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(f"feature must be an array of numbers, got "
                                 f"{self.feature!r}") from None


@dataclass
class SynthSpec:
    seed: int = 0
    objects: list = field(default_factory=list)
    room: tuple | None = None  # (len_x, len_y, wall_height); None = no background
    points_per_m2: float = 2000.0
    cameras: list = field(default_factory=list)  # 4x4 camera-to-world poses
    camera_model: CameraModel = field(default_factory=CameraModel)
    feature_dim: int = 16
    feature_noise: float = 0.02
    position_jitter: float = 0.002
    splat_px: int = 3
    allow_similar_features: bool = False

    def __post_init__(self):
        px = self.splat_px
        if isinstance(px, bool) or not isinstance(px, int) or px < 1 or px % 2 == 0:
            raise ValueError(f"splat_px must be a positive odd integer, got {px!r}")
        if not (math.isfinite(self.points_per_m2) and self.points_per_m2 > 0):
            raise ValueError(f"points_per_m2 must be finite and > 0, got {self.points_per_m2}")
        dim = self.feature_dim
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"feature_dim must be an integer >= 1, got {dim!r}")
        for name in ("feature_noise", "position_jitter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.room is not None:
            lx, ly, wall_h = self.room
            if not (all(math.isfinite(v) and v > 0 for v in (lx, ly))
                    and math.isfinite(wall_h) and wall_h >= 0):
                raise ValueError(f"room lengths must be finite and > 0 and its wall height "
                                 f"finite and >= 0, got {list(self.room)}")

    @classmethod
    def from_dict(cls, data, where="spec"):
        """A SynthSpec from its JSON form, checked by scene_io.check_fields
        (`where` names the file); a camera is 16 numbers or 4 rows of 4."""
        def build(kind, value, at, what):
            value = check_fields(value, {f.name: f.type for f in fields(kind)}, at, what)
            try:
                return kind(**value)
            except ValueError as exc:
                raise ValueError(f"{at}: {exc}") from exc

        spec = build(cls, data, where, "spec")
        spec.objects = [build(SynthObject, o, f"{where}: objects[{k}]", "object")
                        for k, o in enumerate(spec.objects)]
        if "camera_model" in data:
            spec.camera_model = build(CameraModel, data["camera_model"], where, "camera_model")
        for k, pose in enumerate(spec.cameras):
            try:
                spec.cameras[k] = np.asarray(pose, dtype=np.float64).reshape(4, 4)
            except (TypeError, ValueError):
                raise ValueError(f"{where}: cameras[{k}] must be 16 numbers or 4 rows of 4, "
                                 f"got {pose!r}") from None
        return spec


def look_at(eye, target, up=(0.0, 0.0, 1.0)):
    """Camera-to-world pose for a camera at eye looking toward target (+z)."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(fwd)
    if norm == 0:
        raise ValueError("eye and target coincide")
    fwd /= norm
    up = np.asarray(up, dtype=np.float64)
    if np.abs(np.dot(fwd, up)) > 1.0 - 1e-9:
        up = np.array((0.0, 1.0, 0.0))
    x = np.cross(up, fwd)
    x /= np.linalg.norm(x)
    y = np.cross(fwd, x)
    pose = np.eye(4)
    pose[:3, 0] = x
    pose[:3, 1] = y
    pose[:3, 2] = fwd
    pose[:3, 3] = eye
    return pose


def _yaw_matrix(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _sample_patches(rng, density, patches):
    """Uniform samples on parallelogram patches (origin, edge_u, edge_v,
    normal), patch by patch; returns (points, normals)."""
    pts, nrm = [], []
    for origin, edge_u, edge_v, normal in np.asarray(patches, dtype=np.float64):
        area = np.linalg.norm(np.cross(edge_u, edge_v))
        count = max(1, int(round(area * density)))
        uv = rng.random((count, 2))
        pts.append(origin + uv[:, :1] * edge_u + uv[:, 1:] * edge_v)
        nrm.append(np.tile(normal / np.linalg.norm(normal), (count, 1)))
    return np.vstack(pts), np.vstack(nrm)


def _sample_cuboid(rng, density, size):
    sx, sy, sz = size
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    faces = [
        ((-hx, -hy, -hz), (sx, 0, 0), (0, sy, 0), (0, 0, -1)),  # bottom
        ((-hx, -hy, hz), (sx, 0, 0), (0, sy, 0), (0, 0, 1)),    # top
        ((-hx, -hy, -hz), (0, sy, 0), (0, 0, sz), (-1, 0, 0)),  # -x
        ((hx, -hy, -hz), (0, sy, 0), (0, 0, sz), (1, 0, 0)),    # +x
        ((-hx, -hy, -hz), (sx, 0, 0), (0, 0, sz), (0, -1, 0)),  # -y
        ((-hx, hy, -hz), (sx, 0, 0), (0, 0, sz), (0, 1, 0)),    # +y
    ]
    return _sample_patches(rng, density, faces)


def _sample_cylinder(rng, density, size):
    radius = size[0] / 2.0
    height = size[2]
    side_area = 2.0 * math.pi * radius * height
    cap_area = math.pi * radius * radius

    n_side = max(1, int(round(side_area * density)))
    ang = rng.random(n_side) * 2.0 * math.pi
    z = (rng.random(n_side) - 0.5) * height
    side = np.column_stack((radius * np.cos(ang), radius * np.sin(ang), z))
    side_n = np.column_stack((np.cos(ang), np.sin(ang), np.zeros(n_side)))

    pts, nrm = [side], [side_n]
    for sign in (-1.0, 1.0):
        n_cap = max(1, int(round(cap_area * density)))
        ang = rng.random(n_cap) * 2.0 * math.pi
        rad = radius * np.sqrt(rng.random(n_cap))
        cap = np.column_stack(
            (rad * np.cos(ang), rad * np.sin(ang), np.full(n_cap, sign * height / 2.0))
        )
        pts.append(cap)
        nrm.append(np.tile((0.0, 0.0, sign), (n_cap, 1)))
    return np.vstack(pts), np.vstack(nrm)


def _sample_room(rng, density, room):
    lx, ly, wall_h = room
    hx, hy = lx / 2.0, ly / 2.0
    patches = [
        ((-hx, -hy, 0.0), (lx, 0, 0), (0, ly, 0), (0, 0, 1)),  # floor
    ]
    if wall_h > 0:
        patches += [
            ((-hx, -hy, 0.0), (lx, 0, 0), (0, 0, wall_h), (0, 1, 0)),
            ((-hx, hy, 0.0), (lx, 0, 0), (0, 0, wall_h), (0, -1, 0)),
            ((-hx, -hy, 0.0), (0, ly, 0), (0, 0, wall_h), (1, 0, 0)),
            ((hx, -hy, 0.0), (0, ly, 0), (0, 0, wall_h), (-1, 0, 0)),
        ]
    return _sample_patches(rng, density, patches)


def _assign_features(spec, rng):
    """Per-object features plus one background feature, mutually dissimilar."""
    n = len(spec.objects) + 1
    if n > spec.feature_dim and any(o.feature is None for o in spec.objects):
        raise ValueError(
            f"{len(spec.objects)} objects need auto features but feature_dim is "
            f"{spec.feature_dim}; raise feature_dim or supply explicit features"
        )
    raw = rng.standard_normal((spec.feature_dim, n))
    q, _ = np.linalg.qr(raw)
    basis = q.T  # orthonormal rows
    feats = []
    for k, obj in enumerate(spec.objects):
        if obj.feature is not None:
            feat = np.asarray(obj.feature, dtype=np.float64)
            if feat.shape != (spec.feature_dim,):
                raise ValueError(
                    f"object {k}: feature has dim {feat.shape}, "
                    f"spec.feature_dim is {spec.feature_dim}"
                )
            feats.append(feat)
        else:
            feats.append(basis[k])
    background = basis[-1]
    if not spec.allow_similar_features:
        for a in range(len(feats)):
            for b in range(a + 1, len(feats)):
                na, nb = np.linalg.norm(feats[a]), np.linalg.norm(feats[b])
                if np.dot(feats[a], feats[b]) / (na * nb) > 0.5:
                    raise ValueError(
                        f"objects {a} and {b} have feature similarity > 0.5; "
                        "set allow_similar_features to override"
                    )
    return feats, background


def _render_frame(spec, frame_id, pose, positions, owner, object_feats, rng):
    """Depth map + per-visible-object masks by splat z-buffering.

    A pixel's winner is the nearest z, then the lowest id, over every point
    whose splat covers the pixel. That is the (z, id) minimum over the centre
    pixels within splat_px // 2, of each centre pixel's own (z, id) minimum:
    two np.minimum.at passes over the visible points, then one shifted
    compare per splat offset over the image.
    """
    model = spec.camera_model
    h, w = model.height, model.width
    row, col, z, ok = camera_project(positions, model.intrinsics, pose, (h, w))

    idx = np.flatnonzero(ok)
    pix = row[idx] * w + col[idx]
    zs = z[idx]
    near_z = np.full(h * w, np.inf)
    np.minimum.at(near_z, pix, zs)
    tie = zs == near_z[pix]
    near_id = np.full(h * w, _NO_ID)
    np.minimum.at(near_id, pix[tie], idx[tie])

    # Padding with (inf, _NO_ID) clips the splats at the image edge.
    reach = spec.splat_px // 2
    pad_z = np.pad(near_z.reshape(h, w), reach, constant_values=np.inf)
    pad_id = np.pad(near_id.reshape(h, w), reach, constant_values=_NO_ID)
    best_z = np.full((h, w), np.inf)
    winner = np.full((h, w), _NO_ID)
    for dr in range(2 * reach + 1):
        for dc in range(2 * reach + 1):
            cz = pad_z[dr:dr + h, dc:dc + w]
            ci = pad_id[dr:dr + h, dc:dc + w]
            better = (cz < best_z) | ((cz == best_z) & (ci < winner))
            np.copyto(best_z, cz, where=better)
            np.copyto(winner, ci, where=better)
    hit = winner != _NO_ID
    depth = np.where(hit, best_z, 0.0).astype(np.float32)
    won_owner = np.where(hit, owner[np.where(hit, winner, 0)], -1)

    masks = []
    visible = set()
    # One feature-noise draw per object regardless of visibility keeps the
    # random stream independent of camera placement.
    noises = rng.standard_normal((len(object_feats), spec.feature_dim)) * spec.feature_noise
    for k, feat in enumerate(object_feats):
        bitmap = won_owner == k
        if not bitmap.any():
            continue
        visible.add(k)
        masks.append(
            MaskEntry(bitmap=bitmap, feature=(feat + noises[k]).astype(np.float32))
        )
    frame = FrameObservation(
        frame_id=frame_id,
        intrinsics=model.intrinsics,
        extrinsics=pose,
        depth=depth,
        masks=masks,
    )
    return frame, visible


def generate(spec):
    """Build (SceneCloud, ground truth InstanceSet, frames) from a spec."""
    if not spec.objects and spec.room is None:
        raise ValueError("a spec needs at least one object or a room")
    rng = np.random.default_rng(spec.seed)
    feats, bg_feat = _assign_features(spec, rng)

    all_pts, all_nrm, all_col, owner = [], [], [], []
    gt_ranges = []
    cursor = 0
    for k, obj in enumerate(spec.objects):
        if obj.shape == "cuboid":
            pts, nrm = _sample_cuboid(rng, spec.points_per_m2, obj.size)
        else:
            pts, nrm = _sample_cylinder(rng, spec.points_per_m2, obj.size)
        rot = _yaw_matrix(obj.yaw)
        pts = pts @ rot.T + np.asarray(obj.center, dtype=np.float64)
        nrm = nrm @ rot.T
        all_pts.append(pts)
        all_nrm.append(nrm)
        all_col.append(np.tile(obj.color, (pts.shape[0], 1)))
        owner.append(np.full(pts.shape[0], k, dtype=np.int64))
        gt_ranges.append((cursor, cursor + pts.shape[0]))
        cursor += pts.shape[0]

    if spec.room is not None:
        pts, nrm = _sample_room(rng, spec.points_per_m2, spec.room)
        all_pts.append(pts)
        all_nrm.append(nrm)
        all_col.append(np.tile((0.7, 0.7, 0.7), (pts.shape[0], 1)))
        owner.append(np.full(pts.shape[0], -1, dtype=np.int64))
        cursor += pts.shape[0]

    positions = np.vstack(all_pts)
    normals = np.vstack(all_nrm)
    colors = np.clip(np.vstack(all_col), 0.0, 1.0)
    owner = np.concatenate(owner)
    n = positions.shape[0]

    if spec.position_jitter > 0:
        positions = positions + rng.standard_normal((n, 3)) * spec.position_jitter

    features = np.empty((n, spec.feature_dim))
    noise = rng.standard_normal((n, spec.feature_dim)) * spec.feature_noise
    for k, feat in enumerate(feats):
        sel = owner == k
        features[sel] = feat + noise[sel]
    sel = owner == -1
    features[sel] = bg_feat + noise[sel]

    cloud = SceneCloud(
        positions=positions.astype(np.float32),
        colors=colors.astype(np.float32),
        normals=normals.astype(np.float32),
        semantic_features=features.astype(np.float32),
    )

    gt = InstanceSet(
        instances=[
            Instance(point_ids=np.arange(a, b, dtype=np.int64), confidence=1.0, kind="object")
            for a, b in gt_ranges
        ]
    )

    frames = []
    ever_visible = set()
    # Frames render the positions as stored (float32), widened once.
    stored = cloud.positions.astype(np.float64)
    for cam_idx, pose in enumerate(spec.cameras):
        frame, visible = _render_frame(
            spec, cam_idx, np.asarray(pose, dtype=np.float64), stored, owner, feats, rng,
        )
        frames.append(frame)
        ever_visible |= visible
    if spec.cameras:
        hidden = set(range(len(spec.objects))) - ever_visible
        for k in sorted(hidden):
            log.warning("object %d is behind every camera; no masks emitted", k)

    return cloud, gt, frames
