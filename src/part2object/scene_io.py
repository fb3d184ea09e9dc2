"""Scene inputs and outputs: point clouds, RGB-D frames, instance manifests.

All binary formats are little-endian and flat so golden-file tests stay
trivial; all but the depth map are magic-tagged:

  points.p2o      "P2O1" | u32 N | u8 flags (bit0 colors, bit1 normals)
                  | Nx3 f32 positions [| Nx3 f32 colors] [| Nx3 f32 normals]
  features.f32    "P2OF" | u32 N | u32 C | NxC f32 row-major
  frame_<id>.cam  JSON {fx, fy, cx, cy, width, height, extrinsics[16]}
  frame_<id>.depth raw f32, height*width values, row-major, 0 = invalid
  frame_<id>.masks "P2OM" | u32 mask_count | u32 C2
                  | per mask: u32 rle_len | rle u32s | C2 f32 feature

Mask bitmaps are run-length encoded row-major with alternating run counts,
always starting with a zero-run (possibly empty).

Instance manifests are one line per instance, ``<mask file> <kind> <conf>``,
where the mask file is relative to the manifest and holds one point index per
line. Loading inverts writing exactly, order preserved.
"""

import json
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args

import numpy as np

from .errors import FormatError
from . import parallel
from .spatial import kdtree

POINTS_MAGIC = b"P2O1"
FEATURES_MAGIC = b"P2OF"
MASKS_MAGIC = b"P2OM"

_U32 = np.dtype("<u4")
_F32 = np.dtype("<f4")

KINDS = ("object", "part")


# ---------------------------------------------------------------------------
# domain types


@dataclass
class SceneCloud:
    """Surface points with optional colors, normals and per-point features."""

    positions: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None
    semantic_features: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float32)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3 or self.positions.shape[0] < 1:
            raise FormatError("positions must be Nx3 with N >= 1")
        if not np.isfinite(self.positions).all():
            raise FormatError("positions contain non-finite values")
        n = self.positions.shape[0]
        if self.colors is not None:
            self.colors = np.ascontiguousarray(self.colors, dtype=np.float32)
            if self.colors.shape != (n, 3):
                raise FormatError("colors must match positions")
            if not np.isfinite(self.colors).all():
                raise FormatError("colors contain non-finite values")
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float32)
            if self.normals.shape != (n, 3):
                raise FormatError("normals must match positions")
            # A NaN would pass the unit-length test below.
            if not np.isfinite(self.normals).all():
                raise FormatError("normals contain non-finite values")
            norms = np.linalg.norm(self.normals.astype(np.float64), axis=1)
            if (np.abs(norms - 1.0) > 1e-4).any():
                raise FormatError("normals must be unit length within 1e-4")
        if self.semantic_features is not None:
            self.semantic_features = np.ascontiguousarray(self.semantic_features, dtype=np.float32)
            if self.semantic_features.ndim != 2 or self.semantic_features.shape[0] != n:
                raise FormatError(
                    f"feature rows ({self.semantic_features.shape[0]}) != point count ({n})"
                )
            if not np.isfinite(self.semantic_features).all():
                raise FormatError("semantic features contain non-finite values")

    @property
    def n_points(self):
        return self.positions.shape[0]


@dataclass
class MaskEntry:
    """One binary 2D mask plus its pooled feature vector."""

    bitmap: np.ndarray
    feature: np.ndarray

    def __post_init__(self):
        self.bitmap = np.ascontiguousarray(self.bitmap, dtype=bool)
        if self.bitmap.ndim != 2:
            raise FormatError("mask bitmap must be 2D")
        if not self.bitmap.any():
            raise FormatError("mask bitmap has no set pixels")
        self.feature = np.ascontiguousarray(self.feature, dtype=np.float32)
        if self.feature.ndim != 1:
            raise FormatError("mask feature must be a vector")
        if not np.isfinite(self.feature).all():
            raise FormatError("mask feature contains non-finite values")
        if not self.feature.any():
            raise FormatError("mask feature is all zeros")


@dataclass
class FrameObservation:
    """One posed RGB-D frame: camera, depth map and 2D instance masks."""

    frame_id: int
    intrinsics: np.ndarray
    extrinsics: np.ndarray
    depth: np.ndarray
    masks: list = field(default_factory=list)

    def __post_init__(self):
        if self.frame_id < 0:
            raise FormatError("frame_id must be non-negative")
        self.intrinsics = np.asarray(self.intrinsics, dtype=np.float64)
        self.extrinsics = np.asarray(self.extrinsics, dtype=np.float64)
        if self.intrinsics.shape != (3, 3):
            raise FormatError("intrinsics must be 3x3")
        if not (np.isfinite(self.intrinsics).all() and (self.intrinsics[[0, 1], [0, 1]] > 0).all()):
            raise FormatError("intrinsics must be finite with fx, fy > 0")
        if self.extrinsics.shape != (4, 4):
            raise FormatError("extrinsics must be 4x4")
        if not np.allclose(self.extrinsics[3], (0.0, 0.0, 0.0, 1.0), atol=1e-6):
            raise FormatError("extrinsics bottom row must be (0,0,0,1)")
        r = self.extrinsics[:3, :3]
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-4:
            raise FormatError("extrinsics rotation block not orthonormal")
        self.depth = np.ascontiguousarray(self.depth, dtype=np.float32)
        if self.depth.ndim != 2:
            raise FormatError("depth must be HxW")
        if not np.isfinite(self.depth).all():
            raise FormatError("depth contains non-finite values")
        for m in self.masks:
            if m.bitmap.shape != self.depth.shape:
                raise FormatError("mask bitmap shape differs from depth")

    @property
    def height(self):
        return self.depth.shape[0]

    @property
    def width(self):
        return self.depth.shape[1]


@dataclass
class Instance:
    """A predicted or ground-truth instance as a set of point ids."""

    point_ids: np.ndarray
    confidence: float = 1.0
    kind: str = "object"

    def __post_init__(self):
        ids = np.asarray(self.point_ids, dtype=np.int64).ravel()
        if ids.size and ids.min() < 0:
            raise FormatError("negative point index")
        if ids.size > 1 and not (np.diff(ids) > 0).all():
            raise FormatError("point_ids must be sorted strictly ascending")
        self.point_ids = ids
        # Stored as a float, so that write_instances writes a numpy scalar as
        # the number it holds.
        if not isinstance(self.confidence, numbers.Real):
            raise FormatError(f"confidence must be a number, got {self.confidence!r}")
        self.confidence = float(self.confidence)
        if not (0.0 <= self.confidence <= 1.0):
            raise FormatError("confidence must be in [0, 1]")
        if self.kind not in KINDS:
            raise FormatError(f"kind must be one of {KINDS}")


@dataclass
class InstanceSet:
    """An ordered collection of instances over one scene's points."""

    instances: list = field(default_factory=list)

    def __len__(self):
        return len(self.instances)


# ---------------------------------------------------------------------------
# run-length encoding


def rle_encode(bitmap):
    """Encode a boolean bitmap as alternating run counts, zero-run first."""
    flat = np.ascontiguousarray(bitmap, dtype=bool).ravel()
    if flat.size == 0:
        return np.zeros(0, dtype=_U32)
    change = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(bounds)
    if flat[0]:
        runs = np.concatenate(([0], runs))
    return runs.astype(_U32)


def rle_decode(runs, shape):
    """Decode alternating run counts back into a boolean bitmap."""
    runs = np.asarray(runs, dtype=np.int64)
    total = int(runs.sum())
    expected = int(shape[0]) * int(shape[1])
    if total != expected:
        raise FormatError(f"RLE decodes to {total} pixels, expected {expected}")
    values = np.arange(runs.size) % 2 == 1
    flat = np.repeat(values, runs)
    return flat.reshape(shape)


# ---------------------------------------------------------------------------
# normals


# Most points per estimate_normals block. A block holds (block, k, 3)
# float64 neighbourhoods; every worker thread holds one block's.
_NORMALS_BLOCK = 16384
# Fewest points a block is cut down to so that every CPU gets one.
_NORMALS_MIN_BLOCK = 1024


def estimate_normals(cloud, k, rows=None, tree=None):
    """Surface normals from the PCA of each point's k nearest neighbors.

    Returns float32 normals of the point ids in `rows`, in that order, or of
    every point in id order when `rows` is None. `tree` is a spatial.kdtree
    over the cloud's float64 positions, built here when not given; a caller
    that estimates rows in several calls builds it once and passes it on.

    The normal is the eigenvector of the neighborhood covariance with the
    smallest eigenvalue, flipped into the +z hemisphere when its z component
    is negative (dotZ == 0 keeps the eigensolver's sign). Neighborhoods where
    all k points coincide get the fallback normal (0, 0, 1).

    The rows are cut into near-equal blocks of at most _NORMALS_BLOCK rows,
    one per CPU the process may use while each keeps _NORMALS_MIN_BLOCK
    rows, and the blocks run on the CPUs of parallel.thread_map's budget
    that no other block holds (in the calling thread when none is). The whole
    cloud is taken in kd-tree order, so that a block's neighborhoods lie
    close together in memory. Each normal depends only on its own
    neighborhood, so a row's bits do not depend on the thread count, the
    block cuts or which other rows are estimated with it.
    """
    n = cloud.n_points
    if k < 3:
        raise ValueError("k must be at least 3")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")

    if tree is None:
        tree = kdtree(cloud.positions.astype(np.float64))
    pos = tree.data
    if rows is None:
        rows = dest = tree.indices
    else:
        rows = np.asarray(rows, dtype=np.int64)
        dest = np.arange(rows.size)
    normals = np.empty((rows.size, 3), dtype=np.float32)

    def block(span):
        _, idx = tree.query(pos[rows[span]], k=k)
        nb = pos[idx]
        centered = nb - nb.mean(axis=1, keepdims=True)
        # Six entries, each an einsum that sums over k in order on strided
        # columns. A batched matmul or a k-contiguous einsum is faster but
        # rounds differently: where the covariance has rank 1 (collinear
        # points, or copies of two positions) the smallest eigenvalue is
        # double, and that rounding picks another normal in its plane.
        cov = np.empty((idx.shape[0], 3, 3))
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            cov[:, i, j] = cov[:, j, i] = np.einsum("nk,nk->n", centered[..., i], centered[..., j])
        _, vecs = np.linalg.eigh(cov)
        nrm = vecs[:, :, 0]
        # The trace, a sum of squares, is 0 only when all k points coincide.
        degenerate = np.trace(cov, axis1=1, axis2=2) == 0.0
        nrm[degenerate] = (0.0, 0.0, 1.0)
        flip = nrm[:, 2] < 0.0
        nrm[flip] *= -1.0
        lengths = np.linalg.norm(nrm, axis=1, keepdims=True)
        normals[dest[span]] = nrm / lengths

    n_blocks = max(-(-rows.size // _NORMALS_BLOCK),
                   min(parallel.cpu_workers(), rows.size // _NORMALS_MIN_BLOCK))
    bounds = np.linspace(0, rows.size, n_blocks + 1, dtype=np.int64)
    parallel.thread_map(block, map(slice, bounds[:-1], bounds[1:]))
    return normals


# ---------------------------------------------------------------------------
# point cloud files


@contextmanager
def _named(where):
    """Re-raise a FormatError, or a UTF-8 or JSON decoding error, from the
    block as a FormatError with `where: ` in front."""
    try:
        yield
    except (FormatError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


@contextmanager
def _tagged(path, tag):
    """Check the binary file at path (a Path) for its tag, then yield
    take(dtype, shape, what): the next values, one fh.read and np.frombuffer.
    A wrong tag, a take past the end of the file or bytes left after the
    block raise FormatError; every FormatError from the block names path."""
    with open(path, "rb") as fh, _named(path):
        left = path.stat().st_size - len(tag)

        def take(dtype, shape, what):
            nonlocal left
            size = dtype.itemsize * math.prod(shape)
            if size > left:
                raise FormatError(f"truncated file while reading {what}")
            left -= size
            return np.frombuffer(fh.read(size), dtype=dtype).reshape(shape)

        if fh.read(len(tag)) != tag:
            raise FormatError(f"bad tag, expected {tag!r}")
        yield take
        if left:
            raise FormatError(f"{left} trailing byte(s)")


def write_scene(dir_path, cloud):
    """Write a SceneCloud into dir_path as points.p2o (+ features.f32)."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    n = cloud.n_points
    flags = (1 if cloud.colors is not None else 0) | (2 if cloud.normals is not None else 0)
    with open(dir_path / "points.p2o", "wb") as fh:
        fh.write(POINTS_MAGIC + np.asarray([n], dtype=_U32).tobytes() + bytes([flags]))
        for values in (cloud.positions, cloud.colors, cloud.normals):
            if values is not None:
                fh.write(values.astype(_F32).tobytes())
    if cloud.semantic_features is not None:
        feats = cloud.semantic_features
        with open(dir_path / "features.f32", "wb") as fh:
            fh.write(FEATURES_MAGIC + np.asarray([n, feats.shape[1]], dtype=_U32).tobytes())
            fh.write(feats.astype(_F32).tobytes())


# What a missing file of a scene directory means: there is no scene, or no
# features for clustering.
_SCENE_FILES = {"points.p2o": "scene", "features.f32": "semantic features"}


def scene_file(dir_path, name):
    """dir_path/name; FileNotFoundError saying so when it is missing."""
    path = Path(dir_path) / name
    if not path.is_file():
        raise FileNotFoundError(f"no {_SCENE_FILES[name]}: {path} not found")
    return path


def load_scene(dir_path):
    """Load points.p2o (+ optional features.f32) exactly as stored.

    Normals are those in the file, or None; build_superpoints, the one stage
    that reads them, estimates missing ones.
    """
    dir_path = Path(dir_path)
    with _tagged(scene_file(dir_path, "points.p2o"), POINTS_MAGIC) as take:
        (n,) = take(_U32, (1,), "count").tolist()
        if n < 1:
            raise FormatError("point count must be >= 1")
        (flags,) = take(np.dtype("u1"), (1,), "flags").tolist()
        if flags & ~0b11:
            raise FormatError(f"unknown flag bits {flags:#x}")
        positions = take(_F32, (n, 3), "positions")
        colors = take(_F32, (n, 3), "colors") if flags & 1 else None
        normals = take(_F32, (n, 3), "normals") if flags & 2 else None

    features = None
    if (dir_path / "features.f32").exists():
        with _tagged(dir_path / "features.f32", FEATURES_MAGIC) as take:
            rows, cols = take(_U32, (2,), "dims").tolist()
            if rows != n:
                raise FormatError(f"feature rows ({rows}) != point count ({n})")
            features = take(_F32, (rows, cols), "features")

    with _named(dir_path):
        return SceneCloud(positions=positions, colors=colors, normals=normals,
                          semantic_features=features)


# ---------------------------------------------------------------------------
# JSON files


def write_json(path, data, compact=False):
    """data as JSON plus a newline: compact for the id arrays, else indented 2."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # json.dumps, not json.dump: only a whole-string encode without indent
    # takes the C encoder.
    text = json.dumps(data, separators=(",", ":")) if compact else json.dumps(data, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    """The decoded JSON in path; FormatError naming the file unless it is UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh, _named(path):
        return json.load(fh)


# The JSON each checked field type takes; values of other types pass as decoded.
_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", tuple: "array of 3 numbers", type(None): "null"}


def _fits(value, kind):
    if kind is tuple:
        return isinstance(value, list) and len(value) == 3 and all(_fits(v, float) for v in value)
    # A JSON boolean fits only a bool field, though bool is an int in Python.
    return kind not in _JSON_KINDS or (isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind))


def check_fields(data, kinds, where, what):
    """The JSON object data, each value checked against kinds (key -> type).

    A bool field takes only a JSON boolean, an int field only an integer, a
    float field any number (returned as a float), a str, list or tuple field
    a string, an array or an array of 3 numbers, and `X | None` also null. A
    non-object, an unknown key or a wrongly typed value raises FormatError
    naming `where` (the file) and `what` or the key.
    """
    if not isinstance(data, dict):
        raise FormatError(f"{where}: {what} must be a JSON object")
    unknown = set(data) - set(kinds)
    if unknown:
        raise FormatError(f"{where}: unknown {what} keys {sorted(unknown)}")
    out = {}
    for key, value in data.items():
        options = get_args(kinds[key]) or (kinds[key],)
        if not any(_fits(value, kind) for kind in options):
            raise FormatError(f"{where}: {key}={value!r} is not a JSON "
                              + " or ".join(_JSON_KINDS[kind] for kind in options))
        out[key] = float(value) if kinds[key] is float else value
    return out


# ---------------------------------------------------------------------------
# frame files

# The keys of a frame_<id>.cam file.
_CAM_FIELDS = {"fx": float, "fy": float, "cx": float, "cy": float,
               "width": int, "height": int, "extrinsics": list}


def write_frames(dir_path, frames):
    """Write frames as frame_<id>.cam / .depth / .masks triplets."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        stem = f"frame_{frame.frame_id}"
        cam = {
            "fx": float(frame.intrinsics[0, 0]),
            "fy": float(frame.intrinsics[1, 1]),
            "cx": float(frame.intrinsics[0, 2]),
            "cy": float(frame.intrinsics[1, 2]),
            "width": frame.width,
            "height": frame.height,
            "extrinsics": [float(v) for v in frame.extrinsics.ravel()],
        }
        write_json(dir_path / f"{stem}.cam", cam)
        (dir_path / f"{stem}.depth").write_bytes(frame.depth.astype(_F32).tobytes())
        feat_dim = frame.masks[0].feature.size if frame.masks else 0
        with open(dir_path / f"{stem}.masks", "wb") as fh:
            fh.write(MASKS_MAGIC + np.asarray([len(frame.masks), feat_dim], dtype=_U32).tobytes())
            for mask in frame.masks:
                runs = rle_encode(mask.bitmap)
                fh.write(np.asarray([runs.size], dtype=_U32).tobytes() + runs.tobytes())
                fh.write(mask.feature.astype(_F32).tobytes())


def _load_one_frame(dir_path, frame_id):
    stem = f"frame_{frame_id}"
    cam_path = dir_path / f"{stem}.cam"
    cam = check_fields(load_json(cam_path), _CAM_FIELDS, cam_path, "camera")
    try:
        width, height = cam["width"], cam["height"]
        intrinsics = np.array(
            [[cam["fx"], 0.0, cam["cx"]], [0.0, cam["fy"], cam["cy"]], [0.0, 0.0, 1.0]]
        )
        extrinsics = np.asarray(cam["extrinsics"], dtype=np.float64).reshape(4, 4)
        if width < 1 or height < 1:
            raise ValueError(f"width and height must be >= 1, got {width}x{height}")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{cam_path}: missing or malformed field ({exc})") from exc

    with _tagged(dir_path / f"{stem}.depth", b"") as take:
        depth = take(_F32, (height, width), f"{height}x{width} depth")
    masks = []
    with _tagged(dir_path / f"{stem}.masks", MASKS_MAGIC) as take:
        count, feat_dim = take(_U32, (2,), "dims").tolist()
        for _ in range(count):
            (rle_len,) = take(_U32, (1,), "rle length").tolist()
            bitmap = rle_decode(take(_U32, (rle_len,), "rle runs"), (height, width))
            feature = take(_F32, (feat_dim,), "mask feature")
            masks.append(MaskEntry(bitmap=bitmap, feature=feature))

    with _named(dir_path / stem):
        return FrameObservation(frame_id=frame_id, intrinsics=intrinsics,
                                extrinsics=extrinsics, depth=depth, masks=masks)


def frame_ids(dir_path):
    """Ascending ids of the frame_<id>.cam files in dir_path, which must exist;
    an id is ASCII digits without a leading zero, as write_frames writes it."""
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise FileNotFoundError(f"no frames directory: {dir_path} not found")
    ids = []
    for path in dir_path.glob("frame_*.cam"):
        m = re.fullmatch(r"frame_(0|[1-9][0-9]*)\.cam", path.name)
        if m:
            ids.append(int(m.group(1)))
    return sorted(ids)


def load_frames(dir_path):
    """Load all frame_<id>.* triplets, sorted ascending by frame id."""
    dir_path = Path(dir_path)
    frames = [_load_one_frame(dir_path, fid) for fid in frame_ids(dir_path)]
    dims = [(frame.frame_id, m.feature.size) for frame in frames for m in frame.masks]
    for frame_id, dim in dims:
        if dim != dims[0][1]:
            raise FormatError(f"{dir_path / f'frame_{frame_id}.masks'}: "
                              f"mask feature dim {dim} != {dims[0][1]}")
    return frames


# ---------------------------------------------------------------------------
# instance manifests


def write_instances(path, instance_set):
    """Write an instance manifest plus one mask file per instance.

    Mask files go into ``<stem>_masks/`` next to the manifest and are
    referenced by relative path; those an earlier, longer write left are
    removed, and so is the directory when that leaves it empty.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mask_dir_name = path.stem + "_masks"
    mask_dir = path.parent / mask_dir_name
    if instance_set.instances:
        mask_dir.mkdir(exist_ok=True)
    lines = []
    for k, inst in enumerate(instance_set.instances):
        rel = f"{mask_dir_name}/{k:04d}.txt"
        ids = inst.point_ids.tolist()
        with open(path.parent / rel, "w") as fh:
            fh.write(("%d\n" * len(ids)) % tuple(ids))
        lines.append(f"{rel} {inst.kind} {inst.confidence!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")
    for stale in mask_dir.glob("*.txt"):  # instance k's file is k, at least 4 digits
        if re.fullmatch(r"\d{4}|[1-9]\d{4,}", stale.stem) and int(stale.stem) >= len(lines):
            stale.unlink()
    if mask_dir.is_dir() and not any(mask_dir.iterdir()):
        mask_dir.rmdir()


# The bytes write_instances writes: ASCII digits, and the ASCII whitespace
# that both str.split and np.fromstring(sep=" ") split on.
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"
# np.fromstring saturates a token of 19 or more digits at INT64_MAX without
# an error; every value below this bound has at most 18 digits.
_EXACT_BELOW = 10**18


def _read_ids(mask_path):
    """A mask file's ids, as np.array(text.split(), dtype=np.int64) reads them.

    A file of ASCII digits and whitespace whose values all lie below
    _EXACT_BELOW is parsed in one C-level pass; any other file goes through
    _ids_from_text, with int()'s rules and errors.
    """
    data = mask_path.read_bytes()
    if not data.translate(None, _DIGITS_AND_SPACE):
        if not data.strip():
            # fromstring reads a whitespace-only input as [0].
            return np.empty(0, dtype=np.int64)
        ids = np.fromstring(data, dtype=np.int64, sep=" ")
        if ids.max() < _EXACT_BELOW:
            return ids
    return _ids_from_text(mask_path.read_text())


def _ids_from_text(text):
    """The reference parse: int()'s rules for each whitespace-separated token."""
    return np.array(text.split(), dtype=np.int64)


def load_instances(path, n_points=None):
    """Load an instance manifest written by write_instances; every FormatError
    names the manifest and the line (``<path>:<line>: ...``), or only the
    manifest for text that is not UTF-8."""
    path = Path(path)
    instances = []
    with open(path, encoding="utf-8") as fh, _named(path):
        lines = list(fh)
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        with _named(f"{path}:{lineno}"):
            if len(parts) != 3:
                raise FormatError(f"expected 3 fields, got {len(parts)}")
            rel, kind, conf_text = parts
            try:
                confidence = float(conf_text)
            except ValueError as exc:
                raise FormatError(f"bad confidence {conf_text!r}") from exc
            if not math.isfinite(confidence):
                raise FormatError("non-finite confidence")
            try:
                ids = _read_ids(path.parent / rel)
            except ValueError as exc:
                raise FormatError(f"{rel}: non-integer point index") from exc
            except OverflowError as exc:
                raise FormatError(f"{rel}: point index out of range") from exc
            inst = Instance(point_ids=ids, confidence=confidence, kind=kind)
            if n_points is not None and ids.size and ids[-1] >= n_points:
                raise FormatError(f"{rel} references point {ids[-1]} but scene has "
                                  f"{n_points} points")
            instances.append(inst)
    return InstanceSet(instances=instances)
