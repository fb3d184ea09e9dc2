"""Layer-0 super-points: seeded region growing over a voxel grid.

Points are voxelized, seeds are planted on a coarser grid (one per occupied
seed cell, at the voxel nearest the cell center), and seeds grow outward in
breadth-first waves over the 26-connected voxel graph. Each point reached in
a wave joins the seed with the smallest mixed distance

    D = w_spatial * d_xyz / (3 * seed_resolution)
      + w_color   * d_rgb
      + w_normal  * (1 - |n . n_seed|)

with ties going to the lowest seed index. A seed keeps growing through a
voxel only if it actually won points there, which keeps the points each seed
reaches connected in the voxel graph. A point in a voxel no seed can reach
joins the super-point of its nearest reached point (one kd-tree query), so
an island attaches to the surface nearest it, not to the nearest seed
centroid.

Voxels are keyed row-major on their grid padded by one empty cell on every
side, so each of a voxel's 26 neighbours is one constant key step away and
never wraps into another row: a wave looks up all its candidate voxels with
one searchsorted over the sorted occupied keys, in memory that grows with the
occupied voxels, not with the bounding volume.

The only stage that reads normals, and so the only one that estimates them
for a cloud stored without; the cloud itself is left as loaded.
"""

from dataclasses import dataclass

import numpy as np

from . import scene_io
from .errors import EmptyCloud
from .spatial import kdtree

_OFFSETS_26 = np.array([o for o in np.ndindex(3, 3, 3) if o != (1, 1, 1)], dtype=np.int64) - 1


@dataclass
class SuperpointParams:
    voxel_size: float = 0.02
    seed_resolution: float = 0.25
    w_spatial: float = 0.4
    w_color: float = 0.2
    w_normal: float = 1.0
    normals_k: int = 16

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if self.seed_resolution < self.voxel_size:
            raise ValueError("seed_resolution must be >= voxel_size")
        weights = {"w_spatial": self.w_spatial, "w_color": self.w_color,
                   "w_normal": self.w_normal}
        for name, w in weights.items():
            if w < 0:
                raise ValueError(f"{name} must be non-negative")
        if not any(w > 0 for w in weights.values()):
            raise ValueError("at least one of w_spatial, w_color, w_normal must be positive")
        if self.normals_k < 3:
            raise ValueError(f"normals_k must be at least 3, got {self.normals_k}")


def _group_starts(labels, n_groups):
    counts = np.bincount(labels, minlength=n_groups)
    starts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts, counts


def build_superpoints(cloud, params=None):
    """Partition all point ids into super-points.

    Returns a list of sorted int64 index arrays; their union is [0, N) and
    they are pairwise disjoint. Deterministic for identical inputs. A cloud
    without normals gets them from each point's params.normals_k nearest
    neighbours (k capped at N); below 3 points, which cannot fit a plane,
    every normal is (0, 0, 1).
    """
    params = params or SuperpointParams()
    pos = cloud.positions.astype(np.float64)
    n = pos.shape[0]
    if n == 0:
        raise EmptyCloud("cannot build super-points from an empty cloud")

    normals = cloud.normals
    if normals is None:
        # Called through the module so that a tracer wrapping it sees the call.
        normals = (scene_io.estimate_normals(cloud, k=min(params.normals_k, n)) if n >= 3
                   else np.tile((0.0, 0.0, 1.0), (n, 1)))
    normals = normals.astype(np.float64)
    colors = cloud.colors.astype(np.float64) if cloud.colors is not None else None

    # Voxelize; voxel index = rank of its (sorted unique) scalar key, taken
    # on the grid padded by one empty cell on every side.
    cells = np.floor(pos / params.voxel_size).astype(np.int64)
    lo = cells.min(axis=0) - 1
    span = cells.max(axis=0) - lo + 2
    strides = np.array([span[1] * span[2], span[2], 1])
    vox_keys, first_point, point_vox = np.unique((cells - lo) @ strides, return_index=True,
                                                 return_inverse=True)
    n_vox = vox_keys.size
    step = _OFFSETS_26 @ strides  # key offsets of the 26 neighbours

    point_order = np.argsort(point_vox, kind="stable")
    vox_starts, vox_counts = _group_starts(point_vox, n_vox)

    def points_of(vox_ids):
        counts = vox_counts[vox_ids]
        total = int(counts.sum())
        base = np.repeat(vox_starts[vox_ids], counts)
        local = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        return point_order[base + local], counts

    # Voxel centers drive seed selection; per-voxel means drive seed features.
    vox_center = (cells[first_point] + 0.5) * params.voxel_size

    # One seed per occupied seed-resolution cell: the voxel nearest the cell
    # center, ties broken by lowest voxel key.
    seed_cell = np.floor(vox_center / params.seed_resolution).astype(np.int64)
    s_lo = seed_cell.min(axis=0)
    s_span = seed_cell.max(axis=0) - s_lo + 1
    sc = seed_cell - s_lo
    cell_keys = (sc[:, 0] * s_span[1] + sc[:, 1]) * s_span[2] + sc[:, 2]
    cell_center = (seed_cell + 0.5) * params.seed_resolution
    dist_to_center = np.linalg.norm(vox_center - cell_center, axis=1)
    pick = np.lexsort((vox_keys, dist_to_center, cell_keys))
    _, first_in_cell = np.unique(cell_keys[pick], return_index=True)
    # Seed index follows the seed-cell grid order (unique returns keys sorted).
    seed_vox = pick[first_in_cell]
    n_seeds = seed_vox.size

    seed_centroid = np.empty((n_seeds, 3))
    seed_color = np.zeros((n_seeds, 3))
    seed_normal = np.empty((n_seeds, 3))
    for s, v in enumerate(seed_vox):
        ids = point_order[vox_starts[v] : vox_starts[v] + vox_counts[v]]
        seed_centroid[s] = pos[ids].mean(axis=0)
        if colors is not None:
            seed_color[s] = colors[ids].mean(axis=0)
        mean_n = normals[ids].mean(axis=0)
        length = np.linalg.norm(mean_n)
        seed_normal[s] = mean_n / length if length > 0 else (0.0, 0.0, 1.0)

    def mixed_distance(pts, seeds):
        d = np.linalg.norm(pos[pts] - seed_centroid[seeds], axis=1)
        score = params.w_spatial * d / (3.0 * params.seed_resolution)
        if colors is not None and params.w_color > 0:
            score = score + params.w_color * np.linalg.norm(
                colors[pts] - seed_color[seeds], axis=1
            )
        if params.w_normal > 0:
            dots = np.abs((normals[pts] * seed_normal[seeds]).sum(axis=1))
            score = score + params.w_normal * (1.0 - dots)
        return score

    point_seed = np.full(n, -1, dtype=np.int64)
    vox_claimed = np.zeros(n_vox, dtype=bool)

    # Wave 0: each seed claims its own voxel outright.
    vox_claimed[seed_vox] = True
    for s, v in enumerate(seed_vox):
        ids = point_order[vox_starts[v] : vox_starts[v] + vox_counts[v]]
        point_seed[ids] = s
    frontier_vox = seed_vox.copy()
    frontier_seed = np.arange(n_seeds, dtype=np.int64)

    while frontier_vox.size:
        # Candidate (voxel, seed) claims: unclaimed neighbors of the frontier.
        # A key past the last voxel's clips to it and then fails the match.
        nk = vox_keys[frontier_vox][:, None] + step
        vi = np.minimum(np.searchsorted(vox_keys, nk), n_vox - 1)
        hit = (vox_keys[vi] == nk) & ~vox_claimed[vi]
        cv = vi[hit]
        cs = frontier_seed[np.nonzero(hit)[0]]
        if cv.size == 0:
            break
        pair_key = cv * n_seeds + cs
        uniq_pairs = np.unique(pair_key)
        cv = uniq_pairs // n_seeds
        cs = uniq_pairs % n_seeds

        pts, counts = points_of(cv)
        seeds_rep = np.repeat(cs, counts)
        scores = mixed_distance(pts, seeds_rep)
        # Per point: smallest score wins, ties to the lowest seed index.
        order = np.lexsort((seeds_rep, scores, pts))
        pts_sorted = pts[order]
        first = np.concatenate(([True], pts_sorted[1:] != pts_sorted[:-1]))
        win_pts = pts_sorted[first]
        win_seeds = seeds_rep[order][first]
        point_seed[win_pts] = win_seeds
        vox_claimed[cv] = True

        # A seed only keeps growing through voxels where it won points.
        win_key = np.unique(point_vox[win_pts] * n_seeds + win_seeds)
        frontier_vox = win_key // n_seeds
        frontier_seed = win_key % n_seeds

    # Voxels unreachable from every seed: the nearest reached point's seed.
    missing = point_seed < 0
    if missing.any():
        reached = np.flatnonzero(~missing)
        _, nearest = kdtree(pos[reached]).query(pos[missing])
        point_seed[missing] = point_seed[reached[nearest]]

    order = np.argsort(point_seed, kind="stable")
    starts, counts = _group_starts(point_seed, n_seeds)
    return [order[starts[s] : starts[s] + counts[s]] for s in range(n_seeds)]
