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
never wraps into another row. The three cells of each (dx, dy) column of a
voxel's 3 x 3 x 3 block then have consecutive keys, so a wave looks up a
frontier voxel's neighbours with one searchsorted per column, 9 in all, over
the sorted occupied keys: the column's occupied cells are among the three
occupied keys from where its dz = -1 cell's key lands. The memory grows with
the occupied voxels, not with the bounding volume. The voxel order, the seed
pick and the claim winners sort packed int64 keys (spatial.stable_order and
spatial.first_min), not float lexsorts.

A large wave runs in blocks (parallel.thread_map), on the CPUs that no
other block of the process holds: the frontier's neighbour lookups are
split into blocks, and the wave's (voxel, seed) claims are cut at voxel
boundaries into blocks that each score their claims and pick their points'
winners. Every candidate for a point lies in that point's
own voxel, so the blocks are independent and, joined in order, give the
same super-points for any block count. When the stage estimates normals, it
builds their kd-tree in one block beside a second that voxelizes the cloud
and picks the seeds; the tree's construction releases the interpreter lock,
and the two join before the seed normals are estimated.

The only stage that reads normals, and so the only one that estimates them
for a cloud stored without. A normal only decides a claim where two or more
seeds claim the same voxel in the same wave (an only claimant takes the
voxel whatever its score), and through the seed normals. So the stage
estimates the seed voxels' points up front and each wave's contested points
before the wave is scored, all from one kd-tree it keeps until the waves
end; every other point's normal is never computed. Each normal depends only
on its own neighbourhood, so these are the bits a whole-cloud estimate
gives. The cloud itself is left as loaded.
"""

from dataclasses import dataclass

import numpy as np

from . import parallel, scene_io
from .parallel import thread_map
from .spatial import (first_min, groups, kdtree, padded_keys, run_starts, sorted_unique,
                      stable_order)

# Least work (neighbour lookups, or points of claimed voxels) per block of a
# wave step; a smaller step runs as one block in the calling thread.
_WAVE_BLOCK = 1 << 14

# The (dx, dy) columns of a voxel's 3 x 3 x 3 block.
_COLUMNS = np.array(list(np.ndindex(3, 3)), dtype=np.int64) - 1


@dataclass
class SuperpointParams:
    voxel_size: float = 0.02
    seed_resolution: float = 0.25
    w_spatial: float = 0.4
    w_color: float = 0.2
    w_normal: float = 1.0
    normals_k: int = 16

    def __post_init__(self):
        scene_io.require_finite(self)
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


def _blocks(work):
    """How many blocks a wave step of this much work is split into."""
    return max(1, min(parallel.cpu_workers(), work // _WAVE_BLOCK))


def build_superpoints(cloud, params=None):
    """Partition all point ids into super-points.

    Returns a list of sorted int64 index arrays; their union is [0, N) and
    they are pairwise disjoint. Deterministic for identical inputs. A cloud
    without normals gets them from each point's params.normals_k nearest
    neighbours (k capped at N), estimated only where the scores read them:
    the seed voxels' points, and each wave's points in voxels that two or
    more seeds claim. Below 3 points, which cannot fit a plane, every normal
    is (0, 0, 1); with w_normal = 0 none is estimated.
    """
    params = params or SuperpointParams()
    pos = cloud.positions.astype(np.float64)
    n = pos.shape[0]

    # Colours and normals stay float32 until a gather widens the rows it
    # reads, with the same bits as widening the whole array.
    colors = cloud.colors
    normals = cloud.normals if params.w_normal > 0 else None
    estimating = normals is None and params.w_normal > 0 and n >= 3
    if normals is None and params.w_normal > 0:
        normals = (np.empty((n, 3), dtype=np.float32) if estimating
                   else np.tile(np.float32((0.0, 0.0, 1.0)), (n, 1)))

    def voxelize():
        # Voxelize with one stable sort of the scalar keys, taken on the grid
        # padded by one empty cell on every side: voxel index = rank of its
        # key, and each voxel's points are a run of point_order in ascending
        # id.
        cells = np.floor(pos / params.voxel_size).astype(np.int64)
        keys, strides = padded_keys(cells)
        point_order = stable_order(keys)
        sorted_keys = keys[point_order]
        new_vox = run_starts(sorted_keys)
        vox_starts = np.flatnonzero(new_vox)
        point_vox = np.empty(n, dtype=np.int64)
        point_vox[point_order] = np.cumsum(new_vox) - 1

        # One seed per occupied seed-resolution cell, in ascending cell key:
        # the voxel whose center is nearest the cell center, ties to the
        # lowest voxel key (the voxels are in key order, and the stable
        # order keeps it within each cell).
        vox_center = (cells[point_order[vox_starts]] + 0.5) * params.voxel_size
        seed_cell = np.floor(vox_center / params.seed_resolution).astype(np.int64)
        cell_keys, _ = padded_keys(seed_cell)
        dist_to_center = np.linalg.norm(
            vox_center - (seed_cell + 0.5) * params.seed_resolution, axis=1)
        by_cell = stable_order(cell_keys)
        seed_vox = by_cell[first_min(cell_keys[by_cell], dist_to_center[by_cell])]
        return point_order, vox_starts, sorted_keys[vox_starts], strides, point_vox, seed_vox

    # The normals' kd-tree is built beside the voxel grid: its construction
    # releases the interpreter lock.
    tree = None
    if estimating:
        tree, grid = thread_map(lambda build: build(), (lambda: kdtree(pos), voxelize))
    else:
        grid = voxelize()
    point_order, vox_starts, vox_keys, strides, point_vox, seed_vox = grid
    vox_counts = np.diff(vox_starts, append=n)
    n_vox = vox_keys.size
    n_seeds = seed_vox.size
    # Key steps from a voxel to the dz = -1 cell of each column (dx, dy) of
    # its 3 x 3 x 3 block; the column's three cells have consecutive keys.
    column_step = _COLUMNS @ strides[:2] - 1

    def estimate(rows):
        # Called through the module so that a tracer wrapping it sees the call.
        if rows.size:
            normals[rows] = scene_io.estimate_normals(cloud, k=min(params.normals_k, n),
                                                      rows=rows, tree=tree)

    def points_of(vox_ids):
        counts = vox_counts[vox_ids]
        total = int(counts.sum())
        base = np.repeat(vox_starts[vox_ids], counts)
        local = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        return point_order[base + local], counts

    # Seed features, one segmented sum per array over the seed voxels' points
    # (the same additions in the same order as a mean per seed).
    seed_pts, seed_counts = points_of(seed_vox)
    seed_starts = np.cumsum(seed_counts) - seed_counts

    def seed_mean(values):
        return (np.add.reduceat(values[seed_pts].astype(np.float64, copy=False), seed_starts)
                / seed_counts[:, None])

    seed_centroid = seed_mean(pos)
    seed_color = seed_mean(colors) if colors is not None else None
    if normals is not None:
        if tree is not None:
            estimate(seed_pts)
        mean_n = seed_mean(normals)
        # A batched dot, as np.linalg.norm of one vector computes it.
        length = np.sqrt(np.matmul(mean_n[:, None, :], mean_n[:, :, None]))[:, 0]
        seed_normal = np.tile((0.0, 0.0, 1.0), (n_seeds, 1))
        np.divide(mean_n, length, out=seed_normal, where=length > 0)

    def mixed_distance(pts, seeds):
        d = np.linalg.norm(pos[pts] - seed_centroid[seeds], axis=1)
        score = params.w_spatial * d / (3.0 * params.seed_resolution)
        if colors is not None and params.w_color > 0:
            score = score + params.w_color * np.linalg.norm(
                colors[pts].astype(np.float64) - seed_color[seeds], axis=1
            )
        if normals is not None:
            dots = np.abs((normals[pts].astype(np.float64) * seed_normal[seeds]).sum(axis=1))
            score = score + params.w_normal * (1.0 - dots)
        return score

    point_seed = np.full(n, -1, dtype=np.int64)
    vox_claimed = np.zeros(n_vox, dtype=bool)
    # Past the last voxel, keys above every column: a slot past the end of
    # the voxels holds no cell.
    slot_keys = np.append(vox_keys, np.full(3, np.iinfo(np.int64).max))

    # Wave 0: each seed claims its own voxel outright.
    vox_claimed[seed_vox] = True
    point_seed[seed_pts] = np.repeat(np.arange(n_seeds), seed_counts)
    frontier = seed_vox * n_seeds + np.arange(n_seeds)

    def lookup(block):
        # Unclaimed neighbours of these frontier (voxel, seed) keys, as
        # (voxel, seed) claim keys. The three cells of a column have
        # consecutive keys, so those occupied are among the three occupied
        # keys from the slot one search finds for the lowest: a slot holds
        # one when its key is within the column's top. The voxel itself is
        # claimed, so it drops out of its own column.
        fv, fs = np.divmod(block, n_seeds)
        low = column_step[:, None] + vox_keys.take(fv)
        first = np.searchsorted(vox_keys, low)
        found = []
        for slot in range(3):
            vi = first + slot
            hit = np.flatnonzero(slot_keys.take(vi) <= low + 2)
            vi = vi.take(hit)
            free = ~vox_claimed.take(vi)
            found.append(vi[free] * n_seeds + fs.take(hit[free] % fv.size))
        return np.concatenate(found)

    def claim(block):
        # Every point of these claims' voxels goes to its best claim; returns
        # the block's (voxel, seed) keys where the seed won points.
        block, shared = block
        # A voxel with one claimant goes to it whole.
        solo = block[~shared]
        cv, cs = np.divmod(solo, n_seeds)
        pts, counts = points_of(cv)
        point_seed[pts] = np.repeat(cs, counts)
        cv, cs = np.divmod(block[shared], n_seeds)
        pts, counts = points_of(cv)
        seeds_rep = np.repeat(cs, counts)
        scores = mixed_distance(pts, seeds_rep)
        # Per point: smallest score wins, ties to the lowest seed index. The
        # (point, seed) keys are distinct, and the scores finite, as
        # SceneCloud rejects non-finite values.
        order = np.argsort(pts * n_seeds + seeds_rep)
        win = order[first_min(pts[order], scores[order])]
        win_pts = pts[win]
        win_seeds = seeds_rep[win]
        point_seed[win_pts] = win_seeds
        # A seed only keeps growing through voxels where it won points.
        return np.concatenate((solo, sorted_unique(point_vox[win_pts] * n_seeds + win_seeds)))

    while frontier.size:
        claims = sorted_unique(np.concatenate(
            thread_map(lookup, np.array_split(frontier, _blocks(27 * frontier.size)))))
        if claims.size == 0:
            break
        cv = claims // n_seeds
        # Claims are sorted by voxel: a voxel two or more seeds claim is a run.
        same = cv[1:] == cv[:-1]
        shared = np.concatenate(([False], same)) | np.concatenate((same, [False]))
        if tree is not None:
            estimate(points_of(sorted_unique(cv[1:][same]))[0])
        # Cut the claims at voxel boundaries, near equal shares of their
        # points: each point's candidates all lie in its own voxel, so no
        # block's winners depend on another's.
        reach = np.cumsum(vox_counts[cv])
        n_blocks = _blocks(int(reach[-1]))
        cuts = np.searchsorted(reach, reach[-1] * np.arange(1, n_blocks) // n_blocks)
        cuts = sorted_unique(np.searchsorted(cv, cv[cuts]))
        cuts = cuts[cuts > 0]
        frontier = np.concatenate(thread_map(
            claim, zip(np.split(claims, cuts), np.split(shared, cuts))))
        vox_claimed[cv] = True
    del tree  # the fallback below builds its own

    # Voxels unreachable from every seed: the nearest reached point's seed.
    missing = point_seed < 0
    if missing.any():
        reached = np.flatnonzero(~missing)
        _, nearest = kdtree(pos[reached]).query(pos[missing])
        point_seed[missing] = point_seed[reached[nearest]]

    return groups(point_seed, n_seeds)
