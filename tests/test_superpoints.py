import dataclasses
import sys

import numpy as np
import pytest
from scipy.spatial import cKDTree

from part2object import (evaluation, hierarchy, objectness, parallel, scene_io,
                         superpoints, synth)
from part2object.scene_io import SceneCloud, estimate_normals
from part2object.superpoints import SuperpointParams, build_superpoints

from conftest import bits_equal, three_block_spec


def check_partition(parts, n):
    pooled = np.concatenate(parts)
    assert pooled.size == n
    assert np.array_equal(np.sort(pooled), np.arange(n))
    for ids in parts:
        assert ids.size > 0
        assert (np.diff(ids) > 0).all()  # sorted, unique


def voxel_connected(ids, positions, voxel_size):
    """Whether the point set's voxels form one 26-connected component."""
    cells = {tuple(c) for c in np.floor(positions[ids] / voxel_size).astype(np.int64)}
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y, z = stack.pop()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    nb = (x + dx, y + dy, z + dz)
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
    return seen == cells


def test_single_point():
    cloud = SceneCloud(positions=np.array([[0.1, 0.2, 0.3]], dtype=np.float32))
    parts = build_superpoints(cloud)
    assert len(parts) == 1
    assert parts[0].tolist() == [0]


def test_separated_cubes_never_share_a_superpoint():
    rng = np.random.default_rng(0)
    cube_a = rng.random((400, 3)) * 0.3
    cube_b = rng.random((400, 3)) * 0.3 + (2.0, 0.0, 0.0)  # gap >> seed_resolution
    cloud = SceneCloud(positions=np.vstack([cube_a, cube_b]).astype(np.float32))
    parts = build_superpoints(cloud)
    check_partition(parts, 800)
    for ids in parts:
        sides = {int(i) < 400 for i in ids}
        assert len(sides) == 1


def test_partition_on_random_room():
    rng = np.random.default_rng(1)
    pos = rng.random((1000, 3)) * (2.0, 2.0, 1.0)
    cloud = SceneCloud(
        positions=pos.astype(np.float32),
        colors=rng.random((1000, 3)).astype(np.float32),
    )
    parts = build_superpoints(cloud)
    check_partition(parts, 1000)


def test_determinism():
    rng = np.random.default_rng(2)
    pos = rng.random((500, 3)).astype(np.float32)
    cloud = SceneCloud(positions=pos, colors=rng.random((500, 3)).astype(np.float32))
    a = build_superpoints(cloud)
    b = build_superpoints(cloud)
    assert len(a) == len(b)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia, ib)


def test_spatial_coherence_in_voxel_graph():
    # Fully dense plane (every voxel occupied): no isolated voxels, so the
    # unreached-point fallback never fires and each super-point must be one
    # connected blob of voxels. Sparse scenes may legitimately contain
    # fallback-assigned islands.
    rng = np.random.default_rng(3)
    grid = np.stack(
        np.meshgrid(np.arange(50), np.arange(50), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    xy = (grid + rng.random((2500, 2))) * 0.02
    pos = np.column_stack([xy, np.zeros(2500)])
    cloud = SceneCloud(positions=pos.astype(np.float32))
    params = SuperpointParams(voxel_size=0.02, seed_resolution=0.2)
    parts = build_superpoints(cloud, params)
    check_partition(parts, 2500)
    assert len(parts) > 1
    pos32 = cloud.positions.astype(np.float64)
    for ids in parts:
        assert voxel_connected(ids, pos32, params.voxel_size)


def test_seed_resolution_controls_count():
    rng = np.random.default_rng(4)
    pos = (rng.random((2000, 3)) * (1.0, 1.0, 0.02)).astype(np.float32)
    cloud = SceneCloud(positions=pos)
    coarse = build_superpoints(cloud, SuperpointParams(seed_resolution=0.5))
    fine = build_superpoints(cloud, SuperpointParams(seed_resolution=0.1))
    assert len(fine) > len(coarse)


def test_param_validation():
    with pytest.raises(ValueError):
        SuperpointParams(voxel_size=0.0)
    with pytest.raises(ValueError):
        SuperpointParams(voxel_size=0.1, seed_resolution=0.05)
    with pytest.raises(ValueError):
        SuperpointParams(w_spatial=0.0, w_color=0.0, w_normal=0.0)
    with pytest.raises(ValueError):
        SuperpointParams(w_spatial=-1.0)


def contested_row_cloud(x_mid, mid_color):
    """Eight voxel-centered points on a line; voxel 3 is reached by both
    seeds in the same wave, so its point exercises the claim rule directly.

    voxel_size 1.0, seed_resolution 4.0: seed cells [0,4) and [4,8) pick the
    voxels at x=1.5 and x=5.5 as seeds (tie to the lower voxel).
    """
    xs = [0.5, 1.5, 2.5, x_mid, 4.5, 5.5, 6.5, 7.5]
    pos = np.array([[x, 0.5, 0.5] for x in xs], dtype=np.float32)
    colors = np.zeros((8, 3), dtype=np.float32)
    colors[3] = mid_color
    colors[5:8] = 1.0  # seed B's voxel (and its side) is white
    normals = np.tile(np.float32((0.0, 0.0, 1.0)), (8, 1))
    return SceneCloud(positions=pos, colors=colors, normals=normals)


def claimed_by(parts, point):
    return next(k for k, ids in enumerate(parts) if point in ids)


def test_claim_goes_to_spatially_nearest_seed():
    cloud = contested_row_cloud(x_mid=3.25, mid_color=(1.0, 1.0, 1.0))
    parts = build_superpoints(
        cloud,
        SuperpointParams(voxel_size=1.0, seed_resolution=4.0,
                         w_spatial=1.0, w_color=0.0, w_normal=0.0),
    )
    # 3.25 is 1.75 from seed A (x=1.5) and 2.25 from seed B (x=5.5)
    assert claimed_by(parts, 3) == claimed_by(parts, 1)


def test_color_weight_can_override_distance():
    cloud = contested_row_cloud(x_mid=3.25, mid_color=(1.0, 1.0, 1.0))
    parts = build_superpoints(
        cloud,
        SuperpointParams(voxel_size=1.0, seed_resolution=4.0,
                         w_spatial=1.0, w_color=1.0, w_normal=0.0),
    )
    # white point matches seed B's white voxel: color term 0 vs sqrt(3)
    assert claimed_by(parts, 3) == claimed_by(parts, 5)


def test_equal_claim_ties_to_lowest_seed_index():
    # x=3.5 is exactly 2.0 from both seed centroids and the colors tie too
    cloud = contested_row_cloud(x_mid=3.5, mid_color=(0.0, 0.0, 0.0))
    cloud.colors[5:8] = 0.0
    parts = build_superpoints(
        cloud,
        SuperpointParams(voxel_size=1.0, seed_resolution=4.0,
                         w_spatial=1.0, w_color=1.0, w_normal=0.0),
    )
    assert claimed_by(parts, 3) == claimed_by(parts, 1)  # seed 0 wins ties


def test_unreached_island_joins_its_nearest_reached_point():
    # voxel_size 1.0, seed_resolution 4.0, points on a line. Seed B is the
    # voxel at x=-2.5 (cell [-4, 0), tie to the lower voxel) and grows to
    # x=-1.5; seed A is the lone voxel at x=2.5. The point at x=0.2 sits in a
    # voxel with no occupied neighbour, so no wave reaches it. Its nearest
    # seed centroid is A's (2.3 vs 2.7 away) but its nearest reached point is
    # B's x=-1.5 (1.7 vs 2.3 away).
    xs = [-2.5, -1.5, 0.2, 2.5]
    pos = np.array([[x, 0.5, 0.5] for x in xs], dtype=np.float32)
    normals = np.tile(np.float32((0.0, 0.0, 1.0)), (4, 1))
    parts = build_superpoints(
        SceneCloud(positions=pos, normals=normals),
        SuperpointParams(voxel_size=1.0, seed_resolution=4.0,
                         w_spatial=1.0, w_color=0.0, w_normal=0.0),
    )
    assert [p.tolist() for p in parts] == [[0, 1, 2], [3]]


def test_separated_blocks_at_realistic_density_are_segmented():
    # At 1150 pts/m2 about a fifth of the points are unreachable over the
    # voxel graph, so where the fallback puts them decides whether blocks
    # 0.14 m apart share super-points, and so whole objects.
    ap50 = []
    for seed in (3, 5, 7, 13, 21, 42):
        cloud, gt, frames = synth.generate(three_block_spec(seed=seed, points_per_m2=1150.0))
        params = hierarchy.MergeParams()
        priors = [t.point_ids for t in objectness.build_tracks(cloud, frames)]
        h = hierarchy.run_hierarchy(build_superpoints(cloud), cloud, priors, params)
        ap50.append(evaluation.evaluate(hierarchy.collect_objects(h, params), gt).ap50)
    assert np.mean(ap50) >= 0.9, ap50
    assert min(ap50) >= 0.66, ap50  # at least two of the three blocks everywhere


def test_missing_normals_are_estimated_with_params_normals_k():
    # A noisy sphere, where the neighbour count changes the normals enough to
    # change the partition.
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(3000, 3))
    pos = 0.5 * pos / np.linalg.norm(pos, axis=1, keepdims=True)
    bare = SceneCloud(positions=pos + rng.normal(scale=0.01, size=pos.shape))
    given = SceneCloud(positions=bare.positions, normals=estimate_normals(bare, k=8))
    params = SuperpointParams(normals_k=8)
    got = [ids.tolist() for ids in build_superpoints(bare, params)]
    assert got == [ids.tolist() for ids in build_superpoints(given, params)]
    assert got != [ids.tolist() for ids in build_superpoints(bare)]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_tiny_cloud_without_normals_is_partitioned(n):
    # Below 3 points no plane fits and every normal is (0, 0, 1); from 3 up to
    # normals_k points the estimate uses every point as each one's neighbours.
    cloud = SceneCloud(positions=np.random.default_rng(n).random((n, 3)))
    check_partition(build_superpoints(cloud), n)
    assert cloud.normals is None  # the stage estimates into its own array


# ---------------------------------------------------------------------------
# oracle: the wave with one bounds-checked lookup per neighbour offset


_REFERENCE_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def reference_superpoints(cloud, params):
    """build_superpoints as it was with a per-offset searchsorted loop over an
    unpadded grid, kept as the oracle; the cloud must carry normals.

    Returns the super-points, how many points no wave reached, and the sorted
    ids whose normals decide a claim: with w_normal > 0, the seed voxels'
    points (the seed normals) and every point of a voxel that two or more
    seeds claim in one wave (an only claimant wins whatever its score).
    """
    pos = cloud.positions.astype(np.float64)
    n = pos.shape[0]
    normals = cloud.normals.astype(np.float64)
    colors = cloud.colors.astype(np.float64) if cloud.colors is not None else None

    cells = np.floor(pos / params.voxel_size).astype(np.int64)
    lo = cells.min(axis=0)
    span = cells.max(axis=0) - lo + 1
    shifted = cells - lo
    keys = (shifted[:, 0] * span[1] + shifted[:, 1]) * span[2] + shifted[:, 2]
    vox_keys, first_point, point_vox = np.unique(keys, return_index=True, return_inverse=True)
    n_vox = vox_keys.size
    vox_coord = shifted[first_point]
    point_order = np.argsort(point_vox, kind="stable")
    vox_counts = np.bincount(point_vox, minlength=n_vox)
    vox_starts = np.concatenate(([0], np.cumsum(vox_counts)))

    def points_of(vox_ids):
        counts = vox_counts[vox_ids]
        base = np.repeat(vox_starts[vox_ids], counts)
        local = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        return point_order[base + local], counts

    vox_center = (vox_coord + lo + 0.5) * params.voxel_size
    seed_cell = np.floor(vox_center / params.seed_resolution).astype(np.int64)
    s_lo = seed_cell.min(axis=0)
    s_span = seed_cell.max(axis=0) - s_lo + 1
    sc = seed_cell - s_lo
    cell_keys = (sc[:, 0] * s_span[1] + sc[:, 1]) * s_span[2] + sc[:, 2]
    cell_center = (seed_cell + 0.5) * params.seed_resolution
    dist_to_center = np.linalg.norm(vox_center - cell_center, axis=1)
    pick = np.lexsort((vox_keys, dist_to_center, cell_keys))
    _, first_in_cell = np.unique(cell_keys[pick], return_index=True)
    seed_vox = pick[first_in_cell]
    n_seeds = seed_vox.size

    seed_centroid = np.empty((n_seeds, 3))
    seed_color = np.zeros((n_seeds, 3))
    seed_normal = np.empty((n_seeds, 3))
    normal_rows = []
    for s, v in enumerate(seed_vox):
        ids = point_order[vox_starts[v] : vox_starts[v] + vox_counts[v]]
        normal_rows.append(ids)
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
            score = score + params.w_color * np.linalg.norm(colors[pts] - seed_color[seeds], axis=1)
        if params.w_normal > 0:
            dots = np.abs((normals[pts] * seed_normal[seeds]).sum(axis=1))
            score = score + params.w_normal * (1.0 - dots)
        return score

    point_seed = np.full(n, -1, dtype=np.int64)
    vox_claimed = np.zeros(n_vox, dtype=bool)
    vox_claimed[seed_vox] = True
    for s, v in enumerate(seed_vox):
        point_seed[point_order[vox_starts[v] : vox_starts[v] + vox_counts[v]]] = s
    frontier_vox = seed_vox.copy()
    frontier_seed = np.arange(n_seeds, dtype=np.int64)

    while frontier_vox.size:
        fc = vox_coord[frontier_vox]
        cand_vox = []
        cand_seed = []
        for off in _REFERENCE_OFFSETS:
            nc = fc + off
            ok = ((nc >= 0) & (nc < span)).all(axis=1)
            if not ok.any():
                continue
            nk = (nc[ok, 0] * span[1] + nc[ok, 1]) * span[2] + nc[ok, 2]
            vi = np.searchsorted(vox_keys, nk)
            hit = (vi < n_vox) & (vox_keys[np.minimum(vi, n_vox - 1)] == nk)
            vi = vi[hit]
            unclaimed = ~vox_claimed[vi]
            cand_vox.append(vi[unclaimed])
            cand_seed.append(frontier_seed[ok][hit][unclaimed])
        cv = np.concatenate(cand_vox) if cand_vox else np.empty(0, dtype=np.int64)
        cs = np.concatenate(cand_seed) if cand_seed else np.empty(0, dtype=np.int64)
        if cv.size == 0:
            break
        uniq_pairs = np.unique(cv * n_seeds + cs)
        cv = uniq_pairs // n_seeds
        cs = uniq_pairs % n_seeds
        vox, n_claims = np.unique(cv, return_counts=True)
        normal_rows.append(points_of(vox[n_claims > 1])[0])

        pts, counts = points_of(cv)
        seeds_rep = np.repeat(cs, counts)
        scores = mixed_distance(pts, seeds_rep)
        order = np.lexsort((seeds_rep, scores, pts))
        pts_sorted = pts[order]
        first = np.concatenate(([True], pts_sorted[1:] != pts_sorted[:-1]))
        win_pts = pts_sorted[first]
        win_seeds = seeds_rep[order][first]
        point_seed[win_pts] = win_seeds
        vox_claimed[np.unique(cv)] = True
        win_key = np.unique(point_vox[win_pts] * n_seeds + win_seeds)
        frontier_vox = win_key // n_seeds
        frontier_seed = win_key % n_seeds

    missing = point_seed < 0
    if missing.any():
        reached = np.flatnonzero(~missing)
        _, nearest = cKDTree(pos[reached]).query(pos[missing])
        point_seed[missing] = point_seed[reached[nearest]]

    if params.w_normal == 0:
        normal_rows = []
    normal_rows = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *normal_rows]))
    parts = [np.flatnonzero(point_seed == s) for s in range(n_seeds)]
    return parts, int(missing.sum()), normal_rows


def assert_superpoints_equal_reference(cloud, params):
    """Label-for-label equality with the oracle; returns its unreached count."""
    want, n_unreached, _ = reference_superpoints(cloud, params)
    got = build_superpoints(cloud, params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)
    return n_unreached


WEIGHT_VARIANTS = {
    "default": {},
    "no_color": {"w_color": 0.0},
    "no_normal": {"w_normal": 0.0},
}


def with_normals(cloud, k=8):
    return SceneCloud(positions=cloud.positions, colors=cloud.colors,
                      normals=estimate_normals(cloud, k=k))


@pytest.fixture(scope="module")
def room_with_normals():
    """The 256k-point benchmark room, with the normals the stage would estimate."""
    spec = three_block_spec(seed=7, room=(4.0, 4.0, 1.5), points_per_m2=5750.0)
    cloud, _, _ = synth.generate(spec)
    assert cloud.n_points > 200_000
    return with_normals(SceneCloud(positions=cloud.positions, colors=cloud.colors), k=16)


@pytest.mark.parametrize("variant", sorted(WEIGHT_VARIANTS))
def test_superpoints_equal_reference_on_room(room_with_normals, variant):
    assert_superpoints_equal_reference(room_with_normals,
                                       SuperpointParams(**WEIGHT_VARIANTS[variant]))


@pytest.mark.parametrize("variant", sorted(WEIGHT_VARIANTS))
def test_superpoints_equal_reference_with_unreached_islands(variant):
    cloud, _, _ = synth.generate(three_block_spec(seed=13, room=(4.0, 4.0, 1.5),
                                                  points_per_m2=800.0))
    params = SuperpointParams(**WEIGHT_VARIANTS[variant])
    assert assert_superpoints_equal_reference(cloud, params) > 1000


def four_point_island():
    pos = np.array([[x, 0.5, 0.5] for x in (-2.5, -1.5, 0.2, 2.5)], dtype=np.float32)
    cloud = SceneCloud(positions=pos, normals=np.tile(np.float32((0.0, 0.0, 1.0)), (4, 1)))
    return cloud, SuperpointParams(voxel_size=1.0, seed_resolution=4.0,
                                   w_spatial=1.0, w_color=0.0, w_normal=0.0)


def test_superpoints_equal_reference_on_the_four_point_island():
    assert assert_superpoints_equal_reference(*four_point_island()) == 1


@pytest.mark.parametrize("shape", [(5, 5, 5), (7, 3, 1), (1, 6, 4), (2, 2, 9)])
@pytest.mark.parametrize("variant", sorted(WEIGHT_VARIANTS))
def test_superpoints_equal_reference_at_every_face_of_the_grid(shape, variant):
    # A few voxels per axis, densely filled: most voxels lie on a face of the
    # grid's bounds, where a neighbour offset leaves the grid.
    rng = np.random.default_rng(sum(shape))
    pos = rng.random((40 * int(np.prod(shape)), 3)) * np.array(shape) * 0.1 - (0.33, 0.0, 2.1)
    cloud = SceneCloud(positions=pos.astype(np.float32),
                       colors=rng.random(pos.shape).astype(np.float32))
    params = SuperpointParams(voxel_size=0.1, seed_resolution=0.2, **WEIGHT_VARIANTS[variant])
    cells = np.floor(cloud.positions.astype(np.float64) / params.voxel_size).astype(np.int64)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    for axis in range(3):
        assert (cells[:, axis] == lo[axis]).any() and (cells[:, axis] == hi[axis]).any()
    assert_superpoints_equal_reference(with_normals(cloud), params)


@pytest.mark.parametrize("variant", sorted(WEIGHT_VARIANTS))
def test_superpoints_equal_reference_on_a_one_voxel_thick_plane(variant):
    rng = np.random.default_rng(9)
    pos = np.column_stack([rng.random((4000, 2)) * 1.2, 0.3 + rng.random(4000) * 0.019])
    cloud = SceneCloud(positions=pos.astype(np.float32),
                       colors=rng.random((4000, 3)).astype(np.float32))
    params = SuperpointParams(seed_resolution=0.2, **WEIGHT_VARIANTS[variant])
    cells = np.floor(cloud.positions.astype(np.float64) / params.voxel_size).astype(np.int64)
    assert np.unique(cells[:, 2]).size == 1
    assert_superpoints_equal_reference(with_normals(cloud), params)


def voxel_centre_cloud(cells, voxel_size, seed):
    """One point near the centre of each given voxel, with random colours and
    normals estimated from 4 neighbours."""
    rng = np.random.default_rng(seed)
    cells = np.asarray(cells, dtype=np.float64)
    pos = (cells + 0.5 + rng.uniform(-0.3, 0.3, cells.shape)) * voxel_size
    cloud = SceneCloud(positions=pos.astype(np.float32),
                       colors=rng.random(pos.shape).astype(np.float32))
    return with_normals(cloud, k=4)


def reached_by_waves(cloud, params, monkeypatch):
    """How many points the stage's waves reach: the fallback's kd-tree is
    built on exactly those (a cloud with normals builds no other)."""
    built = []
    kdtree = superpoints.kdtree

    def recording_kdtree(points):
        built.append(len(points))
        return kdtree(points)

    monkeypatch.setattr(superpoints, "kdtree", recording_kdtree)
    build_superpoints(cloud, params)
    return built[0] if built else cloud.n_points


@pytest.mark.parametrize("variant", sorted(WEIGHT_VARIANTS))
def test_superpoints_equal_reference_through_columns_with_an_empty_middle(variant, monkeypatch):
    # A zigzag along x: (x, 0, 0) for even x, (x, 0, -1) and (x, 0, 1) for odd
    # x. Every step between neighbours crosses a column whose middle cell is
    # empty and whose dz = -1 and dz = +1 cells are both occupied, so the
    # second voxel of such a column is only found in its second slot. A
    # sparse random lattice adds many more such columns in every direction.
    zigzag = [(x, 0, z) for x in range(40) for z in ((0,) if x % 2 == 0 else (-1, 1))]
    rng = np.random.default_rng(2)
    lattice = np.argwhere(rng.random((10, 10, 10)) < 0.35) + (0, 4, 0)
    params = SuperpointParams(voxel_size=1.0, seed_resolution=4.0, **WEIGHT_VARIANTS[variant])
    for cells in (zigzag, lattice):
        cloud = voxel_centre_cloud(cells, params.voxel_size, seed=len(cells))
        n_unreached = assert_superpoints_equal_reference(cloud, params)
        assert reached_by_waves(cloud, params, monkeypatch) == cloud.n_points - n_unreached
    occupied = {tuple(c) for c in lattice.tolist()}
    assert sum((x, y, z - 1) in occupied and (x, y, z + 1) in occupied
               and (x, y, z) not in occupied for x, y, z in np.ndindex(10, 14, 10)) > 20


@pytest.mark.parametrize("variant", sorted(WEIGHT_VARIANTS))
def test_superpoints_equal_reference_where_the_slots_pass_the_last_voxel(variant, monkeypatch):
    # Voxels along x at y = z = 0, then a lone voxel at the far corner of the
    # grid: it has the largest key and is its own cell's seed, so its
    # columns' searches land at or near the end of the key array and their
    # slots run past it. The line's last voxel is one cell away diagonally.
    cells = [(x, 0, 0) for x in range(10)] + [(10, 1, 1)]
    params = SuperpointParams(voxel_size=1.0, seed_resolution=2.0, **WEIGHT_VARIANTS[variant])
    for drop in (0, 1, 2):
        cloud = voxel_centre_cloud(cells[drop:], params.voxel_size, seed=drop)
        assert assert_superpoints_equal_reference(cloud, params) == 0
        assert reached_by_waves(cloud, params, monkeypatch) == cloud.n_points


def test_a_cloud_with_normals_and_no_unreached_voxel_builds_no_kdtree(monkeypatch):
    cloud, params = dense_box()
    assert assert_superpoints_equal_reference(cloud, params) == 0
    calls = []
    monkeypatch.setattr(superpoints, "kdtree", lambda points: calls.append(points))
    build_superpoints(cloud, params)
    assert calls == []


# ---------------------------------------------------------------------------
# wave split: the same super-points at any block count

_REFERENCE_CACHE = {}


def unreached_islands():
    cloud, _, _ = synth.generate(three_block_spec(seed=13, room=(4.0, 4.0, 1.5),
                                                  points_per_m2=800.0))
    return cloud, SuperpointParams()


def dense_box():
    rng = np.random.default_rng(15)
    pos = rng.random((5000, 3)) * 0.5 - (0.33, 0.0, 2.1)
    cloud = SceneCloud(positions=pos.astype(np.float32),
                       colors=rng.random(pos.shape).astype(np.float32))
    return with_normals(cloud), SuperpointParams(voxel_size=0.1, seed_resolution=0.2)


SPLIT_CASES = {
    "four_point_island": four_point_island,
    "unreached_islands": unreached_islands,
    "dense_box": dense_box,
    "room": None,  # the room_with_normals fixture, default params
    # The same clouds stored without normals: the stage estimates them.
    "unreached_islands_raw": unreached_islands,
    "room_raw": None,
}


def split_case(case, request, w_normal=None):
    """(cloud to partition, the cloud with every normal the stage would
    estimate, the oracle's super-points and normal rows, params).

    A _raw case drops the cloud's normals; its oracle reads the normals the
    stage estimates. w_normal, when given, replaces the case's weight.
    """
    raw = case.endswith("_raw")
    if SPLIT_CASES[case] is None:
        cloud, params = request.getfixturevalue("room_with_normals"), SuperpointParams()
    else:
        cloud, params = SPLIT_CASES[case]()
    if raw:
        cloud = SceneCloud(positions=cloud.positions, colors=cloud.colors)
    if w_normal is not None:
        params = dataclasses.replace(params, w_normal=w_normal)
    key = (case, params.w_normal)
    if key not in _REFERENCE_CACHE:
        given = with_normals(cloud, k=min(params.normals_k, cloud.n_points)) if raw else cloud
        _REFERENCE_CACHE[key] = given, reference_superpoints(given, params)
    given, (want, _, normal_rows) = _REFERENCE_CACHE[key]
    return cloud, given, want, normal_rows, params


def assert_parts_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_superpoints_equal_reference_at_any_block_count(case, workers, request, monkeypatch):
    # With one work item per block every wave step of two or more items
    # splits into `workers` blocks, whatever the CPU count of the machine. A
    # cloud stored without normals also builds its kd-tree beside the voxel
    # grid, in one call whose two blocks are the two builds.
    cloud, _, want, _, params = split_case(case, request)
    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    monkeypatch.setattr(superpoints, "_WAVE_BLOCK", 1)
    block_counts, build_calls = [], []
    thread_map = superpoints.thread_map

    def counting_thread_map(fn, blocks):
        blocks = list(blocks)
        if all(callable(b) for b in blocks):
            build_calls.append(len(blocks))
        else:
            block_counts.append(len(blocks))
        return thread_map(fn, blocks)

    monkeypatch.setattr(superpoints, "thread_map", counting_thread_map)
    # A short switch interval makes the blocks' writes to the shared point ->
    # seed array interleave as finely as they can.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = build_superpoints(cloud, params)
    finally:
        sys.setswitchinterval(interval)
    assert max(block_counts) == workers
    assert build_calls == ([2] if case.endswith("_raw") else [])
    assert_parts_equal(got, want)


# ---------------------------------------------------------------------------
# normals estimated only where a claim reads them


def recorded_estimates(monkeypatch):
    """(rows, normals) of every scene_io.estimate_normals call from now on."""
    calls = []
    estimate = scene_io.estimate_normals

    def record(*args, **kwargs):
        normals = estimate(*args, **kwargs)
        calls.append((np.asarray(kwargs["rows"]), normals))
        return normals

    monkeypatch.setattr(scene_io, "estimate_normals", record)
    return calls


@pytest.mark.parametrize("case", ["room_raw", "unreached_islands_raw"])
def test_normals_are_estimated_once_on_the_rows_the_claims_read(case, request, monkeypatch):
    cloud, given, want, normal_rows, params = split_case(case, request)
    calls = recorded_estimates(monkeypatch)
    got = build_superpoints(cloud, params)
    assert_parts_equal(got, want)
    assert len(calls) > 1  # the seeds, then the waves with contested voxels
    rows = np.concatenate([r for r, _ in calls])
    assert np.unique(rows).size == rows.size  # no row twice
    assert np.array_equal(np.sort(rows), normal_rows)
    assert rows.size < cloud.n_points
    assert bits_equal(np.concatenate([nrm for _, nrm in calls]), given.normals[rows])


@pytest.mark.parametrize("case", ["room_raw", "unreached_islands_raw"])
def test_w_normal_zero_estimates_no_normals(case, request, monkeypatch):
    cloud, _, want, normal_rows, params = split_case(case, request, w_normal=0.0)
    assert normal_rows.size == 0
    calls = recorded_estimates(monkeypatch)
    got = build_superpoints(cloud, params)
    assert calls == []
    assert_parts_equal(got, want)
