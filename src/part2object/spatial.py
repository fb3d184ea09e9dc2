"""Kd-trees, the padded cell grid, adjacency between labelled point sets,
and the package's id and graph rules.

Every kd-tree in the package (normals, the super-point fallback) is built by
kdtree, with one construction rule. Every cell grid (the super-point voxels
and seed cells, the adjacency cells) is keyed by padded_keys.
labeled_close_pairs finds the label pairs within a cutoff on that grid, from
exact tests on the bounding box of each label's points in each cell, and
tests point pairs only where the boxes cannot decide; it builds no kd-tree.
Every id array the hot paths deduplicate goes through sorted_unique, every
label array is split into its members by groups, and every undirected graph
(merge rounds, mask tracks) into its connected components by components,
which labels them in numpy by hooking roots and jumping pointers.

The stable sorts of the hot paths go through stable_order: it returns
np.argsort(keys, kind="stable") exactly, from one sort of the packed int64
keys key * size + index, which numpy sorts with SIMD several times faster
than a stable argsort. When a packed key would overflow int64 (keys beyond
about 2**63 / size in magnitude), it falls back to the stable argsort.
first_min picks, in each run of equal group values, the first entry holding
the run's minimum: after a stable sort by group it replaces a lexsort by
(group, value, index), ties going to the earliest entry. It compares values
for equality, so they must be finite.
"""

import numpy as np
from scipy.spatial import cKDTree

# The offsets of a cell itself and of the 13 neighbours after it in
# row-major order, column (dx, dy) by column with dz ascending: of two
# touching cells, the earlier reaches the later by one of these.
_FORWARD = np.array(list(np.ndindex(3, 3, 3))[13:], dtype=np.int64) - 1


def sorted_unique(values):
    """np.unique of a 1-D integer array, from one sort and a neighbour mask.

    numpy 2's np.unique deduplicates through a hash table and then sorts the
    result, several times slower on these id and key arrays.
    """
    values = np.sort(values)
    return values[run_starts(values)]


def run_starts(values):
    """Mask of the entries of a 1-D array that start a run: the first, and
    each that differs from the one before."""
    starts = np.empty(values.shape, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def stable_order(keys):
    """np.argsort(keys, kind="stable") of a 1-D integer array."""
    keys = np.asarray(keys, dtype=np.int64)
    size = keys.size
    if size == 0:
        return np.empty(0, dtype=np.int64)
    limit = np.iinfo(np.int64)
    lo, hi = int(keys.min()), int(keys.max())
    if lo * size < limit.min or hi * size + size - 1 > limit.max:
        return np.argsort(keys, kind="stable")
    # Distinct packed keys, so the unstable SIMD sort gives the stable order.
    packed = keys * size + np.arange(size)
    packed.sort()
    return packed % size


def first_min(groups, values):
    """Index of the first minimum of values in each run of equal groups, runs
    in order; the values must be finite (a NaN matches no minimum)."""
    new_run = run_starts(groups)
    run = np.cumsum(new_run) - 1
    mins = np.minimum.reduceat(values, np.flatnonzero(new_run))
    hit = np.flatnonzero(values == mins.take(run))
    return hit[run_starts(run.take(hit))]


def groups(labels, n):
    """Indices holding each label 0..n-1, ascending within each group; every
    label must lie in [0, n)."""
    order = stable_order(labels)
    # [:n]: with n = 0, np.split still returns the one empty piece.
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n))[:-1])[:n]


def components(n, pairs):
    """(count, int64 labels) of the undirected graph on nodes 0..n-1 whose
    edges are the (E, 2) pairs; components are numbered by their smallest
    node."""
    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    # root[v] <= v always lies in v's component, so each component ends as a
    # star around its smallest node. Each round hooks every edge's larger
    # root to the smallest root it meets, then jumps pointers until every
    # node points at a root.
    root = np.arange(n)
    while True:
        ra, rb = root.take(a), root.take(b)
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root.take(root)
            if np.array_equal(jumped, root):
                break
            root = jumped
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1).take(root)


def kdtree(points):
    """cKDTree without median splits or shrunk node boxes: faster to build and
    to query on these clouds, with the same neighbours up to exact ties."""
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def padded_keys(cells):
    """(keys, strides): row-major keys of the (N, 3) int64 cells on their grid
    padded by one empty cell on every side, so each of a cell's 26 neighbours
    is one constant key step (offset @ strides) away and never wraps into
    another row."""
    cols = [c - (c.min() - 1) for c in cells.T]
    span = [int(c.max()) + 2 for c in cols]
    strides = np.array([span[1] * span[2], span[2], 1])
    return (cols[0] * span[1] + cols[1]) * span[2] + cols[2], strides


def labeled_close_pairs(positions, labels, cutoff):
    """(E, 2) int64 label pairs with some point pair within cutoff.

    Points p and q are within cutoff when ((p - q) ** 2).sum() <= cutoff ** 2,
    the rule cKDTree.query_pairs applies. Rows are unique with la < lb, sorted
    lexicographically.

    The search runs on a grid of cells of edge cutoff * (1 + 1e-6), keyed by
    padded_keys. A pair within the cutoff differs by at most the cutoff on
    each axis, so its points lie in one cell or in two touching cells; the
    margin absorbs the rounding of x / edge. The points are sorted by (cell,
    label), and each run, one label's points inside one cell, is a unit with
    a bounding box. Each unit is paired with the later units of its own cell
    and with the units of its 13 forward neighbour cells; a unit pair is kept
    only when its labels differ and the gap between its boxes is within the
    cutoff. A kept pair whose farthest box corners are within the cutoff
    proves its label pair outright. A label pair still unproven has the point
    pairs of its closest unit pair tested first, and only then those of its
    other unit pairs.

    The box tests are exact. For p in box A and q in box B, on each axis
    lo_B - hi_A <= q - p <= hi_B - lo_A. Rounded subtraction, the square of a
    non-negative number and rounded addition are each monotone in their
    arguments, so the rounded box gap, summed in the rule's order x, y, z, is
    never larger than the rounded distance of any point pair of the two
    boxes, and the rounded farthest-corner distance never smaller. So the gap
    test never drops a pair within the cutoff, and the corner test never
    accepts a pair beyond it.
    """
    positions = np.asarray(positions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    base = int(labels.max()) + 1
    c2 = cutoff * cutoff
    keys, strides = padded_keys(np.floor(positions / (cutoff * (1 + 1e-6))).astype(np.int64))
    if (int(keys.max()) + 1) * base <= np.iinfo(np.int64).max:
        order = np.argsort(keys * base + labels)
    else:  # the combined key would overflow int64
        order = np.lexsort((labels, keys))
    keys, lab = keys.take(order), labels.take(order)
    pos = [positions[:, axis].take(order) for axis in range(3)]

    # Units are the runs of one (cell, label); cells are runs of units, and
    # unit u lies in cell u_cell[u], whose units are cell_start[c] onwards.
    new_cell = run_starts(keys)
    starts = np.flatnonzero(new_cell | run_starts(lab))
    sizes = np.diff(starts, append=n)
    lo = [np.minimum.reduceat(p, starts) for p in pos]
    hi = [np.maximum.reduceat(p, starts) for p in pos]
    u_lab = lab.take(starts)
    new_cell = new_cell.take(starts)
    u_cell = np.cumsum(new_cell) - 1
    cell_start = np.flatnonzero(new_cell)
    cell_size = np.diff(cell_start, append=starts.size)
    cell_keys = keys.take(starts.take(cell_start))
    units = np.arange(starts.size)
    del keys, lab, order

    # Unit pairs (a, b), a < b: each unit with the later units of its own
    # cell and every unit of its forward neighbour cells. The cells of one
    # column (dx, dy) have consecutive keys, so one search finds the first
    # and each hit steps on to the next.
    passes = []
    for offset, step in zip(_FORWARD, _FORWARD @ strides):
        target = cell_keys + step
        if offset[2] == -1 or not offset.any():
            nb = np.searchsorted(cell_keys, target)
        at = np.minimum(nb, cell_keys.size - 1)
        hit = cell_keys.take(at) == target
        nb = nb + hit
        count = np.where(hit, cell_size.take(at), 0).take(u_cell)
        first = cell_start.take(at).take(u_cell)
        a = np.repeat(units, count)
        b = np.arange(a.size) - np.repeat(np.cumsum(count) - count - first, count)
        keep = (a < b) & (u_lab.take(a) != u_lab.take(b))
        a, b = a[keep], b[keep]
        gap, far = np.zeros(a.size), np.zeros(a.size)
        for lo_x, hi_x in zip(lo, hi):
            d1 = lo_x.take(b) - hi_x.take(a)
            d2 = lo_x.take(a) - hi_x.take(b)
            # The gap on this axis is max(d1, d2, 0); the farthest corners
            # are -min(d1, d2) apart, as hi_B - lo_A = -(lo_A - hi_B) exactly.
            g = np.maximum(d1, d2)
            np.maximum(g, 0.0, out=g)
            g *= g
            gap += g
            np.minimum(d1, d2, out=d1)
            d1 *= d1
            far += d1
        keep = gap <= c2
        passes.append((a[keep], b[keep], gap[keep], far[keep] <= c2))
    a, b, gap, proven = map(np.concatenate, zip(*passes))
    del passes

    # The unit pairs sorted into runs of one label pair; close[r] marks run
    # r's label pair as proven.
    la, lb = u_lab.take(a), u_lab.take(b)
    pair_keys = np.minimum(la, lb) * base + np.maximum(la, lb)
    order = np.argsort(pair_keys)
    pair_keys, a, b, gap, proven = (x.take(order) for x in (pair_keys, a, b, gap, proven))
    new_run = run_starts(pair_keys)
    run = np.flatnonzero(new_run)
    run_of = np.cumsum(new_run) - 1
    close = np.logical_or.reduceat(proven, run)

    def any_close(pairs):
        # Per unit pair: some point pair of its two units is within cutoff.
        ia, ib = starts.take(a.take(pairs)), starts.take(b.take(pairs))
        na, nb = sizes.take(a.take(pairs)), sizes.take(b.take(pairs))
        m = na * nb
        offsets = np.cumsum(m) - m
        pair = np.repeat(np.arange(pairs.size), m)
        k = np.arange(m.sum()) - offsets.take(pair)
        nb = nb.take(pair)
        i, j = ia.take(pair) + k // nb, ib.take(pair) + k % nb
        d2 = np.zeros(i.size)
        for p in pos:
            d = p.take(i) - p.take(j)
            d *= d
            d2 += d
        return np.logical_or.reduceat(d2 <= c2, offsets)

    # Unproven label pairs: the closest unit pair of each first, then the
    # other unit pairs of those it did not prove.
    rest = np.flatnonzero(~close.take(run_of))
    rest = rest.take(np.lexsort((gap.take(rest), run_of.take(rest))))
    first = run_starts(run_of.take(rest))
    closest, rest = rest[first], rest[~first]
    close[run_of.take(closest[any_close(closest)])] = True
    rest = rest[~close.take(run_of.take(rest))]
    close[run_of.take(rest[any_close(rest)])] = True

    keys = pair_keys.take(run)[close]
    return np.column_stack([keys // base, keys % base])
