"""Kd-trees, adjacency between labelled point sets, and the package's id
and graph rules.

Every kd-tree in the package (normals, adjacency slabs, the super-point
fallback) is built by kdtree, with one construction rule. Every id array the
hot paths deduplicate goes through sorted_unique, every label array is split
into its members by groups, and every undirected graph (merge rounds, mask
tracks) into its connected components by components.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .parallel import thread_map

# Points per core in labeled_close_pairs. A kd-tree query materialises every
# point pair within the cutoff; querying one slab at a time bounds that to the
# pairs of a slab instead of the whole scene, and every worker thread holds
# one slab's.
_SLAB_POINTS = 1 << 15


def sorted_unique(values):
    """np.unique of a 1-D integer array, from one sort and a neighbour mask.

    numpy 2's np.unique deduplicates through a hash table and then sorts the
    result, several times slower on these id and key arrays.
    """
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def groups(labels, n):
    """Indices holding each label 0..n-1, ascending within each group; every
    label must lie in [0, n)."""
    order = np.argsort(labels, kind="stable")
    # [:n]: with n = 0, np.split still returns the one empty piece.
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n))[:-1])[:n]


def components(n, pairs):
    """(count, int64 labels) of the undirected graph on nodes 0..n-1 whose
    edges are the (E, 2) pairs; components are numbered by their smallest
    node."""
    # Imported here, so that commands that build no graph do not load it.
    from scipy.sparse.csgraph import connected_components

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    return count, labels.astype(np.int64)


def kdtree(points):
    """cKDTree without median splits or shrunk node boxes: faster to build and
    to query on these clouds, with the same neighbours up to exact ties."""
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def labeled_close_pairs(positions, labels, cutoff):
    """(E, 2) int64 label pairs with some point pair within cutoff.

    Points p and q are within cutoff when ((p - q) ** 2).sum() <= cutoff ** 2,
    the rule cKDTree.query_pairs applies. Rows are unique with la < lb, sorted
    lexicographically. The points are sorted by x and walked in cores of
    _SLAB_POINTS; a core's slab adds every later point up to twice the cutoff
    past its last x (the margin absorbs rounding of x + cutoff), so each point
    pair is found in the slab of its lower-sorted point. Each slab builds its
    own kd-tree and finds its label pairs on one of the CPUs
    (parallel.thread_map); the slabs' pairs are merged in slab order, so the
    result does not depend on the thread count.
    """
    positions = np.asarray(positions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(positions[:, 0])
    pos, lab = positions[order], labels[order]
    n = pos.shape[0]
    base = int(lab.max()) + 1 if n else 1

    def slab_keys(start):
        core_end = min(start + _SLAB_POINTS, n)
        end = np.searchsorted(pos[:, 0], pos[core_end - 1, 0] + 2 * cutoff, side="right")
        i, j = (kdtree(pos[start:end]).query_pairs(cutoff, output_type="ndarray") + start).T
        la, lb = lab[i], lab[j]
        keep = (i < core_end) & (la != lb)
        la, lb = la[keep], lb[keep]
        return sorted_unique(np.minimum(la, lb) * base + np.maximum(la, lb))

    keys = [np.empty(0, dtype=np.int64), *thread_map(slab_keys, range(0, n, _SLAB_POINTS))]
    keys = sorted_unique(np.concatenate(keys))
    return np.column_stack([keys // base, keys % base])

