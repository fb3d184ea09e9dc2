"""Uniform-grid adjacency between labelled point sets, and prior boxes.

Points are bucketed into cubic cells one cutoff wide. Two points within the
cutoff always land in the same or adjacent cells, so ``labeled_close_pairs``
finds every label pair with some point pair within the cutoff by pairing
each occupied cell with itself and with 13 of its 26 neighbours (the other
13 see the same unordered point pairs from the opposite side), then checking
the points of those cell pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

# The 13 neighbour offsets that are lexicographically positive: every other
# neighbour is the negation of one of them.
_HALF_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
]


def _encode_cells(cells):
    """Map integer cell coords to scalar keys (collision-free)."""
    lo = cells.min(axis=0)
    span = cells.max(axis=0) - lo + 1
    c = cells - lo
    return (c[:, 0] * span[1] + c[:, 1]) * span[2] + c[:, 2], lo, span


def labeled_close_pairs(positions, labels, cutoff):
    """All unordered label pairs with some point pair within cutoff.

    Returns a dict {(la, lb): min distance} with la < lb. Exact for every
    returned pair: any two points within cutoff sit in the same or adjacent
    cells of a cutoff-sized grid, and each such unordered point pair is
    visited exactly once, either within its own cell (i < j) or through one
    of the 13 half-neighbourhood offsets. Label pairs whose closest points
    are farther than cutoff never appear (and are never evaluated pointwise).
    Cell pairs whose points all carry one and the same label are skipped
    before any pointwise check.
    """
    positions = np.asarray(positions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = positions.shape[0]
    if n == 0:
        return {}

    cells = np.floor(positions / cutoff).astype(np.int64)
    keys, lo, span = _encode_cells(cells)
    order = np.argsort(keys, kind="stable")
    cell_keys, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    n_cells = cell_keys.size
    cell_coord = cells[order[starts]] - lo
    # Two cells whose points all carry one and the same label hold no pair.
    sorted_labels = labels[order]
    cell_label = sorted_labels[starts]
    uniform = np.minimum.reduceat(sorted_labels, starts) == np.maximum.reduceat(
        sorted_labels, starts
    )

    cutoff2 = cutoff * cutoff
    base_lab = int(labels.max()) + 1
    pair_keys_acc = []
    dists_acc = []

    for offset in [(0, 0, 0)] + _HALF_OFFSETS:
        # Occupied cell pairs (ca, cb) at this offset.
        nc = cell_coord + offset
        ca = np.flatnonzero(((nc >= 0) & (nc < span)).all(axis=1))
        nk = (nc[ca, 0] * span[1] + nc[ca, 1]) * span[2] + nc[ca, 2]
        cb = np.searchsorted(cell_keys, nk)
        hit = (cb < n_cells) & (cell_keys[np.minimum(cb, n_cells - 1)] == nk)
        ca, cb = ca[hit], cb[hit]
        same = uniform[ca] & uniform[cb] & (cell_label[ca] == cell_label[cb])
        ca, cb = ca[~same], cb[~same]
        if ca.size == 0:
            continue

        # Every point of ca against every point of cb.
        nb = counts[cb]
        sizes = counts[ca] * nb
        total = int(sizes.sum())
        pair = np.repeat(np.arange(ca.size), sizes)
        k = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        nb = nb[pair]
        i_rep = order[starts[ca][pair] + k // nb]
        j_idx = order[starts[cb][pair] + k % nb]

        if offset == (0, 0, 0):
            keep = i_rep < j_idx
            i_rep, j_idx = i_rep[keep], j_idx[keep]
        la, lb = labels[i_rep], labels[j_idx]
        keep = la != lb
        i_rep, j_idx, la, lb = i_rep[keep], j_idx[keep], la[keep], lb[keep]
        if i_rep.size == 0:
            continue
        d2 = ((positions[i_rep] - positions[j_idx]) ** 2).sum(axis=1)
        keep = d2 <= cutoff2
        if not keep.any():
            continue
        la, lb, d2 = la[keep], lb[keep], d2[keep]
        lo_lab = np.minimum(la, lb)
        hi_lab = np.maximum(la, lb)
        pair_keys_acc.append(lo_lab * base_lab + hi_lab)
        dists_acc.append(d2)

    if not pair_keys_acc:
        return {}
    pair_keys = np.concatenate(pair_keys_acc)
    d2 = np.concatenate(dists_acc)
    uniq, inv = np.unique(pair_keys, return_inverse=True)
    mins = np.full(uniq.size, np.inf)
    np.minimum.at(mins, inv, d2)
    return {
        (int(k // base_lab), int(k % base_lab)): float(math.sqrt(m))
        for k, m in zip(uniq, mins)
    }


@dataclass(frozen=True)
class PriorBox:
    """Axis-aligned world-frame bounding box (closed on all faces)."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        mn = np.asarray(self.min_corner, dtype=np.float64)
        mx = np.asarray(self.max_corner, dtype=np.float64)
        if mn.shape != (3,) or mx.shape != (3,):
            raise ValueError("box corners must be 3-vectors")
        if (mn > mx).any():
            raise ValueError("box min corner exceeds max corner")
        object.__setattr__(self, "min_corner", mn)
        object.__setattr__(self, "max_corner", mx)

    def contains(self, points):
        """Boolean mask of points inside the closed box."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return ((p >= self.min_corner) & (p <= self.max_corner)).all(axis=1)

    def fraction_inside(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if p.shape[0] == 0:
            return 0.0
        return float(self.contains(p).mean())
