import threading

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from conftest import three_block_spec
from part2object import spatial, synth
from part2object.spatial import (components, first_min, groups, labeled_close_pairs,
                                 sorted_unique, stable_order)
from part2object.superpoints import build_superpoints


def brute_label_pairs(pts, labels, cutoff):
    """Label pairs (la < lb) with a point pair p, q where ((p - q) ** 2).sum() <= cutoff ** 2."""
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    i, j = np.nonzero(d2 <= cutoff * cutoff)
    la, lb = labels[i], labels[j]
    return {(int(a), int(b)) for a, b in zip(la, lb) if a < b}


def check_against_brute_force(pts, labels, cutoff):
    got = labeled_close_pairs(pts, labels, cutoff)
    assert got.dtype == np.int64 and got.ndim == 2 and got.shape[1] == 2
    want = sorted(brute_label_pairs(pts, labels, cutoff))
    assert got.tolist() == [list(p) for p in want]
    return got


def test_labeled_close_pairs_handles_negative_coordinates():
    rng = np.random.default_rng(4)
    pts = rng.random((200, 3)) * 0.6 - 0.3
    labels = rng.integers(0, 8, size=200)
    got = check_against_brute_force(pts, labels, 0.07)
    assert len(got) > 0


def test_labeled_close_pairs_equals_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pts = rng.random((300, 3)) * 1.2
        labels = rng.integers(0, 12, size=300)
        check_against_brute_force(pts, labels, 0.08)


def test_labeled_close_pairs_counts_pairs_at_exactly_cutoff():
    # On an integer lattice with cutoff 1, every axis neighbour sits at
    # exactly the cutoff; the rule keeps them.
    rng = np.random.default_rng(21)
    at_cutoff = 0
    for _ in range(20):
        pts = rng.integers(-3, 4, size=(150, 3)).astype(np.float64)
        labels = rng.integers(0, 40, size=150)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        at_cutoff += int((d2 == 1.0).sum())
        check_against_brute_force(pts, labels, 1.0)
    assert at_cutoff > 1000


def kdtree_label_pairs(pts, labels, cutoff):
    """Label pairs (la < lb, sorted) from a default cKDTree's point pairs."""
    i, j = cKDTree(pts).query_pairs(cutoff, output_type="ndarray").T
    la, lb = labels[i], labels[j]
    keep = la != lb
    return sorted({(int(a), int(b)) for a, b in zip(np.minimum(la, lb)[keep],
                                                   np.maximum(la, lb)[keep])})


@pytest.fixture(scope="module")
def room_cloud():
    """The 1150 pts/m2 room and its super-point labels."""
    cloud, _gt, _frames = synth.generate(
        three_block_spec(room=(4.0, 4.0, 1.5), points_per_m2=1150.0))
    pos = cloud.positions.astype(np.float64)
    labels = np.empty(len(pos), dtype=np.int64)
    for k, ids in enumerate(build_superpoints(cloud)):
        labels[ids] = k
    return pos, labels


@pytest.mark.parametrize("cutoff", [0.03, 0.05, 0.1])
def test_labeled_close_pairs_equal_kdtree_pairs_on_a_room(room_cloud, cutoff):
    pos, labels = room_cloud
    got = labeled_close_pairs(pos, labels, cutoff)
    want = kdtree_label_pairs(pos, labels, cutoff)
    assert len(want) > 500
    assert got.dtype == np.int64 and got.tolist() == [list(p) for p in want]


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e4])
@pytest.mark.parametrize("cutoff", [0.03, 0.05, 0.1])
def test_labeled_close_pairs_on_lattices_at_the_cell_edges(cutoff, offset):
    # Lattice steps of the cutoff put axis neighbours at the cutoff, up to the
    # rounding the offset adds; steps of the cell edge put points on its
    # boundaries. Either way many pairs sit at the rule's threshold.
    rng = np.random.default_rng(17)
    for step in (cutoff, cutoff * (1 + 1e-6)):
        for _ in range(4):
            pts = rng.integers(-4, 5, size=(160, 3)) * step + offset
            labels = rng.integers(0, 30, size=160)
            check_against_brute_force(pts, labels, cutoff)


def test_labeled_close_pairs_two_cells_apart_before_rounding():
    # x = -1e-18 and x = cutoff are exactly the cutoff apart once rounded, yet
    # x / cutoff floors them into cells -1 and 1; the cell edge's margin of
    # 1e-6 puts them in touching cells.
    for cutoff in (0.03, 0.05, 0.1):
        pts = np.array([[-1e-18, 0.0, 0.0], [cutoff, 0.0, 0.0]])
        assert check_against_brute_force(pts, np.array([0, 1]), cutoff).tolist() == [[0, 1]]


def test_labeled_close_pairs_when_every_box_pair_proves_its_labels():
    # Blobs 0.02 cutoff wide, one label each, centres on a lattice of step
    # 0.55 cutoff: blobs up to a lattice diagonal apart have farthest corners
    # within 0.99 cutoff, and any farther blobs a gap above 1.08.
    rng = np.random.default_rng(3)
    cutoff = 0.05
    centres = np.stack(np.meshgrid(*[np.arange(4) * 0.55 * cutoff] * 3), -1).reshape(-1, 3)
    pts = np.repeat(centres, 6, axis=0) + rng.random((6 * len(centres), 3)) * 0.02 * cutoff
    labels = np.repeat(rng.permutation(len(centres)), 6)
    got = check_against_brute_force(pts, labels, cutoff)
    assert len(got) > 100


def test_labeled_close_pairs_when_boxes_are_near_but_points_are_not():
    # In units of the cutoff, each unit in one cell: label 1's two points
    # span a cell and label 2's point lies 0.6 past that box on x, level with
    # its top in z, yet at least 1.08 from either point. Labels 3 and 4 repeat
    # that, and also meet 0.8 apart across a box gap of 0.8: their closest
    # unit pair has no close point pair, and the next one does.
    c = 0.05
    near = np.array([[0, 0, 0], [0.9, 0.9, 0.9], [1.5, 0, 0.9]])
    close = np.array([[10.05, 0, 0], [10.05, 0.9, 0.9], [10.85, 0, 0]])
    pts = np.concatenate([near, near + [0, 20.05, 0], close + [0, 20.05, 0]]) * c
    labels = np.array([1, 1, 2, 3, 3, 4, 3, 3, 4])
    assert check_against_brute_force(pts, labels, c).tolist() == [[3, 4]]


def test_labeled_close_pairs_with_a_cell_key_past_int64_over_the_labels():
    # 200 m across at a 0.05 cutoff gives cell keys near 6e10; times labels
    # up to 2**31 that overflows int64, so the points are sorted by two keys.
    rng = np.random.default_rng(11)
    centres = rng.random((60, 3)) * 200.0
    pts = np.repeat(centres, 5, axis=0) + rng.random((300, 3)) * 0.06
    ranks = rng.integers(0, 150, size=300)
    values = np.sort(rng.choice(2**31, size=150, replace=False))
    got = check_against_brute_force(pts, values[ranks], 0.05)
    assert len(got) > 20
    # The ranks keep the order of the labels and fit one int64 key with the cells.
    assert np.array_equal(got, values[labeled_close_pairs(pts, ranks, 0.05)])


def test_labeled_close_pairs_build_no_kdtree_and_start_no_thread(room_cloud, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("labeled_close_pairs built a kd-tree or started a thread")

    monkeypatch.setattr(spatial, "cKDTree", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    pos, labels = room_cloud
    assert len(labeled_close_pairs(pos, labels, 0.05)) > 500


def test_labeled_close_pairs_degenerate_inputs():
    empty = labeled_close_pairs(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 0.05)
    assert empty.shape == (0, 2) and empty.dtype == np.int64

    pts = np.random.default_rng(0).random((50, 3)) * 0.1
    one_label = labeled_close_pairs(pts, np.full(50, 3), 0.05)
    assert one_label.shape == (0, 2) and one_label.dtype == np.int64

    two = labeled_close_pairs(np.array([[0.0, 0, 0], [0.5, 0, 0]]), np.array([4, 2]), 0.5)
    assert two.dtype == np.int64 and two.tolist() == [[2, 4]]


def unique_cases():
    rng = np.random.default_rng(31)
    yield "empty", np.empty(0, dtype=np.int64)
    yield "one", np.array([7], dtype=np.int64)
    yield "all_equal", np.full(50, -3, dtype=np.int64)
    yield "sorted", np.repeat(np.arange(-5, 40, dtype=np.int64), 3)
    yield "random", np.concatenate([rng.integers(-2**62, 2**62, 500),
                                    rng.integers(-20, 20, 500)])


@pytest.mark.parametrize("name, values", list(unique_cases()),
                         ids=[name for name, _ in unique_cases()])
def test_sorted_unique_equals_np_unique(name, values):
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def order_cases():
    rng = np.random.default_rng(5)
    yield "empty", np.empty(0, dtype=np.int64)
    yield "one", np.array([9], dtype=np.int64)
    yield "all_equal", np.full(40, 6, dtype=np.int64)
    yield "few_values", rng.integers(0, 5, 3000)
    yield "negative", rng.integers(-40, 40, 3000)
    yield "wide", rng.choice(rng.integers(-2**40, 2**40, 50), 3000)
    yield "int32_labels", rng.integers(0, 30, 500).astype(np.int32)


@pytest.mark.parametrize("name, keys", list(order_cases()),
                         ids=[name for name, _ in order_cases()])
def test_stable_order_equals_a_stable_argsort(name, keys):
    got = stable_order(keys)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("extreme", [2**62, -2**62])
def test_stable_order_with_keys_past_int64_over_the_size(extreme):
    # Keys near 2**62 times 400 entries overflow int64, so the packed keys
    # would wrap: the order falls back to the stable argsort.
    rng = np.random.default_rng(8)
    keys = rng.choice(np.array([extreme, extreme // 3, 0, 1, -5]), size=400)
    with np.errstate(over="ignore"):
        wrapped = np.sort(keys * keys.size + np.arange(keys.size)) % keys.size
    want = np.argsort(keys, kind="stable")
    assert not np.array_equal(wrapped, want)
    assert np.array_equal(stable_order(keys), want)


def lexsort_first_min(groups_, values):
    """The rule first_min replaces: a lexsort by (group, value, index), then
    the first entry of each group; groups must be sorted."""
    order = np.lexsort((np.arange(values.size), values, groups_))
    g = groups_[order]
    return order[[i for i in range(g.size) if i == 0 or g[i] != g[i - 1]]]


def test_first_min_equals_the_lexsort_rule():
    rng = np.random.default_rng(6)
    for _ in range(300):
        size = int(rng.integers(0, 60))
        groups_ = np.sort(rng.integers(0, int(rng.integers(1, 12)), size))
        # Few distinct values: many runs hold tied minima.
        values = rng.integers(0, 4, size) * 0.5
        got = first_min(groups_, values)
        assert got.dtype == np.int64
        assert np.array_equal(got, lexsort_first_min(groups_, values))


def test_first_min_of_empty_and_one_element_input():
    assert first_min(np.empty(0, dtype=np.int64), np.empty(0)).size == 0
    assert first_min(np.array([4]), np.array([-1.5])).tolist() == [0]
    # Runs, not sorted groups: a value seen again later starts a new run.
    assert first_min(np.array([2, 2, 0, 2]), np.array([1.0, 0.0, 3.0, 0.0])).tolist() == [1, 2, 3]


def test_groups_equals_a_scan_per_label():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(0, 8))
        size = int(rng.integers(0, 40)) if n else 0
        labels = rng.integers(0, max(n, 1), size=size)
        got = groups(labels, n)
        assert len(got) == n
        for k, members in enumerate(got):
            assert members.dtype == np.int64
            assert np.array_equal(members, np.flatnonzero(labels == k))


def brute_components(n, pairs):
    """Union-find, then each component numbered by the rank of its smallest node."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in pairs:
        root[find(a)] = find(b)
    smallest = {}
    for node in range(n):
        smallest.setdefault(find(node), node)
    rank = {r: k for k, r in enumerate(sorted(smallest, key=smallest.get))}
    return len(rank), [rank[find(node)] for node in range(n)]


def test_components_equals_union_find():
    rng = np.random.default_rng(13)
    seen = dict.fromkeys(["no_pairs", "isolated", "repeated", "self_loop"], 0)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, n + 5)), 2))
        count, labels = components(n, pairs)
        want_count, want = brute_components(n, pairs.tolist())
        assert labels.dtype == np.int64
        assert (count, labels.tolist()) == (want_count, want)
        seen["no_pairs"] += len(pairs) == 0
        seen["isolated"] += len(set(range(n)) - set(pairs.ravel().tolist())) > 0
        seen["repeated"] += len({tuple(sorted(p)) for p in pairs.tolist()}) < len(pairs)
        seen["self_loop"] += bool((pairs[:, 0] == pairs[:, 1]).any())
    assert all(count > 0 for count in seen.values()), seen


def test_components_of_edge_lists_without_edges():
    for pairs in ([], np.empty((0, 2), dtype=np.int64)):
        count, labels = components(4, pairs)
        assert count == 4 and labels.dtype == np.int64 and labels.tolist() == [0, 1, 2, 3]
    count, labels = components(0, [])
    assert count == 0 and labels.dtype == np.int64 and labels.size == 0


def scipy_components(n, pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)


def graph_cases():
    rng = np.random.default_rng(14)
    for k in range(200):
        n = int(rng.integers(1, 200))
        yield f"random_{k}", n, rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
    path = np.column_stack([np.arange(299), np.arange(1, 300)])
    yield "path", 300, path
    yield "path_reversed", 300, path[::-1, ::-1]
    yield "path_shuffled", 300, rng.permutation(300)[path]
    yield "star_at_max", 50, np.column_stack([np.full(49, 49), np.arange(49)])
    yield "star_at_min", 50, np.column_stack([np.arange(1, 50), np.zeros(49, dtype=np.int64)])
    yield "self_loops", 6, np.array([[0, 0], [3, 3], [5, 5], [2, 4]])
    yield "duplicates", 7, np.array([[1, 5], [5, 1], [1, 5], [6, 2], [2, 6], [6, 2]])
    yield "no_nodes", 0, np.empty((0, 2), dtype=np.int64)


def test_components_equal_scipy():
    for name, n, pairs in graph_cases():
        count, labels = components(n, pairs)
        want_count, want = scipy_components(n, pairs)
        assert labels.dtype == np.int64, name
        assert count == want_count and np.array_equal(labels, want), name
