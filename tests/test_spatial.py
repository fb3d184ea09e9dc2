import numpy as np
import pytest

from part2object import parallel, spatial
from part2object.spatial import components, groups, labeled_close_pairs, sorted_unique


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


def test_labeled_close_pairs_across_slab_edges(monkeypatch):
    # Cores of 7 points: most close pairs straddle a slab edge, and the
    # lattice x values tie across edges.
    monkeypatch.setattr(spatial, "_SLAB_POINTS", 7)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.random((250, 3)) * 0.5
        labels = rng.integers(0, 30, size=250)
        check_against_brute_force(pts, labels, 0.06)
        lattice = rng.integers(-3, 4, size=(120, 3)) * 0.05
        check_against_brute_force(lattice, rng.integers(0, 20, size=120), 0.05)


def test_labeled_close_pairs_do_not_depend_on_thread_count(monkeypatch):
    # Cores of 32 points: 1,200 points make 38 slabs for the workers to share.
    monkeypatch.setattr(spatial, "_SLAB_POINTS", 32)
    rng = np.random.default_rng(8)
    pts = rng.random((1200, 3)) * np.array([2.0, 0.3, 0.3])
    labels = rng.integers(0, 200, size=1200)
    results = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
        results[workers] = labeled_close_pairs(pts, labels, 0.05)
    assert len(results[1]) > 100
    assert results[1].dtype == results[2].dtype == np.int64
    assert np.array_equal(results[1], results[2])
    check_against_brute_force(pts, labels, 0.05)


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
