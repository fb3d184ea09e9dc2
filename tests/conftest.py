import json
from dataclasses import asdict

import numpy as np
import pytest

from part2object import parallel, synth


@pytest.fixture(autouse=True)
def idle_cpu_budget():
    """Fail a test that leaves a CPU of thread_map's budget held once it ends."""
    yield
    assert parallel._held == 0, f"{parallel._held} CPUs of the thread_map budget still held"


def three_block_spec(seed=7, gap=0.14, room=None, points_per_m2=3000.0):
    """Three cuboids in a row, optionally inside a room, seen by four cameras."""
    size = 0.5
    step = size + gap
    return synth.SynthSpec(
        seed=seed,
        objects=[
            synth.SynthObject(center=(-step, 0.0, 0.25), size=(size, size, size)),
            synth.SynthObject(center=(0.0, 0.0, 0.25), size=(size, size, size)),
            synth.SynthObject(center=(step, 0.0, 0.25), size=(size, size, size)),
        ],
        room=room,
        points_per_m2=points_per_m2,
        cameras=[
            synth.look_at((0.0, -2.5, 1.5), (0.0, 0.0, 0.3)),
            synth.look_at((1.5, -2.0, 1.2), (0.0, 0.0, 0.3)),
            synth.look_at((-1.5, -2.0, 1.2), (0.0, 0.0, 0.3)),
            synth.look_at((0.0, 2.5, 1.5), (0.0, 0.0, 0.3)),
        ],
    )


def spec_json(spec):
    """A SynthSpec as the JSON `p2o synth --spec` reads, cameras as 4 rows of 4."""
    return json.dumps(asdict(spec), default=lambda a: a.tolist())


@pytest.fixture(scope="session")
def three_block_scene():
    return synth.generate(three_block_spec())


def random_partition(rng, n_points, n_clusters):
    """Random labels covering every cluster id at least once."""
    labels = rng.integers(0, n_clusters, size=n_points)
    labels[rng.permutation(n_points)[:n_clusters]] = np.arange(n_clusters)
    return labels


def points_in_box(pos, lo, hi):
    """Which rows of pos lie in the axis-aligned box [lo, hi], closed on every face."""
    return ((pos >= lo) & (pos <= hi)).all(axis=1)


def sets_from_labels(labels, n_clusters):
    return [np.flatnonzero(labels == c) for c in range(n_clusters)]


def bits_equal(a, b):
    """Bit-for-bit equality of float32 arrays; tells -0.0 from 0.0."""
    return a.dtype == b.dtype == np.float32 and np.array_equal(a.view(np.uint32),
                                                                b.view(np.uint32))
