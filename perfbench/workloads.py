"""Workload generators: each one writes a workload's inputs for a seed.

Every generator is a pure function of (seed, index, toy): the same seed
writes the same bytes. ``toy=True`` shrinks the inputs so the self-test runs
in seconds; the benchmark itself always uses the full size. Inputs go to disk
through the library's own writers, and the measured command only reads them
back, so the measured process never pays for generation.

A ``Workload`` record says how many inputs a run writes, how to write one,
which ``p2o`` arguments run the command on it, and which checks apply. The
benchmark runs one command per input, as a user runs one ``p2o run`` per
scene.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from part2object import scene_io, synth

# AP swings by seed (in the tests' three-block room at 1150 pts/m2, AP50 is
# 0.17 at synth seed 7 and 0.00 at 13), so AP is only compared at one seed.
# DEFAULT_SEED is the seed a run uses when none is given; HELDOUT_SEED is kept
# out of tuning and used to confirm a claimed gain.
DEFAULT_SEED = 7
HELDOUT_SEED = 13


@dataclass(frozen=True)
class Workload:
    name: str
    n_inputs: int
    write_input: object  # (seed, index, dest_dir, toy) -> None
    argv: object  # (input_dir, out_dir) -> list of p2o arguments
    kind: str  # "run" (a p2o run --out directory) or "eval" (a p2o eval report)


def scene_seed(seed, index):
    """Synth seed of a run's index-th scene; distinct for every (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# room: three cuboids on the floor of a walled room, normals dropped


def three_block_spec(seed, room, points_per_m2):
    """Three 0.5 m cuboids 0.14 m apart in a row, seen by four cameras.

    The same scene the acceptance tests use for the end-to-end CLI check.
    """
    size = 0.5
    step = size + 0.14
    return synth.SynthSpec(
        seed=seed,
        objects=[
            synth.SynthObject(center=(x, 0.0, 0.25), size=(size, size, size))
            for x in (-step, 0.0, step)
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


def write_room(seed, index, dest, toy=False):
    room, density = ((2.5, 2.5, 0.5), 1000.0) if toy else ((4.0, 4.0, 1.5), 5750.0)
    spec = three_block_spec(scene_seed(seed, index), room, density)
    cloud, gt, frames = synth.generate(spec)
    # Real RGB-D scans carry no normals; the run estimates them.
    cloud.normals = None
    _write_scene(dest, cloud, gt, frames)


def room_argv(inputs, out):
    return ["run", "--scene", str(inputs), "--out", str(out),
            "--min-object-points", "30"]


# ---------------------------------------------------------------------------
# multiview: many objects, many cameras, normals shipped


def multiview_spec(seed, toy=False):
    """12 cuboids and cylinders on a 0.9 m grid in a 5x5x1 m room.

    48 cameras on a 3.2 m circle at 1.8 m height look at the grid centre.
    At 1500 pts/m2 every voxel is reachable by super-point growth; at 800 and
    below the growth falls back to nearest-centroid assignment, which real
    scans do not hit.
    """
    objects = []
    for k in range(12):
        row, col = divmod(k, 4)
        center = ((col - 1.5) * 0.9, (row - 1.0) * 0.9, 0.2)
        shape = "cuboid" if k % 2 == 0 else "cylinder"
        objects.append(synth.SynthObject(shape=shape, center=center,
                                         size=(0.4, 0.4, 0.4)))
    n_cams = 8 if toy else 48
    cameras = [
        synth.look_at((3.2 * math.cos(2 * math.pi * i / n_cams),
                       3.2 * math.sin(2 * math.pi * i / n_cams), 1.8),
                      (0.0, 0.0, 0.2))
        for i in range(n_cams)
    ]
    return synth.SynthSpec(seed=seed, objects=objects,
                           room=None if toy else (5.0, 5.0, 1.0),
                           points_per_m2=1500.0, cameras=cameras, feature_dim=32)


def write_multiview(seed, index, dest, toy=False):
    cloud, gt, frames = synth.generate(multiview_spec(scene_seed(seed, index), toy))
    _write_scene(dest, cloud, gt, frames)


def multiview_argv(inputs, out):
    return ["run", "--scene", str(inputs), "--out", str(out)]


def _write_scene(dest, cloud, gt, frames):
    dest = Path(dest)
    scene_io.write_scene(dest, cloud)
    scene_io.write_frames(dest, frames)
    scene_io.write_instances(dest / "ground_truth.txt", gt)


# ---------------------------------------------------------------------------
# pooled-eval: dataset-level AP over many scenes' manifests

POOLED_SCENES = 20
POOLED_IDS = 20_000
POOLED_GT = 5
CONFIDENCES = (0.5, 0.7, 0.9, 1.0)


def pooled_scene(rng, n_ids, n_gt):
    """(predictions, ground truth) for one scene, as lists of (ids, conf).

    Ground truth is n_gt disjoint instances over a random 75% of the ids.
    Each instance yields a near-exact prediction with boundary noise, a
    two-way split or nothing (a miss); one to three false positives are drawn
    from the unlabelled ids.
    """
    perm = rng.permutation(n_ids)
    labelled = perm[: int(0.75 * n_ids)]
    background = perm[int(0.75 * n_ids):]
    cuts = np.sort(rng.choice(np.arange(1, labelled.size), n_gt - 1, replace=False))
    gt = [np.sort(part) for part in np.split(labelled, cuts)]

    preds = []
    for ids in gt:
        op = rng.choice(("noise", "split", "miss"), p=(0.45, 0.35, 0.2))
        if op == "miss":
            continue
        if op == "split":
            shuffled = rng.permutation(ids)
            cut = int(rng.uniform(0.3, 0.7) * ids.size)
            parts = [shuffled[:cut], shuffled[cut:]]
        else:
            drop = rng.random(ids.size) < rng.uniform(0.0, 0.3)
            extra = rng.choice(background, int(rng.uniform(0.0, 0.3) * ids.size),
                               replace=False)
            parts = [np.concatenate([ids[~drop], extra])]
        for part in parts:
            preds.append((np.unique(part), float(rng.choice(CONFIDENCES))))
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(50, max(51, background.size // 4)))
        preds.append((np.sort(rng.choice(background, size, replace=False)),
                      float(rng.choice(CONFIDENCES))))
    return preds, [(ids, 1.0) for ids in gt]


def write_pooled(seed, index, dest, toy=False):
    dest = Path(dest)
    n_scenes, n_ids = (3, 2_000) if toy else (POOLED_SCENES, POOLED_IDS)
    for s in range(n_scenes):
        rng = np.random.default_rng([seed, index, s])
        preds, gt = pooled_scene(rng, n_ids, POOLED_GT)
        for name, items, kind in (("pred", preds, "object"), ("gt", gt, "object")):
            scene_io.write_instances(
                dest / f"scene_{s:02d}" / f"{name}.txt",
                scene_io.InstanceSet([scene_io.Instance(ids, conf, kind)
                                      for ids, conf in items]),
            )


def pooled_argv(inputs, out):
    argv = ["eval"]
    for scene in sorted(Path(inputs).glob("scene_*")):
        argv += ["--pred", str(scene / "pred.txt"), "--gt", str(scene / "gt.txt")]
    return argv + ["--out", str(Path(out) / "report.json")]


# Why each workload is in the benchmark is recorded in BENCHMARK.json. The
# scene workloads time two scenes per benchmark run, because one scene's cost
# depends on its seed: about one room scene in five needs one more ~3 s merge
# round, and multiview's peak RSS follows how many points super-point growth
# cannot reach (2.8k-3.2k at 1500 pts/m2, each costing a row of a
# points x seeds distance block).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("room", 2, write_room, room_argv, "run"),
        Workload("multiview", 2, write_multiview, multiview_argv, "run"),
        Workload("pooled-eval", 1, write_pooled, pooled_argv, "eval"),
    )
}
